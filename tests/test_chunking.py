"""Property-based tests for content-defined chunking (Gear rolling hash).

The vectorised :class:`Chunker` is checked differentially against the
original per-byte Gear loop, kept here as the reference oracle.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objstore import ChunkParams, Chunker, chunk_digests, chunk_spans
from repro.objstore.chunking import BLOCK_BYTES

PARAMS = ChunkParams(min_size=64, avg_size=256, max_size=1024)
SMOKE_PARAMS = ChunkParams(min_size=512, avg_size=2048, max_size=8192)

payloads = st.binary(min_size=0, max_size=16 * 1024)

# The pinned Gear table, regenerated independently of the module under test.
_ORACLE_RNG = random.Random(0x9E3779B97F4A7C15)
ORACLE_GEAR = tuple(_ORACLE_RNG.getrandbits(64) for _ in range(256))


def reference_lengths(data: bytes, params: ChunkParams) -> list[int]:
    """The per-byte Gear chunker: the definition the kernel must reproduce."""
    mask = params.mask
    h = 0
    length = 0
    out = []
    for byte in data:
        h = ((h << 1) + ORACLE_GEAR[byte]) & ((1 << 64) - 1)
        length += 1
        if (length >= params.min_size and (h & mask) == 0) or length >= params.max_size:
            out.append(length)
            h = 0
            length = 0
    if length:
        out.append(length)
    return out


def streamed_lengths(pieces, params: ChunkParams) -> list[int]:
    chunker = Chunker(params)
    out = []
    for piece in pieces:
        out.extend(chunker.update(piece))
    tail = chunker.finish()
    if tail is not None:
        out.append(tail)
    return out


def lengths(data: bytes, params: ChunkParams = PARAMS) -> list[int]:
    return [length for _, length in chunk_spans(data, params)]


def test_empty_input_produces_no_chunks():
    assert lengths(b"") == []
    chunker = Chunker(PARAMS)
    assert list(chunker.update(b"")) == []
    assert chunker.finish() is None


@settings(max_examples=60, deadline=None)
@given(payloads)
def test_chunking_is_deterministic(data):
    assert lengths(data) == lengths(data)
    assert chunk_digests(data, PARAMS) == chunk_digests(data, PARAMS)


@settings(max_examples=60, deadline=None)
@given(payloads)
def test_chunks_cover_input_exactly(data):
    spans = chunk_spans(data, PARAMS)
    assert sum(length for _, length in spans) == len(data)
    offset = 0
    for start, length in spans:
        assert start == offset
        offset += length


@settings(max_examples=60, deadline=None)
@given(payloads)
def test_chunk_sizes_respect_bounds(data):
    sizes = lengths(data)
    assert all(size <= PARAMS.max_size for size in sizes)
    # every chunk but the (possibly short) final tail honours the floor
    assert all(size >= PARAMS.min_size for size in sizes[:-1])


@settings(max_examples=60, deadline=None)
@given(payloads, st.binary(min_size=0, max_size=4 * 1024))
def test_concatenation_stable_at_chunk_boundaries(prefix, suffix):
    """Splitting the stream at an emitted boundary never changes the chunks:
    the rolling hash resets per chunk, so boundaries are self-synchronising."""
    whole = lengths(prefix + suffix)
    spans = chunk_spans(prefix, PARAMS)
    if not spans:
        return
    # feed the data in two pieces split at the first boundary; the chunk
    # sequence must match the one-shot pass byte for byte
    cut = spans[0][1]
    chunker = Chunker(PARAMS)
    streamed = list(chunker.update((prefix + suffix)[:cut]))
    streamed += list(chunker.update((prefix + suffix)[cut:]))
    tail = chunker.finish()
    if tail is not None:
        streamed.append(tail)
    assert streamed == whole


@settings(max_examples=40, deadline=None)
@given(payloads)
def test_incremental_equals_one_shot_under_any_split(data):
    one_shot = lengths(data)
    for step in (1, 7, 101):
        chunker = Chunker(PARAMS)
        streamed = []
        for start in range(0, len(data), step):
            streamed.extend(chunker.update(data[start:start + step]))
        tail = chunker.finish()
        if tail is not None:
            streamed.append(tail)
        assert streamed == one_shot


@settings(max_examples=40, deadline=None)
@given(payloads)
def test_digests_are_sha1_of_the_spans(data):
    spans = chunk_spans(data, PARAMS)
    digests = chunk_digests(data, PARAMS)
    assert len(digests) == len(spans)
    for (start, length), (digest, size) in zip(spans, digests):
        assert size == length
        assert digest == hashlib.sha1(data[start:start + length]).hexdigest()


def test_shared_suffix_resynchronises():
    """Prepending bytes only disturbs chunking near the edit: a long shared
    suffix converges to identical chunk digests (what makes dedup work)."""
    import random

    rng = random.Random(7)
    shared = bytes(rng.getrandbits(8) for _ in range(8 * 1024))
    a = dict(chunk_digests(b"X" * 37 + shared, PARAMS))
    b = dict(chunk_digests(shared, PARAMS))
    common = set(a) & set(b)
    assert sum(b[d] for d in common) > len(shared) // 2


def test_params_validate_bounds():
    import pytest

    with pytest.raises(ValueError):
        ChunkParams(min_size=0, avg_size=256, max_size=1024)
    with pytest.raises(ValueError):
        ChunkParams(min_size=512, avg_size=256, max_size=1024)
    with pytest.raises(ValueError):
        ChunkParams(min_size=64, avg_size=2048, max_size=1024)


# -- differential: vectorised kernel vs the per-byte oracle -------------------

@st.composite
def chunk_params(draw):
    """Any valid params, weighted toward the kernel's edge cases: min_size=1,
    min_size below the mask width (exact rehash after each boundary),
    min_size == max_size, and masks wider than 16 (and 32) bits."""
    min_size = draw(st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 600)))
    avg_size = draw(
        st.one_of(
            st.just(min_size),
            st.integers(min_size, max(min_size, 64)),
            st.integers(min_size, min_size + 3000),
            st.integers(max(min_size, 1 << 16), 1 << 24),
            st.integers(max(min_size, 1 << 32), 1 << 40),
        )
    )
    max_size = draw(
        st.one_of(st.just(avg_size), st.integers(avg_size, avg_size + 5000))
    )
    if draw(st.booleans()):
        min_size = avg_size = max_size = draw(st.integers(1, 300))
    return ChunkParams(min_size=min_size, avg_size=avg_size, max_size=max_size)


#: Payloads mixing seeded random bytes with runs of one byte (the input on
#: which the hash degenerates and only ``max_size`` cuts).
runs_payloads = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 2**32), st.integers(1, 3000)).map(
            lambda part: random.Random(part[0]).randbytes(part[1])
        ),
        st.tuples(st.integers(0, 255), st.integers(1, 3000)).map(
            lambda run: bytes([run[0]]) * run[1]
        ),
    ),
    max_size=6,
).map(lambda parts: b"".join(parts)[: 6 * 1024])


def split(data: bytes, step: int, empty_every: int) -> list[bytes]:
    pieces = []
    for n, start in enumerate(range(0, len(data), step)):
        if n % empty_every == 0:
            pieces.append(b"")
        pieces.append(data[start:start + step])
    return pieces + [b""]


@settings(max_examples=80, deadline=None)
@given(chunk_params(), runs_payloads, st.integers(1, 5))
def test_kernel_matches_per_byte_oracle(params, data, empty_every):
    expected = reference_lengths(data, params)
    assert lengths(data, params) == expected
    for step in (1, 7, 4096):
        assert streamed_lengths(split(data, step, empty_every), params) == expected


@pytest.mark.parametrize(
    "params",
    [
        SMOKE_PARAMS,
        ChunkParams(min_size=1, avg_size=2, max_size=64),
        ChunkParams(min_size=2, avg_size=48, max_size=300),
        ChunkParams(min_size=3, avg_size=1 << 20, max_size=(1 << 20) + 7),
        ChunkParams(min_size=5, avg_size=1 << 40, max_size=1 << 41),
        ChunkParams(min_size=700, avg_size=700, max_size=700),
    ],
)
def test_kernel_matches_oracle_across_blocks(params):
    """Payloads longer than one kernel block, fed whole and in odd pieces."""
    rng = random.Random(5)
    data = b"".join(
        rng.randbytes(rng.randrange(1, 4000)) + bytes([rng.getrandbits(8)]) * rng.randrange(1, 9000)
        for _ in range(40)
    )
    assert len(data) > 2 * BLOCK_BYTES
    expected = reference_lengths(data, params)
    assert lengths(data, params) == expected
    assert streamed_lengths(split(data, BLOCK_BYTES - 1, 3), params) == expected


def test_update_reports_the_chunks_its_bytes_complete():
    """A forced cut on the last byte of a call is reported by that call, not
    held back for the next one (the in-situ app hashes per page)."""
    chunker = Chunker(SMOKE_PARAMS)
    assert list(chunker.update(bytes(SMOKE_PARAMS.max_size))) == [SMOKE_PARAMS.max_size]
    assert chunker.finish() is None


def test_pinned_lengths_at_objstore_smoke_params():
    """Chunk boundaries of a seeded payload at the objstore-smoke bounds —
    the values the committed objstore digests were recorded with."""
    data = random.Random(2018).randbytes(64 * 1024)
    assert lengths(data, SMOKE_PARAMS) == [
        4163, 4000, 875, 4133, 2313, 964, 1895, 671, 3092, 2619, 2277, 2183, 2285,
        2623, 1682, 3151, 1929, 1969, 3147, 602, 2391, 3589, 2418, 7930, 2635,
    ]
