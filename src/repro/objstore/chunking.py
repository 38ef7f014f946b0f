"""Content-defined chunking: rolling-hash boundaries with size bounds.

The dedup store splits object payloads into variable-size chunks whose
boundaries depend on *content*, not offsets, so an insertion early in an
object shifts bytes without shifting every later chunk boundary — the
property that makes digest-based dedup effective (the casstor lineage:
Rabin-fingerprint chunking over Cassandra blobs).

This implementation uses a Gear rolling hash (a 256-entry random table,
one shift-add-lookup per byte — the FastCDC family's hash) with min/avg/max
bounds:

- no boundary before ``min_size`` bytes (the hash is still warming up and
  tiny chunks waste index space);
- a boundary wherever the low ``bits(avg_size)`` bits of the hash are zero
  (expected chunk length ~= ``avg_size``);
- a forced boundary at ``max_size`` (bounds the worst case on
  pathological content such as long runs of one byte).

The hash state resets at every boundary, so chunking is *self-synchronising*:
cutting a payload at any emitted boundary and chunking the halves separately
reproduces exactly the original chunk sequence.  The Hypothesis suite pins
that property (``tests/test_chunking.py``), and the in-situ minion app
(:class:`repro.objstore.apps.ChunkSumApp`) feeds pages through the same
incremental :class:`Chunker`, so device-side and host-side boundaries are
identical by construction.

Vectorised kernel
-----------------
The hash is ``h = (h << 1) + gear[byte]`` (mod 2**64) from zero at the chunk
start, so after the byte at position ``i`` it is
``sum_k gear[x[i-k]] << k`` over the bytes since the boundary.  A boundary
test reads only the low ``b = mask.bit_length()`` bits, and a term shifted
by ``k >= b`` has no bits there, so::

    h & mask == (sum_{k < b} gear[x[i-k]] << k) & mask

— a sliding window over the last ``b`` bytes.  :class:`Chunker` computes
that window sum for every position of a block at once (shifted adds that
wrap in uint32, or uint64 when ``b > 32``; :func:`_window_sums` needs
O(log b) of them), takes the candidate positions where it is zero, and
walks chunk to chunk with ``searchsorted``, applying ``min_size`` (ignore
candidates earlier than that) and ``max_size`` (force a boundary when no
candidate comes first).

The window is only the true hash where it does not reach back past the
chunk start, i.e. from the ``b``-th byte of a chunk on.  Candidates before
that matter only when ``min_size < b``; for a chunk that starts inside the
block those first ``b - 1`` positions are rehashed exactly, byte by byte
from the boundary (at most ``b - 1`` steps per chunk).  The window at the
very start of a block is truncated there, which is exact because the block
begins with the carry: the last ``min(length, b - 1)`` bytes since the
boundary, the only state besides ``length`` that crosses :meth:`update`
calls.

Input is hashed in blocks of :data:`BLOCK_BYTES`, so one call holds a few
arrays of that many 4- or 8-byte words however large the payload (a
host-side fallback may chunk a whole object in one call).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["ChunkParams", "Chunker", "chunk_digests", "chunk_spans"]

#: Gear table: 256 pinned 64-bit constants.  Seeded stdlib RNG instance —
#: module-load determinism, never the global RNG.
_GEAR_RNG = random.Random(0x9E3779B97F4A7C15)
_GEAR: tuple[int, ...] = tuple(_GEAR_RNG.getrandbits(64) for _ in range(256))
_GEAR_U64 = np.array(_GEAR, dtype=np.uint64)
_MASK64 = (1 << 64) - 1

#: Bytes hashed per vectorised pass (bounds the kernel's working set).
BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True, slots=True)
class ChunkParams:
    """Chunking bounds; ``avg_size`` sets the boundary-mask width."""

    min_size: int = 1024
    avg_size: int = 4096
    max_size: int = 16384

    def __post_init__(self) -> None:
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if not self.min_size <= self.avg_size <= self.max_size:
            raise ValueError("need min_size <= avg_size <= max_size")

    @property
    def mask(self) -> int:
        """Boundary mask: ``avg_size`` as a power-of-two bit width."""
        return (1 << max(1, self.avg_size.bit_length() - 1)) - 1


class Chunker:
    """Incremental content-defined chunker (page-seam safe).

    Feed bytes in any fragmentation via :meth:`update`; each call returns
    the lengths of the chunks completed by those bytes.  :meth:`finish`
    flushes the trailing partial chunk.  Boundary decisions depend only on
    the bytes since the previous boundary, never on fragment sizes, so
    streaming a file page by page produces the same chunks as one
    whole-buffer pass.
    """

    def __init__(self, params: ChunkParams):
        self.params = params
        # only the hash's low 64 bits exist, so wider masks test all of them
        self._mask = params.mask & _MASK64
        self._bits = self._mask.bit_length()
        dtype = np.uint32 if self._bits <= 32 else np.uint64
        self._gear = (_GEAR_U64 & np.uint64(self._mask)).astype(dtype)
        self._length = 0
        self._carry = self._gear[:0]  # gear values of the last < b bytes

    def update(self, data: bytes) -> Iterator[int]:
        view = memoryview(data).cast("B")
        lengths: list[int] = []
        for start in range(0, len(view), BLOCK_BYTES):
            lengths += self._scan(view[start:start + BLOCK_BYTES])
        return iter(lengths)

    def _scan(self, block: memoryview) -> list[int]:
        """Boundaries in ``carry + block``; keeps the new carry."""
        bits, mask = self._bits, self._mask
        fresh = self._gear.take(np.frombuffer(block, dtype=np.uint8))
        n0 = len(self._carry)
        g = np.concatenate((self._carry, fresh)) if n0 else fresh
        n = len(g)
        candidates = np.flatnonzero((_window_sums(g, bits) & mask) == 0)

        min_size, max_size = self.params.min_size, self.params.max_size
        exact_head = min_size < bits
        lengths: list[int] = []
        start = n0 - self._length  # this chunk's first byte (may be < 0)
        while True:
            lo = max(start + min_size - 1, n0)  # first position allowed to cut
            hi = start + max_size - 1  # forced cut
            end = -1
            if exact_head and start > 0:
                # the window at start..start+b-2 reaches back past the
                # boundary: rehash those positions from the chunk start
                last = min(start + bits - 2, hi, n - 1)
                if lo <= last:
                    hash_ = 0
                    for i, gear in enumerate(g[start:last + 1].tolist(), start):
                        hash_ = (hash_ << 1) + gear
                        if i >= lo and hash_ & mask == 0:
                            end = i
                            break
                    lo = last + 1
            if end < 0:
                j = int(np.searchsorted(candidates, lo))
                if j < len(candidates) and candidates[j] <= hi:
                    end = int(candidates[j])
                elif hi < n:
                    end = hi
                else:
                    break
            lengths.append(end - start + 1)
            start = end + 1
        self._length = n - start
        self._carry = g[max(start, n - bits + 1):].copy()
        return lengths

    def finish(self) -> int | None:
        """The trailing partial chunk's length (``None`` if flush-aligned)."""
        length = self._length if self._length else None
        self._length = 0
        self._carry = self._gear[:0]
        return length


def _window_sums(g: np.ndarray, bits: int) -> np.ndarray:
    """``out[i] = sum(g[i-k] << k for k in range(min(bits, i + 1)))``, wrapping.

    Built by doubling, in O(log bits) array passes: the window of ``a + c``
    bytes is the ``a`` window plus the ``c`` window ending ``a`` bytes
    earlier, shifted left by ``a``.  Windows of 1, 2, 4, ... bytes are
    combined along the binary digits of ``bits``.
    """
    out = None
    width = 0  # window length ``out`` covers so far
    run, span = g, 1  # ``run`` holds the windows of ``span`` bytes
    while True:
        if bits & span:
            if out is None:
                out, width = run.copy(), span
            else:
                out[width:] += run[:-width] << width
                width += span
        if span * 2 > bits:
            return out
        doubled = run.copy()
        doubled[span:] += run[:-span] << span
        run, span = doubled, span * 2


def chunk_spans(data: bytes, params: ChunkParams) -> list[tuple[int, int]]:
    """``(offset, length)`` spans covering ``data`` exactly, in order."""
    chunker = Chunker(params)
    spans: list[tuple[int, int]] = []
    offset = 0
    for length in chunker.update(data):
        spans.append((offset, length))
        offset += length
    tail = chunker.finish()
    if tail is not None:
        spans.append((offset, tail))
    return spans


def chunk_digests(data: bytes, params: ChunkParams) -> list[tuple[str, int]]:
    """``(sha1_hex, length)`` per chunk — what PUT ships across PCIe."""
    view = memoryview(data)
    return [
        (hashlib.sha1(view[offset:offset + length]).hexdigest(), length)
        for offset, length in chunk_spans(data, params)
    ]
