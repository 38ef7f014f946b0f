"""Unit tests for the synthetic book corpus.

The vectorised generator is checked against the per-line text assembly and
per-word vocabulary draw it replaced, kept here as the reference oracle.
"""

import bz2
import dataclasses
import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import BookCorpus, CorpusSpec, partition_round_robin
from repro.workloads import corpus as corpus_module


def test_corpus_is_deterministic():
    a = BookCorpus(CorpusSpec(files=3, mean_file_bytes=8192)).generate()
    b = BookCorpus(CorpusSpec(files=3, mean_file_bytes=8192)).generate()
    assert [x.plain for x in a] == [y.plain for y in b]
    assert [x.needle_count for x in a] == [y.needle_count for y in b]


def test_different_seeds_differ():
    a = BookCorpus(CorpusSpec(files=2, seed=1)).generate()
    b = BookCorpus(CorpusSpec(files=2, seed=2)).generate()
    assert a[0].plain != b[0].plain


def test_compression_ratio_in_english_range():
    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=128 * 1024)).generate()
    for book in books:
        assert 0.15 < book.ratio < 0.6, f"{book.name} ratio {book.ratio}"


def test_compressions_alternate_and_decompress():
    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=16 * 1024)).generate()
    assert [b.compression for b in books] == ["gzip", "bzip2", "gzip", "bzip2"]
    assert zlib.decompress(books[0].compressed) == books[0].plain
    assert bz2.decompress(books[1].compressed) == books[1].plain


def test_needle_count_matches_content():
    spec = CorpusSpec(files=2, mean_file_bytes=64 * 1024, needle_rate=0.01)
    books = BookCorpus(spec).generate()
    for book in books:
        assert book.needle_count > 0
        # every counted needle appears whole, and no other occurrence exists
        assert book.plain.count(spec.needle.encode()) == book.needle_count


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_needle_count_excludes_needles_cut_by_truncation(seed):
    """Texts are cut to their drawn size after the words are placed; needles
    past (or straddling) the cut must not be counted.  These corpora each
    have books whose cut drops a needle."""
    spec = CorpusSpec(files=20, mean_file_bytes=64 * 1024, seed=seed)
    for book in BookCorpus(spec).generate():
        assert book.plain.count(spec.needle.encode()) == book.needle_count, book.name


# -- differential: vectorised generator vs the per-line oracle ---------------

def _oracle_vocabulary(rng):
    """One ``rng.choice`` per word, as the vocabulary was first drawn."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    lengths = rng.integers(2, 11, size=4096)
    return [bytes(rng.choice(letters, size=int(n))) for n in lengths]


def _oracle_text(rng, spec, vocab, weights, mean_word, nbytes):
    """One ``rng.integers`` and one ``bytes.join`` per line."""
    word_lengths = np.array([len(w) for w in vocab])
    n_words = max(16, int(nbytes / mean_word))
    idx = rng.choice(4096, size=n_words, p=weights)
    words = [vocab[i] for i in idx]
    needle = spec.needle.encode()
    needle_count = 0
    if spec.needle_rate > 0:
        hits = np.flatnonzero(rng.random(n_words) < spec.needle_rate)
        for h in hits:
            words[int(h)] = needle
        lengths = word_lengths[idx]
        lengths[hits] = len(needle)
        ends = np.cumsum(lengths + 1) - 1
        needle_count = int(np.count_nonzero(ends[hits] <= nbytes))
    out = bytearray()
    i = 0
    while i < n_words:
        line_len = int(rng.integers(8, 15))
        out += b" ".join(words[i : i + line_len])
        out += b"\n"
        i += line_len
    return bytes(out[:nbytes] if len(out) > nbytes else out), needle_count


def _oracle_corpus(spec):
    """(plain texts, needle counts, the RNG's next draw) for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    vocab = _oracle_vocabulary(rng)
    mean_word = float(np.mean([len(w) for w in vocab])) + 1.0
    weights = np.arange(1, 4097, dtype=float) ** -1.1
    weights = weights / weights.sum()
    sizes = rng.lognormal(
        mean=np.log(spec.mean_file_bytes), sigma=spec.size_spread, size=spec.files
    )
    texts = [
        _oracle_text(rng, spec, vocab, weights, mean_word, int(size))
        for size in np.maximum(sizes, 1024).astype(np.int64)
    ]
    return [t for t, _ in texts], [n for _, n in texts], rng.random()


def _generated(spec):
    corpus = BookCorpus(spec)
    books = corpus.generate()
    return [b.plain for b in books], [b.needle_count for b in books], corpus._rng.random()


def test_vocabulary_matches_per_word_oracle():
    for seed in (0, 1, 2018):
        fast = corpus_module._make_vocabulary(np.random.default_rng(seed))
        assert fast == _oracle_vocabulary(np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(
    files=st.integers(1, 6),
    mean_file_bytes=st.integers(1024, 256 * 1024),
    size_spread=st.floats(0.0, 0.9),
    needle_rate=st.one_of(st.sampled_from([0.0, 0.05]), st.floats(0.0, 0.05)),
    seed=st.integers(0, 2**64),
    compressions=st.sampled_from(
        [("gzip", "bzip2"), ("gzip",), ("bzip2",), ("none",), ("bzip2", "none", "gzip")]
    ),
)
def test_generator_matches_per_line_oracle(
    files, mean_file_bytes, size_spread, needle_rate, seed, compressions
):
    """Same plain bytes, same needle counts, and the RNG left in the same
    state (its next draw agrees)."""
    spec = CorpusSpec(
        files=files,
        mean_file_bytes=mean_file_bytes,
        size_spread=size_spread,
        needle_rate=needle_rate,
        seed=seed,
        compressions=compressions,
    )
    assert _generated(spec) == _oracle_corpus(spec)


#: sha256 of the concatenated plain bytes, recorded with the per-line
#: generator: the jobs-paper and serve-poisson benchmark shapes and the smoke
#: preset
CORPUS_PINS = {
    "jobs-paper": (
        "fig6",
        ["corpus.files=384", "corpus.mean_file_bytes=65536", "corpus.size_spread=0.0"],
        "eb0780197248e43011e0ac875be85a9cc36f21338b1cec7fdc98a75a9eb4b889",
    ),
    "serve-poisson": (
        "traffic-soak",
        ["corpus.files=128"],
        "8b7c4e8ac0de6be16f2105a64fff80ccf4dbda41a674439c0fae413c1baa2c62",
    ),
    "smoke": (
        "smoke",
        [],
        "bdabb43ca0770f351078d052d5682f5f7c7bad26148907258f6a113b16b10003",
    ),
}


@pytest.mark.parametrize("shape", sorted(CORPUS_PINS))
def test_corpus_bytes_pinned(shape):
    from repro.config import apply_overrides, preset

    name, overrides, digest = CORPUS_PINS[shape]
    config = apply_overrides(preset(name), overrides)
    books = BookCorpus(config.corpus).generate()
    assert hashlib.sha256(b"".join(b.plain for b in books)).hexdigest() == digest


# -- compression on demand ------------------------------------------------------

@pytest.fixture
def codec_calls(monkeypatch):
    """Count calls of the corpus codec."""
    calls = []
    compress = corpus_module._compress

    def counting(data, algorithm):
        calls.append(algorithm)
        return compress(data, algorithm)

    monkeypatch.setattr(corpus_module, "_compress", counting)
    return calls


def test_generate_runs_no_codec(codec_calls):
    BookCorpus(CorpusSpec(files=4, mean_file_bytes=16 * 1024)).generate()
    BookCorpus(CorpusSpec(files=4, mean_file_bytes=16 * 1024)).generate(functional=False)
    assert codec_calls == []


def test_compressed_blob_made_once_on_first_access(codec_calls):
    books = BookCorpus(CorpusSpec(files=2, mean_file_bytes=16 * 1024)).generate()
    first = books[0].compressed
    assert codec_calls == ["gzip"]
    assert books[0].compressed is first
    assert books[0].compressed_size == len(first)
    assert codec_calls == ["gzip"]
    books[1].compressed_size
    assert codec_calls == ["gzip", "bzip2"]


def test_compressed_blob_is_the_codec_output():
    books = BookCorpus(
        CorpusSpec(files=3, mean_file_bytes=16 * 1024, compressions=("gzip", "bzip2", "none"))
    ).generate()
    gz, bz, plain = books
    assert gz.compressed == zlib.compress(gz.plain, 6)
    assert bz.compressed == bz2.compress(bz.plain, 9)
    assert plain.compressed == plain.plain
    for book in books:
        assert book.compressed_size == len(book.compressed)
        assert book.ratio == len(book.compressed) / len(book.plain)


def test_replaced_book_compresses_its_own_plain_bytes():
    book = BookCorpus(CorpusSpec(files=1, mean_file_bytes=16 * 1024)).generate()[0]
    other = b"another book\n" * 500
    # before and after the original's blob is cached
    assert dataclasses.replace(book, plain=other).compressed == zlib.compress(other, 6)
    original = book.compressed
    replaced = dataclasses.replace(book, plain=other)
    assert replaced.compressed == zlib.compress(other, 6)
    assert replaced.compressed_size == len(zlib.compress(other, 6))
    assert book.compressed is original


def test_analytic_books_keep_analytic_sizes(codec_calls):
    books = BookCorpus(
        CorpusSpec(files=6, mean_file_bytes=64 * 1024, compressions=("gzip", "bzip2", "none"))
    ).generate(functional=False)
    ratios = {"gzip": 0.36, "bzip2": 0.30, "none": 1.0}
    for book in books:
        assert book.plain is None and book.compressed is None
        assert book.compressed_size == max(1, int(book.plain_size * ratios[book.compression]))
        assert book.ratio == book.compressed_size / book.plain_size
    assert codec_calls == []


def test_file_sizes_spread_around_mean():
    spec = CorpusSpec(files=30, mean_file_bytes=64 * 1024)
    books = BookCorpus(spec).generate(functional=False)
    sizes = [b.plain_size for b in books]
    mean = sum(sizes) / len(sizes)
    assert 0.4 * spec.mean_file_bytes < mean < 3.0 * spec.mean_file_bytes
    assert len(set(sizes)) > 10  # actually spread


def test_analytic_generation_is_instant_at_paper_scale():
    spec = CorpusSpec.paper_scale()
    books = BookCorpus(spec).generate(functional=False)
    assert len(books) == 348
    total_compressed = sum(b.compressed_size for b in books)
    # the paper: ~11.3 GB of compressed books
    assert 6e9 < total_compressed < 20e9
    assert all(b.plain is None for b in books)


def test_compressed_names():
    books = BookCorpus(CorpusSpec(files=2, mean_file_bytes=4096)).generate(functional=False)
    assert books[0].compressed_name.endswith(".gz")
    assert books[1].compressed_name.endswith(".bz2")


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(files=0)
    with pytest.raises(ValueError):
        CorpusSpec(needle_rate=1.5)
    with pytest.raises(ValueError):
        CorpusSpec(compressions=("zip",))


def test_partition_round_robin():
    parts = partition_round_robin(list(range(10)), 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    assert sorted(sum(parts, [])) == list(range(10))
    with pytest.raises(ValueError):
        partition_round_robin([1], 0)


# -- IO pattern generators ----------------------------------------------------

def _rng(seed=0):
    import numpy as np

    return np.random.default_rng(seed)


def test_uniform_covers_space():
    from repro.workloads import uniform

    addrs = uniform(_rng(), logical_pages=100, count=5000)
    assert addrs.min() >= 0 and addrs.max() < 100
    assert len(set(addrs.tolist())) > 90  # essentially full coverage


def test_hot_cold_skew():
    from repro.workloads import hot_cold

    addrs = hot_cold(_rng(), logical_pages=1000, count=20000,
                     hot_fraction=0.2, hot_probability=0.8)
    hot_hits = int((addrs < 200).sum())
    assert 0.75 < hot_hits / 20000 < 0.85  # ~80% to the hot 20%


def test_zipfian_rank_ordering():
    from repro.workloads import zipfian
    import numpy as np

    addrs = zipfian(_rng(), logical_pages=50, count=30000, s=1.2)
    counts = np.bincount(addrs, minlength=50)
    assert counts[0] > counts[10] > counts[40]  # popularity decays with rank


def test_sequential_wraps():
    from repro.workloads import sequential

    addrs = sequential(logical_pages=10, count=25, start=7)
    assert addrs[:5].tolist() == [7, 8, 9, 0, 1]
    assert len(addrs) == 25


def test_pattern_validation():
    import pytest

    from repro.workloads import hot_cold, sequential, uniform, zipfian

    with pytest.raises(ValueError):
        uniform(_rng(), 0, 5)
    with pytest.raises(ValueError):
        hot_cold(_rng(), 10, 5, hot_fraction=0.0)
    with pytest.raises(ValueError):
        zipfian(_rng(), 10, 5, s=0)
    with pytest.raises(ValueError):
        sequential(10, 5, start=10)


def test_patterns_deterministic_per_seed():
    from repro.workloads import uniform, zipfian

    assert (uniform(_rng(3), 100, 50) == uniform(_rng(3), 100, 50)).all()
    assert (zipfian(_rng(3), 100, 50) == zipfian(_rng(3), 100, 50)).all()
