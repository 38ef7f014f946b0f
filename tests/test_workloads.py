"""Unit tests for the synthetic book corpus."""

import bz2
import zlib

import pytest

from repro.workloads import BookCorpus, CorpusSpec, partition_round_robin


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
