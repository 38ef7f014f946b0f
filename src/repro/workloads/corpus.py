"""Synthetic book corpus.

The paper's dataset: 348 plain-text books (~11.3 GB total), individually
compressed with bzip2 and gzip.  We cannot ship those books, so this module
generates a statistically similar corpus:

- Zipf-distributed words from a synthetic vocabulary (compression ratios
  land in the real-English range: ~0.33-0.42 for gzip level 6);
- newline-terminated lines of ~8-14 words (grep/gawk are line-based);
- a **needle token** injected at a known rate, so search results have exact
  expected values;
- deterministic from the seed: same spec, same corpus, bit for bit.

Synthesis is a few numpy passes per book: the vocabulary and the needle
sit in one token table (each token followed by a space), a book is one
gather from it, and newlines overwrite each line's last separator.  Line
lengths are drawn in batches that consume the RNG stream exactly as one
draw per line would.  Books are compressed on demand: a functional book
runs its codec on first access to ``BookFile.compressed``, so a corpus
staged as plain text never pays for gzip or bzip2.

``CorpusSpec.paper_scale()`` reproduces the full 348-file/11.3 GB dataset
(analytic mode recommended at that size); the default is a scaled-down
corpus that keeps functional simulations fast.
"""

from __future__ import annotations

import bz2
import zlib
from dataclasses import dataclass, field
from typing import Generator, Iterable, Sequence

import numpy as np

__all__ = ["BookCorpus", "BookFile", "CorpusSpec", "partition_round_robin"]

_VOCAB_SIZE = 4096
_MEAN_WORDS_PER_LINE = 11
_MAX_WORDS_PER_LINE = 2 * _MEAN_WORDS_PER_LINE - 8  # lines hold 8-14 words
_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """Parameters of a generated corpus.

    ``mean_file_bytes`` is the plain-text (uncompressed) size; compressed
    sizes emerge from the actual compressors.
    """

    files: int = 12
    mean_file_bytes: int = 256 * 1024
    size_spread: float = 0.5  # lognormal-ish spread around the mean
    needle: str = "xylophone"
    needle_rate: float = 1.0 / 2000.0  # probability per word
    seed: int = 2018  # the paper's year
    compressions: tuple[str, ...] = ("gzip", "bzip2")  # alternated per file

    def __post_init__(self) -> None:
        if self.files < 1 or self.mean_file_bytes < 1024:
            raise ValueError("need at least one file of at least 1 KiB")
        if not 0 <= self.needle_rate < 1:
            raise ValueError("needle_rate must be in [0, 1)")
        bad = set(self.compressions) - {"gzip", "bzip2", "none"}
        if bad:
            raise ValueError(f"unknown compressions: {bad}")

    @classmethod
    def paper_scale(cls) -> "CorpusSpec":
        """The full dataset: 348 books, ~11.3 GB compressed.

        At gzip/bzip2 text ratios (~0.35) that is ~32 GB of plain text, i.e.
        ~93 MB per book.  Use analytic staging at this scale.
        """
        return cls(files=348, mean_file_bytes=93 * 1024 * 1024)


@dataclass(slots=True)
class BookFile:
    """One generated book.

    A functional book carries its ``plain`` text; its ``compressed`` blob is
    made on first access and cached, so a corpus that is only staged plain
    never runs a codec.  ``dataclasses.replace`` drops the cached blob, so a
    replaced book never carries a blob made from other bytes.  An analytic
    book (``plain is None``) carries only sizes: ``analytic_compressed_size``
    stands in for the blob.
    """

    name: str
    plain_size: int
    compression: str
    plain: bytes | None = None
    needle_count: int = 0
    analytic_compressed_size: int = 0
    _blob: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def compressed(self) -> bytes | None:
        if self.plain is None:
            return None
        if self._blob is None:
            self._blob = _compress(self.plain, self.compression)
        return self._blob

    @property
    def compressed_size(self) -> int:
        if self.plain is None:
            return self.analytic_compressed_size
        return len(self.compressed)

    @property
    def compressed_name(self) -> str:
        ext = {"gzip": ".gz", "bzip2": ".bz2", "none": ""}[self.compression]
        return self.name + ext

    @property
    def ratio(self) -> float:
        return self.compressed_size / self.plain_size if self.plain_size else 0.0


def _make_vocabulary(rng: np.random.Generator) -> list[bytes]:
    """A synthetic vocabulary with English-like word lengths.

    One letter draw for the whole vocabulary, split by the drawn lengths;
    the stream equals one ``rng.choice(letters, n)`` call per word.
    """
    lengths = rng.integers(2, 11, size=_VOCAB_SIZE)
    letters = _LETTERS[rng.integers(0, len(_LETTERS), size=int(lengths.sum()))]
    text = letters.tobytes()
    ends = np.cumsum(lengths).tolist()
    return [text[end - n : end] for end, n in zip(ends, lengths.tolist())]


class BookCorpus:
    """Generates and stages the corpus."""

    def __init__(self, spec: CorpusSpec | None = None):
        self.spec = spec or CorpusSpec()
        self._rng = np.random.default_rng(self.spec.seed)
        vocab = _make_vocabulary(self._rng)
        word_lengths = np.array([len(w) for w in vocab])
        self._mean_word = float(word_lengths.mean()) + 1.0  # + separator
        # Zipf-ish weights over the vocabulary (s ~ 1.1)
        ranks = np.arange(1, _VOCAB_SIZE + 1, dtype=float)
        weights = ranks ** -1.1
        self._weights = weights / weights.sum()
        # token table: every word and then the needle (token _VOCAB_SIZE),
        # each followed by a space, in one buffer
        tokens = vocab + [self.spec.needle.encode()]
        self._token_bytes = np.frombuffer(b" ".join(tokens) + b" ", dtype=np.uint8)
        self._token_lengths = np.array([len(t) + 1 for t in tokens])
        self._token_starts = np.cumsum(self._token_lengths) - self._token_lengths

    # -- generation -----------------------------------------------------------
    def _file_sizes(self) -> np.ndarray:
        spec = self.spec
        mu = np.log(spec.mean_file_bytes)
        sizes = self._rng.lognormal(mean=mu, sigma=spec.size_spread, size=spec.files)
        return np.maximum(sizes, 1024).astype(np.int64)

    def _line_lengths(self, n_words: int) -> np.ndarray:
        """Words per line until ``n_words`` are placed, drawn in batches.

        With ``left`` words unplaced, the next ``left // 14`` lines are all
        needed (none can hold more than 14 words), so each batch draws
        exactly the lengths one draw per line would, in the same order.
        """
        batches = []
        left = n_words
        while left > 0:
            batch = self._rng.integers(
                8, _MAX_WORDS_PER_LINE + 1, size=max(1, left // _MAX_WORDS_PER_LINE)
            )
            batches.append(batch)
            left -= int(batch.sum())
        return np.concatenate(batches)

    def _generate_text(self, nbytes: int) -> tuple[bytes, int]:
        """~``nbytes`` of Zipfian text; returns (text, needle_count)."""
        spec = self.spec
        n_words = max(16, int(nbytes / self._mean_word))
        tokens = self._rng.choice(_VOCAB_SIZE, size=n_words, p=self._weights)
        hits = None
        if spec.needle_rate > 0:
            hits = np.flatnonzero(self._rng.random(n_words) < spec.needle_rate)
            tokens[hits] = _VOCAB_SIZE
        # every word is followed by one separator (space or newline), so word
        # j's separator sits at ends[j]
        lengths = self._token_lengths[tokens]
        ends = np.cumsum(lengths) - 1
        size = min(nbytes, int(ends[-1]) + 1)
        # one gather from the token table: byte k of word j comes from
        # token start + (k - word start)
        offsets = np.repeat(self._token_starts[tokens] - (ends + 1 - lengths), lengths)[:size]
        offsets += np.arange(size)
        text = self._token_bytes[offsets]
        line_ends = ends[np.minimum(np.cumsum(self._line_lengths(n_words)), n_words) - 1]
        text[line_ends[line_ends < size]] = ord("\n")
        # count the needles the size truncation keeps whole
        needle_count = 0 if hits is None else int(np.count_nonzero(ends[hits] <= nbytes))
        return text.tobytes(), needle_count

    def generate(self, functional: bool = True) -> list[BookFile]:
        """Produce the corpus.

        ``functional=False`` skips byte generation, using the analytic
        compression ratio instead — instant at paper scale.  Functional
        books are compressed on first use of ``BookFile.compressed``.
        """
        spec = self.spec
        books: list[BookFile] = []
        sizes = self._file_sizes()
        for i, size in enumerate(sizes):
            compression = spec.compressions[i % len(spec.compressions)]
            name = f"book{i:04d}.txt"
            if functional:
                plain, needles = self._generate_text(int(size))
                books.append(
                    BookFile(
                        name=name,
                        plain_size=len(plain),
                        compression=compression,
                        plain=plain,
                        needle_count=needles,
                    )
                )
            else:
                ratio = {"gzip": 0.36, "bzip2": 0.30, "none": 1.0}[compression]
                expected_needles = int(size / 7.0 * spec.needle_rate)
                books.append(
                    BookFile(
                        name=name,
                        plain_size=int(size),
                        compression=compression,
                        needle_count=expected_needles,
                        analytic_compressed_size=max(1, int(size * ratio)),
                    )
                )
        return books

    # -- staging ---------------------------------------------------------------
    @staticmethod
    def stage_plain(fs, books: Iterable[BookFile]) -> Generator:
        """Import plain-text books into a filesystem (simulation process)."""
        for book in books:
            yield from fs.write_file(book.name, book.plain, size=book.plain_size)
        return None

    @staticmethod
    def stage_compressed(fs, books: Iterable[BookFile]) -> Generator:
        """Import compressed books (the paper's on-device layout)."""
        for book in books:
            yield from fs.write_file(
                book.compressed_name, book.compressed, size=book.compressed_size
            )
        return None


def _compress(data: bytes, algorithm: str) -> bytes:
    if algorithm == "gzip":
        return zlib.compress(data, 6)
    if algorithm == "bzip2":
        return bz2.compress(data, 9)
    if algorithm == "none":
        return data
    raise ValueError(f"unknown algorithm {algorithm!r}")


def partition_round_robin(items: Sequence, buckets: int) -> list[list]:
    """Distribute items across ``buckets`` (file->device placement)."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    out: list[list] = [[] for _ in range(buckets)]
    for i, item in enumerate(items):
        out[i % buckets].append(item)
    return out
