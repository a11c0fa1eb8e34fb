"""Word-embedding file parsing.

Three on-disk formats are supported:

* GloVe text: one ``word v1 ... vd`` row per line, no header.
* word2vec text: a ``<count> <d>`` header line, then GloVe-style rows.
* word2vec binary: ASCII header ``<count> <d>\\n``; each entry is the
  word's bytes terminated by a single space followed by d little-endian
  float32 values, optionally followed by a newline.

Vectors are widened to float64 on load.  In every format a repeated
word keeps its first vector; the later entries count as skipped.  A
corpus uses a small share of a pre-trained file's rows, so every loader
takes an optional ``vocab``: a text loader then streams the file, keeps
the lines whose word is in it and whose field count is right, and
parses them in one bulk numpy call (row by row, with the same skip and
error rules, if that call fails); the binary loader widens only those
vectors.  Kept rows stay in file order, so a document's features do
not depend on whether the load was filtered.  A deterministic synthetic
generator stands in for in-domain models during tests: each vector is
keyed on (word, seed, d) so it does not depend on vocabulary order.
"""

from __future__ import annotations

import hashlib
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmbeddingFormatError

log = logging.getLogger(__name__)

EMBEDDING_FORMATS = ("glove", "word2vec-text", "word2vec-binary")


@dataclass
class EmbeddingModel:
    """Immutable word → vector mapping."""

    dimension: int
    word_ids: dict[str, int]
    words: tuple[str, ...]
    vectors: np.ndarray  # |vocab| x d, float64
    origin: str = ""
    skipped_lines: int = 0

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_ids

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.word_ids[word]]


def _make_model(
    words: list[str], vectors: np.ndarray, d: int, origin: str, skipped: int = 0
) -> EmbeddingModel:
    vectors = np.asarray(vectors, dtype=np.float64)
    if not np.all(np.isfinite(vectors)):
        raise EmbeddingFormatError(f"{origin}: non-finite vector entries")
    return EmbeddingModel(
        dimension=d,
        word_ids={w: i for i, w in enumerate(words)},
        words=tuple(words),
        vectors=vectors,
        origin=origin,
        skipped_lines=skipped,
    )


def _parse_row(parts: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(x) for x in parts], dtype=np.float64)
    except ValueError:
        return None


# numpy's number parser strips these ASCII separators as whitespace;
# float() rejects them, so text holding one is parsed row by row.
_NOT_FLOAT_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _bulk_parse(texts: list[str], d: int) -> np.ndarray | None:
    """Rows of d space-separated floats in one call, with the values
    float() would give; None if some row does not parse that way."""
    if not texts:
        return np.zeros((0, d))
    joined = "".join(texts)
    if any(c in joined for c in _NOT_FLOAT_SPACE):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-empty input warns
            rows = np.loadtxt(
                texts, dtype=np.float64, delimiter=" ", comments=None, ndmin=2
            )
    except ValueError:
        return None
    # loadtxt drops empty lines, which float() rejects.
    return rows if rows.shape == (len(texts), d) else None


def _parse_candidates(words, texts, d, on_bad=None):
    """Parse the candidate rows and keep each word's first parsed row.

    ``texts[i]`` holds the d values of ``words[i]``.  All rows are parsed
    in one bulk call; if that fails they are parsed one by one, and a row
    that does not parse is dropped, or passed to ``on_bad(i)`` (which
    may raise).  Returns the kept words, their rows in file order, and
    the number of candidate rows not kept (malformed or duplicate).
    """
    rows = _bulk_parse(texts, d)
    if rows is None:
        parsed = []
        for i, text in enumerate(texts):
            row = _parse_row(text.rstrip("\n").split(" "))
            if row is None:
                if on_bad is not None:
                    on_bad(i)
                continue
            parsed.append((words[i], row))
        words = [w for w, _ in parsed]
        rows = np.array([r for _, r in parsed]).reshape(len(parsed), d)
    first: dict[str, int] = {}
    for i, word in enumerate(words):
        first.setdefault(word, i)
    keep = list(first.values())
    return list(first), rows[keep], len(texts) - len(keep)


def load_glove_text(path: str | Path, vocab=None) -> EmbeddingModel:
    """Load a headerless GloVe text file; d is inferred from the first line.

    Rows with the wrong field count or unparseable floats are skipped
    and counted (public files contain multi-token "words"); duplicate
    words keep their first vector.  With ``vocab`` (a set of words),
    only the lines whose word is in it are parsed, kept and counted as
    skipped; the first line is still parsed, since it fixes d.
    """
    path = Path(path)
    words: list[str] = []
    texts: list[str] = []  # the values of the lines that may be kept
    d = -1
    skipped = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            space = line.find(" ")
            if space < 0:  # fewer than two fields
                if line.strip() and (vocab is None or line.rstrip("\n") in vocab):
                    skipped += 1
                continue
            word = line[:space]
            if d < 0:
                values = line[space + 1 :].rstrip("\n").split(" ")
                if _parse_row(values) is None:
                    raise EmbeddingFormatError(
                        f"{path}: line 1 is not a word + float row"
                    )
                d = len(values)
            if vocab is not None and word not in vocab:
                continue
            if line.count(" ") != d:
                skipped += 1
                continue
            words.append(word)
            texts.append(line[space + 1 :])
    if d < 0:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    words, vectors, dropped = _parse_candidates(words, texts, d)
    skipped += dropped
    if skipped:
        log.warning("%s: skipped %d malformed or duplicate lines", path, skipped)
    return _make_model(words, vectors, d, str(path), skipped)


def _read_count_header(path: Path, header: list) -> tuple[int, int]:
    if len(header) != 2:
        raise EmbeddingFormatError(f"{path}: expected '<count> <d>' header")
    try:
        count, d = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError(
            f"{path}: non-integer header fields {header!r}"
        ) from None
    if count < 0 or d < 1:
        raise EmbeddingFormatError(f"{path}: bad header values {count} {d}")
    return count, d


def load_word2vec_text(path: str | Path, vocab=None) -> EmbeddingModel:
    """Load a word2vec text file; the header's count and d are enforced.

    Every line must have d values.  With ``vocab`` (a set of words), only
    the rows of words in it are parsed, so only they must be floats, and
    only their duplicates are counted as skipped.
    """
    path = Path(path)
    words: list[str] = []
    texts: list[str] = []
    linenos: list[int] = []
    parsed = 0

    def non_float(i: int):
        raise EmbeddingFormatError(f"{path}: line {linenos[i]} has non-float values")

    with open(path, encoding="utf-8", errors="replace") as fh:
        count, d = _read_count_header(path, fh.readline().split())
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            if line.count(" ") != d:
                # An earlier non-float row is the first error.
                _parse_candidates(words, texts, d, non_float)
                raise EmbeddingFormatError(
                    f"{path}: line {lineno} has {line.count(' ')} values, expected {d}"
                )
            parsed += 1
            space = line.find(" ")
            if vocab is None or line[:space] in vocab:
                words.append(line[:space])
                texts.append(line[space + 1 :])
                linenos.append(lineno)
    words, vectors, skipped = _parse_candidates(words, texts, d, non_float)
    if parsed != count:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} entries, found {parsed}"
        )
    if skipped:
        log.warning("%s: %d duplicate words dropped", path, skipped)
    return _make_model(words, vectors, d, str(path), skipped)


def load_word2vec_binary(path: str | Path, vocab=None) -> EmbeddingModel:
    """Load a word2vec binary file; float32 payloads widen to float64.

    Duplicate words keep their first vector; the others are counted as
    skipped.  With ``vocab`` (a set of words), only the vectors of words
    in it are kept, and only their duplicates are counted; every entry
    is still read, so truncation is an error anywhere.
    """
    path = Path(path)
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise EmbeddingFormatError(f"{path}: missing header line")
    count, d = _read_count_header(path, data[:newline].split())
    offsets: dict[str, int] = {}  # word -> its first vector's offset
    skipped = 0
    pos = newline + 1
    vec_bytes = 4 * d
    for _ in range(count):
        while pos < len(data) and data[pos : pos + 1] in (b"\n", b"\r", b" "):
            pos += 1
        space = data.find(b" ", pos)
        if space < 0:
            raise EmbeddingFormatError(
                f"{path}: EOF in word at byte offset {pos}"
            )
        word = data[pos:space].decode("utf-8", errors="replace")
        pos = space + 1
        if pos + vec_bytes > len(data):
            raise EmbeddingFormatError(
                f"{path}: EOF in vector at byte offset {pos}"
            )
        if vocab is None or word in vocab:
            if word in offsets:
                skipped += 1
            else:
                offsets[word] = pos
        pos += vec_bytes
    vectors = np.zeros((len(offsets), d))
    for i, offset in enumerate(offsets.values()):
        vectors[i] = np.frombuffer(data, dtype="<f4", count=d, offset=offset)
    if skipped:
        log.warning("%s: %d duplicate words dropped", path, skipped)
    return _make_model(list(offsets), vectors, d, str(path), skipped)


def save_word2vec_text(model: EmbeddingModel, path: str | Path) -> None:
    """Write a model in word2vec text format.

    Values are printed with repr precision so a re-load reproduces the
    float64 vectors exactly.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.words)} {model.dimension}\n")
        for i, word in enumerate(model.words):
            row = " ".join(repr(float(x)) for x in model.vectors[i])
            fh.write(f"{word} {row}\n")


def save_glove_text(model: EmbeddingModel, path: str | Path) -> None:
    """Write a model in headerless GloVe text format, repr precision."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for i, word in enumerate(model.words):
            row = " ".join(repr(float(x)) for x in model.vectors[i])
            fh.write(f"{word} {row}\n")


def save_word2vec_binary(model: EmbeddingModel, path: str | Path) -> None:
    """Write a model in word2vec binary format.

    Vectors are narrowed to little-endian float32, so a re-load agrees
    with the original only to float32 precision.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(f"{len(model.words)} {model.dimension}\n".encode("ascii"))
        for i, word in enumerate(model.words):
            fh.write(word.encode("utf-8") + b" ")
            fh.write(model.vectors[i].astype("<f4").tobytes())
            fh.write(b"\n")


def synthetic_model(vocab, d: int, seed: int) -> EmbeddingModel:
    """Deterministic pseudo-random model: uniform(-0.5/d, 0.5/d) per entry.

    Each word's vector is generated from a stream keyed on
    (word, seed, d), so it is independent of vocabulary order and of
    what other words are present.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    words: list[str] = []
    seen: set[str] = set()
    for word in vocab:
        if word not in seen:
            seen.add(word)
            words.append(word)
    half = 0.5 / d
    rows = np.zeros((len(words), d), dtype=np.float64)
    for i, word in enumerate(words):
        key = hashlib.sha256(f"{seed}:{d}:{word}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(key[:8], "little"))
        rows[i] = rng.uniform(-half, half, size=d)
    return EmbeddingModel(
        dimension=d,
        word_ids={w: i for i, w in enumerate(words)},
        words=tuple(words),
        vectors=rows,
        origin=f"synthetic:{d}:{seed}",
    )


def detect_format(path: str | Path) -> str:
    """Guess the on-disk format from the extension, then the first line."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".bin":
        return "word2vec-binary"
    if suffix == ".vec":
        return "word2vec-text"
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            first = fh.readline().split()
    except OSError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from exc
    if len(first) == 2:
        try:
            int(first[0]), int(first[1])
            return "word2vec-text"
        except ValueError:
            pass
    return "glove"


def load_embeddings(path: str | Path, fmt: str = "auto", vocab=None) -> EmbeddingModel:
    """Load any supported format; ``fmt='auto'`` sniffs the file.

    ``vocab`` (a set of words, or None for all) names the words whose
    rows are wanted.  The model then holds exactly the rows a full load
    would hold for those words, in file order, and only their lines are
    parsed: ``skipped_lines`` counts the malformed or duplicate lines of
    words in ``vocab``, and a non-float or non-finite row outside it is
    never seen.  The first GloVe row, the word2vec text header count and
    every line's field count are still checked.
    """
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "glove":
        return load_glove_text(path, vocab)
    if fmt == "word2vec-text":
        return load_word2vec_text(path, vocab)
    if fmt == "word2vec-binary":
        return load_word2vec_binary(path, vocab)
    raise EmbeddingFormatError(
        f"unknown embedding format {fmt!r}; valid: {', '.join(EMBEDDING_FORMATS)}"
    )
