"""Word-embedding file parsing.

Three on-disk formats are supported:

* GloVe text: one ``word v1 ... vd`` row per line, no header.
* word2vec text: a ``<count> <d>`` header line, then GloVe-style rows.
* word2vec binary: ASCII header ``<count> <d>\\n``; each entry is the
  word's bytes terminated by a single space followed by d little-endian
  float32 values, optionally followed by a newline.

Vectors are widened to float64 on load.  A deterministic synthetic
generator stands in for in-domain models during tests: each vector is
keyed on (word, seed, d) so it does not depend on vocabulary order.
"""

from __future__ import annotations

import hashlib
import logging
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
    words: list[str], rows: list[np.ndarray], d: int, origin: str, skipped: int = 0
) -> EmbeddingModel:
    vectors = (
        np.vstack(rows).astype(np.float64)
        if rows
        else np.zeros((0, d), dtype=np.float64)
    )
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


def load_glove_text(path: str | Path) -> EmbeddingModel:
    """Load a headerless GloVe text file; d is inferred from the first line.

    Rows with the wrong field count or unparseable floats are skipped
    and counted (public files contain multi-token "words"); duplicate
    words keep their first vector.
    """
    path = Path(path)
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    d = -1
    skipped = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                if line.strip():
                    skipped += 1
                continue
            word, values = parts[0], parts[1:]
            if d < 0:
                vec = _parse_row(values)
                if vec is None:
                    raise EmbeddingFormatError(
                        f"{path}: line 1 is not a word + float row"
                    )
                d = len(values)
            else:
                if len(values) != d:
                    skipped += 1
                    continue
                vec = _parse_row(values)
                if vec is None:
                    skipped += 1
                    continue
            if word in seen:
                skipped += 1
                continue
            seen.add(word)
            words.append(word)
            rows.append(vec)
    if d < 0:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    if skipped:
        log.warning("%s: skipped %d malformed or duplicate lines", path, skipped)
    return _make_model(words, rows, d, str(path), skipped)


def load_word2vec_text(path: str | Path) -> EmbeddingModel:
    """Load a word2vec text file; the header's count and d are enforced."""
    path = Path(path)
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().split()
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
        words: list[str] = []
        rows: list[np.ndarray] = []
        seen: set[str] = set()
        skipped = 0
        parsed = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno} has {len(parts) - 1} values, expected {d}"
                )
            vec = _parse_row(parts[1:])
            if vec is None:
                raise EmbeddingFormatError(f"{path}: line {lineno} has non-float values")
            parsed += 1
            if parts[0] in seen:
                skipped += 1
                continue
            seen.add(parts[0])
            words.append(parts[0])
            rows.append(vec)
    if parsed != count:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} entries, found {parsed}"
        )
    if skipped:
        log.warning("%s: %d duplicate words dropped", path, skipped)
    return _make_model(words, rows, d, str(path), skipped)


def load_word2vec_binary(path: str | Path) -> EmbeddingModel:
    """Load a word2vec binary file; float32 payloads widen to float64."""
    path = Path(path)
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise EmbeddingFormatError(f"{path}: missing header line")
    header = data[:newline].split()
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
    words: list[str] = []
    rows: list[np.ndarray] = []
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
        vec = np.frombuffer(data, dtype="<f4", count=d, offset=pos).astype(np.float64)
        pos += vec_bytes
        words.append(word)
        rows.append(vec)
    return _make_model(words, rows, d, str(path))


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


def load_embeddings(path: str | Path, fmt: str = "auto") -> EmbeddingModel:
    """Load any supported format; ``fmt='auto'`` sniffs the file."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "glove":
        return load_glove_text(path)
    if fmt == "word2vec-text":
        return load_word2vec_text(path)
    if fmt == "word2vec-binary":
        return load_word2vec_binary(path)
    raise EmbeddingFormatError(
        f"unknown embedding format {fmt!r}; valid: {', '.join(EMBEDDING_FORMATS)}"
    )
