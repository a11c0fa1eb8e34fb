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
takes an optional ``vocab``: a text loader then streams the file and
keeps the lines whose word is in it and whose field count is right.  It
parses them as it reads, one bulk numpy call per chunk of
``_CHUNK_ROWS`` lines (a chunk whose call fails goes row by row, with
the same skip and error rules), into one array that grows in place, so
it holds one chunk of text besides the kept rows, never the file's
text; the binary loader streams the file and widens only those
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
    joined = "".join(texts)
    if any(c in joined for c in _NOT_FLOAT_SPACE):
        return None
    del joined
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


_CHUNK_ROWS = 4096  # wanted rows parsed per bulk call


class _RowChunks:
    """The wanted rows of a streamed text file, parsed ``_CHUNK_ROWS`` at
    a time into one array, so that only one chunk's text is held.

    A loader appends each candidate row to the pending chunk: its word to
    ``words``, the text of its d values to ``texts`` and, when ``on_bad``
    needs it, its line number to ``linenos``; it calls ``flush`` once
    ``texts`` holds ``_CHUNK_ROWS``.  A chunk is parsed in one bulk call;
    if that fails, that chunk's rows are parsed one by one, and a row
    that does not parse is dropped, or passed to ``on_bad(lineno)``
    (which may raise).  Each word keeps its first parsed row, in file
    order.  A chunk's rows are gathered only when one of its words was
    already kept; then they are copied to the end of ``rows``, which
    grows in place.
    """

    def __init__(self, d: int, on_bad=None):
        self.d, self.on_bad = d, on_bad
        self.words: list[str] = []  # the pending chunk, emptied in place by flush
        self.texts: list[str] = []
        self.linenos: list[int] = []
        self.kept: dict[str, None] = {}  # the kept words, in row order
        self.rows = np.empty((0, d))  # their rows, with room to grow
        self.candidates = 0

    def flush(self) -> None:
        """Parse the pending chunk and keep its first-seen words' rows."""
        words, texts = self.words, self.texts
        if not texts:
            return
        self.candidates += len(texts)
        rows = _bulk_parse(texts, self.d)
        if rows is None:
            parsed = []
            for i, (word, text) in enumerate(zip(words, texts)):
                row = _parse_row(text.rstrip("\n").split(" "))
                if row is None:
                    if self.on_bad is not None:
                        self.on_bad(self.linenos[i])
                    continue
                parsed.append((word, row))
            words = [w for w, _ in parsed]
            rows = np.array([r for _, r in parsed]).reshape(len(parsed), self.d)
        texts.clear()
        kept, keep = self.kept, []
        for i, word in enumerate(words):
            if word not in kept:
                kept[word] = None
                keep.append(i)
        self.words.clear()
        self.linenos.clear()
        if len(keep) < len(rows):
            rows = rows[keep]
        n = len(kept)
        if n > len(self.rows):  # grow in place by a quarter, so little room is left over
            self.rows.resize((max(n, len(self.rows) * 5 // 4), self.d), refcheck=False)
        self.rows[n - len(keep) : n] = rows

    def result(self) -> tuple[list[str], np.ndarray, int]:
        """The kept words, their rows in file order, and the number of
        candidate rows not kept (malformed or duplicate)."""
        self.flush()
        self.rows.resize((len(self.kept), self.d), refcheck=False)
        return list(self.kept), self.rows, self.candidates - len(self.kept)


def load_glove_text(path: str | Path, vocab=None) -> EmbeddingModel:
    """Load a headerless GloVe text file; d is inferred from the first line.

    Rows with the wrong field count or unparseable floats are skipped
    and counted (public files contain multi-token "words"); duplicate
    words keep their first vector.  With ``vocab`` (a set of words),
    only the lines whose word is in it are parsed, kept and counted as
    skipped; the first line is still parsed, since it fixes d.
    """
    path = Path(path)
    chunks = words = texts = None  # a _RowChunks and its pending lists, once d is fixed
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
                chunks = _RowChunks(d)
                words, texts = chunks.words, chunks.texts
            if vocab is not None and word not in vocab:
                continue
            if line.count(" ") != d:
                skipped += 1
                continue
            words.append(word)
            texts.append(line[space + 1 :])
            if len(texts) == _CHUNK_ROWS:
                chunks.flush()
    if d < 0:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    words, vectors, dropped = chunks.result()
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

    def non_float(lineno: int):
        raise EmbeddingFormatError(f"{path}: line {lineno} has non-float values")

    parsed = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        count, d = _read_count_header(path, fh.readline().split())
        chunks = _RowChunks(d, non_float)
        words, texts, linenos = chunks.words, chunks.texts, chunks.linenos
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            if line.count(" ") != d:
                chunks.flush()  # an earlier non-float row is the first error
                raise EmbeddingFormatError(
                    f"{path}: line {lineno} has {line.count(' ')} values, expected {d}"
                )
            parsed += 1
            space = line.find(" ")
            if vocab is None or line[:space] in vocab:
                words.append(line[:space])
                texts.append(line[space + 1 :])
                linenos.append(lineno)
                if len(texts) == _CHUNK_ROWS:
                    chunks.flush()
    words, vectors, skipped = chunks.result()
    if parsed != count:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} entries, found {parsed}"
        )
    if skipped:
        log.warning("%s: %d duplicate words dropped", path, skipped)
    return _make_model(words, vectors, d, str(path), skipped)


_READ_BYTES = 1 << 20  # bytes per read of a word2vec binary file


def load_word2vec_binary(path: str | Path, vocab=None) -> EmbeddingModel:
    """Load a word2vec binary file; float32 payloads widen to float64.

    Duplicate words keep their first vector; the others are counted as
    skipped.  With ``vocab`` (a set of words), only the vectors of words
    in it are kept, and only their duplicates are counted; every entry
    is still read, so truncation is an error anywhere.  The file streams
    through a buffer of about ``_READ_BYTES``: besides it, the loader
    holds only the kept vectors.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise EmbeddingFormatError(f"{path}: missing header line")
        count, d = _read_count_header(path, header.split())
        vec_bytes = 4 * d
        buf, pos, base = b"", 0, len(header)  # base: the file offset of buf[0]
        kept: dict[str, None] = {}
        payload = bytearray()  # the kept vectors' float32 bytes, in order
        skipped = 0
        for _ in range(count):
            while True:  # until the buffer holds the whole entry
                while pos < len(buf) and buf[pos] in b"\n\r ":
                    pos += 1
                space = buf.find(b" ", pos)
                if 0 <= space <= len(buf) - 1 - vec_bytes:
                    break
                # At least the bytes held: a long entry's buffer doubles.
                block = fh.read(max(_READ_BYTES, vec_bytes, len(buf) - pos))
                if not block:
                    if space < 0:
                        raise EmbeddingFormatError(
                            f"{path}: EOF in word at byte offset {base + pos}"
                        )
                    raise EmbeddingFormatError(
                        f"{path}: EOF in vector at byte offset {base + space + 1}"
                    )
                buf, base, pos = buf[pos:] + block, base + pos, 0
            word = buf[pos:space].decode("utf-8", errors="replace")
            pos = space + 1 + vec_bytes
            if vocab is None or word in vocab:
                if word in kept:
                    skipped += 1
                else:
                    kept[word] = None
                    payload += buf[space + 1 : pos]
    vectors = np.frombuffer(payload, dtype="<f4").reshape(len(kept), d)
    if skipped:
        log.warning("%s: %d duplicate words dropped", path, skipped)
    return _make_model(list(kept), vectors, d, str(path), skipped)


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
