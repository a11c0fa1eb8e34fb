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
hands them to one ``np.loadtxt`` call, which parses each row as it pulls
it, so the loader holds the kept rows and one line of text, never the
file's text; if that call fails, the file is read again and the wanted
rows are parsed one by one into one growing array, with the same skip
and error rules.  The binary loader streams the file and widens only
those vectors.  Kept rows stay in file order, so a document's features
do not depend on whether the load was filtered.  A deterministic
synthetic generator stands in for in-domain models during tests: each
vector is keyed on (word, seed, d) so it does not depend on vocabulary
order.

An ``EmbeddingModel`` is made from its words and vectors alone; its
dimension and word dict derive from them.  The file loaders and the
generator all build theirs through one constructor, ``_make_model``.
``EmbeddingModel.rows_of`` is the one word lookup: a loaded embedding
file answers it from its word dict, a model file's vocabulary
(``classify.SortedWords``) by binary search over its sorted blocks.
``for_terms`` is the one place where corpus terms get their rows, case
fallback included: it makes the run's embedding from a loaded model.
"""

from __future__ import annotations

import hashlib
import logging
import warnings
from array import array
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import EmbeddingFormatError

log = logging.getLogger(__name__)

EMBEDDING_FORMATS = ("glove", "word2vec-text", "word2vec-binary")


class EmbeddingModel:
    """Immutable word → vector mapping: row i of ``vectors`` (a 2-D
    array) is the vector of ``words[i]``.

    ``dimension`` is the vectors' width and ``word_ids`` maps each word
    to its row, built from ``words`` on first use, so neither can
    disagree with them.  ``rows_of`` looks words up: from ``word_ids``,
    or, for a model file's words (``classify.SortedWords``), by their own
    ``rows_of``, which never builds the dict.
    """

    def __init__(self, words, vectors: np.ndarray, origin: str = "", skipped_lines: int = 0):
        self.words, self.vectors = words, vectors
        self.origin, self.skipped_lines = origin, skipped_lines

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def word_ids(self) -> dict[str, int]:
        return dict(zip(self.words, range(len(self.words))))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return self.rows_of((word,))[0] >= 0

    def rows_of(self, terms) -> np.ndarray:
        """The row of each of ``terms`` (a sequence of ``str``), as int64,
        -1 where the model lacks the word."""
        if hasattr(self.words, "rows_of"):  # a model file's words look themselves up
            return self.words.rows_of(terms)
        return np.fromiter(map(self.word_ids.get, terms, repeat(-1)), np.int64, len(terms))


def _make_model(
    words: list[str], vectors: np.ndarray, d: int, origin: str, skipped: int = 0
) -> EmbeddingModel:
    """The model of ``words`` and their ``vectors`` (any shape holding d
    values a word), widened to float64; a non-finite entry is an error."""
    vectors = np.asarray(vectors, dtype=np.float64).reshape(len(words), d)
    if not np.all(np.isfinite(vectors)):
        raise EmbeddingFormatError(f"{origin}: non-finite vector entries")
    return EmbeddingModel(tuple(words), vectors, origin, skipped)


def _parse_row(parts: list[str]) -> list[float] | None:
    try:
        return [float(x) for x in parts]
    except ValueError:
        return None


def _parse_rows(path: Path, wanted_rows, strict: bool = False):
    """Parse the rows ``wanted_rows(fh)`` yields for the open file, as
    ``(word, text of its values, line number)``, with the values float()
    would give.

    One ``np.loadtxt`` call pulls and parses the rows as the file
    streams.  If it fails, the file is read again and each row is parsed
    on its own: a row that does not parse is dropped, or with ``strict``
    is an error; the parsed values go into one growing ``array("d")``,
    so no per-row object is kept.  Each word keeps its first parsed row;
    rows are gathered only when a word repeats.  Returns the kept words,
    their rows in file order, and the number of rows not kept.
    """
    words: list[str] = []

    def texts(fh):
        for word, text, _ in wanted_rows(fh):
            # loadtxt drops an empty row, and numpy's number parser strips
            # the ASCII separators \x1c-\x1f as whitespace; float() rejects
            # both.  (One test per separator is the fastest check.)
            if (
                text in ("", "\n")
                or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text
            ):
                raise ValueError("a row float() rejects")
            words.append(word)
            yield text

    try:
        with open(path, encoding="utf-8", errors="replace") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-empty input warns
            rows = np.loadtxt(
                texts(fh), dtype=np.float64, delimiter=" ", comments=None, ndmin=2
            )
        candidates = len(words)
    except ValueError:
        words, values, candidates = [], array("d"), 0
        with open(path, encoding="utf-8", errors="replace") as fh:
            for word, text, lineno in wanted_rows(fh):
                candidates += 1
                row = _parse_row(text.rstrip("\n").split(" "))
                if row is not None:
                    words.append(word)
                    values.extend(row)
                elif strict:
                    raise EmbeddingFormatError(f"{path}: line {lineno} has non-float values")
        rows = np.frombuffer(values).reshape(len(words), len(values) // max(len(words), 1))
    kept = dict.fromkeys(words)  # each word once, in file order
    if len(kept) < len(words):
        first: dict[str, int] = {}
        for i, word in enumerate(words):
            first.setdefault(word, i)
        rows = rows[list(first.values())]
    return list(kept), rows, candidates - len(kept)


def load_glove_text(path: str | Path, vocab=None) -> EmbeddingModel:
    """Load a headerless GloVe text file; d is inferred from the first line.

    Rows with the wrong field count or unparseable floats are skipped
    and counted (public files contain multi-token "words"); duplicate
    words keep their first vector.  With ``vocab`` (a set of words),
    only the lines whose word is in it are parsed, kept and counted as
    skipped; the first line is still parsed, since it fixes d.
    """
    path = Path(path)
    d, skipped = -1, 0

    def wanted_rows(fh):
        nonlocal d, skipped
        d, skipped = -1, 0  # counted afresh if a failed bulk parse reads the file again
        for lineno, line in enumerate(fh, start=1):
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
            yield word, line[space + 1 :], lineno

    words, vectors, dropped = _parse_rows(path, wanted_rows)
    if d < 0:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
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
    count = d = parsed = 0

    def wanted_rows(fh):
        nonlocal count, d, parsed
        count, d = _read_count_header(path, fh.readline().split())
        parsed = 0  # counted afresh if a failed bulk parse reads the file again
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            if line.count(" ") != d:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno} has {line.count(' ')} values, expected {d}"
                )
            parsed += 1
            space = line.find(" ")
            if vocab is None or line[:space] in vocab:
                yield line[:space], line[space + 1 :], lineno

    words, vectors, skipped = _parse_rows(path, wanted_rows, strict=True)
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
    vectors = np.frombuffer(payload, dtype="<f4")
    if skipped:
        log.warning("%s: %d duplicate words dropped", path, skipped)
    return _make_model(list(kept), vectors, d, str(path), skipped)


def _write_text_rows(model: EmbeddingModel, fh) -> None:
    for i, word in enumerate(model.words):
        row = " ".join(repr(float(x)) for x in model.vectors[i])
        fh.write(f"{word} {row}\n")


def save_word2vec_text(model: EmbeddingModel, path: str | Path) -> None:
    """Write a model in word2vec text format.

    Values are printed with repr precision so a re-load reproduces the
    float64 vectors exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.words)} {model.dimension}\n")
        _write_text_rows(model, fh)


def save_glove_text(model: EmbeddingModel, path: str | Path) -> None:
    """Write a model in headerless GloVe text format, repr precision."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_text_rows(model, fh)


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
    words = list(dict.fromkeys(vocab))
    half = 0.5 / d
    rows = np.zeros((len(words), d), dtype=np.float64)
    for i, word in enumerate(words):
        key = hashlib.sha256(f"{seed}:{d}:{word}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(key[:8], "little"))
        rows[i] = rng.uniform(-half, half, size=d)
    return _make_model(words, rows, d, f"synthetic:{d}:{seed}")


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


def for_terms(model: EmbeddingModel, terms, case_fallback: bool = False) -> EmbeddingModel:
    """The embedding of the distinct corpus ``terms``: a row for each term
    ``model`` covers, keyed by the term; with ``case_fallback``, a term it
    lacks takes its lowercase form's row.  Rows are in (source row, term)
    order, the summation order.  ``model`` itself comes back, not a copy,
    when no term was folded and it holds exactly those rows in that order."""
    rows = model.rows_of(terms)
    missed = np.flatnonzero(rows < 0) if case_fallback else np.zeros(0, dtype=np.int64)
    rows[missed] = model.rows_of([terms[j].lower() for j in missed.tolist()])
    known = np.flatnonzero(rows >= 0)
    if folded := (rows[missed] >= 0).any():  # the stable sort by row keeps this term order
        known = np.array(sorted(known.tolist(), key=terms.__getitem__), dtype=np.int64)
    known = known[np.argsort(rows[known], kind="stable")]
    if not folded and np.array_equal(rows[known], np.arange(len(model))):
        return model
    words = tuple(map(terms.__getitem__, known.tolist()))
    return EmbeddingModel(words, model.vectors[rows[known]], model.origin, model.skipped_lines)


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
