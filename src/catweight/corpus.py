"""Labeled-corpus ingestion, tokenization, sampling and split planning.

Datasets come in as CSV/TSV (RFC-4180 quoting), JSONL (one object per
line) or a directory-per-category tree (20-Newsgroups style).  All loaders
degrade non-UTF8 bytes to the replacement character instead of failing:
real news corpora contain junk bytes.  A loader only parses and checks
its format: it yields ``(text, category name, source id)`` records to
one builder, which numbers the categories, tokenizes (lowercased unless
``preserve_case``), keeps one string object per distinct token and
assembles the documents.

``count_tokens`` is the one token count: a documents-by-terms CSR matrix,
each row in increasing term id, from which corpus statistics and
document vectors are both derived.  It is held as numpy arrays
(``csr.Csr``); the scipy matrix of the same counts is built on first use.
"""

from __future__ import annotations

import csv
import json
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from .csr import Csr, bounds
from .errors import IngestionError, SplitError


_MEMO_BOUND = 0x10000  # the code points _SEPARATORS remembers: the BMP


class _Separators(dict):
    """``str.translate`` table that keeps alphanumeric code points and
    maps every other one to a space.

    The one table is shared by the whole process, so it remembers only
    the Basic Multilingual Plane (code points below 0x10000), each on
    first sight, and classifies a code point beyond it on every sight.
    It is bounded by that plane: after every one of its 65,536 code
    points it holds as many entries, which took about 4.7 MB
    (tracemalloc, CPython 3.11, 64-bit), against about 88 MB for a memo
    of every code point.  An entry maps a code point to itself (the key
    object, so it costs no value object) or to 32, the space."""

    def __missing__(self, code: int) -> int:
        kept = code if chr(code).isalnum() else 32
        if code < _MEMO_BOUND:
            self[code] = kept
        return kept


_SEPARATORS = _Separators()


def tokenize(text: str, preserve_case: bool = False) -> tuple[str, ...]:
    """Split ``text`` into tokens; total function, empty input gives ().

    Tokens are the maximal runs of alphanumeric characters, the matches
    of the regex ``[^\\W_]+`` (Unicode ``\\w`` is ``str.isalnum`` plus
    the underscore), found by one translate and one split.  Lowercasing,
    unless ``preserve_case`` (for a case-sensitive embedding), comes
    first, so a character whose lowercase form is several code points is
    split as that form.  Lowercase tokens maximize the hit rate against
    lowercase embedding vocabularies.
    """
    if not preserve_case:
        text = text.lower()
    return tuple(text.translate(_SEPARATORS).split())


@dataclass
class Document:
    """One classification unit: a token sequence plus an optional label.

    ``label`` indexes into the owning corpus's category list; it is None
    for unlabeled prediction input.  ``source_id`` is an opaque string
    kept for traceability (file path, row number, ...).
    """

    tokens: tuple[str, ...]
    label: int | None
    source_id: str


@dataclass(frozen=True)
class TokenCounts:
    """``csr`` counts ``terms[t]`` in document i at row i, column t (int64
    CSR arrays), the i-th document ``count_tokens`` read.

    Terms are numbered in order of first occurrence in the corpus, and
    each row stores its entries in increasing term id (canonical CSR).
    No result depends on the row order: counts sum exactly, and
    ``CorpusVectorizer`` sums each document's terms in (embedding row,
    term) order, which a document's own tokens fix.  ``matrix`` is the
    same counts as a ``scipy.sparse.csr_matrix``, built (and scipy
    imported) on first use, which only ``build_stats`` and the
    per-category loop of ``CorpusVectorizer.matrix`` make.  The instance
    is shared through ``LabeledCorpus.token_counts``: treat it as
    read-only.
    """

    terms: tuple[str, ...]
    csr: Csr

    @cached_property
    def matrix(self):
        """The counts as a ``scipy.sparse.csr_matrix``."""
        import scipy.sparse as sp

        csr = self.csr
        return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


def count_tokens(documents) -> TokenCounts:
    """Count every document's tokens in one pass over ``documents``, any
    iterable of ``Document`` (see ``TokenCounts``).

    Each token gets its term id from one dict lookup, and each document's
    tokens are dropped once they have their ids, so a generator of
    documents is counted without ever holding more than one of them.
    The (document, term id) pairs, as integer keys ``document * V +
    term``, are counted by one sort in place, which also leaves every row
    in increasing term id: a count is the length of a run of equal keys.
    """
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term gets the next id
    lengths = array("q")
    tokens = chain.from_iterable(_each_token_tuple(documents, lengths))
    ids = np.fromiter(map(term_ids.__getitem__, tokens), np.int64)
    num_docs, num_terms = len(lengths), len(term_ids)
    offsets = np.arange(num_docs, dtype=np.int64) * num_terms
    keys = np.repeat(offsets, np.frombuffer(lengths, np.int64))
    keys += ids
    del ids
    keys.sort()
    first = np.empty(keys.size, dtype=bool)  # the first key of each run
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    data = np.diff(starts, append=keys.size)
    keys = keys[starts]
    rows, indices = np.divmod(keys, max(num_terms, 1))  # no terms: no keys either
    # scipy's index type, so that ``TokenCounts.matrix`` shares these arrays.
    index = np.int32 if max(keys.size, num_docs, num_terms) < 2**31 else np.int64
    indptr = bounds(np.bincount(rows, minlength=num_docs), index)
    csr = Csr(data, indices.astype(index), indptr, (num_docs, num_terms))
    return TokenCounts(tuple(term_ids), csr)


def _each_token_tuple(documents, lengths: array):
    """Each document's tokens, appending their number to ``lengths``; a
    document is no longer referenced here when the next one is pulled."""
    for tokens in map(attrgetter("tokens"), documents):
        lengths.append(len(tokens))
        yield tokens
        del tokens


@dataclass
class LabeledCorpus:
    """An immutable collection of documents with indexed category labels.

    ``seed`` records the random seed of any sampling applied to produce
    this corpus (None when no sampling happened).  Treat instances as
    read-only; they are shared freely across parallel workers.
    """

    documents: tuple[Document, ...]
    categories: tuple[str, ...]
    seed: int | None = None
    _token_counts: TokenCounts | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.documents)

    def labels(self) -> np.ndarray:
        """Label per document as an int64 array; unlabeled docs are -1."""
        return np.array(
            [-1 if d.label is None else d.label for d in self.documents],
            dtype=np.int64,
        )

    def token_counts(self) -> TokenCounts:
        """The documents-by-terms count matrix, computed once and cached."""
        if self._token_counts is None:
            object.__setattr__(self, "_token_counts", count_tokens(self.documents))
        return self._token_counts


def from_token_lists(
    token_lists: list,
    labels: list,
    categories: list,
    seed: int | None = None,
) -> LabeledCorpus:
    """Build a corpus directly from pre-tokenized documents.

    ``labels`` may hold ints (category indices) or None.  Mostly useful
    for tests and synthetic data.
    """
    docs = tuple(
        Document(tokens=tuple(toks), label=lab, source_id=f"doc{i}")
        for i, (toks, lab) in enumerate(zip(token_lists, labels))
    )
    return LabeledCorpus(documents=docs, categories=tuple(categories), seed=seed)


def _build_corpus(records, preserve_case: bool, categories=()) -> LabeledCorpus:
    """The corpus of ``records``, an iterable of ``(text, category name,
    source id)``: the one place a loader's records become documents.

    Categories are numbered ``categories`` first, then in order of first
    appearance.  Each text is tokenized as it is pulled, and each token
    replaced by the first equal string seen, so a corpus keeps one
    string object per distinct token.
    """
    index = {name: i for i, name in enumerate(categories)}
    canon: dict[str, str] = {}
    docs = []
    for text, category, source_id in records:
        tokens = tokenize(text, preserve_case)
        label = index.setdefault(category, len(index))
        docs.append(Document(tuple(map(canon.setdefault, tokens, tokens)), label, source_id))
    return LabeledCorpus(documents=tuple(docs), categories=tuple(index))


def load_csv(
    path: str | Path,
    text_column: str = "text",
    label_column: str = "label",
    delimiter: str = ",",
    preserve_case: bool = False,
) -> LabeledCorpus:
    """Load a delimited file with a header row into a LabeledCorpus.

    Categories are collected in order of first appearance and labels
    indexed accordingly.  Raises IngestionError naming the missing
    column, or the offending row number for unreadable rows.
    """
    path = Path(path)

    def records():
        with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
            reader = csv.DictReader(fh, delimiter=delimiter)
            header = reader.fieldnames or []
            for col in (text_column, label_column):
                if col not in header:
                    raise IngestionError(
                        f"{path}: column {col!r} not found in header {header!r}"
                    )
            try:
                for row in reader:
                    text, label = row.get(text_column), row.get(label_column)
                    if text is None or label is None:
                        raise IngestionError(
                            f"{path}: row {reader.line_num} is missing fields"
                        )
                    yield text, label, f"{path.name}:{reader.line_num}"
            except csv.Error as exc:
                raise IngestionError(
                    f"{path}: unreadable row {reader.line_num}: {exc}"
                ) from exc

    return _build_corpus(records(), preserve_case)


def load_jsonl(
    path: str | Path,
    text_key: str = "text",
    label_key: str = "label",
    preserve_case: bool = False,
) -> LabeledCorpus:
    """Load a JSON-lines file (one object per line).

    Non-string labels are stringified to form category names.  Blank
    lines are skipped.
    """
    path = Path(path)

    def records():
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise IngestionError(f"{path}: line {lineno}: {exc}") from exc
                if not isinstance(obj, dict):
                    raise IngestionError(f"{path}: line {lineno}: not a JSON object")
                for key in (text_key, label_key):
                    if key not in obj:
                        raise IngestionError(f"{path}: line {lineno}: missing key {key!r}")
                yield str(obj[text_key]), str(obj[label_key]), f"{path.name}:{lineno}"

    return _build_corpus(records(), preserve_case)


def load_20ng(root: str | Path, preserve_case: bool = False) -> LabeledCorpus:
    """Load a directory-per-category tree: one file per document.

    Category names are the subdirectory names, indexed in sorted order
    for cross-platform determinism, empty ones included.  Files are
    decoded as UTF-8 with substitution of invalid bytes.
    """
    root = Path(root)
    if not root.is_dir():
        raise IngestionError(f"{root}: not a directory")
    cat_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not cat_dirs:
        raise IngestionError(f"{root}: no category subdirectories found")
    records = (
        (doc.read_text(encoding="utf-8", errors="replace"), cat.name, f"{cat.name}/{doc.name}")
        for cat in cat_dirs
        for doc in sorted(p for p in cat.iterdir() if p.is_file())
    )
    return _build_corpus(records, preserve_case, [cat.name for cat in cat_dirs])


def _sample_indices(n: int, cap: int, seed: int) -> np.ndarray:
    """Uniform sample without replacement; sorted to preserve input order."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)[:cap]
    idx.sort()
    return idx


def sample(corpus: LabeledCorpus, cap: int, seed: int) -> LabeledCorpus:
    """Uniformly sample min(cap, len) documents without replacement.

    Identical (corpus, cap, seed) triples give bit-identical selections.
    When the cap covers the whole corpus it is returned unchanged.
    """
    if cap < 1:
        raise ValueError(f"sample cap must be >= 1, got {cap}")
    n = len(corpus.documents)
    if cap >= n:
        return corpus
    idx = _sample_indices(n, cap, seed)
    docs = tuple(corpus.documents[i] for i in idx)
    return LabeledCorpus(documents=docs, categories=corpus.categories, seed=seed)


@dataclass
class SplitPlan:
    """Deterministic fold assignments plus a nested size ladder.

    Folds partition the corpus; fold sizes differ by at most one.  The
    ladder samples are drawn from the documents outside fold 0 (the
    fixed held-out partition for learning-curve runs) and are nested by
    construction: the size-s sample is the first s entries of one fixed
    shuffled order.
    """

    fold_assignments: np.ndarray
    num_folds: int
    size_ladder: tuple[int, ...]
    ladder_order: np.ndarray
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        """Document indices held out by ``fold``."""
        return np.flatnonzero(self.fold_assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        """Document indices of the k-1 training folds for ``fold``."""
        return np.flatnonzero(self.fold_assignments != fold)

    def holdout_indices(self) -> np.ndarray:
        """The fixed held-out partition used by learning curves (fold 0)."""
        return self.fold_indices(0)

    def ladder_sample(self, size: int) -> np.ndarray:
        """The nested training sample of the given ladder size."""
        if size > len(self.ladder_order):
            raise SplitError(
                f"ladder size {size} exceeds the {len(self.ladder_order)} "
                f"available training documents"
            )
        return self.ladder_order[:size]


def make_splits(
    corpus: LabeledCorpus,
    k: int,
    ladder: tuple[int, ...] | list[int] = (),
    seed: int = 0,
    stratified: bool = False,
) -> SplitPlan:
    """Build a k-fold plan with an optional nested training-size ladder.

    Plain shuffled folds by default; ``stratified`` balances category
    proportions per fold for imbalanced corpora.  Same seed, same plan.
    """
    n = len(corpus.documents)
    if k < 2:
        raise SplitError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise SplitError(f"fold count {k} exceeds corpus size {n}")
    ladder = tuple(int(s) for s in ladder)
    if any(s < 1 for s in ladder):
        raise SplitError(f"ladder sizes must be >= 1, got {ladder}")
    if list(ladder) != sorted(ladder):
        raise SplitError(f"ladder must be sorted ascending, got {ladder}")

    rng = np.random.default_rng(seed)
    if stratified:
        # Each category's documents in random order, then the unlabeled
        # ones, dealt to the folds in turn.
        labels = corpus.labels()
        groups = [np.flatnonzero(labels == c) for c in range(len(corpus.categories))]
        order = np.concatenate(
            [idx[rng.permutation(len(idx))] for idx in groups]
            + [np.flatnonzero(labels < 0)]
        )
    else:
        order = rng.permutation(n)
    fold = np.empty(n, dtype=np.int64)
    fold[order] = np.arange(n) % k

    train_idx = np.flatnonzero(fold != 0)
    ladder_order = train_idx[rng.permutation(len(train_idx))]
    for s in ladder:
        if s > len(train_idx):
            raise SplitError(
                f"ladder size {s} exceeds the {len(train_idx)} available "
                f"training documents"
            )
    return SplitPlan(
        fold_assignments=fold,
        num_folds=k,
        size_ladder=ladder,
        ladder_order=ladder_order,
        seed=seed,
    )
