"""Labeled-corpus ingestion, tokenization, sampling and split planning.

Datasets come in as CSV/TSV (RFC-4180 quoting), JSONL (one object per
line) or a directory-per-category tree (20-Newsgroups style).  All loaders
degrade non-UTF8 bytes to the replacement character instead of failing:
real news corpora contain junk bytes.

``count_tokens`` is the one token count: a documents-by-terms CSR matrix
from which corpus statistics and document vectors are both derived.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import IngestionError, SplitError


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization knobs.

    The default pipeline lowercases and splits on maximal runs of
    non-alphanumeric characters, which maximizes hit rate against
    lowercase embedding vocabularies.  ``preserve_case`` keeps the
    original casing for case-sensitive embedding models.
    """

    preserve_case: bool = False


DEFAULT_TOKENIZER = TokenizerConfig()

# Unicode alphanumeric runs; \w minus the underscore.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> tuple[str, ...]:
    """Split ``text`` into tokens; total function, empty input gives ()."""
    if not config.preserve_case:
        text = text.lower()
    return tuple(_TOKEN_RE.findall(text))


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
    """``matrix[i, t]`` counts ``terms[t]`` in document i (int64 CSR).

    Terms are numbered in order of first occurrence in the corpus, and
    each row stores its entries in order of first occurrence in the
    document.  No result depends on these orders: counts sum exactly,
    and ``CorpusVectorizer`` sums each document's terms in (embedding
    row, term) order, which a document's own tokens fix.  The instance
    is shared through ``LabeledCorpus.token_counts``: treat it as
    read-only.
    """

    terms: tuple[str, ...]
    matrix: sp.csr_matrix


def count_tokens(documents) -> TokenCounts:
    """Count every document's tokens in one pass (see ``TokenCounts``)."""
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term gets the next id
    indices: list[int] = []
    data: list[int] = []
    indptr = [0]
    for doc in documents:
        counts = Counter(doc.tokens)
        indices.extend(map(term_ids.__getitem__, counts))
        data.extend(counts.values())
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.array(data, dtype=np.int64), np.array(indices), np.array(indptr)),
        shape=(len(indptr) - 1, len(term_ids)),
    )
    return TokenCounts(terms=tuple(term_ids), matrix=matrix)


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


def _read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def load_csv(
    path: str | Path,
    text_column: str = "text",
    label_column: str = "label",
    delimiter: str = ",",
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> LabeledCorpus:
    """Load a delimited file with a header row into a LabeledCorpus.

    Categories are collected in order of first appearance and labels
    indexed accordingly.  Raises IngestionError naming the missing
    column, or the offending row number for unreadable rows.
    """
    path = Path(path)
    docs: list[Document] = []
    categories: list[str] = []
    cat_index: dict[str, int] = {}
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
                text = row.get(text_column)
                label = row.get(label_column)
                if text is None or label is None:
                    raise IngestionError(
                        f"{path}: row {reader.line_num} is missing fields"
                    )
                if label not in cat_index:
                    cat_index[label] = len(categories)
                    categories.append(label)
                docs.append(
                    Document(
                        tokens=tokenize(text, tokenizer),
                        label=cat_index[label],
                        source_id=f"{path.name}:{reader.line_num}",
                    )
                )
        except csv.Error as exc:
            raise IngestionError(
                f"{path}: unreadable row {reader.line_num}: {exc}"
            ) from exc
    return LabeledCorpus(documents=tuple(docs), categories=tuple(categories))


def load_jsonl(
    path: str | Path,
    text_key: str = "text",
    label_key: str = "label",
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> LabeledCorpus:
    """Load a JSON-lines file (one object per line).

    Non-string labels are stringified to form category names.  Blank
    lines are skipped.
    """
    path = Path(path)
    docs: list[Document] = []
    categories: list[str] = []
    cat_index: dict[str, int] = {}
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
            if text_key not in obj:
                raise IngestionError(f"{path}: line {lineno}: missing key {text_key!r}")
            if label_key not in obj:
                raise IngestionError(
                    f"{path}: line {lineno}: missing key {label_key!r}"
                )
            label = str(obj[label_key])
            if label not in cat_index:
                cat_index[label] = len(categories)
                categories.append(label)
            docs.append(
                Document(
                    tokens=tokenize(str(obj[text_key]), tokenizer),
                    label=cat_index[label],
                    source_id=f"{path.name}:{lineno}",
                )
            )
    return LabeledCorpus(documents=tuple(docs), categories=tuple(categories))


def load_20ng(
    root: str | Path, tokenizer: TokenizerConfig = DEFAULT_TOKENIZER
) -> LabeledCorpus:
    """Load a directory-per-category tree: one file per document.

    Category names are the subdirectory names, indexed in sorted order
    for cross-platform determinism.  Files are decoded as UTF-8 with
    substitution of invalid bytes.
    """
    root = Path(root)
    if not root.is_dir():
        raise IngestionError(f"{root}: not a directory")
    cat_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not cat_dirs:
        raise IngestionError(f"{root}: no category subdirectories found")
    docs: list[Document] = []
    categories: list[str] = []
    for label, cat_dir in enumerate(cat_dirs):
        categories.append(cat_dir.name)
        for doc_path in sorted(p for p in cat_dir.iterdir() if p.is_file()):
            docs.append(
                Document(
                    tokens=tokenize(_read_text(doc_path), tokenizer),
                    label=label,
                    source_id=f"{cat_dir.name}/{doc_path.name}",
                )
            )
    return LabeledCorpus(documents=tuple(docs), categories=tuple(categories))


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
    fold = np.empty(n, dtype=np.int64)
    if stratified:
        labels = corpus.labels()
        counter = 0
        for c in range(len(corpus.categories)):
            class_idx = np.flatnonzero(labels == c)
            class_idx = class_idx[rng.permutation(len(class_idx))]
            for i in class_idx:
                fold[i] = counter % k
                counter += 1
        unlabeled = np.flatnonzero(labels < 0)
        for i in unlabeled:
            fold[i] = counter % k
            counter += 1
    else:
        perm = rng.permutation(n)
        fold[perm] = np.arange(n) % k

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
