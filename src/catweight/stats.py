"""Count aggregates over a training partition.

``build_stats`` derives every quantity ``weighting.build_table`` consumes
from the subset's rows of the corpus count matrix
(``LabeledCorpus.token_counts``): word-by-category occurrences are those
rows transposed times a one-hot label matrix, document frequency counts
their non-zero entries per word, and the per-category and per-word
totals sum the occurrences.  The kld and tftrr probabilities are derived
from these arrays inside ``build_table``.

Words are kept as ids into the corpus term numbering (the columns of
the count matrix), which the weight tables and ``CorpusVectorizer``
share; their strings are built only when an export asks for them.
Occurrence counts are kept sparse; the vocabulary-by-categories table
is mostly zeros.  The occurrences are one sparse product over the
subset's documents, so ``build_stats`` imports scipy when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .corpus import LabeledCorpus
from .errors import StatsError

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class CorpusStats:
    """Immutable count aggregates for one training subset.

    ``occurrences[w, c]`` is the number of token occurrences of word w in
    category c; ``category_tokens[c]`` the total token count of category
    c; ``word_totals[w]`` the occurrences of w across all categories;
    ``doc_freq[w]`` the number of subset documents containing w;
    ``num_docs`` the subset size.  Row w stands for the word
    ``terms[term_ids[w]]``: ``terms`` is the corpus term numbering (shared,
    never copied) and ``term_ids`` increases.  Only words that occur in
    the subset are present.
    """

    terms: tuple[str, ...]
    term_ids: np.ndarray
    categories: tuple[str, ...]
    occurrences: sp.csr_matrix
    category_tokens: np.ndarray
    word_totals: np.ndarray
    doc_freq: np.ndarray
    num_docs: int

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    @property
    def vocab_size(self) -> int:
        return len(self.term_ids)

    @property
    def words(self) -> tuple[str, ...]:
        """The words of the rows as strings, built on each call."""
        return tuple(map(self.terms.__getitem__, self.term_ids.tolist()))

    @property
    def total_tokens(self) -> int:
        return int(self.category_tokens.sum())


def build_stats(
    corpus: LabeledCorpus,
    doc_subset=None,
    min_count: int = 1,
) -> CorpusStats:
    """Count aggregates from the given document subset (all docs if None).

    Every subset document must be labeled.  ``min_count`` drops words
    with total count below the threshold; category token totals are then
    recomputed over the surviving words, so pruning explicitly changes
    the schemes' denominators.
    """
    if doc_subset is None:
        doc_subset = range(len(corpus.documents))
    subset = [int(i) for i in doc_subset]
    if not subset:
        raise StatsError("document subset is empty")

    labels = corpus.labels()[subset]
    unlabeled = np.flatnonzero(labels < 0)
    if unlabeled.size:
        doc = corpus.documents[subset[unlabeled[0]]]
        raise StatsError(f"document {doc.source_id!r} in subset has no label")

    import scipy.sparse as sp

    counts = corpus.token_counts()
    rows = counts.matrix[subset]
    onehot = sp.csr_matrix(
        (np.ones(len(subset), dtype=np.int64), (np.arange(len(subset)), labels)),
        shape=(len(subset), len(corpus.categories)),
    )
    occurrences = (rows.T @ onehot).tocsr()
    totals = np.asarray(occurrences.sum(axis=1), dtype=np.int64).ravel()
    # Absent words and words below min_count are dropped.
    keep = np.flatnonzero(totals >= max(min_count, 1))
    occurrences = occurrences[keep]
    return CorpusStats(
        terms=counts.terms,
        term_ids=keep,
        categories=corpus.categories,
        occurrences=occurrences,
        category_tokens=np.asarray(occurrences.sum(axis=0), dtype=np.int64).ravel(),
        word_totals=totals[keep],
        doc_freq=np.bincount(rows.indices, minlength=len(counts.terms))[keep],
        num_docs=len(subset),
    )


def stats_summary(stats: CorpusStats) -> dict:
    """Diagnostic snapshot suitable for JSON export."""
    return {
        "num_docs": stats.num_docs,
        "num_categories": stats.num_categories,
        "vocab_size": stats.vocab_size,
        "total_tokens": stats.total_tokens,
        "category_tokens": {
            name: int(stats.category_tokens[i])
            for i, name in enumerate(stats.categories)
        },
    }
