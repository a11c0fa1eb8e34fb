"""Count aggregates over a training partition.

One pass over the selected documents yields every quantity
``weighting.build_table`` consumes: token-level word-by-category
occurrence counts, per-category token totals, per-word totals, document
frequency and the document count.  The category and remainder
probabilities the kld and tftrr schemes use are derived from these
arrays inside ``build_table``.  Occurrence counts are kept sparse; the
vocabulary-by-categories table is mostly zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import LabeledCorpus
from .errors import StatsError


@dataclass
class CorpusStats:
    """Immutable count aggregates for one training subset.

    ``occurrences[w, c]`` is the number of token occurrences of word w in
    category c; ``category_tokens[c]`` the total token count of category
    c; ``word_totals[w]`` the occurrences of w across all categories;
    ``doc_freq[w]`` the number of subset documents containing w;
    ``num_docs`` the subset size.  Words are whatever the tokenizer
    emitted; only words that actually occur in the subset are present.
    """

    word_ids: dict[str, int]
    words: tuple[str, ...]
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
        return len(self.words)

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

    token_counts = corpus.token_counts()
    word_ids: dict[str, int] = {}
    df: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    data: list[int] = []
    for i in subset:
        doc = corpus.documents[i]
        if doc.label is None:
            raise StatsError(f"document {doc.source_id!r} in subset has no label")
        c = doc.label
        for tok, cnt in token_counts[i].items():
            wid = word_ids.get(tok)
            if wid is None:
                wid = len(word_ids)
                word_ids[tok] = wid
                df.append(0)
            df[wid] += 1
            rows.append(wid)
            cols.append(c)
            data.append(cnt)

    vocab = len(word_ids)
    n_cats = len(corpus.categories)
    occurrences = sp.coo_matrix(
        (np.asarray(data, dtype=np.int64), (rows, cols)),
        shape=(vocab, n_cats),
    ).tocsr()
    doc_freq = np.asarray(df, dtype=np.int64)
    words = tuple(word_ids)

    if min_count > 1 and vocab:
        totals = np.asarray(occurrences.sum(axis=1)).ravel()
        keep = np.flatnonzero(totals >= min_count)
        occurrences = occurrences[keep]
        doc_freq = doc_freq[keep]
        words = tuple(words[i] for i in keep)
        word_ids = {w: i for i, w in enumerate(words)}

    word_totals = np.asarray(occurrences.sum(axis=1), dtype=np.int64).ravel()
    category_tokens = np.asarray(occurrences.sum(axis=0), dtype=np.int64).ravel()
    return CorpusStats(
        word_ids=word_ids,
        words=words,
        categories=corpus.categories,
        occurrences=occurrences,
        category_tokens=category_tokens,
        word_totals=word_totals,
        doc_freq=doc_freq,
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
