"""Term-weighting schemes over corpus statistics.

``build_table`` is the one implementation of every scheme.  It computes
each scheme's weights from training counts only, vectorized over the
nonzero (word, category) occurrence positions, into a ``WeightTable``
that ``CorpusVectorizer`` turns into features:

* ``tfidf``   per-word inverse document frequency ln(|D| / df); the
              weight of a token in a document is tf * idf.
* ``kld``     per-(word, category) pointwise divergence
              P(w_c) * ln(P(w_c) / Q(w_r)) against the pooled remainder,
              clamped at 0.
* ``tftrr``   per-(word, category) relevance-ratio factor
              ln(P(w|c) / P(w|r) + alpha), alpha >= 1; the vectorizer
              multiplies it by the log-scaled document term frequency
              ln(tf) + 1 and uses the floor ln(alpha) for a training
              word absent from the category.
* ``tfcr``    per-(word, category) product of within-category frequency
              and category exclusivity: |w_c|^2 / (N_c * |w|).

A table names its words the way the stats do, as ids into a term
numbering it shares (the corpus count columns, or a model file's
vocabulary), and keeps the category weights sparse (``csr.Csr``): one
stored entry per nonzero occurrence pair, everything else an implicit
zero.

Every weight is >= 0, and words unseen in training weigh 0.  A zero
remainder probability under a positive P is replaced by 1 / (N_r + 1),
N_r being the pooled remainder token total.  Natural logarithms
throughout.  The weighted-mean document representation is invariant to
any uniform per-category rescaling, so the base choice is benign for the
category-level schemes and simply declared for tfidf/tftrr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .csr import Csr, bounds, row_of_entries
from .stats import CorpusStats

SCHEMES = ("none", "tfidf", "kld", "tftrr", "tfcr")
# The schemes with one weight column per category: C*d features, not d.
CATEGORY_SCHEMES = ("kld", "tftrr", "tfcr")
DEFAULT_ALPHA = 1.2


@dataclass
class WeightTable:
    """Materialized weights for one scheme.

    Row i of the arrays weighs the training word ``terms[term_ids[i]]``:
    ``terms`` is a term numbering shared with the stats (or the model
    file) and never copied, and ``term_ids`` increases.  For the
    category-level schemes, ``weights`` is a sparse (word, category)
    matrix (kld/tfcr: the weight itself; tftrr: the relevance-ratio
    factor) storing the stats' nonzero occurrence pairs, kld's clamped
    zeros included.  For tfidf, ``idf`` holds one value per word.
    Scheme ``none`` carries no arrays and acts as the empty marker.

    ``covered`` is None for a whole table.  A table read in part from a
    model file (``classify.ModelFile.read_rows``) holds the rows of some
    terms only, and ``covered`` masks them (a bool per term): a term
    outside it is not known to weigh 0, so the vectorizer refuses it.
    """

    scheme: str
    categories: tuple[str, ...]
    terms: tuple[str, ...] = ()
    term_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    weights: Csr | None = None
    idf: np.ndarray | None = None
    alpha: float = DEFAULT_ALPHA
    covered: np.ndarray | None = None

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    @property
    def words(self) -> tuple[str, ...]:
        """The training words of the rows as strings, built on each call."""
        return tuple(map(self.terms.__getitem__, self.term_ids.tolist()))


def _log_elementwise(values: np.ndarray) -> np.ndarray:
    """math.log per element: np.log may round differently by one ulp,
    and the oracle tests compare table entries with their math.log
    evaluations of the scheme definitions by exact equality."""
    return np.fromiter(map(math.log, values.tolist()), np.float64, count=values.size)


def build_table(
    stats: CorpusStats,
    scheme: str,
    alpha: float = DEFAULT_ALPHA,
) -> WeightTable:
    """Materialize a scheme's weights over all observed (word, category) pairs.

    Entries are computed elementwise over the nonzero occurrence
    positions (see the module docstring for the definitions); everything
    else is an implicit zero.  The table shares the stats' term numbering
    and word ids.  ``alpha`` must be finite and >= 1, which keeps every
    tftrr factor finite and >= 0.  Deterministic: rebuilding from the same stats gives identical
    arrays.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; valid: {', '.join(SCHEMES)}")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if scheme == "none":
        return WeightTable(scheme="none", categories=stats.categories, alpha=alpha)

    if scheme == "tfidf":
        ratios = float(stats.num_docs) / stats.doc_freq.astype(np.float64)
        idf = _log_elementwise(ratios)
        return WeightTable(
            "tfidf", stats.categories, stats.terms, stats.term_ids, idf=idf, alpha=alpha
        )

    occ = stats.occurrences
    rows = np.repeat(np.arange(occ.shape[0]), np.diff(occ.indptr))
    cols = occ.indices
    wc = occ.data.astype(np.float64)
    nc = stats.category_tokens[cols].astype(np.float64)
    totals = stats.word_totals[rows].astype(np.float64)

    if scheme == "tfcr":
        values = (wc * wc) / (nc * totals)
    else:
        # Shared probability machinery for kld and the tftrr factor.
        p = wc / nc
        rem = totals - wc
        n_rem = float(stats.total_tokens) - nc
        q = np.zeros_like(p)
        seen_outside = rem > 0
        q[seen_outside] = rem[seen_outside] / n_rem[seen_outside]
        exclusive = ~seen_outside
        q[exclusive] = 1.0 / (n_rem[exclusive] + 1)
        ratio = p / q
        if scheme == "kld":
            values = np.maximum(p * _log_elementwise(ratio), 0.0)
        else:
            values = _log_elementwise(ratio + alpha)

    weights = Csr(values, occ.indices, occ.indptr, occ.shape)
    return WeightTable(
        scheme, stats.categories, stats.terms, stats.term_ids, weights=weights, alpha=alpha
    )


def _ranked(words: np.ndarray, values: np.ndarray) -> list[tuple[str, float]]:
    """``(word, value)`` pairs by descending value, ties broken
    lexicographically (``words`` is an object array)."""
    order = np.lexsort((words, -values))
    return [(words[i], float(values[i])) for i in order.tolist()]


def top_k(table: WeightTable, c: int, k: int) -> list[tuple[str, float]]:
    """The k highest-weight words for category c, descending.

    Ties break lexicographically; words without a weight in c follow,
    at 0.  For tfidf tables the ranking is by idf and independent of the
    category index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if table.scheme == "none":
        raise ValueError("scheme 'none' has no weights to rank")
    if c < 0 or c >= table.num_categories:
        raise ValueError(
            f"category index {c} out of range for {table.num_categories} categories"
        )
    words = np.asarray(table.words, dtype=object)
    if table.scheme == "tfidf":
        return _ranked(words, table.idf)[:k]
    return _ranked(words, table.weights.toarray()[:, c])[:k]


def table_payload(table: WeightTable, top: int | None = None) -> dict:
    """JSON-ready dict of a table's nonzero entries.

    Entries are ordered by category then descending weight (ties
    lexicographic); tfidf tables carry per-word idf pairs instead.
    Omitting zero entries is lossless for vectorization.
    """
    if table.scheme == "none":
        return {"scheme": "none", "categories": list(table.categories)}
    words = np.asarray(table.words, dtype=object)
    if table.scheme == "tfidf":
        return {"scheme": "tfidf", "entries": [list(e) for e in _ranked(words, table.idf)[:top]]}
    entries = []
    weights = table.weights
    by_category = np.argsort(weights.indices, kind="stable")  # words stay in row order
    words_at = row_of_entries(weights.indptr)[by_category]
    values_at = weights.data[by_category]
    indptr = bounds(np.bincount(weights.indices, minlength=table.num_categories))
    for c, name in enumerate(table.categories):
        rows = words_at[indptr[c] : indptr[c + 1]]
        values = values_at[indptr[c] : indptr[c + 1]]
        nonzero = values != 0.0
        ranked = _ranked(words[rows[nonzero]], values[nonzero])[:top]
        entries.extend([word, name, value] for word, value in ranked)
    return {
        "scheme": table.scheme,
        "alpha": table.alpha,
        "categories": list(table.categories),
        "entries": entries,
    }


def _format_weight(x: float) -> str:
    return format(x, ".17g")


def export_weights(table: WeightTable, fh, fmt: str = "json", top: int | None = None):
    """Write a table as (word, category, weight) triples to a text stream.

    Triples are ordered by category then descending weight (ties
    lexicographic); zero entries are omitted.  tfidf exports per-word
    idf rows without a category column.  TSV weights are printed with 17
    significant digits so a reload round-trips exactly.
    """
    if table.scheme == "none":
        raise ValueError("scheme 'none' has no weights to export")
    if fmt not in ("json", "tsv"):
        raise ValueError(f"unknown export format {fmt!r}; valid: json, tsv")
    payload = table_payload(table, top)
    if fmt == "json":
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    elif table.scheme == "tfidf":
        fh.write("word\tidf\n")
        for word, value in payload["entries"]:
            fh.write(f"{word}\t{_format_weight(value)}\n")
    else:
        fh.write("word\tcategory\tweight\n")
        for word, name, value in payload["entries"]:
            fh.write(f"{word}\t{name}\t{_format_weight(value)}\n")
