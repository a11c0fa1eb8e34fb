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

from .stats import CorpusStats

SCHEMES = ("none", "tfidf", "kld", "tftrr", "tfcr")
DEFAULT_ALPHA = 1.2


@dataclass
class WeightTable:
    """Materialized weights for one scheme.

    For the category-level schemes, ``category_weights`` holds one value
    per (word, category) pair with a nonzero occurrence count (kld/tfcr:
    the weight itself; tftrr: the relevance-ratio factor) and zeros
    everywhere else.  For tfidf, ``idf`` holds one value per word.
    Scheme ``none`` carries no arrays and acts as the empty marker.
    """

    scheme: str
    categories: tuple[str, ...]
    word_ids: dict[str, int] = field(default_factory=dict)
    words: tuple[str, ...] = ()
    category_weights: np.ndarray | None = None
    idf: np.ndarray | None = None
    alpha: float = DEFAULT_ALPHA

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def category_weight(self, word: str, c: int) -> float:
        """Table lookup; 0 for words not materialized."""
        wid = self.word_ids.get(word)
        if wid is None or self.category_weights is None:
            return 0.0
        return float(self.category_weights[wid, c])

    def idf_value(self, word: str) -> float:
        wid = self.word_ids.get(word)
        if wid is None or self.idf is None:
            return 0.0
        return float(self.idf[wid])


def _log_elementwise(values: np.ndarray) -> np.ndarray:
    """math.log per element: np.log may round differently by one ulp,
    and the oracle tests compare table entries with their math.log
    evaluations of the scheme definitions by exact equality."""
    return np.fromiter((math.log(v) for v in values), np.float64, count=values.size)


def build_table(
    stats: CorpusStats,
    scheme: str,
    alpha: float = DEFAULT_ALPHA,
) -> WeightTable:
    """Materialize a scheme's weights over all observed (word, category) pairs.

    Entries are computed elementwise over the nonzero occurrence
    positions (see the module docstring for the definitions); everything
    else is an implicit zero.  ``alpha`` must be >= 1, which keeps every
    tftrr factor >= 0.  Deterministic: rebuilding from the same stats
    gives identical arrays.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; valid: {', '.join(SCHEMES)}")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if scheme == "none":
        return WeightTable(scheme="none", categories=stats.categories, alpha=alpha)

    if scheme == "tfidf":
        ratios = float(stats.num_docs) / stats.doc_freq.astype(np.float64)
        idf = _log_elementwise(ratios)
        return WeightTable(
            scheme="tfidf",
            categories=stats.categories,
            word_ids=dict(stats.word_ids),
            words=stats.words,
            idf=idf,
            alpha=alpha,
        )

    coo = stats.occurrences.tocoo()
    rows = coo.row
    cols = coo.col
    wc = coo.data.astype(np.float64)
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

    weights = np.zeros((stats.vocab_size, stats.num_categories), dtype=np.float64)
    weights[rows, cols] = values
    return WeightTable(
        scheme=scheme,
        categories=stats.categories,
        word_ids=dict(stats.word_ids),
        words=stats.words,
        category_weights=weights,
        alpha=alpha,
    )


def _ranked_word_order(table: WeightTable, values: np.ndarray) -> np.ndarray:
    """Indices sorted by descending value, ties broken lexicographically."""
    words = np.asarray(table.words, dtype=object)
    return np.lexsort((words, -values))


def top_k(table: WeightTable, c: int, k: int) -> list[tuple[str, float]]:
    """The k highest-weight words for category c, descending.

    Ties break lexicographically.  For tfidf tables the ranking is by
    idf and independent of the category index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if table.scheme == "none":
        raise ValueError("scheme 'none' has no weights to rank")
    if c < 0 or c >= table.num_categories:
        raise ValueError(
            f"category index {c} out of range for {table.num_categories} categories"
        )
    values = table.idf if table.scheme == "tfidf" else table.category_weights[:, c]
    order = _ranked_word_order(table, values)[:k]
    return [(table.words[i], float(values[i])) for i in order]


def _format_weight(x: float) -> str:
    return format(x, ".17g")


def table_payload(table: WeightTable, top: int | None = None) -> dict:
    """JSON-ready dict of a table's nonzero entries.

    Entries are ordered by category then descending weight (ties
    lexicographic); tfidf tables carry per-word idf pairs instead.
    Omitting zero entries is lossless for vectorization.
    """
    if table.scheme == "none":
        return {"scheme": "none", "categories": list(table.categories)}
    if table.scheme == "tfidf":
        order = _ranked_word_order(table, table.idf)
        if top is not None:
            order = order[:top]
        return {
            "scheme": "tfidf",
            "entries": [[table.words[i], float(table.idf[i])] for i in order],
        }
    entries = []
    for c, name in enumerate(table.categories):
        col = table.category_weights[:, c]
        order = _ranked_word_order(table, col)
        kept = 0
        for i in order:
            if col[i] == 0.0:
                continue
            entries.append([table.words[i], name, float(col[i])])
            kept += 1
            if top is not None and kept >= top:
                break
    return {
        "scheme": table.scheme,
        "alpha": table.alpha,
        "categories": list(table.categories),
        "entries": entries,
    }


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
