"""Document vectorization over word embeddings.

``CorpusVectorizer`` is the one document-vectorization path.  It takes
the documents-by-terms count matrix (``corpus.count_tokens``), maps each
term to its embedding row and keeps the columns of the terms the model
knows.  Every representation is a weighted mean of embedding
rows, ``X = (G @ (W * E)) / (G @ W)`` per weight column, where G holds
the documents' term frequencies (``1 + ln tf`` for tftrr), W the table's
weights of the known terms (0 for words unseen in training) and E their
embedding rows:

* ``none``: one column of ones, the mean of found-token embeddings (d dims);
* ``tfidf``: the idf column, tf*idf weights over distinct tokens (d dims);
* category schemes (kld / tfcr / tftrr): one column per category,
  concatenated in category-index order (N*d dims), for training and
  test documents alike.

A table's words reach the vectorizer's columns by one integer gather
when the table numbers its words by the same count columns (tables
built from this corpus's stats) or by the model's embedding rows (a
loaded model file); a table over any other numbering is matched word by
word.  ``view(rows)`` is the vectorizer over some documents only; it
slices and transposes the counts of each kind (plain and ``1 + ln tf``)
on first use, so one view per (train, test) pair serves all the pair's
tables.  Each call of ``matrix`` orders its own table's stored (word,
category) pairs by (category, column); nothing is kept across tables.

Each weight column is first scaled by an exact power of two that brings
its maximum into [0.5, 1): the means do not change, and tiny weights
cannot underflow in the products.  Numerators come from the nonzero
(term, category) weights only; a document sums its terms in (embedding
row, term) order, which depends on nothing but its own tokens, so its
row is the same bits in any corpus and in any row subset.  Tokens absent
from the embedding model are skipped and a zero weight sum yields the
zero vector.  For tftrr, a training-known word absent from a category
contributes the floor factor ln(alpha), per the scheme's definition.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .corpus import TokenCounts, count_tokens
from .embeddings import EmbeddingModel
from .weighting import WeightTable


@dataclass
class ScalerParams:
    """Per-dimension standardization parameters fit on training vectors."""

    mean: np.ndarray
    scale: np.ndarray  # std, with near-constant dimensions passed through as 1


def standardize_fit(vectors: np.ndarray) -> ScalerParams:
    """Per-dimension mean/std from training vectors (population std).

    Dimensions with std below 1e-12 are centered but not divided.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("standardize_fit needs at least 2 training vectors")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    return ScalerParams(mean=mean, scale=scale)


def standardize_apply(params: ScalerParams, vectors: np.ndarray, out=None) -> np.ndarray:
    """Apply training statistics to one vector or a matrix of rows.

    With ``out`` (a float64 array of the same shape, ``vectors`` itself
    allowed) the result goes there: the same ``(x - mean) / scale`` per
    element, without a second matrix.
    """
    if out is None:
        return (np.asarray(vectors, dtype=np.float64) - params.mean) / params.scale
    np.subtract(vectors, params.mean, out=out)
    return np.divide(out, params.scale, out=out)


class CorpusVectorizer:
    """Batch vectorization over one count matrix of the documents.

    Each distinct term is looked up in the embedding model once (with
    ``case_fallback``, a term missing from a cased model falls back to
    its lowercase form).  ``counts`` is the documents' ``TokenCounts``
    when the caller already has it.  Every command and every (fold,
    scheme) of the evaluation harness vectorizes through ``matrix``.
    """

    def __init__(self, documents, model: EmbeddingModel, case_fallback: bool = False,
                 *, counts: TokenCounts | None = None):
        self.model = model
        counts = count_tokens(documents) if counts is None else counts
        ids = model.word_ids
        known = sorted(  # (embedding row, term, count column): the summation order
            (row, term, j)
            for j, term in enumerate(counts.terms)
            if (row := ids.get(term, ids.get(term.lower(), -1) if case_fallback else -1)) >= 0
        )
        rows, self._words, columns = (tuple(x) for x in zip(*known)) if known else ((),) * 3
        self._terms, self._rows = counts.terms, np.array(rows, dtype=np.int64)
        self._exact_rows = not case_fallback  # a column's row is its own term's
        # The column of each count column, -1 for a term the model lacks.
        self._slot = np.full(len(counts.terms), -1, dtype=np.int64)
        self._slot[list(columns)] = np.arange(len(columns))
        G = counts.matrix[:, list(columns)].sorted_indices()
        self.known_token_counts = np.asarray(G.sum(axis=1), dtype=np.int64).ravel()
        self._G = G.astype(np.float64)
        # 1 + ln tf by value, so that an entry's bits never depend on the corpus
        log_tf = np.array([1.0 + math.log(tf) for tf in range(1, G.data.max(initial=0) + 1)])
        self._G_log = sp.csr_matrix((log_tf[G.data - 1], G.indices, G.indptr), shape=G.shape)
        every_row = np.array_equal(self._rows, np.arange(len(model.vectors)))
        self._E = model.vectors if every_row else model.vectors[self._rows]
        self._selected = None  # the documents of a view; None: all
        self._sliced: dict[bool, tuple] = {}  # log? -> (G, G transposed) of those

    def view(self, rows) -> CorpusVectorizer:
        """This vectorizer over the documents ``rows`` only (any index
        array or mask): ``view(rows).matrix(t)`` equals ``matrix(t)[rows]``.

        A view slices and transposes the counts once per kind (plain and
        ``1 + ln tf``), on first use, so one view per (train, test) pair
        serves all the pair's tables.
        """
        picked = np.arange(len(self.known_token_counts))[rows]  # positions, from any index or mask
        view = copy.copy(self)
        view._selected = picked if self._selected is None else self._selected[picked]
        view.known_token_counts = self.known_token_counts[picked]
        view._sliced = {}
        return view

    def known_embedding(self) -> EmbeddingModel:
        """The embedding row each known term resolved to, keyed by the term
        (case fallback already applied): all a saved model needs."""
        word_ids = {w: i for i, w in enumerate(self._words)}
        m = self.model
        return EmbeddingModel(m.dimension, word_ids, tuple(self._words), self._E, m.origin)

    def _counts(self, log: bool) -> tuple:
        """The documents' counts (``1 + ln tf`` when ``log``) and their
        transpose, built on first use."""
        if log not in self._sliced:
            G = self._G_log if log else self._G
            if self._selected is not None:
                G = G[self._selected]
            self._sliced[log] = (G, G.T.tocsr())
        return self._sliced[log]

    def _columns_of(self, table: WeightTable) -> np.ndarray:
        """This vectorizer's column of each table word, -1 where the model
        lacks it."""
        if table.terms is self._terms or table.terms == self._terms:
            slot = self._slot
        elif table.terms is self.model.words and self._exact_rows:
            slot = np.full(len(table.terms), -1, dtype=np.int64)
            slot[self._rows] = np.arange(len(self._rows))
        else:  # another numbering: match the words themselves
            own = dict(zip(self._words, range(len(self._words))))
            return np.fromiter(map(own.get, table.words, repeat(-1)), np.int64, len(table.term_ids))
        return slot[table.term_ids]

    def _known_rows(self, table: WeightTable) -> tuple[np.ndarray, np.ndarray]:
        """The table rows whose word the model knows, in column order, and
        their columns."""
        at = self._columns_of(table)
        rows = np.flatnonzero(at >= 0)
        rows = rows[np.argsort(at[rows])]
        return rows, at[rows]

    def _pairs(self, table: WeightTable) -> tuple:
        """``(indptr, columns, positions, training)`` of a category table's
        stored (word, category) entries whose word the model knows, in
        (category, column) order: category c's entries sit in
        ``columns[indptr[c]:indptr[c + 1]]`` and their weights in
        ``table.weights.data`` at the same slice of ``positions``.
        ``training`` lists the columns of the table's words, increasing."""
        weights = table.weights
        rows, training = self._known_rows(table)
        positions = np.arange(weights.nnz)
        pattern = sp.csr_matrix((positions, weights.indices, weights.indptr), shape=weights.shape)
        pattern = pattern[rows].tocsc()
        return pattern.indptr, training[pattern.indices], pattern.data, training

    def _numerator(self, Gt, terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per document, the sum over ``terms`` of frequency * weight * embedding
        row, in term order (``Gt`` is the terms-by-documents matrix)."""
        sub = Gt[terms]
        sub.data *= np.repeat(weights, np.diff(sub.indptr))
        return sub.T @ self._E[terms]

    def matrix(self, table: WeightTable) -> np.ndarray:
        """Feature matrix of this vectorizer's documents, in order, under
        one table; for some documents only, use ``view(rows).matrix(table)``."""
        d, K = self.model.dimension, len(self._words)
        G, Gt = self._counts(table.scheme == "tftrr")
        if table.scheme == "none":
            indptr, columns, values = np.array([0, K]), np.arange(K), np.ones(K)
        elif table.scheme == "tfidf":
            rows, columns = self._known_rows(table)
            indptr, values = np.array([0, rows.size]), table.idf[rows]
        else:
            indptr, columns, positions, training = self._pairs(table)
            values = table.weights.data[positions]
        C = indptr.size - 1
        per = np.diff(indptr)
        category = np.repeat(np.arange(C), per)
        floor = np.full(C, math.log(table.alpha) if table.scheme == "tftrr" else 0.0)
        top = np.zeros(C)
        full = per > 0
        top[full] = np.maximum.reduceat(values, indptr[:-1][full])
        # Exact powers of two, never materialized as factors (2.0**-e overflows).
        e = np.frexp(np.maximum(top, floor))[1]
        values, floor = np.ldexp(values, -e[category]), np.ldexp(floor, -e)
        nonzero = values != 0.0  # the nonzero (term, category) weights
        columns, values, category = columns[nonzero], values[nonzero], category[nonzero]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(category, minlength=C))])
        W = np.zeros((K, C))
        F = 0.0
        if floor.any():  # tftrr: floor * [training word] + nonzero deviations from it
            F = self._numerator(Gt, training, np.ones(training.size))
            W[training] = floor
        W[columns, category] = values
        values = values - floor[category]
        den = G @ W
        den[den == 0.0] = 1.0
        X = np.empty((G.shape[0], C, d))
        for c in range(C):
            lo, hi = indptr[c], indptr[c + 1]
            X[:, c] = self._numerator(Gt, columns[lo:hi], values[lo:hi]) + floor[c] * F
        X /= den[:, :, None]
        return X.reshape(len(X), C * d)
