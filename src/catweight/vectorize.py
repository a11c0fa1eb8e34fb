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


def standardize_apply(params: ScalerParams, vectors: np.ndarray) -> np.ndarray:
    """Apply training statistics to one vector or a matrix of rows."""
    return (np.asarray(vectors, dtype=np.float64) - params.mean) / params.scale


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
        G = counts.matrix[:, list(columns)].sorted_indices()
        self.known_token_counts = np.asarray(G.sum(axis=1), dtype=np.int64).ravel()
        self._G = G.astype(np.float64)
        # 1 + ln tf by value, so that an entry's bits never depend on the corpus
        log_tf = np.array([1.0 + math.log(tf) for tf in range(1, G.data.max(initial=0) + 1)])
        self._G_log = sp.csr_matrix((log_tf[G.data - 1], G.indices, G.indptr), shape=G.shape)
        self._E = model.vectors[list(rows)]

    def known_embedding(self) -> EmbeddingModel:
        """The embedding row each known term resolved to, keyed by the term
        (case fallback already applied): all a saved model needs."""
        word_ids = {w: i for i, w in enumerate(self._words)}
        m = self.model
        return EmbeddingModel(m.dimension, word_ids, tuple(self._words), self._E, m.origin)

    def _numerator(self, Gt, terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per document, the sum over ``terms`` of frequency * weight * embedding
        row, in term order (``Gt`` is the terms-by-documents matrix)."""
        sub = Gt[terms]
        sub.data *= np.repeat(weights, np.diff(sub.indptr))
        return sub.T @ self._E[terms]

    def matrix(self, table: WeightTable, rows=None) -> np.ndarray:
        """Feature matrix of the documents ``rows`` (default: all, in order)
        under one table; ``matrix(t, rows)`` equals ``matrix(t)[rows]``."""
        d, K = self.model.dimension, len(self._words)
        per_category = table.scheme not in ("none", "tfidf")
        floor = np.zeros(table.num_categories if per_category else 1)
        if table.scheme == "none":
            W = np.ones((K, 1))
        else:
            at = np.fromiter(map(table.word_ids.get, self._words, repeat(-1)), np.int64, K)
            hit = at >= 0  # words unseen in training weigh 0
            W = np.zeros((K, floor.size))
            W[hit] = (table.category_weights if per_category else table.idf[:, None])[at[hit]]
        if table.scheme == "tftrr":
            floor[:] = math.log(table.alpha)
        # Exact powers of two, never materialized as factors (2.0**-e overflows).
        e = np.frexp(np.maximum(W.max(axis=0, initial=0.0), floor))[1]
        W, floor = np.ldexp(W, -e), np.ldexp(floor, -e)
        pairs = sp.csc_matrix(W)  # the nonzero (term, category) weights
        G = self._G_log if table.scheme == "tftrr" else self._G
        if rows is not None:
            G = G[rows]
        Gt = G.T.tocsr()
        F = 0.0
        if floor.any():  # tftrr: floor * [training word] + nonzero deviations from it
            in_table = np.flatnonzero(hit)
            F = self._numerator(Gt, in_table, np.ones(in_table.size))
            W = np.where(hit[:, None] & (W == 0.0), floor, W)
            pairs.data -= np.repeat(floor, np.diff(pairs.indptr))
        den = G @ W
        den[den == 0.0] = 1.0
        X = np.empty((G.shape[0], W.shape[1], d))
        for c in range(W.shape[1]):
            lo, hi = pairs.indptr[c], pairs.indptr[c + 1]
            X[:, c] = self._numerator(Gt, pairs.indices[lo:hi], pairs.data[lo:hi]) + floor[c] * F
        X /= den[:, :, None]
        return X.reshape(len(X), W.shape[1] * d)
