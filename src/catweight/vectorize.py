"""Document vectorization over word embeddings.

``CorpusVectorizer`` is the one document-vectorization path.  It counts
the documents' tokens once into a documents-by-terms matrix
(``corpus.count_tokens``), maps each term to its embedding row and keeps
the columns of the terms the model knows; each weight table then turns
into a documents-by-features matrix with one sparse-times-dense product
per weight assignment.  Three representations:

* ``none``: arithmetic mean of found-token embeddings (d dims);
* ``tfidf``: tf*idf-weighted mean over distinct found tokens (d dims);
* category schemes (kld / tfcr / tftrr): one weighted mean per
  category, concatenated in category-index order (N*d dims), for
  training and test documents alike.

Conventions, applied uniformly: tokens absent from the embedding model
are skipped; tokens unseen in the training stats carry weight 0; a zero
weight sum yields the zero vector.  kld and tfcr weigh token
occurrences (multiplicity); tfidf and tftrr weigh each distinct token
once at its document term frequency.  For tftrr, a training-known word
absent from a category contributes the floor factor ln(alpha), per the
scheme's definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import count_tokens
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
    its lowercase form); each weight table then turns into a
    documents-by-features matrix via sparse matmuls.  Every command and
    every (fold, scheme) of the evaluation harness vectorizes through it.
    """

    def __init__(self, documents, model: EmbeddingModel, case_fallback: bool = False):
        self.model = model
        self.num_docs = len(documents)
        counts = count_tokens(documents)
        ids = model.word_ids
        emb_rows = np.array(
            [ids.get(t, ids.get(t.lower(), -1) if case_fallback else -1) for t in counts.terms],
            dtype=np.int64,
        )
        known = emb_rows >= 0
        # Keep the entries of known terms, renumbered in term order; each
        # row keeps its first-occurrence order, the summation order below.
        M = counts.matrix
        keep = known[M.indices]
        self._gids = (np.cumsum(known) - 1)[M.indices[keep]]
        self._indptr = np.concatenate(([0], np.cumsum(keep)))[M.indptr]
        self._doc_of = np.repeat(np.arange(self.num_docs), np.diff(self._indptr))
        self._tf = M.data[keep].astype(np.float64)
        known_tokens = np.bincount(self._doc_of, self._tf, self.num_docs)
        self.known_token_counts = known_tokens.astype(np.int64)
        self._words = [counts.terms[t] for t in np.flatnonzero(known)]
        # Embedding rows for the known terms, in column order.
        self._E = model.vectors[emb_rows[known]]

    def known_embedding(self) -> EmbeddingModel:
        """The embedding row each known term resolved to, keyed by the term
        (case fallback already applied): all a saved model needs."""
        word_ids = {w: i for i, w in enumerate(self._words)}
        m = self.model
        return EmbeddingModel(m.dimension, word_ids, tuple(self._words), self._E, m.origin)

    def _table_rows(self, table: WeightTable) -> np.ndarray:
        """gid -> table word row, -1 for words unseen in training."""
        word_ids = table.word_ids
        return np.array([word_ids.get(w, -1) for w in self._words], dtype=np.int64)

    def _weighted_block(self, data: np.ndarray) -> np.ndarray:
        """Weighted means for one assignment of weights >= 0 to positions.

        Weights are divided by their document's sum before the product,
        so tiny weights do not underflow in it.  A document whose
        weights are all 0 gets the zero vector.
        """
        denom = np.bincount(self._doc_of, weights=data, minlength=self.num_docs)
        denom[denom == 0.0] = 1.0
        mat = sp.csr_matrix(
            (data / denom[self._doc_of], self._gids, self._indptr),
            shape=(self.num_docs, len(self._words)),
        )
        return mat @ self._E

    def matrix(self, table: WeightTable) -> np.ndarray:
        """Feature matrix for all documents under one table."""
        d = self.model.dimension
        if table.scheme == "none":
            return self._weighted_block(self._tf)
        pos_rows = self._table_rows(table)[self._gids]  # per token position
        safe = np.maximum(pos_rows, 0)
        unseen = pos_rows < 0
        if table.scheme == "tfidf":
            idf = table.idf[safe]
            idf[unseen] = 0.0
            return self._weighted_block(self._tf * idf)
        n_cat = table.num_categories
        X = np.zeros((self.num_docs, n_cat * d), dtype=np.float64)
        if table.scheme == "tftrr":
            log_tf = np.log(self._tf) + 1.0
            floor = math.log(table.alpha)
        for c in range(n_cat):
            col = table.category_weights[safe, c]
            col[unseen] = 0.0
            if table.scheme == "tftrr":
                col[(col == 0.0) & ~unseen] = floor
                data = log_tf * col
            else:
                data = self._tf * col
            X[:, c * d : (c + 1) * d] = self._weighted_block(data)
        return X
