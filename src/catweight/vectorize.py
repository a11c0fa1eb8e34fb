"""Document vectorization over word embeddings.

Three representations:

* unweighted: arithmetic mean of found-token embeddings (d dims);
* tfidf: tf*idf-weighted mean over distinct found tokens (d dims);
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

from .corpus import Document
from .embeddings import EmbeddingModel, lookup
from .weighting import WeightTable, CATEGORY_SCHEMES


@dataclass
class DocVector:
    """Fixed-length feature vector for one document."""

    values: np.ndarray
    layout: str  # "plain" or "concat"
    dimension: int
    num_categories: int
    known_token_count: int


@dataclass
class ScalerParams:
    """Per-dimension standardization parameters fit on training vectors."""

    mean: np.ndarray
    scale: np.ndarray  # std, with near-constant dimensions passed through as 1


def _found(doc: Document, model: EmbeddingModel, case_fallback: bool = False):
    """Distinct found tokens in first-appearance order, their embedding
    rows, document term frequencies, and the found-token total."""
    tokens: list[str] = []
    rows: list[int] = []
    tf_map: dict[str, int] = {}
    total = 0
    for token in doc.tokens:
        idx = model.word_ids.get(token)
        if idx is None and case_fallback:
            lowered = token.lower()
            if lowered != token:
                idx = model.word_ids.get(lowered)
        if idx is None:
            continue
        total += 1
        if token in tf_map:
            tf_map[token] += 1
        else:
            tf_map[token] = 1
            tokens.append(token)
            rows.append(idx)
    tf = np.array([tf_map[t] for t in tokens], dtype=np.float64)
    return tokens, np.array(rows, dtype=np.int64), tf, total


def _mean(weights: np.ndarray, emb_rows: np.ndarray, d: int) -> np.ndarray:
    total = weights.sum()
    if total == 0.0 or weights.size == 0:
        return np.zeros(d, dtype=np.float64)
    # Normalize first: tiny weights would underflow in the products.
    return (weights / total) @ emb_rows


def vectorize_unweighted(
    doc: Document, model: EmbeddingModel, case_fallback: bool = False
) -> DocVector:
    """Mean of found-token embeddings, multiplicity respected."""
    _, rows, tf, total = _found(doc, model, case_fallback)
    values = _mean(tf, model.vectors[rows], model.dimension)
    return DocVector(values, "plain", model.dimension, 1, total)


def _category_token_weights(
    tokens: list[str], tf: np.ndarray, table: WeightTable, c: int
) -> np.ndarray:
    """Per-distinct-token mixing weights for one category."""
    if table.scheme == "tftrr":
        floor = math.log(table.alpha)
        factors = np.empty(len(tokens))
        for i, token in enumerate(tokens):
            wid = table.word_ids.get(token)
            if wid is None:
                factors[i] = 0.0
                continue
            stored = table.category_weights[wid, c]
            factors[i] = stored if stored != 0.0 else floor
        return (np.log(tf) + 1.0) * factors
    weights = np.array(
        [table.category_weight(t, c) for t in tokens], dtype=np.float64
    )
    return tf * weights


def vectorize_weighted_category(
    doc: Document,
    model: EmbeddingModel,
    table: WeightTable,
    c: int,
    case_fallback: bool = False,
) -> np.ndarray:
    """Weighted mean of found-token embeddings for category c."""
    if table.scheme not in CATEGORY_SCHEMES:
        raise ValueError(
            f"scheme {table.scheme!r} is not a category-level scheme"
        )
    tokens, rows, tf, _ = _found(doc, model, case_fallback)
    weights = _category_token_weights(tokens, tf, table, c)
    return _mean(weights, model.vectors[rows], model.dimension)


def vectorize_concat(
    doc: Document,
    model: EmbeddingModel,
    table: WeightTable,
    case_fallback: bool = False,
) -> DocVector:
    """Per-category weighted means concatenated in category-index order."""
    if table.scheme not in CATEGORY_SCHEMES:
        raise ValueError(
            f"scheme {table.scheme!r} is not a category-level scheme"
        )
    tokens, rows, tf, total = _found(doc, model, case_fallback)
    emb_rows = model.vectors[rows]
    pieces = []
    for c in range(table.num_categories):
        weights = _category_token_weights(tokens, tf, table, c)
        pieces.append(_mean(weights, emb_rows, model.dimension))
    values = (
        np.concatenate(pieces)
        if pieces
        else np.zeros(0, dtype=np.float64)
    )
    return DocVector(
        values, "concat", model.dimension, table.num_categories, total
    )


def vectorize_tfidf(
    doc: Document,
    model: EmbeddingModel,
    table: WeightTable,
    case_fallback: bool = False,
) -> DocVector:
    """tf*idf-weighted mean over distinct found tokens."""
    if table.scheme != "tfidf":
        raise ValueError(f"expected a tfidf table, got {table.scheme!r}")
    tokens, rows, tf, total = _found(doc, model, case_fallback)
    idf = np.array([table.idf_value(t) for t in tokens], dtype=np.float64)
    values = _mean(tf * idf, model.vectors[rows], model.dimension)
    return DocVector(values, "plain", model.dimension, 1, total)


def vectorize_document(
    doc: Document,
    model: EmbeddingModel,
    table: WeightTable,
    case_fallback: bool = False,
) -> DocVector:
    """Scheme-appropriate representation for one document."""
    if table.scheme == "none":
        return vectorize_unweighted(doc, model, case_fallback)
    if table.scheme == "tfidf":
        return vectorize_tfidf(doc, model, table, case_fallback)
    return vectorize_concat(doc, model, table, case_fallback)


def feature_dimension(model: EmbeddingModel, table: WeightTable) -> int:
    if table.scheme in CATEGORY_SCHEMES:
        return model.dimension * len(table.categories)
    return model.dimension


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
    """Batch vectorization with one parse of the corpus.

    Token/embedding intersection is computed once; each weight table
    then turns into a documents-by-features matrix via sparse matmuls.
    Used by the evaluation harness, where the same documents are
    re-vectorized under many (fold, scheme) combinations.
    """

    def __init__(self, documents, model: EmbeddingModel, case_fallback: bool = False):
        self.model = model
        self.num_docs = len(documents)
        vocab: dict[str, int] = {}
        emb_rows: list[int] = []
        gids: list[int] = []
        counts: list[int] = []
        indptr = np.zeros(self.num_docs + 1, dtype=np.int64)
        known = np.zeros(self.num_docs, dtype=np.int64)
        for i, doc in enumerate(documents):
            seen: dict[int, int] = {}
            order: list[int] = []
            total = 0
            for token in doc.tokens:
                idx = model.word_ids.get(token)
                if idx is None and case_fallback:
                    lowered = token.lower()
                    if lowered != token:
                        idx = model.word_ids.get(lowered)
                if idx is None:
                    continue
                total += 1
                gid = vocab.get(token)
                if gid is None:
                    gid = len(vocab)
                    vocab[token] = gid
                    emb_rows.append(idx)
                if gid in seen:
                    seen[gid] += 1
                else:
                    seen[gid] = 1
                    order.append(gid)
            for gid in order:
                gids.append(gid)
                counts.append(seen[gid])
            indptr[i + 1] = len(gids)
            known[i] = total
        self._vocab = vocab
        self._words = list(vocab)
        self._emb_rows = np.array(emb_rows, dtype=np.int64)
        self._gids = np.array(gids, dtype=np.int64)
        self._tf = np.array(counts, dtype=np.float64)
        self._indptr = indptr
        self._doc_of = np.repeat(
            np.arange(self.num_docs, dtype=np.int64), np.diff(indptr)
        )
        self.known_token_counts = known
        # Embedding rows for the reduced vocabulary, in gid order.
        self._E = model.vectors[self._emb_rows] if len(vocab) else np.zeros(
            (0, model.dimension)
        )

    def _table_rows(self, table: WeightTable) -> np.ndarray:
        """gid -> table word row, -1 for words unseen in training."""
        rows = np.full(len(self._words), -1, dtype=np.int64)
        for gid, word in enumerate(self._words):
            wid = table.word_ids.get(word)
            if wid is not None:
                rows[gid] = wid
        return rows

    def _weighted_block(self, data: np.ndarray) -> np.ndarray:
        """Row-normalized weighted sums for one weight assignment."""
        mat = sp.csr_matrix(
            (data, self._gids, self._indptr),
            shape=(self.num_docs, len(self._words)),
        )
        sums = mat @ self._E
        denom = np.bincount(self._doc_of, weights=data, minlength=self.num_docs)
        out = np.zeros_like(sums)
        nz = denom != 0.0
        out[nz] = sums[nz] / denom[nz, None]
        return out

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
