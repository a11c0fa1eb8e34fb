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
gathers (and, for the per-category loop, transposes) the counts of each
kind (plain and ``1 + ln tf``, the log taken once per distinct count) on
first use, so one view per (train, test) pair serves all the pair's
tables.  Each call of
``matrix`` orders its own table's stored (word, category) pairs by
(category, column); nothing is kept across tables.

Each weight column is first scaled by an exact power of two that brings
its maximum into [0.5, 1): the means do not change, and tiny weights
cannot underflow in the products.  Numerators come from the nonzero
(term, category) weights only; a document sums its terms in embedding
row order, which depends on nothing but its own tokens, so its row is
the same bits in any corpus and in any row subset.  Tokens absent
from the embedding model are skipped and a zero weight sum yields the
zero vector.  For tftrr, a training-known word absent from a category
contributes the floor factor ln(alpha), per the scheme's definition.
Each category's denominators are summed from its own nonzero weights,
in the same term order as ``G @ W``; only tftrr, whose floor weighs
every training word, builds the dense W.

``matrix`` has two formulations of these sums, after one shared
preparation of the table (the power-of-two scaling and the zero
filter).  An input that needs fewer than ``_PRODUCT_GATE`` (document,
category, term) products of the nonzero weights, such as a one-line
``predict``, takes one product, in numpy: one CSR matrix with a row per
(document, category) and a column per term holds every frequency *
weight product, in term order within each row, and each row's sum of
those products times the embedding rows (``_row_sums``) is a numerator,
already in the output's (document, category, d) layout; one
``np.bincount`` gives every denominator.  tftrr's floor numerator F
(each document's counts times the embedding rows of the training
words) is one more category of that product.  Any larger input takes
one scipy product per category (and one for F), so its temporaries
stay one category's.  Both feed one finishing step, which adds tftrr's
floor share of F and divides by the weight sums straight into the
output.  Both add the same terms in the same order, each sum from zero,
so the bits do not depend on which ran.  Only the loop imports scipy,
so ``import catweight`` and a one-line ``predict`` run on numpy alone.
The loop pays a fixed scipy cost per category, 2.5-3 ms of a
one-line matrix with 20 categories; the numpy product pays a Python
step per (document, category) row, and loses on large inputs.  On the
benchmark's seed-1 tfcr, kld and tftrr models (1 to 200 holdout lines, a
2-vCPU machine, one BLAS thread) the two cross between 14,000 and 17,500
products, about 12 to 16 lines: one line took 0.8-1.1 ms against
2.5-3.0 ms, 200 lines 70-115 ms against 21-25 ms.  The gate sits below
that crossover.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .corpus import TokenCounts, count_tokens
from .csr import Csr, bounds, entry_positions, row_of_entries
from .embeddings import EmbeddingModel
from .weighting import WeightTable


@dataclass
class ScalerParams:
    """Per-dimension standardization parameters fit on training vectors."""

    mean: np.ndarray
    scale: np.ndarray  # std, with near-constant dimensions passed through as 1


_SCALER_ROWS = 256  # rows per block of standardize_fit's squared deviations
_PRODUCT_GATE = 12_000  # matrix: below this many products, one sparse product


def standardize_fit(vectors: np.ndarray) -> ScalerParams:
    """Per-dimension mean/std from training vectors (population std).

    Dimensions with std below 1e-12 are centered but not divided.  The
    result has the bits of ``X.mean(axis=0)`` and ``X.std(axis=0)``
    without their n x m centred copy: the squared deviations are taken
    ``_SCALER_ROWS`` rows at a time, and each block's sum starts from
    the sum so far, so the rows are added one after another, as numpy's
    axis-0 sum of a row-major matrix adds them.  Any other layout (and a
    single column, which numpy sums pairwise) goes through ``X.std``.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("standardize_fit needs at least 2 training vectors")
    mean = X.mean(axis=0)
    if X.flags.c_contiguous and X.shape[1] > 1:
        n = X.shape[0]
        block = np.empty((min(n, _SCALER_ROWS) + 1, X.shape[1]))  # row 0: the sum so far
        total = None
        for lo in range(0, n, _SCALER_ROWS):
            rows = X[lo : lo + _SCALER_ROWS]
            part = block[1 : len(rows) + 1]
            np.subtract(rows, mean, out=part)
            np.square(part, out=part)
            if total is None:
                total = np.add.reduce(part, axis=0)
            else:
                block[0] = total
                np.add.reduce(block[: len(rows) + 1], axis=0, out=total)
        std = np.sqrt(total / n)
    else:
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

    ``documents`` is any iterable of ``Document``, read once: a generator
    is counted one document at a time and none of them is kept, only
    their counts.  ``counts`` is the documents' ``TokenCounts`` when the
    caller already has it.  Each distinct term is looked up in the model
    once, by its own string (``embeddings.for_terms`` gives a run's terms
    their rows).  The counts are shared, not copied: ``__init__`` takes
    each document's known tokens and each column's documents (which the
    gate counts) from them in one pass.  On first use, the one product
    gathers the known terms' counts of its documents in numpy, and the
    loop takes them as one scipy float64 matrix of every document,
    shared by all views, and slices and transposes it per view; from then
    on views read that matrix, and the token counts are no longer held.
    The ``1 + ln tf`` counts are mapped from the counts by a table of
    values.  The model's embedding rows are not copied: each product of
    ``matrix`` gathers the rows of its own terms.  Every command and
    every (fold, scheme) of the evaluation harness vectorizes through
    ``matrix``.
    """

    def __init__(self, documents, model: EmbeddingModel, *, counts: TokenCounts | None = None):
        self.model = model
        counts = count_tokens(documents) if counts is None else counts
        terms = counts.terms
        rows = model.rows_of(terms)
        columns = np.flatnonzero(rows >= 0)
        columns = columns[np.argsort(rows[columns])]  # embedding row order, the summation order
        self._terms, self._rows = terms, rows[columns]
        # The column of each count column, -1 for a term the model lacks.
        self._slot = np.full(len(terms), -1, dtype=np.int64)
        self._slot[columns] = np.arange(len(columns))
        self._known = columns
        self._selected = None  # the documents of a view; None: all
        column = self._slot[counts.csr.indices]
        known = column >= 0
        # Each document's known tokens: the running sum of their counts at its bounds.
        running = np.concatenate([[0], np.cumsum(np.where(known, counts.csr.data, 0))])
        self.known_token_counts = np.diff(running[counts.csr.indptr])
        self._df = np.bincount(column[known], minlength=len(columns))  # documents per column
        # Every document's counts, shared by all views: the token counts until
        # the per-category loop first runs, then the loop's scipy matrix of
        # the known terms' counts ("G"), which leaves the token counts free.
        self._shared = {"counts": counts}
        self._sliced: dict = {}  # the counts of the documents, built on first use

    def view(self, rows) -> CorpusVectorizer:
        """This vectorizer over the documents ``rows`` only (any index
        array or mask): ``view(rows).matrix(t)`` equals ``matrix(t)[rows]``.

        A view slices (and, for the per-category loop, transposes) the
        counts once per kind (plain and ``1 + ln tf``), on first use, so
        one view per (train, test) pair serves all the pair's tables.
        """
        picked = np.arange(len(self.known_token_counts))[rows]  # positions, from any index or mask
        view = copy.copy(self)
        view._selected = picked if self._selected is None else self._selected[picked]
        view.known_token_counts = self.known_token_counts[picked]
        column = view._document_counts()[1]
        view._df = np.bincount(column[column >= 0], minlength=len(self._rows))
        view._sliced = {}
        return view

    def _document_counts(self) -> tuple:
        """These documents' count rows and the column of each of their
        entries (-1 for a term the model lacks), from the shared counts."""
        if "G" in self._shared:  # the known terms' counts, numbered by column
            G = self._shared["G"]
            counts = Csr(G.data, G.indices, G.indptr, G.shape)
        else:
            counts = self._shared["counts"].csr
        if self._selected is not None:
            counts = counts[self._selected]
        return counts, counts.indices if "G" in self._shared else self._slot[counts.indices]

    def _counts(self, log: bool) -> tuple:
        """The documents' counts (``1 + ln tf`` when ``log``) and their
        transpose, as scipy matrices for the per-category loop, built on
        first use."""
        if log not in self._sliced:
            import scipy.sparse as sp

            if "G" not in self._shared:
                G = self._shared.pop("counts").matrix[:, self._known].sorted_indices()
                self._shared["G"] = G.astype(np.float64)
            G = self._shared["G"]
            if self._selected is not None:
                G = G[self._selected]
            if log:
                G = sp.csr_matrix((_log_counts(G.data), G.indices, G.indptr), shape=G.shape)
            self._sliced[log] = (G, G.T.tocsr())
        return self._sliced[log]

    def _line_counts(self, log: bool) -> Csr:
        """The documents' counts (``1 + ln tf`` when ``log``) over this
        vectorizer's columns, each row in column order, gathered in numpy
        for the one product on first use."""
        if ("line", log) not in self._sliced:
            counts, column = self._document_counts()
            known = column >= 0
            doc, column = row_of_entries(counts.indptr)[known], column[known]
            order = np.lexsort((column, doc))
            data = counts.data[known][order].astype(np.float64)
            n = len(self.known_token_counts)
            G = Csr(_log_counts(data) if log else data, column[order],
                    bounds(np.bincount(doc, minlength=n)), (n, len(self._rows)))
            self._sliced["line", log] = G
        return self._sliced["line", log]

    def _columns_of(self, table: WeightTable) -> np.ndarray:
        """This vectorizer's column of each table word, -1 where the model
        lacks it."""
        if table.terms is self.model.words:
            slot = np.full(len(table.terms), -1, dtype=np.int64)
            slot[self._rows] = np.arange(len(self._rows))
        elif table.terms is self._terms or table.terms == self._terms:
            slot = self._slot
        else:  # another numbering: match the words themselves
            own = dict(zip(self._terms, self._slot.tolist()))
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
        positions = entry_positions(weights.indptr, rows)  # the known rows' entries
        category = weights.indices[positions]
        order = np.argsort(category, kind="stable")  # rows stay in column order
        indptr = bounds(np.bincount(category, minlength=weights.shape[1]))
        columns = np.repeat(training, np.diff(weights.indptr)[rows])[order]
        return indptr, columns, positions[order], training

    def _numerator(self, Gt, terms: np.ndarray, weights: np.ndarray) -> tuple:
        """Per document, the sum over ``terms`` of frequency * weight *
        embedding row, in term order (``Gt`` is the terms-by-documents
        matrix), and the weighted counts it was summed from (terms by
        documents).  The embedding rows are gathered here, for these
        terms only."""
        sub = Gt[terms]
        sub.data *= np.repeat(weights, np.diff(sub.indptr))
        return sub.T @ self.model.vectors[self._rows[terms]], sub

    def _products(self, G: Csr, columns: np.ndarray, category: np.ndarray, values: np.ndarray,
                  C: int) -> tuple:
        """Every document's C numerators, ``(n, C, d)``, from one product,
        and the weighted counts they were summed from, ``(n, C)``.

        The product's left matrix has a row per (document, category) and a
        column per term the rows use; its entries are ``_numerator``'s
        frequency * weight products, in term order within each row, so
        every sum adds the same terms in the same order."""
        n, K = G.shape
        by_term = np.argsort(columns, kind="stable")  # (column, category) order
        category, values = category[by_term], values[by_term]
        start = bounds(np.bincount(columns, minlength=K))
        # One product per (count entry, table entry of its term).
        per = np.diff(start)[G.indices]
        entry = np.repeat(np.arange(G.indices.size), per)
        at = entry_positions(start, G.indices)
        row = row_of_entries(G.indptr)[entry] * C + category[at]
        order = np.argsort(row, kind="stable")  # terms stay in order within a row
        row, entry, at = row[order], entry[order], at[order]
        data = G.data[entry] * values[at]
        products = self.model.vectors[self._rows[G.indices[entry]]]
        products *= data[:, None]  # in place: a second array this size costs page faults
        num = _row_sums(bounds(np.bincount(row, minlength=n * C)), products)
        weight = np.bincount(row, weights=data, minlength=n * C)
        return num.reshape(n, C, self.model.dimension), weight.reshape(n, C)

    def matrix(self, table: WeightTable) -> np.ndarray:
        """Feature matrix of this vectorizer's documents, in order, under
        one table; for some documents only, use ``view(rows).matrix(table)``."""
        d, K = self.model.dimension, len(self._rows)
        n = len(self.known_token_counts)
        log = table.scheme == "tftrr"
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
        floor = np.full(C, math.log(table.alpha) if log else 0.0)
        top = np.zeros(C)
        full = per > 0
        top[full] = np.maximum.reduceat(values, indptr[:-1][full])
        # Exact powers of two, never materialized as factors (2.0**-e overflows).
        e = np.frexp(np.maximum(top, floor))[1]
        values, floor = np.ldexp(values, -e[category]), np.ldexp(floor, -e)
        nonzero = values != 0.0  # the nonzero (term, category) weights
        columns, values, category = columns[nonzero], values[nonzero], category[nonzero]
        # The (document, category, term) products of the numerators.
        small = self._df[columns].sum() < _PRODUCT_GATE
        G, Gt = (self._line_counts(log), None) if small else self._counts(log)
        if floored := floor.any():
            # tftrr: W = floor * [training word] + nonzero deviations from it.
            # The floor weighs every training word, so the denominators come
            # from the dense W, and its numerator F is one shared product.
            W = np.zeros((K, C))
            W[training] = floor
            W[columns, category] = values
            values = values - floor[category]
            if small:  # G @ W, its sums in scipy's order
                products = W[G.indices]
                products *= G.data[:, None]
                den = _row_sums(G.indptr, products)
            else:
                den = G @ W
                F = self._numerator(Gt, training, np.ones(training.size))[0]
        X = np.empty((n, C, d))

        def finish(at, num, weight):
            """X's categories ``at`` from their numerators and weight sums."""
            block = X[:, at]
            if floored:  # the floor's share of F, made in the block itself
                num += np.multiply(F[:, None], floor[at, None], out=block)
            weight[weight == 0.0] = 1.0
            np.divide(num, weight[:, :, None], out=block)

        if small:
            if floored:  # F is one more category, in which each training word weighs 1
                columns = np.concatenate([columns, training])
                category = np.concatenate([category, np.full(training.size, C)])
                values = np.concatenate([values, np.ones(training.size)])
                num, weight = self._products(G, columns, category, values, C + 1)
                num, F = num[:, :C], num[:, C]
            else:
                num, weight = self._products(G, columns, category, values, C)
            finish(slice(None), num, den if floored else weight)
            return X.reshape(n, C * d)
        indptr = bounds(np.bincount(category, minlength=C))
        for c in range(C):
            lo, hi = indptr[c], indptr[c + 1]
            num, sub = self._numerator(Gt, columns[lo:hi], values[lo:hi])
            if floored:
                weight = den[:, c]
            else:  # each document's weighted counts, added in G @ W's order
                weight = np.bincount(sub.indices, weights=sub.data, minlength=n)
            finish(slice(c, c + 1), num[:, None], weight[:, None])
            del num, sub  # not alive beside the next category's
        return X.reshape(n, C * d)


def _log_counts(counts: np.ndarray) -> np.ndarray:
    """``1 + ln tf`` of each count, one ``math.log`` per distinct count."""
    tf = np.unique(counts)
    log_tf = np.array([1.0 + math.log(n) for n in tf.tolist()])
    return log_tf[np.searchsorted(tf, counts)]


def _row_sums(indptr: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Each row's sum of its ``products`` (row r's are the rows
    ``indptr[r]:indptr[r + 1]`` of a 2-D array), added one after another
    starting from zero: the order in which scipy's sparse times dense
    product adds them, so the two give the same bits.  numpy's axis-0 sum
    of a row-major matrix adds its rows in turn, starting from the first
    (adding zero then turns a -0.0 sum into scipy's 0.0); a single column
    it adds pairwise, as ``np.add.reduceat`` does any, so one column is
    summed by ``np.cumsum``."""
    sums = np.zeros((indptr.size - 1, products.shape[1]))
    edges = indptr.tolist()
    for r in np.flatnonzero(np.diff(indptr)).tolist():
        rows = products[edges[r] : edges[r + 1]]
        if products.shape[1] > 1:
            np.add.reduce(rows, axis=0, out=sums[r])
        else:
            sums[r] = np.cumsum(rows)[-1]
    sums += 0.0
    return sums
