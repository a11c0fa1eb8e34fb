"""The package's own compressed-sparse-row arrays.

A ``Csr`` holds a sparse matrix in the layout of scipy's ``csr_matrix``:
row i's column indices and values sit in ``indices[indptr[i]:indptr[i +
1]]`` and ``data[...]``, with no duplicate (row, column) entries.  The
token counts, every weight table and the small-input product of
``CorpusVectorizer.matrix`` are held this way, so ``import catweight``
and a one-line ``predict`` run on numpy alone.  scipy is imported only
inside the functions whose products are large (``build_stats`` and the
per-category loop of ``CorpusVectorizer.matrix``), which build their
``scipy.sparse`` matrices from these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Csr:
    """A sparse matrix as its CSR arrays; treat them as read-only."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        dense = np.zeros(self.shape, self.data.dtype)
        dense[row_of_entries(self.indptr), self.indices] = self.data
        return dense

    def __getitem__(self, rows: np.ndarray) -> Csr:
        """The rows ``rows`` (an index array), in that order."""
        at = entry_positions(self.indptr, rows)
        return Csr(self.data[at], self.indices[at],
                   bounds(np.diff(self.indptr)[rows], self.indptr.dtype),
                   (len(rows), self.shape[1]))

    def without_zeros(self) -> Csr:
        """This matrix without its stored zeros."""
        keep = self.data != 0
        kept = np.concatenate([[0], np.cumsum(keep)])
        return Csr(self.data[keep], self.indices[keep],
                   kept[self.indptr].astype(self.indptr.dtype), self.shape)


def bounds(sizes: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The indptr of rows holding ``sizes`` entries each."""
    indptr = np.zeros(sizes.size + 1, dtype=dtype)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def row_of_entries(indptr: np.ndarray) -> np.ndarray:
    """The row of each entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def entry_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions of the entries of ``rows``, row after row."""
    sizes = np.diff(indptr)[rows]
    start = indptr[rows] - (np.cumsum(sizes) - sizes)
    return np.repeat(start, sizes) + np.arange(sizes.sum())
