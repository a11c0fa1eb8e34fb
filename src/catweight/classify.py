"""Linear classifiers trained from scratch on document vectors.

Two models with a shared interface:

* multinomial (softmax) logistic regression minimizing mean
  cross-entropy + (l2/2)*||W||^2 (biases unregularized) by mini-batch
  gradient descent with an inverse-time decayed step; in full-batch
  mode a backtracking halving step enforces a non-increasing objective;
* one-vs-rest linear SVM minimizing per-class mean hinge loss
  + (l2/2)*||w||^2 by subgradient descent with the Pegasos step
  1/(l2*(t + t0)) and projection onto the ball of radius 1/sqrt(l2).
  The offset t0 = 1/(l2*learning_rate) makes the first step the
  learning rate, as for logreg, instead of 1/l2 (Bottou, "Stochastic
  Gradient Descent Tricks", 2012).  The bias is folded into the
  regularized weight vector.

Both trainers run one descent loop, ``_descend``: from zero weights,
each epoch visits the rows in a seeded permutation, one batch per step,
logs the full objective and stops after its epochs or early on the
tolerance, recording which (``LinearModel.stop_reason``).  A trainer
adds only its input checks and its step rule.  ``train`` picks the
trainer by kind, one of ``CLASSIFIERS``.

Training is seeded and single-threaded: a fixed seed reproduces the
trajectory bit for bit.  Prediction ties break to the lowest class
index (numpy argmax convention).

``save_model`` and ``ModelFile`` own the one model file ``predict``
reads (format 6, an uncompressed npz loaded without pickle).  Its
members whose size does not depend on the vocabulary hold the
classifier, the scaler, the categories, the scheme and alpha.  The
others are read in blocks, each under its own CRC-32 (``block_crcs``):
the vocabulary of the training terms the embedding knew, sorted
(``words``), with the embedding row of each (``word_rows``); their
embedding rows (``vectors``); and the weight table over that vocabulary
only, as its nonzero entries in (row, column) order (``weight_keys``,
``weight_values``).  Two small members, read whole, say where the
blocks start: the first word of each block of ``_BLOCK_ROWS`` words
(``word_fences``) and the first table entry of each block of
``_BLOCK_ROWS`` rows (``weight_fences``).  ``save_model`` writes
``np.savez``'s bytes, member by member from each array's own memory, so
it holds no second copy of the vectors.

Opening a ``ModelFile`` takes the member list from the zip's central
directory, reads the members whose size does not depend on the
vocabulary straight into freshly allocated (so aligned) arrays,
checking each one's CRC-32 over header and data before any value is
used, and of the others reads only the npy headers, whose types and
shapes must agree with them.  A member's npy header is matched, not
evaluated: it must have the one layout ``np.savez`` writes, ``{'descr':
..., 'fortran_order': ..., 'shape': (...), }`` padded with spaces and
ended by a newline, or the file is refused.  A word lookup
(``SortedWords.rows_of``) finds each word's block by binary search over
the fences and reads only those blocks of ``words`` and ``word_rows``;
``ModelFile.read_rows`` reads only the blocks of ``vectors`` and of the
table entries that hold the rows asked for.  Each block is read by one
read at its offset and checked before any of its values is used: its
CRC-32, then its content (words that rise and agree with the fences,
rows in range and distinct, finite vectors, keys that rise within the
block's rows, weights > 0 or idf >= 0, finite).  The embedding
``read_rows`` returns exposes the rows read only (``CheckedRows``), so a
row that was not read and checked cannot reach a product, and its
``WeightTable`` (weights a ``csr.Csr``, with no scipy import) holds the
table rows among them and masks the rows read (``covered``), so a word
whose table row was not read stops the vectorizer too.  ``predict``
reads the blocks of its input's words, so its reads grow with its
input, not with the vocabulary, and a damaged block that no input word
uses goes unnoticed there; ``load_model`` reads every block, and so
checks the whole file.  Files of formats 1 to 5 must be retrained.
"""

from __future__ import annotations

import math
import os
import re
import zipfile
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .csr import Csr, bounds
from .embeddings import EmbeddingModel
from .errors import ModelFormatError, TrainingError
from .vectorize import ScalerParams
from .weighting import CATEGORY_SCHEMES, SCHEMES, WeightTable

MODEL_FORMAT = 6
CLASSIFIERS = ("logreg", "svm")
_KIND_CODES = {kind: code for code, kind in enumerate(CLASSIFIERS)}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.1
    decay: float = 1e-3
    l2: float = 1e-4
    batch_size: int = 64
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("learning_rate", "decay", "l2", "tolerance"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0 or self.decay < 0:
            raise ValueError("learning rate must be > 0 and decay >= 0")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LinearModel:
    kind: str  # "logreg" or "svm"
    W: np.ndarray  # num_classes x num_features
    b: np.ndarray  # num_classes
    training_log: tuple[float, ...] = ()
    # Why training stopped: "epochs" (all ran) or "tolerance" (the stop
    # test fired); None for a model read from a file.  Not saved.
    stop_reason: str | None = None

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    @property
    def num_features(self) -> int:
        return self.W.shape[1]


@dataclass
class SavedModel:
    """Everything ``predict`` needs, as one model file holds it: the
    classifier, the training weight table, the embedding row of each
    training term, the scaler (None without standardization) and the
    tokenizer's case setting."""

    model: LinearModel
    table: WeightTable
    embedding: EmbeddingModel
    scaler: ScalerParams | None = None
    preserve_case: bool = False


def _check_training_inputs(X: np.ndarray, y: np.ndarray, num_classes: int | None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise TrainingError(f"expected a 2-D feature matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise TrainingError(
            f"labels shape {y.shape} does not match {X.shape[0]} vectors"
        )
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise TrainingError(f"non-finite feature values in document row {bad}")
    distinct = np.unique(y)
    if distinct.size < 2:
        raise TrainingError(
            f"training needs >= 2 distinct labels, got {distinct.size}"
        )
    if distinct[0] < 0:
        raise TrainingError(f"negative label {distinct[0]}")
    n = int(distinct[-1]) + 1 if num_classes is None else num_classes
    if distinct[-1] >= n:
        raise TrainingError(f"label {distinct[-1]} out of range for {n} classes")
    return X, y, n


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def _logreg_objective(
    X: np.ndarray, Y_idx: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
) -> float:
    scores = X @ W.T + b
    mx = scores.max(axis=1)
    lse = mx + np.log(np.exp(scores - mx[:, None]).sum(axis=1))
    ce = float(np.mean(lse - scores[np.arange(len(Y_idx)), Y_idx]))
    return ce + 0.5 * l2 * float(np.sum(W * W))


def logreg_gradient(
    X: np.ndarray, Y_idx: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
):
    """Analytic gradient of the logreg objective on one batch."""
    P = _softmax(X @ W.T + b)
    P[np.arange(len(Y_idx)), Y_idx] -= 1.0
    P /= len(Y_idx)
    grad_W = P.T @ X + l2 * W
    grad_b = P.sum(axis=0)
    return grad_W, grad_b


def _descend(X, y, n_classes: int, cfg: TrainConfig, objective, step):
    """The epoch loop both trainers share; returns ``(W, b, log,
    stop_reason)``.

    From W = 0 and b = 0, each epoch draws a permutation of the rows from
    ``cfg.seed`` and calls ``step(X_batch, y_batch, t, W, b, last)`` ->
    ``(W, b)`` for each ``cfg.batch_size`` slice of it, where ``t`` counts
    steps from 0 and ``last`` is the logged objective.  Stops after
    ``cfg.epochs`` or when the relative per-epoch improvement of
    ``objective(X, y, W, b, l2)`` drops below ``cfg.tolerance``, and
    says which: ``"epochs"`` or ``"tolerance"``.
    """
    n, f = X.shape
    W = np.zeros((n_classes, f), dtype=np.float64)
    b = np.zeros(n_classes, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    log: list[float] = [objective(X, y, W, b, cfg.l2)]
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            W, b = step(X[batch], y[batch], t, W, b, log[-1])
            t += 1
        current = objective(X, y, W, b, cfg.l2)
        previous = log[-1]
        log.append(current)
        if previous - current >= 0 and (previous - current) <= cfg.tolerance * max(
            abs(previous), 1e-12
        ):
            return W, b, tuple(log), "tolerance"
    return W, b, tuple(log), "epochs"


def train_logreg(
    vectors: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig | None = None,
    num_classes: int | None = None,
) -> LinearModel:
    """Mini-batch gradient descent on the softmax cross-entropy objective.

    The rate at step t is ``learning_rate / (1 + decay * t)``.  When the
    batch covers the whole training set, each step backtracks (halving
    the rate, at most 60 tries, keeping the last) until the objective
    does not increase.
    """
    cfg = config or TrainConfig()
    X, y, n_classes = _check_training_inputs(vectors, labels, num_classes)
    full_batch = cfg.batch_size >= X.shape[0]

    def step(X_batch, y_batch, t, W, b, last):
        grad_W, grad_b = logreg_gradient(X_batch, y_batch, W, b, cfg.l2)
        rate = cfg.learning_rate / (1.0 + cfg.decay * t)
        if not full_batch:
            return W - rate * grad_W, b - rate * grad_b
        for _ in range(60):
            new_W = W - rate * grad_W
            new_b = b - rate * grad_b
            if _logreg_objective(X, y, new_W, new_b, cfg.l2) <= last:
                break
            rate *= 0.5
        return new_W, new_b

    W, b, log, stop = _descend(X, y, n_classes, cfg, _logreg_objective, step)
    return LinearModel(kind="logreg", W=W, b=b, training_log=log, stop_reason=stop)


def svm_objective(
    X: np.ndarray, y: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
) -> float:
    """Summed one-vs-rest objective: per class, mean hinge loss plus
    (l2/2) * (||w||^2 + b^2) (the bias rides in the regularized vector)."""
    n, _ = X.shape
    margins = X @ W.T + b
    signs = np.full((n, W.shape[0]), -1.0)
    signs[np.arange(n), y] = 1.0
    hinge = np.maximum(0.0, 1.0 - signs * margins).mean(axis=0).sum()
    reg = 0.5 * l2 * (float(np.sum(W * W)) + float(np.sum(b * b)))
    return float(hinge) + reg


def svm_subgradient(
    X: np.ndarray, y: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
):
    """Subgradient of the OvR objective on one batch (all classes at once)."""
    n = X.shape[0]
    margins = X @ W.T + b
    signs = np.full((n, W.shape[0]), -1.0)
    signs[np.arange(n), y] = 1.0
    active = (signs * margins < 1.0).astype(np.float64) * signs
    grad_W = l2 * W - (active.T @ X) / n
    grad_b = l2 * b - active.sum(axis=0) / n
    return grad_W, grad_b


def train_svm(
    vectors: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig | None = None,
    num_classes: int | None = None,
) -> LinearModel:
    """Pegasos-style subgradient descent, one-vs-rest.

    The step at update t (counted from 0) is 1/(l2*t + 1/learning_rate):
    the Pegasos step 1/(l2*(t + t0)) with t0 = 1/(l2*learning_rate), so
    the first step is the learning rate.  After each step every class's
    augmented (w, b) is projected onto the ball of radius 1/sqrt(l2).
    """
    cfg = config or TrainConfig()
    if cfg.l2 <= 0:
        raise TrainingError("svm training requires l2 > 0 for the Pegasos step")
    X, y, n_classes = _check_training_inputs(vectors, labels, num_classes)
    radius = 1.0 / np.sqrt(cfg.l2)

    def step(X_batch, y_batch, t, W, b, last):
        rate = 1.0 / (cfg.l2 * t + 1.0 / cfg.learning_rate)
        grad_W, grad_b = svm_subgradient(X_batch, y_batch, W, b, cfg.l2)
        W -= rate * grad_W
        b -= rate * grad_b
        norms = np.sqrt(np.sum(W * W, axis=1) + b * b)
        shrink = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
        W *= shrink[:, None]
        b *= shrink
        return W, b

    W, b, log, stop = _descend(X, y, n_classes, cfg, svm_objective, step)
    return LinearModel(kind="svm", W=W, b=b, training_log=log, stop_reason=stop)


def train(
    kind: str,
    vectors: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig | None = None,
    num_classes: int | None = None,
) -> LinearModel:
    """Train the classifier ``kind``, one of ``CLASSIFIERS``."""
    if kind == "logreg":
        return train_logreg(vectors, labels, config, num_classes)
    if kind == "svm":
        return train_svm(vectors, labels, config, num_classes)
    raise ValueError(f"unknown classifier {kind!r}; valid: {', '.join(CLASSIFIERS)}")


def decision_scores(model: LinearModel, vectors: np.ndarray) -> np.ndarray:
    """Raw class scores: softmax probabilities (logreg) or margins (svm).

    Each row is its own one-row product: the BLAS kernel of a many-row
    product depends on the row count, so a row's bits would otherwise
    depend on the other rows passed with it.
    """
    X = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if X.shape[1] != model.num_features:
        raise ValueError(
            f"feature length {X.shape[1]} does not match model ({model.num_features})"
        )
    scores = (X[:, None, :] @ model.W.T)[:, 0] + model.b
    if model.kind == "logreg":
        scores = _softmax(scores)
    return scores


def predict_many(model: LinearModel, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class index and score vector of each row; ties go to the
    lowest index."""
    scores = decision_scores(model, vectors)
    return np.argmax(scores, axis=1), scores


def _write_npz(fh, **arrays) -> None:
    """Write ``arrays`` as ``np.savez`` does, to the same bytes: an
    uncompressed zip64 member per array in argument order, each an npy
    header and the array's bytes.  ``np.savez`` copies each array with
    ``tobytes``; this writes the array's own memory."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, value in arrays.items():
            arr = np.asanyarray(value)
            header = np.lib.format.header_data_from_array_1_0(arr)
            if header["fortran_order"]:
                arr = arr.T
            # A member's default timestamp is fixed (1980-01-01), as in np.savez.
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(memoryview(np.ascontiguousarray(arr).reshape(-1).view(np.uint8)))


def save_model(saved: SavedModel, path: str | Path) -> None:
    """Write model format 6: an uncompressed npz of plain arrays, written
    through a file handle so ``path`` is used as given.  Identical models
    give identical bytes (zip entries carry a fixed timestamp), the bytes
    ``np.savez`` writes for the same arrays.

    ``words`` holds the vocabulary sorted, ``word_rows`` the embedding row
    (the row of ``vectors``) of each word, and ``word_fences`` the first
    word of each block of ``_BLOCK_ROWS`` words.  The table is written as
    its entries in (embedding row, column) order: ``weight_keys`` holds
    ``row * width + column`` of each, where the columns are the categories
    (kld, tftrr, tfcr; width C) or the one idf column (tfidf; width 1),
    and ``weight_values`` its weight (without kld's clamped zeros) or idf.
    ``weight_fences`` holds where the entries of each block of
    ``_BLOCK_ROWS`` rows start.  A vocabulary word that is no table word
    has no entries; table words without an embedding row can never weigh
    at predict time and are not written.  ``block_crcs`` holds the CRC-32
    of each block of each member of ``_BLOCKED``, so a reader checks the
    blocks it reads without reading the rest.
    """
    model, table, scaler, vocab = saved.model, saved.table, saved.scaler, saved.embedding.words
    rows = dict(zip(table.words, range(len(table.term_ids))))
    at = np.fromiter(map(rows.get, vocab, repeat(-1)), np.int64, len(vocab))
    known = np.flatnonzero(at >= 0)  # the vocab rows that are table words
    keys, values = np.zeros(0, np.int64), np.zeros(0)
    if table.weights is not None:
        weights = table.weights[at[known]].without_zeros()  # without kld's clamped zeros
        keys = np.repeat(known, np.diff(weights.indptr)) * table.num_categories + weights.indices
        values = weights.data
    elif table.idf is not None:
        keys, values = known, table.idf[at[known]]
    words = np.array(vocab, dtype=str)
    order = np.argsort(words, kind="stable")
    blocked = {
        "words": words[order],
        "word_rows": order,
        "vectors": np.ascontiguousarray(saved.embedding.vectors, dtype=_VECTORS_DTYPE),
        "weight_keys": keys,
        "weight_values": values,
    }
    entries = np.bincount(keys // _width(table), minlength=len(vocab))  # of each row
    starts = bounds(entries)[_row_bounds(len(vocab))]
    edges = _block_edges(len(vocab), starts)
    empty = np.zeros(0)
    with open(path, "wb") as fh:
        _write_npz(
            fh,
            format=np.int64(MODEL_FORMAT),
            kind=np.int64(_KIND_CODES[model.kind]),
            W=model.W,
            b=model.b,
            scaler_mean=empty if scaler is None else scaler.mean,
            scaler_scale=empty if scaler is None else scaler.scale,
            categories=np.array(table.categories, dtype=str),
            preserve_case=np.bool_(saved.preserve_case),
            scheme=np.str_(table.scheme),
            alpha=np.float64(table.alpha),
            word_fences=blocked["words"][::_BLOCK_ROWS],
            weight_fences=starts,
            block_crcs=np.array([_block_crcs(blocked[name], edges[name]) for name in _BLOCKED],
                                dtype=np.uint32),
            **blocked,
        )


# Items per block, a constant of the format: words of ``words`` and
# ``word_rows``, rows of ``vectors``.  With format 5's blocks of vectors
# only, on the benchmark's seed-1 tfcr model (17,578 rows of 50 values, a
# 2-vCPU machine), a one-line predict took about the same time at 4 to 16
# rows a block and more at 32 and above, where a line's rows pull in more
# unused bytes.  16 keeps a block of 8-letter words at 512 bytes and the
# fences and ``block_crcs`` small.
_BLOCK_ROWS = 16
_VECTORS_DTYPE = np.dtype("<f8")

# name -> (dtype kind, ndim) of every array of a format-6 file, in file order
_ARRAYS = {
    "format": ("i", 0), "kind": ("i", 0), "W": ("f", 2), "b": ("f", 1),
    "scaler_mean": ("f", 1), "scaler_scale": ("f", 1), "categories": ("U", 1),
    "preserve_case": ("b", 0), "scheme": ("U", 0), "alpha": ("f", 0),
    "word_fences": ("U", 1), "weight_fences": ("i", 1), "block_crcs": ("u", 2),
    "words": ("U", 1), "word_rows": ("i", 1), "vectors": ("f", 2),
    "weight_keys": ("i", 1), "weight_values": ("f", 1),
}
# The members read whole on the first block read: the fences and the CRC-32s.
_INDEX = ("word_fences", "weight_fences", "block_crcs")
# The members read block by block, in the order of the rows of
# ``block_crcs``.  Block k of ``words`` and ``word_rows`` holds the sorted
# words 16k to 16k + 15, block k of ``vectors`` the embedding rows 16k to
# 16k + 15, and block k of ``weight_keys`` and ``weight_values`` the
# table entries of those rows, ``weight_fences[k]`` to
# ``weight_fences[k + 1]``.
_BLOCKED = ("words", "word_rows", "vectors", "weight_keys", "weight_values")


def _width(table: WeightTable) -> int:
    """The number of columns a table's entries are keyed by: one per
    category, or tfidf's idf (scheme none has no entries)."""
    return table.num_categories if table.scheme in CATEGORY_SCHEMES else 1


def _row_bounds(num_rows: int) -> np.ndarray:
    """Where each block of ``num_rows`` rows (or words) starts, and the end."""
    return np.minimum(np.arange(-(-num_rows // _BLOCK_ROWS) + 1) * _BLOCK_ROWS, num_rows)


def _block_edges(num_rows: int, starts: np.ndarray) -> dict[str, np.ndarray]:
    """Where each block of each member of ``_BLOCKED`` starts, and the end,
    in items (rows, if 2-D), for ``num_rows`` words and ``weight_fences``
    ``starts``."""
    rows = _row_bounds(num_rows)
    return {"words": rows, "word_rows": rows, "vectors": rows,
            "weight_keys": starts, "weight_values": starts}


def _block_crcs(array: np.ndarray, edges: np.ndarray) -> list[int]:
    """The CRC-32 of the bytes of each block of ``array``, block k holding
    its items (rows, if 2-D) ``edges[k]:edges[k + 1]``."""
    data = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
    at = (edges * (array.itemsize * math.prod(array.shape[1:]))).tolist()
    return [zlib.crc32(data[lo:hi]) for lo, hi in zip(at, at[1:])]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-negative int array, increasing; for
    small arrays, a fraction of ``np.unique``'s cost."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))[: values.size]]


def _check_version(path, version: np.ndarray) -> None:
    """Reject a file of another format before its arrays are checked."""
    if version.dtype.kind != "i" or version.ndim != 0 or version == MODEL_FORMAT:
        return  # the type check reports a malformed format array
    version = int(version)
    if 1 <= version < MODEL_FORMAT:
        raise ModelFormatError(f"{path}: a format-{version} model file, no longer read; retrain it")
    raise ModelFormatError(f"{path}: unsupported model format {version}")


# The npy 1.0 header of every member, as _write_npz and np.savez write it:
# the dict's repr with sorted keys and a trailing ", ", padded with spaces
# and ended by a newline.  The descr of a plain array is a byte order, the
# type code numpy writes for its kind and a size.
_NPY_HEADER = re.compile(
    r"\{'descr': '([<>|=][biufcSUVO][0-9]*)', 'fortran_order': (False|True), "
    r"'shape': \(((?:[0-9]+, )*[0-9]+,?|)\), \} *\n"
)


def _member_header(fh, info: zipfile.ZipInfo, size: int) -> tuple:
    """``(start, dtype, shape, fortran_order, crc)`` of one stored zip
    member of the open file of ``size`` bytes: where its array's data
    starts, its npy layout and the CRC-32 of its npy header, after which
    the file is positioned at ``start``.  The header is matched against
    the one layout ``_write_npz`` writes (``_NPY_HEADER``), not
    evaluated.  A compressed member, another npy version or header
    layout, an object dtype or a size that does not fit the header
    raises ``ValueError``."""
    name = info.filename
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {name!r} is compressed")
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) < 30 or local[:4] != b"PK\x03\x04":
        raise ValueError(f"member {name!r} has no local header")
    start = fh.seek(info.header_offset + 30 + int.from_bytes(local[26:28], "little")
                    + int.from_bytes(local[28:30], "little"))
    preamble = fh.read(10)
    if len(preamble) < 10 or preamble[:6] != b"\x93NUMPY":
        raise ValueError(f"member {name!r} is not an npy array")
    if preamble[6:8] != b"\x01\x00":  # the version _write_npz writes
        raise ValueError(f"member {name!r} is npy version {tuple(preamble[6:8])}")
    head = 10 + int.from_bytes(preamble[8:10], "little")
    if head > info.file_size:
        raise ValueError(f"member {name!r} has a header longer than the member")
    header = fh.read(head - 10)
    layout = _NPY_HEADER.fullmatch(header.decode("latin1"))
    if layout is None:
        raise ValueError(f"member {name!r} has a malformed npy header")
    descr, fortran_order, dims = layout.groups()
    try:
        dtype = np.dtype(descr)
    except TypeError:
        raise ValueError(f"member {name!r} has the unknown dtype {descr!r}") from None
    if dtype.hasobject:
        raise ValueError(f"member {name!r} holds objects, not read with allow_pickle=False")
    shape = tuple(map(int, dims.replace(",", " ").split()))
    if head + math.prod(shape) * dtype.itemsize != info.file_size or start + info.file_size > size:
        raise ValueError(f"member {name!r} does not hold its {shape} {dtype} array")
    crc = zlib.crc32(header, zlib.crc32(preamble))
    return start + head, dtype, shape, fortran_order == "True", crc


def _read_member(fh, info: zipfile.ZipInfo, size: int) -> np.ndarray:
    """The npy array of one stored zip member of the open file of
    ``size`` bytes, read into a fresh array (so aligned, as numpy's
    kernels want it) once its CRC-32 over header and data has matched."""
    _, dtype, shape, fortran_order, crc = _member_header(fh, info, size)
    data = np.empty(math.prod(shape) * dtype.itemsize, np.uint8)
    if fh.readinto(data) != data.size or zlib.crc32(data, crc) != info.CRC:
        raise ValueError(f"Bad CRC-32 for member {info.filename!r}")
    return data.view(dtype).reshape(shape, order="F" if fortran_order else "C")


def _read_arrays(fh, path) -> tuple[dict, dict, dict, int]:
    """What opening the file reads: every array but those of ``_INDEX``
    and ``_BLOCKED``, type-checked; the layout ``(start, dtype, shape)`` of
    the data of each of those, checked against its type; the zip member of
    each name; and the file's size.  Pickled data is refused.

    The zip's central directory names the members; each array is read
    straight into its own array.  ``format`` is read and checked first,
    so a file of another format says so before its member set is.  Of the
    other members only the npy header is read here.  A blocked member must
    be little-endian and row-ordered (``vectors`` float64), the layout
    ``block_crcs`` covers, since its header is not under a CRC-32 that a
    block read checks."""
    magic = fh.read(4)
    if magic == b"CWLM":
        raise ModelFormatError(f"{path}: a format-1 model file, no longer read; retrain it")
    # An npz archive starts with a zip entry and ends with the end record.
    size = fh.seek(0, 2)
    fh.seek(max(size - 22, 0))
    if magic != b"PK\x03\x04" or fh.read(4) != b"PK\x05\x06":
        raise ModelFormatError(
            f"{path}: not a complete npz model file (other format, truncated or extended)"
        )
    try:
        members = {m.filename.removesuffix(".npy"): m for m in zipfile.ZipFile(fh).infolist()}
        arrays, layouts = {}, {}
        if "format" in members:
            arrays["format"] = _read_member(fh, members["format"], size)
            _check_version(path, arrays["format"])
        names = set(members)
        if names != set(_ARRAYS):
            raise ModelFormatError(
                f"{path}: missing arrays {sorted(set(_ARRAYS) - names)}, "
                f"unexpected arrays {sorted(names - set(_ARRAYS))}"
            )
        for name in _ARRAYS:
            if name in _INDEX or name in _BLOCKED:
                start, dtype, shape, fortran_order, _ = _member_header(fh, members[name], size)
                layouts[name] = start, dtype, shape
                if name in _BLOCKED and (fortran_order or dtype.str[0] not in "<|"
                                         or not dtype.itemsize):
                    raise ModelFormatError(
                        f"{path}: inconsistent model file: array {name!r} is {len(shape)}-D "
                        f"{dtype.str} {'column' if fortran_order else 'row'}-ordered, "
                        f"expected little-endian row-ordered")
            elif name not in arrays:
                arrays[name] = _read_member(fh, members[name], size)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
    for name, (kind, ndim) in _ARRAYS.items():
        dtype, shape = layouts[name][1:] if name in layouts else (arrays[name].dtype,
                                                                   arrays[name].shape)
        want = _VECTORS_DTYPE.str if name == "vectors" else repr(kind)
        if dtype.kind != kind or len(shape) != ndim or (name == "vectors" and want != dtype.str):
            raise ModelFormatError(
                f"{path}: inconsistent model file: array {name!r} is {len(shape)}-D {dtype}, "
                f"expected {ndim}-D {want}"
            )
        if name in arrays and kind == "f" and not np.isfinite(arrays[name]).all():
            raise ModelFormatError(f"{path}: array {name!r} has non-finite values")
    return arrays, layouts, members, size


def _model_of(path, a: dict[str, np.ndarray], shapes: dict[str, tuple],
              model_file: ModelFile) -> SavedModel:
    """The model of the arrays ``a`` read on opening, with no word, embedding
    row or table row read yet; ``shapes`` holds the shape of every member,
    and ``model_file`` reads the word blocks (``SortedWords``).  Shapes that
    disagree raise ``ModelFormatError``."""
    kind, scheme = int(a["kind"]), str(a["scheme"])
    if kind not in _KIND_NAMES:
        raise ModelFormatError(f"{path}: unknown model kind {kind}")
    if scheme not in SCHEMES:
        raise ModelFormatError(f"{path}: unknown scheme {scheme!r}")
    categories, (V, d) = tuple(a["categories"].tolist()), shapes["vectors"]
    per_category = scheme in CATEGORY_SCHEMES
    C = len(categories)
    F = C * d if per_category else d
    blocks = -(-V // _BLOCK_ROWS)
    nnz = shapes["weight_values"][0] if scheme != "none" else 0
    expected = {
        "W": (C, F), "b": (C,), "scaler_scale": shapes["scaler_mean"],
        "word_fences": (blocks,), "weight_fences": (blocks + 1,),
        "block_crcs": (len(_BLOCKED), blocks),
        "words": (V,), "word_rows": (V,), "weight_keys": (nnz,), "weight_values": (nnz,),
    }
    wrong = [f"{n} {shapes[n]} != {shape}" for n, shape in expected.items() if shapes[n] != shape]
    if shapes["scaler_mean"] not in ((F,), (0,)):
        wrong.append(f"scaler_mean {shapes['scaler_mean']} != ({F},)")
    if C < 2:
        wrong.append("fewer than 2 categories")
    if not a["alpha"] >= 1:
        wrong.append(f"alpha {float(a['alpha'])} < 1")
    if wrong:
        raise ModelFormatError(f"{path}: inconsistent model file: {'; '.join(wrong)}")
    words = SortedWords(V, model_file)
    weights = Csr(np.zeros(0), np.zeros(0, np.int32), np.zeros(1, np.int64), (0, C))
    idf = np.zeros(0) if scheme == "tfidf" else None
    table = WeightTable(scheme, categories, words, np.zeros(0, np.int64),
                        weights if per_category else None, idf, float(a["alpha"]))
    no_rows = CheckedRows(V, np.zeros(0, np.int64), np.empty((0, d)))
    embedding = EmbeddingModel(words, no_rows, str(path))
    scaler = ScalerParams(a["scaler_mean"], a["scaler_scale"]) if a["scaler_mean"].size else None
    model = LinearModel(kind=_KIND_NAMES[kind], W=a["W"], b=a["b"])
    return SavedModel(model, table, embedding, scaler, bool(a["preserve_case"]))


class SortedWords(Sequence):
    """A model file's vocabulary, looked up block by block.

    The file keeps the words sorted, by code point as numpy's str arrays
    compare them, in blocks of ``_BLOCK_ROWS`` words, each word with its
    embedding row, and the first word of each block (``word_fences``).
    ``rows_of`` finds the block each term would sit in by one binary search
    over the fences, reads and checks only those blocks
    (``ModelFile.read_words``) and finds the terms among their words by a
    second.  With as many terms as blocks, or when a word is read by
    position, iterated or compared, every block is read, once: the words
    are then held here (as they are from the start when given as
    ``words``, sorted, and ``rows``) and the file is no longer needed.  The
    words become a tuple, in embedding row order, only on the second kind
    of use, so a line's lookup builds no per-word object over the whole
    vocabulary.  A numpy str array cannot hold a trailing NUL, so no word
    here ends in one.
    """

    def __init__(self, size: int, model_file: ModelFile | None = None,
                 words: np.ndarray | None = None, rows: np.ndarray | None = None):
        self._size, self._file = size, model_file
        self._all = None if words is None else (words, rows)  # every word, once read

    def __len__(self) -> int:
        return self._size

    def _every(self) -> tuple[np.ndarray, np.ndarray]:
        """Every word, sorted, and the embedding row of each."""
        if self._all is None:
            self._all = self._file.read_words(np.arange(-(-self._size // _BLOCK_ROWS)))
            self._file = None
        return self._all

    @cached_property
    def _tuple(self) -> tuple[str, ...]:
        words, rows = self._every()
        array = np.empty_like(words)
        array[rows] = words
        return tuple(array.tolist())

    def __getitem__(self, i):
        return self._tuple[i]

    def __iter__(self):
        return iter(self._tuple)

    def __eq__(self, other) -> bool:
        return self._tuple == (other._tuple if isinstance(other, SortedWords) else other)

    def rows_of(self, terms) -> np.ndarray:
        """The row of each of ``terms`` (a sequence of ``str``), -1 where
        it is missing."""
        missing = np.full(len(terms), -1, dtype=np.int64)
        if not self._size or not len(terms):
            return missing
        query = np.array(terms, dtype=str)
        # Searching in the fences' and the words' own width avoids widening
        # a copy of them.  A longer term cut to that width still falls in
        # its own block, and may then land on a prefix among the block's
        # words, which the test below rejects.  With at least as many
        # terms as blocks, most blocks hold one: all are read, unsearched.
        if self._all is None and len(terms) < -(-self._size // _BLOCK_ROWS):
            fences = self._file.word_fences
            block = np.searchsorted(fences, query.astype(fences.dtype, copy=False), "right") - 1
            words, rows = self._file.read_words(_distinct(block[block >= 0]))
            if not words.size:
                return missing
        else:
            words, rows = self._every()
        at = np.searchsorted(words, query.astype(words.dtype, copy=False))
        at[at == words.size] = 0
        found = words[at] == query
        if "\x00" in "".join(terms):  # numpy drops a trailing NUL of the query
            found &= np.fromiter((not t.endswith("\x00") for t in terms), bool, len(terms))
        return np.where(found, rows[at], -1)


class CheckedRows:
    """The rows of a model file's ``vectors`` that ``ModelFile.read_rows``
    read and checked, indexed by embedding row as the whole ``(V, d)``
    array is: an int array of read rows gives their values, in a new
    array and in the order asked; any other row raises ``IndexError``,
    so no row that was not read and checked can reach a product."""

    def __init__(self, num_rows: int, blocks: np.ndarray, values: np.ndarray):
        self.shape = (num_rows, values.shape[1])
        self._values = values
        # Where each block's first row sits in ``values``; -1: not read.
        self._start = np.full(-(-num_rows // _BLOCK_ROWS), -1, dtype=np.int64)
        self._start[blocks] = np.arange(blocks.size) * _BLOCK_ROWS

    def __getitem__(self, rows) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":
            raise IndexError("embedding rows are taken by an array of row numbers")
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError(f"embedding rows outside [0, {self.shape[0]})")
        block, offset = np.divmod(rows, _BLOCK_ROWS)
        start = self._start[block]
        if (start < 0).any():
            raise IndexError(f"embedding row {rows[start < 0].flat[0]} was not read from the file")
        return self._values[start + offset]


def _read_at(fh, size: int, offset: int) -> bytes:
    """``size`` bytes of the open file ``fh`` from ``offset`` on, fewer at
    its end, as ``os.pread`` reads them: on a platform without it, a seek
    and a read of the buffered file, which keeps its own position."""
    fh.seek(offset)
    return fh.read(size)


# Whether blocks are read by ``os.pread`` (one C call a read, on the file
# descriptor) or, on a platform without it, by ``_read_at``.
_PREAD = hasattr(os, "pread")


class ModelFile:
    """A format-6 model file, held open.  Opening it reads and checks the
    members whose size does not depend on the vocabulary (the classifier,
    the scaler, the categories, the scheme and alpha: each one's CRC-32
    and npy header, type and shape) and the npy header of every other
    member, whose types and shapes must agree with them.  ``saved`` is then
    the model with no word, embedding row or table row read, enough to
    tokenize an input.  Its words (``SortedWords``) look the input's words
    up by reading the blocks of ``words`` and ``word_rows`` they fall in
    (``read_words``), and ``read_rows`` reads the blocks of embedding and
    table rows the input uses.  The first block read reads the index
    (``_INDEX``) whole.  Every block is checked before any of its values
    is used: its CRC-32 in ``block_crcs``, then its content.  A file of
    another format or version, or whose arrays disagree in shape or
    content, raises ``ModelFormatError``.  Use it as a context manager,
    which closes the file; a block read after that raises ``ValueError``."""

    def __init__(self, path: str | Path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            arrays, self._layouts, self._members, self._size = _read_arrays(self._fh, path)
            shapes = {name: arr.shape for name, arr in arrays.items()}
            shapes |= {name: layout[2] for name, layout in self._layouts.items()}
            self.saved = _model_of(path, arrays, shapes, self)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> ModelFile:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    def _check_open(self) -> None:
        """Refuse a read once the file is closed: of a model that
        ``saved`` or ``read_rows`` gave, only the words held already
        (``SortedWords``) and the rows read stay usable then."""
        if self._fh.closed:
            raise ValueError(f"{self.path}: the ModelFile is closed; read the blocks a model "
                             f"needs while it is open, or read it whole with load_model")

    @cached_property
    def _index(self) -> dict:
        """The members of ``_INDEX``, read whole and checked, and for each
        member of ``_BLOCKED`` where each of its blocks starts (``edges``)
        and its blocks' CRC-32s (``crcs``)."""
        self._check_open()
        try:
            index = {name: _read_member(self._fh, self._members[name], self._size)
                     for name in _INDEX}
        except (OSError, ValueError) as exc:
            raise ModelFormatError(f"{self.path}: unreadable model file: {exc}") from exc
        fences, starts = index["word_fences"], index["weight_fences"]
        nnz = self._layouts["weight_values"][2][0]
        wrong = []
        if (fences[1:] <= fences[:-1]).any():
            wrong.append("word_fences do not rise")
        if starts[0] != 0 or (starts[1:] < starts[:-1]).any() or starts[-1] != nnz:
            wrong.append(f"weight_fences do not rise from 0 to the {nnz} table entries")
        if wrong:
            raise ModelFormatError(f"{self.path}: inconsistent model file: {'; '.join(wrong)}")
        index["edges"] = _block_edges(len(self.saved.embedding), starts)
        index["crcs"] = dict(zip(_BLOCKED, index["block_crcs"]))
        return index

    @property
    def word_fences(self) -> np.ndarray:
        return self._index["word_fences"]

    def _refuse(self, name: str, blocks: np.ndarray, problem: str) -> None:
        """Refuse the file if ``blocks`` (blocks of member ``name`` that
        fail a content check) names any, by the first."""
        if blocks.size:
            raise ModelFormatError(f"{self.path}: inconsistent model file: array {name!r} "
                                   f"{problem} in block {int(blocks.min())}")

    def _sizes(self, name: str, blocks: np.ndarray) -> np.ndarray:
        """The number of items in each of ``blocks`` of member ``name``."""
        edges = self._index["edges"][name]
        return edges[blocks + 1] - edges[blocks]

    def _read_blocks(self, name: str, blocks: np.ndarray) -> np.ndarray:
        """The items (rows, if 2-D) of member ``name`` in ``blocks``
        (increasing block numbers), one block after another, in a
        read-only array over the bytes read, once each block's CRC-32 has
        matched.  Each block is one
        read at its offset, or, where that halves the reads (as when every
        block is read), each run of blocks that lie back to back in the
        file.  The reads and the CRC-32s run in C loops (``map``): per
        block, the Python steps would cost more than the bytes."""
        self._check_open()
        start, dtype, shape = self._layouts[name]
        item = dtype.itemsize * math.prod(shape[1:])
        edges = self._index["edges"][name] * item + start  # in the file
        lo, hi = edges[blocks], edges[blocks + 1]
        first = np.flatnonzero(np.concatenate(([True], lo[1:] != hi[:-1]))[: blocks.size])
        if 2 * first.size > blocks.size:
            first = np.arange(blocks.size)
        last = np.append(first[1:], blocks.size)[: first.size] - 1
        read, handle = (os.pread, self._fh.fileno()) if _PREAD else (_read_at, self._fh)
        try:
            parts = list(map(read, repeat(handle), (hi[last] - lo[first]).tolist(),
                             lo[first].tolist()))
        except (OSError, ValueError) as exc:
            raise ModelFormatError(f"{self.path}: unreadable model file: {exc}") from exc
        data = b"".join(parts)  # no copy of a single read
        end = np.cumsum(hi - lo)
        if len(data) != (end[-1] if end.size else 0):
            raise ModelFormatError(f"{self.path}: unreadable model file: "
                                   f"member '{name}.npy' ends before its blocks")
        if len(parts) < blocks.size:  # reads of several blocks: CRC-32 each block of them
            view = memoryview(data)
            parts = map(view.__getitem__, map(slice, (end - (hi - lo)).tolist(), end.tolist()))
        crcs = self._index["crcs"][name]
        bad = np.fromiter(map(zlib.crc32, parts), np.uint32, blocks.size) != crcs[blocks]
        if bad.any():
            raise ModelFormatError(f"{self.path}: unreadable model file: Bad CRC-32 for member "
                                   f"'{name}.npy' in block {blocks[bad][0]} of {crcs.size}")
        return np.frombuffer(data, dtype).reshape(-1, *shape[1:])

    def read_words(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sorted words of the word blocks ``blocks`` (increasing block
        numbers) and the embedding row of each, once each block is
        checked: its CRC-32s, its words rising and agreeing with the fences
        (its first word is its fence, its last below the next block's), its
        rows in range and distinct from the other rows read."""
        fences = self.word_fences
        words, rows = self._read_blocks("words", blocks), self._read_blocks("word_rows", blocks)
        sizes = self._sizes("words", blocks)
        block = np.repeat(blocks, sizes)
        last = np.cumsum(sizes) - 1
        first = last + 1 - sizes
        follows = blocks + 1 < fences.size
        off = words[first] != fences[blocks]
        off[follows] |= words[last[follows]] >= fences[blocks[follows] + 1]
        self._refuse("words", blocks[off], "disagrees with word_fences")
        # With the fences agreed, the words rise from block to block.
        self._refuse("words", block[np.flatnonzero(words[1:] <= words[:-1])], "does not rise")
        V, ordered = len(self.saved.embedding), np.sort(rows)
        if ordered.size and (ordered[0] < 0 or ordered[-1] >= V):
            self._refuse("word_rows", block[(rows < 0) | (rows >= V)],
                         f"holds a row outside [0, {V})")
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(rows, kind="stable")
            again = order[1:][rows[order[1:]] == rows[order[:-1]]]
            self._refuse("word_rows", block[again], "repeats a row")
        return words, rows

    def read_rows(self, rows) -> SavedModel:
        """The model with the embedding ``rows`` (int; -1 entries are
        skipped) and their table rows read: every block that holds one, of
        ``vectors``, ``weight_keys`` and ``weight_values``, read in file
        order and checked before any value is used (its CRC-32s; finite
        vectors; keys that rise and lie in the block's rows; weights > 0,
        or idf >= 0, finite).  The embedding then exposes the rows of those
        blocks only (``CheckedRows``), or, with every block read, the plain
        ``(V, d)`` array; the table holds the table words among those
        rows and masks the rows of the blocks read (``covered``), so a
        vectorizer refuses a word of any other block rather than weigh it
        0."""
        rows = np.asarray(rows, dtype=np.int64)
        blocks = _distinct(rows[rows >= 0] // _BLOCK_ROWS)
        saved = self.saved
        values = self._read_blocks("vectors", blocks)
        if not np.isfinite(values).all():
            block = np.repeat(blocks, self._sizes("vectors", blocks))
            self._refuse("vectors", block[~np.isfinite(values).all(axis=1)],
                         "has non-finite values")
        table = saved.table
        if table.scheme != "none":
            width = _width(table)
            keys = self._read_blocks("weight_keys", blocks)
            weights = self._read_blocks("weight_values", blocks)
            block = np.repeat(blocks, self._sizes("weight_keys", blocks))
            row = keys // width
            outside = (row // _BLOCK_ROWS != block) | (row >= len(saved.embedding))
            self._refuse("weight_keys", block[outside], "holds a key outside its block's rows")
            # Within its rows, so from block to block, the keys rise.
            self._refuse("weight_keys", block[1:][keys[1:] <= keys[:-1]], "does not rise")
            if table.scheme == "tfidf":
                bad = ~(np.isfinite(weights) & (weights >= 0))
                self._refuse("weight_values", block[bad], "holds a negative or non-finite idf")
                table = replace(table, term_ids=row, idf=weights)
            else:
                bad = ~(np.isfinite(weights) & (weights > 0))
                self._refuse("weight_values", block[bad], "holds a weight <= 0 or non-finite")
                first = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1]))[: row.size])
                table = replace(table, term_ids=row[first], weights=Csr(
                    weights, keys - row * width, np.append(first, row.size), (first.size, width)))
        if blocks.size < len(self.word_fences):
            values = CheckedRows(len(saved.embedding), blocks, values)
            read = np.zeros(len(self.word_fences), bool)
            read[blocks] = True
            table = replace(table, covered=np.repeat(read, _BLOCK_ROWS)[: len(saved.embedding)])
        embedding = EmbeddingModel(saved.embedding.words, values, saved.embedding.origin)
        return replace(saved, embedding=embedding, table=table)


def load_model(path: str | Path) -> SavedModel:
    """Read a format-6 model file whole: every block of every member,
    through ``ModelFile``, each with its checks.  Together they check the
    whole file: ``word_rows`` is a permutation of the embedding rows, the
    words rise throughout, and every row's table entries agree with
    ``weight_fences``.  The vectors and the table's weights (or idf) are
    read-only views of the bytes read.  A file of another format or version, or
    whose arrays disagree in shape or content, raises
    ``ModelFormatError``."""
    with ModelFile(path) as model_file:
        V = len(model_file.saved.embedding)
        saved = model_file.read_rows(np.arange(0, V, _BLOCK_ROWS))
        words = model_file.read_words(np.arange(len(model_file.word_fences)))
    words = SortedWords(V, None, *words)
    embedding = EmbeddingModel(words, saved.embedding.vectors, saved.embedding.origin)
    return replace(saved, embedding=embedding, table=replace(saved.table, terms=words))
