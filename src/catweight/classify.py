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
reads (format 5, an uncompressed npz loaded without pickle): the
classifier, the scaler, one vocabulary of the training terms the
embedding knew with their embedding rows (``vectors``) and
``vocab_order``, the permutation that sorts the vocabulary, the CRC-32
of each block of ``_BLOCK_ROWS`` embedding rows (``vector_crcs``), and
the weight table over that vocabulary only (its nonzero (term, category)
weights as CSR arrays, or its idf).  ``save_model`` writes
``np.savez``'s bytes, member by member from each array's own memory, so
it holds no second copy of the vectors.

Opening a ``ModelFile`` takes the member list from the zip's central
directory and reads every member but the ``vectors`` data straight into
a freshly allocated (so aligned) array, checking its CRC-32 over header
and data before any value is used.  A member's npy header is matched,
not evaluated: it must have the one layout ``np.savez`` writes,
``{'descr': ..., 'fortran_order': ..., 'shape': (...), }`` padded with
spaces and ended by a newline, or the file is refused.  It checks that
``vocab_order`` sorts the vocabulary into distinct words and builds the
in-memory ``WeightTable`` straight from the arrays (its weights a
``csr.Csr`` of them, with no scipy import), numbering its words by the
vocabulary, which is the embedding's row order; the embedding looks
words up by binary search over the sorted vocabulary, with no per-word
dict or tuple.  ``ModelFile.read_rows`` then reads only the blocks of
``vectors`` that hold the rows asked for, each run of consecutive
blocks by one read, and checks each block's CRC-32 and the finiteness
of its rows before any value is used; the embedding it returns exposes
those rows only (``CheckedRows``), so a row that was not read and
checked cannot reach a product.  ``predict`` asks for the rows of its
input's words, so a damaged block that no input word uses goes
unnoticed there; ``load_model`` reads every block and refuses it.
Files of formats 1 to 4 must be retrained.
"""

from __future__ import annotations

import math
import re
import zipfile
import zlib
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .csr import Csr
from .embeddings import EmbeddingModel, SortedWords
from .errors import ModelFormatError, TrainingError
from .vectorize import ScalerParams
from .weighting import CATEGORY_SCHEMES, SCHEMES, WeightTable

MODEL_FORMAT = 5
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
    """Write model format 5: an uncompressed npz of plain arrays, written
    through a file handle so ``path`` is used as given.  Identical models
    give identical bytes (zip entries carry a fixed timestamp), the bytes
    ``np.savez`` writes for the same arrays.

    ``vocab`` names the ``vectors`` rows, in embedding order, and
    ``vocab_order`` is the permutation that sorts it, so a reader looks
    words up by binary search.  ``vector_crcs`` holds the CRC-32 of each
    block of ``_BLOCK_ROWS`` rows of ``vectors``, so a reader checks the
    rows it reads without reading the rest.  ``table_rows`` lists the
    vocab rows that are table words, in vocab order; the table keeps only
    those, as CSR arrays of their nonzero category weights (kld, tftrr,
    tfcr) or as their idf (tfidf).  Table words without an embedding row
    can never weigh at predict time and are not written.
    """
    model, table, scaler, vocab = saved.model, saved.table, saved.scaler, saved.embedding.words
    rows = dict(zip(table.words, range(len(table.term_ids))))
    at = np.fromiter(map(rows.get, vocab, repeat(-1)), np.int64, len(vocab))
    table_rows = np.flatnonzero(at >= 0)
    at = at[table_rows]
    empty = np.zeros(0)
    weights = None
    if table.weights is not None:
        weights = table.weights[at].without_zeros()  # without kld's clamped zeros
    words = np.array(vocab, dtype=str)
    vectors = np.ascontiguousarray(saved.embedding.vectors, dtype=_VECTORS_DTYPE)
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
            vocab=words,
            vocab_order=np.argsort(words, kind="stable"),
            vectors=vectors,
            vector_crcs=_block_crcs(vectors),
            table_rows=table_rows,
            weight_indptr=np.zeros(0, np.int32) if weights is None else weights.indptr,
            weight_categories=np.zeros(0, np.int32) if weights is None else weights.indices,
            weight_values=empty if weights is None else weights.data,
            idf=empty if table.idf is None else table.idf[at],
        )


# Rows of ``vectors`` per CRC-32 block, a constant of the format.  On the
# benchmark's seed-1 tfcr model (17,578 rows of 50 values, a 2-vCPU
# machine), a one-line predict took about the same time at 4 to 16 rows
# a block and more at 32 and above, where a line's rows pull in more
# unused bytes; 16 keeps ``vector_crcs`` and a whole read's loop over the
# blocks small.
_BLOCK_ROWS = 16
_VECTORS_DTYPE = np.dtype("<f8")


def _block_crcs(vectors: np.ndarray) -> np.ndarray:
    """The CRC-32 of the bytes of each ``_BLOCK_ROWS`` rows of the
    row-ordered ``vectors``; the last block holds the rows left over."""
    data = memoryview(vectors.reshape(-1).view(np.uint8))
    step = _BLOCK_ROWS * vectors.shape[1] * vectors.itemsize
    blocks = -(-vectors.shape[0] // _BLOCK_ROWS)
    return np.array([zlib.crc32(data[k * step : (k + 1) * step]) for k in range(blocks)],
                    dtype=np.uint32)


# name -> (dtype kind, ndim) of every array of a format-5 file, in file order
_ARRAYS = {
    "format": ("i", 0), "kind": ("i", 0), "W": ("f", 2), "b": ("f", 1),
    "scaler_mean": ("f", 1), "scaler_scale": ("f", 1), "categories": ("U", 1),
    "preserve_case": ("b", 0), "scheme": ("U", 0), "alpha": ("f", 0),
    "vocab": ("U", 1), "vocab_order": ("i", 1), "vectors": ("f", 2), "vector_crcs": ("u", 1),
    "table_rows": ("i", 1), "weight_indptr": ("i", 1), "weight_categories": ("i", 1),
    "weight_values": ("f", 1), "idf": ("f", 1),
}


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
# and ended by a newline.  The descr of a plain array is a byte order, a
# type code and a size.
_NPY_HEADER = re.compile(
    r"\{'descr': '([<>|=][A-Za-z][0-9]*)', 'fortran_order': (False|True), "
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


def _read_arrays(fh, path) -> tuple[dict[str, np.ndarray], tuple]:
    """Every array of the open file but ``vectors``, type-checked, and
    ``(start, shape)`` of the ``vectors`` data; pickled data is refused.

    The zip's central directory names the members; each is read
    straight into its own array.  ``format`` is read and checked first,
    so a file of another format says so before its member set is.  Of
    ``vectors`` only the npy header is read here: it must describe
    row-ordered little-endian float64, the layout the block CRC-32s of
    ``vector_crcs`` cover, and its data is checked block by block as it
    is read (``ModelFile.read_rows``)."""
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
        arrays = {}
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
            if name == "vectors":
                start, dtype, shape, fortran_order, _ = _member_header(fh, members[name], size)
            elif name not in arrays:
                arrays[name] = _read_member(fh, members[name], size)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
    for name, arr in arrays.items():
        kind, ndim = _ARRAYS[name]
        if arr.dtype.kind != kind or arr.ndim != ndim:
            raise ModelFormatError(
                f"{path}: inconsistent model file: array {name!r} is {arr.ndim}-D {arr.dtype}, "
                f"expected {ndim}-D {kind!r}"
            )
        if kind == "f" and not np.isfinite(arr).all():
            raise ModelFormatError(f"{path}: array {name!r} has non-finite values")
    if dtype != _VECTORS_DTYPE or fortran_order or len(shape) != 2:
        raise ModelFormatError(
            f"{path}: inconsistent model file: array 'vectors' is {len(shape)}-D {dtype.str} "
            f"{'column' if fortran_order else 'row'}-ordered, expected 2-D <f8 row-ordered"
        )
    return arrays, (start, shape)


def _table_problems(a: dict[str, np.ndarray], vocab_size: int, num_categories: int) -> list[str]:
    """What is wrong with the table arrays, whose shapes already agree."""
    rows, indptr, cats = a["table_rows"], a["weight_indptr"], a["weight_categories"]
    wrong = []
    if rows.size and (rows[0] < 0 or rows[-1] >= vocab_size or (np.diff(rows) <= 0).any()):
        wrong.append("table_rows are not increasing vocab rows")
    if indptr.size and (indptr[0] != 0 or (np.diff(indptr) < 0).any()):
        wrong.append("weight_indptr does not rise from 0")
    elif cats.size:
        if cats.min() < 0 or cats.max() >= num_categories:
            wrong.append(f"a weight category outside [0, {num_categories})")
        # Within a row, categories rise; a new row may start anywhere.
        rising = np.diff(cats) > 0
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < cats.size)] - 1] = True
        if not rising.all():
            wrong.append("weight categories not increasing within a row")
    if (a["weight_values"] <= 0).any() or (a["idf"] < 0).any():
        wrong.append("a negative weight or a stored zero")
    if not a["alpha"] >= 1:
        wrong.append(f"alpha {float(a['alpha'])} < 1")
    return wrong


def _model_of(path, a: dict[str, np.ndarray], vectors_shape: tuple) -> SavedModel:
    """The model of the checked arrays ``a``, whose embedding exposes no
    row yet; arrays that disagree in shape or content raise
    ``ModelFormatError``."""
    kind, scheme = int(a["kind"]), str(a["scheme"])
    if kind not in _KIND_NAMES:
        raise ModelFormatError(f"{path}: unknown model kind {kind}")
    if scheme not in SCHEMES:
        raise ModelFormatError(f"{path}: unknown scheme {scheme!r}")
    categories, V = tuple(a["categories"].tolist()), len(a["vocab"])
    per_category = scheme in CATEGORY_SCHEMES
    C, d = len(categories), vectors_shape[1]
    F = C * d if per_category else d
    T = 0 if scheme == "none" else len(a["table_rows"])
    nnz = int(a["weight_indptr"][-1]) if a["weight_indptr"].size else 0
    expected = {
        "W": (C, F), "b": (C,), "vocab_order": (V,), "vectors": (V, d),
        "vector_crcs": (-(-V // _BLOCK_ROWS),), "table_rows": (T,),
        "weight_indptr": (T + 1 if per_category else 0,),
        "weight_categories": (nnz,), "weight_values": (nnz,),
        "idf": (T if scheme == "tfidf" else 0,),
        "scaler_scale": a["scaler_mean"].shape,
    }
    shapes = {name: arr.shape for name, arr in a.items()} | {"vectors": vectors_shape}
    wrong = [f"{n} {shapes[n]} != {shape}" for n, shape in expected.items() if shapes[n] != shape]
    if a["scaler_mean"].shape not in ((F,), (0,)):
        wrong.append(f"scaler_mean {a['scaler_mean'].shape} != ({F},)")
    if C < 2:
        wrong.append("fewer than 2 categories")
    order = a["vocab_order"]
    if not wrong and V and (order.min() < 0 or order.max() >= V):
        wrong.append("vocab_order is not a permutation of the vocab rows")
    if not wrong:
        words = SortedWords(a["vocab"], order)
        if (words.sorted[1:] <= words.sorted[:-1]).any():
            wrong.append("vocab_order does not sort the vocab into distinct words")
    if not wrong:
        wrong = _table_problems(a, V, C)
    if wrong:
        raise ModelFormatError(f"{path}: inconsistent model file: {'; '.join(wrong)}")
    weights = None
    if per_category:
        weights = Csr(a["weight_values"], a["weight_categories"], a["weight_indptr"], (T, C))
    idf = a["idf"] if scheme == "tfidf" else None
    table = WeightTable(scheme, categories, words, a["table_rows"], weights, idf, float(a["alpha"]))
    no_rows = CheckedRows(V, np.zeros(0, np.int64), np.empty((0, d)))
    embedding = EmbeddingModel(words, no_rows, str(path))
    scaler = ScalerParams(a["scaler_mean"], a["scaler_scale"]) if a["scaler_mean"].size else None
    model = LinearModel(kind=_KIND_NAMES[kind], W=a["W"], b=a["b"])
    return SavedModel(model, table, embedding, scaler, bool(a["preserve_case"]))


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


class ModelFile:
    """A format-5 model file, held open.  Opening it reads and checks
    every member but the ``vectors`` data: each member's CRC-32 and npy
    header, the array types and shapes, ``vocab_order`` and the table.
    ``saved`` is then the model with no embedding row read, enough to
    tokenize and look up an input, and ``read_rows`` reads the rows the
    input uses.  A file of another format or version, or whose arrays
    disagree in shape or content, raises ``ModelFormatError``.  Use it
    as a context manager, which closes the file."""

    def __init__(self, path: str | Path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            arrays, self._vectors = _read_arrays(self._fh, path)
            self.saved = _model_of(path, arrays, self._vectors[1])
        except BaseException:
            self._fh.close()
            raise
        self._crcs = arrays["vector_crcs"]

    def __enter__(self) -> ModelFile:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    def read_rows(self, rows) -> SavedModel:
        """The model with the embedding ``rows`` (int; -1 entries are
        skipped) read.  The blocks that hold them are read in file order,
        each run of consecutive blocks by one ``readinto``, and each
        block's CRC-32 and the finiteness of its rows are checked before
        any value is used.  The embedding then exposes the rows of those
        blocks only (``CheckedRows``), or, with every block read, the
        plain ``(V, d)`` array."""
        rows = np.asarray(rows, dtype=np.int64)
        blocks = np.unique(rows[rows >= 0] // _BLOCK_ROWS)
        try:
            values = self._read_blocks(blocks)
        except (OSError, ValueError) as exc:
            raise ModelFormatError(f"{self.path}: unreadable model file: {exc}") from exc
        if not np.isfinite(values).all():
            raise ModelFormatError(f"{self.path}: array 'vectors' has non-finite values")
        embedding = self.saved.embedding
        if blocks.size < self._crcs.size:
            values = CheckedRows(len(embedding), blocks, values)
        return replace(self.saved, embedding=EmbeddingModel(embedding.words, values,
                                                            embedding.origin))

    def _read_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The rows of ``blocks`` (increasing block numbers), one block
        after another, once each block's CRC-32 has matched."""
        start, (V, d) = self._vectors
        expected = self._crcs[blocks].tolist()
        width = _BLOCK_ROWS * d * _VECTORS_DTYPE.itemsize  # bytes of a whole block
        first = blocks * _BLOCK_ROWS
        values = np.empty((int((np.minimum(first + _BLOCK_ROWS, V) - first).sum()), d),
                          _VECTORS_DTYPE)
        data = values.reshape(-1).view(np.uint8)
        runs = np.flatnonzero(np.diff(blocks, prepend=-2) != 1).tolist()
        for lo, hi in zip(runs, runs[1:] + [blocks.size]):
            at, end = lo * width, min(hi * width, data.size)
            self._fh.seek(start + int(blocks[lo]) * width)
            if self._fh.readinto(data[at:end]) != end - at:
                raise ValueError("member 'vectors.npy' ends before its rows")
        for k, (block, crc) in enumerate(zip(blocks.tolist(), expected)):
            if zlib.crc32(data[k * width : (k + 1) * width]) != crc:
                last = min((block + 1) * _BLOCK_ROWS, V) - 1
                raise ValueError(f"Bad CRC-32 for member 'vectors.npy' in block {block} "
                                 f"(rows {block * _BLOCK_ROWS}-{last})")
        return values


def load_model(path: str | Path) -> SavedModel:
    """Read a format-5 model file whole: every member, and every block
    of ``vectors`` through ``ModelFile.read_rows``.  A file of another
    format or version, or whose arrays disagree in shape or content,
    raises ``ModelFormatError``."""
    with ModelFile(path) as model_file:
        return model_file.read_rows(np.arange(0, len(model_file.saved.embedding), _BLOCK_ROWS))
