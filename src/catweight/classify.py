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
logs the full objective and stops early on the tolerance.  A trainer
adds only its input checks and its step rule.  ``train`` picks the
trainer by kind, one of ``CLASSIFIERS``.

Training is seeded and single-threaded: a fixed seed reproduces the
trajectory bit for bit.  Prediction ties break to the lowest class
index (numpy argmax convention).

``save_model``/``load_model`` own the one model file ``predict`` reads
(format 3, an uncompressed npz loaded without pickle): the classifier,
the scaler, one vocabulary of the training terms the embedding knew with
their embedding rows, and the weight table over that vocabulary only
(its nonzero (term, category) weights as CSR arrays, or its idf).
``load_model`` builds the in-memory ``WeightTable`` straight from those
arrays, numbering its words by the vocabulary, which is the loaded
embedding's row order.  Files of formats 1 and 2 must be retrained.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .embeddings import EmbeddingModel
from .errors import ModelFormatError, TrainingError
from .vectorize import ScalerParams
from .weighting import SCHEMES, WeightTable

MODEL_FORMAT = 3
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
    """The epoch loop both trainers share; returns ``(W, b, log)``.

    From W = 0 and b = 0, each epoch draws a permutation of the rows from
    ``cfg.seed`` and calls ``step(X_batch, y_batch, t, W, b, last)`` ->
    ``(W, b)`` for each ``cfg.batch_size`` slice of it, where ``t`` counts
    steps from 0 and ``last`` is the logged objective.  Stops after
    ``cfg.epochs`` or when the relative per-epoch improvement of
    ``objective(X, y, W, b, l2)`` drops below ``cfg.tolerance``.
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
            break
    return W, b, tuple(log)


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

    W, b, log = _descend(X, y, n_classes, cfg, _logreg_objective, step)
    return LinearModel(kind="logreg", W=W, b=b, training_log=log)


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

    W, b, log = _descend(X, y, n_classes, cfg, svm_objective, step)
    return LinearModel(kind="svm", W=W, b=b, training_log=log)


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
    """Raw class scores: softmax probabilities (logreg) or margins (svm)."""
    X = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if X.shape[1] != model.num_features:
        raise ValueError(
            f"feature length {X.shape[1]} does not match model ({model.num_features})"
        )
    scores = X @ model.W.T + model.b
    if model.kind == "logreg":
        scores = _softmax(scores)
    return scores


def predict(model: LinearModel, vector: np.ndarray) -> tuple[int, np.ndarray]:
    """Predicted class index and score vector; ties go to the lowest index."""
    scores = decision_scores(model, vector)[0]
    return int(np.argmax(scores)), scores


def predict_many(model: LinearModel, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = decision_scores(model, vectors)
    return np.argmax(scores, axis=1), scores


def save_model(saved: SavedModel, path: str | Path) -> None:
    """Write model format 3: an uncompressed npz of plain arrays, written
    through a file handle so ``path`` is used as given.  Identical models
    give identical bytes (zip entries carry a fixed timestamp).

    ``vocab`` names the ``vectors`` rows.  ``table_rows`` lists the vocab
    rows that are table words, in vocab order; the table keeps only
    those, as CSR arrays of their nonzero category weights (kld, tftrr,
    tfcr) or as their idf (tfidf).  Table words without an embedding
    row can never weigh at predict time and are not written.
    """
    model, table, scaler, vocab = saved.model, saved.table, saved.scaler, saved.embedding.words
    rows = dict(zip(table.words, range(len(table.term_ids))))
    at = np.fromiter(map(rows.get, vocab, repeat(-1)), np.int64, len(vocab))
    table_rows = np.flatnonzero(at >= 0)
    at = at[table_rows]
    empty = np.zeros(0)
    weights = None
    if table.weights is not None:
        weights = table.weights[at]
        weights.eliminate_zeros()  # kld's clamped zeros
    with open(path, "wb") as fh:
        np.savez(
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
            vocab=np.array(vocab, dtype=str),
            vectors=saved.embedding.vectors,
            table_rows=table_rows,
            weight_indptr=np.zeros(0, np.int32) if weights is None else weights.indptr,
            weight_categories=np.zeros(0, np.int32) if weights is None else weights.indices,
            weight_values=empty if weights is None else weights.data,
            idf=empty if table.idf is None else table.idf[at],
        )


# name -> (dtype kind, ndim) of every array of a format-3 file
_ARRAYS = {
    "format": ("i", 0), "kind": ("i", 0), "W": ("f", 2), "b": ("f", 1),
    "scaler_mean": ("f", 1), "scaler_scale": ("f", 1), "categories": ("U", 1),
    "preserve_case": ("b", 0), "scheme": ("U", 0), "alpha": ("f", 0),
    "vocab": ("U", 1), "vectors": ("f", 2), "table_rows": ("i", 1),
    "weight_indptr": ("i", 1), "weight_categories": ("i", 1), "weight_values": ("f", 1),
    "idf": ("f", 1),
}


def _check_version(path, npz) -> None:
    """Reject a file of another format before its arrays are checked."""
    if "format" not in npz.files:
        return
    version = npz["format"]
    if version.dtype.kind != "i" or version.ndim != 0 or version == MODEL_FORMAT:
        return  # the type check reports a malformed format array
    version = int(version)
    if 1 <= version < MODEL_FORMAT:
        raise ModelFormatError(f"{path}: a format-{version} model file, no longer read; retrain it")
    raise ModelFormatError(f"{path}: unsupported model format {version}")


def _read_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Every array of the file, type-checked; pickled data is refused."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == b"CWLM":
            raise ModelFormatError(f"{path}: a format-1 model file, no longer read; retrain it")
        # An npz archive starts with a zip entry and ends with the end record.
        fh.seek(max(fh.seek(0, 2) - 22, 0))
        if magic != b"PK\x03\x04" or fh.read(4) != b"PK\x05\x06":
            raise ModelFormatError(
                f"{path}: not a complete npz model file (other format, truncated or extended)"
            )
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                _check_version(path, npz)
                names = set(npz.files)
                if names != set(_ARRAYS):
                    raise ModelFormatError(
                        f"{path}: missing arrays {sorted(set(_ARRAYS) - names)}, "
                        f"unexpected arrays {sorted(names - set(_ARRAYS))}"
                    )
                arrays = {name: npz[name] for name in _ARRAYS}
        except (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
            raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
    for name, (kind, ndim) in _ARRAYS.items():
        arr = arrays[name]
        if arr.dtype.kind != kind or arr.ndim != ndim:
            raise ModelFormatError(
                f"{path}: array {name!r} is {arr.ndim}-D {arr.dtype}, expected {ndim}-D {kind!r}"
            )
        if kind == "f" and not np.isfinite(arr).all():
            raise ModelFormatError(f"{path}: array {name!r} has non-finite values")
    return arrays


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


def load_model(path: str | Path) -> SavedModel:
    """Read a format-3 model file.  A file of another format or version,
    or whose arrays disagree in shape or content, raises ``ModelFormatError``."""
    a = _read_arrays(path)
    kind, scheme = int(a["kind"]), str(a["scheme"])
    if kind not in _KIND_NAMES:
        raise ModelFormatError(f"{path}: unknown model kind {kind}")
    if scheme not in SCHEMES:
        raise ModelFormatError(f"{path}: unknown scheme {scheme!r}")
    categories, vocab = tuple(a["categories"].tolist()), tuple(a["vocab"].tolist())
    word_ids = dict(zip(vocab, range(len(vocab))))
    per_category = scheme in ("kld", "tftrr", "tfcr")
    C, d = len(categories), a["vectors"].shape[1]
    F = C * d if per_category else d
    T = 0 if scheme == "none" else len(a["table_rows"])
    nnz = int(a["weight_indptr"][-1]) if a["weight_indptr"].size else 0
    expected = {
        "W": (C, F), "b": (C,), "vectors": (len(vocab), d), "table_rows": (T,),
        "weight_indptr": (T + 1 if per_category else 0,),
        "weight_categories": (nnz,), "weight_values": (nnz,),
        "idf": (T if scheme == "tfidf" else 0,),
        "scaler_scale": a["scaler_mean"].shape,
    }
    wrong = [f"{n} {a[n].shape} != {shape}" for n, shape in expected.items() if a[n].shape != shape]
    if a["scaler_mean"].shape not in ((F,), (0,)):
        wrong.append(f"scaler_mean {a['scaler_mean'].shape} != ({F},)")
    if C < 2 or len(word_ids) < len(vocab):
        wrong.append("fewer than 2 categories or a repeated vocab word")
    if not wrong:
        wrong = _table_problems(a, len(vocab), C)
    if wrong:
        raise ModelFormatError(f"{path}: inconsistent model file: {'; '.join(wrong)}")
    weights = None
    if per_category:
        csr = (a["weight_values"], a["weight_categories"], a["weight_indptr"])
        weights = sp.csr_matrix(csr, shape=(T, C))
    idf = a["idf"] if scheme == "tfidf" else None
    table = WeightTable(scheme, categories, vocab, a["table_rows"], weights, idf, float(a["alpha"]))
    embedding = EmbeddingModel(d, word_ids, vocab, a["vectors"], str(path))
    scaler = ScalerParams(a["scaler_mean"], a["scaler_scale"]) if a["scaler_mean"].size else None
    model = LinearModel(kind=_KIND_NAMES[kind], W=a["W"], b=a["b"])
    return SavedModel(model, table, embedding, scaler, bool(a["preserve_case"]))
