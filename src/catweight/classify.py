"""Linear classifiers trained from scratch on document vectors.

Two models with a shared interface:

* multinomial (softmax) logistic regression minimizing mean
  cross-entropy + (l2/2)*||W||^2 (biases unregularized) by mini-batch
  gradient descent with an inverse-time decayed step; in full-batch
  mode a backtracking halving step enforces a non-increasing objective;
* one-vs-rest linear SVM minimizing per-class mean hinge loss
  + (l2/2)*||w||^2 by subgradient descent with the Pegasos step
  1/(l2*t) and projection onto the ball of radius 1/sqrt(l2).  The
  bias is folded into the regularized weight vector for stability
  under the aggressive early steps.

Training is seeded and single-threaded: a fixed seed reproduces the
trajectory bit for bit.  Prediction ties break to the lowest class
index (numpy argmax convention).

``save_model``/``load_model`` own the one model file ``predict`` reads
(format 2, an uncompressed npz loaded without pickle): the classifier,
the scaler, the weight table as ``build_table`` made it, and the
embedding row of every training term.  Format-1 files must be retrained.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingModel
from .errors import ModelFormatError, TrainingError
from .vectorize import ScalerParams
from .weighting import SCHEMES, WeightTable

MODEL_FORMAT = 2
_KIND_CODES = {"logreg": 0, "svm": 1}
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


def train_logreg(
    vectors: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig | None = None,
    num_classes: int | None = None,
) -> LinearModel:
    """Mini-batch gradient descent on the softmax cross-entropy objective.

    Stops after ``config.epochs`` or when the relative per-epoch
    objective improvement drops below ``config.tolerance``.  When the
    batch covers the whole training set, each step backtracks (halving
    the rate) until the objective does not increase.
    """
    cfg = config or TrainConfig()
    X, y, n_classes = _check_training_inputs(vectors, labels, num_classes)
    n, f = X.shape
    W = np.zeros((n_classes, f), dtype=np.float64)
    b = np.zeros(n_classes, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    full_batch = cfg.batch_size >= n
    log: list[float] = [_logreg_objective(X, y, W, b, cfg.l2)]
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad_W, grad_b = logreg_gradient(X[batch], y[batch], W, b, cfg.l2)
            rate = cfg.learning_rate / (1.0 + cfg.decay * step)
            if full_batch:
                before = log[-1]
                for _ in range(60):
                    new_W = W - rate * grad_W
                    new_b = b - rate * grad_b
                    if _logreg_objective(X, y, new_W, new_b, cfg.l2) <= before:
                        break
                    rate *= 0.5
                W, b = new_W, new_b
            else:
                W = W - rate * grad_W
                b = b - rate * grad_b
            step += 1
        current = _logreg_objective(X, y, W, b, cfg.l2)
        previous = log[-1]
        log.append(current)
        if previous - current >= 0 and (previous - current) <= cfg.tolerance * max(
            abs(previous), 1e-12
        ):
            break
    return LinearModel(kind="logreg", W=W, b=b, training_log=tuple(log))


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

    The step at update t is 1/(l2*t); after each step every class's
    augmented (w, b) is projected onto the ball of radius 1/sqrt(l2).
    """
    cfg = config or TrainConfig()
    if cfg.l2 <= 0:
        raise TrainingError("svm training requires l2 > 0 for the Pegasos step")
    X, y, n_classes = _check_training_inputs(vectors, labels, num_classes)
    n, f = X.shape
    W = np.zeros((n_classes, f), dtype=np.float64)
    b = np.zeros(n_classes, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    radius = 1.0 / np.sqrt(cfg.l2)
    log: list[float] = [svm_objective(X, y, W, b, cfg.l2)]
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            t += 1
            rate = 1.0 / (cfg.l2 * t)
            grad_W, grad_b = svm_subgradient(X[batch], y[batch], W, b, cfg.l2)
            W -= rate * grad_W
            b -= rate * grad_b
            norms = np.sqrt(np.sum(W * W, axis=1) + b * b)
            shrink = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
            W *= shrink[:, None]
            b *= shrink
        current = svm_objective(X, y, W, b, cfg.l2)
        previous = log[-1]
        log.append(current)
        if previous - current >= 0 and (previous - current) <= cfg.tolerance * max(
            abs(previous), 1e-12
        ):
            break
    return LinearModel(kind="svm", W=W, b=b, training_log=tuple(log))


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
    """Write model format 2: an uncompressed npz of plain arrays, written
    through a file handle so ``path`` is used as given.  Identical models
    give identical bytes (zip entries carry a fixed timestamp)."""
    model, table, scaler = saved.model, saved.table, saved.scaler
    empty, cw = np.zeros(0), table.category_weights
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
            words=np.array(table.words, dtype=str),
            category_weights=np.zeros((0, table.num_categories)) if cw is None else cw,
            idf=empty if table.idf is None else table.idf,
            terms=np.array(saved.embedding.words, dtype=str),
            vectors=saved.embedding.vectors,
        )


# name -> (dtype kind, ndim) of every array of a format-2 file
_ARRAYS = {
    "format": ("i", 0), "kind": ("i", 0), "W": ("f", 2), "b": ("f", 1),
    "scaler_mean": ("f", 1), "scaler_scale": ("f", 1), "categories": ("U", 1),
    "preserve_case": ("b", 0), "scheme": ("U", 0), "alpha": ("f", 0),
    "words": ("U", 1), "category_weights": ("f", 2), "idf": ("f", 1),
    "terms": ("U", 1), "vectors": ("f", 2),
}


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


def load_model(path: str | Path) -> SavedModel:
    """Read a format-2 model file.  A file of another format or version,
    or whose arrays disagree in shape, raises ``ModelFormatError``."""
    a = _read_arrays(path)
    version, kind, scheme = int(a["format"]), int(a["kind"]), str(a["scheme"])
    if version != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: unsupported model format {version}")
    if kind not in _KIND_NAMES:
        raise ModelFormatError(f"{path}: unknown model kind {kind}")
    if scheme not in SCHEMES:
        raise ModelFormatError(f"{path}: unknown scheme {scheme!r}")
    categories, words, terms = (tuple(a[n].tolist()) for n in ("categories", "words", "terms"))
    per_category = scheme in ("kld", "tftrr", "tfcr")
    C, d = len(categories), a["vectors"].shape[1]
    F = C * d if per_category else d
    V = 0 if scheme == "none" else len(words)
    expected = {
        "W": (C, F), "b": (C,), "words": (V,), "vectors": (len(terms), d),
        "category_weights": (V if per_category else 0, C),
        "idf": (V if scheme == "tfidf" else 0,),
        "scaler_scale": a["scaler_mean"].shape,
    }
    wrong = [f"{n} {a[n].shape} != {shape}" for n, shape in expected.items() if a[n].shape != shape]
    if a["scaler_mean"].shape not in ((F,), (0,)):
        wrong.append(f"scaler_mean {a['scaler_mean'].shape} != ({F},)")
    if C < 2 or len(set(words)) < len(words) or len(set(terms)) < len(terms):
        wrong.append("fewer than 2 categories or a repeated word")
    if wrong:
        raise ModelFormatError(f"{path}: inconsistent model file: {'; '.join(wrong)}")
    table = WeightTable(
        scheme, categories, {w: i for i, w in enumerate(words)}, words,
        category_weights=a["category_weights"] if per_category else None,
        idf=a["idf"] if scheme == "tfidf" else None,
        alpha=float(a["alpha"]),
    )
    embedding = EmbeddingModel(d, {t: i for i, t in enumerate(terms)}, terms, a["vectors"], str(path))
    scaler = ScalerParams(a["scaler_mean"], a["scaler_scale"]) if a["scaler_mean"].size else None
    model = LinearModel(kind=_KIND_NAMES[kind], W=a["W"], b=a["b"])
    return SavedModel(model, table, embedding, scaler, bool(a["preserve_case"]))
