"""Macro-F1 metrics, k-fold cross-validation, learning curves, grids.

The protocol under test: per fold (or per learning-curve sample), corpus
statistics, weight tables, and feature scalers are fit on the training
documents only; test documents are vectorized with those training-fold
tables and scored.  The cross-validation headline number is the
arithmetic mean of per-fold macro-F1 scores.

Cross-validation, grids and learning curves share one engine, a "fit on
A, score B" loop over (train, test) index pairs: the CV folds, or the
ladder samples against the fixed holdout.  It runs fold-major.  Per
pair it builds the corpus statistics once (when some scheme needs
them), then for each scheme in turn its weight table, feature matrix
and scaler, on which every classifier is trained and scored.  A
scheme's matrix holds only the pair's training and test rows.  The
``none`` matrix does not depend on the pair and is built once per
embedding; otherwise one scheme's matrix is alive at a time.  Training
is seeded from ``TrainConfig.seed`` alone, so results do not depend on
this order.
"""

from __future__ import annotations

import csv
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import TrainConfig, predict_many, train_logreg, train_svm
from .corpus import LabeledCorpus, SplitPlan
from .embeddings import EmbeddingModel
from .errors import TrainingError
from .stats import build_stats
from .vectorize import CorpusVectorizer, standardize_apply, standardize_fit
from .weighting import SCHEMES, WeightTable, build_table

CLASSIFIERS = ("logreg", "svm")


@dataclass
class ClassMetrics:
    category: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    per_class: tuple[ClassMetrics, ...]
    macro_f1: float
    accuracy: float
    confusion: np.ndarray  # rows = gold, columns = predicted
    fold_scores: tuple[float, ...] = ()
    fold_accuracies: tuple[float, ...] = ()
    fold_train_sizes: tuple[int, ...] = ()
    fingerprint: dict = field(default_factory=dict)

    @property
    def mean_macro_f1(self) -> float:
        """Mean of per-fold scores; falls back to the pooled score."""
        if self.fold_scores:
            return float(np.mean(self.fold_scores))
        return self.macro_f1


@dataclass
class CurvePoint:
    training_size: int
    scores: dict[str, float]  # scheme -> macro-F1 on the fixed holdout


@dataclass
class GridFailure:
    message: str
    fingerprint: dict = field(default_factory=dict)


def _metrics_from_confusion(confusion: np.ndarray, categories) -> tuple:
    per_class = []
    f1s = np.zeros(confusion.shape[0])
    for c in range(confusion.shape[0]):
        tp = float(confusion[c, c])
        gold = float(confusion[c, :].sum())
        predicted = float(confusion[:, c].sum())
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / gold if gold > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        f1s[c] = f1
        per_class.append(
            ClassMetrics(
                category=categories[c] if categories else str(c),
                precision=precision,
                recall=recall,
                f1=f1,
                support=int(gold),
            )
        )
    total = float(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total > 0 else 0.0
    return tuple(per_class), float(f1s.mean()), accuracy


def macro_f1(
    predictions, gold, num_classes: int, categories=None
) -> EvalReport:
    """Per-class P/R/F1 and their unweighted mean over ALL classes.

    Zero-denominator precision or recall is taken as 0; classes absent
    from both gold and predictions still contribute an F1 of 0.
    """
    pred = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(gold, dtype=np.int64)
    if pred.shape != y.shape:
        raise ValueError(
            f"predictions ({pred.shape}) and gold ({y.shape}) differ in length"
        )
    if pred.size and (pred.min() < 0 or pred.max() >= num_classes):
        raise ValueError("prediction label out of range")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError("gold label out of range")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    per_class, macro, accuracy = _metrics_from_confusion(confusion, categories)
    return EvalReport(
        per_class=per_class, macro_f1=macro, accuracy=accuracy, confusion=confusion
    )


def _train(classifier: str, X, y, config: TrainConfig, num_classes: int):
    if classifier == "logreg":
        return train_logreg(X, y, config, num_classes=num_classes)
    if classifier == "svm":
        return train_svm(X, y, config, num_classes=num_classes)
    raise ValueError(
        f"unknown classifier {classifier!r}; valid: {', '.join(CLASSIFIERS)}"
    )


def _check_classes(
    labels: np.ndarray, idx: np.ndarray, num_classes: int, classifier: str, what: str
):
    if classifier != "logreg":
        return
    present = np.unique(labels[idx])
    if present.size < num_classes:
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise TrainingError(
            f"{what} lacks categories {missing}; use stratified folds"
        )


def _fit_and_score(
    corpus: LabeledCorpus,
    pairs,
    schemes,
    vectorizers,
    classifiers,
    train_config: TrainConfig | None,
    *,
    alpha: float,
    standardize: bool,
    min_count: int,
    jobs: int = 1,
) -> dict[tuple[str, int, str], list[EvalReport] | tuple[int, Exception]]:
    """Fit on A, score B, for every (scheme, vectorizer index, classifier)
    cell and every ``(train_idx, test_idx, what)`` pair.

    Per pair, the stats are built once (when some scheme needs them),
    then per scheme the table, then per vectorizer one feature matrix
    and scaler on which every classifier is trained and scored.  A
    cell's outcome is its list of per-pair reports, or ``(pair index,
    exception)`` for the first pair it failed in; a failed cell is
    skipped in later pairs, and a failing shared step fails exactly the
    cells built on it.  ``jobs > 1`` runs the pairs on a thread pool.
    """
    cfg = train_config or TrainConfig()
    schemes = list(dict.fromkeys(schemes))
    classifiers = list(dict.fromkeys(classifiers))
    labels = corpus.labels()
    n_classes = len(corpus.categories)
    cells = [
        (scheme, v, classifier)
        for v in range(len(vectorizers))
        for scheme in schemes
        for classifier in classifiers
    ]
    failures: dict[tuple[str, int, str], tuple[int, Exception]] = {}
    for cell in cells:
        if cell[0] not in SCHEMES:
            failures[cell] = (
                -1,
                ValueError(f"unknown scheme {cell[0]!r}; valid: {', '.join(SCHEMES)}"),
            )
    none_table = WeightTable(scheme="none", categories=tuple(corpus.categories))
    none_matrices: dict[int, np.ndarray] = {}  # fold-independent, built once
    lock = threading.Lock()

    def features(table: WeightTable, v: int, rows: np.ndarray) -> np.ndarray:
        if table is not none_table:
            return vectorizers[v].matrix(table, rows)
        with lock:
            if v not in none_matrices:
                none_matrices[v] = vectorizers[v].matrix(table)
            return none_matrices[v][rows]

    def score_group(members, table, v, train_idx, test_idx, scores, errors):
        try:
            X = features(table, v, np.concatenate([train_idx, test_idx]))
            X_train, X_test = X[: len(train_idx)], X[len(train_idx) :]
            del X  # keep one scheme's matrix alive at a time
            if standardize:
                params = standardize_fit(X_train)
                X_train = standardize_apply(params, X_train)
                X_test = standardize_apply(params, X_test)
        except Exception as exc:
            errors.update((cell, exc) for cell in members)
            return
        y_train, y_test = labels[train_idx], labels[test_idx]
        for cell in members:
            try:
                model = _train(cell[2], X_train, y_train, cfg, n_classes)
                pred, _ = predict_many(model, X_test)
                scores[cell] = macro_f1(pred, y_test, n_classes, corpus.categories)
            except Exception as exc:
                errors[cell] = exc

    def run_pair(p: int) -> dict[tuple[str, int, str], EvalReport]:
        train_idx, test_idx, what = pairs[p]
        errors: dict[tuple[str, int, str], Exception] = {}
        scores: dict[tuple[str, int, str], EvalReport] = {}
        with lock:  # skip cells that failed in an earlier pair
            todo = [cell for cell in cells if failures.get(cell, (p,))[0] >= p]
        for classifier in classifiers:
            try:
                _check_classes(labels, train_idx, n_classes, classifier, what)
            except TrainingError as exc:
                errors.update((cell, exc) for cell in todo if cell[2] == classifier)
        todo = [cell for cell in todo if cell not in errors]
        stats = None
        if any(cell[0] != "none" for cell in todo):
            try:
                stats = build_stats(corpus, doc_subset=train_idx, min_count=min_count)
            except Exception as exc:
                errors.update((cell, exc) for cell in todo if cell[0] != "none")
        for scheme in schemes:
            group = [cell for cell in todo if cell[0] == scheme and cell not in errors]
            if not group:
                continue
            try:
                table = (
                    none_table
                    if scheme == "none"
                    else build_table(stats, scheme, alpha=alpha)
                )
            except Exception as exc:
                errors.update((cell, exc) for cell in group)
                continue
            for v in range(len(vectorizers)):
                members = [cell for cell in group if cell[1] == v]
                if members:
                    score_group(members, table, v, train_idx, test_idx, scores, errors)
        with lock:  # keep the earliest pair's error, whatever order pairs ran in
            for cell, exc in errors.items():
                if failures.get(cell, (p + 1,))[0] > p:
                    failures[cell] = (p, exc)
        return scores

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_pair = list(pool.map(run_pair, range(len(pairs))))
    else:
        per_pair = list(map(run_pair, range(len(pairs))))
    return {
        cell: failures[cell]
        if cell in failures
        else [scores[cell] for scores in per_pair]
        for cell in cells
    }


def _cv_grid(
    corpus: LabeledCorpus,
    plan: SplitPlan,
    schemes,
    vectorizers,
    classifiers,
    train_config: TrainConfig | None,
    *,
    dataset: str,
    jobs: int = 1,
    **options,
) -> dict[tuple[str, str, str], EvalReport | Exception]:
    """Cross-validated report, or the first exception, per grid cell."""
    pairs = [
        (plan.train_indices(fold), plan.fold_indices(fold), f"fold {fold} training split")
        for fold in range(plan.num_folds)
    ]
    train_sizes = tuple(len(train_idx) for train_idx, _, _ in pairs)
    n_classes = len(corpus.categories)
    outcomes = _fit_and_score(
        corpus, pairs, schemes, vectorizers, classifiers, train_config,
        jobs=jobs, **options,
    )
    results: dict[tuple[str, str, str], EvalReport | Exception] = {}
    for (scheme, v, classifier), outcome in outcomes.items():
        origin = vectorizers[v].model.origin
        if isinstance(outcome, tuple):
            results[scheme, origin, classifier] = outcome[1]
            continue
        confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        for fold_report in outcome:
            confusion += fold_report.confusion
        per_class, macro, accuracy = _metrics_from_confusion(confusion, corpus.categories)
        results[scheme, origin, classifier] = EvalReport(
            per_class=per_class,
            macro_f1=macro,
            accuracy=accuracy,
            confusion=confusion,
            fold_scores=tuple(r.macro_f1 for r in outcome),
            fold_accuracies=tuple(r.accuracy for r in outcome),
            fold_train_sizes=train_sizes,
            fingerprint={
                "dataset": dataset,
                "scheme": scheme,
                "embedding": origin,
                "classifier": classifier,
                "seed": plan.seed,
                "train_size": int(np.mean(train_sizes)) if train_sizes else 0,
            },
        )
    return results


def cross_validate(
    corpus: LabeledCorpus,
    plan: SplitPlan,
    scheme: str,
    embedding: EmbeddingModel,
    classifier: str = "logreg",
    train_config: TrainConfig | None = None,
    *,
    alpha: float = 1.2,
    standardize: bool = False,
    case_fallback: bool = False,
    min_count: int = 1,
    vectorizer: CorpusVectorizer | None = None,
    dataset: str = "corpus",
) -> EvalReport:
    """k-fold cross-validation of one (scheme, embedding, classifier) cell.

    The one-cell case of ``grid_run``, except that a failure raises.
    Each fold fits stats, weight table, and scaler on its k-1 training
    folds, trains the classifier, and scores the held-out fold.  The
    returned report pools the per-fold confusions and carries the
    per-fold macro-F1 scores; ``mean_macro_f1`` is their mean.
    """
    vec = vectorizer or CorpusVectorizer(
        corpus.documents, embedding, case_fallback, counts=corpus.token_counts()
    )
    (outcome,) = _cv_grid(
        corpus,
        plan,
        [scheme],
        [vec],
        [classifier],
        train_config,
        dataset=dataset,
        alpha=alpha,
        standardize=standardize,
        min_count=min_count,
    ).values()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def learning_curve(
    corpus: LabeledCorpus,
    plan: SplitPlan,
    schemes,
    embedding: EmbeddingModel,
    classifier: str = "logreg",
    train_config: TrainConfig | None = None,
    *,
    alpha: float = 1.2,
    standardize: bool = False,
    case_fallback: bool = False,
    min_count: int = 1,
    vectorizer: CorpusVectorizer | None = None,
) -> list[CurvePoint]:
    """Macro-F1 on a fixed holdout as a function of training-set size.

    Training samples are nested along the plan's ladder; the holdout is
    the plan's fold 0 and never enters stats, tables, or training.
    Weights are recomputed from each sample alone.  The first failure,
    in (ladder size, scheme) order, raises.
    """
    vec = vectorizer or CorpusVectorizer(
        corpus.documents, embedding, case_fallback, counts=corpus.token_counts()
    )
    holdout = plan.holdout_indices()
    pairs = [
        (plan.ladder_sample(size), holdout, f"size-{size} training sample")
        for size in plan.size_ladder
    ]
    outcomes = _fit_and_score(
        corpus,
        pairs,
        schemes,
        [vec],
        [classifier],
        train_config,
        alpha=alpha,
        standardize=standardize,
        min_count=min_count,
    )
    failed = [
        (outcome[0], rank, outcome[1])
        for rank, outcome in enumerate(outcomes.values())
        if isinstance(outcome, tuple)
    ]
    if failed:
        raise min(failed, key=lambda f: f[:2])[2]
    return [
        CurvePoint(
            training_size=int(size),
            scores={s: outcomes[s, 0, classifier][p].macro_f1 for s in schemes},
        )
        for p, size in enumerate(plan.size_ladder)
    ]


def grid_run(
    corpus: LabeledCorpus,
    schemes,
    embeddings,
    classifiers,
    plan: SplitPlan,
    train_config: TrainConfig | None = None,
    *,
    alpha: float = 1.2,
    standardize: bool = False,
    case_fallback: bool = False,
    min_count: int = 1,
    dataset: str = "corpus",
    jobs: int = 1,
) -> dict[tuple[str, str, str], EvalReport | GridFailure]:
    """Cross-validate the full scheme x embedding x classifier grid.

    Runs fold-major (see the module docstring); ``jobs > 1`` runs the
    folds on a thread pool.  A failing cell is recorded as a GridFailure
    carrying the error of the first fold it failed in; the rest of the
    grid still runs.  Cell results do not depend on execution order.
    Results are keyed by ``(scheme, embedding.origin, classifier)``, so
    embedding origins must be distinct.
    """
    origins = [embedding.origin for embedding in embeddings]
    duplicates = sorted({o for o in origins if origins.count(o) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate embedding origins {duplicates}; grid results are keyed "
            f"by origin, so each embedding needs a distinct one"
        )
    vectorizers = [
        CorpusVectorizer(
            corpus.documents, embedding, case_fallback, counts=corpus.token_counts()
        )
        for embedding in embeddings
    ]
    results = _cv_grid(
        corpus,
        plan,
        schemes,
        vectorizers,
        classifiers,
        train_config,
        dataset=dataset,
        jobs=jobs,
        alpha=alpha,
        standardize=standardize,
        min_count=min_count,
    )
    return {
        key: GridFailure(
            message=f"{type(outcome).__name__}: {outcome}",
            fingerprint={"scheme": key[0], "embedding": key[1], "classifier": key[2]},
        )
        if isinstance(outcome, Exception)
        else outcome
        for key, outcome in results.items()
    }


def write_results_csv(results, fh, dataset: str = "corpus") -> None:
    """`dataset,scheme,embedding,classifier,train_size,fold,macro_f1,accuracy`
    with one row per fold plus a `mean` row per cell; failed cells get a
    single `failed` row carrying the error message in the macro_f1 column."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["dataset", "scheme", "embedding", "classifier", "train_size", "fold", "macro_f1", "accuracy"]
    )
    for (scheme, embedding_id, classifier), report in results.items():
        if isinstance(report, GridFailure):
            writer.writerow(
                [dataset, scheme, embedding_id, classifier, "", "failed", report.message, ""]
            )
            continue
        for fold, (score, acc, size) in enumerate(
            zip(report.fold_scores, report.fold_accuracies, report.fold_train_sizes)
        ):
            writer.writerow(
                [dataset, scheme, embedding_id, classifier, size, fold, repr(score), repr(acc)]
            )
        writer.writerow(
            [
                dataset,
                scheme,
                embedding_id,
                classifier,
                report.fingerprint.get("train_size", ""),
                "mean",
                repr(report.mean_macro_f1),
                repr(float(np.mean(report.fold_accuracies))),
            ]
        )


def write_curve_csv(points: list[CurvePoint], schemes, fh) -> None:
    """`train_size,<scheme columns...>`, one row per ladder size."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["train_size", *schemes])
    for point in points:
        writer.writerow(
            [point.training_size, *(repr(point.scores[s]) for s in schemes)]
        )
