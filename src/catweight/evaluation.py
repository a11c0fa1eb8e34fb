"""Macro-F1 metrics, k-fold cross-validation, learning curves, grids.

The protocol under test: per fold (or per learning-curve sample), corpus
statistics, weight tables, and feature scalers are fit on the training
documents only; test documents are vectorized with those training-fold
tables and scored.  The cross-validation headline number is the
arithmetic mean of per-fold macro-F1 scores.

Cross-validation, grids and learning curves share one engine, a "fit on
A, score B" loop over (train, test) index pairs: the CV folds, or the
ladder samples against the fixed holdout.  One call evaluates one
embedding, whose document vectorizer the engine builds once; results
are keyed by ``(scheme, embedding.origin, classifier)``, so grids over
several embeddings merge by key.  The ``none`` matrix does not depend
on the pair, so it is built once, before any pair runs, and each pair
copies its rows.  Then the engine runs fold-major.  Per pair it takes
one view of the pair's rows from the vectorizer (its sliced counts,
shared by the pair's schemes) and builds the corpus statistics once
(when some scheme needs them), then for each scheme in turn its weight
table, feature matrix and scaler, on which every classifier is trained
and scored.  A scheme's matrix holds only the pair's training and test
rows, is standardized in place and lives only while its scheme runs,
so one scheme's matrix is alive at a time.  Training is seeded from
``TrainConfig.seed`` alone, so results do not depend on this order.

A failed cell is the exception that failed it, everywhere: in the
engine's per-pair outcomes, in ``grid_run``'s results (the first fold's
error) and in ``CurvePoint.failures``.  ``cross_validate`` is
``grid_run``'s one-cell case, raising that exception.
"""

from __future__ import annotations

import csv
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import TrainConfig, predict_many, train
from .corpus import LabeledCorpus, SplitPlan
from .embeddings import EmbeddingModel
from .errors import TrainingError
from .stats import build_stats
from .vectorize import CorpusVectorizer, standardize_apply, standardize_fit
from .weighting import DEFAULT_ALPHA, WeightTable, build_table


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
    failures: dict[str, Exception] = field(default_factory=dict)  # scheme -> error


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


def _check_classes(labels: np.ndarray, idx: np.ndarray, categories, classifier: str, what: str):
    if classifier != "logreg":
        return
    present = set(np.unique(labels[idx]).tolist())
    missing = [name for c, name in enumerate(categories) if c not in present]
    if missing:
        raise TrainingError(
            f"{what} lacks categories {', '.join(missing)}; use stratified folds"
        )


def _fit_and_score(
    corpus: LabeledCorpus,
    pairs,
    schemes,
    embedding: EmbeddingModel,
    classifiers,
    train_config: TrainConfig | None,
    *,
    alpha: float,
    standardize: bool,
    case_fallback: bool,
    min_count: int,
    jobs: int = 1,
    skip_failed: bool = False,
) -> dict[tuple[str, str], list[EvalReport | Exception | None]]:
    """Fit on A, score B, for every (scheme, classifier) cell and every
    ``(train_idx, test_idx, what)`` pair.

    Per pair, one vectorizer view of the pair's rows and the stats (when
    some scheme needs them) are built once, then per scheme the table,
    feature matrix and scaler on which every classifier is trained and
    scored.  A cell's outcome is its list of per-pair results, each a
    report or the exception that failed it; a failing shared step fails
    exactly the cells built on it (a failed stats build every cell but
    ``none``'s).  An unknown scheme fails its cells with
    ``build_table``'s error.  With ``skip_failed``, a cell is not run
    (its result is None) in the pairs after one it failed in.
    ``jobs > 1`` runs the pairs on a thread pool.
    """
    cfg = train_config or TrainConfig()
    schemes = list(dict.fromkeys(schemes))
    classifiers = list(dict.fromkeys(classifiers))
    labels = corpus.labels()
    n_classes = len(corpus.categories)
    vectorizer = CorpusVectorizer(
        corpus.documents, embedding, case_fallback, counts=corpus.token_counts()
    )
    cells = [(scheme, classifier) for scheme in schemes for classifier in classifiers]
    # The none matrix does not depend on the pair: each pair copies its rows.
    none_table = WeightTable(scheme="none", categories=tuple(corpus.categories))
    none_matrix = vectorizer.matrix(none_table) if "none" in schemes else None
    failed_in: dict[tuple[str, str], int] = {}  # cell -> earliest failed pair
    lock = threading.Lock()

    def score_scheme(scheme, members, view, rows, n_train, stats, outcomes):
        """Train and score the pair's cells ``members`` of one scheme.  The
        stats failure (for any scheme but ``none``), table, matrix and scaler
        share one failure path, which fails every member; the matrix dies
        when this returns."""
        try:
            if scheme == "none":
                X = none_matrix[rows]
            elif isinstance(stats, Exception):
                raise stats
            else:
                X = view.matrix(build_table(stats, scheme, alpha=alpha))
            if standardize:
                standardize_apply(standardize_fit(X[:n_train]), X, out=X)
        except Exception as exc:
            outcomes.update(dict.fromkeys(members, exc))
            return
        y_train, y_test = labels[rows[:n_train]], labels[rows[n_train:]]
        for cell in members:
            try:
                model = train(cell[1], X[:n_train], y_train, cfg, n_classes)
                pred, _ = predict_many(model, X[n_train:])
                outcomes[cell] = macro_f1(pred, y_test, n_classes, corpus.categories)
            except Exception as exc:
                outcomes[cell] = exc

    def run_pair(p: int) -> dict[tuple[str, str], EvalReport | Exception]:
        train_idx, test_idx, what = pairs[p]
        outcomes: dict[tuple[str, str], EvalReport | Exception] = {}
        with lock:
            skipped = {c for c, q in failed_in.items() if q < p} if skip_failed else set()
        for classifier in classifiers:
            try:
                _check_classes(labels, train_idx, corpus.categories, classifier, what)
            except TrainingError as exc:
                outcomes.update((cell, exc) for cell in cells if cell[1] == classifier)
        todo = [cell for cell in cells if cell not in outcomes and cell not in skipped]
        rows = np.concatenate([train_idx, test_idx])
        view = vectorizer.view(rows)  # the pair's counts, shared by its schemes
        stats = None
        if any(scheme != "none" for scheme, _ in todo):
            try:
                stats = build_stats(corpus, doc_subset=train_idx, min_count=min_count)
            except Exception as exc:
                stats = exc
        for scheme in schemes:
            members = [cell for cell in todo if cell[0] == scheme]
            if members:
                score_scheme(scheme, members, view, rows, len(train_idx), stats, outcomes)
        with lock:  # pairs may finish in any order; keep the earliest
            for cell, outcome in outcomes.items():
                if isinstance(outcome, Exception):
                    failed_in[cell] = min(p, failed_in.get(cell, p))
        return outcomes

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_pair = list(pool.map(run_pair, range(len(pairs))))
    else:
        per_pair = list(map(run_pair, range(len(pairs))))
    return {cell: [outcome.get(cell) for outcome in per_pair] for cell in cells}


def cross_validate(
    corpus: LabeledCorpus,
    plan: SplitPlan,
    scheme: str,
    embedding: EmbeddingModel,
    classifier: str = "logreg",
    train_config: TrainConfig | None = None,
    *,
    alpha: float = DEFAULT_ALPHA,
    standardize: bool = False,
    case_fallback: bool = False,
    min_count: int = 1,
) -> EvalReport:
    """k-fold cross-validation of one (scheme, embedding, classifier) cell.

    The one-cell case of ``grid_run``, except that a failure raises.
    Each fold fits stats, weight table, and scaler on its k-1 training
    folds, trains the classifier, and scores the held-out fold.  The
    returned report pools the per-fold confusions and carries the
    per-fold macro-F1 scores; ``mean_macro_f1`` is their mean.
    """
    (outcome,) = grid_run(
        corpus,
        [scheme],
        embedding,
        [classifier],
        plan,
        train_config,
        alpha=alpha,
        standardize=standardize,
        case_fallback=case_fallback,
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
    alpha: float = DEFAULT_ALPHA,
    standardize: bool = False,
    case_fallback: bool = False,
    min_count: int = 1,
    record_failures: bool = False,
) -> list[CurvePoint]:
    """Macro-F1 on a fixed holdout as a function of training-set size.

    Training samples are nested along the plan's ladder; the holdout is
    the plan's fold 0 and never enters stats, tables, or training.
    Weights are recomputed from each sample alone.  The first failure,
    in (ladder size, scheme) order, raises; with ``record_failures`` a
    failed (size, scheme) goes to its point's ``failures`` instead and
    the other points still run.
    """
    holdout = plan.holdout_indices()
    pairs = [
        (plan.ladder_sample(size), holdout, f"size-{size} training sample")
        for size in plan.size_ladder
    ]
    outcomes = _fit_and_score(
        corpus,
        pairs,
        schemes,
        embedding,
        [classifier],
        train_config,
        alpha=alpha,
        standardize=standardize,
        case_fallback=case_fallback,
        min_count=min_count,
    )
    points = []
    for p, size in enumerate(plan.size_ladder):
        point = CurvePoint(training_size=int(size), scores={})
        for s in schemes:
            outcome = outcomes[s, classifier][p]
            if not isinstance(outcome, Exception):
                point.scores[s] = outcome.macro_f1
            elif record_failures:
                point.failures[s] = outcome
            else:
                raise outcome
        points.append(point)
    return points


def grid_run(
    corpus: LabeledCorpus,
    schemes,
    embedding: EmbeddingModel,
    classifiers,
    plan: SplitPlan,
    train_config: TrainConfig | None = None,
    *,
    alpha: float = DEFAULT_ALPHA,
    standardize: bool = False,
    case_fallback: bool = False,
    min_count: int = 1,
    jobs: int = 1,
) -> dict[tuple[str, str, str], EvalReport | Exception]:
    """Cross-validate the full scheme x classifier grid over one embedding.

    Runs fold-major (see the module docstring); ``jobs > 1`` runs the
    folds on a thread pool.  A failing cell's result is the exception
    of the first fold it failed in; the cell is skipped in later folds
    and the rest of the grid still runs.  Cell results do not depend on
    execution order.  Results are keyed by ``(scheme, embedding.origin,
    classifier)``; to compare embeddings, call once per embedding and
    merge the dicts.
    """
    pairs = [
        (plan.train_indices(fold), plan.fold_indices(fold), f"fold {fold} training split")
        for fold in range(plan.num_folds)
    ]
    train_sizes = tuple(len(train_idx) for train_idx, _, _ in pairs)
    n_classes = len(corpus.categories)
    outcomes = _fit_and_score(
        corpus,
        pairs,
        schemes,
        embedding,
        classifiers,
        train_config,
        alpha=alpha,
        standardize=standardize,
        case_fallback=case_fallback,
        min_count=min_count,
        jobs=jobs,
        skip_failed=True,
    )
    results: dict[tuple[str, str, str], EvalReport | Exception] = {}
    for (scheme, classifier), outcome in outcomes.items():
        key = (scheme, embedding.origin, classifier)
        failure = next((o for o in outcome if isinstance(o, Exception)), None)
        if failure is not None:
            results[key] = failure
            continue
        confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        for fold_report in outcome:
            confusion += fold_report.confusion
        per_class, macro, accuracy = _metrics_from_confusion(confusion, corpus.categories)
        results[key] = EvalReport(
            per_class=per_class,
            macro_f1=macro,
            accuracy=accuracy,
            confusion=confusion,
            fold_scores=tuple(r.macro_f1 for r in outcome),
            fold_accuracies=tuple(r.accuracy for r in outcome),
            fold_train_sizes=train_sizes,
        )
    return results


def write_results_csv(results, fh, dataset: str = "corpus") -> None:
    """`dataset,scheme,embedding,classifier,train_size,fold,macro_f1,accuracy`
    with one row per fold plus a `mean` row per cell, whose train_size is
    the mean fold's; a failed cell (an exception) gets a single `failed`
    row carrying ``"<type>: <message>"`` in the macro_f1 column.  A report
    without folds (from ``macro_f1``) gets only a `mean` row with its
    pooled scores and an empty train_size."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["dataset", "scheme", "embedding", "classifier", "train_size", "fold", "macro_f1", "accuracy"]
    )
    for (scheme, embedding_id, classifier), report in results.items():
        if isinstance(report, Exception):
            message = f"{type(report).__name__}: {report}"
            writer.writerow(
                [dataset, scheme, embedding_id, classifier, "", "failed", message, ""]
            )
            continue
        for fold, (score, acc, size) in enumerate(
            zip(report.fold_scores, report.fold_accuracies, report.fold_train_sizes)
        ):
            writer.writerow(
                [dataset, scheme, embedding_id, classifier, size, fold, repr(score), repr(acc)]
            )
        folds = bool(report.fold_scores)
        writer.writerow(
            [
                dataset,
                scheme,
                embedding_id,
                classifier,
                int(np.mean(report.fold_train_sizes)) if folds else "",
                "mean",
                repr(report.mean_macro_f1),
                repr(float(np.mean(report.fold_accuracies)) if folds else report.accuracy),
            ]
        )


def write_curve_csv(points: list[CurvePoint], schemes, fh) -> None:
    """`train_size,<scheme columns...>`, one row per ladder size; a failed
    (size, scheme) gets `failed` in its cell."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["train_size", *schemes])
    for point in points:
        writer.writerow(
            [
                point.training_size,
                *(repr(point.scores[s]) if s in point.scores else "failed" for s in schemes),
            ]
        )
