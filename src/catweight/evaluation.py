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
(when some scheme needs them), then for each scheme in turn calls the
pair step, ``fit_pair``: the weight table, feature matrix and scaler,
on which every classifier is trained and scored.  A scheme's matrix
holds only the pair's training and test rows and is standardized in
place.  ``fit_pair`` is the only code that fits a table, features and a
scaler: the ``train`` and ``vectorize`` commands call it once with
every document as training data, and ``weights`` calls its table step,
``fit_table``.

The calling thread builds all features, in that order.  It hands each
(pair, scheme)'s classifier cells to a pool of ``jobs`` worker threads
(by default the CPUs this process may use, divided by the threads each
BLAS call may start) as one batch, and goes on building while they
train.  It waits for the oldest batches handed out only where one of
two rules says so:

* before building a category scheme's matrix (kld, tftrr, tfcr: one
  block of d columns per category), until at most one category batch
  is pending;
* before building any (pair, scheme), until no batch of that scheme is
  pending, since its failures decide which of the cells run.

A ``none`` copy or a ``tfidf`` matrix (d columns) is built without
waiting.  So the next pair's view, stats, ``none`` and ``tfidf``
matrices and its first category matrix are built while the last pair's
category cells train, and at most two category-scheme matrices are
alive (one training, one being built), plus at most one ``tfidf``
matrix and one ``none`` copy.  ``jobs=1`` trains each cell on the
calling thread as soon as its matrix is built.  Training is seeded from
``TrainConfig.seed`` alone and each outcome is written once, into one
table by (cell, pair), so results do not depend on the number of
workers or on the order in which the cells finish.

A failed cell is the exception that failed it, everywhere: in the
engine's outcome table, in ``grid_run``'s results (the first fold's
error) and in ``CurvePoint.failures``.  The engine records it without
its traceback, so a failure keeps no frame alive, and with it no
feature matrix or vectorizer.  ``cross_validate`` is ``grid_run``'s
one-cell case, raising that exception.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import TrainConfig, predict_many, train
from .corpus import LabeledCorpus, SplitPlan
from .embeddings import EmbeddingModel
from .errors import TrainingError
from .stats import CorpusStats, build_stats
from .vectorize import CorpusVectorizer, standardize_apply, standardize_fit
from .weighting import CATEGORY_SCHEMES, DEFAULT_ALPHA, WeightTable, build_table


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
    """The ``TrainingError`` of training ``classifier`` on documents ``idx``
    that lack some category it needs, or None."""
    if classifier != "logreg":
        return None
    present = set(np.unique(labels[idx]).tolist())
    missing = [name for c, name in enumerate(categories) if c not in present]
    if missing:
        return TrainingError(f"{what} lacks categories {', '.join(missing)}; use stratified folds")
    return None


# The variables that set the thread count of a BLAS call (OpenBLAS, MKL,
# OpenMP builds); where none is set, BLAS starts one thread per CPU.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _default_jobs() -> int:
    """Cells trained at once by default: the CPUs this process may use,
    divided by the threads each BLAS call may start.  So with BLAS at its
    default of one thread per CPU it is 1: training cells side by side
    would only make their BLAS threads compete for the CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    set_counts = [
        int(value)
        for value in map(os.environ.get, _BLAS_THREAD_VARIABLES)
        if value and value.strip().isdigit() and int(value) > 0
    ]
    return max(1, cpus // min(set_counts, default=cpus))


def _run_now(fn, *args) -> Future:
    """``fn(*args)`` run on this thread, as a finished future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _fit_stats(corpus: LabeledCorpus, train_idx, min_count: int) -> CorpusStats | Exception:
    """The stats of the documents ``train_idx`` (every document when
    None), or the exception that failed their build, without its
    traceback."""
    try:
        return build_stats(corpus, doc_subset=train_idx, min_count=min_count)
    except Exception as exc:
        return exc.with_traceback(None)


def fit_table(corpus: LabeledCorpus, scheme: str, train_idx=None, *, alpha: float = DEFAULT_ALPHA,
              min_count: int = 1, stats=None) -> WeightTable:
    """``scheme``'s weight table fit on the documents ``train_idx``
    (every document when None): ``none``'s, or ``build_table`` over
    their stats.  ``stats`` is their ``_fit_stats`` when the caller
    built it already; a failed build raises here."""
    if scheme == "none":
        return WeightTable(scheme="none", categories=tuple(corpus.categories))
    stats = _fit_stats(corpus, train_idx, min_count) if stats is None else stats
    if isinstance(stats, Exception):
        raise stats
    return build_table(stats, scheme, alpha=alpha)


def fit_pair(corpus: LabeledCorpus, vectorizer: CorpusVectorizer, scheme: str, train_idx=None, *,
             alpha: float = DEFAULT_ALPHA, min_count: int = 1, standardize: bool = False,
             stats=None, features: np.ndarray | None = None) -> tuple:
    """The pair step: ``(table, X, scaler)`` of ``scheme`` fit on the
    documents ``train_idx`` (every document when None), which are the
    first of ``vectorizer``'s: the table (``fit_table``), the features
    of all the vectorizer's documents (``features``, when the caller has
    them already) and, with ``standardize``, the scaler fit on the
    training rows and applied to every row in place (else None)."""
    table = fit_table(corpus, scheme, train_idx, alpha=alpha, min_count=min_count, stats=stats)
    X = vectorizer.matrix(table) if features is None else features
    if not standardize:
        return table, X, None
    n_train = len(X) if train_idx is None else len(train_idx)
    if n_train < 2:
        raise TrainingError(f"standardizing needs at least 2 training documents, got {n_train}")
    scaler = standardize_fit(X[:n_train])
    return table, standardize_apply(scaler, X, out=X), scaler


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
    min_count: int,
    jobs: int | None = None,
    skip_failed: bool = False,
) -> dict[tuple[str, str], list[EvalReport | Exception | None]]:
    """Fit on A, score B, for every (scheme, classifier) cell and every
    ``(train_idx, test_idx, what)`` pair.  Returns the outcome table,
    ``outcomes[cell][pair]``: a report, the exception that failed the
    cell in that pair, or None where the cell did not run.

    Per pair, one vectorizer view of the pair's rows and the stats (when
    some scheme needs them) are built once, then per scheme the pair
    step, ``fit_pair``, whose matrix every classifier is trained and
    scored on.  A failing shared step fails exactly the cells built on
    it (a failed stats build every cell but ``none``'s), and a logreg
    cell fails in a pair whose training documents lack a category.  An
    unknown scheme fails its cells with ``build_table``'s error.  With
    ``skip_failed``, a cell does not run in the pairs after one it
    failed in.

    ``jobs`` is the number of cells trained at once; None means
    ``_default_jobs()``.  The module docstring gives the order in which
    this thread builds and waits.
    """
    cfg = train_config or TrainConfig()
    jobs = _default_jobs() if jobs is None else jobs
    schemes = list(dict.fromkeys(schemes))
    classifiers = list(dict.fromkeys(classifiers))
    labels = corpus.labels()
    n_classes = len(corpus.categories)
    vectorizer = CorpusVectorizer(corpus.documents, embedding, counts=corpus.token_counts())
    # The none matrix does not depend on the pair: each pair copies its rows.
    none_matrix = None
    if "none" in schemes:
        none_matrix = fit_pair(corpus, vectorizer, "none")[1]
    outcomes = {
        (scheme, classifier): [None] * len(pairs)
        for scheme in schemes
        for classifier in classifiers
    }
    pending = []  # the batches handed out, oldest first: (pair, scheme, {cell: future})

    def settle():
        """Write the oldest pending batch's outcomes, waiting for them."""
        p, _, futures = pending.pop(0)
        for cell, future in futures.items():
            outcomes[cell][p] = future.result()

    def count_pending(of_schemes):
        return sum(scheme in of_schemes for _, scheme, _ in pending)

    def score_cell(classifier, X, n_train, y_train, y_test):
        try:
            model = train(classifier, X[:n_train], y_train, cfg, n_classes)
            pred, _ = predict_many(model, X[n_train:])
            return macro_f1(pred, y_test, n_classes, corpus.categories)
        except Exception as exc:
            return exc.with_traceback(None)  # or its frame would keep X alive

    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    submit = pool.submit if pool is not None else _run_now
    try:
        for p, (train_idx, test_idx, what) in enumerate(pairs):
            lacking = {
                classifier: _check_classes(labels, train_idx, corpus.categories, classifier, what)
                for classifier in classifiers
            }
            rows = np.concatenate([train_idx, test_idx])
            n_train = len(train_idx)
            y_train, y_test = labels[train_idx], labels[test_idx]
            view = vectorizer.view(rows)  # the pair's counts, shared by its schemes
            stats = None
            for scheme in schemes:
                while count_pending((scheme,)):
                    settle()  # its failures decide which of the cells run here
                members = []
                for classifier in classifiers:
                    cell = (scheme, classifier)
                    if skip_failed and any(isinstance(o, Exception) for o in outcomes[cell][:p]):
                        continue
                    if lacking[classifier] is not None:
                        outcomes[cell][p] = lacking[classifier]
                    else:
                        members.append(cell)
                if not members:
                    continue
                if scheme != "none" and stats is None:
                    stats = _fit_stats(corpus, train_idx, min_count)
                if scheme in CATEGORY_SCHEMES:
                    while count_pending(CATEGORY_SCHEMES) > 1:
                        settle()  # one category matrix trains, one is built
                try:  # the stats failure, table, matrix and scaler fail alike
                    X = fit_pair(
                        corpus, view, scheme, train_idx, alpha=alpha, min_count=min_count,
                        standardize=standardize, stats=stats,
                        features=none_matrix[rows] if scheme == "none" else None,
                    )[1]
                except Exception as exc:
                    exc = exc.with_traceback(None)  # its frames would stay alive
                    for cell in members:
                        outcomes[cell][p] = exc
                    continue
                pending.append((p, scheme, {
                    cell: submit(score_cell, cell[1], X, n_train, y_train, y_test)
                    for cell in members
                }))
                del X  # the matrix lives only as long as its batch trains
        while pending:
            settle()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return outcomes


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
    outcomes = _fit_and_score(corpus, pairs, schemes, embedding, [classifier], train_config,
                              alpha=alpha, standardize=standardize, min_count=min_count)
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
    min_count: int = 1,
    jobs: int | None = None,
) -> dict[tuple[str, str, str], EvalReport | Exception]:
    """Cross-validate the full scheme x classifier grid over one embedding.

    Runs fold-major (see the module docstring), training ``jobs`` cells
    at once; None, the default, means the CPUs this process may use
    divided by the threads each BLAS call may start.
    A failing cell's result is the exception of the first fold it failed
    in; the cell is skipped in later folds and the rest of the grid
    still runs.  Cell results do not depend on execution order or on
    ``jobs``.  Results are keyed by ``(scheme, embedding.origin,
    classifier)``; to compare embeddings, call once per embedding and
    merge the dicts.
    """
    pairs = [
        (plan.train_indices(fold), plan.fold_indices(fold), f"fold {fold} training split")
        for fold in range(plan.num_folds)
    ]
    train_sizes = tuple(len(train_idx) for train_idx, _, _ in pairs)
    n_classes = len(corpus.categories)
    outcomes = _fit_and_score(corpus, pairs, schemes, embedding, classifiers, train_config,
                              alpha=alpha, standardize=standardize, min_count=min_count,
                              jobs=jobs, skip_failed=True)
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
