"""Tests for macro-F1 metrics, cross-validation, curves, and grids."""

from __future__ import annotations

import hashlib
import io
import json
import sys

import numpy as np
import pytest

from catweight import (
    CurvePoint,
    EvalReport,
    TrainConfig,
    TrainingError,
    build_stats,
    build_table,
    cross_validate,
    from_token_lists,
    grid_run,
    learning_curve,
    macro_f1,
    make_splits,
    separable_corpus,
    synthetic_model,
    table_payload,
    write_curve_csv,
    write_results_csv,
)
from catweight import classify, evaluation
from catweight.classify import predict_many, train_logreg
from catweight.vectorize import CorpusVectorizer

from oracles import oracle_macro_f1

FAST = TrainConfig(epochs=40, seed=0)
SCHEMES = ["none", "tfidf", "kld", "tftrr", "tfcr"]


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call is counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _vocab(corpus):
    words = set()
    for doc in corpus.documents:
        words.update(doc.tokens)
    return sorted(words)


def _small_corpus(num_docs=90, num_categories=3, seed=5):
    return separable_corpus(
        num_docs=num_docs,
        num_categories=num_categories,
        keywords_per_category=5,
        shared_vocab_size=40,
        doc_length=12,
        seed=seed,
    )


@pytest.fixture(scope="module")
def eval_corpus():
    return _small_corpus()


@pytest.fixture(scope="module")
def eval_model(eval_corpus):
    return synthetic_model(_vocab(eval_corpus), 8, seed=3)


class TestMacroF1:
    def test_hand_example(self):
        # gold (0,0,1,1) vs pred (0,1,1,1):
        #   class 0: P=1, R=1/2 -> F1=2/3; class 1: P=2/3, R=1 -> F1=4/5
        report = macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert report.per_class[0].f1 == pytest.approx(2 / 3, abs=1e-12)
        assert report.per_class[1].f1 == pytest.approx(0.8, abs=1e-12)
        assert report.macro_f1 == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-12)
        assert report.accuracy == pytest.approx(0.75, abs=1e-12)

    def test_confusion_layout(self):
        report = macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2)
        expected = np.array([[1, 1], [0, 2]], dtype=np.int64)
        assert np.array_equal(report.confusion, expected)
        assert report.confusion.sum() == 4

    def test_never_predicted_class_scores_zero(self):
        report = macro_f1([0, 1, 1], [0, 1, 2], 3)
        assert report.per_class[2].precision == 0.0
        assert report.per_class[2].recall == 0.0
        assert report.per_class[2].f1 == 0.0

    def test_class_absent_everywhere_still_counts(self):
        # Class 2 appears in neither gold nor predictions but the macro
        # average still divides by all three classes.
        report = macro_f1([0, 1], [0, 1], 3)
        assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert report.per_class[2].support == 0

    def test_perfect_predictions(self):
        report = macro_f1([2, 0, 1, 2], [2, 0, 1, 2], 3)
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_metrics_recomputable_from_confusion(self, rng):
        gold = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 4, size=60)
        report = macro_f1(pred, gold, 4)
        cm = report.confusion
        for c, metrics in enumerate(report.per_class):
            tp = cm[c, c]
            col = cm[:, c].sum()
            row = cm[c, :].sum()
            precision = tp / col if col else 0.0
            recall = tp / row if row else 0.0
            assert metrics.precision == pytest.approx(precision, abs=1e-12)
            assert metrics.recall == pytest.approx(recall, abs=1e-12)
        assert report.accuracy == pytest.approx(np.trace(cm) / cm.sum(), abs=1e-12)

    def test_matches_oracle_on_random_draws(self, rng):
        for _ in range(50):
            n_classes = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            gold = rng.integers(0, n_classes, size=n)
            pred = rng.integers(0, n_classes, size=n)
            report = macro_f1(pred, gold, n_classes)
            assert report.macro_f1 == pytest.approx(
                oracle_macro_f1(pred, gold, n_classes), abs=1e-12
            )

    def test_category_names(self):
        report = macro_f1([0, 1], [0, 1], 2, categories=("sport", "money"))
        assert report.per_class[0].category == "sport"
        assert report.per_class[1].category == "money"
        unnamed = macro_f1([0, 1], [0, 1], 2)
        assert unnamed.per_class[1].category == "1"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            macro_f1([0, 1], [0, 1, 1], 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            macro_f1([0, 2], [0, 1], 2)
        with pytest.raises(ValueError, match="out of range"):
            macro_f1([0, 1], [0, -1], 2)

    def test_mean_macro_f1_falls_back_to_pooled(self):
        report = macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert report.fold_scores == ()
        assert report.mean_macro_f1 == report.macro_f1


class TestCrossValidate:
    def test_report_shape(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        report = cross_validate(
            eval_corpus, plan, "tfcr", eval_model, "logreg", FAST
        )
        assert isinstance(report, EvalReport)
        assert len(report.fold_scores) == 5
        assert len(report.fold_accuracies) == 5
        assert len(report.fold_train_sizes) == 5
        # Every document is tested exactly once across the folds.
        assert report.confusion.sum() == len(eval_corpus)
        for size in report.fold_train_sizes:
            assert size == len(eval_corpus) - 18

    def test_mean_equals_fold_mean(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        report = cross_validate(
            eval_corpus, plan, "kld", eval_model, "logreg", FAST
        )
        assert report.mean_macro_f1 == pytest.approx(
            float(np.mean(report.fold_scores)), abs=1e-12
        )

    def test_deterministic(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        first = cross_validate(
            eval_corpus, plan, "tfcr", eval_model, "svm", FAST, standardize=True
        )
        second = cross_validate(
            eval_corpus, plan, "tfcr", eval_model, "svm", FAST, standardize=True
        )
        assert first.fold_scores == second.fold_scores
        assert first.fold_accuracies == second.fold_accuracies
        assert np.array_equal(first.confusion, second.confusion)
        assert first.fold_train_sizes == second.fold_train_sizes

    def test_svm_separates_with_the_default_step(self):
        # The first SVM step is the learning rate; the plain Pegasos step
        # 1/(l2*t) starts at 1/l2 and leaves tfcr/svm near 0.74 here.
        corpus = separable_corpus(num_docs=400, seed=0)
        model = synthetic_model(_vocab(corpus), 16, seed=1)
        plan = make_splits(corpus, k=4, seed=0)
        grid = grid_run(
            corpus, ["none", "tfcr"], model, ["svm"], plan,
            TrainConfig(epochs=10, seed=0), standardize=True,
        )
        tfcr = grid["tfcr", model.origin, "svm"].mean_macro_f1
        assert tfcr >= 0.9
        assert tfcr > grid["none", model.origin, "svm"].mean_macro_f1

    def test_unknown_scheme_and_classifier(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        with pytest.raises(ValueError, match="tfcr"):
            cross_validate(eval_corpus, plan, "bogus", eval_model, "logreg", FAST)
        with pytest.raises(ValueError, match="logreg, svm"):
            cross_validate(eval_corpus, plan, "tfcr", eval_model, "forest", FAST)

    def test_missing_class_in_fold_names_stratification(self, eval_model):
        # One lonely category-C document: whichever fold holds it leaves
        # the complementary training split without any C examples.
        tokens = (
            [["cat0kw00", "common001"]] * 9
            + [["cat1kw00", "common002"]] * 9
            + [["cat2kw00", "common003"]]
        )
        labels = [0] * 9 + [1] * 9 + [2]
        corpus = from_token_lists(tokens, labels, ["A", "B", "C"])
        plan = make_splits(corpus, k=2, seed=0)
        model = synthetic_model(_vocab(corpus), 4, seed=1)
        with pytest.raises(TrainingError, match="use stratified folds"):
            cross_validate(corpus, plan, "none", model, "logreg", FAST)
        # The check is a logreg precondition; one-vs-rest SVM training
        # copes with a class that never appears (all-negative targets).
        report = cross_validate(corpus, plan, "none", model, "svm", FAST)
        assert isinstance(report, EvalReport)

    @pytest.mark.parametrize("scheme", ["none", "tfidf", "kld", "tftrr", "tfcr"])
    def test_test_fold_isolation(self, scheme, eval_corpus, eval_model):
        # Rewriting a test-fold document must not change the fold's
        # weight table (checksum) or the trained model: both depend on
        # the training folds alone.
        plan = make_splits(eval_corpus, k=5, seed=1)
        fold0 = plan.fold_indices(0)
        train_idx = plan.train_indices(0)
        tokens = [list(d.tokens) for d in eval_corpus.documents]
        labels = [d.label for d in eval_corpus.documents]
        tokens[fold0[0]] = ["rogue", "tokens", "only"]
        altered = from_token_lists(tokens, labels, list(eval_corpus.categories))

        def table_checksum(corpus):
            stats = build_stats(corpus, doc_subset=train_idx)
            payload = table_payload(build_table(stats, scheme))
            return hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()
            ).hexdigest()

        assert table_checksum(eval_corpus) == table_checksum(altered)

        def fold_model(corpus):
            stats = build_stats(corpus, doc_subset=train_idx)
            table = build_table(stats, scheme)
            vec = CorpusVectorizer(corpus.documents, eval_model)
            X = vec.matrix(table)
            return train_logreg(
                X[train_idx], corpus.labels()[train_idx], FAST, num_classes=3
            )

        before, after = fold_model(eval_corpus), fold_model(altered)
        assert np.array_equal(before.W, after.W)
        assert np.array_equal(before.b, after.b)

    @pytest.mark.parametrize("scheme", ["none", "tfidf", "kld", "tftrr", "tfcr"])
    def test_train_on_self_at_least_as_good_as_heldout(
        self, scheme, eval_corpus, eval_model
    ):
        plan = make_splits(eval_corpus, k=5, seed=1)
        train_idx, test_idx = plan.train_indices(0), plan.fold_indices(0)
        stats = build_stats(eval_corpus, doc_subset=train_idx)
        table = build_table(stats, scheme) if scheme != "none" else None
        if table is None:
            from catweight.weighting import WeightTable

            table = WeightTable(scheme="none", categories=eval_corpus.categories)
        vec = CorpusVectorizer(eval_corpus.documents, eval_model)
        X = vec.matrix(table)
        labels = eval_corpus.labels()
        model = train_logreg(X[train_idx], labels[train_idx], FAST, num_classes=3)
        pred_train, _ = predict_many(model, X[train_idx])
        pred_test, _ = predict_many(model, X[test_idx])
        f1_train = macro_f1(pred_train, labels[train_idx], 3).macro_f1
        f1_test = macro_f1(pred_test, labels[test_idx], 3).macro_f1
        assert f1_train >= f1_test - 1e-12


class TestLearningCurve:
    def test_point_sizes_follow_ladder(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, ladder=(20, 40), seed=2)
        points = learning_curve(
            eval_corpus, plan, ["none", "tfcr"], eval_model, "logreg", FAST
        )
        assert [p.training_size for p in points] == [20, 40]
        for point in points:
            assert set(point.scores) == {"none", "tfcr"}
            for score in point.scores.values():
                assert 0.0 <= score <= 1.0

    def test_scheme_scores_independent_of_companions(self, eval_corpus, eval_model):
        # A scheme's curve must not depend on what else ran alongside it.
        plan = make_splits(eval_corpus, k=5, ladder=(20, 40), seed=2)
        alone = learning_curve(
            eval_corpus, plan, ["none"], eval_model, "logreg", FAST
        )
        grouped = learning_curve(
            eval_corpus, plan, ["tfcr", "none", "kld"], eval_model, "logreg", FAST
        )
        for solo, multi in zip(alone, grouped):
            assert solo.scores["none"] == multi.scores["none"]

    def test_tfcr_improves_with_more_data(self):
        corpus = separable_corpus(
            num_docs=240,
            num_categories=3,
            keywords_per_category=8,
            shared_vocab_size=120,
            doc_length=16,
            seed=11,
        )
        model = synthetic_model(_vocab(corpus), 8, seed=7)
        plan = make_splits(corpus, k=10, ladder=(24, 160), seed=3)
        points = learning_curve(
            corpus, plan, ["tfcr"], model, "logreg", FAST, standardize=True
        )
        assert points[-1].scores["tfcr"] >= points[0].scores["tfcr"]

    def test_unknown_scheme_rejected(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, ladder=(20,), seed=2)
        with pytest.raises(ValueError, match="valid:"):
            learning_curve(
                eval_corpus, plan, ["tfcr", "nope"], eval_model, "logreg", FAST
            )

    def test_deterministic(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, ladder=(20, 40), seed=2)
        runs = [
            learning_curve(eval_corpus, plan, ["kld"], eval_model, "logreg", FAST)
            for _ in range(2)
        ]
        assert [p.scores for p in runs[0]] == [p.scores for p in runs[1]]

    def test_one_stats_build_per_ladder_point(self, eval_corpus, eval_model, monkeypatch):
        plan = make_splits(eval_corpus, k=5, ladder=(20, 40, 60), seed=2)
        for schemes in (["tfcr"], SCHEMES):
            builds = _count_calls(monkeypatch, evaluation, "build_stats")
            learning_curve(eval_corpus, plan, schemes, eval_model, "logreg", FAST)
            assert len(builds) == 3
            monkeypatch.undo()

    def test_no_stats_for_none_alone(self, eval_corpus, eval_model, monkeypatch):
        plan = make_splits(eval_corpus, k=5, ladder=(20, 40), seed=2)
        builds = _count_calls(monkeypatch, evaluation, "build_stats")
        learning_curve(eval_corpus, plan, ["none"], eval_model, "logreg", FAST)
        assert builds == []

    def test_first_failure_raises(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, ladder=(20, 40), seed=2)
        with pytest.raises(TrainingError, match="l2 > 0"):
            learning_curve(
                eval_corpus, plan, ["none", "tfcr"], eval_model, "svm",
                TrainConfig(epochs=5, l2=0.0),
            )


class TestGridRun:
    def test_degenerate_grid_equals_cross_validate(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        direct = cross_validate(
            eval_corpus, plan, "tfcr", eval_model, "logreg", FAST
        )
        grid = grid_run(
            eval_corpus, ["tfcr"], eval_model, ["logreg"], plan, FAST
        )
        assert set(grid) == {("tfcr", eval_model.origin, "logreg")}
        cell = grid["tfcr", eval_model.origin, "logreg"]
        assert cell.fold_scores == direct.fold_scores
        assert np.array_equal(cell.confusion, direct.confusion)
        assert cell.fold_train_sizes == direct.fold_train_sizes

    def test_cell_cardinality(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        schemes = ["none", "tfidf", "kld", "tftrr", "tfcr"]
        grid = grid_run(
            eval_corpus, schemes, eval_model, ["logreg", "svm"], plan, FAST
        )
        assert len(grid) == 10
        assert all(isinstance(cell, EvalReport) for cell in grid.values())

    def test_order_independence(self, eval_corpus, eval_model):
        plan = make_splits(eval_corpus, k=5, seed=1)
        forward = grid_run(
            eval_corpus, ["none", "tfcr"], eval_model, ["logreg"], plan, FAST
        )
        backward = grid_run(
            eval_corpus, ["tfcr", "none"], eval_model, ["logreg"], plan, FAST
        )
        for key, cell in forward.items():
            assert backward[key].fold_scores == cell.fold_scores

    def test_failed_cell_is_isolated(self, eval_corpus, eval_model):
        # l2 = 0 breaks the SVM's projection step but not logreg; the
        # grid must record the failures and keep the healthy cells.
        plan = make_splits(eval_corpus, k=5, seed=1)
        bad_svm = TrainConfig(epochs=10, l2=0.0)
        grid = grid_run(
            eval_corpus, ["none", "tfcr"], eval_model, ["logreg", "svm"],
            plan, bad_svm,
        )
        for (_, _, classifier), cell in grid.items():
            if classifier == "svm":
                assert isinstance(cell, TrainingError)
                assert "l2" in str(cell)
            else:
                assert isinstance(cell, EvalReport)

    def test_parallel_jobs_match_serial(self, eval_corpus, eval_model):
        # Every scheme, standardized: each thread's pair has its own view
        # of the counts and its own matrices, scaled in place.
        plan = make_splits(eval_corpus, k=5, seed=1)
        serial = grid_run(
            eval_corpus, SCHEMES, eval_model, ["logreg", "svm"],
            plan, FAST, standardize=True, jobs=1,
        )
        threaded = grid_run(
            eval_corpus, SCHEMES, eval_model, ["logreg", "svm"],
            plan, FAST, standardize=True, jobs=3,
        )
        assert len(serial) == len(SCHEMES) * 2
        for key, cell in serial.items():
            assert threaded[key].fold_scores == cell.fold_scores
            assert threaded[key].fold_accuracies == cell.fold_accuracies
            assert np.array_equal(threaded[key].confusion, cell.confusion)

    def test_fold_major_call_counts(self, eval_corpus, eval_model, monkeypatch):
        # Stats once per fold; the `none` matrix once, every other
        # scheme's matrix once per fold, shared by both classifiers.
        plan = make_splits(eval_corpus, k=5, seed=1)
        builds = _count_calls(monkeypatch, evaluation, "build_stats")
        matrices = _count_calls(monkeypatch, CorpusVectorizer, "matrix")
        grid = grid_run(
            eval_corpus, SCHEMES, eval_model, ["logreg", "svm"], plan, FAST,
            standardize=True,
        )
        assert len(builds) == 5
        assert len(matrices) == 1 + 4 * 5
        monkeypatch.undo()
        assert len(grid) == 10
        for (scheme, _, classifier), cell in grid.items():
            alone = cross_validate(
                eval_corpus, plan, scheme, eval_model, classifier, FAST,
                standardize=True,
            )
            assert cell.fold_scores == alone.fold_scores
            assert np.array_equal(cell.confusion, alone.confusion)
            assert cell.fold_train_sizes == alone.fold_train_sizes

    def test_failed_cell_keeps_message_and_is_skipped(
        self, eval_corpus, eval_model, monkeypatch
    ):
        plan = make_splits(eval_corpus, k=5, seed=1)
        trained = _count_calls(monkeypatch, classify, "train_svm")
        grid = grid_run(
            eval_corpus, ["tfcr"], eval_model, ["logreg", "svm"], plan,
            TrainConfig(epochs=5, l2=0.0),
        )
        failure = grid["tfcr", eval_model.origin, "svm"]
        assert isinstance(failure, TrainingError)
        assert str(failure) == "svm training requires l2 > 0 for the Pegasos step"
        assert len(trained) == 1  # failed in fold 0, skipped in folds 1-4
        assert len(grid["tfcr", eval_model.origin, "logreg"].fold_scores) == 5

    def test_failing_table_fails_only_its_scheme(
        self, eval_corpus, eval_model, monkeypatch
    ):
        # kld's table breaks in fold 2: its cells fail with that fold's
        # error, are not rebuilt in later folds, and nothing else changes.
        plan = make_splits(eval_corpus, k=5, seed=1)
        healthy = grid_run(
            eval_corpus, ["none", "kld", "tfcr"], eval_model,
            ["logreg", "svm"], plan, FAST,
        )
        kld_calls = []

        def flaky_build_table(stats, scheme, **kwargs):
            if scheme == "kld":
                kld_calls.append(stats)
                if len(kld_calls) == 3:
                    raise ValueError("kld broke in fold 2")
            return build_table(stats, scheme, **kwargs)

        monkeypatch.setattr(evaluation, "build_table", flaky_build_table)
        grid = grid_run(
            eval_corpus, ["none", "kld", "tfcr"], eval_model,
            ["logreg", "svm"], plan, FAST,
        )
        assert len(kld_calls) == 3
        assert list(grid) == list(healthy)
        for key, cell in grid.items():
            if key[0] == "kld":
                assert isinstance(cell, ValueError)
                assert str(cell) == "kld broke in fold 2"
            else:
                assert cell.fold_scores == healthy[key].fold_scores

    def test_failing_stats_spare_the_none_cells(
        self, eval_corpus, eval_model, monkeypatch
    ):
        def broken_stats(*args, **kwargs):
            raise MemoryError("no room for stats")

        monkeypatch.setattr(evaluation, "build_stats", broken_stats)
        plan = make_splits(eval_corpus, k=5, seed=1)
        grid = grid_run(
            eval_corpus, ["none", "tfcr"], eval_model, ["logreg"], plan, FAST
        )
        assert isinstance(grid["none", eval_model.origin, "logreg"], EvalReport)
        failure = grid["tfcr", eval_model.origin, "logreg"]
        assert isinstance(failure, MemoryError)
        assert str(failure) == "no room for stats"

    def test_parallel_jobs_keep_first_fold_failure(
        self, eval_corpus, eval_model, monkeypatch
    ):
        # More threads than cores and frequent switches: the shared `none`
        # matrix is still built once and each failure keeps fold 0's error.
        plan = make_splits(eval_corpus, k=8, seed=1)
        args = (eval_corpus, ["none", "tfcr"], eval_model, ["logreg", "svm"],
                plan, TrainConfig(epochs=5, l2=0.0))
        serial = grid_run(*args, jobs=1)
        matrices = _count_calls(monkeypatch, CorpusVectorizer, "matrix")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = grid_run(*args, jobs=6)
        finally:
            sys.setswitchinterval(interval)
        none_builds = [a for a in matrices if a[1].scheme == "none"]
        assert len(none_builds) == 1
        assert list(threaded) == list(serial)
        for key, cell in serial.items():
            if isinstance(cell, Exception):
                assert type(threaded[key]) is type(cell)
                assert threaded[key].args == cell.args
            else:
                assert threaded[key].fold_scores == cell.fold_scores


class TestResultsCsv:
    def _report(self):
        return EvalReport(
            per_class=(),
            macro_f1=0.5,
            accuracy=0.625,
            confusion=np.zeros((2, 2), dtype=np.int64),
            fold_scores=(0.25, 0.75),
            fold_accuracies=(0.5, 0.75),
            fold_train_sizes=(8, 8),
        )

    def test_layout_and_float_round_trip(self):
        results = {("tfcr", "emb.txt", "logreg"): self._report()}
        buffer = io.StringIO()
        write_results_csv(results, buffer, dataset="toy")
        lines = buffer.getvalue().splitlines()
        assert lines[0] == (
            "dataset,scheme,embedding,classifier,train_size,fold,macro_f1,accuracy"
        )
        assert lines[1].split(",")[:6] == ["toy", "tfcr", "emb.txt", "logreg", "8", "0"]
        assert len(lines) == 1 + 2 + 1  # header, two folds, mean
        mean_row = lines[-1].split(",")
        assert mean_row[4:6] == ["8", "mean"]
        # repr() floats survive the round trip exactly.
        assert float(mean_row[6]) == 0.5
        assert float(lines[1].split(",")[6]) == 0.25

    def test_report_without_folds_writes_pooled_mean_row(self, recwarn):
        report = macro_f1([0, 1, 1, 0], [0, 1, 0, 0], 2)
        buffer = io.StringIO()
        write_results_csv({("tfcr", "emb.txt", "logreg"): report}, buffer, dataset="toy")
        rows = buffer.getvalue().splitlines()
        assert rows[1:] == [
            f"toy,tfcr,emb.txt,logreg,,mean,{report.macro_f1!r},{report.accuracy!r}"
        ]
        assert report.accuracy == 0.75
        assert not recwarn.list

    def test_failed_cell_row(self):
        results = {
            ("tfcr", "emb.txt", "svm"): TrainingError("l2"),
        }
        buffer = io.StringIO()
        write_results_csv(results, buffer)
        rows = buffer.getvalue().splitlines()
        assert len(rows) == 2
        cells = rows[1].split(",")
        assert cells[5] == "failed"
        assert cells[6] == "TrainingError: l2"

    def test_mixed_results_keep_going(self):
        results = {
            ("none", "emb.txt", "logreg"): self._report(),
            ("tfcr", "emb.txt", "svm"): RuntimeError("boom"),
        }
        buffer = io.StringIO()
        write_results_csv(results, buffer)
        body = buffer.getvalue()
        assert "failed" in body
        assert "mean" in body


class TestCurveCsv:
    def test_layout_and_round_trip(self):
        points = [
            CurvePoint(training_size=10, scores={"none": 0.5, "tfcr": 0.125}),
            CurvePoint(training_size=20, scores={"none": 0.75, "tfcr": 1.0}),
        ]
        buffer = io.StringIO()
        write_curve_csv(points, ["none", "tfcr"], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "train_size,none,tfcr"
        assert lines[1].split(",")[0] == "10"
        assert float(lines[1].split(",")[2]) == 0.125
        assert float(lines[2].split(",")[1]) == 0.75

    def test_column_order_follows_argument(self):
        points = [CurvePoint(training_size=5, scores={"a": 0.1, "b": 0.2})]
        buffer = io.StringIO()
        write_curve_csv(points, ["b", "a"], buffer)
        assert buffer.getvalue().splitlines()[0] == "train_size,b,a"
