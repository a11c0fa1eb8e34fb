from __future__ import annotations

import hashlib
import io
import math
import os
import struct
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catweight import (
    SCHEMES,
    CorpusVectorizer,
    LinearModel,
    ModelFormatError,
    SavedModel,
    ScalerParams,
    TrainConfig,
    TrainingError,
    build_stats,
    build_table,
    decision_scores,
    for_terms,
    from_token_lists,
    load_model,
    logreg_gradient,
    predict_many,
    save_model,
    separable_corpus,
    svm_objective,
    svm_subgradient,
    synthetic_model,
    train_logreg,
    train_svm,
)
from catweight import classify
from catweight.classify import (
    CheckedRows,
    ModelFile,
    SortedWords,
    _logreg_objective,
)
from catweight.embeddings import EmbeddingModel
from oracles import oracle_block_crcs, oracle_matrix_member, oracle_member


def _finite_difference(objective, W, b, h=1e-6):
    """Central-difference gradient of objective(W, b)."""
    grad_W = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            up, down = W.copy(), W.copy()
            up[i, j] += h
            down[i, j] -= h
            grad_W[i, j] = (objective(up, b) - objective(down, b)) / (2 * h)
    grad_b = np.zeros_like(b)
    for i in range(b.size):
        up, down = b.copy(), b.copy()
        up[i] += h
        down[i] -= h
        grad_b[i] = (objective(W, up) - objective(W, down)) / (2 * h)
    return grad_W, grad_b


def _max_rel_error(analytic, numeric):
    scale = np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestGradients:
    def test_logreg_gradient_matches_finite_differences(self, rng):
        X = rng.normal(size=(5, 4))
        y = np.array([0, 1, 2, 1, 0])
        W = rng.normal(scale=0.5, size=(3, 4))
        b = rng.normal(scale=0.5, size=3)
        l2 = 0.01
        grad_W, grad_b = logreg_gradient(X, y, W, b, l2)
        fd_W, fd_b = _finite_difference(
            lambda w, bb: _logreg_objective(X, y, w, bb, l2), W, b
        )
        assert _max_rel_error(grad_W, fd_W) < 1e-5
        assert _max_rel_error(grad_b, fd_b) < 1e-5

    def test_svm_subgradient_matches_finite_differences_off_kinks(self, rng):
        X = rng.normal(size=(6, 3))
        y = np.array([0, 1, 2, 0, 1, 2])
        W = rng.normal(scale=0.7, size=(3, 3))
        b = rng.normal(scale=0.7, size=3)
        l2 = 0.05
        margins = X @ W.T + b
        signs = np.full_like(margins, -1.0)
        signs[np.arange(6), y] = 1.0
        # The hinge is non-differentiable where sign * margin == 1; keep
        # the evaluation point well away so central differences are valid.
        assert np.min(np.abs(1.0 - signs * margins)) > 1e-3
        grad_W, grad_b = svm_subgradient(X, y, W, b, l2)
        fd_W, fd_b = _finite_difference(
            lambda w, bb: svm_objective(X, y, w, bb, l2), W, b
        )
        assert _max_rel_error(grad_W, fd_W) < 1e-5
        assert _max_rel_error(grad_b, fd_b) < 1e-5


class TestTrainLogreg:
    def test_separable_two_points(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        model = train_logreg(X, y, TrainConfig(epochs=200, seed=0))
        labels, _ = predict_many(model, X)
        assert labels.tolist() == [0, 1]

    def test_separable_minibatch_path(self, rng):
        X = np.vstack([rng.normal(3, 0.3, (30, 2)), rng.normal(-3, 0.3, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        model = train_logreg(X, y, TrainConfig(epochs=60, batch_size=8, seed=1))
        labels, _ = predict_many(model, X)
        assert np.array_equal(labels, y)

    def test_all_zero_features_learn_priors(self):
        X = np.zeros((9, 3))
        y = np.array([0] * 6 + [1] * 3)
        model = train_logreg(
            X, y, TrainConfig(epochs=500, tolerance=0.0, seed=0)
        )
        _, probs = predict_many(model, np.zeros((1, 3)))
        assert probs[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-3)

    def test_full_batch_objective_monotone(self, rng):
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        model = train_logreg(
            X, y, TrainConfig(epochs=50, batch_size=64, tolerance=0.0, seed=2)
        )
        log = np.array(model.training_log)
        assert np.all(np.diff(log) <= 0.0)

    def test_tolerance_stops_early(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        loose = train_logreg(X, y, TrainConfig(epochs=500, tolerance=1e-3, seed=3))
        assert len(loose.training_log) < 501

    def test_seeded_determinism_bit_identical(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        cfg = TrainConfig(epochs=20, batch_size=16, seed=7)
        a = train_logreg(X, y, cfg)
        b = train_logreg(X, y, cfg)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
        assert a.training_log == b.training_log

    def test_shift_invariance_of_predictions(self, rng):
        X = rng.normal(size=(10, 4))
        base = LinearModel(
            kind="logreg", W=rng.normal(size=(3, 4)), b=rng.normal(size=3)
        )
        shift_vec = rng.normal(size=4)
        shifted = LinearModel(
            kind="logreg", W=base.W + shift_vec, b=base.b + 2.5
        )
        p_base = decision_scores(base, X)
        p_shift = decision_scores(shifted, X)
        np.testing.assert_allclose(p_base, p_shift, rtol=0, atol=1e-12)

    def test_error_cases(self, rng):
        with pytest.raises(TrainingError, match="2 distinct"):
            train_logreg(np.ones((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(TrainingError, match="row 1"):
            train_logreg(
                np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]),
                np.array([0, 1, 0]),
            )
        with pytest.raises(TrainingError, match="shape"):
            train_logreg(np.ones((3, 2)), np.array([0, 1]))
        with pytest.raises(TrainingError, match="2-D"):
            train_logreg(np.ones(3), np.array([0, 1, 0]))
        with pytest.raises(TrainingError, match="negative"):
            train_logreg(np.ones((2, 2)), np.array([-1, 0]))
        with pytest.raises(TrainingError, match="out of range"):
            train_logreg(np.ones((2, 2)), np.array([0, 5]), num_classes=2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(l2=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(tolerance=-1e-9)

    @pytest.mark.parametrize("name", ["learning_rate", "decay", "l2", "tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


class TestTrainSvm:
    def test_separable_two_points(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        model = train_svm(X, y, TrainConfig(epochs=200, l2=0.1, seed=0))
        labels, _ = predict_many(model, X)
        assert labels.tolist() == [0, 1]

    def test_separable_clusters(self, rng):
        X = np.vstack([rng.normal(2, 0.2, (25, 3)), rng.normal(-2, 0.2, (25, 3))])
        y = np.array([0] * 25 + [1] * 25)
        model = train_svm(X, y, TrainConfig(epochs=100, l2=0.01, seed=1))
        labels, _ = predict_many(model, X)
        assert np.array_equal(labels, y)

    def test_symmetric_two_point_margins(self):
        x = np.array([0.8, -0.6])
        X = np.vstack([x, -x])
        y = np.array([0, 1])
        model = train_svm(X, y, TrainConfig(epochs=300, l2=0.05, seed=0))
        scores = decision_scores(model, X)
        assert abs(scores[0, 0]) == pytest.approx(abs(scores[1, 1]), abs=1e-6)
        assert abs(scores[0, 1]) == pytest.approx(abs(scores[1, 0]), abs=1e-6)

    def test_objective_near_grid_search_optimum(self, rng):
        X = rng.normal(size=(20, 1))
        y = (X[:, 0] > 0.2).astype(int)
        y[:2] = [0, 1]  # both classes guaranteed
        l2 = 0.5
        model = train_svm(
            X, y, TrainConfig(epochs=4000, batch_size=64, l2=l2, tolerance=0.0, seed=4)
        )
        trained = svm_objective(X, y, model.W, model.b, l2)

        # Independent fine grid over (w, b) per class; the OvR objective
        # separates across classes, so the global optimum is the sum.
        grid = np.arange(-2.0, 2.0 + 1e-9, 0.01)
        best_total = 0.0
        for c in (0, 1):
            signs = np.where(y == c, 1.0, -1.0)
            margins = (
                grid[:, None, None] * X[:, 0][None, None, :]
                + grid[None, :, None]
            )
            hinge = np.maximum(0.0, 1.0 - signs * margins).mean(axis=2)
            reg = 0.5 * l2 * (grid[:, None] ** 2 + grid[None, :] ** 2)
            best_total += float(np.min(hinge + reg))
        assert trained <= best_total * 1.01

    def test_zero_l2_rejected(self):
        with pytest.raises(TrainingError, match="l2"):
            train_svm(np.ones((4, 2)), np.array([0, 1, 0, 1]), TrainConfig(l2=0.0))

    def test_seeded_determinism(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        cfg = TrainConfig(epochs=15, batch_size=8, l2=0.01, seed=5)
        a = train_svm(X, y, cfg)
        b = train_svm(X, y, cfg)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)

    def test_weights_stay_in_pegasos_ball(self, rng):
        X = rng.normal(size=(40, 4)) * 10
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        l2 = 0.2
        model = train_svm(X, y, TrainConfig(epochs=30, l2=l2, seed=6))
        norms = np.sqrt(np.sum(model.W**2, axis=1) + model.b**2)
        assert np.all(norms <= 1.0 / math.sqrt(l2) + 1e-9)


class TestStopReason:
    @pytest.fixture(scope="class")
    def features(self):
        corpus = separable_corpus(num_docs=200, seed=3)
        embedding = synthetic_model(corpus.token_counts().terms, 16, seed=4)
        table = build_table(build_stats(corpus), "tfcr")
        return CorpusVectorizer(corpus.documents, embedding).matrix(table), corpus.labels()

    @pytest.mark.parametrize("train_fn", [train_logreg, train_svm])
    def test_loose_tolerance_reports_tolerance(self, features, train_fn):
        model = train_fn(*features, TrainConfig(epochs=100, tolerance=0.5))
        assert model.stop_reason == "tolerance"
        assert len(model.training_log) < 101

    @pytest.mark.parametrize("train_fn", [train_logreg, train_svm])
    def test_default_five_epoch_fit_reports_epochs(self, features, train_fn):
        model = train_fn(*features, TrainConfig(epochs=5))
        assert model.stop_reason == "epochs"
        assert len(model.training_log) == 6


def _trajectory_data(seed, n, f, c):
    X = np.random.default_rng(seed).normal(size=(n, f))
    return X, np.arange(n) % c


def _trajectory_digest(model):
    h = hashlib.sha256()
    for a in (model.W, model.b, np.array(model.training_log)):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


FULL_BATCH = TrainConfig(epochs=20, learning_rate=5.0, batch_size=64, tolerance=0.0, seed=0)


class TestTrajectories:
    # Digests of W, b and training_log recorded from the two trainers
    # before they shared one descent loop (numpy 2.4, OpenBLAS 0.3.31,
    # x86-64); the svm one since its step got the offset t0 =
    # 1/(l2*learning_rate).  Another BLAS or SIMD path may round differently.
    @pytest.mark.parametrize("train_fn, data, config, epochs, digest", [
        pytest.param(
            train_logreg, (1, 60, 5, 3), TrainConfig(epochs=15, batch_size=8, seed=1), 15,
            "5239a784219ebf88cc44c0c2b816ed661d70779eb30ad976ac5216e8581d080b",
            id="logreg-minibatch",
        ),
        pytest.param(
            train_logreg, (6, 40, 6, 3), FULL_BATCH, 20,
            "7ed44d9a3dfc9cb187f24856c881245597c143d7dbf3c22f6f5deab7a3ae22af",
            id="logreg-full-batch-backtracking",
        ),
        pytest.param(
            train_logreg, (2, 30, 4, 2),
            TrainConfig(epochs=200, batch_size=16, tolerance=1e-3, seed=2), 70,
            "242008b417629a752d3e8de2e5d0160b305d4e64404052d09fb79d8c382812a1",
            id="logreg-tolerance-stop",
        ),
        pytest.param(
            train_svm, (3, 60, 5, 3), TrainConfig(epochs=15, batch_size=8, l2=0.05, seed=3), 15,
            "912dc1f2c0b77fbc22c1007347779473aa84fc304423c57d7932b78d9a0a5270",
            id="svm",
        ),
    ])
    def test_trajectory_is_pinned(self, train_fn, data, config, epochs, digest):
        model = train_fn(*_trajectory_data(*data), config)
        assert len(model.training_log) == epochs + 1
        assert _trajectory_digest(model) == digest

    def test_full_batch_case_backtracks(self, monkeypatch):
        calls = []
        original = classify._logreg_objective

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(classify, "_logreg_objective", counted)
        train_logreg(*_trajectory_data(6, 40, 6, 3), FULL_BATCH)
        # The start, one try per step plus 8 halvings, one per epoch.
        assert len(calls) == 1 + (20 + 8) + 20


class TestPredict:
    def test_uniform_probabilities_and_tie_rule(self):
        model = LinearModel(kind="logreg", W=np.zeros((3, 2)), b=np.zeros(3))
        labels, probs = predict_many(model, np.array([[4.0, -1.0]]))
        assert labels[0] == 0
        assert probs[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)

    def test_bias_dominates(self):
        model = LinearModel(
            kind="logreg", W=np.zeros((3, 2)), b=np.array([0.0, 5.0, 0.0])
        )
        labels, probs = predict_many(model, np.zeros((1, 2)))
        assert labels[0] == 1
        expected = math.exp(5) / (math.exp(5) + 2)
        assert probs[0, 1] == pytest.approx(expected, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.9867, abs=1e-4)

    def test_probabilities_sum_to_one(self, rng):
        model = LinearModel(
            kind="logreg", W=rng.normal(size=(4, 3)), b=rng.normal(size=4)
        )
        _, probs = predict_many(model, rng.normal(size=(1, 3)) * 50)
        assert probs[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_tie_breaks_to_lowest_index(self):
        model = LinearModel(
            kind="svm", W=np.zeros((3, 2)), b=np.array([0.7, 0.7, 0.1])
        )
        labels, _ = predict_many(model, np.zeros((1, 2)))
        assert labels[0] == 0

    def test_svm_margin_scaling_keeps_label(self, rng):
        model = LinearModel(
            kind="svm", W=rng.normal(size=(3, 4)), b=rng.normal(size=3)
        )
        doubled = LinearModel(kind="svm", W=2 * model.W, b=2 * model.b)
        X = rng.normal(size=(20, 4))
        labels, _ = predict_many(model, X)
        labels2, _ = predict_many(doubled, X)
        assert np.array_equal(labels, labels2)

    def test_length_mismatch_rejected(self):
        model = LinearModel(kind="svm", W=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ValueError, match="feature length"):
            predict_many(model, np.zeros((1, 4)))


def _saved_model(corpus, embedding, scheme, kind="logreg", scaler=True, seed=0, min_count=1):
    table = build_table(build_stats(corpus, min_count=min_count), scheme)
    vec = CorpusVectorizer(corpus.documents, embedding)
    rng = np.random.default_rng(seed)
    n_classes, n_features = len(corpus.categories), vec.matrix(table).shape[1]
    params = None
    if scaler:
        params = ScalerParams(rng.normal(size=n_features), rng.random(n_features) + 0.5)
    model = LinearModel(kind, rng.normal(size=(n_classes, n_features)), rng.normal(size=n_classes))
    known = for_terms(embedding, corpus.token_counts().terms)
    return SavedModel(model, table, known, params, preserve_case=not scaler)


def _rewrite(path, **changes):
    """Re-save a model file's arrays with some replaced; None drops one.
    Unless ``block_crcs`` is among the changes, it is recomputed (by the
    oracle) wherever the new blocks still fit its shape, so a changed
    block meets its content checks, not its CRC-32."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, value in changes.items():
        if value is None:
            arrays.pop(name, None)
        else:
            arrays[name] = value
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    if "block_crcs" in changes or "block_crcs" not in arrays:
        return
    try:
        crcs = [oracle_block_crcs(path, _BLOCK, name) for name in classify._BLOCKED]
    except (KeyError, AssertionError, ValueError, struct.error):
        return  # a member the oracle cannot read: the reader refuses it first
    if all(len(row) == arrays["block_crcs"].shape[1] for row in crcs):
        arrays["block_crcs"] = np.array(crcs, dtype=np.uint32)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def _sorted_words(vocab):
    """The ``SortedWords`` of the words ``vocab``, in row order, held in memory."""
    array = np.array(vocab, dtype=str)
    order = np.argsort(array, kind="stable")
    return SortedWords(len(vocab), None, array[order], order)


_UNPICKLED = []


def _trip():
    _UNPICKLED.append(True)
    return "b"


class _Canary:
    def __reduce__(self):
        return (_trip, ())


class TestModelSerialization:
    @pytest.fixture
    def model_file(self, toy_corpus, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(_saved_model(toy_corpus, tiny_model, "tfcr"), path)
        return path

    def test_round_trip_bit_exact(self, toy_corpus, tiny_model, tmp_path):
        # The loaded table holds only the vocab terms (training terms the
        # embedding knew), so it is compared by the features it gives.
        docs = from_token_lists(
            [["win", "extra", "zzz", "game"], ["stock", "win", "win", "loan"], ["extra", "zzz"],
             ["goal", "bank", "bank", "rate", "ball"]],
            [0, 1, 0, 1], ["A", "B"],
        ).documents
        cases = [(s, k, k == "logreg", 1) for s in SCHEMES for k in ("logreg", "svm")]
        cases += [(s, "logreg", True, 2) for s in SCHEMES]
        for scheme, kind, scaler, min_count in cases:
            saved = _saved_model(toy_corpus, tiny_model, scheme, kind, scaler, min_count=min_count)
            path = tmp_path / f"{kind}.model"
            save_model(saved, path)
            loaded = load_model(path)
            assert loaded.model.kind == kind
            assert np.array_equal(loaded.model.W, saved.model.W)
            assert np.array_equal(loaded.model.b, saved.model.b)
            for name in ("scheme", "categories", "alpha"):
                assert getattr(loaded.table, name) == getattr(saved.table, name)
            expected = CorpusVectorizer(docs, saved.embedding).matrix(saved.table)
            got = CorpusVectorizer(docs, loaded.embedding).matrix(loaded.table)
            assert got.tobytes() == expected.tobytes(), (scheme, min_count)
            assert loaded.embedding.words == saved.embedding.words
            assert loaded.embedding.word_ids == saved.embedding.word_ids
            assert np.array_equal(loaded.embedding.vectors, saved.embedding.vectors)
            if scaler:
                assert np.array_equal(loaded.scaler.mean, saved.scaler.mean)
                assert np.array_equal(loaded.scaler.scale, saved.scaler.scale)
            else:
                assert loaded.scaler is None
            assert loaded.preserve_case == saved.preserve_case
            save_model(loaded, tmp_path / "again.model")
            assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    def test_table_keeps_only_vocab_terms(self, toy_corpus, tiny_model, tmp_path):
        # "bond" has no embedding row: its weights are not written.
        embedding = synthetic_model([w for w in tiny_model.words if w != "bond"], 8, seed=13)
        saved = _saved_model(toy_corpus, embedding, "tftrr", min_count=2)
        assert "bond" in saved.table.words
        save_model(saved, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        # The loaded table numbers its words by the vocabulary.
        assert loaded.table.terms is loaded.embedding.words
        # min_count 2 keeps win, game, team, market, stock, ..., not goal or ball
        assert set(loaded.table.words) == set(saved.table.words) - {"bond"}
        assert "goal" in loaded.embedding.word_ids and "goal" not in loaded.table.words
        loaded_rows, saved_rows = loaded.table.weights.toarray(), saved.table.weights.toarray()
        for row, word in enumerate(loaded.table.words):
            assert np.array_equal(loaded_rows[row], saved_rows[saved.table.words.index(word)])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(ModelFormatError, match="not a complete npz"):
            load_model(path)

    def test_format_1_file_says_retrain(self, tmp_path):
        path = tmp_path / "v1.model"
        path.write_bytes(b"CWLM" + struct.pack("<IBII", 1, 0, 2, 1) + b"\x00" * 24)
        with pytest.raises(ModelFormatError, match="retrain"):
            load_model(path)

    def test_format_2_file_says_retrain(self, model_file):
        # Format 2 held a dense table over words plus a separate term list.
        with np.load(model_file) as npz:
            vocab = npz["words"][np.argsort(npz["word_rows"])]
        newer = ("word_fences", "weight_fences", "block_crcs", "word_rows", "weight_keys",
                 "weight_values")
        _rewrite(
            model_file, format=np.int64(2), **dict.fromkeys(newer),
            words=vocab, terms=vocab, category_weights=np.zeros((len(vocab), 2)),
        )
        with pytest.raises(ModelFormatError, match="format-2 model file.*retrain"):
            load_model(model_file)

    def test_bad_version(self, model_file):
        _rewrite(model_file, format=np.int64(9))
        with pytest.raises(ModelFormatError, match="format 9"):
            load_model(model_file)

    def test_bad_kind(self, model_file):
        _rewrite(model_file, kind=np.int64(7))
        with pytest.raises(ModelFormatError, match="kind 7"):
            load_model(model_file)

    def test_truncated_payload(self, model_file):
        data = model_file.read_bytes()
        for cut in (len(data) // 3, len(data) // 2, len(data) - 8, len(data) - 1):
            model_file.write_bytes(data[:cut])
            with pytest.raises(ModelFormatError):
                load_model(model_file)

    def test_truncated_header(self, model_file):
        model_file.write_bytes(model_file.read_bytes()[:5])
        with pytest.raises(ModelFormatError):
            load_model(model_file)

    def test_trailing_garbage_rejected(self, model_file):
        model_file.write_bytes(model_file.read_bytes() + b"junk")
        with pytest.raises(ModelFormatError):
            load_model(model_file)

    def test_corrupt_array_data_rejected(self, model_file):
        data = bytearray(model_file.read_bytes())
        data[data.find(b"W.npy") + 200] ^= 0xFF  # inside W's values
        model_file.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="CRC"):
            load_model(model_file)

    def test_missing_array(self, model_file):
        _rewrite(model_file, weight_values=None)
        with pytest.raises(ModelFormatError, match=r"missing arrays \['weight_values'\]"):
            load_model(model_file)

    def test_unexpected_array(self, model_file):
        _rewrite(model_file, extra=np.zeros(1))
        with pytest.raises(ModelFormatError, match=r"unexpected arrays \['extra'\]"):
            load_model(model_file)

    def test_object_array_refused_not_unpickled(self, model_file):
        _rewrite(model_file, categories=np.array(["A", _Canary()], dtype=object))
        with pytest.raises(ModelFormatError, match="allow_pickle"):
            load_model(model_file)
        assert _UNPICKLED == []

    @pytest.mark.parametrize(
        "name, value",
        [
            ("W", np.zeros((2, 16), dtype=np.int64)),
            ("scheme", np.int64(4)),
            ("preserve_case", np.int64(0)),
            ("b", np.zeros((2, 1))),
            ("vectors", np.zeros((1, 8), dtype=np.int64)),
            ("vectors", np.zeros((1, 8), dtype=">f8")),
            ("block_crcs", np.zeros((5, 1))),
            ("word_rows", np.zeros(3)),
            ("weight_keys", np.zeros((2, 2), dtype=np.int64)),
            ("weight_keys", np.zeros(2, dtype=">i8")),
            ("words", np.array(["a"], dtype=">U1")),
            ("word_fences", np.zeros(1)),
            ("weight_fences", np.zeros(2, dtype=np.uint64)),
            ("alpha", np.float64(np.inf)),
        ],
    )
    def test_wrong_type_rejected(self, model_file, name, value):
        _rewrite(model_file, **{name: value})
        with pytest.raises(ModelFormatError, match=repr(name)):
            load_model(model_file)

    @pytest.mark.parametrize(
        "scheme, name, change",
        [
            ("tfcr", "W", lambda a: a[:, :-1]),
            ("tfcr", "W", lambda a: a[:-1]),
            ("tfcr", "b", lambda a: a[:-1]),
            ("tfcr", "scaler_mean", lambda a: a[:-1]),
            ("tfcr", "scaler_scale", lambda a: a[:-1]),
            ("tfcr", ("scaler_mean", "scaler_scale"), lambda a: a[:-1]),
            ("tfcr", "categories", lambda a: a[:-1]),
            ("tfcr", "words", lambda a: a[:-1]),
            ("tfcr", "words", lambda a: np.concatenate([a[:-1], a[:1]])),  # repeated word
            ("tfcr", "words", lambda a: a[::-1]),  # falling words
            ("tfcr", "vectors", lambda a: a[:, :-1]),
            ("tfcr", "vectors", lambda a: a[:-1]),
            ("tfcr", "block_crcs", lambda a: a[:, :-1]),
            ("tfcr", "block_crcs", lambda a: np.concatenate([a, a], axis=1)),
            ("tfcr", "block_crcs", lambda a: a[:-1]),
            ("tfcr", "word_fences", lambda a: a[:-1]),
            ("tfcr", "word_fences", lambda a: np.char.add(a, "z")),
            ("tfcr", "word_rows", lambda a: a[:-1]),
            ("tfcr", "word_rows", lambda a: a + 1),  # last row past the vocab
            ("tfcr", "word_rows", lambda a: a - 1),  # first row negative
            ("tfcr", "word_rows", lambda a: np.concatenate([a[:1], a[:-1]])),  # repeated row
            ("tfcr", "weight_fences", lambda a: a[:-1]),
            ("tfcr", "weight_fences", lambda a: np.concatenate([[1], a[1:]])),  # not from 0
            ("tfcr", "weight_fences", lambda a: a - 1),  # not to the entries' end
            ("tfcr", "weight_keys", lambda a: a + a.max() + 1),  # a row past its block
            ("tfcr", "weight_keys", lambda a: a - a.max() - 1),  # a negative row
            ("tfcr", "weight_keys", np.zeros_like),  # repeated within a row
            ("tfcr", "weight_keys", lambda a: a[::-1]),  # falling
            ("tfcr", "weight_keys", lambda a: a[:-1]),
            ("tfcr", "weight_values", lambda a: -a),
            ("tfcr", "weight_values", lambda a: 0.0 * a),
            ("tfcr", "weight_values", lambda a: np.where(a == a.max(), np.inf, a)),
            ("tfcr", "weight_values", lambda a: a[:-1]),
            ("tftrr", "alpha", lambda a: np.float64(0.5)),
            ("tfidf", "weight_values", lambda a: a[:-1]),
            ("tfidf", "weight_values", lambda a: -a - 1.0),
            ("tfidf", "weight_values", lambda a: a - np.inf),
            ("tfidf", "W", lambda a: np.zeros((2, 16))),
            ("tfidf", "weight_keys", lambda a: 2 * a + 1),  # rows past the block
            ("none", "weight_keys", lambda a: np.array([0])),
            ("none", "weight_values", lambda a: np.ones(1)),
        ],
    )
    def test_inconsistent_shapes_rejected(
        self, scheme, name, change, toy_corpus, tiny_model, tmp_path
    ):
        path = tmp_path / "model.bin"
        save_model(_saved_model(toy_corpus, tiny_model, scheme), path)
        names = (name,) if isinstance(name, str) else name
        with np.load(path) as npz:
            changes = {n: change(npz[n]) for n in names}
        _rewrite(path, **changes)
        with pytest.raises(ModelFormatError, match="inconsistent model file"):
            load_model(path)


def _compress(path, names):
    """Rewrite a model file with the members ``names`` deflated."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(name + ".npy")
            if name in names:
                info.compress_type = zipfile.ZIP_DEFLATED
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, value)


def _with_header(path, name, header, length=None):
    """Rewrite a model file with the npy header of member ``name``
    replaced by the dict text ``header``, padded as numpy pads it, under
    a correct CRC-32; ``length`` overrides the header length field."""
    with np.load(path) as npz:
        arrays = {n: npz[n] for n in npz.files}
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for n, value in arrays.items():
            with zf.open(n + ".npy", "w", force_zip64=True) as fh:
                if n != name:
                    np.lib.format.write_array(fh, value)
                    continue
                text = header + " " * (-(len(header) + 11) % 64) + "\n"
                size = len(text) if length is None else length
                fh.write(b"\x93NUMPY\x01\x00" + size.to_bytes(2, "little") + text.encode("latin1"))
                fh.write(value.tobytes())


_BLOCK = classify._BLOCK_ROWS


def _wide_model(tmp_path, num_words, scheme="tfcr"):
    """A model file whose vocabulary has the ``num_words`` words
    ``w000``, ``w001``, ..., in that row order."""
    words = [f"w{i:03d}" for i in range(num_words)]
    corpus = from_token_lists([words[0::2], words[1::2]], [0, 1], ["A", "B"])
    path = tmp_path / f"wide-{scheme}.bin"
    save_model(_saved_model(corpus, synthetic_model(words, 8, seed=5), scheme), path)
    return path


# The member names of a format-5 file, in file order.
_FORMAT_5 = ("format", "kind", "W", "b", "scaler_mean", "scaler_scale", "categories",
             "preserve_case", "scheme", "alpha", "vocab", "vocab_order", "vectors", "vector_crcs",
             "table_rows", "weight_indptr", "weight_categories", "weight_values", "idf")


def _format_5_arrays(path):
    """The changes that turn a format-6 tfcr file into the format-5 file of
    the same model: its vocabulary in row order with the permutation that
    sorts it, one CRC-32 per block of embedding rows, and the table as CSR
    arrays over the table rows; None drops a format-6 member."""
    with np.load(path) as npz:
        a = {name: npz[name] for name in npz.files}
    width = len(a["categories"])
    rows, table_rows = a["weight_keys"] // width, np.unique(a["weight_keys"] // width)
    indptr = np.searchsorted(rows, np.append(table_rows, len(a["words"])), side="left")
    changes = dict.fromkeys(set(a) - set(_FORMAT_5))
    changes.update(
        format=np.int64(5), vocab=a["words"][np.argsort(a["word_rows"])],
        vocab_order=a["word_rows"], vector_crcs=a["block_crcs"][2], table_rows=table_rows,
        weight_indptr=indptr.astype(np.int32), weight_categories=(a["weight_keys"] % width)
        .astype(np.int32), weight_values=a["weight_values"], idf=np.zeros(0),
    )
    return changes


def _model_bytes(saved):
    """The bytes of everything a read model holds."""
    table = saved.table
    return [saved.model.W.tobytes(), saved.model.b.tobytes(), saved.embedding.vectors.tobytes(),
            tuple(saved.embedding.words), table.term_ids.tobytes(), table.weights.data.tobytes(),
            table.weights.indices.tobytes(), table.weights.indptr.tobytes()]


class TestModelFormat6:
    @pytest.fixture
    def model_file(self, toy_corpus, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(_saved_model(toy_corpus, tiny_model, "tfcr"), path)
        return path

    def test_written_headers_are_read(self, model_file):
        """The reader takes the headers np.savez writes, W's among them."""
        _with_header(model_file, "W", "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 16), }")
        assert load_model(model_file).model.W.shape == (2, 16)

    @pytest.mark.parametrize("header", [
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 16), 'extra': 1, }",
        "{'descr': '<f8', 'shape': (2, 16), }",
        "{'shape': (2, 16), 'fortran_order': False, 'descr': '<f8', }",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (-2, 16), }",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2.0, 16), }",
        "{'descr': '<f8', 'fortran_order': 0, 'shape': (2, 16), }",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 16)}",
    ], ids=["extra-key", "missing-key", "key-order", "negative-shape", "float-shape",
            "int-fortran-order", "no-trailing-comma"])
    def test_malformed_header_rejected(self, model_file, header):
        """A header is matched against the one layout np.savez writes,
        never evaluated."""
        _with_header(model_file, "W", header)
        with pytest.raises(ModelFormatError, match=r"'W.npy' has a malformed npy header"):
            load_model(model_file)

    def test_object_dtype_header_rejected(self, model_file):
        _with_header(model_file, "W", "{'descr': '|O', 'fortran_order': False, 'shape': (2, 16), }")
        with pytest.raises(ModelFormatError, match=r"'W.npy' holds objects"):
            load_model(model_file)

    def test_header_length_past_the_member_rejected(self, model_file):
        _with_header(model_file, "W", "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 16), }",
                     length=60_000)
        with pytest.raises(ModelFormatError, match=r"'W.npy' has a header longer than the member"):
            load_model(model_file)

    def test_format_3_file_says_retrain(self, model_file):
        # Format 3 is format 4 without vocab_order.
        _rewrite(model_file, **_format_5_arrays(model_file)
                 | {"format": np.int64(3), "vocab_order": None, "vector_crcs": None})
        with pytest.raises(ModelFormatError, match="format-3 model file.*retrain"):
            load_model(model_file)

    def test_format_4_file_says_retrain(self, model_file):
        # Format 4 is format 5 without vector_crcs.
        _rewrite(model_file, **_format_5_arrays(model_file)
                 | {"format": np.int64(4), "vector_crcs": None})
        with pytest.raises(ModelFormatError, match="format-4 model file.*retrain"):
            load_model(model_file)
        with pytest.raises(ModelFormatError, match="format-4 model file.*retrain"):
            ModelFile(model_file)

    def test_format_5_file_says_retrain(self, model_file):
        arrays = _format_5_arrays(model_file)
        _rewrite(model_file, **arrays)
        with np.load(model_file) as npz:
            assert sorted(npz.files) == sorted(_FORMAT_5) and npz["format"] == 5
        for read in (load_model, ModelFile):
            with pytest.raises(ModelFormatError, match="format-5 model file.*retrain"):
                read(model_file)

    def test_column_ordered_vectors_rejected(self, model_file):
        with np.load(model_file) as npz:
            V, d = npz["vectors"].shape
        _with_header(model_file, "vectors",
                     f"{{'descr': '<f8', 'fortran_order': True, 'shape': ({V}, {d}), }}")
        with pytest.raises(ModelFormatError, match=r"'vectors' is 2-D <f8 column-ordered"):
            ModelFile(model_file)

    @pytest.mark.parametrize("name", [*classify._BLOCKED, *classify._INDEX, "W"])
    def test_every_flip_of_an_npy_header_is_refused_or_harmless(self, model_file, name):
        """A blocked member's zip CRC-32 is not checked (its blocks are,
        one by one), so its npy header is matched exactly: any one bit
        flipped in it is refused, or leaves the model read as it was.  The
        headers of W and of the index members are under their members'
        CRC-32s, so every flip there is refused.  Nothing but
        ``ModelFormatError`` is ever raised."""
        before = _model_bytes(load_model(model_file))
        offset = oracle_member(model_file, name)[0]
        data = model_file.read_bytes()
        start = data.rfind(b"\x93NUMPY", 0, offset)
        for at in range(start, offset):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[at] ^= 1 << bit
                model_file.write_bytes(bytes(flipped))
                try:
                    loaded = load_model(model_file)
                except ModelFormatError:
                    continue
                assert name in classify._BLOCKED, (at, bit)
                assert _model_bytes(loaded) == before, (at, bit)

    @pytest.mark.parametrize("name", classify._BLOCKED)
    def test_every_flip_in_a_block_is_refused(self, model_file, name):
        """Any one bit flipped in a blocked member's data fails its
        block's CRC-32, which ``load_model`` checks with every block."""
        offset, items, item_bytes, _ = oracle_member(model_file, name)
        data = model_file.read_bytes()
        for at in range(offset, offset + items * item_bytes):
            flipped = bytearray(data)
            flipped[at] ^= 1 << (at % 8)
            model_file.write_bytes(bytes(flipped))
            with pytest.raises(ModelFormatError, match=f"Bad CRC-32 for member '{name}.npy'"):
                load_model(model_file)

    @pytest.mark.parametrize("num_words", [_BLOCK - 3, 2 * _BLOCK, 3 * _BLOCK + 5])
    def test_block_crcs_are_the_zlib_crcs_of_the_rows(self, num_words, tmp_path):
        path = _wide_model(tmp_path, num_words)
        with np.load(path) as npz:
            assert npz["vectors"].shape == (num_words, 8)
            crcs = npz["block_crcs"]
        assert crcs.dtype == np.uint32 and crcs.shape == (5, -(-num_words // _BLOCK))
        for name, row in zip(classify._BLOCKED, crcs):
            assert row.tolist() == oracle_block_crcs(path, _BLOCK, name), name

    def test_read_rows_reads_and_checks_only_the_blocks_it_needs(self, tmp_path):
        path = _wide_model(tmp_path, 3 * _BLOCK + 5)
        with np.load(path) as npz:
            full = npz["vectors"]
        offset, _, row_bytes = oracle_matrix_member(path)
        data = bytearray(path.read_bytes())
        data[offset + (_BLOCK + 2) * row_bytes + 3] ^= 0x10  # block 1
        path.write_bytes(bytes(data))
        with ModelFile(path) as model_file:  # opening reads no row
            saved = model_file.read_rows([3 * _BLOCK + 4, -1, 0, 2 * _BLOCK])
            with pytest.raises(ModelFormatError,
                               match=r"Bad CRC-32 for member 'vectors.npy' in block 1 of 4"):
                model_file.read_rows([_BLOCK + 7])
            # No unread row reaches a product: a word of block 1 stops matrix.
            word = saved.embedding.words[_BLOCK + 2]
            docs = from_token_lists([[saved.embedding.words[0], word]], [0], ["A", "B"]).documents
            with pytest.raises(IndexError, match="was not read"):
                CorpusVectorizer(docs, saved.embedding).matrix(saved.table)
        with pytest.raises(ModelFormatError, match="CRC-32 for member 'vectors.npy'"):
            load_model(path)
        vectors = saved.embedding.vectors
        assert isinstance(vectors, CheckedRows) and vectors.shape == full.shape
        rows = np.array([2 * _BLOCK + 1, 0, 3 * _BLOCK + 4, 5])
        assert vectors[rows].tobytes() == full[rows].tobytes()
        for unread in ([_BLOCK + 1], [0, 2 * _BLOCK - 1], [-1], [3 * _BLOCK + 5]):
            with pytest.raises(IndexError):
                vectors[np.array(unread)]
        # Every other scheme, scheme none (which weighs every word the
        # embedding knows) included, stops there too.
        for scheme in ("none", "tfidf", "kld", "tftrr"):
            with ModelFile(_wide_model(tmp_path, 3 * _BLOCK + 5, scheme)) as model_file:
                saved = model_file.read_rows([0, 2 * _BLOCK])
                docs = from_token_lists([["w000", f"w{_BLOCK + 2:03d}"]], [0], ["A", "B"])
                with pytest.raises(IndexError, match="was not read"):
                    CorpusVectorizer(docs.documents, saved.embedding).matrix(saved.table)

    def test_read_rows_result_after_the_file_closes(self, tmp_path):
        """The rows read stay usable once the file is closed, and so do the
        words if every word block was read while it was open; otherwise a
        use of the words says that the file is closed, not that it is
        damaged."""
        path = _wide_model(tmp_path, 3 * _BLOCK + 5)
        line = from_token_lists([["w000", f"w{2 * _BLOCK + 1:03d}"]], [0], ["A", "B"]).documents
        loaded = load_model(path)
        whole = CorpusVectorizer(line, loaded.embedding).matrix(loaded.table)
        with ModelFile(path) as model_file:
            held = model_file.read_rows([0, 2 * _BLOCK + 1])
            assert held.embedding.words[_BLOCK] == f"w{_BLOCK:03d}"  # every word block
        X = CorpusVectorizer(line, held.embedding).matrix(held.table)
        assert X.tobytes() == whole.tobytes()
        with ModelFile(path) as model_file:
            saved = model_file.read_rows([0, 2 * _BLOCK + 1])
        rows = np.array([1, 2 * _BLOCK])
        assert saved.embedding.vectors[rows].tobytes() == loaded.embedding.vectors[rows].tobytes()
        words = saved.embedding.words
        for use in (lambda: words[0], lambda: list(words), lambda: words.rows_of(["w000"]),
                    lambda: saved.embedding.word_ids, lambda: words == held.embedding.words):
            with pytest.raises(ValueError, match="the ModelFile is closed") as info:
                use()
            assert not isinstance(info.value, ModelFormatError)

    def test_blocks_read_without_pread(self, tmp_path, monkeypatch):
        """Where the platform has no ``os.pread``, blocks are read by a seek
        and a read of the buffered file (``classify._read_at``), with the
        same values and the same refusals."""
        monkeypatch.setattr(classify, "_PREAD", False)
        monkeypatch.delattr(os, "pread")
        for test in (self.test_read_rows_reads_and_checks_only_the_blocks_it_needs,
                     self.test_non_finite_row_refused_under_matching_crcs,
                     self.test_read_rows_result_after_the_file_closes):
            directory = tmp_path / test.__name__
            directory.mkdir()
            test(directory)

    def test_non_finite_row_refused_under_matching_crcs(self, tmp_path):
        path = _wide_model(tmp_path, 3 * _BLOCK + 5)
        with np.load(path) as npz:
            vectors = npz["vectors"]
        vectors[_BLOCK + 2, 3] = np.nan
        _rewrite(path, vectors=vectors)  # with the block and zip CRC-32s
        with np.load(path) as npz:
            crcs = npz["block_crcs"][classify._BLOCKED.index("vectors")]
        assert crcs.tolist() == [zlib.crc32(vectors[k : k + _BLOCK].tobytes())
                                 for k in range(0, len(vectors), _BLOCK)]
        with ModelFile(path) as model_file:
            model_file.read_rows([0, 2 * _BLOCK])
            with pytest.raises(ModelFormatError, match="'vectors' has non-finite values"):
                model_file.read_rows([_BLOCK + 2])
        with pytest.raises(ModelFormatError, match="'vectors' has non-finite values"):
            load_model(path)

    def test_every_truncation_refused_on_opening(self, model_file):
        data = model_file.read_bytes()
        for cut in range(len(data)):
            model_file.write_bytes(data[:cut])
            with pytest.raises(ModelFormatError):
                ModelFile(model_file)

    @pytest.mark.parametrize("name, change", [
        ("word_rows", lambda o: np.where(o == o.max(), o.size, o)),  # out of range
        ("word_rows", lambda o: np.where(o == 0, -1, o)),  # negative
        ("word_rows", lambda o: np.concatenate([o[:1], o[:-1]])),  # repeats a row
        ("words", lambda w: np.concatenate([w[1:2], w[:1], w[2:]])),  # does not rise
        ("word_rows", lambda o: o[:-1]),  # wrong length
        ("word_rows", lambda o: o.astype(np.float64)),
    ])
    def test_bad_word_lookup_rejected(self, model_file, name, change):
        with np.load(model_file) as npz:
            value = npz[name]
        _rewrite(model_file, **{name: change(value)})
        with pytest.raises(ModelFormatError, match="inconsistent model file"):
            load_model(model_file)

    @pytest.mark.parametrize("names", [{"vectors"}, {"weight_values", "W"}])
    def test_compressed_member_rejected(self, model_file, names):
        _compress(model_file, names)
        with pytest.raises(ModelFormatError, match="compressed"):
            load_model(model_file)

    def test_npy_2_0_member_rejected(self, model_file):
        # Every member is written with an npy 1.0 header, as np.savez
        # writes these arrays; a 2.0 header, even under a correct CRC, is
        # not a file this format writes.
        with np.load(model_file) as npz:
            arrays = {name: npz[name] for name in npz.files}
        with zipfile.ZipFile(model_file, "w", allowZip64=True) as zf:
            for name, value in arrays.items():
                with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, value, (2, 0) if name == "W" else (1, 0))
        with pytest.raises(ModelFormatError, match=r"'W.npy' is npy version \(2, 0\)"):
            load_model(model_file)

    def test_savez_compressed_file_rejected(self, model_file):
        with np.load(model_file) as npz:
            arrays = {name: npz[name] for name in npz.files}
        with open(model_file, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ModelFormatError, match="compressed"):
            load_model(model_file)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bytes_are_np_savez_bytes(self, scheme, toy_corpus, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(_saved_model(toy_corpus, tiny_model, scheme, scaler=scheme != "kld"), path)
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert list(arrays) == list(classify._ARRAYS)
        again = io.BytesIO()
        np.savez(again, **arrays)
        assert again.getvalue() == path.read_bytes()

    @pytest.mark.parametrize("scheme", ["tfidf", "tfcr"])
    def test_float_arrays_are_aligned(self, scheme, toy_corpus, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(_saved_model(toy_corpus, tiny_model, scheme), path)
        loaded = load_model(path)
        table = loaded.table
        floats = [loaded.model.W, loaded.model.b, loaded.embedding.vectors,
                  loaded.scaler.mean, loaded.scaler.scale,
                  table.idf if scheme == "tfidf" else table.weights.data]
        assert all(a.dtype == np.float64 and a.flags.aligned for a in floats)

    def test_one_line_builds_no_vocab_dict_or_tuple(self, toy_corpus, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(_saved_model(toy_corpus, tiny_model, "tfcr"), path)
        loaded = load_model(path)
        line = from_token_lists([["win", "zzz", "stock", "win"]], [0], ["A", "B"]).documents
        X = CorpusVectorizer(line, loaded.embedding).matrix(loaded.table)
        assert X.shape == (1, 16) and X.any()
        words = loaded.embedding.words
        assert isinstance(words, SortedWords) and loaded.table.terms is words
        assert "word_ids" not in vars(loaded.embedding)
        assert "_tuple" not in vars(words)


_WORDS = st.text(st.characters(exclude_characters="\x00"), max_size=6)
_QUERIES = st.text(st.characters(), max_size=9)


class TestSortedWords:
    """The lookup over blocks of sorted words, with the blocks in memory;
    ``TestModelFormat6`` and the CLI tests read them from model files."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_WORDS, unique=True, max_size=60), st.lists(_QUERIES, max_size=20),
           st.data())
    def test_lookup_equals_dict_lookup(self, vocab, queries, data):
        """Queries mix vocab words, their prefixes and extensions (which
        may be longer than the vocab's str width) with random text,
        non-ASCII and NUL characters included."""
        if vocab:
            picked = data.draw(st.lists(st.sampled_from(vocab), max_size=10))
            queries += picked + [w[:-1] for w in picked] + [w + "é" for w in picked]
            queries += [w + "\x00" for w in picked]
        words = _sorted_words(vocab)
        ids = {w: i for i, w in enumerate(vocab)}
        expected = [ids.get(q, -1) for q in queries]
        assert words.rows_of(queries).tolist() == expected
        assert words.rows_of(tuple(queries)).dtype == np.int64
        assert words == tuple(vocab)
        model = EmbeddingModel(words, np.zeros((len(vocab), 1)))
        assert [q in model for q in queries] == [i >= 0 for i in expected]
        assert model.word_ids == ids

    def test_empty_query_and_empty_vocab(self):
        words = _sorted_words(["b", "a"])
        assert words.rows_of(()).tolist() == [] and words.rows_of([]).dtype == np.int64
        assert _sorted_words([]).rows_of(["a", ""]).tolist() == [-1, -1]
