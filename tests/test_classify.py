from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest

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
    from_token_lists,
    load_model,
    logreg_gradient,
    predict,
    predict_many,
    save_model,
    svm_objective,
    svm_subgradient,
    synthetic_model,
    train_logreg,
    train_svm,
)
from catweight import classify
from catweight.classify import _logreg_objective


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
        _, probs = predict(model, np.zeros(3))
        assert probs == pytest.approx([2 / 3, 1 / 3], abs=1e-3)

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
        label, probs = predict(model, np.array([4.0, -1.0]))
        assert label == 0
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)

    def test_bias_dominates(self):
        model = LinearModel(
            kind="logreg", W=np.zeros((3, 2)), b=np.array([0.0, 5.0, 0.0])
        )
        label, probs = predict(model, np.zeros(2))
        assert label == 1
        expected = math.exp(5) / (math.exp(5) + 2)
        assert probs[1] == pytest.approx(expected, abs=1e-12)
        assert probs[1] == pytest.approx(0.9867, abs=1e-4)

    def test_probabilities_sum_to_one(self, rng):
        model = LinearModel(
            kind="logreg", W=rng.normal(size=(4, 3)), b=rng.normal(size=4)
        )
        _, probs = predict(model, rng.normal(size=3) * 50)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tie_breaks_to_lowest_index(self):
        model = LinearModel(
            kind="svm", W=np.zeros((3, 2)), b=np.array([0.7, 0.7, 0.1])
        )
        label, _ = predict(model, np.zeros(2))
        assert label == 0

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
            predict(model, np.zeros(4))


def _saved_model(corpus, embedding, scheme, kind="logreg", scaler=True, seed=0, min_count=1):
    table = build_table(build_stats(corpus, min_count=min_count), scheme)
    vec = CorpusVectorizer(corpus.documents, embedding)
    rng = np.random.default_rng(seed)
    n_classes, n_features = len(corpus.categories), vec.matrix(table).shape[1]
    params = None
    if scaler:
        params = ScalerParams(rng.normal(size=n_features), rng.random(n_features) + 0.5)
    model = LinearModel(kind, rng.normal(size=(n_classes, n_features)), rng.normal(size=n_classes))
    return SavedModel(model, table, vec.known_embedding(), params, preserve_case=not scaler)


def _rewrite(path, **changes):
    """Re-save a model file's arrays with some replaced; None drops one."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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
            vocab = npz["vocab"]
        table = dict.fromkeys(("table_rows", "weight_indptr", "weight_categories", "weight_values"))
        _rewrite(
            model_file, format=np.int64(2), vocab=None, **table,
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
        _rewrite(model_file, idf=None)
        with pytest.raises(ModelFormatError, match=r"missing arrays \['idf'\]"):
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
            ("vectors", np.full((1, 8), np.nan)),
            ("table_rows", np.zeros(3)),
            ("weight_indptr", np.zeros((2, 2), dtype=np.int64)),
            ("weight_values", np.array([0.5, np.inf])),
            ("idf", np.array([-np.inf])),
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
            ("tfcr", "vocab", lambda a: a[:-1]),
            ("tfcr", "vocab", lambda a: np.concatenate([a[:-1], a[:1]])),  # repeated word
            ("tfcr", "vectors", lambda a: a[:, :-1]),
            ("tfcr", "table_rows", lambda a: a[:-1]),
            ("tfcr", "table_rows", lambda a: a + 1),  # last row past the vocab
            ("tfcr", "table_rows", lambda a: a - 1),  # first row negative
            ("tfcr", "table_rows", lambda a: a[::-1]),
            ("tfcr", "table_rows", lambda a: np.concatenate([a[:1], a[:-1]])),  # repeated row
            ("tfcr", "weight_indptr", lambda a: a[:-1]),
            ("tfcr", "weight_indptr", lambda a: np.concatenate([a[:1], a[-1:], a[2:]])),
            ("tfcr", "weight_indptr", lambda a: np.concatenate([[1], a[1:]])),  # not from 0
            ("tfcr", "weight_categories", lambda a: a + 1),  # category index == C
            ("tfcr", "weight_categories", lambda a: a - 1),
            ("tfcr", "weight_categories", np.zeros_like),  # repeated within a row
            ("tfcr", "weight_categories", lambda a: a[:-1]),
            ("tfcr", "weight_values", lambda a: -a),
            ("tfcr", "weight_values", lambda a: 0.0 * a),
            ("tfcr", "weight_values", lambda a: a[:-1]),
            ("tfcr", "idf", lambda a: np.ones(1)),
            ("tftrr", "alpha", lambda a: np.float64(0.5)),
            ("tfidf", "idf", lambda a: a[:-1]),
            ("tfidf", "idf", lambda a: -a),
            ("tfidf", "W", lambda a: np.zeros((2, 16))),
            ("tfidf", "weight_indptr", lambda a: np.zeros(16, dtype=np.int32)),
            ("none", "table_rows", lambda a: np.array([0])),
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
