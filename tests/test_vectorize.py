from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catweight import (
    CorpusVectorizer,
    Document,
    EmbeddingModel,
    WeightTable,
    build_stats,
    build_table,
    feature_dimension,
    from_token_lists,
    standardize_apply,
    standardize_fit,
    synthetic_model,
    vectorize_concat,
    vectorize_document,
    vectorize_tfidf,
    vectorize_unweighted,
    vectorize_weighted_category,
)
from oracles import oracle_weighted_mean


def _emb(mapping):
    words = list(mapping)
    vectors = np.array([mapping[w] for w in words], dtype=np.float64)
    return EmbeddingModel(
        dimension=vectors.shape[1],
        word_ids={w: i for i, w in enumerate(words)},
        words=tuple(words),
        vectors=vectors,
        origin="inline",
    )


def _cat_table(weights, scheme="tfcr", categories=None):
    words = list(weights)
    arr = np.array([weights[w] for w in words], dtype=np.float64)
    if categories is None:
        categories = tuple(f"c{j}" for j in range(arr.shape[1]))
    return WeightTable(
        scheme=scheme,
        categories=tuple(categories),
        word_ids={w: i for i, w in enumerate(words)},
        words=tuple(words),
        category_weights=arr,
    )


def _doc(tokens):
    return Document(tokens=tuple(tokens), label=None, source_id="t")


UNIT = _emb({"a": (1.0, 0.0), "b": (0.0, 1.0)})


class TestUnweighted:
    def test_plain_mean(self):
        vec = vectorize_unweighted(_doc(["a", "b"]), UNIT)
        assert np.array_equal(vec.values, [0.5, 0.5])
        assert vec.layout == "plain"
        assert vec.known_token_count == 2

    def test_multiplicity(self):
        vec = vectorize_unweighted(_doc(["a", "a", "b"]), UNIT)
        assert vec.values == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert vec.known_token_count == 3

    def test_all_oov(self):
        vec = vectorize_unweighted(_doc(["x", "y"]), UNIT)
        assert np.array_equal(vec.values, [0.0, 0.0])
        assert vec.known_token_count == 0

    def test_token_permutation_invariant(self):
        model = synthetic_model(["p", "q", "r"], 6, seed=4)
        fwd = vectorize_unweighted(_doc(["p", "q", "r", "q"]), model)
        rev = vectorize_unweighted(_doc(["q", "r", "q", "p"]), model)
        assert fwd.values == pytest.approx(rev.values, rel=1e-12)


class TestWeightedCategory:
    def test_hand_weights(self):
        table = _cat_table({"a": [3.0], "b": [1.0]})
        values = vectorize_weighted_category(_doc(["a", "b"]), UNIT, table, 0)
        assert np.array_equal(values, [0.75, 0.25])

    def test_all_zero_weights(self):
        table = _cat_table({"a": [0.0], "b": [0.0]})
        values = vectorize_weighted_category(_doc(["a", "b"]), UNIT, table, 0)
        assert np.array_equal(values, [0.0, 0.0])

    def test_word_missing_from_table_weighs_zero(self):
        table = _cat_table({"a": [2.0]})
        values = vectorize_weighted_category(_doc(["a", "b"]), UNIT, table, 0)
        assert np.array_equal(values, [1.0, 0.0])

    def test_uniform_weights_match_unweighted_bitwise(self):
        model = synthetic_model(["u", "v", "w"], 8, seed=5)
        doc = _doc(["u", "v", "v", "w", "w", "w"])
        table = _cat_table({"u": [2.0], "v": [2.0], "w": [2.0]})
        weighted = vectorize_weighted_category(doc, model, table, 0)
        unweighted = vectorize_unweighted(doc, model)
        assert np.array_equal(weighted, unweighted.values)

    @settings(deadline=None, max_examples=50)
    @given(k=st.floats(min_value=1e-6, max_value=1e6))
    def test_uniform_weights_match_unweighted_tolerance(self, k):
        model = synthetic_model(["u", "v", "w"], 4, seed=6)
        doc = _doc(["u", "v", "v", "w", "w", "w"])
        table = _cat_table({"u": [k], "v": [k], "w": [k]})
        weighted = vectorize_weighted_category(doc, model, table, 0)
        unweighted = vectorize_unweighted(doc, model)
        np.testing.assert_allclose(weighted, unweighted.values, rtol=1e-12, atol=0)

    @settings(deadline=None, max_examples=50)
    @given(k=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]), data=st.data())
    def test_per_category_scale_invariance(self, k, data):
        weights = {
            # Subnormal weights are excluded: k * w is itself inexact there.
            w: [
                data.draw(st.floats(0.0, 10.0, allow_subnormal=False)),
                data.draw(st.floats(0.0, 10.0, allow_subnormal=False)),
            ]
            for w in ("u", "v", "w")
        }
        model = synthetic_model(["u", "v", "w"], 4, seed=7)
        doc = _doc(["u", "v", "w", "w"])
        base = _cat_table(weights)
        scaled_weights = {w: [k * col[0], col[1]] for w, col in weights.items()}
        scaled = _cat_table(scaled_weights)
        for c in (0, 1):
            before = vectorize_weighted_category(doc, model, base, c)
            after = vectorize_weighted_category(doc, model, scaled, c)
            if c == 0:
                assert np.array_equal(before, after)  # power-of-two k
            else:
                assert np.array_equal(before, after)

    def test_matches_brute_force_oracle(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        for scheme in ("tfcr", "kld"):
            table = build_table(stats, scheme)
            for doc in toy_corpus.documents:
                tf = {}
                order = []
                for t in doc.tokens:
                    if t in tiny_model.word_ids:
                        if t not in tf:
                            order.append(t)
                        tf[t] = tf.get(t, 0) + 1
                for c in (0, 1):
                    weights = [tf[t] * table.category_weight(t, c) for t in order]
                    vectors = [tiny_model.vector(t).tolist() for t in order]
                    expected = oracle_weighted_mean(weights, vectors, 8)
                    got = vectorize_weighted_category(doc, tiny_model, table, c)
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_tftrr_uses_floor_for_absent_category(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tftrr")
        doc = _doc(["market", "market", "game"])
        # In category A, "market" never occurs: factor falls back to ln(alpha).
        floor = math.log(table.alpha)
        w_market = (math.log(2) + 1.0) * floor
        w_game = table.category_weight("game", 0)  # tf 1 -> multiplier 1
        expected = oracle_weighted_mean(
            [w_market, w_game],
            [tiny_model.vector("market").tolist(), tiny_model.vector("game").tolist()],
            8,
        )
        got = vectorize_weighted_category(doc, tiny_model, table, 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_tftrr_unseen_word_still_zero(self, toy_corpus):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tftrr")
        model = _emb({"a": (1.0, 0.0), "win": (0.0, 1.0)})
        # "a" is absent from training stats entirely: no floor, weight 0.
        values = vectorize_weighted_category(_doc(["a", "win"]), model, table, 0)
        assert np.array_equal(values, model.vector("win"))

    def test_rejects_non_category_table(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfidf")
        with pytest.raises(ValueError):
            vectorize_weighted_category(_doc(["a"]), UNIT, table, 0)


class TestConcat:
    def test_layout_and_slices(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        doc = toy_corpus.documents[0]
        vec = vectorize_concat(doc, tiny_model, table)
        assert vec.layout == "concat"
        assert vec.num_categories == 2
        assert len(vec.values) == 16
        for c in (0, 1):
            piece = vectorize_weighted_category(doc, tiny_model, table, c)
            assert np.array_equal(vec.values[c * 8 : (c + 1) * 8], piece)

    def test_no_known_tokens_zero_vector(self, toy_corpus, tiny_model):
        table = build_table(build_stats(toy_corpus), "tfcr")
        vec = vectorize_concat(_doc(["zzz"]), tiny_model, table)
        assert np.array_equal(vec.values, np.zeros(16))

    def test_exclusive_word_affects_only_its_slice(self):
        model = _emb({"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 1.0)})
        with_word = _cat_table(
            {"a": [5.0, 0.0], "b": [1.0, 2.0], "c": [1.0, 1.0]}
        )
        without = _cat_table(
            {"a": [0.0, 0.0], "b": [1.0, 2.0], "c": [1.0, 1.0]}
        )
        doc = _doc(["a", "b", "c"])
        full = vectorize_concat(doc, model, with_word).values
        dropped = vectorize_concat(doc, model, without).values
        # Slice 1 never saw "a" in either table.
        assert np.array_equal(full[2:], dropped[2:])
        assert not np.array_equal(full[:2], dropped[:2])

    def test_rejects_non_category_table(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfidf")
        with pytest.raises(ValueError):
            vectorize_concat(_doc(["a"]), UNIT, table)


class TestTfidfVectorize:
    def _table(self, idf_map):
        words = list(idf_map)
        return WeightTable(
            scheme="tfidf",
            categories=("A", "B"),
            word_ids={w: i for i, w in enumerate(words)},
            words=tuple(words),
            idf=np.array([idf_map[w] for w in words], dtype=np.float64),
        )

    def test_zero_idf_gives_zero_vector(self):
        table = self._table({"a": 0.0})
        vec = vectorize_tfidf(_doc(["a", "a"]), UNIT, table)
        assert np.array_equal(vec.values, [0.0, 0.0])

    def test_zero_weight_token_drops_out_exactly(self):
        w = 3 * math.log(5)  # 4.82831...
        table = self._table({"a": w / 3, "b": 0.0})
        vec = vectorize_tfidf(_doc(["a", "a", "a", "b"]), UNIT, table)
        assert np.array_equal(vec.values, UNIT.vector("a"))

    def test_uniform_idf_tf_one_matches_distinct_mean(self):
        model = synthetic_model(["p", "q"], 4, seed=8)
        table = self._table({"p": 2.0, "q": 2.0})
        vec = vectorize_tfidf(_doc(["p", "q"]), model, table)
        plain = vectorize_unweighted(_doc(["p", "q"]), model)
        assert np.array_equal(vec.values, plain.values)

    def test_matches_oracle(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfidf")
        doc = toy_corpus.documents[1]
        tf = {}
        order = []
        for t in doc.tokens:
            if t in tiny_model.word_ids:
                if t not in tf:
                    order.append(t)
                tf[t] = tf.get(t, 0) + 1
        weights = [tf[t] * table.idf_value(t) for t in order]
        vectors = [tiny_model.vector(t).tolist() for t in order]
        expected = oracle_weighted_mean(weights, vectors, 8)
        got = vectorize_tfidf(doc, tiny_model, table)
        assert got.values == pytest.approx(expected, rel=1e-12)

    def test_layout_plain(self, toy_corpus, tiny_model):
        table = build_table(build_stats(toy_corpus), "tfidf")
        vec = vectorize_tfidf(toy_corpus.documents[0], tiny_model, table)
        assert vec.layout == "plain"
        assert len(vec.values) == 8

    def test_rejects_category_table(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfcr")
        with pytest.raises(ValueError):
            vectorize_tfidf(_doc(["a"]), UNIT, table)


class TestDispatcherAndDimension:
    def test_dispatch(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        doc = toy_corpus.documents[0]
        none_vec = vectorize_document(doc, tiny_model, build_table(stats, "none"))
        assert none_vec.layout == "plain"
        tfidf_vec = vectorize_document(doc, tiny_model, build_table(stats, "tfidf"))
        assert tfidf_vec.layout == "plain"
        for scheme in ("kld", "tfcr", "tftrr"):
            vec = vectorize_document(doc, tiny_model, build_table(stats, scheme))
            assert vec.layout == "concat"
            assert len(vec.values) == 16

    def test_feature_dimension(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        assert feature_dimension(tiny_model, build_table(stats, "none")) == 8
        assert feature_dimension(tiny_model, build_table(stats, "tfidf")) == 8
        assert feature_dimension(tiny_model, build_table(stats, "tfcr")) == 16

    def test_outputs_always_finite(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        docs = [
            _doc([]),
            _doc(["zzz"]),
            _doc(["win"]),
            toy_corpus.documents[0],
        ]
        for scheme in ("none", "tfidf", "kld", "tftrr", "tfcr"):
            table = build_table(stats, scheme)
            for doc in docs:
                vec = vectorize_document(doc, tiny_model, table)
                assert np.all(np.isfinite(vec.values))


class TestStandardize:
    def test_train_mean_zero_std_one(self, rng):
        X = rng.normal(3.0, 2.5, size=(40, 6))
        params = standardize_fit(X)
        Z = standardize_apply(params, X)
        assert Z.mean(axis=0) == pytest.approx(np.zeros(6), abs=1e-12)
        assert Z.std(axis=0) == pytest.approx(np.ones(6), abs=1e-12)

    def test_constant_dimension_centered_not_divided(self):
        X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        params = standardize_fit(X)
        assert params.scale[1] == 1.0
        Z = standardize_apply(params, X)
        assert np.array_equal(Z[:, 1], [0.0, 0.0, 0.0])

    def test_apply_uses_train_statistics_only(self, rng):
        train = rng.normal(size=(10, 3))
        params = standardize_fit(train)
        unseen = np.array([100.0, -50.0, 7.0])
        expected = (unseen - params.mean) / params.scale
        assert np.array_equal(standardize_apply(params, unseen), expected)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize_fit(np.ones((1, 4)))


class TestCorpusVectorizer:
    def _random_docs(self, rng, model, n=25):
        words = list(model.words) + ["oov1", "oov2"]
        docs = []
        for i in range(n):
            length = int(rng.integers(0, 12))
            tokens = [words[int(rng.integers(0, len(words)))] for _ in range(length)]
            docs.append(Document(tokens=tuple(tokens), label=None, source_id=f"d{i}"))
        docs.append(Document(tokens=(), label=None, source_id="empty"))
        docs.append(Document(tokens=("oov1",), label=None, source_id="alloov"))
        return docs

    def test_matches_single_document_path(self, toy_corpus, tiny_model, rng):
        stats = build_stats(toy_corpus)
        docs = self._random_docs(rng, tiny_model)
        vectorizer = CorpusVectorizer(docs, tiny_model)
        for scheme in ("none", "tfidf", "kld", "tftrr", "tfcr"):
            table = build_table(stats, scheme)
            X = vectorizer.matrix(table)
            for i, doc in enumerate(docs):
                single = vectorize_document(doc, tiny_model, table)
                np.testing.assert_allclose(
                    X[i], single.values, rtol=1e-12, atol=1e-15
                )

    def test_known_token_counts(self, tiny_model, rng):
        docs = self._random_docs(rng, tiny_model)
        vectorizer = CorpusVectorizer(docs, tiny_model)
        for i, doc in enumerate(docs):
            expected = vectorize_unweighted(doc, tiny_model).known_token_count
            assert vectorizer.known_token_counts[i] == expected

    def test_document_order_invariance(self, toy_corpus, tiny_model, rng):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        docs = self._random_docs(rng, tiny_model)
        X = CorpusVectorizer(docs, tiny_model).matrix(table)
        perm = rng.permutation(len(docs))
        X_perm = CorpusVectorizer([docs[i] for i in perm], tiny_model).matrix(table)
        np.testing.assert_allclose(X_perm, X[perm], rtol=1e-12, atol=1e-15)

    def test_case_fallback_parity(self, toy_corpus):
        model = synthetic_model(["win", "game"], 4, seed=11)
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        docs = [Document(tokens=("WIN", "Game", "win"), label=None, source_id="x")]
        X = CorpusVectorizer(docs, model, case_fallback=True).matrix(table)
        single = vectorize_concat(docs[0], model, table, case_fallback=True)
        np.testing.assert_allclose(X[0], single.values, rtol=1e-12)
        # Without the fallback the cased tokens are OOV; under the
        # unweighted scheme this changes the mean (weighted schemes give
        # surface-cased tokens weight 0 regardless).
        none_table = build_table(stats, "none")
        with_fb = CorpusVectorizer(docs, model, case_fallback=True).matrix(none_table)
        bare = CorpusVectorizer(docs, model).matrix(none_table)
        np.testing.assert_allclose(
            bare[0], vectorize_unweighted(docs[0], model).values, rtol=1e-12
        )
        assert not np.array_equal(with_fb[0], bare[0])

    def test_empty_corpus(self, toy_corpus, tiny_model):
        table = build_table(build_stats(toy_corpus), "tfcr")
        X = CorpusVectorizer([], tiny_model).matrix(table)
        assert X.shape == (0, 16)
