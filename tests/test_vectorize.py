from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from catweight import (
    CorpusVectorizer,
    Document,
    EmbeddingModel,
    WeightTable,
    build_stats,
    build_table,
    for_terms,
    from_token_lists,
    separable_corpus,
    standardize_apply,
    standardize_fit,
    synthetic_model,
)
from catweight import vectorize
from catweight.corpus import TokenCounts, count_tokens
from catweight.weighting import SCHEMES
from oracles import oracle_for_terms, oracle_weighted_mean, table_idf, table_weight


def _emb(mapping):
    words = list(mapping)
    vectors = np.array([mapping[w] for w in words], dtype=np.float64)
    return EmbeddingModel(tuple(words), vectors, origin="inline")


def _cat_table(weights, scheme="tfcr", categories=None):
    words = list(weights)
    arr = np.array([weights[w] for w in words], dtype=np.float64)
    if categories is None:
        categories = tuple(f"c{j}" for j in range(arr.shape[1]))
    return WeightTable(
        scheme=scheme,
        categories=tuple(categories),
        terms=tuple(words),
        term_ids=np.arange(len(words)),
        weights=sp.csr_matrix(arr),
    )


def _doc(tokens):
    return Document(tokens=tuple(tokens), label=None, source_id="t")


def _row(doc, model, table):
    """Feature vector of one document: the row of a one-document matrix."""
    if not isinstance(doc, Document):
        doc = _doc(doc)
    return CorpusVectorizer([doc], model).matrix(table)[0]


def _slice(doc, model, table, c):
    d = model.dimension
    return _row(doc, model, table)[c * d : (c + 1) * d]


def _known(tokens, model):
    return CorpusVectorizer([_doc(tokens)], model).known_token_counts[0]


def _oracle_mean(doc, model, weight_of):
    """Oracle weighted mean over the distinct found tokens, each weighed
    ``weight_of(token, tf)``."""
    tf = {}
    for t in doc.tokens:
        if t in model.word_ids:
            tf[t] = tf.get(t, 0) + 1
    weights = [weight_of(t, n) for t, n in tf.items()]
    vectors = [model.vectors[model.word_ids[t]].tolist() for t in tf]
    return oracle_weighted_mean(weights, vectors, model.dimension)


UNIT = _emb({"a": (1.0, 0.0), "b": (0.0, 1.0)})
NONE = WeightTable(scheme="none", categories=("A",))


@pytest.fixture(params=[0, 10**12], ids=["loop", "product"])
def gate(request):
    """Runs a test under each formulation of ``matrix``: with the gate at
    0 every input takes the per-category loop, with a huge gate the one
    sparse product."""
    with mock.patch.object(vectorize, "_PRODUCT_GATE", request.param):
        yield request.param


class TestUnweighted:
    def test_plain_mean(self):
        assert np.array_equal(_row(["a", "b"], UNIT, NONE), [0.5, 0.5])
        assert _known(["a", "b"], UNIT) == 2

    def test_multiplicity(self):
        assert _row(["a", "a", "b"], UNIT, NONE) == pytest.approx(
            [2 / 3, 1 / 3], abs=1e-15
        )
        assert _known(["a", "a", "b"], UNIT) == 3

    @pytest.mark.usefixtures("gate")
    def test_all_oov(self):
        assert np.array_equal(_row(["x", "y"], UNIT, NONE), [0.0, 0.0])
        assert _known(["x", "y"], UNIT) == 0

    def test_token_permutation_invariant(self):
        model = synthetic_model(["p", "q", "r"], 6, seed=4)
        fwd = _row(["p", "q", "r", "q"], model, NONE)
        rev = _row(["q", "r", "q", "p"], model, NONE)
        assert fwd == pytest.approx(rev, rel=1e-12)


class TestWeightedCategory:
    def test_hand_weights(self):
        table = _cat_table({"a": [3.0], "b": [1.0]})
        assert np.array_equal(_row(["a", "b"], UNIT, table), [0.75, 0.25])

    def test_all_zero_weights(self):
        table = _cat_table({"a": [0.0], "b": [0.0]})
        assert np.array_equal(_row(["a", "b"], UNIT, table), [0.0, 0.0])

    def test_word_missing_from_table_weighs_zero(self):
        table = _cat_table({"a": [2.0]})
        assert np.array_equal(_row(["a", "b"], UNIT, table), [1.0, 0.0])

    def test_uniform_weights_match_unweighted_bitwise(self):
        model = synthetic_model(["u", "v", "w"], 8, seed=5)
        doc = _doc(["u", "v", "v", "w", "w", "w"])
        table = _cat_table({"u": [2.0], "v": [2.0], "w": [2.0]})
        assert np.array_equal(_row(doc, model, table), _row(doc, model, NONE))

    @settings(deadline=None, max_examples=50)
    @given(k=st.floats(min_value=1e-6, max_value=1e6))
    def test_uniform_weights_match_unweighted_tolerance(self, k):
        model = synthetic_model(["u", "v", "w"], 4, seed=6)
        doc = _doc(["u", "v", "v", "w", "w", "w"])
        table = _cat_table({"u": [k], "v": [k], "w": [k]})
        np.testing.assert_allclose(
            _row(doc, model, table), _row(doc, model, NONE), rtol=1e-12, atol=0
        )

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
        # Slice 0 is rescaled by a power of two, slice 1 is untouched.
        assert np.array_equal(_row(doc, model, base), _row(doc, model, scaled))

    def test_tiny_weights_do_not_underflow(self):
        # Normal weights whose products with the embeddings are subnormal:
        # normalizing before the product keeps the mean exact.
        model = synthetic_model(["u", "v"], 4, seed=9)
        tiny = _cat_table({"u": [2.0**-1020], "v": [3 * 2.0**-1020]})
        plain = _cat_table({"u": [1.0], "v": [3.0]})
        assert np.array_equal(_row(["u", "v"], model, tiny), _row(["u", "v"], model, plain))

    @pytest.mark.parametrize("scheme", ["tfidf", "kld", "tftrr", "tfcr"])
    @pytest.mark.usefixtures("gate")
    def test_subnormal_weights_match_their_normal_multiple(self, scheme):
        # [2**-1070, 3 * 2**-1070] is [1, 3] times a power of two, with
        # every entry subnormal.  (none has no weights to scale; a tftrr
        # factor is >= ln(alpha), so only alpha = 1 admits subnormal ones.)
        model = synthetic_model(["u", "v", "w"], 4, seed=12)
        doc = _doc(["u", "v", "v", "w"])

        def row(u, v):  # u, v: the category-0 weights; w weighs 0 there
            weights = np.array([[u, 2.0], [v, 5.0], [0.0, 3.0]])
            if scheme == "tfidf":
                table = WeightTable("tfidf", ("A",), ("u", "v", "w"), np.arange(3),
                                    idf=weights[:, 0])
            else:
                table = WeightTable(scheme, ("A", "B"), ("u", "v", "w"), np.arange(3),
                                    weights=sp.csr_matrix(weights), alpha=1.0)
            return _row(doc, model, table)

        assert np.array_equal(row(2.0**-1070, 3 * 2.0**-1070), row(1.0, 3.0))

    @pytest.mark.usefixtures("gate")
    def test_matches_brute_force_oracle(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        for scheme in ("tfcr", "kld"):
            table = build_table(stats, scheme)
            for doc in toy_corpus.documents:
                for c in (0, 1):
                    expected = _oracle_mean(
                        doc, tiny_model, lambda t, n: n * table_weight(table, t, c)
                    )
                    got = _slice(doc, tiny_model, table, c)
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_tftrr_uses_floor_for_absent_category(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tftrr")
        doc = _doc(["market", "market", "game"])
        # In category A, "market" never occurs: factor falls back to ln(alpha).
        floor = math.log(table.alpha)
        w_market = (math.log(2) + 1.0) * floor
        w_game = table_weight(table, "game", 0)  # tf 1 -> multiplier 1
        expected = oracle_weighted_mean(
            [w_market, w_game],
            [
                tiny_model.vectors[tiny_model.word_ids["market"]].tolist(),
                tiny_model.vectors[tiny_model.word_ids["game"]].tolist(),
            ],
            8,
        )
        assert _slice(doc, tiny_model, table, 0) == pytest.approx(expected, rel=1e-12)

    def test_tftrr_unseen_word_still_zero(self, toy_corpus):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tftrr")
        model = _emb({"a": (1.0, 0.0), "win": (0.0, 1.0)})
        # "a" is absent from training stats entirely: no floor, weight 0.
        values = _slice(["a", "win"], model, table, 0)
        assert np.array_equal(values, model.vectors[model.word_ids["win"]])


class TestConcat:
    def test_layout_and_slices(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        doc = toy_corpus.documents[0]
        values = _row(doc, tiny_model, table)
        assert len(values) == 16
        # Slice c is the document under a one-category table of column c.
        for c in (0, 1):
            alone = WeightTable(
                scheme="tfcr",
                categories=(table.categories[c],),
                terms=table.terms,
                term_ids=table.term_ids,
                weights=sp.csr_matrix(table.weights.toarray()[:, [c]]),
            )
            piece = _row(doc, tiny_model, alone)
            assert np.array_equal(values[c * 8 : (c + 1) * 8], piece)

    @pytest.mark.usefixtures("gate")
    def test_no_known_tokens_zero_vector(self, toy_corpus, tiny_model):
        table = build_table(build_stats(toy_corpus), "tfcr")
        assert np.array_equal(_row(["zzz"], tiny_model, table), np.zeros(16))

    def test_exclusive_word_affects_only_its_slice(self):
        model = _emb({"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 1.0)})
        with_word = _cat_table(
            {"a": [5.0, 0.0], "b": [1.0, 2.0], "c": [1.0, 1.0]}
        )
        without = _cat_table(
            {"a": [0.0, 0.0], "b": [1.0, 2.0], "c": [1.0, 1.0]}
        )
        doc = _doc(["a", "b", "c"])
        full = _row(doc, model, with_word)
        dropped = _row(doc, model, without)
        # Slice 1 never saw "a" in either table.
        assert np.array_equal(full[2:], dropped[2:])
        assert not np.array_equal(full[:2], dropped[:2])


class TestTfidfVectorize:
    def _table(self, idf_map):
        words = list(idf_map)
        return WeightTable(
            scheme="tfidf",
            categories=("A", "B"),
            terms=tuple(words),
            term_ids=np.arange(len(words)),
            idf=np.array([idf_map[w] for w in words], dtype=np.float64),
        )

    def test_zero_idf_gives_zero_vector(self):
        table = self._table({"a": 0.0})
        assert np.array_equal(_row(["a", "a"], UNIT, table), [0.0, 0.0])

    def test_zero_weight_token_drops_out_exactly(self):
        w = 3 * math.log(5)  # 4.82831...
        table = self._table({"a": w / 3, "b": 0.0})
        values = _row(["a", "a", "a", "b"], UNIT, table)
        assert np.array_equal(values, UNIT.vectors[UNIT.word_ids["a"]])

    def test_uniform_idf_tf_one_matches_distinct_mean(self):
        model = synthetic_model(["p", "q"], 4, seed=8)
        table = self._table({"p": 2.0, "q": 2.0})
        assert np.array_equal(
            _row(["p", "q"], model, table), _row(["p", "q"], model, NONE)
        )

    def test_matches_oracle(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfidf")
        doc = toy_corpus.documents[1]
        expected = _oracle_mean(doc, tiny_model, lambda t, n: n * table_idf(table, t))
        assert _row(doc, tiny_model, table) == pytest.approx(expected, rel=1e-12)

    def test_layout_plain(self, toy_corpus, tiny_model):
        table = build_table(build_stats(toy_corpus), "tfidf")
        assert len(_row(toy_corpus.documents[0], tiny_model, table)) == 8


class TestDispatcherAndDimension:
    def test_dispatch(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        doc = toy_corpus.documents[0]
        none_vec = _row(doc, tiny_model, build_table(stats, "none"))
        assert none_vec == pytest.approx(
            _oracle_mean(doc, tiny_model, lambda t, n: n), rel=1e-12
        )
        assert len(_row(doc, tiny_model, build_table(stats, "tfidf"))) == 8
        for scheme in ("kld", "tfcr", "tftrr"):
            assert len(_row(doc, tiny_model, build_table(stats, scheme))) == 16

    def test_feature_dimension(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        vectorizer = CorpusVectorizer(toy_corpus.documents, tiny_model)
        for scheme, width in (("none", 8), ("tfidf", 8), ("tfcr", 16)):
            assert vectorizer.matrix(build_table(stats, scheme)).shape == (2, width)

    @pytest.mark.usefixtures("gate")
    def test_outputs_always_finite(self, toy_corpus, tiny_model):
        stats = build_stats(toy_corpus)
        docs = [
            _doc([]),
            _doc(["zzz"]),
            _doc(["win"]),
            toy_corpus.documents[0],
        ]
        vectorizer = CorpusVectorizer(docs, tiny_model)
        for scheme in ("none", "tfidf", "kld", "tftrr", "tfcr"):
            X = vectorizer.matrix(build_table(stats, scheme))
            assert np.all(np.isfinite(X))


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

    @pytest.mark.parametrize("extra", [None, -1, 0, 1, "3b+5"])
    def test_bits_of_numpy_mean_and_std(self, rng, extra):
        block = vectorize._SCALER_ROWS
        n = {None: 2, "3b+5": 3 * block + 5}.get(extra) or block + extra
        X = rng.normal(size=(n, 9)) * 10.0 ** rng.integers(-6, 6, size=9)
        X[:, 2] = 4.25  # constant columns: scale 1
        X[:, 5] = 0.0
        X[rng.random(X.shape) < 0.2] = 0.0
        X[rng.random(X.shape) < 0.2] = -0.0
        X[:, 7] = -0.0
        params = standardize_fit(X)
        std = X.std(axis=0)
        assert params.mean.tobytes() == X.mean(axis=0).tobytes()
        assert params.scale.tobytes() == np.where(std < 1e-12, 1.0, std).tobytes()
        for other in (np.asfortranarray(X), X[:, :1]):  # layouts numpy sums otherwise
            std = other.std(axis=0)
            assert standardize_fit(other).scale.tobytes() == np.where(std < 1e-12, 1.0, std).tobytes()

    def test_fit_holds_one_block_of_rows(self, rng):
        """Peak traced memory of a fit on 2,000 x 500 rows stays under one
        block of rows plus a few rows and numpy's 8,192-element ufunc
        buffer: no centred copy of the matrix (the 8-MB one that ``X.std``
        makes)."""
        X = rng.normal(size=(2000, 500))
        row = X[0].nbytes
        tracemalloc.start()
        try:
            standardize_fit(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (vectorize._SCALER_ROWS + 8) * row + 8192 * 8


class TestCorpusVectorizer:
    def test_no_copy_of_the_models_rows(self, rng):
        """Setting up over documents that use 2,000 of a model's 4,000 rows
        allocates less than a tenth of those rows' 4 MB: the vectorizer
        keeps no copy of the rows it uses (the parent of this bound did)."""
        words = [f"w{i}" for i in range(4000)]
        model = EmbeddingModel(tuple(words), rng.normal(size=(4000, 256)))
        assert len(model.word_ids) == 4000  # the model's own dict, built on first lookup
        docs = [
            Document(tokens=tuple(words[i : i + 100 : 2]), label=None, source_id=f"d{i}")
            for i in range(0, 4000, 100)
        ]
        used = model.vectors[::2].nbytes
        tracemalloc.start()
        try:
            vec = CorpusVectorizer(docs, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < used / 10
        terms = count_tokens(docs).terms
        known = for_terms(model, terms)  # the saved model's rows: gathered here
        assert np.array_equal(known.vectors, model.vectors[::2])
        assert for_terms(known, terms) is known

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

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.usefixtures("gate")
    def test_matches_single_document_path(self, scheme, toy_corpus, tiny_model, rng):
        """Each row of a corpus matrix is bit for bit its one-document matrix:
        a document's sums run in an order set by its own tokens alone."""
        table = build_table(build_stats(toy_corpus), scheme)
        docs = self._random_docs(rng, tiny_model)
        X = CorpusVectorizer(docs, tiny_model).matrix(table)
        for i, doc in enumerate(docs):
            assert np.array_equal(X[i], _row(doc, tiny_model, table))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.usefixtures("gate")
    def test_row_subset_matches_full_matrix(self, scheme, toy_corpus, tiny_model, rng):
        table = build_table(build_stats(toy_corpus), scheme)
        vectorizer = CorpusVectorizer(self._random_docs(rng, tiny_model), tiny_model)
        X = vectorizer.matrix(table)
        n = X.shape[0]
        shuffled = rng.permutation(n)[: n // 2]
        repeated = np.array([3, 0, 3, n - 1, 3, 0])
        empty = np.array([], dtype=np.int64)
        mask = np.arange(n) % 3 == 1
        for rows in (shuffled, repeated, empty, list(repeated), mask):
            assert np.array_equal(vectorizer.view(rows).matrix(table), X[rows])
        assert vectorizer.view(empty).matrix(table).shape == (0, X.shape[1])

    def test_view_serves_every_table_of_a_pair(self, tiny_model, rng):
        """A view's matrices are the rows of the full ones, in any order of
        tables, and a view of a view picks rows of its rows."""
        docs = self._random_docs(rng, tiny_model)
        corpus = from_token_lists(
            [d.tokens for d in docs], [i % 2 for i in range(len(docs))], ["A", "B"]
        )
        vectorizer = CorpusVectorizer(corpus.documents, tiny_model, counts=corpus.token_counts())
        stats = build_stats(corpus, doc_subset=range(0, len(docs), 2))
        rows = rng.permutation(len(docs))[:12]
        view = vectorizer.view(rows)
        for scheme in ("kld", "tftrr", "tfcr", "tfidf", "none", "tfcr", "kld"):
            table = build_table(stats, scheme)
            assert np.array_equal(view.matrix(table), vectorizer.matrix(table)[rows])
        # Same words, fewer pairs: the view orders this table's own pairs.
        pairs = table.weights.toarray()
        pairs[:, 0] = 0.0
        sparser = WeightTable("kld", table.categories, table.terms, table.term_ids,
                              sp.csr_matrix(pairs))
        fresh = CorpusVectorizer(corpus.documents, tiny_model, counts=corpus.token_counts())
        assert np.array_equal(view.matrix(sparser), fresh.matrix(sparser)[rows])
        inner = np.array([4, 0, 4, 11])
        expected = vectorizer.matrix(table)[rows[inner]]
        assert np.array_equal(view.view(inner).matrix(table), expected)
        assert np.array_equal(view.view(inner).known_token_counts,
                              vectorizer.known_token_counts[rows[inner]])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.usefixtures("gate")
    def test_table_numbering_does_not_change_bits(self, scheme, tiny_model, rng):
        """A table over the corpus count columns is gathered; the same table
        over another numbering of its words is matched word by word.  Both
        give the same bits."""
        docs = self._random_docs(rng, tiny_model)
        corpus = from_token_lists(
            [d.tokens for d in docs], [i % 2 for i in range(len(docs))], ["A", "B"]
        )
        vectorizer = CorpusVectorizer(corpus.documents, tiny_model, counts=corpus.token_counts())
        table = build_table(build_stats(corpus), scheme, alpha=1.5)
        flip = np.arange(len(table.term_ids))[::-1]
        renumbered = WeightTable(
            scheme, table.categories, table.terms[::-1],
            (len(table.terms) - 1 - table.term_ids)[flip],
            None if table.weights is None else table.weights[flip],
            None if table.idf is None else table.idf[flip],
            table.alpha,
        )
        assert renumbered.words == table.words[::-1]
        assert np.array_equal(vectorizer.matrix(renumbered), vectorizer.matrix(table))

    def test_embedding_rows_shared_when_the_corpus_knows_them_all(self, toy_corpus, tiny_model):
        every = from_token_lists([list(tiny_model.words)], [0], ["A"])
        assert for_terms(tiny_model, every.token_counts().terms) is tiny_model
        some = for_terms(tiny_model, toy_corpus.token_counts().terms)
        assert len(some) < len(tiny_model)
        rows = [tiny_model.word_ids[w] for w in some.words]
        assert np.array_equal(some.vectors, tiny_model.vectors[rows])

    def test_given_counts_match_and_stay_untouched(self, toy_corpus, tiny_model, rng):
        docs = self._random_docs(rng, tiny_model)
        corpus = from_token_lists([d.tokens for d in docs], [None] * len(docs), [])
        counts = corpus.token_counts()
        before = (counts.terms, counts.matrix.indices.copy(), counts.matrix.data.copy())
        given = CorpusVectorizer(docs, tiny_model, counts=counts)
        own = CorpusVectorizer(docs, tiny_model)
        for scheme in SCHEMES:
            table = build_table(build_stats(toy_corpus), scheme)
            assert np.array_equal(given.matrix(table), own.matrix(table))
        assert np.array_equal(given.known_token_counts, own.known_token_counts)
        assert counts.terms == before[0]
        assert np.array_equal(counts.matrix.indices, before[1])
        assert np.array_equal(counts.matrix.data, before[2])

    def test_known_token_counts(self, tiny_model, rng):
        docs = self._random_docs(rng, tiny_model)
        vectorizer = CorpusVectorizer(docs, tiny_model)
        for i, doc in enumerate(docs):
            expected = sum(t in tiny_model.word_ids for t in doc.tokens)
            assert vectorizer.known_token_counts[i] == expected

    def test_document_order_invariance(self, toy_corpus, tiny_model, rng):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        docs = self._random_docs(rng, tiny_model)
        X = CorpusVectorizer(docs, tiny_model).matrix(table)
        perm = rng.permutation(len(docs))
        X_perm = CorpusVectorizer([docs[i] for i in perm], tiny_model).matrix(table)
        np.testing.assert_allclose(X_perm, X[perm], rtol=1e-12, atol=1e-15)

    @pytest.mark.usefixtures("gate")
    def test_case_fallback_parity(self, toy_corpus):
        model = synthetic_model(["win", "game"], 4, seed=11)
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        docs = [Document(tokens=("WIN", "Game", "win"), label=None, source_id="x")]
        # Weighted schemes give surface-cased tokens weight 0 regardless:
        # only "win" is weighed, in both category slices.
        embedding = for_terms(model, count_tokens(docs).terms, case_fallback=True)
        X = CorpusVectorizer(docs, embedding).matrix(table)
        np.testing.assert_allclose(
            X[0], np.concatenate([model.vectors[model.word_ids["win"]]] * 2), rtol=1e-12
        )
        # Without the fallback the cased tokens are OOV; under the
        # unweighted scheme this changes the mean.
        win = model.vectors[model.word_ids["win"]].tolist()
        game = model.vectors[model.word_ids["game"]].tolist()
        none_table = build_table(stats, "none")
        with_fb = CorpusVectorizer(docs, embedding).matrix(none_table)
        bare = CorpusVectorizer(docs, model).matrix(none_table)
        np.testing.assert_allclose(
            with_fb[0], oracle_weighted_mean([1, 1, 1], [win, game, win], 4), rtol=1e-12
        )
        np.testing.assert_allclose(bare[0], win, rtol=1e-12)
        assert not np.array_equal(with_fb[0], bare[0])

    @pytest.mark.usefixtures("gate")
    def test_case_fallback_ties_follow_the_term(self):
        # "Apple", "APPLE" and "apple" all resolve to the one "apple" row.
        model = _emb({"pear": (0.3, -1.7), "apple": (0.1, 0.7), "fig": (-2.9, 0.013)})
        token_lists = [
            ["apple", "Fig", "APPLE", "pear", "Apple", "apple"],
            ["Apple", "fig", "APPLE", "APPLE", "Fig", "Fig", "Fig"],
            ["APPLE", "kiwi"],
            ["Kiwi"],
        ]
        docs = from_token_lists(token_lists, [None] * 4, []).documents
        counts = count_tokens(docs)
        known = oracle_for_terms(model.words, counts.terms, case_fallback=True)
        order = [term for _, term in known]
        assert order == ["pear", "APPLE", "Apple", "apple", "Fig", "fig"]
        vectorizer = CorpusVectorizer(docs, for_terms(model, counts.terms, case_fallback=True))
        assert vectorizer.model.words == tuple(order)
        weight = {"pear": 0.5, "APPLE": 3.0, "Apple": 0.25, "apple": 1.5, "Fig": 0.75, "fig": 2.0}
        table = _cat_table({t: (weight[t], 1.0) for t in order})
        X = vectorizer.matrix(table)
        for i, tokens in enumerate(token_lists):
            tf = [tokens.count(t) for t in order]
            vectors = [model.vectors[row].tolist() for row, _ in known]
            for c, weight_of in enumerate((weight.__getitem__, lambda t: 1.0)):
                weights = [n * weight_of(t) for n, t in zip(tf, order)]
                expected = oracle_weighted_mean(weights, vectors, 2)
                assert X[i, 2 * c : 2 * c + 2].tolist() == expected

    @pytest.mark.usefixtures("gate")
    def test_empty_corpus(self, toy_corpus, tiny_model):
        table = build_table(build_stats(toy_corpus), "tfcr")
        X = CorpusVectorizer([], tiny_model).matrix(table)
        assert X.shape == (0, 16)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_both_formulations_give_the_same_bits(self, scheme, tiny_model, rng):
        """The per-category loop is the reference for the one sparse
        product: over whole corpora and views, with repeated terms, empty
        and all-unknown documents, the two give equal bits."""
        docs = self._random_docs(rng, tiny_model, n=60)
        corpus = from_token_lists(
            [d.tokens for d in docs], [i % 3 for i in range(len(docs))], ["A", "B", "C"]
        )
        table = build_table(build_stats(corpus, doc_subset=range(0, len(docs), 2)), scheme,
                            alpha=1.5)
        vectorizer = CorpusVectorizer(corpus.documents, tiny_model, counts=corpus.token_counts())
        for view in (vectorizer, vectorizer.view(rng.permutation(len(docs))[:7]),
                     vectorizer.view([len(docs) - 1]), vectorizer.view([])):
            X = {}
            for gate in (0, 10**12):
                with mock.patch.object(vectorize, "_PRODUCT_GATE", gate):
                    X[gate] = view.matrix(table)
            assert X[0].tobytes() == X[10**12].tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_product_adds_in_scipy_order(self, scheme, d, rng):
        """The numpy product adds each sum's terms one after another from
        zero, as scipy's products do: with one embedding column (which
        numpy's own sum adds pairwise), with magnitudes that make the order
        show and with rows of negative zeros (whose sum from zero is 0.0),
        its bits equal the per-category loop's."""
        words = [f"w{i}" for i in range(40)]
        vectors = rng.normal(size=(40, d)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))
        vectors[:6] = -0.0
        model = EmbeddingModel(tuple(words), vectors)
        token_lists = [[words[i] for i in rng.integers(0, 40, int(rng.integers(0, 30)))]
                       for _ in range(60)] + [words[:6] * 2]
        corpus = from_token_lists(token_lists, [i % 3 for i in range(61)], ["A", "B", "C"])
        table = build_table(build_stats(corpus, doc_subset=range(0, 61, 2)), scheme, alpha=1.5)
        vectorizer = CorpusVectorizer(corpus.documents, model, counts=corpus.token_counts())
        X = {}
        for gate in (0, 10**12):
            with mock.patch.object(vectorize, "_PRODUCT_GATE", gate):
                X[gate] = vectorizer.matrix(table)
        assert X[0].tobytes() == X[10**12].tobytes()

    def test_gate_picks_the_formulation(self, toy_corpus, tiny_model):
        """Fewer than ``_PRODUCT_GATE`` (document, category, term) products
        take the one product and make no ``_numerator`` call; more take
        the loop, one call per category.  tftrr's floor numerator is one
        more category of the one product, and one more call in the loop."""
        doc = toy_corpus.documents[0]  # 5 terms: 6 nonzero (term, category) weights
        real = CorpusVectorizer._numerator
        below = (vectorize._PRODUCT_GATE - 1) // 6
        for scheme, floor_calls in (("tfcr", 0), ("tftrr", 1)):
            table = build_table(build_stats(toy_corpus), scheme)
            X, calls = [], []
            for copies in (1, below, below + 1):
                with mock.patch.object(CorpusVectorizer, "_numerator", autospec=True,
                                       side_effect=real) as numerator:
                    X.append(CorpusVectorizer([doc] * copies, tiny_model).matrix(table))
                calls.append(numerator.call_count)
            assert calls == [0, 0, floor_calls + 2]
            one_line, many, above = X
            assert np.array_equal(many, np.tile(one_line, (below, 1)))
            assert np.array_equal(above, np.tile(one_line, (below + 1, 1)))

    def test_loop_holds_one_category_of_temporaries(self):
        """Beyond X, the per-category loop holds one category's numerator,
        counts and embedding rows at a time, not the last category's as
        well.  Calibrated on this corpus's tfcr matrix: 3.8 numerators'
        bytes beyond X, against 5.8 when the loop kept the last ones alive."""
        n, d = 600, 32
        corpus = separable_corpus(num_docs=n, num_categories=4, keywords_per_category=20,
                                  shared_vocab_size=300, doc_length=40, seed=1)
        model = synthetic_model(sorted(corpus.token_counts().terms), d, seed=2)
        table = build_table(build_stats(corpus, doc_subset=range(0, n, 3)), "tfcr")
        vectorizer = CorpusVectorizer(corpus.documents, model, counts=corpus.token_counts())
        vectorizer._counts(False)  # built before tracing
        with mock.patch.object(vectorize, "_PRODUCT_GATE", 0):
            tracemalloc.start()
            try:
                X = vectorizer.matrix(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - X.nbytes < 4.8 * n * d * 8

    def test_log_counts_take_one_log_per_distinct_count(self, tiny_model):
        """``1 + ln tf`` is taken once per distinct count, with
        ``math.log``'s bits: a count of a million costs one log, not a
        table of a million (whose build held over 30 MB at the parent of
        this bound)."""
        words = ("win", "game", "team")
        counts = TokenCounts(words, sp.csr_matrix(np.array([[10**6, 3, 0], [1, 3, 7]])))
        table = _cat_table({"win": [1.0, 2.0], "game": [0.5, 1.0], "team": [1.0, 0.0]},
                           scheme="tftrr")
        tracemalloc.start()
        try:
            vectorizer = CorpusVectorizer([], tiny_model, counts=counts)
            X = vectorizer.matrix(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        logs = vectorizer._counts(True)[0]
        ids = tiny_model.word_ids
        expected = {  # document -> word -> 1 + ln tf
            0: {"win": 1.0 + math.log(10**6), "game": 1.0 + math.log(3)},
            1: {"win": 1.0, "game": 1.0 + math.log(3), "team": 1.0 + math.log(7)},
        }
        for i, row in expected.items():
            got = {tiny_model.words[vectorizer._rows[j]]: v for j, v in
                   zip(logs[i].indices.tolist(), logs[i].data.tolist())}
            assert got == row
            # The mean over the category-0 factors weighed by those counts.
            weights = [row[w] * table_weight(table, w, 0) for w in row]
            vectors = [tiny_model.vectors[ids[w]].tolist() for w in row]
            assert X[i, :8] == pytest.approx(oracle_weighted_mean(weights, vectors, 8),
                                             rel=1e-12)
