from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catweight import (
    DEFAULT_ALPHA,
    SCHEMES,
    CorpusVectorizer,
    EmbeddingModel,
    build_stats,
    build_table,
    export_weights,
    from_token_lists,
    table_payload,
    top_k,
)
from oracles import (
    naive_counts,
    oracle_idf,
    oracle_kld,
    oracle_tfcr,
    oracle_trr_factor,
    random_corpus,
    table_idf,
    table_weight,
)


def _symmetric_corpus():
    """P(u|A) = Q(u|r) = 1/2 for both words and both categories."""
    return from_token_lists([["u", "v"], ["u", "v"]], [0, 1], ["A", "B"])


def _stats_from_random(rng):
    token_lists, labels, num_categories = random_corpus(rng)
    corpus = from_token_lists(
        token_lists, labels, [f"c{j}" for j in range(num_categories)]
    )
    stats = build_stats(corpus)
    counts = naive_counts(token_lists, labels, num_categories)
    return stats, counts


def _weight(stats, scheme, word, c):
    return table_weight(build_table(stats, scheme), word, c)


def _tftrr_weights(stats, tokens, c):
    """Composed tftrr weights of one document in category slice c, as
    ``CorpusVectorizer.matrix`` forms them, normalized to sum 1.

    One-hot embeddings make the slice the weight vector itself, in
    first-appearance order of the distinct tokens.
    """
    words = list(dict.fromkeys(tokens))
    model = EmbeddingModel(tuple(words), np.eye(len(words)))
    doc = from_token_lists([tokens], [0], stats.categories).documents
    X = CorpusVectorizer(doc, model).matrix(build_table(stats, "tftrr"))
    d = len(words)
    return X[0, c * d : (c + 1) * d]


class TestTfcr:
    def test_hand_values(self, toy_corpus):
        stats = build_stats(toy_corpus)
        assert _weight(stats, "tfcr", "win", 0) == pytest.approx(0.32, abs=1e-12)
        assert _weight(stats, "tfcr", "win", 1) == pytest.approx(0.01, abs=1e-12)

    def test_absent_and_unseen_are_zero(self, toy_corpus):
        stats = build_stats(toy_corpus)
        assert _weight(stats, "tfcr", "market", 0) == 0.0
        assert _weight(stats, "tfcr", "never-seen", 0) == 0.0

    def test_identity_case(self):
        corpus = from_token_lists([["w", "w", "w"]], [0], ["only"])
        stats = build_stats(corpus)
        assert _weight(stats, "tfcr", "w", 0) == 1.0

    def test_bounded_by_tf_and_cr(self, rng):
        for _ in range(10):
            stats, counts = _stats_from_random(rng)
            table = build_table(stats, "tfcr")
            for wid, w in enumerate(stats.words):
                total = int(stats.word_totals[wid])
                for c in range(stats.num_categories):
                    wc = int(stats.occurrences[wid, c])
                    if wc == 0:
                        continue
                    value = table_weight(table, w, c)
                    tf = wc / int(stats.category_tokens[c])
                    cr = wc / total
                    assert 0.0 <= value <= min(tf, cr) + 1e-15
                    assert value <= 1.0

    def test_category_ratios_sum_to_one(self, rng):
        for _ in range(10):
            stats, _ = _stats_from_random(rng)
            for wid, w in enumerate(stats.words):
                total = int(stats.word_totals[wid])
                cr_sum = sum(
                    int(stats.occurrences[wid, c]) / total
                    for c in range(stats.num_categories)
                )
                assert cr_sum == pytest.approx(1.0, abs=1e-12)

    def test_duplication_invariance_exact(self, rng):
        token_lists, labels, num_categories = random_corpus(rng, max_docs=40)
        cats = [f"c{j}" for j in range(num_categories)]
        base = build_table(build_stats(from_token_lists(token_lists, labels, cats)), "tfcr")
        doubled = build_table(
            build_stats(from_token_lists(token_lists * 2, labels * 2, cats)), "tfcr"
        )
        for w in base.words:
            for c in range(num_categories):
                assert table_weight(base, w, c) == table_weight(doubled, w, c)

    def test_exclusive_word_monotone_in_frequency(self):
        def value(k):
            tokens = ["excl"] * k + ["pad"] * 10
            corpus = from_token_lists([tokens, ["other"] * 5], [0, 1], ["A", "B"])
            return _weight(build_stats(corpus), "tfcr", "excl", 0)

        values = [value(k) for k in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestKld:
    def test_hand_value(self, toy_corpus):
        stats = build_stats(toy_corpus)
        assert _weight(stats, "kld", "win", 0) == pytest.approx(
            0.4 * math.log(8), abs=1e-12
        )
        assert _weight(stats, "kld", "win", 0) == pytest.approx(0.83178, abs=1e-5)

    def test_equal_distributions_zero(self):
        stats = build_stats(_symmetric_corpus())
        assert _weight(stats, "kld", "u", 0) == 0.0

    def test_absent_word_zero(self, toy_corpus):
        stats = build_stats(toy_corpus)
        assert _weight(stats, "kld", "market", 0) == 0.0

    def test_zero_remainder_substitution(self, toy_corpus):
        # "game" is exclusive to A: Q = 0 is replaced by 1/(N_r + 1) = 1/21.
        stats = build_stats(toy_corpus)
        expected = 0.2 * math.log(0.2 * 21)
        assert _weight(stats, "kld", "game", 0) == pytest.approx(expected, abs=1e-12)

    def test_negative_clamped(self, toy_corpus):
        stats = build_stats(toy_corpus)
        # win in B: P = 0.05 < Q = 0.4, so P ln(P / Q) = 0.05 ln(0.125) < 0.
        assert 0.05 * math.log(0.125) < 0.0
        assert _weight(stats, "kld", "win", 1) == 0.0


class TestTrrFactor:
    def test_hand_value(self, toy_corpus):
        stats = build_stats(toy_corpus)
        assert _weight(stats, "tftrr", "win", 0) == pytest.approx(
            math.log(9.2), abs=1e-12
        )
        assert _weight(stats, "tftrr", "win", 0) == pytest.approx(2.21920, abs=1e-5)

    def test_equal_ratio(self):
        stats = build_stats(_symmetric_corpus())
        assert _weight(stats, "tftrr", "u", 0) == pytest.approx(
            math.log(2.2), abs=1e-12
        )
        assert _weight(stats, "tftrr", "u", 0) == pytest.approx(0.78846, abs=1e-5)

    def test_absent_word_floor(self, toy_corpus):
        # The table leaves the absent pair at 0; the vectorizer applies
        # the floor ln(alpha) there (see TestTftrr.test_floor_composition).
        table = build_table(build_stats(toy_corpus), "tftrr")
        assert table_weight(table, "market", 0) == 0.0
        assert math.log(table.alpha) == pytest.approx(0.18232, abs=1e-5)

    def test_always_positive(self, rng):
        floor = math.log(DEFAULT_ALPHA)
        for _ in range(10):
            stats, _ = _stats_from_random(rng)
            table = build_table(stats, "tftrr")
            for wid, w in enumerate(stats.words):
                for c in range(stats.num_categories):
                    if stats.occurrences[wid, c] > 0:
                        assert table_weight(table, w, c) >= floor > 0.0


class TestTftrr:
    """The composed weight (ln tf + 1) * factor, read from the matrix."""

    def test_tf_one_is_factor(self, toy_corpus):
        stats = build_stats(toy_corpus)
        w_win, w_game = _tftrr_weights(stats, ["win", "game"], 0)
        assert w_win / w_game == pytest.approx(
            _weight(stats, "tftrr", "win", 0) / _weight(stats, "tftrr", "game", 0),
            rel=1e-12,
        )

    def test_log_scaled_tf(self):
        stats = build_stats(_symmetric_corpus())
        # v has tf 1, so its composed weight is the bare factor ln 2.2.
        w_u, w_v = _tftrr_weights(stats, ["u", "u", "u", "v"], 0)
        composed = w_u / w_v * _weight(stats, "tftrr", "v", 0)
        expected = (math.log(3) + 1.0) * math.log(2.2)
        assert composed == pytest.approx(expected, abs=1e-12)
        # (ln 3 + 1) * ln 2.2 = 1.65467 to five decimals.
        assert composed == pytest.approx(1.65467, abs=1e-5)

    def test_floor_composition(self, toy_corpus):
        stats = build_stats(toy_corpus)
        # market never occurs in A: at tf 1 it weighs the floor ln(1.2).
        w_market, w_game = _tftrr_weights(stats, ["market", "game"], 0)
        composed = w_market / w_game * _weight(stats, "tftrr", "game", 0)
        assert composed == pytest.approx(0.18232, abs=1e-5)


class TestIdf:
    def test_hand_value(self):
        # 10 documents, "rare" in exactly two of them, tf 3.
        docs = [["rare", "pad"], ["rare"]] + [["pad"]] * 8
        table = build_table(build_stats(from_token_lists(docs, [0] * 10, ["only"])), "tfidf")
        assert table_idf(table, "rare") == pytest.approx(math.log(5), abs=1e-12)
        assert 3 * table_idf(table, "rare") == pytest.approx(3 * math.log(5), abs=1e-12)
        assert 3 * table_idf(table, "rare") == pytest.approx(4.82831, abs=1e-5)

    def test_ubiquitous_word_zero(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfidf")
        assert table_idf(table, "win") == 0.0  # df = |D| = 2

    def test_unseen_word_zero(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfidf")
        assert "never-seen" not in table.words
        assert table_idf(table, "never-seen") == 0.0


def _assert_tables_match_oracles(stats, counts):
    """Every table entry of all four schemes equals the pointwise oracle."""
    tables = {s: build_table(stats, s) for s in ("tfidf", "kld", "tftrr", "tfcr")}
    for wid, w in enumerate(stats.words):
        assert table_idf(tables["tfidf"], w) == oracle_idf(counts, w)
        for c in range(stats.num_categories):
            assert table_weight(tables["tfcr"], w, c) == oracle_tfcr(counts, w, c)
            assert table_weight(tables["kld"], w, c) == oracle_kld(counts, w, c)
            # Absent pairs stay implicit zeros in the tftrr table;
            # the ln(alpha) floor is applied at vectorization.
            expected = (
                oracle_trr_factor(counts, w, c)
                if stats.occurrences[wid, c] > 0
                else 0.0
            )
            assert table_weight(tables["tftrr"], w, c) == expected


class TestPointwiseAgainstOracles:
    """Brute-force dict-based recomputation on random corpora, exactly."""

    def test_all_schemes_match(self, rng):
        for _ in range(20):
            _assert_tables_match_oracles(*_stats_from_random(rng))


class TestBuildTable:
    def test_toy_entries_match_pointwise(self):
        docs, labels = [["a", "b", "a"], ["b"]], [0, 1]
        counts = naive_counts(docs, labels, 2)
        table = build_table(build_stats(from_token_lists(docs, labels, ["A", "B"])), "tfcr")
        for w in ("a", "b"):
            for c in (0, 1):
                assert table_weight(table, w, c) == oracle_tfcr(counts, w, c)

    def test_every_entry_matches_pointwise(self, toy_corpus):
        """Every entry of all four schemes equals the pointwise oracle,
        exactly, on the toy corpus."""
        toy_docs = [list(d.tokens) for d in toy_corpus.documents]
        _assert_tables_match_oracles(
            build_stats(toy_corpus), naive_counts(toy_docs, [0, 1], 2)
        )

    def test_alpha_below_one_rejected(self, toy_corpus):
        stats = build_stats(toy_corpus)
        with pytest.raises(ValueError, match="alpha"):
            build_table(stats, "tftrr", alpha=0.5)
        with pytest.raises(ValueError, match="alpha"):
            build_table(stats, "tftrr", alpha=float("nan"))
        assert build_table(stats, "tftrr", alpha=1.0).alpha == 1.0

    def test_infinite_alpha_rejected(self, toy_corpus):
        stats = build_stats(toy_corpus)
        with pytest.raises(ValueError, match="alpha must be finite, got inf"):
            build_table(stats, "tftrr", alpha=float("inf"))

    def test_rebuild_identical(self, toy_corpus):
        stats = build_stats(toy_corpus)
        a = build_table(stats, "tfcr")
        b = build_table(stats, "tfcr")
        assert np.array_equal(a.weights.toarray(), b.weights.toarray())
        assert a.words == b.words

    def test_none_scheme_empty_marker(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "none")
        assert table.scheme == "none"
        assert table.weights is None and table.idf is None
        assert table_weight(table, "win", 0) == 0.0

    def test_unknown_scheme_rejected(self, toy_corpus):
        with pytest.raises(ValueError, match="tfcr"):
            build_table(build_stats(toy_corpus), "bm25")

    def test_unseen_word_zero_in_table(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfcr")
        assert table_weight(table, "never-seen", 0) == 0.0
        tfidf_table = build_table(build_stats(toy_corpus), "tfidf")
        assert table_idf(tfidf_table, "never-seen") == 0.0

    def test_invariant_ranges(self, rng):
        for _ in range(5):
            stats, _ = _stats_from_random(rng)
            tfcr = build_table(stats, "tfcr").weights.toarray()
            assert np.all(tfcr >= 0.0) and np.all(tfcr <= 1.0)
            kld = build_table(stats, "kld").weights.toarray()
            assert np.all(kld >= 0.0)
            idf = build_table(stats, "tfidf").idf
            assert np.all(idf >= 0.0)
            trr = build_table(stats, "tftrr").weights.toarray()
            materialized = trr[np.asarray(stats.occurrences.todense()) > 0]
            assert np.all(materialized >= math.log(DEFAULT_ALPHA))

    @settings(deadline=None, max_examples=40)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
            min_size=2,
            max_size=10,
        ),
        data=st.data(),
    )
    def test_property_entries_match_oracle(self, docs, data):
        labels = [data.draw(st.integers(0, 1)) for _ in docs]
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        counts = naive_counts(docs, labels, 2)
        stats = build_stats(from_token_lists(docs, labels, ["p", "q"]))
        for scheme, oracle in (("tfcr", oracle_tfcr), ("kld", oracle_kld)):
            table = build_table(stats, scheme)
            for w in stats.words:
                for c in (0, 1):
                    assert table_weight(table, w, c) == oracle(counts, w, c)


class TestTopK:
    def test_win_dominates_category_a(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfcr")
        word, weight = top_k(table, 0, 3)[0]
        assert word == "win"
        assert weight == pytest.approx(0.32, abs=1e-12)

    def test_k_exceeding_vocab_returns_all(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfcr")
        assert len(top_k(table, 0, 10_000)) == len(table.words)

    def test_ties_break_lexicographically(self):
        corpus = from_token_lists([["beta", "alpha"], ["other"]], [0, 1], ["A", "B"])
        table = build_table(build_stats(corpus), "tfcr")
        ranked = top_k(table, 0, 2)
        assert [w for w, _ in ranked] == ["alpha", "beta"]
        assert ranked[0][1] == ranked[1][1]

    def test_descending_order(self, rng):
        stats, _ = _stats_from_random(rng)
        table = build_table(stats, "kld")
        weights = [w for _, w in top_k(table, 0, len(table.words))]
        assert weights == sorted(weights, reverse=True)

    def test_tfidf_ranked_by_idf(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfidf")
        ranked = top_k(table, 0, 3)
        assert ranked == top_k(table, 1, 3)

    def test_errors(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfcr")
        with pytest.raises(ValueError):
            top_k(table, 5, 1)
        with pytest.raises(ValueError):
            top_k(table, 0, 0)
        with pytest.raises(ValueError):
            top_k(build_table(build_stats(toy_corpus), "none"), 0, 1)


def _assert_triples_are_the_table(triples, table):
    """Every nonzero entry of ``table`` appears exactly once, bit for bit."""
    seen = set()
    for word, name, value in triples:
        assert value == table_weight(table, word, table.categories.index(name))
        seen.add((word, name))
    assert len(seen) == len(triples) == np.count_nonzero(table.weights.data)


class TestSerialization:
    def test_json_round_trip_exact(self, toy_corpus):
        stats = build_stats(toy_corpus)
        for scheme in ("tfcr", "kld", "tftrr"):
            table = build_table(stats, scheme)
            buf = io.StringIO()
            export_weights(table, buf, fmt="json")
            buf.seek(0)
            parsed = json.load(buf)
            assert parsed["scheme"] == scheme
            assert tuple(parsed["categories"]) == table.categories
            _assert_triples_are_the_table(parsed["entries"], table)

    def test_tfidf_json_round_trip(self, toy_corpus):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfidf")
        buf = io.StringIO()
        export_weights(table, buf, fmt="json")
        buf.seek(0)
        entries = json.load(buf)["entries"]
        assert sorted(w for w, _ in entries) == sorted(stats.words)
        for word, value in entries:
            assert value == table_idf(table, word)

    def test_tsv_17_digit_round_trip(self, toy_corpus):
        stats = build_stats(toy_corpus)
        table = build_table(stats, "tfcr")
        buf = io.StringIO()
        export_weights(table, buf, fmt="tsv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "word\tcategory\tweight"
        seen = 0
        for line in lines[1:]:
            word, cat, value = line.split("\t")
            c = table.categories.index(cat)
            assert float(value) == table_weight(table, word, c)
            seen += 1
        nonzero = np.count_nonzero(table.weights.data)
        assert seen == nonzero

    def test_tsv_tfidf_has_no_category_column(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "tfidf")
        buf = io.StringIO()
        export_weights(table, buf, fmt="tsv")
        assert buf.getvalue().splitlines()[0] == "word\tidf"

    def test_entries_sorted_by_category_then_weight(self, toy_corpus):
        payload = table_payload(build_table(build_stats(toy_corpus), "tfcr"))
        entries = payload["entries"]
        cat_sequence = [cat for _, cat, _ in entries]
        assert cat_sequence == sorted(cat_sequence, key=("A", "B").index)
        for name in ("A", "B"):
            weights = [v for _, cat, v in entries if cat == name]
            assert weights == sorted(weights, reverse=True)
            assert all(v != 0.0 for v in weights)

    def test_payload_top_limits_per_category(self, toy_corpus):
        payload = table_payload(build_table(build_stats(toy_corpus), "tfcr"), top=1)
        assert len(payload["entries"]) == 2  # one per category
        assert payload["entries"][0][0] == "win"

    def test_payload_round_trip_random(self, rng):
        stats, _ = _stats_from_random(rng)
        table = build_table(stats, "tftrr")
        payload = json.loads(json.dumps(table_payload(table)))
        _assert_triples_are_the_table(payload["entries"], table)
        assert payload["alpha"] == table.alpha

    def test_json_payload_is_valid_json(self, toy_corpus):
        table = build_table(build_stats(toy_corpus), "kld")
        buf = io.StringIO()
        export_weights(table, buf, fmt="json")
        parsed = json.loads(buf.getvalue())
        assert parsed["scheme"] == "kld"

    def test_export_errors(self, toy_corpus):
        stats = build_stats(toy_corpus)
        with pytest.raises(ValueError):
            export_weights(build_table(stats, "none"), io.StringIO())
        with pytest.raises(ValueError):
            export_weights(build_table(stats, "tfcr"), io.StringIO(), fmt="xml")


def test_scheme_registry():
    assert SCHEMES == ("none", "tfidf", "kld", "tftrr", "tfcr")
    assert DEFAULT_ALPHA == 1.2
