from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catweight import (
    DEFAULT_ALPHA,
    StatsError,
    build_stats,
    build_table,
    from_token_lists,
    make_splits,
    stats_summary,
)
from oracles import naive_counts, random_corpus, table_weight


def _hand_corpus():
    return from_token_lists(
        [["x", "x", "y"], ["y", "z"]],
        [0, 1],
        ["A", "B"],
    )


def _count(stats, word, c):
    """Occurrences of ``word`` in category ``c`` (0 when unseen)."""
    words = stats.words
    return int(stats.occurrences[words.index(word), c]) if word in words else 0


def _draw_corpus(rng):
    token_lists, labels, num_categories = random_corpus(rng)
    corpus = from_token_lists(
        token_lists, labels, [f"c{j}" for j in range(num_categories)]
    )
    return corpus, token_lists, labels, num_categories


def _assert_matches_oracle(stats, token_lists, labels, num_categories, min_count):
    """``stats`` equals a naive recount of these documents, with the words
    below ``min_count`` dropped from the oracle's totals."""
    oracle = naive_counts(token_lists, labels, num_categories)
    pruned = {w for w, n in oracle["word_total"].items() if n < min_count}
    # Words are count-column ids, increasing; no word appears twice.
    assert np.all(np.diff(stats.term_ids) > 0)
    assert set(stats.words) == set(oracle["word_total"]) - pruned
    for wid, w in enumerate(stats.words):
        assert stats.word_totals[wid] == oracle["word_total"][w]
        assert stats.doc_freq[wid] == oracle["doc_freq"][w]
        for c in range(num_categories):
            assert stats.occurrences[wid, c] == oracle["word_cat"].get((w, c), 0)
    for c in range(num_categories):
        dropped = sum(oracle["word_cat"].get((w, c), 0) for w in pruned)
        assert stats.category_tokens[c] == oracle["cat_tokens"][c] - dropped
    assert stats.num_docs == oracle["num_docs"]


class TestBuildStats:
    def test_hand_counts(self):
        stats = build_stats(_hand_corpus())
        assert _count(stats, "x", 0) == 2
        assert _count(stats, "x", 1) == 0
        assert _count(stats, "y", 0) == 1
        assert _count(stats, "y", 1) == 1
        assert stats.category_tokens.tolist() == [3, 2]
        y, x = stats.words.index("y"), stats.words.index("x")
        assert stats.word_totals[y] == 2
        assert stats.doc_freq[y] == 2
        assert stats.doc_freq[x] == 1
        assert stats.num_docs == 2
        assert stats.total_tokens - stats.category_tokens[0] == 2
        assert stats.total_tokens - stats.category_tokens[1] == 3

    def test_unseen_word_counts_zero(self):
        stats = build_stats(_hand_corpus())
        assert _count(stats, "missing", 0) == 0

    def test_matches_naive_recount(self, rng):
        for _ in range(30):
            corpus, token_lists, labels, num_categories = _draw_corpus(rng)
            _assert_matches_oracle(
                build_stats(corpus), token_lists, labels, num_categories, 1
            )
            # Training subsets as the harness draws them: the k-1 training
            # folds (sorted) and a nested ladder sample (shuffled order).
            k = int(rng.integers(2, min(5, len(corpus)) + 1))
            plan = make_splits(corpus, k, seed=int(rng.integers(1 << 30)))
            fold = int(rng.integers(k))
            size = int(rng.integers(1, len(plan.ladder_order) + 1))
            for subset in (plan.train_indices(fold), plan.ladder_sample(size)):
                for min_count in (1, 2, 3):
                    stats = build_stats(corpus, doc_subset=subset, min_count=min_count)
                    _assert_matches_oracle(
                        stats,
                        [token_lists[i] for i in subset],
                        [labels[i] for i in subset],
                        num_categories,
                        min_count,
                    )

    def test_internal_consistency_invariants(self, rng):
        for _ in range(10):
            stats = build_stats(_draw_corpus(rng)[0])
            dense = stats.occurrences.toarray()
            assert np.array_equal(dense.sum(axis=1), stats.word_totals)
            assert np.array_equal(dense.sum(axis=0), stats.category_tokens)
            assert np.all(stats.doc_freq >= 1)
            assert np.all(stats.doc_freq <= stats.num_docs)
            assert np.all(stats.doc_freq <= stats.word_totals)

    def test_subset_additivity(self, rng):
        corpus = _draw_corpus(rng)[0]
        n = len(corpus.documents)
        half = n // 2
        full = build_stats(corpus)
        left = build_stats(corpus, doc_subset=range(half))
        right = build_stats(corpus, doc_subset=range(half, n))

        for wid, w in enumerate(full.words):
            for c in range(full.num_categories):
                assert full.occurrences[wid, c] == _count(left, w, c) + _count(right, w, c)
        assert np.array_equal(
            full.category_tokens, left.category_tokens + right.category_tokens
        )
        assert full.num_docs == left.num_docs + right.num_docs

    def test_empty_token_doc_counts_toward_num_docs_only(self):
        corpus = from_token_lists([["a"], []], [0, 0], ["only"])
        stats = build_stats(corpus)
        assert stats.num_docs == 2
        assert stats.total_tokens == 1
        assert stats.vocab_size == 1

    def test_empty_subset_rejected(self):
        with pytest.raises(StatsError, match="empty"):
            build_stats(_hand_corpus(), doc_subset=[])

    def test_unlabeled_doc_named(self):
        corpus = from_token_lists([["a"], ["b"]], [0, None], ["only"])
        with pytest.raises(StatsError, match="doc1"):
            build_stats(corpus)

    def test_subset_restricts_counts(self):
        stats = build_stats(_hand_corpus(), doc_subset=[0])
        assert stats.num_docs == 1
        assert "z" not in stats.words
        assert stats.category_tokens.tolist() == [3, 0]

    def test_min_count_prunes_and_recomputes_denominators(self):
        corpus = from_token_lists(
            [["a", "a", "a", "b"], ["a", "c", "c"]],
            [0, 1],
            ["A", "B"],
        )
        stats = build_stats(corpus, min_count=2)
        assert set(stats.words) == {"a", "c"}
        # b's single token is gone from the category totals too.
        assert stats.category_tokens.tolist() == [3, 3]
        assert _count(stats, "b", 0) == 0

    def test_min_count_one_is_identity(self, rng):
        corpus = _draw_corpus(rng)[0]
        a = build_stats(corpus, min_count=1)
        b = build_stats(corpus)
        assert a.words == b.words
        assert np.array_equal(a.word_totals, b.word_totals)

    @settings(deadline=None, max_examples=30)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_total_tokens_property(self, docs, data):
        labels = [data.draw(st.integers(0, 1)) for _ in docs]
        corpus = from_token_lists(docs, labels, ["p", "q"])
        stats = build_stats(corpus)
        assert stats.total_tokens == sum(len(d) for d in docs)


def _ratio(stats, word, c):
    """P(w|c) / Q(w|r) as build_table computes it, read back from the
    tftrr factor ln(P / Q + alpha)."""
    return math.exp(table_weight(build_table(stats, "tftrr"), word, c)) - DEFAULT_ALPHA


class TestProbabilities:
    """The category and remainder probabilities inside build_table."""

    def test_category_prob_hand_values(self):
        stats = build_stats(_hand_corpus())
        # P(x|A) = 2/3 against the substituted Q = 1/(N_r + 1) = 1/3.
        assert _ratio(stats, "x", 0) == pytest.approx((2 / 3) / (1 / 3))
        # P(y|B) = 1/2 against Q(y|A) = 1/3.
        assert _ratio(stats, "y", 1) == pytest.approx((1 / 2) / (1 / 3))
        for scheme in ("kld", "tftrr", "tfcr"):
            table = build_table(stats, scheme)
            assert table_weight(table, "z", 0) == 0.0
            assert table_weight(table, "unseen", 0) == 0.0

    def test_remainder_prob_hand_values(self):
        stats = build_stats(_hand_corpus())
        # y occurs once outside A; remainder of A holds 2 tokens.
        assert _ratio(stats, "y", 0) == pytest.approx((1 / 3) / (1 / 2))
        kld = build_table(stats, "kld")
        assert table_weight(kld, "y", 1) == pytest.approx(0.5 * math.log(1.5))

    def test_remainder_symmetric_categories(self):
        corpus = from_token_lists(
            [["u", "v"], ["u", "v"]],
            [0, 1],
            ["A", "B"],
        )
        stats = build_stats(corpus)
        for scheme in ("kld", "tftrr", "tfcr"):
            table = build_table(stats, scheme)
            assert table_weight(table, "u", 0) == table_weight(table, "u", 1)

    def test_category_prob_sums_to_one(self, rng):
        for _ in range(5):
            stats = build_stats(_draw_corpus(rng)[0])
            for c in range(stats.num_categories):
                if stats.category_tokens[c] == 0:
                    continue
                column = stats.occurrences[:, c].toarray().ravel()
                total = sum(column / stats.category_tokens[c])
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_category_prob_is_zero(self):
        corpus = from_token_lists([["a"]], [0], ["A", "B"])
        stats = build_stats(corpus)
        for scheme in ("kld", "tftrr", "tfcr"):
            weights = build_table(stats, scheme).weights.toarray()
            assert np.all(np.isfinite(weights))
            assert weights[stats.words.index("a"), 1] == 0.0


class TestSummary:
    def test_snapshot_fields(self):
        summary = stats_summary(build_stats(_hand_corpus()))
        assert summary["num_docs"] == 2
        assert summary["vocab_size"] == 3
        assert summary["total_tokens"] == 5
        assert summary["category_tokens"] == {"A": 3, "B": 2}
