from __future__ import annotations

import csv
import gc
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catweight import (
    IngestionError,
    SplitError,
    from_token_lists,
    load_20ng,
    load_csv,
    load_jsonl,
    make_splits,
    sample,
    tokenize,
)
from catweight.corpus import _SEPARATORS, Document, count_tokens
from oracles import oracle_count_tokens, oracle_stratified_folds, oracle_tokenize


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("Great, movie!") == ("great", "movie")

    def test_empty_string(self):
        assert tokenize("") == ()

    def test_preserve_case(self):
        assert tokenize("Word2Vec-style TEXT", preserve_case=True) == ("Word2Vec", "style", "TEXT")

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ("snake", "case")

    def test_numbers_kept(self):
        assert tokenize("win 20 games") == ("win", "20", "games")

    @pytest.mark.parametrize(
        "text, lowered, cased",
        [
            ("a_b __c_", ("a", "b", "c"), ("a", "b", "c")),
            # A combining mark is no alphanumeric: it ends a token.
            ("Cafe\u0301 nai\u0308ve", ("cafe", "nai", "ve"), ("Cafe", "nai", "ve")),
            # Arabic-Indic and Devanagari digits are alphanumeric.
            ("x\u0661\u0662 \u0967\u0968-y", ("x\u0661\u0662", "\u0967\u0968", "y"),
             ("x\u0661\u0662", "\u0967\u0968", "y")),
            # "İ" lowercases to "i" plus a combining dot, which splits.
            ("İstanbul", ("i", "stanbul"), ("İstanbul",)),
        ],
    )
    def test_unicode_runs(self, text, lowered, cased):
        assert tokenize(text) == lowered == oracle_tokenize(text)
        assert tokenize(text, True) == cased == oracle_tokenize(text, preserve_case=True)

    @given(
        st.text(
            st.one_of(st.characters(), st.sampled_from("_İ\u0307\u0301\u0661\u0967 .aZ9")),
            max_size=80,
        ),
        st.booleans(),
    )
    def test_matches_regex_oracle(self, text, preserve_case):
        assert tokenize(text, preserve_case) == oracle_tokenize(text, preserve_case)

    def test_every_code_point_and_a_bounded_memo(self):
        # Tokens match the regex over every code point, while the shared
        # translate table remembers the Basic Multilingual Plane only.
        text = " ".join(map(chr, range(sys.maxunicode + 1)))
        for preserve_case in (False, True):
            assert tokenize(text, preserve_case) == oracle_tokenize(text, preserve_case)
        assert 0 < len(_SEPARATORS) <= 0x10000
        assert max(_SEPARATORS) < 0x10000
        assert tokenize("\U0001F600x\U00010400\U0001D7D8") == ("x\U00010428\U0001D7D8",)
        assert max(_SEPARATORS) < 0x10000

    @given(st.text(max_size=80))
    def test_idempotent_on_normalized_text(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert once == again


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,label\n"Great, movie!",pos\nawful film,neg\n')
        corpus = load_csv(path)
        assert corpus.categories == ("pos", "neg")
        assert len(corpus) == 2
        assert corpus.documents[0].tokens == ("great", "movie")
        assert corpus.documents[1].label == 1

    def test_first_appearance_category_order(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\na,z\nb,a\nc,z\n")
        assert load_csv(path).categories == ("z", "a")

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("body,label\nx,y\n")
        with pytest.raises(IngestionError, match="'text'"):
            load_csv(path)

    def test_single_label_still_loads(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nx,only\ny,only\n")
        corpus = load_csv(path)
        assert corpus.categories == ("only",)

    def test_tsv_delimiter(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("text\tlabel\nhello there\tpos\n")
        corpus = load_csv(path, delimiter="\t")
        assert corpus.documents[0].tokens == ("hello", "there")

    def test_quoted_field_with_delimiter(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,label\n"one, two",pos\n')
        assert load_csv(path).documents[0].tokens == ("one", "two")


class TestLoadJsonl:
    def test_basic(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [{"text": "good game", "label": "sports"}, {"text": "cheap stock", "label": 7}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
        corpus = load_jsonl(path)
        assert corpus.categories == ("sports", "7")
        assert corpus.documents[1].tokens == ("cheap", "stock")

    def test_bad_line_numbered(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "x", "label": "y"}\nnot json\n')
        with pytest.raises(IngestionError, match="line 2"):
            load_jsonl(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "x"}\n')
        with pytest.raises(IngestionError, match="'label'"):
            load_jsonl(path)


class TestLoad20ng:
    def _make_tree(self, root, spec):
        for cat, files in spec.items():
            (root / cat).mkdir()
            for name, content in files.items():
                (root / cat / name).write_text(content)

    def test_two_categories(self, tmp_path):
        self._make_tree(
            tmp_path, {"alt.atheism": {"1": "no gods"}, "sci.space": {"2": "mars rover"}}
        )
        corpus = load_20ng(tmp_path)
        assert corpus.categories == ("alt.atheism", "sci.space")
        assert len(corpus) == 2
        assert corpus.documents[1].tokens == ("mars", "rover")

    def test_whitespace_only_file(self, tmp_path):
        self._make_tree(tmp_path, {"a": {"1": "  \n\t "}, "b": {"2": "x"}})
        corpus = load_20ng(tmp_path)
        assert corpus.documents[0].tokens == ()

    def test_empty_category_directory_keeps_its_sorted_place(self, tmp_path):
        self._make_tree(tmp_path, {"c": {"1": "late"}, "b": {}, "a": {"2": "early"}})
        corpus = load_20ng(tmp_path)
        assert corpus.categories == ("a", "b", "c")
        assert [d.label for d in corpus.documents] == [0, 2]
        assert [d.source_id for d in corpus.documents] == ["a/2", "c/1"]

    def test_empty_root_errors(self, tmp_path):
        with pytest.raises(IngestionError):
            load_20ng(tmp_path)

    def test_non_utf8_bytes_replaced(self, tmp_path):
        (tmp_path / "junk").mkdir()
        (tmp_path / "junk" / "1").write_bytes(b"caf\xe9 rocks \xff\xfe")
        (tmp_path / "ok").mkdir()
        (tmp_path / "ok" / "2").write_text("fine")
        corpus = load_20ng(tmp_path)
        assert "rocks" in corpus.documents[0].tokens

    def test_csv_reexport_matches_directory_loader(self, tmp_path):
        texts = {
            "rec.sport": {"1": "The team Won!", "2": "goal-line stand"},
            "talk.politics": {"3": "Vote, early; vote often", "4": "tax&spend", "5": "FILIBUSTER"},
        }
        self._make_tree(tmp_path, texts)
        from_dir = load_20ng(tmp_path)
        csv_path = tmp_path / "export.csv"
        lines = ["text,label"]
        for cat, files in texts.items():
            for name in sorted(files):
                body = files[name].replace('"', '""')
                lines.append(f'"{body}",{cat}')
        csv_path.write_text("\n".join(lines) + "\n")
        from_csv = load_csv(csv_path)
        assert [d.tokens for d in from_dir.documents] == [
            d.tokens for d in from_csv.documents
        ]


class TestOneStringPerToken:
    """Every loader keeps one string object per distinct token, and the
    same records in any format give the same corpus."""

    TEXTS = {
        "rec.autos": ["The engine drives the ROVER", "Engine, orbit, engine!"],
        "sci.space": ["Mars rover lands; the rover drives", "orbit around Mars"],
    }
    KINDS = ["csv", "tsv", "jsonl", "20ng"]

    def _load(self, kind, tmp_path, preserve_case=False):
        rows = [(text, label) for label, texts in self.TEXTS.items() for text in texts]
        if kind in ("csv", "tsv"):
            delimiter = "," if kind == "csv" else "\t"
            path = tmp_path / f"data.{kind}"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, delimiter=delimiter).writerows([("text", "label"), *rows])
            return load_csv(path, delimiter=delimiter, preserve_case=preserve_case)
        if kind == "jsonl":
            path = tmp_path / "data.jsonl"
            path.write_text("".join(json.dumps({"text": t, "label": lab}) + "\n" for t, lab in rows))
            return load_jsonl(path, preserve_case=preserve_case)
        root = tmp_path / "tree"
        for i, (text, label) in enumerate(rows):
            (root / label).mkdir(parents=True, exist_ok=True)
            (root / label / str(i)).write_text(text)
        return load_20ng(root, preserve_case=preserve_case)

    @pytest.mark.parametrize("preserve_case", [False, True])
    def test_every_format_gives_the_same_corpus(self, preserve_case, tmp_path):
        texts = [text for texts in self.TEXTS.values() for text in texts]
        expected_tokens = [tokenize(text, preserve_case) for text in texts]
        for kind in self.KINDS:
            corpus = self._load(kind, tmp_path, preserve_case)
            assert [doc.tokens for doc in corpus.documents] == expected_tokens, kind
            assert corpus.labels().tolist() == [0, 0, 1, 1], kind
            assert corpus.categories == tuple(self.TEXTS), kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_tokens_are_one_object(self, kind, tmp_path):
        corpus = self._load(kind, tmp_path)
        texts = [text for texts in self.TEXTS.values() for text in texts]
        token_lists = [tokenize(text) for text in texts]
        assert [doc.tokens for doc in corpus.documents] == token_lists
        assert corpus.token_counts().terms == oracle_count_tokens(token_lists)[0]
        first: dict[str, str] = {}
        for doc in corpus.documents:
            for token in doc.tokens:
                assert first.setdefault(token, token) is token
        assert len(first) < sum(map(len, token_lists))  # tokens do repeat


class TestCountTokens:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12), max_size=8))
    def test_rows_are_counters_in_term_id_order(self, token_lists):
        docs = from_token_lists(token_lists, [None] * len(token_lists), []).documents
        counts = count_tokens(docs)
        first_seen = dict.fromkeys(t for tokens in token_lists for t in tokens)
        assert counts.terms == tuple(first_seen)
        M = counts.matrix
        assert M.shape == (len(token_lists), len(first_seen))
        assert M.dtype == np.int64
        for i, tokens in enumerate(token_lists):
            row = slice(M.indptr[i], M.indptr[i + 1])
            entries = [(counts.terms[t], int(n)) for t, n in zip(M.indices[row], M.data[row])]
            assert entries == sorted(Counter(tokens).items(), key=lambda e: counts.terms.index(e[0]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.one_of(st.sampled_from("ab\u00e9"), st.text(max_size=3)), max_size=12),
            max_size=8,
        )
    )
    @example([])  # no documents
    @example([[], []])  # no terms
    @example([["only"]])
    def test_matches_the_oracle_on_any_unicode_tokens(self, token_lists):
        docs = from_token_lists(token_lists, [None] * len(token_lists), []).documents
        counts = count_tokens(docs)
        terms, rows = oracle_count_tokens(token_lists)
        assert counts.terms == terms
        M = counts.matrix
        assert M.shape == (len(token_lists), len(terms))
        assert M.dtype == np.int64
        assert M.has_sorted_indices
        for i, expected in enumerate(rows):
            row = slice(M.indptr[i], M.indptr[i + 1])
            got = {terms[t]: int(n) for t, n in zip(M.indices[row], M.data[row])}
            assert M.indptr[i + 1] - M.indptr[i] == len(got)
            assert got == dict(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12), max_size=8))
    def test_one_shot_generator_counts_as_the_tuple(self, token_lists):
        docs = from_token_lists(token_lists, [None] * len(token_lists), []).documents
        expected = count_tokens(docs)
        counts = count_tokens(doc for doc in docs)
        assert counts.terms == expected.terms
        assert counts.matrix.shape == expected.matrix.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(counts.matrix, name), getattr(expected.matrix, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_each_document_is_dropped_before_the_next_is_pulled(self):
        dead = []

        class Tokens(tuple):  # a tuple subclass cannot be weakly referenced
            def __del__(self):
                dead.append(self.number)

        def documents():
            for i in range(5):
                assert sorted(dead) == list(range(i))  # every earlier one is dead
                tokens = Tokens([f"w{i}", "shared", f"w{i}"])
                tokens.number = i
                yield Document(tokens=tokens, label=None, source_id=f"doc{i}")
                del tokens

        gc.disable()  # deaths by reference count only
        try:
            counts = count_tokens(documents())
        finally:
            gc.enable()
        assert sorted(dead) == list(range(5))
        assert counts.terms == ("w0", "shared", "w1", "w2", "w3", "w4")
        assert counts.matrix.toarray().tolist() == [
            [2, 1, 0, 0, 0, 0], [0, 1, 2, 0, 0, 0], [0, 1, 0, 2, 0, 0],
            [0, 1, 0, 0, 2, 0], [0, 1, 0, 0, 0, 2],
        ]

    def test_cached_on_the_corpus(self):
        corpus = from_token_lists([["a", "b", "a"], []], [0, 0], ["c"])
        assert corpus.token_counts() is corpus.token_counts()
        assert corpus.token_counts().terms == ("a", "b")


class TestSample:
    def _corpus(self, n):
        return from_token_lists([[f"w{i}"] for i in range(n)], [0] * n, ["only"])

    def test_cap_covers_corpus(self):
        corpus = self._corpus(5)
        assert sample(corpus, 5, seed=1) is corpus
        assert sample(corpus, 9, seed=1) is corpus

    def test_deterministic(self):
        corpus = self._corpus(100)
        a = sample(corpus, 10, seed=42)
        b = sample(corpus, 10, seed=42)
        assert [d.source_id for d in a.documents] == [d.source_id for d in b.documents]

    def test_order_preserved(self):
        corpus = self._corpus(50)
        picked = sample(corpus, 20, seed=3)
        ids = [int(d.source_id[3:]) for d in picked.documents]
        assert ids == sorted(ids)

    def test_uniformity_over_seeds(self):
        # A tight Monte-Carlo bound like +-0.02 over only 100 seeds is
        # unattainable for a correct uniform sampler: the per-document
        # standard error at rate 0.5 over 100 seeds is 0.05.  Sound
        # scale: 200 docs, cap 100, 2500 seeds, +-0.05 (= 5 sigma).
        n, cap, seeds = 200, 100, 2500
        corpus = self._corpus(n)
        hits = np.zeros(n)
        for seed in range(seeds):
            for doc in sample(corpus, cap, seed=seed).documents:
                hits[int(doc.source_id[3:])] += 1
        rates = hits / seeds
        assert rates.mean() == pytest.approx(cap / n, abs=1e-12)
        assert np.all(np.abs(rates - 0.5) < 0.05)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample(self._corpus(5), 0, seed=1)


class TestMakeSplits:
    def _corpus(self, n, num_cats=2):
        return from_token_lists(
            [["w"] for _ in range(n)],
            [i % num_cats for i in range(n)],
            [f"c{j}" for j in range(num_cats)],
        )

    def test_even_folds(self):
        plan = make_splits(self._corpus(100), 10, seed=0)
        sizes = [len(plan.fold_indices(f)) for f in range(10)]
        assert sizes == [10] * 10

    def test_uneven_folds_differ_by_one(self):
        plan = make_splits(self._corpus(101), 10, seed=0)
        sizes = sorted(len(plan.fold_indices(f)) for f in range(10))
        assert sizes == [10] * 9 + [11]

    def test_partition(self):
        plan = make_splits(self._corpus(57), 7, seed=5)
        seen = np.concatenate([plan.fold_indices(f) for f in range(7)])
        assert sorted(seen.tolist()) == list(range(57))

    def test_train_indices_complement(self):
        plan = make_splits(self._corpus(30), 3, seed=1)
        for f in range(3):
            both = set(plan.fold_indices(f)) | set(plan.train_indices(f))
            assert both == set(range(30))
            assert not set(plan.fold_indices(f)) & set(plan.train_indices(f))

    def test_ladder_nesting(self):
        plan = make_splits(self._corpus(100), 10, ladder=[10, 20, 35], seed=2)
        s10 = set(plan.ladder_sample(10).tolist())
        s20 = set(plan.ladder_sample(20).tolist())
        s35 = set(plan.ladder_sample(35).tolist())
        assert s10 < s20 < s35
        assert len(s20 - s10) == 10 and len(s35 - s20) == 15

    def test_ladder_avoids_holdout(self):
        plan = make_splits(self._corpus(100), 10, ladder=[90], seed=2)
        assert not set(plan.ladder_sample(90).tolist()) & set(
            plan.holdout_indices().tolist()
        )

    def test_oversized_ladder_names_size(self):
        with pytest.raises(SplitError, match="95"):
            make_splits(self._corpus(100), 10, ladder=[95], seed=0)

    def test_unsorted_ladder_rejected(self):
        with pytest.raises(SplitError):
            make_splits(self._corpus(100), 10, ladder=[20, 10], seed=0)

    def test_same_seed_same_plan(self):
        a = make_splits(self._corpus(64), 8, ladder=[8], seed=9)
        b = make_splits(self._corpus(64), 8, ladder=[8], seed=9)
        assert np.array_equal(a.fold_assignments, b.fold_assignments)
        assert np.array_equal(a.ladder_order, b.ladder_order)

    def test_stratified_balances_classes(self):
        corpus = self._corpus(40, num_cats=4)
        plan = make_splits(corpus, 4, seed=3, stratified=True)
        labels = corpus.labels()
        for f in range(4):
            fold_labels = labels[plan.fold_indices(f)]
            counts = np.bincount(fold_labels, minlength=4)
            assert counts.max() - counts.min() <= 1

    @settings(deadline=None, max_examples=200)
    @given(
        labels=st.lists(st.integers(-1, 3), min_size=2, max_size=40),
        k=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(labels=[0, -1, 2, -1, 0, 0], k=6, seed=0)  # k = n, unlabeled documents
    @example(labels=[-1, -1, -1], k=2, seed=1)
    def test_stratified_plan_matches_oracle(self, labels, k, seed):
        k = min(k, len(labels))
        corpus = from_token_lists(
            [["w"]] * len(labels),
            [None if label < 0 else label for label in labels],
            ["c0", "c1", "c2", "c3"],
        )
        plan = make_splits(corpus, k, seed=seed, stratified=True)
        fold, ladder_order = oracle_stratified_folds(
            labels, 4, k, np.random.default_rng(seed)
        )
        assert plan.fold_assignments.tolist() == fold
        assert plan.ladder_order.tolist() == ladder_order

    def test_k_bounds(self):
        with pytest.raises(SplitError):
            make_splits(self._corpus(10), 1, seed=0)
        with pytest.raises(SplitError):
            make_splits(self._corpus(10), 11, seed=0)

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(6, 60), k=st.integers(2, 6), seed=st.integers(0, 99))
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        plan = make_splits(self._corpus(n), k, seed=seed)
        sizes = [len(plan.fold_indices(f)) for f in range(k)]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
