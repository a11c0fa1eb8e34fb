from __future__ import annotations

import csv
import re
import struct
import tempfile
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    OracleFormatError,
    oracle_for_terms,
    oracle_glove,
    oracle_word2vec_binary,
    oracle_word2vec_text,
)

from catweight import (
    CorpusVectorizer,
    Document,
    EmbeddingFormatError,
    EmbeddingModel,
    WeightTable,
    detect_format,
    for_terms,
    load_embeddings,
    load_glove_text,
    load_word2vec_binary,
    load_word2vec_text,
    save_glove_text,
    save_word2vec_binary,
    save_word2vec_text,
    separable_corpus,
    synthetic_model,
)
from catweight import classify, cli
from catweight import embeddings
from catweight.corpus import count_tokens


class TestGloveText:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 0.1 -0.2 0.3\ncat 1.0 2.0 3.0\n")
        model = load_glove_text(path)
        assert model.dimension == 3
        assert len(model) == 2
        assert np.array_equal(model.vectors[model.word_ids["the"]], [0.1, -0.2, 0.3])
        assert model.skipped_lines == 0

    def test_malformed_rows_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "vectors.txt"
        path.write_text(
            "the 0.1 0.2\n"
            "bad 0.3\n"            # wrong field count
            "worse 0.1 zebra\n"    # unparseable float
            "ok -1.0 1.0\n"
        )
        with caplog.at_level("WARNING"):
            model = load_glove_text(path)
        assert model.skipped_lines == 2
        assert model.words == ("the", "ok")
        assert any("skipped 2" in r.getMessage() for r in caplog.records)

    def test_duplicate_words_keep_first(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("dup 1.0 1.0\ndup 2.0 2.0\n")
        model = load_glove_text(path)
        assert len(model) == 1
        assert np.array_equal(model.vectors[model.word_ids["dup"]], [1.0, 1.0])
        assert model.skipped_lines == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError, match="empty"):
            load_glove_text(path)

    def test_unparseable_first_line_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("word one two\n")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_glove_text(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 1.0 nan\n")
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_glove_text(path)


class TestWord2vecText:
    def test_basic(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("2 3\nthe 0.1 0.2 0.3\ncat 1.5 -1.5 0.0\n")
        model = load_word2vec_text(path)
        assert model.dimension == 3
        assert np.array_equal(model.vectors[model.word_ids["cat"]], [1.5, -1.5, 0.0])

    def test_header_count_mismatch_names_counts(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("3 2\nthe 0.1 0.2\ncat 1.0 2.0\n")
        with pytest.raises(
            EmbeddingFormatError, match="declares 3 entries, found 2"
        ):
            load_word2vec_text(path)

    def test_wrong_dimension_names_line(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("1 3\nthe 0.1 0.2\n")
        with pytest.raises(EmbeddingFormatError, match="line 2 has 2 values"):
            load_word2vec_text(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("the 0.1 0.2\n")
        with pytest.raises(EmbeddingFormatError):
            load_word2vec_text(path)

    def test_float64_round_trip_exact(self, tmp_path, tiny_model):
        path = tmp_path / "model.vec"
        save_word2vec_text(tiny_model, path)
        loaded = load_word2vec_text(path)
        assert loaded.words == tiny_model.words
        assert np.array_equal(loaded.vectors, tiny_model.vectors)


class TestWord2vecBinary:
    @staticmethod
    def _write(path, entries, d, header_count=None, trailing=b"\n"):
        count = len(entries) if header_count is None else header_count
        blob = f"{count} {d}\n".encode()
        for word, values in entries:
            blob += word.encode() + b" " + struct.pack(f"<{d}f", *values) + trailing
        path.write_bytes(blob)

    def test_exact_readback(self, tmp_path):
        path = tmp_path / "model.bin"
        self._write(path, [("queen", (1.0, 2.0)), ("king", (-0.5, 4.25))], d=2)
        model = load_word2vec_binary(path)
        assert model.dimension == 2
        # Values representable in float32 read back exactly after widening.
        assert np.array_equal(model.vectors[model.word_ids["queen"]], [1.0, 2.0])
        assert np.array_equal(model.vectors[model.word_ids["king"]], [-0.5, 4.25])

    def test_no_trailing_newline_variant(self, tmp_path):
        path = tmp_path / "model.bin"
        self._write(path, [("a", (1.0,)), ("b", (2.0,))], d=1, trailing=b"")
        model = load_word2vec_binary(path)
        assert np.array_equal(model.vectors[model.word_ids["b"]], [2.0])

    def test_duplicate_words_keep_first(self, tmp_path, caplog):
        path = tmp_path / "model.bin"
        self._write(path, [("a", (1.0,)), ("a", (2.0,))], d=1)
        for vocab in (None, {"a"}):
            caplog.clear()
            with caplog.at_level("WARNING"):
                model = load_word2vec_binary(path, vocab)
            assert model.words == ("a",)
            assert np.array_equal(model.vectors[model.word_ids["a"]], [1.0])
            assert model.skipped_lines == 1
            assert any("1 duplicate words dropped" in r.getMessage() for r in caplog.records)

    def test_zero_count_empty_model(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"0 50\n")
        model = load_word2vec_binary(path)
        assert len(model) == 0
        assert model.dimension == 50
        assert model.vectors.shape == (0, 50)

    def test_truncated_vector_names_offset(self, tmp_path):
        path = tmp_path / "model.bin"
        blob = b"1 3\nword " + struct.pack("<2f", 1.0, 2.0)  # one float short
        path.write_bytes(blob)
        with pytest.raises(EmbeddingFormatError, match="EOF in vector at byte offset 9"):
            load_word2vec_binary(path)

    def test_truncated_word_names_offset(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"1 2\nnever-terminated")
        with pytest.raises(EmbeddingFormatError, match="EOF in word"):
            load_word2vec_binary(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"no newline at all")
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_word2vec_binary(path)

    def test_binary_to_text_round_trip_float32_values(self, tmp_path):
        path = tmp_path / "model.bin"
        values = [("w0", (0.125, -3.5)), ("w1", (7.75, 0.0))]
        self._write(path, values, d=2)
        model = load_word2vec_binary(path)
        text_path = tmp_path / "model.vec"
        save_word2vec_text(model, text_path)
        again = load_word2vec_text(text_path)
        assert np.array_equal(again.vectors, model.vectors)


class TestExportRoundTrips:
    def test_glove_text_identity(self, tmp_path, tiny_model):
        path = tmp_path / "model.txt"
        save_glove_text(tiny_model, path)
        loaded = load_glove_text(path)
        assert loaded.words == tiny_model.words
        assert np.array_equal(loaded.vectors, tiny_model.vectors)

    def test_word2vec_binary_float32_identity(self, tmp_path, tiny_model):
        path = tmp_path / "model.bin"
        save_word2vec_binary(tiny_model, path)
        loaded = load_word2vec_binary(path)
        assert loaded.words == tiny_model.words
        # Narrowed to float32 on write, widened on read.
        expected = tiny_model.vectors.astype("<f4").astype(np.float64)
        assert np.array_equal(loaded.vectors, expected)

    def test_word2vec_binary_exact_for_float32_values(self, tmp_path):
        rows = np.array([[0.5, -0.25, 8.0], [1.5, 0.0, -2.75]])
        model = EmbeddingModel(("a", "b"), rows, origin="fixture")
        path = tmp_path / "model.bin"
        save_word2vec_binary(model, path)
        assert np.array_equal(load_word2vec_binary(path).vectors, rows)

    def test_binary_and_text_exports_agree_within_float32(self, tmp_path, tiny_model):
        bin_path = tmp_path / "model.bin"
        text_path = tmp_path / "model.vec"
        save_word2vec_binary(tiny_model, bin_path)
        save_word2vec_text(tiny_model, text_path)
        from_binary = load_word2vec_binary(bin_path)
        from_text = load_word2vec_text(text_path)
        assert np.allclose(
            from_binary.vectors, from_text.vectors, rtol=1e-6, atol=1e-9
        )


class TestEmbeddingModel:
    def test_dimension_and_word_ids_come_from_words_and_vectors(self):
        empty = EmbeddingModel((), np.zeros((0, 7)))
        assert empty.dimension == 7 and len(empty) == 0 and empty.word_ids == {}
        words = ("b", "a", "c")
        model = EmbeddingModel(words, np.zeros((3, 2)))
        assert model.dimension == 2
        assert model.word_ids == {w: i for i, w in enumerate(words)}
        assert model.rows_of(["c", "x"]).tolist() == [2, -1]


class TestSynthetic:
    def test_vocabulary_order_independence(self):
        a = synthetic_model(["alpha", "beta", "gamma"], 16, seed=7)
        b = synthetic_model(["gamma", "alpha", "beta", "alpha"], 16, seed=7)
        for word in ("alpha", "beta", "gamma"):
            assert np.array_equal(a.vectors[a.word_ids[word]], b.vectors[b.word_ids[word]])

    def test_seed_changes_vectors(self):
        a = synthetic_model(["alpha"], 8, seed=1)
        b = synthetic_model(["alpha"], 8, seed=2)
        assert not np.array_equal(a.vectors[a.word_ids["alpha"]], b.vectors[b.word_ids["alpha"]])

    def test_dimension_changes_vectors(self):
        a = synthetic_model(["alpha"], 8, seed=1)
        b = synthetic_model(["alpha"], 4, seed=1)
        assert not np.array_equal(
            a.vectors[a.word_ids["alpha"]][:4], b.vectors[b.word_ids["alpha"]]
        )

    def test_range_bound(self):
        model = synthetic_model([f"w{i}" for i in range(200)], 10, seed=3)
        assert np.all(np.abs(model.vectors) <= 0.5 / 10)

    def test_origin_spec_string(self):
        assert synthetic_model(["x"], 4, seed=9).origin == "synthetic:4:9"

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            synthetic_model(["x"], 0, seed=0)


class TestLookup:
    """Token lookup as a run resolves it: exact match, then the optional
    lowercase fallback of ``for_terms``."""

    def _vectorize(self, model, tokens, case_fallback=False):
        docs = [Document(tokens=(t,), label=None, source_id=t) for t in tokens]
        embedding = for_terms(model, count_tokens(docs).terms, case_fallback)
        vec = CorpusVectorizer(docs, embedding)
        none = WeightTable(scheme="none", categories=("A",))
        return vec.known_token_counts.tolist(), vec.matrix(none)

    def test_exact_hit_and_miss(self, tiny_model):
        known, X = self._vectorize(tiny_model, ["win", "absent-token"])
        assert known == [1, 0]
        assert np.array_equal(X[0], tiny_model.vectors[tiny_model.word_ids["win"]])
        assert np.array_equal(X[1], np.zeros(tiny_model.dimension))

    def test_case_fallback(self):
        model = synthetic_model(["paris", "Lyon"], 4, seed=0)
        assert self._vectorize(model, ["Paris"])[0] == [0]
        known, X = self._vectorize(model, ["Paris", "lyon"], case_fallback=True)
        assert known[0] == 1
        assert np.array_equal(X[0], model.vectors[model.word_ids["paris"]])
        # No upward fallback: lowercase queries never match cased entries.
        assert known[1] == 0


# Mixed-case words whose lowercase forms collide, one of them two code
# points long ("İ".lower() is "i̇").
_CASED_WORDS = st.text(alphabet="aAbBiİß", min_size=1, max_size=3)


class TestForTerms:
    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(_CASED_WORDS, unique=True, max_size=10),
        terms=st.lists(_CASED_WORDS, unique=True, max_size=10),
        case_fallback=st.booleans(),
        sorted_words=st.booleans(),
    )
    def test_matches_the_oracle(self, words, terms, case_fallback, sorted_words):
        """Rows in (source row, term) order; the model itself exactly when
        its words are those terms, in that order."""
        vectors = np.arange(2.0 * len(words)).reshape(len(words), 2)
        if sorted_words:  # a model file's vocabulary
            array = np.array(words, dtype=str)
            order = np.argsort(array, kind="stable")
            words = classify.SortedWords(len(words), None, array[order], order)
        model = EmbeddingModel(words, vectors, "m")
        known = oracle_for_terms(list(words), terms, case_fallback)
        got = for_terms(model, terms, case_fallback)
        assert list(got.words) == [term for _, term in known]
        assert got.vectors.tolist() == [vectors[row].tolist() for row, _ in known]
        assert got.dimension == 2 and got.origin == "m"
        assert (got is model) == ([term for _, term in known] == list(words))

    def test_a_folded_term_keeps_its_own_string(self):
        model = synthetic_model(["paris"], 4, seed=0)
        got = for_terms(model, ["Paris"], case_fallback=True)
        assert got is not model
        assert got.words == ("Paris",)
        assert np.array_equal(got.vectors, model.vectors)

    def test_a_model_of_exactly_the_terms_comes_back_uncopied(self):
        model = synthetic_model(["b", "a", "c"], 4, seed=0)
        assert for_terms(model, ["c", "a", "b"]) is model
        assert for_terms(model, ("b", "a", "c", "d"), case_fallback=True) is model
        assert for_terms(model, ["a", "b"]) is not model


class TestDetectAndDispatch:
    def test_extension_rules(self, tmp_path):
        bin_path = tmp_path / "model.bin"
        bin_path.write_bytes(b"0 4\n")
        vec_path = tmp_path / "model.vec"
        vec_path.write_text("0 4\n")
        assert detect_format(bin_path) == "word2vec-binary"
        assert detect_format(vec_path) == "word2vec-text"

    def test_header_sniffing(self, tmp_path):
        w2v = tmp_path / "a.txt"
        w2v.write_text("2 4\nw 1 2 3 4\nv 1 2 3 4\n")
        glove = tmp_path / "b.txt"
        glove.write_text("the 0.1 0.2\n")
        assert detect_format(w2v) == "word2vec-text"
        assert detect_format(glove) == "glove"

    def test_two_column_glove_not_mistaken(self, tmp_path):
        # A "word <float>" first line has two fields but a non-integer one.
        glove = tmp_path / "c.txt"
        glove.write_text("the 0.25\nc 0.5\n")
        assert detect_format(glove) == "glove"

    def test_load_embeddings_auto(self, tmp_path):
        path = tmp_path / "auto.txt"
        path.write_text("1 2\nword 1.0 2.0\n")
        model = load_embeddings(path)
        assert isinstance(model, EmbeddingModel)
        assert np.array_equal(model.vectors[model.word_ids["word"]], [1.0, 2.0])

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("the 1.0\n")
        with pytest.raises(EmbeddingFormatError, match="glove"):
            load_embeddings(path, fmt="fasttext")


# Random embedding files: a small word pool (so duplicates are common,
# often after a malformed first occurrence), mostly good values and now
# and then one that float() or numpy reads differently, or not at all.
_WORDS = ["the", "cat", "Cat", "naïve", "x_y", "a#b", "tab\tword"]
_GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-10, max_value=10).map(lambda x: f"{x:.5f}"),
)
_BAD = st.sampled_from(
    ["zebra", "1_0", "#1", "", "nan", "inf", "-Infinity", "1e400", "-0.0", "1e-320",
     "1E+3", "+.5", "0x10", "\x1c1", "1\x1f", "\t2", "٣", "\xa01"]
)
_VALUE = st.one_of(*[_GOOD] * 9, _BAD)
_VOCABS = st.one_of(st.none(), st.frozensets(st.sampled_from(_WORDS + ["absent"])))


@st.composite
def _embedding_lines(draw, d: int, rows_only: bool = False):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["row"] * 8 + ([] if rows_only else ["short", "long", "trailing", "word"])
        kind = draw(st.sampled_from(kinds + ["blank", "spaces"]))
        word = draw(st.sampled_from(_WORDS))
        n = {"short": d - 1, "long": d + 1}.get(kind, d)
        values = draw(st.lists(_VALUE, min_size=n, max_size=n))
        line = {
            "blank": "",
            "spaces": " " * draw(st.integers(1, 3)),
            "word": word,
            "trailing": " ".join([word, *values]) + " ",
        }.get(kind, " ".join([word, *values]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return lines


@st.composite
def _glove_files(draw):
    lines = draw(_embedding_lines(draw(st.integers(1, 3))))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def _word2vec_text_files(draw):
    d = draw(st.integers(1, 3))
    lines = draw(_embedding_lines(d, rows_only=draw(st.integers(0, 4)) > 0))
    entries = sum(1 for line in lines if line.strip())
    header = draw(
        st.one_of(
            *[st.integers(-1, 1).map(lambda k: f"{entries + k} {d}")] * 8,
            st.sampled_from(["x 2", "3", f"{entries} 0", ""]),
        )
    )
    return header + "\n" + "".join(lines)


@st.composite
def _word2vec_binary_files(draw):
    d = draw(st.integers(1, 3))
    value = st.one_of(
        *[st.floats(width=32, allow_nan=False, allow_infinity=False)] * 9,
        st.sampled_from([float("nan"), float("inf")]),
    )
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from([w for w in _WORDS if "\t" not in w]),
                st.lists(value, min_size=d, max_size=d),
                st.sampled_from([b"\n", b"", b"\r\n"]),
            ),
            max_size=8,
        )
    )
    blob = f"{len(entries) + draw(st.integers(0, 1))} {d}\n".encode()
    for word, values, end in entries:
        blob += word.encode() + b" " + struct.pack(f"<{d}f", *values) + end
    if draw(st.integers(0, 5)) == 0:
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


def _matches_oracle(loader, oracle, content, vocab):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        try:
            expected = oracle(path, vocab)
        except OracleFormatError as exc:
            with pytest.raises(EmbeddingFormatError, match=re.escape(str(exc))):
                loader(path, vocab)
            return
        model = loader(path, vocab)
    words, rows, d, skipped = expected
    assert model.words == tuple(words)
    assert model.word_ids == {w: i for i, w in enumerate(words)}
    assert model.dimension == d
    # Bit for bit, -0.0 and subnormals included.
    assert model.vectors.dtype == np.float64
    assert model.vectors.shape == (len(words), d)
    assert model.vectors.tobytes() == np.array(rows, dtype=np.float64).reshape(-1, d).tobytes()
    assert model.skipped_lines == skipped


# The text loaders parse the wanted rows in one streamed np.loadtxt call,
# or, when it fails, read the file again and parse row by row; failing the
# call sends every generated file down the second path.
_PARSES = ["streamed", "row_by_row"]


def _text_parse(parse):
    if parse == "streamed":
        return nullcontext()
    return mock.patch.object(np, "loadtxt", side_effect=ValueError("bulk parse off"))


# The binary loader reads this many bytes at a time (at least one vector's):
# small reads put entries across buffer boundaries.
_READ_SIZES = [1, 5, 13, embeddings._READ_BYTES]


class TestVocabFilteredLoadsMatchOracle:
    """Every loader, with or without a vocabulary, against an independent
    line-by-line reader: same words, same bits, same skip count, same
    errors."""

    @pytest.mark.parametrize("parse", _PARSES)
    @settings(deadline=None, max_examples=300)
    @given(text=_glove_files(), vocab=_VOCABS)
    def test_glove(self, parse, text, vocab):
        with _text_parse(parse):
            _matches_oracle(load_glove_text, oracle_glove, text, vocab)

    @pytest.mark.parametrize("parse", _PARSES)
    @settings(deadline=None, max_examples=200)
    @given(text=_word2vec_text_files(), vocab=_VOCABS)
    def test_word2vec_text(self, parse, text, vocab):
        with _text_parse(parse):
            _matches_oracle(load_word2vec_text, oracle_word2vec_text, text, vocab)

    @pytest.mark.parametrize("block", _READ_SIZES)
    @settings(deadline=None, max_examples=200)
    @given(blob=_word2vec_binary_files(), vocab=_VOCABS)
    def test_word2vec_binary(self, block, blob, vocab):
        with mock.patch.object(embeddings, "_READ_BYTES", block):
            _matches_oracle(load_word2vec_binary, oracle_word2vec_binary, blob, vocab)

    def test_first_line_outside_vocab_still_fixes_and_checks_d(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("other 1.0 2.0\nthe 3.0 4.0\ncat 5.0\n")
        model = load_glove_text(path, {"the", "cat"})
        assert model.words == ("the",)
        assert model.skipped_lines == 1  # "cat" has one value, not two
        path.write_text("other one two\nthe 3.0 4.0\n")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_glove_text(path, {"the"})

    def test_word2vec_text_checks_every_line_but_parses_vocab_rows(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("2 2\nthe 1.0 2.0\nzzz zebra 1.0\n")
        assert load_word2vec_text(path, {"the"}).words == ("the",)
        with pytest.raises(EmbeddingFormatError, match="line 3 has non-float"):
            load_word2vec_text(path)
        path.write_text("2 2\nthe 1.0 2.0\nzzz 1.0\n")
        with pytest.raises(EmbeddingFormatError, match="line 3 has 1 values"):
            load_word2vec_text(path, {"the"})

    def test_earlier_non_float_row_is_the_first_error(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("3 2\nthe 1.0 2.0\ncat zebra 1.0\ndog 1.0\n")
        with pytest.raises(EmbeddingFormatError, match="line 3 has non-float"):
            load_word2vec_text(path)

    def test_one_malformed_row_among_many_is_skipped(self, tmp_path):
        words = [f"w{i}" for i in range(1000)]
        path = tmp_path / "vectors.txt"
        save_glove_text(synthetic_model(words, 4, seed=2), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[617] = "w617 1.0 zebra 2.0 3.0\n"
        path.write_text("".join(lines))
        model = load_glove_text(path, set(words))
        assert model.words == tuple(w for w in words if w != "w617")
        assert model.skipped_lines == 1
        _matches_oracle(load_glove_text, oracle_glove, path.read_text(), set(words))

    def test_first_of_several_non_float_rows_is_the_error(self, tmp_path):
        path = tmp_path / "model.vec"
        save_word2vec_text(synthetic_model([f"w{i}" for i in range(1000)], 3, seed=5), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[301], lines[702] = "w300 1.0 x 2.0\n", "w701 y 1.0 2.0\n"
        path.write_text("".join(lines))
        with pytest.raises(EmbeddingFormatError, match="line 302 has non-float"):
            load_word2vec_text(path)

    def test_glove_malformed_and_repeated_rows_keep_first_parsed_row(self, tmp_path):
        lines = [
            "the 1.0 2.0", "cat zebra 1.0", "dog 3.0 4.0",  # cat's first copy is malformed
            "emu 5.0 6.0", "cat 7.0 8.0", "fox 9.0\x1c 1.0",  # float() rejects \x1c
            "gnu 2.5 3.5", "hen 1.5 x", "the 0.5 0.5",  # a malformed row, a repeat
        ]
        path = tmp_path / "vectors.txt"
        path.write_text("".join(line + "\n" for line in lines))
        model = load_glove_text(path, {"the", "cat", "dog", "emu", "fox", "gnu", "hen"})
        assert model.words == ("the", "dog", "emu", "cat", "gnu")
        assert model.vectors.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8], [2.5, 3.5]]
        assert model.skipped_lines == 4
        _matches_oracle(load_glove_text, oracle_glove, path.read_text(), None)

    def test_word2vec_text_non_float_row_is_reported_in_line_order(self, tmp_path):
        path = tmp_path / "model.vec"
        rows = ["the 1.0 2.0", "cat 3.0 4.0", "the 5.0 6.0", "dog 7.0 8.0", "emu 1.0 2.0"]
        path.write_text("5 2\n" + "".join(row + "\n" for row in rows))
        model = load_word2vec_text(path)
        assert model.words == ("the", "cat", "dog", "emu")
        assert model.vectors.tolist() == [[1, 2], [3, 4], [7, 8], [1, 2]]
        assert model.skipped_lines == 1
        rows[3] = "dog 7.0\x1c 8.0"  # numpy would parse it; float() does not
        path.write_text("5 2\n" + "".join(row + "\n" for row in rows))
        with pytest.raises(EmbeddingFormatError, match="line 5 has non-float"):
            load_word2vec_text(path)
        # A non-float row is reported before a later row's field count.
        rows[2:] = ["dog 7.0 x", "emu 1.0"]
        path.write_text("4 2\n" + "".join(row + "\n" for row in rows))
        with pytest.raises(EmbeddingFormatError, match="line 4 has non-float"):
            load_word2vec_text(path)
        # So is an empty value, a row numpy would drop.
        path.write_text("2 1\nw \nx\n")
        with pytest.raises(EmbeddingFormatError, match="line 2 has non-float"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("parse", _PARSES)
    def test_filtered_glove_load_holds_one_chunk_of_text(self, parse, tmp_path):
        """Peak traced memory of a filtered load stays under twice the kept
        vectors' bytes plus the text of 512 wanted rows, whichever way the
        rows are parsed: the loader never holds the text of every wanted
        row (when this bound was set, a loader that did held it twice,
        plus a second copy of the rows), nor an object per parsed row."""
        chunk, d = 512, 100
        rng = np.random.default_rng(7)
        values = [" ".join(f"{x:.4f}" for x in row) for row in rng.uniform(-1, 1, (64, d))]
        lines = [f"w{i} {values[i % 64]}\n" for i in range(16000)]
        path = tmp_path / "vectors.txt"
        path.write_text("".join(lines))
        wanted = {f"w{i}" for i in range(0, 16000, 2)}
        text_bytes = sum(map(len, lines[: 2 * chunk : 2]))  # ASCII: one byte a character
        with _text_parse(parse):
            tracemalloc.start()
            try:
                model = load_glove_text(path, wanted)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(model) == 8000
        assert peak < 2 * model.vectors.nbytes + text_bytes

    def test_filtered_word2vec_binary_load_holds_one_buffer(self, tmp_path, monkeypatch):
        """Peak traced memory of a filtered binary load stays under twice
        the kept vectors' bytes plus a few read buffers: the loader never
        holds the file (at the parent of this bound it read all 6.5 MB of
        it at once)."""
        block, d = 1 << 16, 100
        monkeypatch.setattr(embeddings, "_READ_BYTES", block)
        rng = np.random.default_rng(8)
        rows = rng.uniform(-1, 1, (16000, d)).astype("<f4")
        path = tmp_path / "vectors.bin"
        with open(path, "wb") as fh:
            fh.write(f"16000 {d}\n".encode())
            for i, row in enumerate(rows):
                fh.write(f"w{i} ".encode() + row.tobytes() + b"\n")
        wanted = {f"w{i}" for i in range(0, 16000, 16)}
        tracemalloc.start()
        try:
            model = load_word2vec_binary(path, wanted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.words == tuple(f"w{i}" for i in range(0, 16000, 16))
        assert np.array_equal(model.vectors, rows[::16])
        assert peak < 2 * model.vectors.nbytes + 4 * block

    def test_load_embeddings_passes_vocab(self, tmp_path, tiny_model):
        path = tmp_path / "model.txt"
        save_glove_text(tiny_model, path)
        model = load_embeddings(path, vocab={"win", "loan", "absent"})
        assert model.words == ("win", "loan")


def _run_cli(command, data, embedding, out, *extra):
    argv = [command, "--data", str(data), "--embedding", str(embedding), "--seed", "3",
            "--out", str(out), *extra]
    if command != "vectorize":
        argv += ["--epochs", "5"]
    if command == "cv":
        argv += ["--k", "3", "--scheme", "all", "--classifier", "all"]
    elif command == "curve":
        argv += ["--k", "3", "--scheme", "all", "--sizes", "20,40"]
    else:
        argv += ["--scheme", "tfcr"]
    return cli.main(argv)


@pytest.fixture
def file_backed(tmp_path):
    """A small corpus with some capitalised tokens, and a GloVe file whose
    rows cover part of it, lowercase forms of the capitalised tokens,
    unused words, a duplicate and a malformed row."""
    corpus = separable_corpus(
        num_docs=60, num_categories=3, keywords_per_category=4,
        shared_vocab_size=20, doc_length=10, seed=4,
    )
    data = tmp_path / "corpus.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for i, doc in enumerate(corpus.documents):
            tokens = [t.capitalize() if i % 3 == 0 else t for t in doc.tokens]
            writer.writerow([" ".join(tokens), corpus.categories[doc.label]])
    vocab = sorted({t for doc in corpus.documents for t in doc.tokens})
    words = [w for i, w in enumerate(vocab) if i % 4] + [f"unused{i}" for i in range(30)]
    glove = tmp_path / "glove.txt"
    save_glove_text(synthetic_model(words, 6, seed=9), glove)
    with open(glove, "a", encoding="utf-8") as fh:
        fh.write(f"{words[0]} 9 9 9 9 9 9\n{vocab[1]} 1 2\n")
    return data, glove


@pytest.mark.parametrize("case", [(), ("--preserve-case", "--case-fallback")])
@pytest.mark.parametrize("command", ["cv", "curve", "train"])
def test_cli_outputs_do_not_depend_on_the_vocab_filter(
    command, case, file_backed, tmp_path, monkeypatch
):
    data, glove = file_backed
    filtered, full = tmp_path / "filtered.out", tmp_path / "full.out"
    assert _run_cli(command, data, glove, filtered, *case) == 0
    load = cli.load_embeddings
    monkeypatch.setattr(cli, "load_embeddings", lambda path, fmt, vocab: load(path, fmt))
    assert _run_cli(command, data, glove, full, *case) == 0
    assert filtered.read_bytes() == full.read_bytes()
