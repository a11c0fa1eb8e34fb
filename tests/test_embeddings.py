from __future__ import annotations

import csv
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    OracleFormatError,
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
from catweight import cli


class TestGloveText:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 0.1 -0.2 0.3\ncat 1.0 2.0 3.0\n")
        model = load_glove_text(path)
        assert model.dimension == 3
        assert len(model) == 2
        assert np.array_equal(model.vector("the"), [0.1, -0.2, 0.3])
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
        assert np.array_equal(model.vector("dup"), [1.0, 1.0])
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
        assert np.array_equal(model.vector("cat"), [1.5, -1.5, 0.0])

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
        assert np.array_equal(model.vector("queen"), [1.0, 2.0])
        assert np.array_equal(model.vector("king"), [-0.5, 4.25])

    def test_no_trailing_newline_variant(self, tmp_path):
        path = tmp_path / "model.bin"
        self._write(path, [("a", (1.0,)), ("b", (2.0,))], d=1, trailing=b"")
        model = load_word2vec_binary(path)
        assert np.array_equal(model.vector("b"), [2.0])

    def test_duplicate_words_keep_first(self, tmp_path, caplog):
        path = tmp_path / "model.bin"
        self._write(path, [("a", (1.0,)), ("a", (2.0,))], d=1)
        for vocab in (None, {"a"}):
            caplog.clear()
            with caplog.at_level("WARNING"):
                model = load_word2vec_binary(path, vocab)
            assert model.words == ("a",)
            assert np.array_equal(model.vector("a"), [1.0])
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
        model = EmbeddingModel(
            dimension=3,
            word_ids={"a": 0, "b": 1},
            words=("a", "b"),
            vectors=rows,
            origin="fixture",
        )
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


class TestSynthetic:
    def test_vocabulary_order_independence(self):
        a = synthetic_model(["alpha", "beta", "gamma"], 16, seed=7)
        b = synthetic_model(["gamma", "alpha", "beta", "alpha"], 16, seed=7)
        for word in ("alpha", "beta", "gamma"):
            assert np.array_equal(a.vector(word), b.vector(word))

    def test_seed_changes_vectors(self):
        a = synthetic_model(["alpha"], 8, seed=1)
        b = synthetic_model(["alpha"], 8, seed=2)
        assert not np.array_equal(a.vector("alpha"), b.vector("alpha"))

    def test_dimension_changes_vectors(self):
        a = synthetic_model(["alpha"], 8, seed=1)
        b = synthetic_model(["alpha"], 4, seed=1)
        assert not np.array_equal(a.vector("alpha")[:4], b.vector("alpha"))

    def test_range_bound(self):
        model = synthetic_model([f"w{i}" for i in range(200)], 10, seed=3)
        assert np.all(np.abs(model.vectors) <= 0.5 / 10)

    def test_origin_spec_string(self):
        assert synthetic_model(["x"], 4, seed=9).origin == "synthetic:4:9"

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            synthetic_model(["x"], 0, seed=0)


class TestLookup:
    """Token lookup as CorpusVectorizer does it: exact match, then the
    optional lowercase fallback."""

    def _vectorize(self, model, tokens, case_fallback=False):
        docs = [Document(tokens=(t,), label=None, source_id=t) for t in tokens]
        vec = CorpusVectorizer(docs, model, case_fallback=case_fallback)
        none = WeightTable(scheme="none", categories=("A",))
        return vec.known_token_counts.tolist(), vec.matrix(none)

    def test_exact_hit_and_miss(self, tiny_model):
        known, X = self._vectorize(tiny_model, ["win", "absent-token"])
        assert known == [1, 0]
        assert np.array_equal(X[0], tiny_model.vector("win"))
        assert np.array_equal(X[1], np.zeros(tiny_model.dimension))

    def test_case_fallback(self):
        model = synthetic_model(["paris", "Lyon"], 4, seed=0)
        assert self._vectorize(model, ["Paris"])[0] == [0]
        known, X = self._vectorize(model, ["Paris", "lyon"], case_fallback=True)
        assert known[0] == 1
        assert np.array_equal(X[0], model.vector("paris"))
        # No upward fallback: lowercase queries never match cased entries.
        assert known[1] == 0


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
        assert np.array_equal(model.vector("word"), [1.0, 2.0])

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


class TestVocabFilteredLoadsMatchOracle:
    """Every loader, with or without a vocabulary, against an independent
    line-by-line reader: same words, same bits, same skip count, same
    errors."""

    @settings(deadline=None, max_examples=300)
    @given(text=_glove_files(), vocab=_VOCABS)
    def test_glove(self, text, vocab):
        _matches_oracle(load_glove_text, oracle_glove, text, vocab)

    @settings(deadline=None, max_examples=200)
    @given(text=_word2vec_text_files(), vocab=_VOCABS)
    def test_word2vec_text(self, text, vocab):
        _matches_oracle(load_word2vec_text, oracle_word2vec_text, text, vocab)

    @settings(deadline=None, max_examples=200)
    @given(blob=_word2vec_binary_files(), vocab=_VOCABS)
    def test_word2vec_binary(self, blob, vocab):
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
