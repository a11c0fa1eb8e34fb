"""End-to-end tests of the command-line interface.

Each test drives ``main`` with real argv lists against small datasets
written to disk, mirroring how the tool is used from a shell.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from catweight import (
    CorpusVectorizer,
    build_stats,
    build_table,
    from_token_lists,
    load_csv,
    load_embeddings,
    load_model,
    predict_many,
    save_glove_text,
    separable_corpus,
    standardize_apply,
    synthetic_model,
    tokenize,
)
from catweight.cli import main

TOY_ROWS = [
    ("win win win win game game team team goal ball", "A"),
    (
        "win market market stock stock stock price price trade trade "
        "bank bank rate rate fund fund bond bond cash loan",
        "B",
    ),
]


def _write_dataset(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows(rows)
    return str(path)


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    return _write_dataset(path, TOY_ROWS)


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    corpus = separable_corpus(
        num_docs=48,
        num_categories=3,
        keywords_per_category=4,
        shared_vocab_size=20,
        doc_length=10,
        exclusive_ratio=0.4,
        seed=2,
    )
    rows = [
        (" ".join(doc.tokens), corpus.categories[doc.label])
        for doc in corpus.documents
    ]
    path = tmp_path_factory.mktemp("data") / "separable.csv"
    return _write_dataset(path, rows)


def _cv_args(data, out, **overrides):
    args = {
        "--data": data,
        "--embedding": "synthetic:4:1",
        "--scheme": "tfcr",
        "--classifier": "logreg",
        "--k": "4",
        "--seed": "7",
        "--epochs": "8",
        "--out": out,
    }
    args.update(overrides)
    argv = ["cv"]
    for flag, value in args.items():
        if value is not None:
            argv += [flag, value]
    return argv


class TestCv:
    def test_writes_results_and_manifest(self, train_csv, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(_cv_args(train_csv, str(out))) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "dataset,scheme,embedding,classifier,train_size,fold,macro_f1,accuracy"
        )
        folds = [l for l in lines[1:] if l.split(",")[5] not in ("mean", "failed")]
        assert len(folds) == 4
        assert lines[-1].split(",")[5] == "mean"
        manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
        assert manifest["command"] == "cv"
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["scheme"] == "tfcr"
        stdout = capsys.readouterr().out
        assert "tfcr" in stdout and "results written" in stdout

    def test_byte_identical_reruns(self, train_csv, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(_cv_args(train_csv, str(first))) == 0
        assert main(_cv_args(train_csv, str(second))) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_scheme_all_expands_to_five(self, train_csv, tmp_path):
        out = tmp_path / "results.csv"
        assert main(_cv_args(train_csv, str(out), **{"--scheme": "all"})) == 0
        schemes = {row.split(",")[1] for row in out.read_text().splitlines()[1:]}
        assert schemes == {"none", "tfidf", "kld", "tftrr", "tfcr"}

    def test_unknown_scheme_exits_2_listing_valid(self, train_csv, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(_cv_args(train_csv, str(out), **{"--scheme": "bm25"}))
        assert code == 2
        err = capsys.readouterr().err
        assert "bm25" in err
        assert "none, tfidf, kld, tftrr, tfcr" in err

    def test_missing_seed_exits_2(self, train_csv, tmp_path, capsys):
        argv = _cv_args(train_csv, str(tmp_path / "r.csv"), **{"--seed": None})
        assert main(argv) == 2
        assert "--seed is required" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        argv = _cv_args(str(tmp_path / "absent.csv"), str(tmp_path / "r.csv"))
        assert main(argv) == 2
        assert "not found" in capsys.readouterr().err

    def test_all_cells_failing_exits_1(self, train_csv, tmp_path, capsys):
        argv = _cv_args(
            train_csv,
            str(tmp_path / "r.csv"),
            **{"--classifier": "svm", "--l2": "0"},
        )
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_precedence(self, train_csv, tmp_path):
        # Flags beat the config file; the config file beats defaults.
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"scheme": "tfidf", "seed": 3, "epochs": 4, "k": 3})
        )
        out = tmp_path / "results.csv"
        argv = [
            "cv", "--config", str(config), "--data", train_csv,
            "--embedding", "synthetic:4:1", "--classifier", "logreg",
            "--scheme", "kld", "--out", str(out),
        ]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
        assert manifest["config"]["scheme"] == "kld"  # flag wins
        assert manifest["config"]["seed"] == 3  # file beats default
        assert manifest["config"]["epochs"] == 4
        assert manifest["config"]["alpha"] == 1.2  # untouched default
        schemes = {row.split(",")[1] for row in out.read_text().splitlines()[1:]}
        assert schemes == {"kld"}

    def test_jobs_flag_keeps_csv_identical(self, train_csv, tmp_path):
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        base = {"--scheme": "all", "--classifier": "logreg,svm"}
        assert main(_cv_args(train_csv, str(serial), **base)) == 0
        assert main(
            _cv_args(train_csv, str(threaded), **dict(base, **{"--jobs": "3"}))
        ) == 0
        assert serial.read_bytes() == threaded.read_bytes()


class TestCurve:
    def _argv(self, data, out, **overrides):
        args = {
            "--data": data,
            "--embedding": "synthetic:4:1",
            "--scheme": "tfcr",
            "--classifier": "logreg",
            "--k": "4",
            "--seed": "5",
            "--epochs": "8",
            "--sizes": "8,16",
            "--out": out,
        }
        args.update(overrides)
        argv = ["curve"]
        for flag, value in args.items():
            if value is not None:
                argv += [flag, value]
        return argv

    def test_writes_curve_csv(self, train_csv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(self._argv(train_csv, str(out))) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "train_size,tfcr"
        assert [row.split(",")[0] for row in lines[1:]] == ["8", "16"]
        assert (tmp_path / "curve.csv.manifest.json").is_file()
        assert "curve written" in capsys.readouterr().out

    def test_min_max_step_ladder(self, train_csv, tmp_path):
        out = tmp_path / "curve.csv"
        argv = self._argv(
            train_csv, str(out),
            **{"--sizes": None, "--min": "6", "--max": "18", "--step": "6"},
        )
        assert main(argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["6", "12", "18"]

    def test_oversized_ladder_truncated_with_warning(self, train_csv, tmp_path, capsys):
        # 48 docs, k=4 -> 36 available for training; 1000 cannot fit.
        out = tmp_path / "curve.csv"
        argv = self._argv(train_csv, str(out), **{"--sizes": "8,1000"})
        assert main(argv) == 0
        assert "truncated" in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["8"]

    def test_available_size_counts_the_larger_holdout(self, tmp_path, capsys):
        # 101 docs, k=10: fold 0 holds out ceil(101/10) = 11, leaving 90,
        # so 91 is dropped with a warning rather than failing the run.
        corpus = separable_corpus(
            num_docs=101, num_categories=3, keywords_per_category=4,
            shared_vocab_size=20, doc_length=10, seed=3,
        )
        data = _write_dataset(
            tmp_path / "odd.csv",
            [(" ".join(d.tokens), corpus.categories[d.label]) for d in corpus.documents],
        )
        out = tmp_path / "curve.csv"
        argv = self._argv(data, str(out), **{"--sizes": "50,91", "--k": "10"})
        assert main(argv) == 0
        assert "truncated" in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["50"]

    @pytest.mark.parametrize("sizes", [[[240]], 240, [None]], ids=["nested", "scalar", "null"])
    def test_non_number_config_sizes_exit_2(self, train_csv, tmp_path, capsys, sizes):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sizes": sizes}))
        out = tmp_path / "c.csv"
        argv = self._argv(train_csv, str(out), **{"--sizes": None, "--config": str(config)})
        assert main(argv) == 2
        assert f"error: bad --sizes value {sizes!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_fitting_size_exits_2(self, train_csv, tmp_path, capsys):
        argv = self._argv(train_csv, str(tmp_path / "c.csv"), **{"--sizes": "500"})
        assert main(argv) == 2
        assert "no ladder size fits" in capsys.readouterr().err

    def test_identical_seeds_identical_bytes(self, train_csv, tmp_path):
        first, second = tmp_path / "c1.csv", tmp_path / "c2.csv"
        argv1 = self._argv(train_csv, str(first), **{"--scheme": "none,tfcr"})
        argv2 = self._argv(train_csv, str(second), **{"--scheme": "none,tfcr"})
        assert main(argv1) == 0
        assert main(argv2) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.fixture(scope="class")
    def rare_category_csv(self, tmp_path_factory):
        # 1,200 documents, 12 of them in topic2.  With seed 0 and k = 3 the
        # size-100 ladder sample holds none of them; sizes 240 and 800 do.
        base = separable_corpus(
            num_docs=1800, num_categories=3, keywords_per_category=4,
            shared_vocab_size=20, doc_length=8, seed=5,
        )
        docs = [d for d in base.documents if d.label != 2][:1188]
        docs += [d for d in base.documents if d.label == 2][:12]
        order = np.random.default_rng(0).permutation(len(docs))
        path = tmp_path_factory.mktemp("data") / "rare.csv"
        rows = [(" ".join(docs[i].tokens), base.categories[docs[i].label]) for i in order]
        return _write_dataset(path, rows)

    def test_failed_point_is_written_and_warned_not_fatal(
        self, rare_category_csv, tmp_path, capsys
    ):
        out = tmp_path / "curve.csv"
        argv = self._argv(
            rare_category_csv, str(out),
            **{"--sizes": "100,240,800", "--k": "3", "--seed": "0",
               "--scheme": "none,tfcr", "--epochs": "2"},
        )
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: size 100 failed for none, tfcr: size-100 training sample "
            "lacks categories topic2; use stratified folds"
        ]
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["train_size", "none", "tfcr"]
        assert rows[1] == ["100", "failed", "failed"]
        for row in rows[2:]:
            assert 0.0 <= float(row[1]) <= 1.0 and 0.0 <= float(row[2]) <= 1.0
        assert [row[0] for row in rows[2:]] == ["240", "800"]
        assert "failed" in captured.out.splitlines()[1]

    def test_every_point_failed_exits_1(self, rare_category_csv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = self._argv(
            rare_category_csv, str(out),
            **{"--sizes": "100", "--k": "3", "--seed": "0", "--epochs": "2"},
        )
        assert main(argv) == 1
        assert "every curve point failed" in capsys.readouterr().err
        assert out.read_text().splitlines()[1] == "100,failed"

    def test_two_classifiers_rejected(self, train_csv, tmp_path, capsys):
        argv = self._argv(
            train_csv, str(tmp_path / "c.csv"), **{"--classifier": "logreg,svm"}
        )
        assert main(argv) == 2
        assert "exactly one classifier" in capsys.readouterr().err


class TestWeights:
    def test_tfcr_top_k_puts_win_first(self, toy_csv, tmp_path):
        out = tmp_path / "weights.json"
        argv = [
            "weights", "--data", toy_csv, "--scheme", "tfcr",
            "--top-k", "3", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["scheme"] == "tfcr"
        by_category = {}
        for word, category, value in payload["entries"]:
            by_category.setdefault(category, []).append((word, value))
        assert by_category["A"][0][0] == "win"
        assert by_category["A"][0][1] == pytest.approx(0.32, abs=1e-12)
        assert len(by_category["A"]) == 3
        assert len(by_category["B"]) == 3

    def test_tfidf_tsv_has_no_category_column(self, toy_csv, tmp_path):
        out = tmp_path / "weights.tsv"
        argv = [
            "weights", "--data", toy_csv, "--scheme", "tfidf",
            "--output-format", "tsv", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "word\tidf"
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_stable_output_bytes(self, toy_csv, tmp_path):
        outs = [tmp_path / "w1.json", tmp_path / "w2.json"]
        for out in outs:
            argv = [
                "weights", "--data", toy_csv, "--scheme", "kld",
                "--seed", "1", "--out", str(out),
            ]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_scheme_none_rejected(self, toy_csv, tmp_path, capsys):
        argv = [
            "weights", "--data", toy_csv, "--scheme", "none",
            "--seed", "1", "--out", str(tmp_path / "w.json"),
        ]
        assert main(argv) == 2
        assert "no weights" in capsys.readouterr().err

    def test_bad_top_k_rejected(self, toy_csv, tmp_path, capsys):
        argv = [
            "weights", "--data", toy_csv, "--scheme", "tfcr",
            "--top-k", "0", "--seed", "1", "--out", str(tmp_path / "w.json"),
        ]
        assert main(argv) == 2
        assert "--top-k" in capsys.readouterr().err


class TestVectorize:
    def test_tsv_shape_for_category_scheme(self, toy_csv, tmp_path):
        out = tmp_path / "vectors.tsv"
        argv = [
            "vectorize", "--data", toy_csv, "--scheme", "tfcr",
            "--embedding", "synthetic:3:1", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 2
        # source id + label + 2 categories x 3 dimensions
        assert all(len(row) == 2 + 6 for row in rows)
        assert rows[0][1] == "A" and rows[1][1] == "B"
        floats = [float(v) for row in rows for v in row[2:]]
        assert all(abs(v) < 1.0 for v in floats)

    def test_plain_scheme_dimension(self, toy_csv, tmp_path):
        out = tmp_path / "vectors.tsv"
        argv = [
            "vectorize", "--data", toy_csv, "--scheme", "none",
            "--embedding", "synthetic:3:1", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert all(len(row) == 2 + 3 for row in rows)

    @pytest.mark.parametrize("flags", [
        ["--no-standardize"], ["--standardize"], ["--epochs", "3"], ["--l2", "5"],
        ["--learning-rate", "0.1"], ["--decay", "0.1"], ["--batch-size", "4"],
        ["--tolerance", "0.1"],
    ])
    def test_learner_flags_rejected(self, flags, toy_csv, tmp_path):
        out = tmp_path / "vectors.tsv"
        argv = ["vectorize", "--data", toy_csv, "--scheme", "none",
                "--embedding", "synthetic:3:1", "--seed", "1", "--out", str(out), *flags]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_learner_keys_in_shared_config_ignored(self, toy_csv, tmp_path):
        # epochs and l2 are options of train: vectorize ignores them, as
        # every command ignores another command's config keys.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epochs": 3, "l2": 5, "alpha": 1.5}))
        out = tmp_path / "vectors.tsv"
        argv = ["vectorize", "--config", str(config), "--data", toy_csv,
                "--scheme", "tftrr", "--embedding", "synthetic:3:1", "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.with_name("vectors.tsv.manifest.json").read_text())[
            "config"]["alpha"] == 1.5

    def test_key_of_no_command_in_config_exits_2(self, toy_csv, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epochs": 3, "epoch": 3}))
        out = tmp_path / "vectors.tsv"
        argv = ["vectorize", "--config", str(config), "--data", toy_csv,
                "--scheme", "none", "--embedding", "synthetic:3:1", "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 2
        assert "unknown config keys: epoch\n" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(train_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    argv = [
        "train", "--data", train_csv, "--scheme", "tfcr",
        "--classifier", "logreg", "--embedding", "synthetic:8:2",
        "--seed", "4", "--epochs", "200", "--standardize",
        "--out", str(out),
    ]
    assert main(argv) == 0
    return out


@pytest.fixture
def glove_file(train_csv, tmp_path):
    """A GloVe file over the training vocabulary plus one word, "zebra",
    that no training document contains."""
    with open(train_csv, encoding="utf-8", newline="") as fh:
        vocab = sorted({t for row in csv.DictReader(fh) for t in row["text"].split()})
    path = tmp_path / "glove.txt"
    save_glove_text(synthetic_model(vocab + ["zebra"], 8, seed=3), path)
    return path


def _train(train_csv, embedding, out, scheme="tfcr"):
    argv = [
        "train", "--data", train_csv, "--scheme", scheme, "--classifier", "logreg",
        "--embedding", str(embedding), "--seed", "4", "--epochs", "20", "--out", str(out),
    ]
    assert main(argv) == 0
    return out


def _predict(model, lines, tmp_path):
    inputs = tmp_path / "docs.txt"
    inputs.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pred.tsv"
    assert main(["predict", "--model", str(model), "--input", str(inputs), "--out", str(out)]) == 0
    return out.read_text().splitlines()


class TestTrainPredict:
    def test_train_writes_model_and_manifest(self, trained):
        assert trained.is_file()
        manifest = json.loads(
            (trained.parent / "model.bin.manifest.json").read_text()
        )
        assert manifest["command"] == "train"
        assert "weights" not in manifest
        saved = load_model(trained)
        assert saved.table.scheme == "tfcr"
        assert saved.table.categories == ("topic0", "topic1", "topic2")
        assert saved.embedding.dimension == 8
        assert saved.scaler is not None

    def test_identical_trains_identical_bytes(self, train_csv, glove_file, tmp_path):
        first = _train(train_csv, glove_file, tmp_path / "a.bin")
        second = _train(train_csv, glove_file, tmp_path / "b.bin")
        assert first.read_bytes() == second.read_bytes()

    def test_predict_reads_neither_embedding_nor_manifest(
        self, train_csv, glove_file, tmp_path
    ):
        model = _train(train_csv, glove_file, tmp_path / "model.bin")
        lines = ["cat0kw00 common001", "cat1kw02 cat1kw03", "zebra"]
        before = _predict(model, lines, tmp_path)
        glove_file.unlink()
        Path(str(model) + ".manifest.json").unlink()
        assert _predict(model, lines, tmp_path) == before

    def test_none_model_ignores_words_unseen_in_training(
        self, train_csv, glove_file, tmp_path
    ):
        model = _train(train_csv, glove_file, tmp_path / "none.bin", scheme="none")
        plain, with_zebra = _predict(
            model, ["cat0kw00 common001", "cat0kw00 zebra common001 zebra"], tmp_path
        )[1:]
        assert plain == with_zebra

    def test_embedding_option_removed(self, trained, tmp_path):
        argv = ["predict", "--model", str(trained), "--embedding", "synthetic:8:2"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_predict_recovers_training_labels(self, trained, train_csv, tmp_path):
        with open(train_csv, encoding="utf-8", newline="") as fh:
            data_rows = list(csv.DictReader(fh))[:6]
        inputs = tmp_path / "docs.txt"
        inputs.write_text("\n".join(row["text"] for row in data_rows) + "\n")
        out = tmp_path / "pred.tsv"
        argv = [
            "predict", "--model", str(trained),
            "--input", str(inputs), "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["label", "topic0", "topic1", "topic2"]
        predicted = [line.split("\t")[0] for line in lines[1:]]
        assert predicted == [row["label"] for row in data_rows]

    def test_predict_to_stdout_from_stdin(self, trained, train_csv, capsys, monkeypatch):
        with open(train_csv, encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        monkeypatch.setattr("sys.stdin", io.StringIO(row["text"] + "\n"))
        assert main(["predict", "--model", str(trained)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("label\t")
        assert lines[1].split("\t")[0] == row["label"]

    def test_empty_line_predicts_without_crash(self, trained, tmp_path):
        inputs = tmp_path / "docs.txt"
        inputs.write_text("cat0kw00 cat0kw01\n\nunrelated words entirely\n")
        out = tmp_path / "pred.tsv"
        argv = [
            "predict", "--model", str(trained),
            "--input", str(inputs), "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + three input lines
        labels = {"topic0", "topic1", "topic2"}
        assert all(line.split("\t")[0] in labels for line in lines[1:])

    def test_missing_model_exits_2(self, tmp_path, capsys):
        argv = ["predict", "--model", str(tmp_path / "nope.bin")]
        assert main(argv) == 2
        assert "not found" in capsys.readouterr().err

    def test_format_1_model_exits_1(self, tmp_path, capsys):
        model = tmp_path / "old.bin"
        model.write_bytes(b"CWLM" + bytes(29))
        argv = ["predict", "--model", str(model), "--input", str(model)]
        assert main(argv) == 1
        assert "retrain" in capsys.readouterr().err

    def test_format_2_model_exits_1(self, tmp_path, capsys):
        model = tmp_path / "old.bin"
        with open(model, "wb") as fh:
            np.savez(fh, format=np.int64(2), words=np.array(["a"]), terms=np.array(["a"]))
        argv = ["predict", "--model", str(model), "--input", str(model)]
        assert main(argv) == 1
        assert "a format-2 model file, no longer read; retrain it" in capsys.readouterr().err

    def test_tftrr_min_count_2_predicts_as_in_memory(self, train_csv, tmp_path):
        # min_count 2 drops the once-seen "solo" words from the table while
        # their embedding rows stay: they weigh 0, and a table word absent
        # from a category still gets the floor ln(alpha).
        with open(train_csv, encoding="utf-8", newline="") as fh:
            rows = [(r["text"], r["label"]) for r in csv.DictReader(fh)]
        rows = [(f"{text} solo{i}" if i < 6 else text, label) for i, (text, label) in enumerate(rows)]
        data = _write_dataset(tmp_path / "data.csv", rows)
        vocab = sorted({t for text, _ in rows for t in text.split()})
        glove = tmp_path / "glove.txt"
        save_glove_text(synthetic_model(vocab + ["zebra"], 8, seed=3), glove)
        model = tmp_path / "m.bin"
        argv = [
            "train", "--data", data, "--scheme", "tftrr", "--classifier", "logreg",
            "--embedding", str(glove), "--seed", "4", "--epochs", "20",
            "--min-count", "2", "--out", str(model),
        ]
        assert main(argv) == 0
        saved = load_model(model)
        assert sorted(set(saved.embedding.words) - set(saved.table.words)) == [
            f"solo{i}" for i in range(6)
        ]
        lines = [text for text, _ in rows[:12]] + ["solo1 solo2", "solo0 zebra " + rows[7][0], ""]
        got = _predict(model, lines, tmp_path)
        corpus = load_csv(data)
        table = build_table(build_stats(corpus, min_count=2), "tftrr")
        docs = from_token_lists([tokenize(line) for line in lines], [0] * len(lines), ["x"]).documents
        features = CorpusVectorizer(docs, load_embeddings(str(glove))).matrix(table)
        labels, scores = predict_many(saved.model, standardize_apply(saved.scaler, features))
        expected = ["\t".join(["label", *corpus.categories])] + [
            "\t".join([corpus.categories[c], *(repr(float(v)) for v in row)])
            for c, row in zip(labels, scores)
        ]
        assert got == expected


@pytest.fixture(scope="module")
def separable_400(tmp_path_factory):
    corpus = separable_corpus(num_docs=400, seed=0)
    rows = [(" ".join(d.tokens), corpus.categories[d.label]) for d in corpus.documents]
    return _write_dataset(tmp_path_factory.mktemp("data") / "sep400.csv", rows)


class TestStandardizeDefault:
    def _mean_f1(self, data, tmp_path, *extra):
        out = tmp_path / "r.csv"
        argv = [
            "cv", "--data", data, "--embedding", "synthetic:16:1", "--scheme", "tfcr",
            "--classifier", "logreg", "--k", "10", "--seed", "1", "--out", str(out), *extra,
        ]
        assert main(argv) == 0
        return float(out.read_text().splitlines()[-1].split(",")[6])

    def test_default_run_scores_well_above_chance(self, separable_400, tmp_path):
        # Four balanced categories: chance is 0.25.
        assert self._mean_f1(separable_400, tmp_path) > 0.9

    def test_no_standardize_reproduces_the_old_default(self, separable_400, tmp_path):
        plain = self._mean_f1(separable_400, tmp_path, "--no-standardize")
        assert round(plain, 4) == 0.0926
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"standardize": False}))
        assert self._mean_f1(separable_400, tmp_path, "--config", str(config)) == plain


@pytest.mark.parametrize("spec", ["synthetic:0:1", "synthetic:x:1", "synthetic:4"])
def test_bad_synthetic_spec_exits_2(spec, toy_csv, tmp_path, capsys):
    argv = ["vectorize", "--data", toy_csv, "--scheme", "none", "--embedding", spec,
            "--seed", "1", "--out", str(tmp_path / "v.tsv")]
    assert main(argv) == 2
    assert "bad synthetic embedding spec" in capsys.readouterr().err


def test_parser_built_at_most_once_per_process(toy_csv, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "catweight":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scheme": "kld"}))
    argv = ["weights", "--config", str(config), "--data", toy_csv]  # no --seed: exits 2
    assert main(argv) == 2
    assert main(argv) == 2
    assert "--seed is required" in capsys.readouterr().err
    assert len(built) <= 1


@pytest.mark.parametrize("command", ["cv", "weights"])
def test_kld_raw_flag_removed(command, toy_csv, tmp_path):
    argv = [command, "--data", toy_csv, "--seed", "1", "--kld-raw"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["cv", "curve", "weights", "vectorize", "train"])
def test_alpha_below_one_exits_2_before_loading(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--seed", "1",
            "--alpha", "0.5", "--out", str(out)]
    assert main(argv) == 2
    assert "--alpha must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "curve", "train"])
@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["--l2", "-1"], "l2 must be >= 0, got -1.0"),
    (["--learning-rate", "nan"], "learning_rate must be finite, got nan"),
])
def test_invalid_learner_value_exits_2_before_loading(
    command, flags, message, tmp_path, capsys
):
    out = tmp_path / "out"
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--seed", "1",
            "--scheme", "tfcr", "--out", str(out), *flags]
    assert main(argv) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "curve", "train"])
@pytest.mark.parametrize("entries, message", [
    ({"epochs": "ten"}, "--epochs must be an integer, got 'ten'"),
    ({"learning_rate": [0.1]}, "--learning-rate must be a number, got [0.1]"),
])
def test_non_numeric_learner_value_in_config_exits_2(
    command, entries, message, toy_csv, tmp_path, capsys
):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entries))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--data", toy_csv, "--seed", "1",
            "--scheme", "tfcr", "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_2(jobs, toy_csv, tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(_cv_args(toy_csv, str(out), **{"--jobs": jobs})) == 2
    assert f"error: --jobs must be >= 1, got {jobs}\n" in capsys.readouterr().err
    assert not out.exists()


def test_non_integer_jobs_in_config_exits_2(toy_csv, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"jobs": "two"}))
    out = tmp_path / "results.csv"
    assert main(["cv", "--config", str(config), *_cv_args(toy_csv, str(out))[1:]]) == 2
    assert "error: --jobs must be an integer, got 'two'\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, entries, flags, message", [
    ("cv", {"k": "three"}, [], "--k must be an integer, got 'three'"),
    ("cv", {"seed": "abc"}, [], "--seed must be an integer, got 'abc'"),
    ("cv", {"min_count": "x"}, [], "--min-count must be an integer, got 'x'"),
    ("cv", {"sample": "ten"}, [], "--sample must be an integer, got 'ten'"),
    ("cv", {}, ["--sample", "-5"], "--sample must be >= 1, got -5"),
    ("cv", {}, ["--sample", "0"], "--sample must be >= 1, got 0"),
    ("curve", {"min": "five", "max": 10, "step": 5}, [], "--min must be an integer, got 'five'"),
    ("curve", {"min": 5, "max": [10], "step": 5}, [], "--max must be an integer, got [10]"),
    # An integer given as a string is read as that integer.
    ("curve", {"min": "5", "max": 10, "step": 5}, [], "dataset not found"),
    ("weights", {"top_k": "x"}, [], "--top-k must be an integer, got 'x'"),
    ("train", {"seed": "x"}, [], "--seed must be an integer, got 'x'"),
    ("vectorize", {"min_count": "x"}, [], "--min-count must be an integer, got 'x'"),
])
def test_bad_integer_option_exits_2_before_loading(
    command, entries, flags, message, tmp_path, capsys
):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, **entries}))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--data", str(tmp_path / "absent.csv"),
            "--scheme", "tfcr", "--out", str(out), *flags]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [0.9, "x"])
def test_alpha_below_one_in_config_exits_2(alpha, toy_csv, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"alpha": alpha}))
    argv = ["weights", "--config", str(config), "--data", toy_csv, "--seed", "1",
            "--scheme", "tftrr", "--out", str(tmp_path / "w.json")]
    assert main(argv) == 2
    assert f"--alpha must be >= 1, got {alpha}" in capsys.readouterr().err


@pytest.mark.parametrize("entries, named", [
    ({"kld_raw": True}, "kld_raw"),
    ({"epoch": 3}, "epoch"),
    ({"kld_raw": True, "k": 3, "epoch": 3}, "epoch, kld_raw"),  # k is a cv option
])
def test_unknown_config_key_exits_2(entries, named, toy_csv, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entries))
    out = tmp_path / "w.json"
    argv = ["weights", "--config", str(config), "--data", toy_csv, "--seed", "1",
            "--scheme", "kld", "--out", str(out)]
    assert main(argv) == 2
    assert f"unknown config keys: {named}\n" in capsys.readouterr().err
    assert not out.exists()


def test_config_shared_between_commands(toy_csv, tmp_path):
    # k and epochs are options of cv, not of weights: weights ignores them.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, "scheme": "kld", "k": 3, "epochs": 4}))
    out = tmp_path / "w.json"
    argv = ["weights", "--config", str(config), "--data", toy_csv, "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["scheme"] == "kld"


def test_version_flag_reports_name():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("command", ["cv", "curve", "vectorize", "train"])
def test_embedding_covering_no_corpus_term_warns(command, train_csv, tmp_path, capsys):
    glove = tmp_path / "glove.txt"
    save_glove_text(synthetic_model(["zebra", "yak"], 4, seed=1), glove)
    argv = [command, "--data", train_csv, "--embedding", str(glove), "--seed", "2",
            "--out", str(tmp_path / "out")]
    argv += {
        "cv": ["--k", "3", "--epochs", "2"],
        "curve": ["--k", "4", "--sizes", "12", "--epochs", "2"],
        "vectorize": ["--scheme", "tfcr"],
        "train": ["--scheme", "tfcr", "--epochs", "2"],
    }[command]
    assert main(argv) == 0
    captured = capsys.readouterr()
    n_terms = len({t for line in Path(train_csv).read_text().splitlines()[1:]
                   for t in line.split(",")[0].split()})
    assert (
        f"warning: {glove} has no row for any of the {n_terms} corpus terms"
        in captured.err.splitlines()
    )
    assert "warning" not in captured.out
