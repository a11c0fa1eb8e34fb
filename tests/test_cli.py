"""End-to-end tests of the command-line interface.

Each test drives ``main`` with real argv lists against small datasets
written to disk, mirroring how the tool is used from a shell.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catweight import (
    CorpusVectorizer,
    ModelFormatError,
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
import catweight
from catweight import classify, evaluation, vectorize
from catweight.cli import _predict_input, main
from catweight.weighting import SCHEMES
from oracles import oracle_block_crcs, oracle_member

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

    def test_config_lists_read_as_their_items(self, train_csv, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scheme": ["tfcr", " kld"], "classifier": ["svm"]}))
        out = tmp_path / "results.csv"
        argv = _cv_args(train_csv, str(out), **{"--scheme": None, "--classifier": None,
                                                 "--config": str(config)})
        assert main(argv) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert {row[1] for row in rows} == {"tfcr", "kld"}
        assert {row[3] for row in rows} == {"svm"}

    @pytest.mark.parametrize("key, value", [("scheme", ["tfcr", 1]), ("classifier", [None])])
    def test_config_list_of_non_names_exits_2(self, key, value, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        argv = ["cv", "--config", str(config), "--data", str(tmp_path / "absent.csv"),
                "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --{key} must be a name, a comma list or a list of names, got {value!r}\n"
        )

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

    def test_manifest_records_the_values_that_ran(self, train_csv, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"seed": "3", "k": 3.0, "epochs": 4.0, "l2": 0, "alpha": "1.5", "stratified": True}
        ))
        out = tmp_path / "results.csv"
        argv = ["cv", "--config", str(config), "--data", train_csv,
                "--embedding", "synthetic:4:1", "--scheme", "tftrr", "--out", str(out)]
        assert main(argv) == 0
        ran = json.loads((tmp_path / "results.csv.manifest.json").read_text())["config"]
        assert [ran[key] for key in ("seed", "k", "epochs", "l2", "alpha", "stratified")] == [
            3, 3, 4, 0.0, 1.5, True]
        assert [type(ran[key]) for key in ("seed", "k", "epochs", "l2", "alpha")] == [
            int, int, int, float, float]

    def test_jobs_flag_keeps_csv_identical(self, train_csv, tmp_path):
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        base = {"--scheme": "all", "--classifier": "logreg,svm"}
        assert main(_cv_args(train_csv, str(serial), **base)) == 0
        assert main(
            _cv_args(train_csv, str(threaded), **dict(base, **{"--jobs": "3"}))
        ) == 0
        assert serial.read_bytes() == threaded.read_bytes()


def test_cv_and_curve_bytes_do_not_depend_on_the_cpu_count(train_csv, tmp_path, monkeypatch):
    # Criterion 8 with the default --jobs: the default worker count, here
    # 1 (no pool) or 3, moves no output byte.
    outputs = []
    for cpus in (1, 3):
        monkeypatch.setattr(evaluation, "_default_jobs", lambda: cpus)
        cv, curve = tmp_path / f"cv{cpus}.csv", tmp_path / f"curve{cpus}.csv"
        cv_argv = _cv_args(train_csv, str(cv), **{"--scheme": "all", "--classifier": "all"})
        assert main(cv_argv) == 0
        curve_argv = [
            "curve", "--data", train_csv, "--embedding", "synthetic:4:1",
            "--scheme", "all", "--classifier", "logreg", "--k", "4", "--seed", "5",
            "--epochs", "8", "--sizes", "8,16,24", "--out", str(curve),
        ]
        assert main(curve_argv) == 0
        manifest = json.loads(Path(f"{cv}.manifest.json").read_text())
        assert manifest["config"]["jobs"] is None
        outputs.append((cv.read_bytes(), curve.read_bytes()))
    assert outputs[0] == outputs[1]


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

    def test_config_list_of_one_scheme_reads_as_it(self, toy_csv, tmp_path, capsys):
        config = tmp_path / "run.json"
        argv = ["weights", "--config", str(config), "--data", toy_csv, "--seed", "1",
                "--out", str(tmp_path / "weights.json")]
        config.write_text(json.dumps({"scheme": ["tfcr"]}))
        assert main(argv) == 0
        assert json.loads((tmp_path / "weights.json").read_text())["scheme"] == "tfcr"
        config.write_text(json.dumps({"scheme": ["tfcr", "kld"]}))
        assert main(argv) == 2
        assert "error: weights takes exactly one scheme" in capsys.readouterr().err

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
    inputs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "pred.tsv"
    assert main(["predict", "--model", str(model), "--input", str(inputs), "--out", str(out)]) == 0
    return out.read_text().splitlines()


def _predict_bytes(model, text, tmp_path):
    """predict's exit code and TSV bytes for the input ``text``."""
    inputs, out = tmp_path / "input.txt", tmp_path / "out.tsv"
    inputs.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    code = main(["predict", "--model", str(model), "--input", str(inputs), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


_BLOCK = classify._BLOCK_ROWS


def _blocked_model(directory, num_words, seed=None):
    """A tfcr model file over the words ``w0000``, ``w0001``, ... of a
    three-category corpus in which every word falls in two documents (so
    mostly in two categories); its embedding rows are in word order, or
    shuffled by ``seed``."""
    words = [f"w{i:04d}" for i in range(num_words)]
    rows = [(" ".join(words[(5 * i + j) % num_words] for j in range(10)), f"c{i % 3}")
            for i in range(-(-2 * num_words // 10))]
    data = _write_dataset(directory / "blocked.csv", rows)
    order = np.arange(num_words)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(num_words)
    glove = directory / "blocked.txt"
    save_glove_text(synthetic_model([words[i] for i in order], 8, seed=1), glove)
    model = directory / "blocked.bin"
    argv = ["train", "--data", data, "--embedding", str(glove), "--scheme", "tfcr",
            "--classifier", "logreg", "--seed", "1", "--epochs", "5", "--out", str(model)]
    assert main(argv) == 0
    return model


def _where(model, name, word):
    """``(item, block)``: where the data of ``word`` starts in the member
    ``name`` (its sorted position, its embedding row or its first table
    entry) and the block that holds it."""
    with np.load(model) as npz:
        words, rows, keys = npz["words"], npz["word_rows"], npz["weight_keys"]
        width = len(npz["categories"])
    at = int(np.searchsorted(words, word))
    row = int(rows[at])
    if name in ("words", "word_rows"):
        return at, at // _BLOCK
    if name == "vectors":
        return row, row // _BLOCK
    return int(np.searchsorted(keys // width, row)), row // _BLOCK


def _resave(model, path, **changes):
    """A copy of ``model`` with arrays replaced, under matching block and
    zip CRC-32s, so each changed block meets its content checks."""
    with np.load(model) as npz:
        arrays = {name: npz[name] for name in npz.files} | changes
    for _ in range(2):  # the CRC-32s of the blocks as written, then the file again
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        arrays["block_crcs"] = np.array(
            [oracle_block_crcs(path, _BLOCK, name) for name in classify._BLOCKED], np.uint32)
    return path


def _damaged(model, directory, damage, word):
    """A copy of ``model`` with the block of ``word`` in one member
    damaged: a flipped bit (``flip``) or, under matching CRC-32s, words
    out of order, a repeated row, falling categories, a non-finite vector
    or a negative weight."""
    member, how = damage
    at, _ = _where(model, member, word)
    copy = directory / f"damaged-{member}-{how}.bin"
    if how == "flip":
        offset, _, item_bytes, _ = oracle_member(model, member)
        data = bytearray(model.read_bytes())
        data[offset + at * item_bytes] ^= 0x01
        copy.write_bytes(bytes(data))
        return copy
    with np.load(model) as npz:
        value = npz[member].copy()
    if how == "unsorted":  # the word and the next one swap places
        value[[at, at + 1]] = value[[at + 1, at]]
    elif how == "duplicate":  # the word takes the next word's row
        value[at] = value[at + 1]
    elif how == "falling":  # the word's first two categories swap places
        value[[at, at + 1]] = value[[at + 1, at]]
    elif how == "nan":
        value[at, 0] = np.nan
    else:  # a negative weight
        value[at] = -value[at]
    return _resave(model, copy, **{member: value})


_DAMAGES = [(name, "flip") for name in classify._BLOCKED] + [
    ("words", "unsorted"), ("word_rows", "duplicate"), ("weight_keys", "falling"),
    ("vectors", "nan"), ("weight_values", "negative"),
]


class TestPredictReadsBlocks:
    """A predict reads and checks only the blocks of the words, their rows,
    their embedding rows and their table entries that its input uses."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        return _blocked_model(tmp_path_factory.mktemp("blocked"), 6 * _BLOCK, seed=0)

    @pytest.fixture(scope="class")
    def words(self, model):
        """A word ``target`` whose word and row blocks hold no word of the
        line ``other``, and which has two table entries and a next word in
        its word block."""
        with np.load(model) as npz:
            words, rows, keys = npz["words"], npz["word_rows"], npz["weight_keys"]
            entries = np.bincount(keys // len(npz["categories"]), minlength=len(words))
        at = [k for k in range(len(words)) if 0 < k % _BLOCK < _BLOCK - 1
              and entries[rows[k]] >= 2][0]
        target = str(words[at])
        others = [str(w) for k, w in enumerate(words) if k // _BLOCK != at // _BLOCK
                  and rows[k] // _BLOCK != rows[at] // _BLOCK]
        return target, " ".join(others[:3])

    def test_one_line_reads_fewer_blocks_than_the_file_holds(self, model, words, tmp_path):
        target, other = words
        with _counted_blocks() as read:
            assert _predict_bytes(model, f"{target} zebra {other}\n", tmp_path)[0] == 0
        with np.load(model) as npz:
            held = npz["block_crcs"].shape[1]
        assert sorted(read) == sorted(classify._BLOCKED)
        assert all(0 < len(blocks) < held for blocks in read.values())
        assert read["words"] == read["word_rows"] and read["vectors"] == read["weight_keys"]

    def test_blocks_read_do_not_grow_with_the_vocabulary(self, tmp_path):
        """The same line, over a vocabulary ten times as large, reads as
        many blocks of each member.  (``TestTrainPredict`` checks that the
        one-line path imports no scipy.)"""
        counts = []
        for num_words in (6 * _BLOCK, 60 * _BLOCK):
            directory = tmp_path / str(num_words)
            directory.mkdir()
            model = _blocked_model(directory, num_words)
            with np.load(model) as npz:
                assert len(npz["words"]) == num_words
            with _counted_blocks() as read:
                line = "w0000 w0020 w0040 w0070 zebra\n"
                assert _predict_bytes(model, line, directory)[0] == 0
            counts.append({name: len(blocks) for name, blocks in read.items()})
        # The four words' word blocks and the last, where "zebra" would sit.
        assert counts[0] == counts[1] and counts[0]["words"] == 5 and counts[0]["vectors"] == 4

    @pytest.mark.parametrize("damage", _DAMAGES, ids="-".join)
    def test_damaged_block_the_line_uses_exits_1(self, model, words, damage, tmp_path, capsys):
        target, other = words
        damaged = _damaged(model, tmp_path, damage, target)
        assert _predict_bytes(damaged, f"{other} {target}\n", tmp_path) == (1, None)
        err = capsys.readouterr().err
        block = _where(model, damage[0], target)[1]
        assert f"'{damage[0]}" in err and f" block {block}" in err, err

    @pytest.mark.parametrize("damage", _DAMAGES, ids="-".join)
    def test_damaged_block_no_word_of_the_line_uses(self, model, words, damage, tmp_path,
                                                    capsys):
        """Unnoticed by a one-line predict that does not use the block,
        whose TSV stays the same bytes; refused by ``load_model`` and by a
        batch whose lines use it."""
        target, other = words
        code, before = _predict_bytes(model, f"{other}\n", tmp_path)
        assert code == 0
        damaged = _damaged(model, tmp_path, damage, target)
        assert _predict_bytes(damaged, f"{other}\n", tmp_path) == (0, before)
        with pytest.raises(ModelFormatError, match=f"'{damage[0]}"):
            load_model(damaged)
        capsys.readouterr()
        assert _predict_bytes(damaged, f"{other}\n{target}\n", tmp_path) == (1, None)
        assert f"'{damage[0]}" in capsys.readouterr().err

    def test_blocks_read_without_pread(self, model, words, tmp_path, capsys, monkeypatch):
        """Where the platform has no ``os.pread``, blocks are read by a seek
        and a read of the buffered file (``classify._read_at``): the same
        blocks, the same TSV bytes and the same refusals."""
        monkeypatch.setattr(classify, "_PREAD", False)
        monkeypatch.delattr(os, "pread")
        self.test_one_line_reads_fewer_blocks_than_the_file_holds(model, words, tmp_path)
        for damage in _DAMAGES:
            directory = tmp_path / "-".join(damage)
            directory.mkdir()
            self.test_damaged_block_the_line_uses_exits_1(model, words, damage, directory, capsys)
            self.test_damaged_block_no_word_of_the_line_uses(model, words, damage, directory,
                                                             capsys)


@contextmanager
def _counted_blocks():
    """The blocks ``ModelFile._read_blocks`` reads, by member, while the
    context is open; each member is read at most once."""
    read = {}
    real = classify.ModelFile._read_blocks

    def count(self, name, blocks):
        assert name not in read
        read[name] = blocks.tolist()
        return real(self, name, blocks)

    with mock.patch.object(classify.ModelFile, "_read_blocks", count):
        yield read


class TestTrainPredict:
    def test_one_line_path_imports_no_scipy(self, train_csv, glove_file, tmp_path):
        """``import catweight``, ``--help`` and a one-line ``predict`` (of
        each scheme) run on numpy alone, in a fresh process."""
        models = [str(_train(train_csv, glove_file, tmp_path / f"{s}.bin", s)) for s in SCHEMES]
        line = tmp_path / "line.txt"
        line.write_text("cat0kw00 common001 cat1kw02 zebra\n", encoding="utf-8")
        script = """if True:
            import sys
            import catweight
            from catweight.cli import main
            assert "scipy" not in sys.modules, "import catweight"
            try:
                main(["--help"])
            except SystemExit:
                pass
            assert "scipy" not in sys.modules, "--help"
            line, *models = sys.argv[1:]
            for model in models:
                assert main(["predict", "--model", model, "--input", line,
                             "--out", line + ".tsv"]) == 0
                assert "scipy" not in sys.modules, "predict with " + model
        """
        src = str(Path(catweight.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script, str(line), *models], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_vectorizer_may_read_the_model_s_words(self, trained, tmp_path, monkeypatch, capsys):
        """predict builds its vectorizer while the model file is open, so
        the model's words can be read there, as a profiling hook may."""
        real, seen = vectorize.CorpusVectorizer.__init__, []

        def init(self, documents, model, **kwargs):
            seen.append(len(model.word_ids))
            real(self, documents, model, **kwargs)

        monkeypatch.setattr(vectorize.CorpusVectorizer, "__init__", init)
        assert _predict_bytes(trained, "cat0kw00 zebra\n", tmp_path)[0] == 0
        assert seen == [len(load_model(trained).embedding)]

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

    def test_each_row_equals_its_one_line_prediction(self, trained, train_csv, tmp_path):
        """With the gate set between them, the batch's features come from
        the per-category loop and each line's from the one sparse product,
        and the rows still have the same bytes."""
        with open(train_csv, encoding="utf-8", newline="") as fh:
            texts = [row["text"] for row in csv.DictReader(fh)]
        lines = texts + [f"{a} {b}" for a, b in zip(texts, texts[1:])] + ["", "zebra"]
        real = CorpusVectorizer._numerator
        with mock.patch.object(vectorize, "_PRODUCT_GATE", 500), \
                mock.patch.object(CorpusVectorizer, "_numerator", autospec=True,
                                  side_effect=real) as numerator:
            batch = _predict(trained, lines, tmp_path)
            assert numerator.call_count > 0
            numerator.reset_mock()
            assert len(batch) == 1 + len(lines)
            for line, row in zip(lines, batch[1:]):
                assert _predict(trained, [line], tmp_path) == [batch[0], row]
            assert numerator.call_count == 0

    @pytest.mark.parametrize("inner", ["\f", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_one_row_per_input_line(self, trained, tmp_path, capsys, inner):
        first = f"first line{inner}still the first line"
        [_, one_line_row] = _predict(trained, [first], tmp_path)
        inputs = tmp_path / "two.txt"
        inputs.write_bytes(f"{first}\nsecond line\n".encode("utf-8"))
        out = tmp_path / "two.tsv"
        capsys.readouterr()
        assert main(["predict", "--model", str(trained), "--input", str(inputs),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"2 predictions written to {out}\n"
        rows = out.read_text(encoding="utf-8").split("\n")
        assert len(rows) == 4 and rows[3] == ""  # header, two rows, final line end
        assert rows[1] == one_line_row

    def test_lines_end_at_lf_crlf_or_cr_from_file_and_stdin(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        lines = ["cat0kw00 common001", "", "cat1kw02\x85cat1kw03", "zebra"]
        expected = "\n".join(_predict(trained, lines, tmp_path)) + "\n"
        assert expected.count("\n") == 1 + len(lines)
        text = "cat0kw00 common001\r\n\rcat1kw02\x85cat1kw03\nzebra\r\n"
        inputs = tmp_path / "mixed.txt"
        inputs.write_bytes(text.encode("utf-8"))
        capsys.readouterr()
        assert main(["predict", "--model", str(trained), "--input", str(inputs)]) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setattr("sys.stdin", io.StringIO(text, newline=""))
        assert main(["predict", "--model", str(trained)]) == 0
        assert capsys.readouterr().out == expected

    def test_stdin_ending_lines_only_at_lf_is_read_as_a_file(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        """POSIX stdin ends lines only at \\n; predict reconfigures it, so a
        CR-only input gives one row per line, as from a file."""
        data = b"cat0kw00\rzebra\r"
        inputs = tmp_path / "cr.txt"
        inputs.write_bytes(data)
        capsys.readouterr()
        assert main(["predict", "--model", str(trained), "--input", str(inputs)]) == 0
        expected = capsys.readouterr().out
        assert expected.count("\n") == 3  # the header and two rows
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["predict", "--model", str(trained)]) == 0
        assert capsys.readouterr().out == expected

    def test_empty_input_gives_no_rows(self, trained, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["predict", "--model", str(trained)]) == 0
        assert capsys.readouterr().out == "label\ttopic0\ttopic1\ttopic2\n"

    def test_lines_without_known_tokens_are_counted_on_stderr(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        lines = ["cat0kw00 cat0kw01", "", "unrelated words entirely", "cat1kw02 zebra"]
        rows = _predict(trained, lines, tmp_path)
        expected = "\n".join(rows) + "\n"
        assert capsys.readouterr().err == (
            "warning: 2 of 4 input lines have no token the model knows "
            "and are scored as an empty document\n"
        )
        assert rows[3] == rows[2]  # scored as the empty line is
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["predict", "--model", str(trained)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err.startswith("warning: 2 of 4 input lines")
        _predict(trained, lines[:1] + lines[3:], tmp_path)
        assert capsys.readouterr().err == ""

    def test_each_line_s_tokens_are_dropped_before_the_next_line(
        self, trained, tmp_path, monkeypatch
    ):
        made, dead = [], []

        class Tokens(tuple):  # a tuple subclass cannot be weakly referenced
            def __del__(self):
                dead.append(self.number)

        def tracked_tokenize(text, config):
            assert sorted(dead) == made  # every earlier line's tokens are dead
            tokens = Tokens(tokenize(text, config))
            tokens.number = len(made)
            made.append(tokens.number)
            return tokens

        lines = ["cat0kw00 common001", "", "cat1kw02 cat1kw03", "zebra cat0kw00"]
        expected = _predict(trained, lines, tmp_path)
        monkeypatch.setattr("catweight.cli.tokenize", tracked_tokenize)
        gc.disable()  # deaths by reference count only
        try:
            assert _predict(trained, lines, tmp_path) == expected
        finally:
            gc.enable()
        assert made == [0, 1, 2, 3]
        assert sorted(dead) == made

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

    @pytest.mark.parametrize("flags, message", [
        ([], "standardizing needs at least 2 training documents, got 1"),
        (["--no-standardize"], "training needs >= 2 distinct labels, got 1"),
    ])
    @pytest.mark.parametrize("source", ["one-document file", "--sample 1"])
    def test_one_document_exits_1(self, flags, message, source, train_csv, tmp_path, capsys):
        data = train_csv
        sample = ["--sample", "1"] if source == "--sample 1" else []
        if not sample:
            data = _write_dataset(tmp_path / "one.csv", TOY_ROWS[:1])
        out = tmp_path / "m.bin"
        argv = ["train", "--data", data, "--embedding", "synthetic:4:1", "--seed", "1",
                *sample, *flags, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_one_document_training_fold_fails_its_cell(self, tmp_path):
        # Each of the two folds trains on one document: the scaler's
        # error, from the same pair step as train's, fails the svm cell.
        data = _write_dataset(tmp_path / "two.csv", TOY_ROWS)
        out = tmp_path / "cv.csv"
        argv = ["cv", "--data", data, "--embedding", "synthetic:4:1", "--seed", "1",
                "--k", "2", "--classifier", "svm", "--out", str(out)]
        assert main(argv) == 1
        with open(out, encoding="utf-8", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["macro_f1"] == (
            "TrainingError: standardizing needs at least 2 training documents, got 1"
        )


def _lines_of_whole_text(text):
    """``predict``'s lines of ``text``, split all at once."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _read_lines(stream, text):
    """The lines ``predict`` reads from ``stream``, less their line ends;
    with those ends they give back ``text``."""
    lines = list(stream)
    assert "".join(lines) == text
    return [line.removesuffix("\n").removesuffix("\r") for line in lines]


# The streams ``predict``'s lines come from: a ``newline=""`` text stream,
# an ``--input`` file and a stdin that, like POSIX stdin, ends lines only
# at ``\n`` until ``predict`` reconfigures it.
_SOURCES = ["stream", "file", "stdin"]


@contextmanager
def _source_lines(source, text, directory):
    """``_read_lines`` of ``text`` as ``source`` gives it; a file is
    written under ``directory``."""
    data = text.encode("utf-8")
    if source == "stream":
        yield _read_lines(io.StringIO(text, newline=""), text)
    elif source == "file":
        path = directory / "input.txt"
        path.write_bytes(data)
        with _predict_input(str(path)) as stream:
            yield _read_lines(stream, text)
    else:
        default = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
        try:
            with _predict_input("-") as stream:
                yield _read_lines(stream, text)
        finally:
            sys.stdin = default


class TestTextLines:
    """``predict``'s lines: its input file, a reconfigured stdin and a
    ``newline=""`` text stream end a line only at ``\\n``, ``\\r\\n`` or
    ``\\r``."""

    CASES = [
        ("", []),
        ("\n", [""]),
        ("\r", [""]),
        ("\r\n", [""]),
        ("a\r\nb\r\nc", ["a", "b", "c"]),
        ("ab\r\ncd\r\n", ["ab", "cd"]),
        ("ab\r", ["ab"]),
        ("ab\rcd\r", ["ab", "cd"]),
        ("no final line end", ["no final line end"]),
        ("x\r\r\ny\n\n\rz", ["x", "", "y", "", "", "z"]),
        ("\x85\u2028\f\x0b", ["\x85\u2028\f\x0b"]),
    ]

    @pytest.mark.parametrize("source", _SOURCES)
    @pytest.mark.parametrize("text, lines", CASES)
    def test_from_each_source(self, text, lines, source, tmp_path):
        assert _lines_of_whole_text(text) == lines
        with _source_lines(source, text, tmp_path) as got:
            assert got == lines

    def test_file_bytes_decode_as_utf8_with_replacement(self, tmp_path):
        data = "é€\r".encode("utf-8") + b"\xff\xe2\x82\n" + "z€".encode("utf-8")
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        text = data.decode("utf-8", errors="replace")
        with _predict_input(str(path)) as stream:
            lines = _read_lines(stream, text)
        assert lines == _lines_of_whole_text(text)
        assert lines == ["é€", "\ufffd\ufffd", "z€"]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_crlf_across_read_buffers(self, source, tmp_path):
        """A file or stdin streams through buffers of some KiB (8 in
        CPython); a \\r\\n near their boundary still ends one line."""
        for size in range(8188, 8196):
            text = "x" * size + "\r\n" + "é" * size + "\r\ry"
            with _source_lines(source, text, tmp_path) as got:
                assert got == ["x" * size, "é" * size, "", "y"]

    @pytest.fixture(scope="class")
    def lines_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("lines")

    @pytest.mark.parametrize("source", _SOURCES)
    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from("ab\r\n\x85"), max_size=20))
    def test_any_text_reads_as_split_at_once(self, source, lines_dir, text):
        with _source_lines(source, text, lines_dir) as got:
            assert got == _lines_of_whole_text(text)


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


@pytest.mark.parametrize("command", ["cv", "curve", "weights", "vectorize", "train"])
def test_infinite_alpha_exits_2_before_loading(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--seed", "1",
            "--alpha", "inf", "--out", str(out)]
    assert main(argv) == 2
    assert "error: --alpha must be finite, got inf\n" in capsys.readouterr().err
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
    # A bool or a float with a fraction is not read as an integer.
    ("cv", {"seed": 7.9}, [], "--seed must be an integer, got 7.9"),
    ("cv", {"k": 3.6}, [], "--k must be an integer, got 3.6"),
    ("cv", {"jobs": True}, [], "--jobs must be an integer, got True"),
    ("cv", {"epochs": 2.5}, [], "--epochs must be an integer, got 2.5"),
    ("train", {"batch_size": False}, [], "--batch-size must be an integer, got False"),
    ("curve", {"sizes": [240, 480.5]}, [], "bad --sizes value [240, 480.5]"),
    ("curve", {"sizes": [True, 480]}, [], "bad --sizes value [True, 480]"),
    # Out of range: k below 2, a count or ladder size below 1.
    ("cv", {}, ["--k", "1"], "--k must be >= 2, got 1"),
    ("curve", {"k": 1, "sizes": "240"}, [], "--k must be >= 2, got 1"),
    ("cv", {}, ["--min-count", "-3"], "--min-count must be >= 1, got -3"),
    ("vectorize", {"min_count": 0}, [], "--min-count must be >= 1, got 0"),
    ("curve", {}, ["--sizes", "0,240"], "--sizes must be >= 1, got 0,240"),
    ("curve", {"sizes": [240, -1]}, [], "--sizes must be >= 1, got [240, -1]"),
    # A float option, alpha included, takes no bool.
    ("cv", {"learning_rate": True}, [], "--learning-rate must be a number, got True"),
    ("cv", {"alpha": True}, [], "--alpha must be >= 1, got True"),
    # A whole float or a numeric string is read as that integer.
    ("cv", {"k": 3.0, "epochs": "5"}, [], "dataset not found"),
    ("curve", {"sizes": [240.0, "480"]}, [], "dataset not found"),
    # A path or name option takes a string, an option with choices one of them.
    ("weights", {"out": 5}, [], "--out must be a string, got 5"),
    ("weights", {"data": 5}, [], "--data must be a string, got 5"),
    ("predict", {"model": 5}, [], "--model must be a string, got 5"),
    ("predict", {"input": ["a.txt"]}, [], "--input must be a string, got ['a.txt']"),
    ("train", {"embedding": 1.5}, [], "--embedding must be a string, got 1.5"),
    ("cv", {"label_field": 0}, [], "--label-field must be a string, got 0"),
    ("weights", {"output_format": "xml"}, [], "--output-format must be one of json, tsv, got 'xml'"),
    ("vectorize", {"embedding_format": "foo"}, [],
     "--embedding-format must be one of auto, glove, word2vec-text, word2vec-binary, got 'foo'"),
    ("cv", {"format": ["csv"]}, [], "--format must be one of auto, csv, tsv, jsonl, 20ng, got ['csv']"),
])
def test_bad_integer_option_exits_2_before_loading(
    command, entries, flags, message, tmp_path, capsys, monkeypatch
):
    """Every option a config file sets is checked before any file is read
    or written (``--data`` names no file); none is written, not even the
    default ``weights.<output format>``."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"
    # A key of another subcommand, such as predict's data, is ignored.
    cfg = {"seed": 1, "data": "absent.csv", "scheme": "tfcr", "out": "out", **entries}
    config.write_text(json.dumps(cfg))
    assert main([command, "--config", str(config), *flags]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


# Each command with every option it needs, and an input (absent) to read.
_COMMANDS_WITHOUT_INPUT = [
    ("cv", ["--data", "absent.csv", "--seed", "1"]),
    ("curve", ["--data", "absent.csv", "--seed", "1", "--sizes", "10"]),
    ("weights", ["--data", "absent.csv", "--seed", "1", "--scheme", "tfcr"]),
    ("vectorize", ["--data", "absent.csv", "--seed", "1", "--scheme", "tfcr"]),
    ("train", ["--data", "absent.csv", "--seed", "1", "--scheme", "tfcr"]),
    ("predict", ["--model", "absent.bin"]),
]


@pytest.mark.parametrize("command, flags", _COMMANDS_WITHOUT_INPUT)
def test_out_in_a_missing_directory_exits_2_before_loading(
    command, flags, tmp_path, capsys, monkeypatch
):
    """Checked before the input (absent here) is looked for."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "missing" / "out.txt"
    assert main([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: output directory not found: {out.parent}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags", _COMMANDS_WITHOUT_INPUT)
def test_out_naming_a_directory_exits_2_before_loading(
    command, flags, tmp_path, capsys, monkeypatch
):
    """Checked before the input (absent here) is looked for, so no job
    runs only to fail on writing its result."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "taken"
    out.mkdir()
    assert main([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out names a directory: {out}\n"
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


@pytest.mark.parametrize("command, flags, default", [
    (command, flags, name) for (command, flags), name in zip(_COMMANDS_WITHOUT_INPUT, [
        "results.csv", "curve.csv", "weights.json", "vectors.tsv", "model.bin"])
] + [("weights", [*_COMMANDS_WITHOUT_INPUT[2][1], "--output-format", "tsv"], "weights.tsv")])
def test_default_out_naming_a_directory_exits_2_before_loading(
    command, flags, default, tmp_path, capsys, monkeypatch
):
    """A command's default output name gets the checks an explicit
    --out gets, before the input (absent here) is looked for."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / default).mkdir()
    assert main([command, *flags]) == 2
    assert capsys.readouterr().err == f"error: the default --out names a directory: {default}\n"
    assert [path.name for path in tmp_path.iterdir()] == [default]


@pytest.mark.parametrize("command, flags", _COMMANDS_WITHOUT_INPUT[:-1])
def test_default_out_without_write_permission_exits_2_before_loading(
    command, flags, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: Path(path) != Path("."))
    assert main([command, *flags]) == 2
    err = capsys.readouterr().err
    assert err == "error: the default --out cannot be written: no write permission on .\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags", _COMMANDS_WITHOUT_INPUT)
def test_out_without_write_permission_exits_2_before_loading(
    command, flags, tmp_path, capsys, monkeypatch
):
    """Asked of ``os.access``, before the input (absent here) is looked
    for; an existing result is neither opened nor truncated."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.txt"
    out.write_text("an earlier result", encoding="utf-8")
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: Path(path) != out)
    assert main([command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out cannot be written: no write permission on {out}\n"
    assert out.read_text(encoding="utf-8") == "an earlier result"


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root writes past mode bits"
)
def test_read_only_out_or_directory_exits_2_before_loading(tmp_path, capsys, monkeypatch):
    """Real mode bits: a read-only directory, result file or manifest."""
    monkeypatch.chdir(tmp_path)
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out.txt"
    try:
        for target in (locked, out, Path(f"{out}.manifest.json")):
            if target != locked:
                target.write_text("an earlier result", encoding="utf-8")
            target.chmod(0o555 if target == locked else 0o444)
            for command, flags in _COMMANDS_WITHOUT_INPUT:
                assert main([command, *flags, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err == f"error: --out cannot be written: no write permission on {target}\n"
            target.chmod(0o755 if target == locked else 0o644)
    finally:
        locked.chmod(0o755)
    assert out.read_text(encoding="utf-8") == "an earlier result"


@pytest.mark.parametrize("key", ["standardize", "stratified", "preserve_case", "case_fallback"])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, [True]])
def test_bad_boolean_option_exits_2_before_loading(key, value, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, key: value}))
    out = tmp_path / "out"
    argv = ["cv", "--config", str(config), "--data", str(tmp_path / "absent.csv"),
            "--out", str(out)]
    assert main(argv) == 2
    flag = "--" + key.replace("_", "-")
    assert f"error: {flag} must be true or false, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [True, False, None])
def test_boolean_option_takes_true_false_or_null(value, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, "standardize": value, "case_fallback": value}))
    argv = ["cv", "--config", str(config), "--data", str(tmp_path / "absent.csv")]
    assert main(argv) == 2
    assert "error: dataset not found" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [0.9, "x"])
def test_alpha_below_one_in_config_exits_2(alpha, toy_csv, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"alpha": alpha}))
    argv = ["weights", "--config", str(config), "--data", toy_csv, "--seed", "1",
            "--scheme", "tftrr", "--out", str(tmp_path / "w.json")]
    assert main(argv) == 2
    assert f"--alpha must be >= 1, got {alpha}" in capsys.readouterr().err


def test_infinite_alpha_in_config_exits_2(toy_csv, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"alpha": 1e400}')  # JSON reads this as an infinite float
    out = tmp_path / "w.json"
    argv = ["weights", "--config", str(config), "--data", toy_csv, "--seed", "1",
            "--scheme", "tftrr", "--out", str(out)]
    assert main(argv) == 2
    assert "error: --alpha must be finite, got inf\n" in capsys.readouterr().err
    assert not out.exists()


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
