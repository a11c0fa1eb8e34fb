"""Smoke tests of the scripts under ``scripts/``: they still import and run
against the package's public API."""

from __future__ import annotations

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _header(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return next(csv.reader(fh))


def test_demo_synthetic_writes_both_csvs(tmp_path, capsys):
    demo = _load("demo_synthetic")
    argv = ["--out-dir", str(tmp_path), "--docs", "200", "--k", "3", "--epochs", "5"]
    assert demo.main(argv) == 0
    assert _header(tmp_path / "results.csv") == [
        "dataset", "scheme", "embedding", "classifier",
        "train_size", "fold", "macro_f1", "accuracy",
    ]
    assert _header(tmp_path / "curve.csv") == ["train_size", "none", "tfcr"]


def test_run_20ng_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _load("run_20ng").main(["--help"])
    assert excinfo.value.code == 0
    assert "--embedding" in capsys.readouterr().out


def test_run_20ng_loads_only_rows_the_corpus_uses(tmp_path, capsys):
    from catweight import save_glove_text, synthetic_model

    data = tmp_path / "20ng"
    used = set()
    for c, category in enumerate(("alt.atheism", "sci.space")):
        (data / category).mkdir(parents=True)
        for i in range(6):
            words = [f"topic{c}", f"word{i}", "shared"]
            used.update(words)
            (data / category / str(i)).write_text(" ".join(words) + "\n")
    glove = tmp_path / "glove.txt"
    covered = sorted(used)[:5]
    save_glove_text(synthetic_model(covered + ["unused1", "unused2"], 4, seed=1), glove)
    argv = ["--data", str(data), "--embedding", str(glove), "--out-dir", str(tmp_path / "out"),
            "--k", "2", "--epochs", "2", "--skip-curve"]
    assert _load("run_20ng").main(argv) == 0
    assert f"{len(covered)} words, d = 4" in capsys.readouterr().out
    assert _header(tmp_path / "out" / "results.csv")[0] == "dataset"
