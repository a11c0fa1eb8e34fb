"""Output checks that do not rely on the code under test.

Each check returns a list of problems (empty when the output is right).
Readers parse the CLI's CSV/TSV files with the standard library; the
TF-CR recomputation tokenizes, counts and averages on its own and only
asks catweight for the matrix it compares against.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

_WORD = re.compile(r"[a-z]+")


def read_grid(path: Path) -> dict[tuple[str, str], dict]:
    """(scheme, classifier) -> {"folds": [...], "mean": float | None, "failed": bool}."""
    cells: dict[tuple[str, str], dict] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            cell = cells.setdefault((row["scheme"], row["classifier"]),
                                    {"folds": [], "mean": None, "failed": False})
            if row["fold"] == "failed":
                cell["failed"] = True
            elif row["fold"] == "mean":
                cell["mean"] = float(row["macro_f1"])
            else:
                cell["folds"].append((float(row["macro_f1"]), float(row["accuracy"])))
    return cells


def check_grid(cells: dict, k: int, schemes, classifiers) -> list[str]:
    problems = []
    expected = {(s, c) for s in schemes for c in classifiers}
    if set(cells) != expected:
        problems.append(f"grid cells {sorted(cells)} != {sorted(expected)}")
    for key, cell in sorted(cells.items()):
        if cell["failed"]:
            continue
        if len(cell["folds"]) != k or cell["mean"] is None:
            problems.append(f"{key}: {len(cell['folds'])} fold rows, mean row {cell['mean']}")
            continue
        scores = [f1 for f1, _ in cell["folds"]]
        if not all(0.0 <= v <= 1.0 for pair in cell["folds"] for v in pair):
            problems.append(f"{key}: score outside [0, 1]: {cell['folds']}")
        if abs(cell["mean"] - math.fsum(scores) / k) > 1e-12:
            problems.append(f"{key}: mean row {cell['mean']} != mean of folds {scores}")
    tfcr, none = cells.get(("tfcr", "logreg")), cells.get(("none", "logreg"))
    if tfcr and none and tfcr["mean"] is not None and none["mean"] is not None:
        if not tfcr["mean"] > none["mean"]:
            problems.append(f"tfcr/logreg {tfcr['mean']} does not beat none/logreg {none['mean']}")
    return problems


def read_curve(path: Path) -> tuple[list[str], dict[int, dict[str, float]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    schemes = rows[0][1:]
    return schemes, {int(r[0]): dict(zip(schemes, map(float, r[1:]))) for r in rows[1:]}


def check_curve(points: dict, sizes) -> list[str]:
    problems = []
    if sorted(points) != sorted(sizes):
        problems.append(f"curve sizes {sorted(points)} != requested {sorted(sizes)}")
    for size, scores in points.items():
        if not all(0.0 <= v <= 1.0 for v in scores.values()):
            problems.append(f"size {size}: score outside [0, 1]: {scores}")
    if points:
        top = points[max(points)]
        if not top.get("tfcr", 0.0) > top.get("none", 1.0):
            problems.append(f"largest size: tfcr {top.get('tfcr')} does not beat none {top.get('none')}")
    return problems


def read_predictions(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Categories, predicted labels and the score matrix of a predict TSV."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    categories = rows[0][1:]
    labels = [r[0] for r in rows[1:]]
    scores = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    return categories, labels, scores.reshape(len(labels), len(categories))


def check_predictions(categories, labels, scores) -> list[str]:
    problems = []
    argmax = [categories[i] for i in np.argmax(scores, axis=1)]
    wrong = sum(a != b for a, b in zip(labels, argmax))
    if wrong:
        problems.append(f"{wrong} labels are not the argmax of their row")
    sums = scores.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        problems.append(f"logreg rows sum to {sums.min()}..{sums.max()}, not 1")
    return problems


def macro_f1(gold: list[str], predicted: list[str], categories) -> float:
    """Unweighted mean over all categories of per-category F1."""
    f1s = []
    for c in categories:
        tp = sum(g == c and p == c for g, p in zip(gold, predicted))
        n_pred = sum(p == c for p in predicted)
        n_gold = sum(g == c for g in gold)
        prec = tp / n_pred if n_pred else 0.0
        rec = tp / n_gold if n_gold else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return math.fsum(f1s) / len(f1s)


def _glove_rows(path: Path, wanted: set[str]) -> dict[str, np.ndarray]:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word, _, rest = line.partition(" ")
            if word in wanted and word not in rows:
                rows[word] = np.array([float(x) for x in rest.split()], dtype=np.float64)
    return rows


def check_tfcr_features(corpus_csv: Path, glove: Path, k: int, seed: int, docs: int = 5) -> list[str]:
    """TF-CR features of a few fold-0 test documents, recomputed here from
    the raw training tokens, against CorpusVectorizer.matrix(build_table(
    build_stats(...))) on the same split, to 1e-9."""
    from catweight.corpus import load_csv, make_splits
    from catweight.embeddings import load_embeddings
    from catweight.stats import build_stats
    from catweight.vectorize import CorpusVectorizer
    from catweight.weighting import build_table

    corpus = load_csv(corpus_csv)
    plan = make_splits(corpus, k, seed=seed)
    train, test = plan.train_indices(0), plan.fold_indices(0)[:docs]
    table = build_table(build_stats(corpus, doc_subset=train), "tfcr")
    X = CorpusVectorizer(corpus.documents, load_embeddings(glove)).matrix(table)

    with open(corpus_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    tokens = [_WORD.findall(r["text"].lower()) for r in rows]
    labels = [r["label"] for r in rows]
    categories = list(dict.fromkeys(labels))
    if tuple(categories) != tuple(corpus.categories):
        return [f"category order {corpus.categories} != first appearance {categories}"]
    count: dict[str, Counter] = defaultdict(Counter)
    cat_tokens: Counter = Counter()
    for i in train.tolist():
        for t in tokens[i]:
            count[t][labels[i]] += 1
        cat_tokens[labels[i]] += len(tokens[i])
    vectors = _glove_rows(glove, {t for i in test.tolist() for t in tokens[i]})
    d = len(next(iter(vectors.values())))
    problems = []
    for i in test.tolist():
        for ci, c in enumerate(categories):
            num, den = np.zeros(d), 0.0
            for t in tokens[i]:
                wc = count[t][c] if t in count else 0
                if wc == 0 or t not in vectors:
                    continue
                w = wc * wc / (cat_tokens[c] * sum(count[t].values()))
                num += w * vectors[t]
                den += w
            expected = num / den if den else num
            got = X[i, ci * d:(ci + 1) * d]
            gap = float(np.max(np.abs(got - expected)))
            if gap > 1e-9:
                problems.append(f"tfcr features of document {i}, category {c}: off by {gap:.3g}")
    return problems
