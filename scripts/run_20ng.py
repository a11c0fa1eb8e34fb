#!/usr/bin/env python3
"""Reproduce the 20 Newsgroups comparison with real embeddings.

Runs the full scheme grid (none, tfidf, kld, tftrr, tfcr) with
logistic regression under 10-fold cross-validation, then the
1,000 -> 10,000 learning curve for tfcr and tftrr.  Needs the 20
Newsgroups corpus as a directory tree (one subdirectory per category,
one file per document) and a GloVe text embedding file.

Usage:
    python3 scripts/run_20ng.py --data 20news-18828/ \
        --embedding glove.6B.50d.txt --out-dir 20ng_out

The same data can drive the two data-gated acceptance tests:
    CATWEIGHT_20NG_DIR=20news-18828 CATWEIGHT_GLOVE=glove.6B.50d.txt \
        pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from catweight import (
    TrainConfig,
    grid_run,
    learning_curve,
    load_20ng,
    load_embeddings,
    make_splits,
    write_curve_csv,
    write_results_csv,
)

SCHEMES = ("none", "tfidf", "kld", "tftrr", "tfcr")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="20NG category-directory tree")
    parser.add_argument("--embedding", required=True, help="GloVe text file")
    parser.add_argument("--out-dir", default="20ng_out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--jobs", type=int, help="cells trained at once (default: as catweight cv)"
    )
    parser.add_argument(
        "--skip-curve", action="store_true", help="run only the CV grid"
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    corpus = load_20ng(Path(args.data))
    print(
        f"loaded {len(corpus)} documents in {len(corpus.categories)} categories "
        f"({time.monotonic() - start:.0f}s)"
    )
    # Parse only the rows of words the corpus uses.
    embedding = load_embeddings(Path(args.embedding), vocab=set(corpus.token_counts().terms))
    print(f"embedding: {embedding.origin}, {len(embedding)} words, d = {embedding.dimension}")

    plan = make_splits(corpus, k=args.k, seed=args.seed, stratified=True)
    config = TrainConfig(epochs=args.epochs, seed=args.seed)
    results = grid_run(
        corpus, list(SCHEMES), embedding, ["logreg"], plan, config,
        standardize=True, jobs=args.jobs,
    )
    results_path = out_dir / "results.csv"
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        write_results_csv(results, fh, dataset="20ng")
    scores = {
        scheme: results[(scheme, embedding.origin, "logreg")].mean_macro_f1
        for scheme in SCHEMES
    }
    print("10-fold CV macro-F1:")
    for scheme in SCHEMES:
        print(f"  {scheme:>6}: {scores[scheme]:.4f}")
    print(
        f"tfcr - none = {scores['tfcr'] - scores['none']:+.4f}; "
        f"best scheme = {max(scores, key=scores.get)}"
    )
    print(f"fold-level results written to {results_path}")

    if not args.skip_curve:
        ladder = tuple(range(1000, 10001, 1000))
        curve_plan = make_splits(
            corpus, k=args.k, ladder=ladder, seed=args.seed, stratified=True
        )
        points = learning_curve(
            corpus, curve_plan, ["tfcr", "tftrr"], embedding, "logreg", config,
            standardize=True,
        )
        curve_path = out_dir / "curve.csv"
        with open(curve_path, "w", encoding="utf-8", newline="") as fh:
            write_curve_csv(points, ["tfcr", "tftrr"], fh)
        print("learning curve (macro-F1 on the fixed holdout):")
        for point in points:
            print(
                f"  {point.training_size:>6}  tfcr = {point.scores['tfcr']:.4f}  "
                f"tftrr = {point.scores['tftrr']:.4f}"
            )
        print(f"curve written to {curve_path}")
    print(f"total {time.monotonic() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
