#!/usr/bin/env python3
"""End-to-end demo on a constructed corpus, no external data needed.

Builds the separable synthetic corpus (category-exclusive keywords
mixed 1:3 with shared vocabulary), generates deterministic synthetic
embeddings, cross-validates every weighting scheme with logistic
regression, and traces a small learning curve.  Writes results.csv and
curve.csv next to --out-dir and prints the summary tables.

Usage:
    python3 scripts/demo_synthetic.py --out-dir demo_out
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
    make_splits,
    separable_corpus,
    synthetic_model,
    write_curve_csv,
    write_results_csv,
)

SCHEMES = ("none", "tfidf", "kld", "tftrr", "tfcr")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="demo_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--docs", type=int, default=1000)
    parser.add_argument("--dimension", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--k", type=int, default=10, help="CV folds")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus = separable_corpus(num_docs=args.docs, seed=args.seed)
    vocab = sorted({t for doc in corpus.documents for t in doc.tokens})
    embedding = synthetic_model(vocab, args.dimension, seed=args.seed + 1)
    plan = make_splits(corpus, k=args.k, seed=args.seed)
    config = TrainConfig(epochs=args.epochs, seed=args.seed)

    print(
        f"{len(corpus)} documents, {len(corpus.categories)} categories, "
        f"{len(vocab)} words, d = {args.dimension}"
    )
    start = time.monotonic()
    results = grid_run(
        corpus, SCHEMES, embedding, ["logreg"], plan, config, standardize=True
    )
    for scheme in SCHEMES:
        report = results[(scheme, embedding.origin, "logreg")]
        print(f"  {scheme:>6}: macro-F1 = {report.mean_macro_f1:.4f}")
    print(f"  ({time.monotonic() - start:.1f}s for the {args.k}-fold grid)")
    results_path = out_dir / "results.csv"
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        write_results_csv(results, fh, dataset="synthetic")
    print(f"fold-level results written to {results_path}")

    holdout = -(-len(corpus) // args.k)  # fold 0 holds ceil(n / k) documents
    ladder = tuple(
        s for s in (50, 100, 200, 400, 800) if s <= len(corpus) - holdout
    )
    curve_plan = make_splits(corpus, k=args.k, ladder=ladder, seed=args.seed)
    points = learning_curve(
        corpus, curve_plan, ["none", "tfcr"], embedding, "logreg", config,
        standardize=True,
    )
    curve_path = out_dir / "curve.csv"
    with open(curve_path, "w", encoding="utf-8", newline="") as fh:
        write_curve_csv(points, ["none", "tfcr"], fh)
    print("learning curve (macro-F1 on the fixed holdout):")
    print(f"  {'size':>6}  {'none':>8}  {'tfcr':>8}")
    for point in points:
        print(
            f"  {point.training_size:>6}  {point.scores['none']:>8.4f}  "
            f"{point.scores['tfcr']:>8.4f}"
        )
    print(f"curve written to {curve_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
