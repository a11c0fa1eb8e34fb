"""One workload in its own process; started by run.py, not by hand.

The worker imports catweight from the checkout's ``src``, prints
``ready`` (run.py times set-up up to that line) and the machine's
current speed against nominal (see Reference), then calls
``catweight.cli.main`` in a closed loop until the time budget is spent,
checks the outputs and writes its result as JSON.  With ``--trace 1``
every call runs twice, untraced and then traced, so the run yields both
the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy.sparse  # noqa: E402

import catweight  # noqa: E402
import catweight.cli  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

LEARNER = ["--standardize", "--epochs", "10"]
CV_K = 3
CURVE_K = 3
CURVE_SIZES = tuple(range(240, 801, 80))
SCHEMES = ("none", "tfidf", "kld", "tftrr", "tfcr")
CLASSIFIERS = ("logreg", "svm")
# What the reference task takes on an idle core of the machine the bounds
# were set on (2 vCPU, Intel Xeon, numpy 2.4 with OpenBLAS, one thread).
REFERENCE_NOMINAL_S = 0.025


class Reference:
    """A fixed task, timed right before and right after every call.

    The machine's CPU speed swings by up to 2x over tens of seconds
    (other tenants share the cores), for the program and this task
    alike.  Scaling each call's wall time by REFERENCE_NOMINAL_S over the
    task's time around the call reports the call at the machine's
    nominal speed, which repeats far better than the raw wall time.  The
    task mixes what catweight spends its time on: splitting lines and
    parsing floats, counting in a dict, a sparse-times-dense product over
    a working set of several MB, and dense BLAS products.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.lines = [f"w{i} " + " ".join(f"{x:.5f}" for x in rng.normal(size=50))
                      for i in range(1000)]
        self.a = rng.normal(size=(200, 300))
        self.b = rng.normal(size=(300, 200))
        nnz = 96_000
        self.docs = scipy.sparse.csr_matrix(
            (rng.random(nnz), (rng.integers(0, 1200, nnz), rng.integers(0, 20_000, nnz))),
            shape=(1200, 20_000))
        self.emb = rng.normal(size=(20_000, 50))

    def __call__(self) -> float:
        t0 = perf_counter()
        counts: dict[str, int] = {}
        for line in self.lines:
            parts = line.split(" ")
            [float(x) for x in parts[1:]]
            for part in parts[1:6]:
                counts[part] = counts.get(part, 0) + 1
        for _ in range(3):
            self.docs @ self.emb
        for _ in range(10):
            self.a @ self.b
        return perf_counter() - t0


class Runner:
    """Times ``catweight.cli.main`` calls; in trace mode runs each twice."""

    def __init__(self, seconds: float, trace: bool, reference: Reference):
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.reference = reference
        self.start = perf_counter()
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.times: dict[str, list[float]] = defaultdict(list)  # at nominal speed
        self.traced: dict[str, list[dict]] = defaultdict(list)
        self.traced_times: dict[str, list[float]] = defaultdict(list)  # at nominal speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _main(self, argv: list[str]) -> tuple[int, float]:
        t0 = perf_counter()
        rc = catweight.cli.main(argv)
        return rc, perf_counter() - t0

    def _nominal(self, elapsed: float, before: float, after: float) -> float:
        return elapsed * REFERENCE_NOMINAL_S / ((before + after) / 2)

    def call(self, kind: str, argv: list[str]) -> int:
        before = self.reference()
        rc, elapsed = self._main(argv)
        after = self.reference()
        self.wall[kind].append(elapsed)
        self.times[kind].append(self._nominal(elapsed, before, after))
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.install()
            try:
                rc, elapsed = self._main(argv)
            finally:
                self.tracer.uninstall()
            self.traced[kind].append(self.tracer.summary())
            self.traced_times[kind].append(self._nominal(elapsed, after, self.reference()))
        return rc

    def rounds(self):
        """Yield round numbers while another round, as long as the mean
        round so far, still ends within the budget."""
        loop_start = perf_counter()
        n = 0
        while True:
            yield n
            n += 1
            now = perf_counter()
            if now - self.start + (now - loop_start) / n > self.seconds:
                return

    def typical(self, kind: str) -> float:
        """Median time of the run's untraced ``kind`` calls, at nominal speed."""
        return statistics.median(self.times[kind])

    def calls(self) -> int:
        return 2 if self.tracer is not None else 1

    def expect_same(self, what: str, first: bytes | None, now: bytes) -> bytes:
        if first is not None and now != first:
            self.problems.append(f"{what} differs between identical calls")
        return now if first is None else first


def _common(inputs: Path, seed: int) -> list[str]:
    return ["--data", str(inputs / "corpus.csv"), "--embedding", str(inputs / "glove.txt"),
            "--seed", str(seed), *LEARNER]


def run_cv_grid(r: Runner, inputs: Path, work: Path, seed: int) -> dict:
    out = work / "cv.csv"
    argv = ["cv", *_common(inputs, seed), "--scheme", "all", "--classifier", "all",
            "--k", str(CV_K), "--out", str(out)]
    first = None
    for _ in r.rounds():
        r.call("cv", argv)
        first = r.expect_same("cv CSV", first, out.read_bytes())
        cells = checks.read_grid(out)
        r.attempted += len(cells) * r.calls()
        r.failed += sum(c["failed"] for c in cells.values()) * r.calls()
    rss = _peak_rss_mb()
    r.problems += checks.check_grid(cells, CV_K, SCHEMES, CLASSIFIERS)
    r.problems += checks.check_tfcr_features(inputs / "corpus.csv", inputs / "glove.txt", CV_K, seed)
    job = r.typical("cv")
    n_docs = _corpus_size(inputs)
    tfcr = cells.get(("tfcr", "logreg"), {}).get("mean") or 0.0
    return {"job_s": job, "call_ms": 1e3 * job / len(cells), "docs_per_s": n_docs * len(cells) / job,
            "peak_rss_mb": rss, "macro_f1": tfcr}


def run_curve(r: Runner, inputs: Path, work: Path, seed: int) -> dict:
    out = work / "curve.csv"
    argv = ["curve", *_common(inputs, seed), "--scheme", "all", "--classifier", "logreg",
            "--k", str(CURVE_K), "--sizes", ",".join(map(str, CURVE_SIZES)), "--out", str(out)]
    first = None
    scores = len(CURVE_SIZES) * len(SCHEMES)
    points: dict = {}
    for _ in r.rounds():
        rc = r.call("curve", argv)
        r.attempted += scores * r.calls()
        if rc != 0 or not out.exists():
            r.failed += scores * r.calls()
            continue
        first = r.expect_same("curve CSV", first, out.read_bytes())
        _, points = checks.read_curve(out)
        r.failed += (scores - sum(math.isfinite(v) for p in points.values() for v in p.values())) * r.calls()
    rss = _peak_rss_mb()
    r.problems += checks.check_curve(points, CURVE_SIZES)
    job = r.typical("curve")
    holdout = -(-_corpus_size(inputs) // CURVE_K)
    top = points[max(points)]["tfcr"] if points else 0.0
    return {"job_s": job, "call_ms": 1e3 * job / scores, "docs_per_s": holdout * scores / job,
            "peak_rss_mb": rss, "macro_f1": top}


def run_train_predict(r: Runner, inputs: Path, work: Path, seed: int) -> dict:
    model = work / "model.bin"
    train = ["train", *_common(inputs, seed), "--scheme", "tfcr", "--classifier", "logreg",
             "--out", str(model)]
    lines = (inputs / "holdout.txt").read_text(encoding="utf-8").splitlines()
    gold = (inputs / "holdout_labels.txt").read_text(encoding="utf-8").splitlines()
    batch_out, one_in, one_out = work / "batch.tsv", work / "one.txt", work / "one.tsv"
    batch = ["predict", "--model", str(model), "--input", str(inputs / "holdout.txt"),
             "--out", str(batch_out)]
    one = ["predict", "--model", str(model), "--input", str(one_in), "--out", str(one_out)]
    singles: dict[int, np.ndarray] = {}
    first_model = first_batch = None
    # A round is one train and one predict of each size, so all three
    # timings sample the whole run alike.
    for n in r.rounds():
        if r.call("train", train) != 0:
            raise RuntimeError("catweight train failed")
        first_model = r.expect_same("model file", first_model, model.read_bytes())
        line = (n * 97) % len(lines)
        one_in.write_text(lines[line] + "\n", encoding="utf-8")
        r.attempted += 2 * r.calls()
        if r.call("predict-1doc", one) == 0:
            categories, labels, scores = checks.read_predictions(one_out)
            r.problems += checks.check_predictions(categories, labels, scores)
            singles[line] = scores[0]
        else:
            r.failed += r.calls()
        if r.call("predict-batch", batch) == 0:
            first_batch = r.expect_same("batch predictions", first_batch, batch_out.read_bytes())
        else:
            r.failed += r.calls()
    rss = _peak_rss_mb()
    f1 = 0.0
    if first_batch is not None:
        categories, labels, scores = checks.read_predictions(batch_out)
        r.problems += checks.check_predictions(categories, labels, scores)
        if len(labels) != len(lines):
            r.problems.append(f"{len(labels)} predictions for {len(lines)} lines")
        for line, row in singles.items():
            if np.max(np.abs(row - scores[line])) > 1e-12:
                r.problems.append(f"line {line}: scores alone differ from scores in the batch")
        f1 = checks.macro_f1(gold, labels, categories)
        if not f1 > 3.0 / len(categories):
            r.problems.append(f"held-out macro-F1 {f1} is not well above 1/{len(categories)}")
    return {"job_s": r.typical("train"), "call_ms": 1e3 * r.typical("predict-1doc"),
            "docs_per_s": len(lines) / r.typical("predict-batch"),
            "peak_rss_mb": rss, "macro_f1": f1}


WORKLOADS = {"cv-grid": run_cv_grid, "curve": run_curve, "train-predict": run_train_predict}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _corpus_size(inputs: Path) -> int:
    with open(inputs / "corpus.csv", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def layer_metrics(r: Runner, work: Path) -> dict:
    """Per-layer numbers of one workload round: for each kind of call, the
    mean over its traced calls, summed over kinds."""
    total: dict[str, float] = defaultdict(float)
    for kind, summaries in r.traced.items():
        for key in {k for s in summaries for k in s}:
            total[key] += statistics.fmean(s.get(key, 0.0) for s in summaries)
    overhead = sum(statistics.fmean(r.traced_times[kind]) - statistics.fmean(r.times[kind])
                   for kind in r.traced)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return scale * total[num] / total[den] if total[den] else 0.0

    manifests = [p.stat().st_size for p in work.glob("*.manifest.json")]
    out = {f"{layer}.self_s": total[f"{layer}.self_s"] for layer in (
        "corpus", "embeddings", "stats", "weighting", "vectorize", "classify",
        "evaluation", "cli", "trace")}
    out.update({
        "corpus.load_s": total["corpus.load_s"],
        "corpus.tokenize_s": total["corpus.tokenize_s"],
        "corpus.docs": total["corpus.docs"],
        "corpus.tokens": total["corpus.tokens"],
        "embeddings.load_s": total["embeddings.load_s"],
        "embeddings.loads": total["embeddings.loads"],
        "embeddings.rows_parsed": total["embeddings.rows_parsed"],
        "embeddings.rows_used_ratio": ratio("embeddings.rows_used", "embeddings.rows_parsed"),
        "stats.build_s": total["stats.build_s"],
        "stats.builds": total["stats.builds"],
        "stats.builds_per_subset": ratio("stats.builds", "stats.subsets"),
        "weighting.table_s": total["weighting.table_s"],
        "weighting.tables": total["weighting.tables"],
        "weighting.payload_s": total["weighting.payload_s"],
        "weighting.payload_entries": total["weighting.payload_entries"],
        "vectorize.init_s": total["vectorize.init_s"],
        "vectorize.matrix_s": total["vectorize.matrix_s"],
        "vectorize.matrices": total["vectorize.matrices"],
        "vectorize.matrices_per_distinct": ratio("vectorize.matrices", "vectorize.distinct"),
        "vectorize.rows_used_ratio": ratio("vectorize.rows_used", "vectorize.rows_built"),
        "vectorize.spmm_gflop": total["vectorize.flop"] / 1e9,
        "vectorize.scale_s": total["vectorize.scale_s"],
        "classify.train_s": total["classify.train_s"],
        "classify.models": total["classify.models"],
        "classify.epochs": total["classify.epochs"],
        "classify.epoch_ms": ratio("classify.train_s", "classify.epochs", 1e3),
        "classify.predict_s": total["classify.predict_s"],
        "evaluation.score_s": total["evaluation.score_s"],
        "cli.manifest_mb": max(manifests, default=0) / 1e6,
        "trace.job_s": total["trace.job_s"],
        "trace.overhead_s": overhead,
        "trace.absent": float(len(r.tracer.absent)),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(catweight.__file__).resolve().is_relative_to(SRC):
        print(f"catweight imported from {catweight.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    reference = Reference()
    # How much faster than nominal the machine runs just now; run.py
    # scales this start's set-up time by it.
    print(REFERENCE_NOMINAL_S / statistics.median(reference() for _ in range(3)), flush=True)
    if args.probe:
        return 0
    sys.stdout = open(os.devnull, "w", encoding="utf-8")  # the CLI's own prints
    r = Runner(args.seconds, bool(args.trace), reference)
    metrics = WORKLOADS[args.workload](r, args.inputs, args.work, args.seed)
    if args.trace:
        metrics = layer_metrics(r, args.work)
        if r.tracer.absent:
            print("trace: absent, reported as 0: " + ", ".join(r.tracer.absent), file=sys.stderr)
    for problem in r.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not r.problems, "attempted": r.attempted, "failed": r.failed,
              "metrics": metrics,
              "context": {"numpy": np.__version__, "wall_s": dict(r.wall),
                          "nominal_s": dict(r.times)}}
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
