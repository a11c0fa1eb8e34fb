"""catweight benchmark: one workload per invocation.

    python3 bench/run.py --workload cv-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed``
and cached under ``bench/.cache``; the workload then runs in its own
process (bench/worker.py), from this one client, with the BLAS thread
count fixed.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cv-grid", "curve", "train-predict")
SETUP_PROBES = 6       # extra start-ups, besides the worker's own, for setup_s
TIMEOUT_S = 150        # hard limit for the worker, below the 180 s a run may take
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _start(argv: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` line.  Returns the process,
    the seconds from launch to ready (interpreter start-up plus ``import
    catweight``) and those seconds at nominal CPU speed, scaled by the
    speed the worker measures right after (see worker.Reference)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("the workload process did not start; is catweight's source in ./src?")
    return proc, elapsed, elapsed * float(proc.stdout.readline())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads of the workload process (default 1)")
    args = parser.parse_args()
    for name in BLAS_ENV:
        os.environ[name] = str(args.blas_threads)

    import gen  # numpy is imported only after the BLAS threads are fixed

    inputs = gen.make_inputs(HERE / ".cache", args.seed)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_wall, setup = [], []
        for _ in range(SETUP_PROBES):
            probe, elapsed, nominal = _start(["--probe"])
            probe.communicate(timeout=TIMEOUT_S)
            setup_wall.append(elapsed)
            setup.append(nominal)
        worker, elapsed, nominal = _start([
            "--workload", args.workload, "--inputs", str(inputs), "--work", str(work),
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
        setup_wall.append(elapsed)
        setup.append(nominal)
        try:
            worker.communicate(timeout=TIMEOUT_S)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        if worker.returncode != 0:
            raise RuntimeError(f"the workload process exited with {worker.returncode}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = result.pop("context")
    context.update({"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
                    "blas_threads": args.blas_threads, "setup_wall_s": setup_wall,
                    "setup_nominal_s": setup})
    print(json.dumps(context, sort_keys=True))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
