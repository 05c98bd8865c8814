"""quantlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dp1d-p2 --seed 1 --seconds 25 --trace 0

Run it from any directory; it benchmarks the `src/quantlab` beside it.
Each workload runs in a fresh single-threaded worker process (BLAS/OpenMP
pinned to one thread). With --trace 0 the last stdout line carries the
end-to-end metrics setup_s, solve_s and peak_rss_mb; with --trace 1 it
carries the per-layer metrics of a traced run. Lines before it that start
with `#` are information. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # set-up-only processes, besides the measured worker
DEADLINE_S = 175.0  # a run must end within 180 s
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def spawn(worker_args, deadline):
    """Run one worker; returns (seconds until its set-up was done, stdout lines)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    started = time.time()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(proc.returncode)
    lines = proc.stdout.splitlines()
    done = [float(ln.split()[1]) for ln in lines if ln.startswith("SETUP_DONE ")]
    return done[0] - started, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(common + ["--seconds", "1", "--setup-only"], deadline)[0])
    setup_s, lines = spawn(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], deadline)
    setups.append(setup_s)
    result = json.loads(next(ln for ln in lines if ln.startswith("RESULT "))[7:])
    for ln in lines:
        if ln.startswith("#"):
            print(ln)

    if args.trace:
        metrics = result["per_layer"]
    else:
        print(f"# setup samples (s): {[round(s, 4) for s in setups]}")
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "solve_s": {"value": result["solve_s"], "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
