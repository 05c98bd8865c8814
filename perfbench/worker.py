"""One benchmark process: build a workload's inputs, run rounds, check them.

Started by run.py, which pins BLAS/OpenMP threads to 1. Prints
`SETUP_DONE <epoch seconds>` once the inputs are built (and stops there with
--setup-only), info lines starting with `#`, and finally `RESULT <json>`.
Rounds repeat on the same inputs for about --seconds; the first
round's outputs are checked, and every later round must reproduce them
bit for bit. With --trace 1 the first half of the time runs untraced, then
the wrappers of tracing.py are installed, the inputs are rebuilt and the
second half runs traced.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(wl, inp, seconds, run):
    """Whole rounds filling about `seconds`; returns times, digests, first outputs.

    Another round starts while at least half a (median) round still fits, so
    the rounds end within half a round of `seconds` on either side.
    """
    import workloads

    times, digests, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = run(inp)
        times.append(time.perf_counter() - t0)
        digests.append(workloads.digest(wl.arrays(out)))
        if first is None:
            first = out
        if time.perf_counter() - start + statistics.median(times) / 2 > seconds:
            return times, digests, first


def traced_phase(wl, seed, seconds):
    """Rebuild the inputs and run rounds with every hook installed.

    Returns the per-layer metrics of the median round (by traced time) with
    the set-up phase's law build time added, the digests of the traced
    rounds, and the names of absent metrics.
    """
    import tracing

    rec = tracing.Recorder()
    inst = tracing.Installation(rec)
    try:
        inp = wl.setup(seed)
        law_build = rec.self_s.get("measures.law_build", 0.0)
        rounds = []

        def run(inp):
            rec.reset()
            out = rec.call(tracing.ROOT_SPAN, wl.run, inp)
            rounds.append((sum(rec.self_s.values()),
                           tracing.round_metrics(rec.self_s, rec.counts)))
            return out

        _, digests, _ = run_rounds(wl, inp, seconds, run)
    finally:
        inst.restore()
    counts = {k: v for k, v in rounds[0][1].items() if not k.endswith("_s")}
    if any({k: m[k] for k in counts} != counts for _, m in rounds):
        print("# warning: per-layer counts differ between traced rounds", file=sys.stderr)
    traced, metrics = sorted(rounds, key=lambda r: r[0])[(len(rounds) - 1) // 2]
    metrics = dict(metrics, **{"measures.law_build_s": law_build,
                               "trace.solve_traced": traced})
    return metrics, digests, inst.absent()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quantlab" / "__init__.py").is_file():
        print(f"quantlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quantlab
    import workloads

    if Path(quantlab.__file__).resolve().parent != (SRC / "quantlab").resolve():
        print(f"quantlab imported from {quantlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    inp = wl.setup(args.seed)
    print(f"SETUP_DONE {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    times, digests, first = run_rounds(wl, inp, seconds, wl.run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solve_s = statistics.median(times)
    result = {}
    if args.trace:
        import tracing

        metrics, traced_digests, absent = traced_phase(wl, args.seed, seconds)
        digests += traced_digests
        metrics["trace.solve_untraced"] = solve_s
        metrics["trace.overhead_s"] = metrics["trace.solve_traced"] - solve_s
        for name in sorted(absent):
            print(f"# per-layer metric {name} absent: its hook target is gone",
                  file=sys.stderr)
        result["per_layer"] = {k: {"value": v, "unit": tracing.METRICS[k][0]}
                               for k, v in metrics.items() if k not in absent}
    else:
        result["solve_s"] = solve_s
        result["peak_rss_mb"] = peak_rss_mb

    try:
        verdict = wl.check(inp, first)
    except Exception:  # a crashing check is a failed check, reported as such
        traceback.print_exc()
        verdict = None
    problems = ["check raised"] if verdict is None else verdict.problems
    if len(set(digests)) != 1:
        problems.append(f"rounds disagree: digests {digests}")
    for line in (verdict.notes if verdict else []) + problems:
        print(f"# {args.workload}: {line}", flush=True)
    print(f"# digest {args.workload} seed={args.seed}: {digests[0]} "
          f"({len(digests)} rounds, round times {[round(t, 3) for t in times]})",
          flush=True)
    ops = verdict.ops if verdict else 1
    result.update(correct=not problems, attempted=ops * len(digests),
                  failed=(verdict.failed if verdict else 0) * len(digests))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
