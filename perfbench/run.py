"""tracelin benchmark: seeded workloads through the public API, checked ops.

One workload, in this process (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload component --seed 0 --seconds 25 \
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds untraced, then the same rounds with every public tracelin
function wrapped, and reports the per-layer metrics.  ``--workload all``
runs each workload in its own child process and prints a table;
``--repeat N`` runs each named workload N times on seeds seed..seed+N-1
and prints the median and quartiles of every metric.  The library is
imported from ``src/`` of the checkout this file sits in.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("cli", "component", "hocolim", "shapes")
SETUP_BUDGET = 0.5    # seconds of set-ups before the first round
MIN_OPS = 100         # at least ten samples beyond the 90th percentile
TRACE_ROUNDS = {"cli": 2, "component": 3, "hocolim": 3, "shapes": 3}
END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def import_library():
    """Import tracelin from this checkout's src/, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "tracelin" / "__init__.py").is_file():
        print("error: no tracelin sources under %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracelin
    if Path(tracelin.__file__).resolve().parent != src / "tracelin":
        print("error: tracelin imported from %s" % tracelin.__file__,
              file=sys.stderr)
        sys.exit(2)


def run_rounds(round_ops, state, clock_factory, until, between=None):
    """Run whole rounds until ``until(rounds, attempted, start)`` is true.

    Returns (latencies of passed ops, one list per slot of the round; total
    op time; attempted; failed).  An op that raises or fails its check
    counts as failed; the run goes on.  ``between()`` runs after each round.
    """
    lat = []
    total = 0.0
    attempted = failed = 0
    r = 0
    start = perf_counter()
    while not until(r, attempted, start):
        for k, op in enumerate(round_ops(state, r)):
            if k == len(lat):
                lat.append([])
            clock = clock_factory()
            attempted += 1
            try:
                ok = op.check(op.run(clock)) is True
            except Exception as exc:  # a crashing op is a failed op
                print("op %s raised %r" % (op.kind, exc), file=sys.stderr)
                ok = False
            total += clock.elapsed
            if ok:
                lat[k].append(clock.elapsed)
            else:
                failed += 1
                print("op %s failed" % op.kind, file=sys.stderr)
        r += 1
        if between is not None:
            between()
    return lat, total, attempted, failed


def measure(name, seed, seconds):
    import workloads
    setup, round_ops = workloads.WORKLOADS[name]
    outdir = OUT / ("%s-%d" % (name, seed))
    times = []

    def timed_setups(budget):
        # set up again until ``budget`` s are spent, at least once
        spent = 0.0
        while spent < budget:
            t0 = perf_counter()
            state = setup(seed, outdir)
            times.append(perf_counter() - t0)
            spent += times[-1]
        return state

    # the machine's speed drifts over seconds, so set-ups are spread over
    # the run, and per-slot medians stand for each slot's op time
    state = timed_setups(SETUP_BUDGET)
    lat, total, attempted, failed = run_rounds(
        round_ops, state, workloads.Clock,
        lambda r, n, start: perf_counter() - start >= seconds and n >= MIN_OPS,
        lambda: timed_setups(SETUP_BUDGET / 10))
    pooled = sorted(x for slot in lat for x in slot)
    medians = [statistics.median(slot) for slot in lat if slot]
    metrics = {
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": statistics.median(pooled) * 1e3,
        "op_p90_ms": statistics.quantiles(pooled, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(times),
    }
    units = dict(END_TO_END)
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def measure_traced(name, seed):
    """Untraced pass, then a traced pass over the same rounds; both start
    from a fresh set-up so that per-category caches start cold."""
    import tracing
    import workloads
    setup, round_ops = workloads.WORKLOADS[name]
    outdir = OUT / ("%s-%d" % (name, seed))
    rounds = TRACE_ROUNDS[name]

    def fixed(r, n, start):
        return r >= rounds

    _lat, plain, _n, _f = run_rounds(round_ops, setup(seed, outdir),
                                     workloads.Clock, fixed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    _lat, traced, attempted, failed = run_rounds(
        round_ops, setup(seed, outdir), lambda: workloads.Clock(tracer),
        fixed)
    metrics, self_total = tracing.layer_metrics(tracer.spans)
    metrics["bench.trace_overhead"] = traced / plain
    OUT.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(tracer.spans,
                        OUT / ("trace-%s-seed%d.jsonl" % (name, seed)))
    # every span lies inside a timed op, so the layers' self times cannot
    # add up to more than the traced op time
    correct = self_total <= traced
    if not correct:
        print("layer self times %.6f s exceed traced op time %.6f s"
              % (self_total, traced), file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": _layer_unit(k)}
                        for k, v in sorted(metrics.items())}}


def _layer_unit(metric):
    last = metric.rsplit(".", 1)[1]
    if last == "s" or last == "self_s":
        return "s"
    if last in ("density", "repeat_ratio", "gens_ratio", "trace_overhead"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# several runs, each in its own child process

def child_run(name, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("workload %s seed %d exited with %d"
                         % (name, seed, proc.returncode))
    return json.loads(lines[-1])


def report_all(names, seed, seconds, trace):
    results = {}
    for name in names:
        res = child_run(name, seed, seconds, trace)
        results[name] = res
        print("workload %s  seed %d  attempted %d  failed %d  correct %s"
              % (name, seed, res["attempted"], res["failed"], res["correct"]))
        for metric, v in res["metrics"].items():
            print("  %-36s %14.6g %s" % (metric, v["value"], v["unit"]))
    return results


def report_repeat(names, seed, seconds, trace, repeat):
    summary = {}
    for name in names:
        runs = [child_run(name, seed + i, seconds, trace)
                for i in range(repeat)]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("workload %s  runs %d  seeds %d..%d  failed share %s"
              % (name, repeat, seed, seed + repeat - 1, shares))
        summary[name] = {}
        for metric, first in runs[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread}
            print("  %-36s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f %s" % (metric, med, q1, q3, spread,
                                       first["unit"]))
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload this many times on successive "
                         "seeds and print medians and quartiles")
    args = ap.parse_args(argv)
    import_library()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.repeat:
        summary = report_repeat(names, args.seed, args.seconds, args.trace,
                                args.repeat)
        print(json.dumps(summary, sort_keys=True))
        return 0
    if args.workload == "all":
        print(json.dumps(report_all(names, args.seed, args.seconds,
                                    args.trace), sort_keys=True))
        return 0
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
