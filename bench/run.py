"""Benchmark of the qgs toolkit: one workload per process.

    python3 bench/run.py --workload {iso,engines} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src.  The
process executes one operation at a time (a closed loop with one
client) in whole rounds until the time is spent; the last round always
finishes.  Set-up is measured apart, in fresh child processes.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-module figures from bench/tracing.py, and the spans are
written to bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Child processes that each import qgs and run the warm-up operations;
# set-up time is their median.
SETUP_SAMPLES = 5


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("iso", "engines"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args()


def limit_threads():
    """One BLAS thread: operations run one at a time, and on a shared
    2-core machine a second BLAS thread made the spectral and corner
    solves slower and less steady.  Must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import qgs from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "qgs")):
        sys.exit("bench: no qgs package under %s" % SRC)
    sys.path.insert(0, SRC)
    import qgs
    if os.path.dirname(os.path.abspath(qgs.__file__)) != \
            os.path.join(SRC, "qgs"):
        sys.exit("bench: qgs imported from %s" % qgs.__file__)


def measure_setup(workload):
    """Wall time of a fresh process from start to imports plus the
    warm-up operations."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--setup-probe"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit("bench: set-up probe failed:\n" + proc.stderr)
    return statistics.median(samples)


def run_op(op, workloads, tracer, label_round):
    """Time one operation; returns (seconds, output or None)."""
    workloads.reset_caches()
    if tracer is not None:
        tracer.begin(op.label, label_round)
    start = time.perf_counter()
    try:
        output = op.run()
    except workloads.OpFailed as exc:
        output = None
        print("bench: %s failed: %s" % (op.label, exc), file=sys.stderr)
    except Exception:
        output = None
        print("bench: %s raised:\n%s" % (op.label, traceback.format_exc()),
              file=sys.stderr)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return elapsed, output


def end_to_end(setup_s, rounds):
    ok = [[t for t, good in r if good] for r in rounds]
    durations = [t for r in ok for t in r]
    if not durations:
        sys.exit("bench: every operation failed")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(r) for r in ok), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_max_s": (statistics.median(max(r) for r in ok if r), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer):
    """Totals over the warm-up operations and the first round."""
    from tracing import SPANS
    totals = tracer.totals(lambda op: op["round"] <= 0)
    out = {}
    for _module, _path, name, fields in SPANS:
        rec = totals.get(name, {})
        for field in fields:
            unit = "s" if field == "self_s" else "count"
            out["%s.%s" % (name, field)] = (rec.get(field, 0), unit)
    return out


def fix_hash_seed():
    """Re-execute this process with string hashing fixed.  Set and dict
    iteration orders of string keys follow the hash seed, and with a
    random seed the same `ranks` round took 15.7 to 23.6 s where a fixed
    seed gave 18.5 to 18.8 s."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main():
    fix_hash_seed()
    args = parse_args()
    limit_threads()
    import_program()
    import workloads
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        inputs = workloads.Inputs(tmp)
        if args.setup_probe:
            for op in workloads.warm_up_ops(args.workload, inputs):
                op.run()
            return 0
        setup_s = measure_setup(args.workload)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        for warm in workloads.warm_up_ops(args.workload, inputs):
            _t, output = run_op(warm, workloads, tracer, -1)
            if output is None:
                sys.exit("bench: %s failed" % warm.label)

        correct, attempted, failed = True, 0, 0
        rounds = []
        start = time.perf_counter()
        while True:
            index = len(rounds)
            timings = []
            for op in workloads.round_ops(args.workload, args.seed, index,
                                          inputs):
                elapsed, output = run_op(op, workloads, tracer, index)
                print("bench: round %d: %s: %.3f s" % (index, op.label,
                                                      elapsed),
                      file=sys.stderr)
                attempted += 1
                if output is None:
                    failed += 1
                    timings.append((elapsed, False))
                    if not op.expected_failure:
                        correct = False
                        print("bench: %s: unexpected failure" % op.label,
                              file=sys.stderr)
                    continue
                timings.append((elapsed, True))
                try:
                    op.check(output)
                except Exception as exc:
                    correct = False
                    print("bench: %s: wrong output: %r" % (op.label, exc),
                          file=sys.stderr)
            rounds.append(timings)
            print("bench: round %d: %d ops, %.3f s" % (
                index, len(timings), sum(t for t, _ok in timings)),
                file=sys.stderr)
            if time.perf_counter() - start >= args.seconds:
                break

    if tracer is None:
        metrics = end_to_end(setup_s, rounds)
    else:
        metrics = per_layer(tracer)
        path = os.path.join(OUT, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "ops": tracer.ops},
                      handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
