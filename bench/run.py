"""Benchmark of catalog verification and the Tables 1-2 searches.

Usage, from the repository root:

    python3 bench/run.py --workload verify-n14 --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of the workload's operations, each round in an
order shuffled by the seed, until another round would pass --seconds (at
least three rounds).  Everything runs serially in this process: no worker
processes and no search budget.  Every distinct output is checked by
checks.py, which does not use stringc.

--trace 0 prints the end-to-end metrics.  --trace 1 runs an untraced
warm-up round, then traced and untraced rounds in turn, and prints the
per-layer metrics and the tracing overhead; the spans go to bench/out/.
--full runs the whole catalog sweep or all seven search rows once.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
# An untraced run makes at least this many rounds, so that the median round
# is not the first, which pays for first-use allocations and caches.
MIN_ROUNDS = 3


def load_library():
    """Import stringc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stringc" / "__init__.py").is_file():
        sys.exit(f"bench: no stringc sources under {src}")
    sys.path.insert(0, str(src))
    import stringc

    if Path(stringc.__file__).resolve().parent != src / "stringc":
        sys.exit(f"bench: imported stringc from {stringc.__file__}, "
                 f"not from {src}")


def setup_seconds(workload, full):
    """Median set-up time over fresh interpreters (see setup_probe.py)."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    if full:
        command.append("--full")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_round(ops, order, tracer=None):
    """Run the operations once in the given order.

    Returns the round's wall time and, per operation index, its raw result
    or the exception it raised, and its time.
    """
    from workloads import run_op

    results = {}
    durations = {}
    started = time.perf_counter()
    for index in order:
        op = ops[index]
        op_started = time.perf_counter()
        try:
            if tracer is None:
                results[index] = run_op(op)
            else:
                tracer.op = index
                span = ("classify.verify_instance" if op["kind"] == "verify"
                        else "search.exhaustive_search")
                results[index] = tracer.call(span, run_op, op)
        except Exception as exc:  # an operation that raises has failed
            results[index] = exc
        durations[index] = time.perf_counter() - op_started
    return time.perf_counter() - started, results, durations


def measure(ops, args, tracer):
    """Run rounds until the next would pass --seconds; returns them.

    Untraced, a run makes at least MIN_ROUNDS rounds.  Traced, round 0 is an
    untraced warm-up and later rounds alternate traced and untraced, at
    least one of each, so that the overhead compares warm rounds.
    """
    rng = random.Random(args.seed)
    needed = 3 if args.trace else 1 if args.full else MIN_ROUNDS
    rounds = []
    begun = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        traced = args.trace and len(rounds) % 2 == 1
        layers = None
        if traced:
            tracer.install()
            mark = tracer.mark()
            try:
                wall, results, durations = run_round(ops, order, tracer)
            finally:
                tracer.uninstall()
            for index, result in results.items():
                if (ops[index]["kind"] == "search"
                        and not isinstance(result, Exception)):
                    tracer.counts["search.accepted_tuples"] += (
                        len(result.items) + result.merged_duplicates)
            layers = tracer.summary(mark, ops)
        else:
            wall, results, durations = run_round(ops, order)
        rounds.append({"wall": wall, "results": results,
                       "durations": durations, "layers": layers})
        elapsed = time.perf_counter() - begun
        estimate = statistics.median(r["wall"] for r in rounds[-2:])
        if len(rounds) >= needed and (
                args.full or elapsed + estimate > args.seconds):
            return rounds


def check_outputs(ops, rounds):
    """Check every distinct output once; equal outputs share the verdict.

    Returns (attempted, failed, incorrect, first output per operation key).
    """
    import checks
    import workloads

    verdicts = {}
    attempted = failed = 0
    incorrect = False
    outputs = {}
    for done in rounds:
        for index, result in done["results"].items():
            op = ops[index]
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                print(f"bench: {op['key']} raised {result!r}", file=sys.stderr)
                continue
            output = workloads.normalise(op, result)
            key = (index, json.dumps(output, sort_keys=True))
            if key not in verdicts:
                given = workloads.check_input(op)
                check = (checks.check_verify_report if op["kind"] == "verify"
                         else checks.check_search_row)
                try:
                    verdicts[key] = check(output, given)
                except (KeyError, TypeError, ValueError) as exc:
                    verdicts[key] = [f"malformed output: {exc!r}"]
                for problem in verdicts[key]:
                    print(f"bench: {op['key']}: {problem}", file=sys.stderr)
            if verdicts[key]:
                failed += 1
                incorrect = True
            outputs.setdefault(op["key"], output)
    return attempted, failed, incorrect, outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="run the whole catalog or all seven rows, once")
    args = parser.parse_args(argv)

    load_library()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)}")

    setup_s = setup_seconds(args.workload, args.full)
    ops = workloads.prepare(args.workload, args.full)
    for op in ops:
        op["key"] = workloads.op_key(op)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        ambients_s = tracer.time_ambients(ops)
    rounds = measure(ops, args, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, incorrect, outputs = check_outputs(ops, rounds)

    digest = hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    first = rounds[0]["results"]
    print(f"order of round 1: {' '.join(ops[i]['key'] for i in first)}")
    print("round walls: " + " ".join(
        f"{r['wall']:.3f}{'T' if r['layers'] else ''}" for r in rounds))
    print("op times: " + json.dumps(
        {op["key"]: [round(r["durations"][i], 4) for r in rounds]
         for i, op in enumerate(ops)}))
    print(f"outputs sha256: {digest}")

    untraced = [r["wall"] for r in rounds if r["layers"] is None]
    if args.trace:
        from tracing import METRICS

        traced = [r["layers"] for r in rounds if r["layers"]]
        values = {name: statistics.median(t[name] for t in traced)
                  for name in traced[0]}
        values["ambients.named_ambient_s"] = ambients_s
        values["trace.overhead_pct"] = 100 * (
            statistics.median(r["wall"] for r in rounds if r["layers"])
            / statistics.median(untraced[1:]) - 1)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in METRICS}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", ops)
    else:
        counts = [workloads.decided(op, outputs[op["key"]])
                  for op in ops if op["key"] in outputs]
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ip_decided": {"value": sum(c[0] for c in counts),
                           "unit": "count"},
            "oracle_decided": {"value": sum(c[1] for c in counts),
                               "unit": "count"},
        }
    result = {"correct": not incorrect, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (OUT / f"result-{label}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
