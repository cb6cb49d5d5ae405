#!/usr/bin/env python3
"""Self-test of the RADD benchmark.

    python3 perfbench/test_bench.py [--seconds S] [workload ...]

For every workload (default: all four) it runs the benchmark twice with one
seed and fails if any sim-time metric, any count, or the attempted/failed
totals differ between the two runs (nondeterminism), or if a run is
incorrect. It also runs each workload traced and checks that the result
line carries every end_to_end (untraced) and per_layer (traced) metric
BENCHMARK.json names, with BENCHMARK.json's unit, and nothing else.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("write_record", "hot_read", "fail_rebuild", "chaos_autopilot")
SEED = 4242


def run(workload, seconds, trace):
    """Runs the benchmark; returns (result line, full report)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s%s" % (
            " ".join(cmd), done.returncode, done.stdout[-3000:],
            done.stderr[-3000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d.json" %
                        (workload, SEED, trace))
    with open(path) as f:
        report = json.load(f)
    return result, report


def deterministic_part(report):
    """Everything that must repeat exactly for one seed."""
    out = {"attempted": report["attempted"], "failed": report["failed"]}
    for group in ("e2e", "layers"):
        for name, m in report[group].items():
            if m["kind"] in ("sim", "count"):
                out[name] = m["value"]
    return out


def check_names(result, specs, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys are %s" % (label, sorted(result)))
    want = {s["name"]: s["unit"] for s in specs}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        errors.append("%s: metrics %s, BENCHMARK.json wants %s" %
                      (label, got, want))
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    errors = []
    for w in args.workloads:
        before = len(errors)
        first, rep1 = run(w, args.seconds, 0)
        second, rep2 = run(w, args.seconds, 0)
        traced, _ = run(w, args.seconds, 1)
        errors += check_names(first, bench["end_to_end"], w + " untraced")
        errors += check_names(traced, bench["per_layer"], w + " traced")
        for label, res in (("run 1", first), ("run 2", second),
                           ("traced", traced)):
            if not res["correct"]:
                errors.append("%s %s: incorrect (failed=%d)" %
                              (w, label, res["failed"]))
        a, b = deterministic_part(rep1), deterministic_part(rep2)
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                errors.append("%s: %s differs between runs: %r vs %r" %
                              (w, name, a.get(name), b.get(name)))
        print("%-16s %s" % (w, "ok" if len(errors) == before else "FAILED"),
              flush=True)
    for e in errors:
        print("error: " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
