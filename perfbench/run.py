#!/usr/bin/env python3
"""RADD benchmark: builds radd_bench from the repository's sources and runs
one workload.

    python3 perfbench/run.py --workload write_record --seed 1 --seconds 20 --trace 0

Prints the build stamp, every failing check (with a reproduce command for
failed chaos schedules), a table of every metric the workload measured with
its unit, and, as the last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end metrics of BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1). The full report, stamped, is also
written to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("write_record", "hot_read", "fail_rebuild", "chaos_autopilot")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds radd_bench; returns the binary path."""
    build = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build, "radd_bench")


def source_stamp():
    """The git commit, or a digest of src/ when there is no repository."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "known_failures.json")) as f:
        known = json.load(f).get(args.workload, [])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--known-failures", ",".join(known),
           "--git-sha", source_stamp()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("radd_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if (done.returncode != 0 or not lines
            or not lines[-1].startswith("report ")):
        for line in lines:
            print(line)
        fail("radd_bench exited with code %d" % done.returncode)
    stamp, report = {}, json.loads(lines[-1][len("report "):])
    for line in lines[:-1]:
        print(line)
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    report["stamp"] = stamp
    report["known_failures"] = known

    measured = dict(report["e2e"])
    measured.update(report["layers"])
    print("%-34s %18s  %-10s %s" % ("metric", "value", "unit", "kind"))
    for group in ("e2e", "layers"):
        for name, m in report[group].items():
            value = "nan" if m["value"] is None else "%.6g" % m["value"]
            print("%-34s %18s  %-10s %s" % (name, value, m["unit"], m["kind"]))
    for note in report["notes"]:
        print("note: " + note)

    path = os.path.join(OUT, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)

    metrics = {}
    for spec in wanted:
        m = measured.get(spec["name"])
        if m is None or m["value"] is None:
            fail("metric %s was not measured" % spec["name"])
        if m["unit"] != spec["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (spec["name"], m["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
