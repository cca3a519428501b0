#!/usr/bin/env python3
"""Build and run the Spitz end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (CMake,
Release) over ../src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload with its data under
.bench_work/, passes the benchmark's report through, and ends with one
JSON line holding the metrics BENCHMARK.json lists: its end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1.
`--workload all` runs every workload BENCHMARK.json lists in turn and
ends with a table of their metrics instead.

Exit status: 0 on a correct run, 1 on a correctness violation or a
missing metric, 2 when the build or the set-up fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "spitz_perfbench"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return os.path.join(build_dir, "spitz_perfbench")


def run_one(binary, argv, wanted):
    """Runs one workload; returns (exit status, filtered result or None)."""
    try:
        proc = subprocess.run(
            [binary] + argv + ["--work-dir", os.path.join(ROOT, ".bench_work")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(proc.stdout, end="")
        print("perfbench: no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1, None
    print("\n".join(lines[:-1]))
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        print("perfbench: missing metrics: " + ", ".join(missing),
              file=sys.stderr)
        return 1, None
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    return proc.returncode, result


def main(argv):
    options = dict(zip(argv[::2], argv[1::2]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = options.get("--trace", "0") != "0"
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if options.get("--workload") != "all":
        status, result = run_one(binary, argv, wanted)
        if result is not None:
            print(json.dumps(result))
        return status

    worst = 0
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        options["--workload"] = name
        args = [x for pair in options.items() for x in pair]
        print("=" * 72)
        status, result = run_one(binary, args, wanted)
        worst = worst or status
        if result is not None:
            results[name] = result
    print("=" * 72)
    names = list(results)
    print("%-40s" % "metric" + "".join("%24s" % n for n in names))
    for metric in wanted:
        print("%-40s" % metric + "".join(
            "%24.4f" % results[n]["metrics"][metric]["value"] for n in names))
    print("correct: " + ", ".join(
        "%s=%s" % (n, results[n]["correct"]) for n in names))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
