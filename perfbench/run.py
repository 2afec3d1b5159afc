#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload explore_iact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The CMake build goes to $CARGO_TARGET_DIR when it is set (relative paths
are taken from the checkout root), else to .bench_build. Build output goes
to stderr, so the program's last stdout line is its JSON result. Exits
non-zero, without a result, when the build fails.

The program prints every metric it measured. BENCHMARK.json is the one list
of metrics: run.py passes the program's output through and rewrites its last
line to hold exactly the end-to-end (--trace 0) or per-layer (--trace 1)
metrics listed there. A per-layer metric of a layer the workload does not
run reads 0; a missing end-to-end metric, or a unit that differs from the
listed one, makes the result incorrect.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", target])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, target)


def select_metrics(result, traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if traced else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for spec in listed:
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None and traced:
            got = {"value": 0.0, "unit": unit}
        if got is None or got["unit"] != unit:
            print("perfbench: metric %s missing or not in %s" % (name, unit), file=sys.stderr)
            result["correct"] = False
            continue
        metrics[name] = got
    result["metrics"] = metrics
    return result


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode
    exe = build("perfbench")
    try:
        proc = subprocess.run([exe] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    trace_arg = argparse.ArgumentParser(add_help=False)
    trace_arg.add_argument("--trace", type=float, default=0)
    traced = trace_arg.parse_known_args(argv)[0].trace != 0
    print(json.dumps(select_metrics(json.loads(lines[-1]), traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
