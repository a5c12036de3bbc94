#!/usr/bin/env python3
"""Builds and runs the update-to-verdict benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR, or .bench_build/ when it is unset. The benchmark
binary then runs one workload; its human-readable lines are passed through
and the last stdout line is one JSON object with the metrics BENCHMARK.json
lists for the mode: end_to_end with --trace 0, per_layer with --trace 1.

Exit codes: 0 when the run's outputs matched their oracle, 1 when they did
not (the result line still reports it) or the run failed, 2 on bad usage.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_TAG = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then brings the build up to date; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    """Runs the benchmark in its own process group, so a timeout also stops
    the device processes it forked."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload, 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(os.path.join(build_dir, "perfbench"))

    code, out = run(binary, args)
    result = None
    for line in out.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        fail("the benchmark printed no result (exit code %d)" % code)

    got = result["metrics"]
    for name in sorted(got):
        print("metric %-36s %.9g %s" % (name, got[name]["value"],
                                        got[name]["unit"]))
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s" %
                 (m["name"], got[m["name"]]["unit"], m["unit"]))
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(final), flush=True)
    sys.exit(0 if code == 0 and final["correct"] else 1)


if __name__ == "__main__":
    main()
