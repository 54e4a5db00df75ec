#!/usr/bin/env python3
"""Builds and runs treebench's host-time benchmark (see README.md).

Run from the root of a treebench checkout:

    python3 hostbench/run.py --workload tree_cold --seed 42 --seconds 25 --trace 0
    python3 hostbench/run.py --workload all --trace 1

The benchmark is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) in the checkout. With one workload the last stdout line is the
benchmark's JSON result. With `all`, every workload runs in turn and a table of
their metrics follows; with --trace 1 each workload also runs untraced, and
the table ends with the tracing overhead (traced minus untraced) of every
end-to-end metric. The last line then maps each workload to its result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tree_cold", "session_read", "session_update"]
END_TO_END = ["setup_s", "ops_per_s", "call_ms_p50", "call_ms_p90",
              "peak_rss_mb"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the hostbench binary; returns its path, or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "hostbench", "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "hostbench")


def run_one(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", os.path.join(HERE, "reference", "tree_cold_seed42.txt")]
    if trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, "spans_%s_%d.jsonl" % (workload, seed))]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("hostbench: %s timed out" % workload, file=sys.stderr)
            return 1, ""
    return proc.returncode, out


def run_all(binary, build_dir, args, trace):
    """Runs every workload, echoing their reports; returns their results."""
    results = {}
    for workload in WORKLOADS:
        code, out = run_one(binary, build_dir, workload, args.seed,
                            args.seconds, trace)
        lines = out.rstrip("\n").split("\n")
        if code != 0 or not lines[-1].startswith("{"):
            sys.stdout.write(out)
            print("hostbench: %s failed (exit %d)" % (workload, code),
                  file=sys.stderr)
            return None
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[workload] = json.loads(lines[-1])
    return results


def row(name, values, unit=""):
    print("%-34s%s %s" % (name, "".join("%16.6g" % v for v in values), unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "hostbench")
    binary = build(build_dir)
    if binary is None:
        print("hostbench: build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, out = run_one(binary, build_dir, args.workload, args.seed,
                            args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    results = run_all(binary, build_dir, args, args.trace)
    untraced = run_all(binary, build_dir, args, 0) if args.trace else None
    if results is None or (args.trace and untraced is None):
        return 1

    print("%-34s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    first = results[WORKLOADS[0]]["metrics"]
    for name in first:
        row(name, [results[w]["metrics"][name]["value"] for w in WORKLOADS],
            first[name]["unit"])
    row("error_rate", [results[w]["failed"] / results[w]["attempted"]
                       for w in WORKLOADS])
    if untraced is not None:
        for name in END_TO_END:
            diffs = []
            for w in WORKLOADS:
                off = untraced[w]["metrics"][name]["value"]
                on = results[w]["metrics"]["traced." + name]["value"]
                diffs.append(100.0 * (on - off) / off)
            row("tracing overhead " + name, diffs, "%")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
