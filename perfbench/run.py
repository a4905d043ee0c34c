#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <hot-get|churn|scheme-sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (release, offline) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in a child
process with a time limit, and passes its output through: the last line
of standard output is the result object. A traced run first runs the
workload untraced in a separate process, as the reference its overhead
is measured against. Each process also writes its result line to a file
under the target directory, so one that has to be killed after
measuring still yields its result. Exits non-zero when the build fails,
when no result was produced, or when an output check failed. See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-get", "churn", "scheme-sweep")
# Every workload process ends well before this on its own deadlines.
RUN_LIMIT_S = 170


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(target, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(target, "release", "perfbench")
    print(f"# commit: {git_commit()}", flush=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        # The untraced reference runs in its own process, so a server it
        # wedges cannot disturb the traced one.
        code, lines = run_child(binary, base + ["--trace", "0"], out_dir, deadline)
        reference = reference_value(lines[-1] if lines else "", args.workload)
        if reference is None or code not in (0, None):
            for line in lines:
                print(line)
            print("perfbench: the untraced reference run failed", file=sys.stderr)
            return 3 if reference is None else 1
        base += ["--trace", "1", "--reference", repr(reference)]
    else:
        base += ["--trace", "0"]
    code, lines = run_child(binary, base, out_dir, deadline)
    for line in lines:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        print("perfbench: the workload produced no result", file=sys.stderr)
        return 3
    return 0 if code in (0, None) and '"correct": true' in lines[-1] else 1


def run_child(binary, args, out_dir, deadline):
    """Runs one workload process until `deadline`; returns its exit code
    (None when killed) and its non-empty output lines, the last being the
    result line when there is one."""
    result_file = os.path.join(out_dir, f"result-{os.getpid()}.json")
    child = subprocess.Popen(
        [binary] + args + ["--result", result_file],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
        code = child.returncode
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        stdout, _ = child.communicate()
        code = None
        print("perfbench: workload process killed at the time limit", file=sys.stderr)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if code is None:
        # Killed: only a result the process wrote before it hung counts.
        try:
            with open(result_file) as f:
                lines.append(f.read().strip())
        except OSError:
            pass
    try:
        os.remove(result_file)
    except OSError:
        pass
    return code, lines


def reference_value(line, workload):
    """The metric a traced run measures its overhead against."""
    name = "capacity_rps" if workload == "scheme-sweep" else "get_p50_us"
    try:
        return float(json.loads(line)["metrics"][name]["value"])
    except (ValueError, KeyError, TypeError):
        return None


if __name__ == "__main__":
    sys.exit(main())
