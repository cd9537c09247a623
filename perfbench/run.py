#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <sim|service-cold|service-batch> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate next to this file (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs it with the same
arguments, and passes its output through. The last stdout line is the
run's result: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
The exit code is non-zero when the build fails or any correctness check
fails. Reports and spans land in `<target dir>/perfbench/`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# A run measures for --seconds, then checks its results off the clock.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else []
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            files += [os.path.join(root, n) for n in sorted(names) if n.endswith((".rs", ".toml", ".py"))]
        for f in files:
            digest.update(os.path.relpath(f, REPO).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=["sim", "service-cold", "service-batch"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_REV"] = source_rev()
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(os.path.abspath(target), "perfbench")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(run.stdout)
        fail(f"no result line (exit code {run.returncode})")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
