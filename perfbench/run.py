#!/usr/bin/env python3
"""Build the pap benchmark and papd from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Both binaries build with cargo into
$CARGO_TARGET_DIR (default: .bench_build); build output goes to stderr.
The last line on stdout is the result object; see perfbench/DESIGN.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_warm", "serve_mixed", "tune_sim", "engine_scale")
# Inputs whose content identifies the code under test when the checkout
# is not a git repository.
DIGEST_PATHS = ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench")
SKIP_DIRS = {"target", "out", ".bench_build", "__pycache__"}


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "pap-service", "--bin", "papd"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    release = os.path.join(target, "release")
    is_git = os.path.isdir(os.path.join(ROOT, ".git"))
    cmd = [
        os.path.join(release, "pap-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--papd", os.path.join(release, "papd"),
        "--out", os.path.join(target, "perfbench-out"),
        "--rustc", capture(["rustc", "--version"]),
        "--commit", capture(["git", "rev-parse", "HEAD"]) if is_git else "none (not a git checkout)",
        "--source-digest", source_digest(),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded 170 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
