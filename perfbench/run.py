#!/usr/bin/env python3
"""Build omsd and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_binary --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark program (perfbench/main.go).
All build output, the Go build cache and the run's scratch files stay
under the build directory ($CARGO_TARGET_DIR, default .bench_build), so
the run reads and writes nothing outside the checkout. The last line of
standard output is the result JSON; the exit code is non-zero, with no
result, when the build or the run's set-up fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        # the go command's config and local telemetry live under the
        # user config dir; keep them in the build directory too
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gopath", "gotmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    omsd = os.path.join(build, "omsd")
    bench = os.path.join(build, "perfbench")
    steps = [
        (root, ["go", "build", "-o", omsd, "./cmd/omsd"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", bench, "."]),
    ]
    for cwd, cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    args = [bench, "-omsd", omsd, "-workdir", os.path.join(build, "work")] + sys.argv[1:]
    try:
        return subprocess.run(args, env=env, timeout=900).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
