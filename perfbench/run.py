#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <sim-bf|local-ac|live-mesh|all> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/ (a Go module of its own that imports the
repository's packages) with the local Go toolchain into .bench_build/,
keeping Go's build cache and temporary files there too, and then runs the
binary with the same arguments. The binary's standard output is passed
through; its last line is the JSON result. Build output goes to standard
error. The exit code is the binary's, or 1 when the build fails or the run
exceeds RUN_TIMEOUT seconds.
"""

import hashlib
import os
import subprocess
import sys

# A first run builds and then runs; both together stay under 900 s.
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 170


def source_digest(root):
    """SHA-256 over every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod next to perfbench/; run it from a full checkout", file=sys.stderr)
        return 1
    out = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_SOURCE_SHA256"] = source_digest(root)
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
