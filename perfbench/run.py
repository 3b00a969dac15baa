#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds, in release mode, the `hmtx-serve`
and `hmtx-router` binaries from the repository's workspace and the
benchmark program from `perfbench/` (its own Cargo workspace), into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark with
the same arguments. The benchmark's last line of output is its JSON
result; its exit code is passed through. A failed build exits 1 without
printing a result.
"""

import os
import subprocess
import sys


def build(target, manifest, packages):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    for p in packages:
        cmd += ["-p", p]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    bench_manifest = os.path.join(root, "perfbench", "Cargo.toml")
    repo_manifest = os.path.join(root, "Cargo.toml")
    for path in (bench_manifest, repo_manifest):
        if not os.path.isfile(path):
            print(f"run.py: {path} is missing; run from the repository root",
                  file=sys.stderr)
            return 1
    if not build(target, repo_manifest, ["hmtx-server", "hmtx-cluster"]):
        print("run.py: building the servers failed", file=sys.stderr)
        return 1
    if not build(target, bench_manifest, []):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "hmtx-serve"),
           "--router-bin", os.path.join(release, "hmtx-router")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
