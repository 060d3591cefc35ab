#!/usr/bin/env python3
"""Builds matopt and runs one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the workspace's `matopt` and
`matopt-workerd` binaries and this directory's `perfbench` package into
$CARGO_TARGET_DIR (default `.bench_build`), then runs `perfbench`, which
prints the result as the last line of standard output. Run files (server
logs, plan cache, spans) go to `<target dir>/perfbench-runs/`.
"""

import os
import subprocess
import sys


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    os.chdir(root)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: run from a matopt checkout (no Cargo.toml at " + root + ")")
    cargo_build(["-p", "matopt-bench", "--bin", "matopt", "-p", "matopt-worker", "--bin", "matopt-workerd"], env)
    cargo_build(["--manifest-path", os.path.join(here, "Cargo.toml")], env)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--matopt", os.path.join(release, "matopt"),
        "--workerd", os.path.join(release, "matopt-workerd"),
        "--out", os.path.join(target, "perfbench-runs"),
        "--spec", os.path.join(root, "BENCHMARK.json"),
    ]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
