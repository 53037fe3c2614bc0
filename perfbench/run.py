#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The script builds the Go module in perfbench/ (which imports the
repository's packages from the checkout) into .bench_build/, keeping
the Go build cache and temporary files there too, then runs it with the
given arguments. The benchmark's last line of standard output is its
JSON result; see perfbench/WORKLOADS.md.
"""

import argparse
import os
import subprocess
import sys

# A run takes one timed phase of --seconds, or two when traced, plus
# set-up, the correctness gate and warm-up, which stay well within the
# margin. The limit only guards against a hung run.
RUN_MARGIN_S = 140


def run_timeout(argv):
    """Return the time limit for a run with the given arguments."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=int, default=10)
    args, _ = parser.parse_known_args(argv)
    return 2 * max(args.seconds, 0) + RUN_MARGIN_S


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: %s holds no go.mod; run from a checkout of the repository\n" % root)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    # Everything the Go toolchain writes (build cache, temporary files,
    # module cache, its telemetry counters under the user config
    # directory) stays inside the checkout.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gomod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    timeout = run_timeout(sys.argv[1:])
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
