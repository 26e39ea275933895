#!/usr/bin/env python3
"""Build and run the translator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload translate-cold --seed 1 --seconds 15 --trace 0

The Go program under perfbench/ is built from source (it imports the
repository's packages through the replace directive in perfbench/go.mod),
with every Go cache, temporary and configuration directory kept under the
build directory ($CARGO_TARGET_DIR, default .bench_build), then run with the
same arguments. Its standard output passes through unchanged: the last line
is the result JSON. Exit status is the program's, or 2 when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    base = os.path.join(build, "perfbench")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("HOME", "home")):
        env[var] = os.path.join(base, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="-mod=readonly -buildvcs=false", GOTOOLCHAIN="local", GOPROXY="off",
               CGO_ENABLED="0")
    if os.path.isdir(os.path.join(root, ".git")) and "PERFBENCH_COMMIT" not in env:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if head.returncode == 0:
            env["PERFBENCH_COMMIT"] = head.stdout.strip()

    binary = os.path.join(base, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--workdir", os.path.join(base, "work")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
