#!/usr/bin/env python3
"""Builds and runs the goc end-to-end benchmark in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench` (this directory's package) and the `goc-serve` daemon
from source with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`) and runs the workload. The benchmark binary
itself removes every `GOC_*` variable from its environment, and reports
them, before it starts any process. The last line of standard output is
the result object; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEEDED = ("Cargo.toml", "Cargo.lock", "crates/core/Cargo.toml", "crates/vm/Cargo.toml",
          "crates/serve/Cargo.toml", "perfbench/Cargo.toml")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("not a goc checkout (missing " + ", ".join(missing) + ")")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)

    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "goc-serve", "--bin", "goc-serve"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)

    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "-V"])
    env["PERFBENCH_COMMIT"] = (tool_output(["git", "rev-parse", "HEAD"])
                               if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown")
    # The output directory is passed relative to the checkout (the working
    # directory of the benchmark and the daemon): it holds the daemon's Unix
    # socket, whose path must stay short however deep the checkout lies.
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(target, "release", "goc-serve"),
           "--out-dir", ".bench_out"]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL).returncode)


if __name__ == "__main__":
    main()
