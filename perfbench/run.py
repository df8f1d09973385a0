#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig5-medium|ingest-medium|serve-mix \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` harness (perfbench/Cargo.toml, a workspace of its
own over the repository's crates) and the `fig5` sweep binary, both in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
one workload. The harness works in a fresh directory under
`.bench_scratch/`, which is removed afterwards, so the checkout is left
as it was. Its last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is the harness's: 0 when every output check passed, 1
otherwise; a failed build exits 1 without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

# A run must finish within 180 s once built; leave room for clean-up.
RUN_TIMEOUT_S = 170


def build(root, env):
    """Builds the harness and the fig5 binary; returns False on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "dee-bench", "--bin", "fig5"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not build(root, env):
        return 1

    scratch_root = os.path.join(root, ".bench_scratch")
    scratch = os.path.join(scratch_root, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--root", root,
        "--scratch", scratch,
        "--fig5-bin", os.path.join(target, "release", "fig5"),
    ]
    start = time.monotonic()
    # A session of its own, so a timeout can stop the harness together
    # with any fig5 process it started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # Stop anything the harness left behind, then its scratch space.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f} s", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
