#!/usr/bin/env python3
"""Build the COBRA benchmark from source and run one seeded workload.

    python3 perfbench/run.py --workload h2p-mix --seed 1 --seconds 20 --trace 0

Run from the root of a cobra checkout. The last line of stdout is one JSON
object {correct, attempted, failed, metrics}; --trace 1 reports per-layer
metrics instead of end-to-end ones. Scratch files (the trace, the daemons'
sockets and caches) live under _perfbench/ and are removed after the run;
traced runs keep their spans in _perfbench/spans/. The benchmark runs in a
process group of its own, which is killed and waited for afterwards, so no
`cobra serve` daemon outlives a run.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "cobra_cli.exe")
WORK_ROOT = "_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the seconds-long size perfbench/selfcheck.py uses")
    p.add_argument("--inject-mismatch", action="store_true",
                   help="corrupt one replay counter before it is checked")
    return p.parse_args(argv)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: not the root of a cobra checkout (no dune-project and lib/)")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/cobra_cli.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")


def reap_group(pgid):
    """Kill what is left of the benchmark's process group; wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main(argv):
    args = parse_args(argv)
    build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COBRA_") and k != "OCAMLRUNPARAM"}
    env["COBRA_JOBS"] = str(len(os.sched_getaffinity(0)))
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    spans = os.path.join(WORK_ROOT, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(work)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--cli", CLI, "--work", work, "--spans", spans]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        reap_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
