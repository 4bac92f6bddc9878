#!/usr/bin/env python3
"""Check the benchmark itself at a size that takes seconds.

    python3 perfbench/selfcheck.py

Run from the root of a cobra checkout. Checks that
- every metric of BENCHMARK.json prints, with its unit, on every workload:
  end-to-end metrics untraced, per-layer metrics traced, and no others;
- an injected counter mismatch surfaces as a failed operation;
- two runs with one seed give identical simulated counters and cache-hit
  counts.
Exits 1 when a check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selfcheck: {' '.join(cmd)} exited {done.returncode}")
    counters = next((l for l in lines if l.startswith("counters ")), None)
    return json.loads(lines[-1]), counters


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            expect(not (missing or extra or wrong),
                   f"{w} --trace {trace}: every {key} metric with its unit"
                   + (f" (missing {missing}, extra {extra}, wrong unit {wrong})" if missing or extra or wrong else ""))
            expect(result["correct"] and result["failed"] == 0,
                   f"{w} --trace {trace}: {result['attempted']} operations, {result['failed']} failed")

    w = bench["workloads"][0]["name"]
    result, _ = run(w, 0, extra=["--inject-mismatch"])
    expect(not result["correct"] and result["failed"] >= 1,
           f"{w}: an injected counter mismatch is a failed operation ({result['failed']} failed)")

    for w in (w["name"] for w in bench["workloads"]):
        _, first = run(w, 0, seed=3)
        _, second = run(w, 0, seed=3)
        expect(first is not None and first == second,
               f"{w}: two runs of seed 3 give identical simulated counters and cache-hit counts")

    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
