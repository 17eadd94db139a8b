"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny size and shows that
  - an unfaulted run passes its checks and prints, as its last line, every
    end-to-end metric (--trace 0) or per-layer metric (--trace 1) named in
    BENCHMARK.json, each with the unit BENCHMARK.json gives;
  - the checks can fail: with --fault the workload's model drops one
    delta, and the run must exit 1 with "correct": false;
  - a TDB_* variable in the environment makes the benchmark refuse to
    start.
Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["tpcb", "meter", "report", "wire_tpcb"]


def run(workload, *extra, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1"]
    p = subprocess.run(cmd + list(extra), capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result, p.stdout


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in ("0", "1"):
            rc, res, _ = run(w, "--trace", trace, "--tiny")
            expect(rc == 0 and res is not None and res["correct"], f"{w} trace {trace}: checks pass")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == declared[trace], f"{w} trace {trace}: metrics and units match BENCHMARK.json")
            expect(res["attempted"] >= 1 and res["failed"] == 0, f"{w} trace {trace}: no failed ops")
        rc, res, _ = run(w, "--trace", "0", "--tiny", "--fault")
        expect(rc == 1 and res is not None and not res["correct"], f"{w} with a faulted model: checks fail")

    env = dict(os.environ, TDB_SHARDS="2")
    rc, res, _ = run("report", "--trace", "0", "--tiny", env=env)
    expect(rc != 0 and res is None, "refuses to start with TDB_SHARDS set")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
