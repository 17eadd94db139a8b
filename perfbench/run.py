"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny] [--fault]

Run from the repository root. The build goes to _build with the dune
cache off, so nothing is written outside the checkout; build output goes
to standard error, so the last line of standard output is the result.

A run is several processes in sequence (PARTS), each setting the workload
up and timing S / parts seconds of it with inputs drawn from (N, part).
On the 2-vCPU VMs this was tuned on, the speed of one process differs by
up to 40% from the next one, even with the same seed; merging parts is
what makes a run steady. See perfbench/NOTES.md, "Steadiness".

Each part is pinned to the lowest-numbered CPU the run may use: the two
vCPUs run at different speeds, and a process migrating between them mixes
both (NOTES.md, "CPU placement").

Every part runs at least 10,000 ops, so its p999 has ten samples beyond
it (with --tiny, 10,000 over all parts: tiny runs check correctness and
the shape of the output, and measure nothing).

Merging: ops_per_s and op_p50_ms are means over parts (a part's speed is
close to bimodal, and the mean of a bimodal sample moves less than its
median); everything else is the median over parts, which also keeps one
part hit by a burst of slow ops from setting op_p999_ms.
"""

import json
import math
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# wire_tpcb sets up in 0.2 s, so it affords more parts
PARTS = {"tpcb": 4, "report": 4, "wire_tpcb": 6, "meter": 4}
MEANS = ("ops_per_s", "op_p50_ms")
MIN_OPS = 10_000


def option(args, name):
    i = args.index(name) if name in args else -1
    if i < 0 or i + 1 >= len(args):
        sys.exit(f"perfbench: {name} is required")
    return args[i + 1]


def main() -> int:
    args = sys.argv[1:]
    seconds = float(option(args, "--seconds"))
    nparts = PARTS.get(option(args, "--workload"), 1)
    min_ops = math.ceil(MIN_OPS / nparts) if "--tiny" in args else MIN_OPS
    trace = option(args, "--trace")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cpu = min(os.sched_getaffinity(0))
    rest = [a for i, a in enumerate(args) if a != "--seconds" and (i == 0 or args[i - 1] != "--seconds")]
    parts = []
    for k in range(nparts):
        cmd = [EXE] + rest + ["--seconds", repr(seconds / nparts), "--part", str(k), "--min-ops", str(min_ops)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        lines = p.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[part {k}] {line}")
        if p.returncode not in (0, 1) or not lines:
            print(f"perfbench: part {k} exited with {p.returncode}", file=sys.stderr)
            return p.returncode or 2
        try:
            parts.append(json.loads(lines[-1]))
        except ValueError as e:
            print(f"perfbench: part {k}: {e}", file=sys.stderr)
            return 2

    def merged(name):
        values = [r["metrics"][name]["value"] for r in parts]
        return statistics.mean(values) if name in MEANS else statistics.median(values)

    first = parts[0]
    names = first["end_to_end"] if trace == "0" else first["per_layer"]
    metrics = {}
    for name in names:
        metrics[name] = {"value": merged(name), "unit": first["metrics"][name]["unit"]}
    print(f"merged {nparts} parts, {sum(r['attempted'] for r in parts)} ops")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    correct = all(r["correct"] for r in parts)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in parts),
        "failed": sum(r["failed"] for r in parts),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
