#!/usr/bin/env python3
"""Run one workload over several seeds, one run at a time, and summarise.

    python3 perfbench/spread.py --workload linear --seeds 1-10 --seconds 25

For every metric of the last line it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median; for every kind
of operation the median over runs of its per-run median and p90; and the
share of failed operations.  All run outputs go to
.perfbench_results/<workload>-trace<0|1>.json under the checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        runs.append({"seed": seed, "info": lines[:-1], "result": json.loads(lines[-1])})
        r = runs[-1]["result"]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              flush=True)

    print(f"\n{args.workload}, {len(runs)} runs of {args.seconds} s, trace={args.trace}")
    values = defaultdict(list)
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values[name, metric["unit"]].append(metric["value"])
    for (name, unit), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:32s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} {unit}")
    ops = defaultdict(lambda: defaultdict(list))
    extra = defaultdict(list)
    for run in runs:
        for line in run["info"]:
            fields = dict(re.findall(r"(\w+)=([\w.\-]+)", line))
            if "op" in fields:
                for key in ("median_s", "p90_s", "units_per_s"):
                    ops[fields["op"]][key].append(float(fields[key]))
            for key in ("round_s", "raw_median", "kernel_median", "coverage", "attributed"):
                if key in fields:
                    extra[key].append(float(fields[key]))
    for kind, stats in ops.items():
        print(f"  op {kind:14s} " + " ".join(
            f"{key}={statistics.median(v):.5g}" for key, v in stats.items()))
    for key, v in extra.items():
        print(f"  {key} median={statistics.median(v):.4f} min={min(v):.4f} max={max(v):.4f}")
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"  failed share(s): {sorted(shares)}; all correct: {all(r['result']['correct'] for r in runs)}")

    dest = ROOT / ".perfbench_results"
    dest.mkdir(exist_ok=True)
    (dest / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
