#!/usr/bin/env python3
"""balex benchmark: one workload per process, whole rounds for a fixed time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; balex is imported from its ``src``.  With
``--trace 0`` nothing is wrapped and the last line holds the end-to-end
metrics; with ``--trace 1`` the layers are wrapped (see tracing.py) and the
last line holds the per-layer metrics.  Lines before it, starting with "#",
give per-operation figures.  Exit status 0 means the run completed; the
result says whether every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one thread, set before numpy loads

from calibrate import NOMINAL_S, Scaler, kernel_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

# per-layer metric -> (phase, span, statistic)
PER_LAYER = {f"{span}_s": ("timed", span, "busy") for span in (
    "randgraph.search", "randgraph.sample_table", "randgraph.exact", "randgraph.min_degree",
    "randgraph.sampled", "kernels.sweep", "kernels.deviation", "graphs.prefixed_rows",
    "graphs.degree_counts", "graphs.member_rows", "graphs.load", "graphs.save",
    "gf2.row_assemble", "gf2.solve_affine", "lineargraph.pairs", "lineargraph.linearity_check",
    "lineargraph.delta_guarantee", "lineargraph.left_neighbors", "listamp.amplify",
    "listamp.list_element", "listamp.congestion", "listamp.classify_heavy", "listamp.bad_set",
    "listamp.save_list")}
PER_LAYER.update({f"{span}_calls": ("timed", span, "calls") for span in (
    "randgraph.exact", "kernels.sweep", "kernels.deviation", "gf2.row_assemble",
    "gf2.solve_affine", "lineargraph.matrix", "listamp.amplify", "listamp.list_element")})
PER_LAYER["randgraph.sampled_trials"] = ("timed", None, "trials")
PER_LAYER["lineargraph.matrix_hit_ratio"] = ("timed", None, "hit_ratio")
PER_LAYER["oracles.bset_s"] = ("setup", "oracles.bset", "busy")
PER_LAYER["cli.self_s"] = ("timed", "cli.main", "self")


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None,
                   help="internal: build the inputs, print the time since this epoch, exit")
    return p.parse_args()


def load_balex() -> None:
    src = ROOT / "src"
    if not (src / "balex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no balex sources at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def probe_setup(args) -> float:
    """Set-up time of a fresh process (interpreter start, balex import, input
    build), scaled by the calibration kernel timed just before and after it."""
    before = kernel_seconds()
    t0 = time.time()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", repr(t0)],
        check=True, capture_output=True, text=True, timeout=120)
    seconds = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
    return seconds * NOMINAL_S / ((before + kernel_seconds()) / 2)


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(tracer, rounds: int) -> dict:
    metrics = {}
    for name, (phase, span, stat) in PER_LAYER.items():
        if stat == "busy":
            value = tracer.busy[phase, span]
        elif stat == "self":
            value = tracer.self_time[phase, span]
        elif stat == "calls":
            value = tracer.calls[phase, span]
        elif stat == "trials":
            value = tracer.trials[phase]
        else:
            matrix = tracer.calls[phase, "lineargraph.matrix"]
            value = 1 - tracer.calls[phase, "gf2.row_assemble"] / matrix if matrix else 0.0
        if phase == "timed" and stat != "hit_ratio":
            value /= rounds
        unit = "s" if name.endswith("_s") else ("ratio" if stat == "hit_ratio" else "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    args = parse_args()
    load_balex()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe is not None:
            import workloads
            workloads.BY_NAME[args.workload](work, args.seed)
            print(json.dumps({"setup_s": time.time() - args.setup_probe}))
            return 0
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()         # left only while another run still uses it
        except OSError:
            pass


def run(args, work: Path) -> int:
    import workloads

    if args.workload not in workloads.BY_NAME:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.BY_NAME)}")
    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    wl = workloads.BY_NAME[args.workload](work, args.seed)
    if tracer:
        tracer.phase = None

    scaler = Scaler()
    raw_rounds: list[float] = []
    times = defaultdict(list)           # scaled seconds per operation, by kind
    by_position = defaultdict(list)     # scaled seconds of the round's j-th operation
    units = defaultdict(int)
    attempted, failures, wrong, peak_kb = 0, [], [], 0
    while not raw_rounds or sum(raw_rounds) < args.seconds:
        ops, results, dts = wl.round(), [], []
        scaler.start_round()
        for op in ops:
            if tracer:
                tracer.phase = "timed"
            t0 = time.perf_counter()
            try:
                results.append((op.run(), True))
            except Exception as exc:    # an operation that errors is counted, not fatal
                results.append((exc, False))
            dts.append(time.perf_counter() - t0)
            if tracer:
                tracer.phase = None
            units[op.kind] += op.units
            scaler.tick(dts[-1])
        factor = scaler.end_round()
        for j, (op, dt) in enumerate(zip(ops, dts)):
            times[op.kind].append(dt * factor)
            by_position[j].append(dt * factor)
        raw_rounds.append(sum(dts))
        if not peak_kb:                 # the program's peak: set-up and one round, before any check
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += len(ops)
        for op, (result, ok) in zip(ops, results):
            if not ok:
                failures.append(f"{op.kind} failed: {result!r}")
                continue
            try:
                op.check(result)
            except Exception as exc:    # CheckError, or an output too malformed to read
                wrong.append(f"{op.kind} wrong: {exc!r}")

    for message in (failures + wrong)[:20]:
        print(f"# {message}", file=sys.stderr)
    round_s = sum(statistics.median(v) for v in by_position.values())
    timed = sum(raw_rounds)
    print(f"# workload={args.workload} seed={args.seed} rounds={len(raw_rounds)} timed_s={timed:.3f} "
          f"round_s={round_s:.4f} raw_median={statistics.median(raw_rounds):.4f} "
          f"kernel_median={statistics.median(scaler.kernel):.4f}")
    for kind, ts in times.items():
        print(f"# op={kind} n={len(ts)} median_s={statistics.median(ts):.5f} "
              f"p90_s={quantile(ts, 0.9):.5f} units_per_s={units[kind] / sum(ts):.3f}")
    for name, (kind, stat, unit) in wl.FIGURES.items():
        ts = times[kind]
        value = statistics.median(ts) if stat == "median" else units[kind] / sum(ts)
        print(f"# figure {name}={value:.5g} {unit}")
    if tracer:
        covered = tracer.top["timed"]
        outside = tracer.self_time["timed", "cli.main"]
        print(f"# trace coverage={covered / timed:.4f} attributed={(covered - outside) / timed:.4f}")
        metrics = per_layer(tracer, len(raw_rounds))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
