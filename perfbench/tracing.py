"""Per-layer spans recorded from outside the program.

The tracer wraps each layer's public functions in place: in the module that
defines them and in every balex module that imported them by name (methods
on their class).  A wrapper adds the call's duration to its layer's busy
time and subtracts it from its caller's self time, so ``cli.main``'s self
time is the time the CLI spends outside every wrapped call.  Aggregates are
kept in memory per phase ("setup" or "timed"); nothing is written until the
benchmark prints its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, defining module, function or Class.method)
TARGETS = [
    ("randgraph.search", "balex.randgraph", "search_balanced"),
    ("randgraph.sample_table", "balex.randgraph", "sample_table"),
    ("randgraph.exact", "balex.randgraph", "verify_extractor_exact"),
    ("randgraph.min_degree", "balex.randgraph", "verify_min_degree"),
    ("randgraph.sampled", "balex.randgraph", "verify_extractor_sampled"),
    ("kernels.sweep", "balex._kernels", "worst_subset_deviation"),
    ("kernels.deviation", "balex._kernels", "deviation_numerator"),
    ("graphs.prefixed_rows", "balex.graphs", "PrefixView.prefixed_rows"),
    ("graphs.degree_counts", "balex.graphs", "PrefixView.degree_counts"),
    ("graphs.member_rows", "balex.graphs", "PrefixView.member_rows"),
    ("graphs.load", "balex.graphs", "load_graph"),
    ("graphs.save", "balex.graphs", "save_graph"),
    ("gf2.row_assemble", "balex.gf2", "row_assemble"),
    ("gf2.solve_affine", "balex.gf2", "solve_affine"),
    ("lineargraph.pairs", "balex.lineargraph", "SeedExpansion.pairs"),
    ("lineargraph.matrix", "balex.lineargraph", "LinearFamily.matrix"),
    ("lineargraph.linearity_check", "balex.lineargraph", "linearity_check"),
    ("lineargraph.delta_guarantee", "balex.lineargraph", "delta_guarantee"),
    ("lineargraph.left_neighbors", "balex.lineargraph", "left_neighbors_indexed"),
    ("listamp.amplify", "balex.listamp", "amplify"),
    ("listamp.list_element", "balex.listamp", "list_element"),
    ("listamp.congestion", "balex.listamp", "congestion_report"),
    ("listamp.classify_heavy", "balex.listamp", "classify_heavy"),
    ("listamp.bad_set", "balex.listamp", "bad_set"),
    ("listamp.save_list", "balex.listamp", "save_list"),
    ("oracles.bset", "balex.oracles", "bset"),
    ("cli.main", "balex.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.phase: str | None = None
        self.busy = defaultdict(float)      # (phase, span) -> inclusive seconds
        self.calls = defaultdict(int)       # (phase, span) -> calls
        self.self_time = defaultdict(float)  # (phase, span) -> seconds outside child spans
        self.top = defaultdict(float)       # phase -> seconds inside outermost spans
        self.trials = defaultdict(int)      # phase -> sampled-verifier trials requested
        self._stack: list[list[float]] = []  # child time of each open span

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            tracer._stack.append([0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                (child,) = tracer._stack.pop()
                tracer.busy[phase, name] += dt
                tracer.calls[phase, name] += 1
                tracer.self_time[phase, name] += dt - child
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.top[phase] += dt
                if name == "randgraph.sampled":
                    tracer.trials[phase] += kwargs.get("trials", args[3] if len(args) > 3 else 0)

        return traced

    def install(self) -> None:
        """Replace every target in its class, or in its module and wherever it was
        imported by name; other aliases (``deviation_numerator_np`` inside the
        sweep) stay unwrapped, so the spans follow the public entry points."""
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "balex" or key.startswith("balex.")]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in loaded:          # the defining module and every `from ... import attr`
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

