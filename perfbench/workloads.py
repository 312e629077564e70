"""The three workloads: their set-up, their rounds of operations, and the checks.

A workload is built once (its set-up) and then yields rounds.  Every round
runs the same operations on fresh inputs drawn from the workload's seed
stream, so no two one-shot commands of a run touch the same graph or oracle
query.  Inputs of a round are prepared, and outputs checked, outside the
timed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref
from references import expect

import balex.cli  # noqa: F401  (loads every balex module the CLI uses)
from balex import graphs, listamp, oracles, randgraph


class OpFailed(Exception):
    """The program reported an error for an operation."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    units: int = 1          # work items inside the op (search attempts for build-random)


def cli(*args) -> str:
    """One CLI command through the documented in-process entry point; its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = balex.cli.main([str(a) for a in args])
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = np.random.default_rng([seed, WORKLOADS.index(type(self))])
        self.serial = 0

    def path(self, suffix: str) -> Path:
        self.serial += 1
        return self.work / f"f{self.serial}{suffix}"

    def draw(self) -> int:
        return int(self.rng.integers(0, 1 << 31))

    def round(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------- certify ---

class Certify(Workload):
    """build-random searches plus exact/sampled verify of small tables."""

    name = "certify"
    N, D, M, EPS, DELTA, T = 4, 3, 4, Fraction(1, 4), 2, 3
    ACCEPT_AT = 2                       # every search rejects two tables, accepts the third
    VN, VD, VM, VEPS, VK, VTRIALS = 5, 2, 5, Fraction(1, 2), 3, 300
    BUILDS, VERIFIES = 1, 1
    FIGURES = {"attempts_per_s": ("build-random", "rate", "1/s"), "verify_s": ("verify", "median", "s")}

    @staticmethod
    def verdict(table, n, d, m, t, k_max):
        """(min degree at t, {k: worst deviation for k = 1..k_max}) of a table, by reference."""
        rows_of = lambda b: ref.prefix_rows(table, n, d, m, b)  # noqa: E731
        worst = {k: ref.worst_deviation(rows_of(k), 1 << k, 1 << k) for k in range(1, k_max + 1)}
        return ref.min_right_degree(rows_of(t), 1 << t), worst

    def attempt(self, seed: int, i: int):
        table = ref.philox_table(self.N, self.D, self.M, ref.attempt_key(seed, i))
        min_deg, worst = self.verdict(table, self.N, self.D, self.M, self.T, self.N)
        ok = min_deg >= self.DELTA and all(w <= self.EPS for w in worst.values())
        return table, min_deg, worst, ok

    def search_seed(self) -> tuple[int, list]:
        """A base seed whose search accepts exactly at attempt ACCEPT_AT."""
        while True:
            seed = self.draw()
            attempts = []
            for i in range(self.ACCEPT_AT + 1):
                attempts.append(self.attempt(seed, i))
                if attempts[-1][3]:
                    break
            if len(attempts) == self.ACCEPT_AT + 1 and attempts[-1][3]:
                return seed, attempts

    def build_op(self) -> Op:
        seed, attempts = self.search_seed()
        out = self.path(".bgex")

        def check(stdout: str) -> None:
            expect(f"found at attempt {self.ACCEPT_AT};" in stdout, f"build-random said {stdout!r}")
            report = json.loads(Path(str(out) + ".report.json").read_text())
            data = out.read_bytes()
            expect(report["found"] and report["generator_id"] == ref.GENERATOR_ID, "bad report head")
            expect(report["attempt"] == self.ACCEPT_AT, "wrong accepted attempt")
            expect(report["attempt_seed"] == ref.attempt_key(seed, self.ACCEPT_AT), "wrong attempt seed")
            expect(report["graph_digest"] == ref.sha256_tag(data), "graph digest is not the file's")
            expect(len(report["attempts"]) == len(attempts), "wrong number of attempts")
            for i, (rec, (_, min_deg, worst, ok)) in enumerate(zip(report["attempts"], attempts)):
                expect(rec["attempt"] == i and rec["seed"] == ref.attempt_key(seed, i),
                       f"attempt {i}: wrong index or key")
                expect(rec["min_degree"] == min_deg, f"attempt {i}: min degree {rec['min_degree']} != {min_deg}")
                got = {int(k): Fraction(v) for k, v in rec["worst_by_k"].items()}
                expect(got == worst, f"attempt {i}: worst_by_k {got} != reference {worst}")
                expect(rec["pass"] == ok, f"attempt {i}: verdict {rec['pass']} != {ok}")
            table, min_deg, worst, _ = attempts[-1]
            expect(data == ref.bgex_table_bytes(self.N, self.D, self.M, table),
                   "written graph is not the accepted table")
            degree, *exact = report["reports"]
            expect(degree["min_degree"] == min_deg and degree["pass"], "accepted degree report")
            expect({r["k"]: Fraction(r["worst_deviation"]) for r in exact} == worst,
                   "accepted graph's exact reports disagree with the reference")
            out.unlink()
            Path(str(out) + ".report.json").unlink()

        return Op("build-random", lambda: cli(
            "build-random", "--n", self.N, "--d", self.D, "--m", self.M,
            "--epsilon", self.EPS, "--delta-min", self.DELTA, "--t", self.T,
            "--seed", seed, "--max-attempts", 1000, "--out", out), check, units=len(attempts))

    def verify_table(self):
        """A fresh n=5 table that passes at k=1..3 and the degree bound."""
        while True:
            table = ref.philox_table(self.VN, self.VD, self.VM, self.draw())
            min_deg, worst = self.verdict(table, self.VN, self.VD, self.VM, self.T, self.VK)
            if min_deg >= self.DELTA and max(worst.values()) <= self.VEPS:
                return table, min_deg, worst

    def verify_op(self) -> Op:
        table, min_deg, worst = self.verify_table()
        graph, out = self.path(".bgex"), self.path(".json")
        data = ref.bgex_table_bytes(self.VN, self.VD, self.VM, table)
        graph.write_bytes(data)
        seed = self.draw()

        def check(stdout: str) -> None:
            expect(stdout.strip() == "verify: PASS", f"verify said {stdout!r}")
            doc = json.loads(out.read_text())
            expect(doc["pass"] and doc["graph_digest"] == ref.sha256_tag(data), "verify report head")
            reps = doc["reports"]
            expect([r["k"] for r in reps] == [1, 2, 3], "verify checked the wrong k range")
            for r in reps[:-1]:
                expect(r["kind"] == "extractor-exact", f"k={r['k']} was not checked exactly")
                expect(Fraction(r["worst_deviation"]) == worst[r["k"]],
                       f"k={r['k']}: worst {r['worst_deviation']} != reference {worst[r['k']]}")
            sampled = reps[-1]
            expect(sampled["kind"] == "extractor-sampled" and sampled["trials"] == self.VTRIALS,
                   "k=3 was not sampled with the requested trials")
            expect(Fraction(sampled["worst_deviation"]) <= worst[self.VK],
                   "sampled deviation exceeds the exact worst")
            deg = doc["degree_report"]
            expect(deg["min_degree"] == min_deg and deg["pass"], "degree report disagrees")
            graph.unlink()
            out.unlink()

        return Op("verify", lambda: cli(
            "verify", "--graph", graph, "--epsilon", self.VEPS, "--k-max", self.VK,
            "--delta-min", self.DELTA, "--t", self.T, "--sampled-trials", self.VTRIALS,
            "--seed", seed, "--out", out), check)

    def round(self) -> list[Op]:
        ops = [self.build_op() for _ in range(self.BUILDS)]
        return ops + [self.verify_op() for _ in range(self.VERIFIES)]


# ---------------------------------------------------------- amplify-table ---

class AmplifyTable(Workload):
    """Lists, elements and congestion on a held 2^20-edge table, plus one-shot CLI elements."""

    name = "amplify-table"
    N, D, M, T, EPS, DELTA = 14, 6, 14, 10, Fraction(1, 4), 4
    LISTS, ELEMENTS, CLI_INDEX = 4, 40, 8
    B_SIZES = (6, 8, 10)                # random B of size 2^s, s <= T, plus one concentrated B
    ORACLE_KS = (12, 13, 16, 17)        # compressor sets of 16, 32, 448 and 896 strings at n=14
    FIGURES = {"lists_per_s": ("amplify", "rate", "1/s"),
               "elements_per_s": ("list_element", "rate", "1/s"),
               "congestion_per_s": ("congestion", "rate", "1/s"),
               "cli_index_s": ("cli_index", "median", "s")}

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.key = self.draw()
        path = self.path(".bgex")
        graphs.save_graph(randgraph.sample_table(self.N, self.D, self.M, self.key), path)
        self.graph = graphs.load_graph(path)
        self.params = graphs.BalanceParams(self.EPS, self.DELTA, self.T)
        compressor = oracles.compressor_oracle()
        self.oracle_sets = {k: oracles.bset(self.N, k, compressor).members for k in self.ORACLE_KS}
        self._table = None
        self._blocks = None

    def references(self):
        """Reference table and blocks of the held graph (built after set-up)."""
        if self._blocks is None:
            self._table = ref.philox_table(self.N, self.D, self.M, self.key)
            expect(np.array_equal(self.graph.table, self._table), "held graph is not the Philox table")
            for k, members in self.oracle_sets.items():
                expect(0 < len(members) < 1 << (k + 1), f"oracle set k={k} breaks the counting bound")
            self._blocks = ref.TableBlocks(self._table, self.N, self.D, self.M, self.T)
        return self._table, self._blocks

    def amplify_op(self) -> Op:
        x = self.draw() % (1 << self.N)

        def check(alist) -> None:
            elements, labels, padded = self.references()[1].amplified(x, self.DELTA)
            expect(list(alist.elements) == elements, f"list of x={x:#x} disagrees")
            expect(list(alist.segment_labels) == labels and list(alist.padded_labels) == padded,
                   f"labels or padding of x={x:#x} disagree")

        return Op("amplify", lambda: listamp.amplify(self.graph, self.params, x), check)

    def element_op(self) -> Op:
        x = self.draw() % (1 << self.N)
        i = self.draw() % ((1 << self.D) * self.DELTA)

        def check(element) -> None:
            blocks = self.references()[1]
            y, j = divmod(i, self.DELTA)
            expected = blocks.block(blocks.labels(x)[y], self.DELTA)[0][j]
            expect(element == expected, f"element {i} of x={x:#x}: {element} != {expected}")

        return Op("list_element", lambda: listamp.list_element(self.graph, self.params, x, i), check)

    def congestion_op(self, members) -> Op:
        members = sorted(members)

        def check(report) -> None:
            want = ref.congestion(self.references()[0], self.N, self.D, self.M, members, self.EPS)
            expect(report.s == want["s"] and report.b_size == len(members), "wrong prefix or size")
            expect(report.threshold == want["threshold"], "wrong light threshold")
            expect(set(report.heavy_set) == want["heavy"], "heavy set disagrees")
            expect(set(report.bad_set) == want["bad"], "bad set disagrees")
            expect(report.bound_ok == want["bound_ok"], "bad-fraction verdict disagrees")

        return Op("congestion", lambda: listamp.congestion_report(self.graph, members, self.EPS, self.T), check)

    def cli_index_op(self) -> Op:
        """One element from a file of its own: the held table with every right label
        XORed by a fresh constant, a different graph whose lists are the held graph's."""
        flip = 1 + self.draw() % ((1 << self.M) - 1)
        graph = self.path(".bgex")
        graph.write_bytes(ref.bgex_table_bytes(self.N, self.D, self.M, self.graph.table ^ flip))
        x = self.draw() % (1 << self.N)
        i = self.draw() % ((1 << self.D) * self.DELTA)

        def check(stdout: str) -> None:
            blocks = self.references()[1]
            y, j = divmod(i, self.DELTA)
            expected = blocks.block(blocks.labels(x)[y], self.DELTA)[0][j]
            expect(stdout.strip() == f"{expected:04x}", f"CLI element {stdout.strip()} != {expected:04x}")
            graph.unlink()

        return Op("cli_index", lambda: cli(
            "amplify", "--graph", graph, "--epsilon", self.EPS, "--delta-blocks", self.DELTA,
            "--t", self.T, "--x", f"{x:04x}", "--index", i), check)

    def round(self) -> list[Op]:
        ops = [self.amplify_op() for _ in range(self.LISTS)]
        ops += [self.element_op() for _ in range(self.ELEMENTS)]
        sets = [self.rng.choice(1 << self.N, size=1 << s, replace=False) for s in self.B_SIZES]
        sets += list(self.oracle_sets.values())
        # 2^6 left nodes, 16 to 64 of them those with the most edges into one right
        # node z of the 6-bit view: z's count falls on either side of the light
        # threshold from round to round, so the heavy set is tested where it matters
        z = self.draw() % (1 << 6)
        into_z = ((self.graph.table >> (self.M - 6)) == z).reshape(1 << self.N, -1).sum(axis=1)
        members = set(np.argsort(-into_z, kind="stable")[: 16 + self.draw() % 49].tolist())
        for x in self.rng.permutation(1 << self.N).tolist():
            if len(members) == 1 << 6:
                break
            members.add(x)
        sets.append(members)
        ops += [self.congestion_op(int(x) for x in b) for b in sets]
        return ops + [self.cli_index_op() for _ in range(self.CLI_INDEX)]


# ----------------------------------------------------------------- linear ---

class Linear(Workload):
    """build-linear, full and indexed CLI lists, and a sampled verify, on counter expansions."""

    name = "linear"
    EPS = Fraction(1, 4)
    BUILD_N, BUILD_KAPPA, BUILD_S = 64, 0.015625, 16            # the README's configuration
    AN, AD, AM, AS, DELTA, T = 32, 4, 28, 8, 16, 24              # amplify graphs
    VN, VD, VM, VS, VEPS, VTRIALS, VDELTA, VT = 10, 3, 7, 4, Fraction(1, 2), 60, 2, 6
    VK = (4, 5, 6)                      # over the subset budget, 2..8 right nodes
    BUILDS, LISTS, INDEXES, VERIFIES = 1, 2, 8, 1
    FIGURES = {"build_linear_s": ("build-linear", "median", "s"), "lists_per_s": ("amplify", "rate", "1/s"),
               "cli_index_s": ("cli_index", "median", "s"), "verify_s": ("verify", "median", "s")}

    def build_op(self) -> Op:
        seed = self.draw()
        out = self.path(".bgex")
        want = ref.derived_linear(self.BUILD_N, self.EPS, self.BUILD_KAPPA)

        def check(stdout: str) -> None:
            doc = json.loads(stdout)
            data = out.read_bytes()
            n, d, m, desc = ref.parse_bgex_linear(data)
            expect((n, d, m) == (self.BUILD_N, want["d"], want["m"]), "written dimensions")
            expect(desc == {"id": "counter", "m": want["m"], "s": self.BUILD_S, "seed": seed},
                   f"written descriptor {desc}")
            expect(all(doc[k] == v for k, v in want.items()), f"derived parameters {doc} != {want}")
            expect(doc["c"] == 1 and doc["kappa"] == self.BUILD_KAPPA, "echoed configuration")
            m_t = want["t"] - (n - m)
            expect(doc["delta_guarantee"] == (m_t >= 1 and (1 << (n - m_t)) >= want["Delta"]),
                   "delta_guarantee disagrees with 2^(n - m_t) >= Delta")
            expect(doc["graph_digest"] == ref.sha256_tag(data), "printed digest is not the file's")
            out.unlink()

        return Op("build-linear", lambda: cli(
            "build-linear", "--n", self.BUILD_N, "--epsilon", self.EPS, "--kappa", self.BUILD_KAPPA,
            "--s", self.BUILD_S, "--seed", seed, "--out", out), check)

    def amp_graph(self) -> tuple[ref.CounterGraph, Path, bytes]:
        seed = self.draw()
        path = self.path(".bgex")
        data = ref.bgex_linear_bytes(self.AN, self.AD, self.AM, self.AS, seed)
        path.write_bytes(data)
        return ref.CounterGraph(self.AN, self.AD, self.AM, self.AS, seed), path, data

    def segment(self, g: ref.CounterGraph, x: int, y: int):
        m_t = self.T - (self.AN - self.AM)
        columns = g.columns(y, m_t)
        z = g.ext(x, y) >> (self.AM - m_t)
        expect(ref.apply_columns(columns, x) == z, "reference evaluator is not linear")
        return columns, ref.free_bits(columns), z

    def list_op(self) -> Op:
        g, graph, data = self.amp_graph()
        x = self.draw() % (1 << self.AN)
        out = self.path(".txt")

        def check(stdout: str) -> None:
            lines = out.read_text().splitlines()
            head, elements = json.loads(lines[0]), [int(v, 16) for v in lines[1:]]
            D = 1 << self.AD
            expect(stdout.strip() == f"list of {D * self.DELTA} elements for x={x:08x}", "stdout")
            expect(head["graph_digest"] == ref.sha256_tag(data) and head["x"] == f"{x:08x}", "list header")
            expect(len(elements) == D * self.DELTA, "list length")
            padded = []
            for y in range(D):
                columns, free, z = self.segment(g, x, y)
                seg = elements[y * self.DELTA:(y + 1) * self.DELTA]
                short = [ref.check_linear_element(columns, free, z, e, j, self.DELTA)
                         for j, e in enumerate(seg)]
                expect(len(set(seg)) == min(self.DELTA, 1 << len(free)), f"segment {y} repeats")
                if short[0]:
                    padded.append(y)
            expect(head["padded_labels"] == padded, "padded labels disagree")
            graph.unlink()
            out.unlink()

        return Op("amplify", lambda: cli(
            "amplify", "--graph", graph, "--epsilon", self.EPS, "--delta-blocks", self.DELTA,
            "--t", self.T, "--x", f"{x:08x}", "--out", out), check)

    def index_op(self) -> Op:
        g, graph, _ = self.amp_graph()
        x = self.draw() % (1 << self.AN)
        i = self.draw() % ((1 << self.AD) * self.DELTA)

        def check(stdout: str) -> None:
            y, j = divmod(i, self.DELTA)
            columns, free, z = self.segment(g, x, y)
            ref.check_linear_element(columns, free, z, int(stdout.strip(), 16), j, self.DELTA)
            graph.unlink()

        return Op("cli_index", lambda: cli(
            "amplify", "--graph", graph, "--epsilon", self.EPS, "--delta-blocks", self.DELTA,
            "--t", self.T, "--x", f"{x:08x}", "--index", i), check)

    def verify_op(self) -> Op:
        a = self.VN - self.VM
        while True:                     # a graph whose exact worst passes, so no sample can fail
            seed = self.draw()
            g = ref.CounterGraph(self.VN, self.VD, self.VM, self.VS, seed)
            worst = {k: ref.worst_deviation(g.prefix_rows(k - a), 1 << k, 1 << (k - a)) for k in self.VK}
            if max(worst.values()) <= self.VEPS:
                break
        graph, out = self.path(".bgex"), self.path(".json")
        data = ref.bgex_linear_bytes(self.VN, self.VD, self.VM, self.VS, seed)
        graph.write_bytes(data)
        sample_seed = self.draw()

        def check(stdout: str) -> None:
            expect(stdout.strip() == "verify: PASS", f"verify said {stdout!r}")
            doc = json.loads(out.read_text())
            expect(doc["pass"] and doc["graph_digest"] == ref.sha256_tag(data), "verify report head")
            expect([r["k"] for r in doc["reports"]] == list(self.VK), "verified k range")
            for r in doc["reports"]:
                expect(r["kind"] == "extractor-sampled" and r["trials"] == self.VTRIALS,
                       f"k={r['k']} was not sampled with the requested trials")
                expect(Fraction(r["worst_deviation"]) <= worst[r["k"]],
                       f"k={r['k']}: sampled deviation exceeds the exact worst {worst[r['k']]}")
            m_t = self.VT - a
            deg = doc["degree_report"]
            expect(deg["kind"] == "delta-guarantee"
                   and deg["pass"] == ((1 << (self.VN - m_t)) >= self.VDELTA), "delta guarantee")
            graph.unlink()
            out.unlink()

        return Op("verify", lambda: cli(
            "verify", "--graph", graph, "--epsilon", self.VEPS, "--k-min", self.VK[0],
            "--k-max", self.VK[-1], "--sampled-trials", self.VTRIALS, "--seed", sample_seed,
            "--delta-min", self.VDELTA, "--t", self.VT, "--out", out), check)

    def round(self) -> list[Op]:
        ops = [self.build_op() for _ in range(self.BUILDS)]
        ops += [self.list_op() for _ in range(self.LISTS)]
        ops += [self.index_op() for _ in range(self.INDEXES)]
        return ops + [self.verify_op() for _ in range(self.VERIFIES)]


WORKLOADS = [Certify, AmplifyTable, Linear]
BY_NAME = {w.name: w for w in WORKLOADS}
