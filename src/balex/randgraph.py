"""Random table graphs plus exact and sampled verification of their balance.

Exact verification enumerates every left subset of the stated size and takes
the worst statistical distance between its edge-endpoint distribution and the
uniform distribution on the truncated right side.  Checking only subsets of
size exactly 2^k suffices: the endpoint distribution of a larger set is the
average of the distributions of its size-2^k subsets, and statistical distance
is convex.  The worst-case subset itself is the natural maximizer over right
sets: the right nodes receiving more than their uniform share.

All distances are exact rationals; a report passes iff worst <= epsilon with
no floating point anywhere in the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from . import _kernels
from .bitstrings import sorted_bits, to_hex
from .errors import BalexError, CapacityError, ParameterError
from .graphs import MAX_TABLE_BITS, ExtractorGraph, PrefixView, _entry_dtype

GENERATOR_ID = "philox4x64:numpy-generator-integers:v1"
DEFAULT_MAX_SUBSETS = 2_000_000  # subsets one exact check may enumerate
MAX_SAMPLED_LEFT_BITS = 62  # the sampled check draws left nodes below 2^n in int64


def table_rng(seed: int) -> np.random.Generator:
    """The package's one seeded generator, for tables, sampled checks and the
    linear self-checks: numpy Generator over Philox(key=seed)."""
    if not 0 <= seed < 1 << 96:
        raise ParameterError(f"seed {seed} outside [0, 2^96)")
    return np.random.Generator(np.random.Philox(key=seed))


def sample_table(n: int, d: int, m: int, seed: int) -> ExtractorGraph:
    """Uniform random table graph; same seed gives a bit-identical graph."""
    if n + d > MAX_TABLE_BITS:
        raise CapacityError(
            f"table with n+d={n + d} bits exceeds the {MAX_TABLE_BITS}-bit budget"
        )
    if m > 62:
        raise CapacityError(f"table entries of m={m} bits exceed the 62-bit budget")
    rng = table_rng(seed)
    values = rng.integers(0, 1 << m, size=1 << (n + d), dtype=np.uint64)
    return ExtractorGraph(n, d, m, table=values.astype(_entry_dtype(m)))


@dataclass
class VerifyReport:
    """Outcome of one verification check, JSON-serializable via to_dict."""

    kind: str
    passed: bool
    n: int
    right_bits: int | None = None
    k: int | None = None
    epsilon: Fraction | None = None
    worst_deviation: Fraction | None = None
    witness_B: tuple[int, ...] | None = None
    witness_A: tuple[int, ...] | None = None
    trials: int | None = None
    Delta: int | None = None
    min_degree: int | None = None
    degree_histogram: dict[int, int] | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "pass": self.passed, "n": self.n}
        if self.k is not None:
            out["k"] = self.k
        if self.epsilon is not None:
            out["epsilon"] = str(self.epsilon)
        if self.worst_deviation is not None:
            out["worst_deviation"] = str(self.worst_deviation)
        if self.witness_B is not None:
            out["witness_B"] = [to_hex(x, self.n) for x in self.witness_B]
        if self.witness_A is not None and self.right_bits is not None:
            out["witness_A"] = [to_hex(z, self.right_bits) for z in self.witness_A]
        if self.trials is not None:
            out["trials"] = self.trials
        if self.Delta is not None:
            out["Delta"] = self.Delta
        if self.min_degree is not None:
            out["min_degree"] = self.min_degree
        if self.degree_histogram is not None:
            out["degree_histogram"] = {str(k): v for k, v in sorted(self.degree_histogram.items())}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def stat_distance(view: PrefixView, B) -> Fraction:
    """Worst-case extractor deviation of B, computed as half the L1 distance
    between B's edge-endpoint distribution and uniform on the right side."""
    members = sorted_bits(B, view.graph.n, "member of B")
    if not members:
        raise ParameterError("B must be non-empty")
    view.check_right_budget()
    num = _kernels.deviation_numerator(view.member_rows(members), view.r_size)
    return _deviation(view, len(members), num)


def _deviation(view: PrefixView, b_size: int, num: int) -> Fraction:
    """The distance whose numerator ``deviation_numerator`` gives for a B of b_size."""
    return Fraction(num, 2 * b_size * view.graph.degree * view.r_size)


def _checked_view(graph: ExtractorGraph, k: int, epsilon) -> tuple[Fraction, PrefixView]:
    """The verifiers' shared set-up: epsilon >= 0, and the k-prefix view within budget."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    view = graph.prefix_view(k)
    view.check_right_budget()
    return epsilon, view


def _heavy_side_witness(rows: np.ndarray, r_size: int) -> tuple[int, ...]:
    edges = rows.size
    counts = np.bincount(rows.ravel(), minlength=r_size).astype(np.int64)
    return tuple(int(z) for z in np.nonzero(counts * r_size > edges)[0])


def _comb_exceeds(n: int, k: int, limit: int) -> bool:
    """Whether C(n, k) > limit, without forming C(n, k) once it passes limit.

    The partial product after step i is C(n - k + i, i), which never
    decreases in i, so the first one over limit decides.
    """
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        if value > limit:
            return True
        value = value * (n - k + i) // i
    return value > limit


def verify_extractor_exact(
    graph: ExtractorGraph,
    k: int,
    epsilon: Fraction,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> VerifyReport:
    """Enumerate every B of size exactly 2^k and bound the worst deviation."""
    epsilon, view = _checked_view(graph, k, epsilon)
    subset_size = 1 << k
    if _comb_exceeds(1 << graph.n, subset_size, max_subsets):
        raise CapacityError(
            f"enumerating C(2^{graph.n}, 2^{k}) subsets exceeds the budget of {max_subsets}"
        )
    rows = view.prefixed_rows()
    worst_num, best = _kernels.worst_subset_deviation(rows, subset_size, view.r_size)
    worst = _deviation(view, subset_size, worst_num)
    passed = worst <= epsilon
    witness_B = None
    witness_A = None
    if not passed:
        witness_B = tuple(int(x) for x in best)
        witness_A = _heavy_side_witness(rows[best], view.r_size)
    return VerifyReport(
        kind="extractor-exact",
        passed=passed,
        n=graph.n,
        right_bits=view.m_k,
        k=k,
        epsilon=epsilon,
        worst_deviation=worst,
        witness_B=witness_B,
        witness_A=witness_A,
    )


def verify_extractor_sampled(
    graph: ExtractorGraph,
    k: int,
    epsilon: Fraction,
    trials: int,
    seed: int,
) -> VerifyReport:
    """Monte-Carlo surrogate for the exact check; evidence, not proof."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    epsilon, view = _checked_view(graph, k, epsilon)
    if graph.n > MAX_SAMPLED_LEFT_BITS:
        raise CapacityError(
            f"sampled check draws left nodes of at most {MAX_SAMPLED_LEFT_BITS} bits, "
            f"graph has n={graph.n}"
        )
    n_left = 1 << graph.n
    subset_size = 1 << k
    rng = table_rng(seed)
    worst_num = -1
    worst_members: np.ndarray | None = None
    for _ in range(trials):
        members = np.sort(rng.choice(n_left, size=subset_size, replace=False))
        rows = view.member_rows(members.astype(np.int64))
        num = _kernels.deviation_numerator(rows, view.r_size)
        if num > worst_num:
            worst_num = num
            worst_members = members
    worst = _deviation(view, subset_size, worst_num)
    passed = worst <= epsilon
    return VerifyReport(
        kind="extractor-sampled",
        passed=passed,
        n=graph.n,
        right_bits=view.m_k,
        k=k,
        epsilon=epsilon,
        worst_deviation=worst,
        witness_B=None if passed else tuple(int(x) for x in worst_members),
        trials=trials,
        notes=("sampled check: max over sampled B only, not a proof",),
    )


def verify_min_degree(graph: ExtractorGraph, t: int, Delta: int) -> VerifyReport:
    """Minimum non-zero right degree of the t-prefix graph vs Delta."""
    if Delta < 1:
        raise ParameterError(f"Delta must be >= 1, got {Delta}")
    view = graph.prefix_view(t)
    counts = view.degree_counts()
    nonzero = counts[counts > 0]
    min_degree = int(nonzero.min()) if nonzero.size else 0
    degrees, freq = np.unique(counts, return_counts=True)
    histogram = {int(deg): int(cnt) for deg, cnt in zip(degrees, freq)}
    return VerifyReport(
        kind="degree",
        passed=min_degree >= Delta,
        n=graph.n,
        right_bits=view.m_k,
        k=t,
        Delta=Delta,
        min_degree=min_degree,
        degree_histogram=histogram,
    )


@dataclass
class AttemptRecord:
    index: int
    seed: int | None
    min_degree: int | None = None
    worst_by_k: dict[int, Fraction] = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "attempt": self.index,
            "seed": self.seed,
            "min_degree": self.min_degree,
            "worst_by_k": {str(k): str(v) for k, v in sorted(self.worst_by_k.items())},
            "pass": self.passed,
        }


@dataclass
class SearchResult:
    graph: ExtractorGraph
    attempt: int
    seed: int | None
    reports: list[VerifyReport]
    records: list[AttemptRecord]


class BalancedSearchError(BalexError):
    """No attempt produced a fully verified graph; diagnostics attached."""

    def __init__(self, message: str, records: list[AttemptRecord]):
        super().__init__(message)
        self.records = records


MAX_ATTEMPTS = 1 << 32  # attempt indices must fit the low 32 bits of attempt_seed


def attempt_seed(seed: int, attempt: int) -> int:
    """Per-attempt generator key: disjoint streams for attempts below 2^32."""
    return (seed << 32) | attempt


def search_balanced(
    n: int,
    d: int,
    m: int,
    epsilon: Fraction,
    Delta: int,
    t: int,
    max_attempts: int,
    seed: int,
    candidates: tuple[ExtractorGraph, ...] = (),
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> SearchResult:
    """Seeded rejection sampling: draw tables until one verifies as balanced.

    Every prefix parameter k in 1..n is checked exactly; the t-prefix graph
    must additionally meet the min-degree bound.  Candidates, if given, are
    tried before any sampled attempt.  Deterministic given (seed, parameters).
    """
    epsilon = Fraction(epsilon)
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed {seed} outside [0, 2^64)")
    if not 0 <= max_attempts <= MAX_ATTEMPTS:
        raise ParameterError(
            f"max_attempts must lie in 0..2^32 so attempt keys stay distinct, got {max_attempts}"
        )
    records: list[AttemptRecord] = []
    plan = chain(
        ((g, None) for g in candidates),
        ((None, attempt_seed(seed, i)) for i in range(max_attempts)),
    )
    k_lo = max(1, (n - m) + 1)  # prefix views need k - a >= 1
    for index, (graph, g_seed) in enumerate(plan):
        if graph is None:
            graph = sample_table(n, d, m, g_seed)
        record = AttemptRecord(index=index, seed=g_seed)
        records.append(record)
        reports = [verify_min_degree(graph, t, Delta)]
        record.min_degree = reports[0].min_degree
        ok = reports[0].passed
        for k in range(k_lo, n + 1):
            rep = verify_extractor_exact(graph, k, epsilon, max_subsets=max_subsets)
            reports.append(rep)
            record.worst_by_k[k] = rep.worst_deviation
            ok = ok and rep.passed
        if ok:
            record.passed = True
            return SearchResult(graph, index, g_seed, reports, records)
    raise BalancedSearchError(
        f"no balanced graph found in {len(candidates) + max_attempts} attempts "
        f"(n={n} d={d} m={m} epsilon={epsilon} Delta={Delta} t={t})",
        records,
    )


def newman_shepp_bound(p: int, h: int) -> float:
    """Two leading terms p*ln(p) + (h-1)*p*ln(ln(p)) of the coupon-collector mean.

    This is the Newman-Shepp asymptotic for the expected number of draws until
    each of p types has been drawn h times, in natural logarithms.  The next
    term is of order p (Erdos-Renyi: p*(gamma - ln((h-1)!))), so at finite p the
    value is neither an upper nor a lower bound on the mean: at p=64, h=4 it is
    539.8 against an exact expectation of 652.3, at p=100, h=30 it is 4889.3
    against 4555.1.
    """
    if p < 3:
        raise ParameterError(f"bound needs p >= 3 so that ln(ln(p)) > 0, got p={p}")
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    return p * math.log(p) + (h - 1) * p * math.log(math.log(p))
