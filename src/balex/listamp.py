"""Congestion analysis and the two-step list amplifier.

Given a left set B the right nodes split into light and heavy by their
B-restricted degree against the exact threshold ``(1/eps) * |B| * D / |R|``;
a member of B is bad when at least a ``sqrt(eps)`` fraction of its edges land
on heavy nodes (edge multiplicities count).  The amplifier maps an input x to
the multiset union, over x's neighbor multiset at prefix parameter t, of the
first Delta canonical left-neighbors of each neighbor; the list always has
exactly ``D * Delta`` entries.

All classification thresholds involving ``delta = sqrt(eps)`` are decided by
squaring, so decisions stay exact for every rational eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .bitstrings import check_bits, read_hex_file, sorted_bits, to_hex, write_hex_file
from .errors import IndexRangeError, InvariantError, ParameterError
from .exact import ceil_scaled_sqrt, le_scaled_sqrt
from .graphs import BalanceParams, ExtractorGraph, PrefixView


def light_threshold(epsilon: Fraction, b_size: int, degree: int, r_size: int) -> Fraction:
    """Exact light/heavy cutoff (1/eps) * b_size * degree / r_size."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0 or b_size <= 0 or degree <= 0 or r_size <= 0:
        raise ParameterError("light_threshold needs positive arguments")
    return Fraction(b_size * degree, r_size) / epsilon


def bad_bound_ok(bad_count: int, b_size: int, epsilon: Fraction) -> bool:
    """Whether bad_count <= 2 * sqrt(eps) * b_size, exactly."""
    return le_scaled_sqrt(Fraction(bad_count), Fraction(2 * b_size), Fraction(epsilon))


def survival_ok(fraction: Fraction, epsilon: Fraction) -> bool:
    """Whether fraction >= 1 - 2 * sqrt(eps), exactly (fraction in [0,1])."""
    return le_scaled_sqrt(1 - Fraction(fraction), Fraction(2), Fraction(epsilon))


def _classify(
    view: PrefixView, members: list[int], epsilon: Fraction
) -> tuple[np.ndarray, np.ndarray, Fraction]:
    """Member rows of a non-empty, checked B, the heavy flag of every right
    node, and the light threshold that decided the flags.

    The right side is tallied node by node, so it must fit the right-side
    budget.  Counts are integers, so a count exceeds the threshold exactly
    when it exceeds the threshold's floor: one integer comparison per node.
    The counting consequence |heavy| <= eps * |R| is asserted; its failure
    would mean a tallying bug, not bad input.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    view.check_right_budget()
    rows = view.member_rows(members)
    threshold = light_threshold(epsilon, len(members), view.graph.degree, view.r_size)
    counts = np.bincount(rows.ravel(), minlength=view.r_size)
    is_heavy = counts > threshold.numerator // threshold.denominator
    heavy_size = int(np.count_nonzero(is_heavy))
    if heavy_size > epsilon * view.r_size:
        raise InvariantError(
            f"heavy set of size {heavy_size} exceeds eps*|R| = {epsilon * view.r_size}"
        )
    return rows, is_heavy, threshold


def _heavy_nodes(is_heavy: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(is_heavy).tolist())


def _bad(
    members: list[int], rows: np.ndarray, is_heavy: np.ndarray, epsilon: Fraction
) -> frozenset[int]:
    """Members whose heavy hits reach sqrt(eps) * D, counted by one flag lookup per edge.

    Hits are integers, so hits >= D * sqrt(eps) exactly when hits >= g, the
    least such integer; g is found once, exactly, by ``ceil_scaled_sqrt``.
    """
    g = ceil_scaled_sqrt(rows.shape[1], epsilon)
    bad = is_heavy[rows].sum(axis=1) >= g
    return frozenset(compress(members, bad.tolist()))


def classify_heavy(view: PrefixView, B, epsilon: Fraction) -> frozenset[int]:
    """Right nodes whose B-restricted degree exceeds the light threshold."""
    members = sorted_bits(B, view.graph.n, "member of B")
    if not members:
        return frozenset()
    return _heavy_nodes(_classify(view, members, epsilon)[1])


def bad_set(view: PrefixView, B, epsilon: Fraction) -> frozenset[int]:
    """Members of B with at least a sqrt(eps) fraction of their edges on heavy nodes."""
    members = sorted_bits(B, view.graph.n, "member of B")
    if not members:
        return frozenset()
    epsilon = Fraction(epsilon)
    rows, is_heavy, _ = _classify(view, members, epsilon)
    return _bad(members, rows, is_heavy, epsilon)


@dataclass
class CongestionReport:
    """Light/heavy/bad classification of one B at its own prefix parameter."""

    n: int
    right_bits: int
    b_size: int
    s: int
    epsilon: Fraction
    threshold: Fraction
    heavy_set: frozenset[int]
    bad_set: frozenset[int]

    @property
    def bad_fraction(self) -> Fraction:
        return Fraction(len(self.bad_set), self.b_size)

    @property
    def bound_ok(self) -> bool:
        return bad_bound_ok(len(self.bad_set), self.b_size, self.epsilon)

    def to_dict(self) -> dict:
        return {
            "b_size": self.b_size,
            "s": self.s,
            "epsilon": str(self.epsilon),
            "threshold": str(self.threshold),
            "heavy_size": len(self.heavy_set),
            "heavy_set": sorted(to_hex(z, self.right_bits) for z in self.heavy_set),
            "bad_size": len(self.bad_set),
            "bad_set": sorted(to_hex(x, self.n) for x in self.bad_set),
            "bad_fraction": str(self.bad_fraction),
            "pass": self.bound_ok,
        }


def congestion_report(
    graph: ExtractorGraph, B, epsilon: Fraction, t: int
) -> CongestionReport:
    """Classify B in the prefix graph at s = floor(log2 |B|); requires s <= t."""
    members = sorted_bits(B, graph.n, "member of B")
    if not members:
        raise ParameterError("congestion analysis needs a non-empty B")
    s = len(members).bit_length() - 1
    if s > t:
        raise ParameterError(
            f"floor(log2 |B|) = {s} exceeds the threshold t = {t}; "
            "the classification precondition fails"
        )
    view = graph.prefix_view(s)
    epsilon = Fraction(epsilon)
    rows, is_heavy, threshold = _classify(view, members, epsilon)
    return CongestionReport(
        n=graph.n,
        right_bits=view.m_k,
        b_size=len(members),
        s=s,
        epsilon=epsilon,
        threshold=threshold,
        heavy_set=_heavy_nodes(is_heavy),
        bad_set=_bad(members, rows, is_heavy, epsilon),
    )


@dataclass(frozen=True)
class AmplifiedList:
    """Output multiset of the two-step amplifier, segment per edge label."""

    x: int
    n: int
    degree: int
    Delta: int
    t: int
    elements: tuple[int, ...]
    segment_labels: tuple[int, ...]
    padded_labels: tuple[int, ...]

    def block(self, y: int) -> tuple[int, ...]:
        if not 0 <= y < self.degree:
            raise IndexRangeError(f"edge label {y} outside 0..{self.degree - 1}")
        return self.elements[y * self.Delta : (y + 1) * self.Delta]

    @property
    def padded(self) -> bool:
        return bool(self.padded_labels)

    def __len__(self) -> int:
        return len(self.elements)


def amplify(graph: ExtractorGraph, params: BalanceParams, x: int) -> AmplifiedList:
    """Two-step list: all neighbors of x at prefix t, then the first Delta
    canonical left-neighbors of each (cyclically padded and flagged if a
    right node has fewer than Delta; impossible on degree-verified graphs)."""
    params.check_with_graph(graph)
    check_bits(x, graph.n, "input")
    view = graph.prefix_view(params.t)
    labels = view.neighbors(x)
    blocks = graph.backend.blocks(view.m_k, enumerate(labels), params.Delta)
    return AmplifiedList(
        x=x,
        n=graph.n,
        degree=graph.degree,
        Delta=params.Delta,
        t=params.t,
        elements=tuple(e for block, _ in blocks for e in block),
        segment_labels=tuple(labels),
        padded_labels=tuple(y for y, (_, padded) in enumerate(blocks) if padded),
    )


def list_element(graph: ExtractorGraph, params: BalanceParams, x: int, i: int) -> int:
    """Element i of the amplified list without materializing it.

    Index layout is edge-label major: i = y * Delta + j.
    """
    params.check_with_graph(graph)
    check_bits(x, graph.n, "input")
    total = graph.degree * params.Delta
    if not 0 <= i < total:
        raise IndexRangeError(f"list index {i} outside 0..{total - 1}")
    y, j = divmod(i, params.Delta)
    view = graph.prefix_view(params.t)
    block, _ = graph.backend.blocks(view.m_k, [(y, view.ext_eval(x, y))], params.Delta)[0]
    return block[j]


def survival_fraction(alist: AmplifiedList, B) -> Fraction:
    """Fraction of list entries (with multiplicity) outside B."""
    members = set(B)
    outside = sum(1 for e in alist.elements if e not in members)
    return Fraction(outside, len(alist.elements))


def save_list(alist: AmplifiedList, path, graph_digest: str) -> None:
    """Newline-delimited hex with a JSON header line."""
    header = {
        "n": alist.n,
        "degree": alist.degree,
        "Delta": alist.Delta,
        "t": alist.t,
        "x": to_hex(alist.x, alist.n),
        "graph_digest": graph_digest,
        "padded_labels": list(alist.padded_labels),
    }
    write_hex_file(path, header, alist.elements, alist.n)


def load_list(path) -> tuple[dict, list[int]]:
    """Header and elements of a list file; malformed input raises a ``BalexError``."""
    return read_hex_file(path, "list file")
