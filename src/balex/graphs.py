"""Bipartite left-regular graphs represented as total functions.

A graph on left side {0,1}^n with left degree D = 2^d maps every pair
(x, y) of a left node and an edge label to one right node of m bits; multi
edges are implicit (two labels mapping to the same right node).  Prefix
views truncate right labels to ``k - a`` bits, where ``a = n - m`` may be
negative; left degrees never change under truncation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitstrings import check_bits, json_object
from .errors import BackendError, CapacityError, FormatError, ParameterError
from .exact import frac_sqrt

MAX_TABLE_BITS = 26   # largest n + d for explicit tables / full dumps
MAX_RIGHT_BITS = 28   # largest k - a for exhaustive right-side enumeration

BGEX_MAGIC = b"BGEX"
BGEX_VERSION = 1
_BACKEND_TABLE = 0
_BACKEND_LINEAR = 1


def _entry_dtype(m: int):
    if m <= 8:
        return np.uint8
    if m <= 16:
        return np.uint16
    if m <= 32:
        return np.uint32
    return np.uint64


class TableBackend:
    """Explicit table of every right endpoint, indexed by ``(x << d) | y``."""

    kind = "table"

    def __init__(self, n: int, d: int, m: int, table: np.ndarray):
        if n + d > MAX_TABLE_BITS:
            raise CapacityError(
                f"table with n+d={n + d} bits exceeds the {MAX_TABLE_BITS}-bit budget"
            )
        expected = 1 << (n + d)
        if table.ndim != 1 or table.size != expected:
            raise FormatError(f"table must hold {expected} entries, got {table.size}")
        if table.dtype.kind != "u" or (m < 64 and int(table.max()) >> m):
            raise FormatError(f"table entries must be unsigned integers of at most m={m} bits")
        table.setflags(write=False)
        self.n = n
        self.d = d
        self.m = m
        self.table = table

    def eval(self, x: int, y: int) -> int:
        return int(self.table[(x << self.d) | y])

    def rows(self, m_k: int, members=None) -> np.ndarray:
        """Images truncated to m_k bits, one row per left node (all, or the members)."""
        rows = self.table.reshape(1 << self.n, 1 << self.d)
        if members is not None:
            rows = rows[members]
        return rows >> self.table.dtype.type(self.m - m_k)  # stays in the table's unsigned dtype

    def degree_counts(self, m_k: int) -> np.ndarray:
        return np.bincount(self.rows(m_k).ravel(), minlength=1 << m_k)

    def right_degree(self, m_k: int, z: int) -> int:
        return int(np.count_nonzero(self.rows(m_k) == z))

    def blocks(self, m_k: int, pairs, Delta: int) -> list[tuple[list[int], bool]]:
        """Canonical block and padded flag per (edge label, right node) pair.

        A block is the first Delta distinct left neighbors of the right node
        over every edge label, ascending, repeated cyclically when fewer
        exist.  All wanted right nodes are found in one pass over the table:
        they are marked in a 2^m_k flag array, and only the hits are sorted
        by right node.  A single right node, or a right side with more nodes
        than the table has entries, is found by comparing instead.
        """
        pairs = list(pairs)
        pref = self.rows(m_k).ravel()
        wanted = sorted({p for _, p in pairs})
        if len(wanted) == 1 or m_k > self.n + self.d:
            neighbors = {p: np.unique(np.flatnonzero(pref == p) >> self.d) for p in wanted}
        else:
            mark = np.zeros(1 << m_k, dtype=bool)
            mark[wanted] = True
            hits = np.flatnonzero(mark[pref])
            labels = pref[hits]
            order = np.argsort(labels, kind="stable")
            hits >>= self.d  # in place: a hit-sized temporary here raised the peak RSS
            xs, labels = hits[order], labels[order]
            # each right node's left neighbors now ascend; keep the first of each run
            first = np.ones(xs.size, dtype=bool)
            first[1:] = (xs[1:] != xs[:-1]) | (labels[1:] != labels[:-1])
            xs, labels = xs[first], labels[first]
            cuts = np.searchsorted(labels, np.array(wanted[1:], dtype=labels.dtype))
            neighbors = dict(zip(wanted, np.split(xs, cuts)))
        out = []
        for _, p in pairs:
            xs = neighbors[p]
            out.append((xs[np.arange(Delta) % xs.size].tolist(), xs.size < Delta))
        return out

    def payload(self) -> bytes:
        raw = np.empty((self.table.size, (self.m + 7) // 8), dtype=np.uint8)
        for i in range(raw.shape[1]):
            raw[:, i] = self.table >> 8 * i  # assignment keeps the low byte
        return bytes([_BACKEND_TABLE]) + raw.tobytes()


class ExtractorGraph:
    """Total function {0,1}^n x {0,1}^d -> {0,1}^m with a table or linear backend.

    Both backends answer the same calls (``eval``, ``rows``,
    ``degree_counts``, ``right_degree``, ``blocks``, ``payload``); every
    right-side argument is a prefix length ``m_k`` and results are truncated
    to it.
    """

    def __init__(self, n: int, d: int, m: int, *, table=None, family=None):
        if n < 1 or d < 0 or m < 1:
            raise ParameterError(f"bad dimensions n={n} d={d} m={m}")
        if (table is None) == (family is None):
            raise ParameterError("exactly one of table/family must be given")
        if family is not None and family.m != m:
            raise ParameterError(f"family produces {family.m}-bit outputs, graph wants {m}")
        self.n = n
        self.d = d
        self.m = m
        self.backend = family if table is None else TableBackend(n, d, m, table)

    @property
    def a(self) -> int:
        return self.n - self.m

    @property
    def degree(self) -> int:
        return 1 << self.d

    @property
    def backend_kind(self) -> str:
        return self.backend.kind

    @property
    def table(self) -> np.ndarray:
        if not isinstance(self.backend, TableBackend):
            raise BackendError("graph has a linear backend, no explicit table")
        return self.backend.table

    @property
    def family(self):
        if isinstance(self.backend, TableBackend):
            raise BackendError("graph has a table backend, no linear family")
        return self.backend

    def ext_eval(self, x: int, y: int) -> int:
        """Right endpoint of the y-labeled edge out of x."""
        check_bits(x, self.n, "left node")
        check_bits(y, self.d, "edge label")
        return self.backend.eval(x, y)

    def prefix_view(self, k: int) -> "PrefixView":
        return PrefixView(self, k)

    def __repr__(self) -> str:
        return (
            f"ExtractorGraph(n={self.n}, d={self.d}, m={self.m}, "
            f"backend={self.backend_kind})"
        )


class PrefixView:
    """The graph with right labels truncated to ``k - a`` bits (borrowed, not copied)."""

    def __init__(self, graph: ExtractorGraph, k: int):
        if not 1 <= k <= graph.n:
            raise ParameterError(f"prefix parameter k={k} outside 1..{graph.n}")
        if k - graph.a < 1:
            raise ParameterError(f"k - a = {k - graph.a} < 1; no right bits would remain")
        self.graph = graph
        self.k = k
        self.m_k = k - graph.a

    @property
    def r_size(self) -> int:
        return 1 << self.m_k

    def ext_eval(self, x: int, y: int) -> int:
        return self.graph.ext_eval(x, y) >> (self.graph.m - self.m_k)

    def neighbors(self, x: int) -> list[int]:
        """Neighbor multiset of x, one entry per edge label in increasing label order."""
        check_bits(x, self.graph.n, "left node")
        g = self.graph
        return [g.backend.eval(x, y) >> (g.m - self.m_k) for y in range(g.degree)]

    def right_degree(self, z: int) -> int:
        """Number of (x, y) pairs whose truncated image is z."""
        check_bits(z, self.m_k, "right node")
        return self.graph.backend.right_degree(self.m_k, z)

    def check_right_budget(self) -> None:
        """Refuse a right side too large to tally node by node."""
        if self.m_k > MAX_RIGHT_BITS:
            raise CapacityError(
                f"right side of 2^{self.m_k} nodes exceeds the 2^{MAX_RIGHT_BITS} budget"
            )

    def degree_counts(self) -> np.ndarray:
        """Right-degree histogram indexed by right label; exhaustive."""
        self.check_right_budget()
        return self.graph.backend.degree_counts(self.m_k)

    def prefixed_rows(self) -> np.ndarray:
        """(2^n, D) array of truncated images; the hot-loop input layout."""
        g = self.graph
        if g.n + g.d > MAX_TABLE_BITS:
            raise CapacityError(
                f"materializing 2^{g.n + g.d} edges exceeds the {MAX_TABLE_BITS}-bit budget"
            )
        return g.backend.rows(self.m_k)

    def member_rows(self, members) -> np.ndarray:
        """(len(members), D) array of truncated images for selected left nodes.

        ``members`` is a sequence of left nodes; Python ints reach n = 64.
        """
        return self.graph.backend.rows(self.m_k, members)


@dataclass(frozen=True)
class BalanceParams:
    """Congestion parameters: error epsilon, block size Delta, threshold t.

    ``delta = sqrt(epsilon)`` is kept symbolic; whenever a decision compares
    against delta the comparison is squared so it stays exact even when
    epsilon is not a perfect square.
    """

    epsilon: Fraction
    Delta: int
    t: int

    def __post_init__(self) -> None:
        eps = Fraction(self.epsilon)
        if not 0 < eps < 1:
            raise ParameterError(f"epsilon must lie in (0,1), got {eps}")
        object.__setattr__(self, "epsilon", eps)
        if self.Delta < 1:
            raise ParameterError(f"Delta must be positive, got {self.Delta}")
        if self.t < 1:
            raise ParameterError(f"t must be >= 1, got {self.t}")

    @property
    def delta_exact(self) -> Fraction | None:
        return frac_sqrt(self.epsilon)

    def list_size(self, degree: int) -> int:
        return degree * self.Delta

    def check_with_graph(self, graph: ExtractorGraph) -> None:
        if self.t > graph.n:
            raise ParameterError(f"t={self.t} exceeds n={graph.n}")
        if self.t - graph.a < 1:
            raise ParameterError(f"t - a = {self.t - graph.a} < 1")

    def to_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "delta": "sqrt(%s)" % self.epsilon if self.delta_exact is None else str(self.delta_exact),
            "Delta": self.Delta,
            "t": self.t,
        }


def serialize(graph: ExtractorGraph) -> bytes:
    """Binary graph format; see the README for the normative layout."""
    head = BGEX_MAGIC + struct.pack(
        "<HIII", BGEX_VERSION, graph.n, graph.d, graph.m
    )
    return head + graph.backend.payload()


def deserialize(data: bytes) -> ExtractorGraph:
    if len(data) < 19 or data[:4] != BGEX_MAGIC:
        raise FormatError("not a BGEX graph file (bad magic)")
    version, n, d, m = struct.unpack_from("<HIII", data, 4)
    if version != BGEX_VERSION:
        raise FormatError(f"unsupported BGEX version {version}")
    tag = data[18]
    payload = data[19:]
    if tag == _BACKEND_TABLE:
        if not 1 <= m <= 64:
            raise FormatError(f"table entries of m={m} bits outside 1..64")
        if n + d > MAX_TABLE_BITS:
            raise CapacityError(f"table with n+d={n + d} bits exceeds the budget")
        entry_bytes = (m + 7) // 8
        expected = (1 << (n + d)) * entry_bytes
        if len(payload) != expected:
            raise FormatError(
                f"table payload must be {expected} bytes, got {len(payload)}"
            )
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, entry_bytes)
        values = np.zeros(raw.shape[0], dtype=_entry_dtype(m))
        for i in range(entry_bytes):
            values |= raw[:, i].astype(values.dtype) << 8 * i
        return ExtractorGraph(n, d, m, table=values)
    if tag == _BACKEND_LINEAR:
        if not (1 <= n <= 64 and 1 <= m <= 64):
            raise FormatError(f"linear graph of n={n}, m={m} bits outside 1..64")
        if len(payload) < 4:
            raise FormatError("truncated linear descriptor")
        (desc_len,) = struct.unpack_from("<I", payload, 0)
        body = payload[4:]
        if len(body) != desc_len:
            raise FormatError(
                f"descriptor length field says {desc_len}, payload has {len(body)} bytes"
            )
        from .lineargraph import family_from_descriptor

        family = family_from_descriptor(json_object(body, "linear descriptor"), n=n, d=d)
        if family.m != m:
            raise FormatError(f"descriptor produces {family.m}-bit outputs, header says m={m}")
        return ExtractorGraph(n, d, m, family=family)
    raise FormatError(f"unknown backend tag {tag}")


def save_graph(graph: ExtractorGraph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(graph))


def load_graph(path) -> ExtractorGraph:
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def graph_digest(graph: ExtractorGraph) -> str:
    return "sha256:" + hashlib.sha256(serialize(graph)).hexdigest()
