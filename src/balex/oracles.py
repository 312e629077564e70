"""Pluggable complexity oracles producing explicit low-complexity sets.

True description complexity is uncomputable; every guarantee in this package
is uniform over explicit sets of bounded size, so oracles only need to hand
over such sets while respecting the program-counting discipline: for every
(n, k) the set {x in {0,1}^n : complexity(x) <= k} must have fewer than
2^(k+1) members.  Each shipped oracle either enforces that bound by
construction or verifies it and refuses the query.

Toy machine (normative semantics)
---------------------------------
A program is a bit string of length >= 1, read left to right in groups of
3 bits; 1-2 leftover bits are ignored but still count toward program length.

====  =====  =========================================================
bits  name   effect
====  =====  =========================================================
000   PUSH0  push bit 0
001   PUSH1  push bit 1
010   DUP    duplicate the top of the stack; abort if empty
011   DROP   pop the top of the stack; abort if empty
100   OUT    pop the top of the stack and append it to the output;
             abort if empty
101   LOOP   if the stack is empty or its top is 0, jump just past the
             matching END; otherwise continue (the top is not popped)
110   END    jump back to the matching LOOP (which re-tests)
111   HALT   halt; the output so far is the program's result
====  =====  =========================================================

LOOP/END must nest properly over the whole opcode sequence (static check);
an unbalanced program aborts.  Running past the last opcode is an implicit
HALT.  Every executed opcode costs one step; exceeding the step budget
aborts.  An aborted program produces no output at all.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

from .bitstrings import check_bits, read_hex_file, write_hex_file
from .errors import CapacityError, FormatError, InvariantError, OracleRefusalError, ParameterError

PUSH0, PUSH1, DUP, DROP, OUT, LOOP, END, HALT = range(8)

MAX_PROGRAM_CAP = 18
MAX_STEP_BUDGET = 10**6
DEFAULT_STEP_BUDGET = 10**4
MAX_BSET_BITS = 24

INFINITE = math.inf


def counting_bound(k: int) -> int:
    """2^(k+1): every set {x : complexity(x) <= k} has fewer members."""
    if k < 0:
        raise ParameterError(f"complexity level k={k} must be >= 0")
    return 1 << (k + 1)


def _decode_opcodes(program: int, length: int) -> list[int] | None:
    """Opcode list, or None when LOOP/END brackets do not nest."""
    ops = []
    for i in range(length // 3):
        shift = length - 3 * (i + 1)
        ops.append((program >> shift) & 0b111)
    depth = 0
    for op in ops:
        if op == LOOP:
            depth += 1
        elif op == END:
            depth -= 1
            if depth < 0:
                return None
    if depth != 0:
        return None
    return ops


def _match_brackets(ops: list[int]) -> dict[int, int]:
    match: dict[int, int] = {}
    stack: list[int] = []
    for pc, op in enumerate(ops):
        if op == LOOP:
            stack.append(pc)
        elif op == END:
            start = stack.pop()
            match[start] = pc
            match[pc] = start
    return match


def run_toy_program(program: int, length: int, step_budget: int) -> tuple[int, int] | None:
    """Execute one program; returns (output value, output length) or None on abort."""
    check_bits(program, length, "program")
    ops = _decode_opcodes(program, length)
    if ops is None:
        return None
    match = _match_brackets(ops)
    stack: list[int] = []
    out_value = 0
    out_len = 0
    pc = 0
    steps = 0
    while pc < len(ops):
        steps += 1
        if steps > step_budget:
            return None
        op = ops[pc]
        if op == PUSH0:
            stack.append(0)
        elif op == PUSH1:
            stack.append(1)
        elif op == DUP:
            if not stack:
                return None
            stack.append(stack[-1])
        elif op == DROP:
            if not stack:
                return None
            stack.pop()
        elif op == OUT:
            if not stack:
                return None
            out_value = (out_value << 1) | stack.pop()
            out_len += 1
        elif op == LOOP:
            if not stack or stack[-1] == 0:
                pc = match[pc]
        elif op == END:
            pc = match[pc] - 1
        elif op == HALT:
            return out_value, out_len
        pc += 1
    return out_value, out_len


@lru_cache(maxsize=8)
def enumerate_toy_outputs(
    program_length_cap: int, step_budget: int
) -> dict[tuple[int, int], int]:
    """Map (output length, output value) -> minimal producing program length."""
    if program_length_cap > MAX_PROGRAM_CAP:
        raise CapacityError(
            f"program cap {program_length_cap} exceeds the maximum {MAX_PROGRAM_CAP}"
        )
    if step_budget > MAX_STEP_BUDGET:
        raise CapacityError(
            f"step budget {step_budget} exceeds the maximum {MAX_STEP_BUDGET}"
        )
    best: dict[tuple[int, int], int] = {}
    for length in range(1, program_length_cap + 1):
        for program in range(1 << length):
            result = run_toy_program(program, length, step_budget)
            if result is None:
                continue
            key = (result[1], result[0])
            if key not in best:
                best[key] = length
    return best


def toy_complexity(
    value: int,
    n: int,
    program_length_cap: int = 12,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> int | float:
    """Length of the shortest toy program that halts with output exactly
    the given n-bit string within the step budget; inf when none exists.

    Monotone non-increasing in both caps.
    """
    check_bits(value, n, "target")
    table = enumerate_toy_outputs(program_length_cap, step_budget)
    return table.get((n, value), INFINITE)


class ComplexityOracle(ABC):
    """Maps n-bit strings to integer complexity values (or inf)."""

    name: str = "abstract"

    @abstractmethod
    def complexity(self, value: int, n: int) -> int | float: ...

    @abstractmethod
    def members(self, n: int, k: int) -> frozenset[int]:
        """The set {x in {0,1}^n : complexity(x) <= k}."""

    def caps_info(self) -> dict:
        return {}


class ToyMachineOracle(ComplexityOracle):
    """Complexity by exhaustive enumeration of toy-machine programs."""

    name = "toy"

    def __init__(
        self,
        program_length_cap: int = 12,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        self.program_length_cap = program_length_cap
        self.step_budget = step_budget
        # force the caps through the capacity checks eagerly
        enumerate_toy_outputs(program_length_cap, step_budget)

    def complexity(self, value: int, n: int) -> int | float:
        return toy_complexity(value, n, self.program_length_cap, self.step_budget)

    def members(self, n: int, k: int) -> frozenset[int]:
        table = enumerate_toy_outputs(self.program_length_cap, self.step_budget)
        return frozenset(
            value for (out_n, value), length in table.items()
            if out_n == n and length <= k
        )

    def caps_info(self) -> dict:
        return {
            "program_length_cap": self.program_length_cap,
            "step_budget": self.step_budget,
        }


class ExplicitOracle(ComplexityOracle):
    """Answers from an injected table; the adversarial-testing hook."""

    name = "explicit"

    def __init__(self, sets: dict[tuple[int, int], frozenset[int]]):
        self._sets = sets

    def complexity(self, value: int, n: int) -> int | float:
        ks = [k for (nn, k), mem in self._sets.items() if nn == n and value in mem]
        return min(ks) if ks else INFINITE

    def members(self, n: int, k: int) -> frozenset[int]:
        out: set[int] = set()
        for (nn, kk), mem in self._sets.items():
            if nn == n and kk <= k:
                out |= mem
        return frozenset(out)


def explicit_oracle(sets: dict, require_monotone: bool = False) -> ExplicitOracle:
    """Build an explicit oracle, rejecting tables that break the counting bound.

    With ``require_monotone`` the injected sets must also be downward closed:
    (n, k) members are a subset of (n, k') members for every injected k' > k.
    """
    checked: dict[tuple[int, int], frozenset[int]] = {}
    for (n, k), mem in sets.items():
        members = frozenset(mem)
        for x in members:
            check_bits(x, n, f"member of injected ({n},{k}) set")
        if len(members) >= counting_bound(k):
            raise InvariantError(
                f"injected set for (n={n}, k={k}) has {len(members)} members, "
                f"breaking the < 2^{k + 1} counting bound"
            )
        checked[(n, k)] = members
    if require_monotone:
        for (n, k), mem in checked.items():
            for (n2, k2), mem2 in checked.items():
                if n2 == n and k2 > k and not mem <= mem2:
                    raise InvariantError(
                        f"injected sets not downward closed: ({n},{k}) is not "
                        f"a subset of ({n},{k2})"
                    )
    return ExplicitOracle(checked)


_ROOT = 1  # the empty phrase; the phrase with bits b is the integer "1b" in binary


def _lz_step(phrases: set[int], node: int, bit: int) -> int:
    """Advance the parse by one bit from the matched phrase ``node``.

    Returns the longer match when it is a known phrase; otherwise adds it to
    ``phrases`` as a new phrase and returns ``_ROOT``.
    """
    longer = node << 1 | bit
    if longer in phrases:
        return longer
    phrases.add(longer)
    return _ROOT


def _check_index_width(fixed_index_bits: int | None) -> None:
    if fixed_index_bits is not None and fixed_index_bits < 0:
        raise ParameterError(f"fixed index width {fixed_index_bits} must be >= 0")


def _phrase_bits(number: int, fixed_index_bits: int | None, complete: bool) -> int:
    """Bits emitted for phrase ``number`` (1-based): its index, plus one
    literal bit when the phrase is complete and the index width adapts."""
    if fixed_index_bits is not None:
        return fixed_index_bits
    return (number - 1).bit_length() + complete


def lz_dictionary_cost(value: int, n: int, fixed_index_bits: int | None = None) -> int:
    """Bit cost of the incremental-dictionary parse of an n-bit string.

    The string is parsed left to right into phrases; each phrase extends the
    longest previously-seen phrase matching the upcoming bits by one bit.
    Emitting phrase number j (1-based) costs ceil(log2(j)) index bits plus
    one literal bit; a final incomplete phrase costs its index only.  With
    ``fixed_index_bits`` every phrase instead costs that flat width (a
    fixed-code dictionary coder), which can undercount and is only usable
    where the counting bound verifies.
    """
    check_bits(value, n, "input")
    _check_index_width(fixed_index_bits)
    phrases: set[int] = set()
    node, emitted, cost = _ROOT, 0, 0
    for pos in range(n):
        node = _lz_step(phrases, node, (value >> (n - 1 - pos)) & 1)
        if node == _ROOT:
            emitted += 1
            cost += _phrase_bits(emitted, fixed_index_bits, True)
    if node != _ROOT:
        cost += _phrase_bits(emitted + 1, fixed_index_bits, False)
    return cost


def _lz_walk(n: int, fixed_index_bits: int | None, ceiling: int | None, record) -> None:
    """Call ``record(value, cost)`` for every n-bit string whose
    ``lz_dictionary_cost`` is at most ``ceiling`` (every string when it is
    None), in increasing value order.

    The parse state after j bits depends only on those j bits, so one
    depth-first walk over the prefixes yields every cost: it adds each new
    phrase on the way down and removes it on the way back.  A cost never
    falls as bits are added, and a prefix shorter than n still owes at least
    the index of the phrase in progress, which a complete phrase pays too;
    so the walk skips every prefix already over ``ceiling``.
    """
    _check_index_width(fixed_index_bits)
    phrases: set[int] = set()
    # bits of phrase e + 1: complete, and as the unfinished last phrase
    complete = [_phrase_bits(e + 1, fixed_index_bits, True) for e in range(n)]
    unfinished = [_phrase_bits(e + 1, fixed_index_bits, False) for e in range(n + 1)]
    if ceiling is None:
        ceiling = sum(complete)  # n phrases paid in full: no string costs more

    def walk(prefix: int, depth: int, node: int, emitted: int, cost: int) -> None:
        floor = cost + unfinished[emitted]  # the least any longer prefix costs
        if depth == n:
            final = cost if node == _ROOT else floor
            if final <= ceiling:
                record(prefix, final)
            return
        if floor > ceiling:
            return
        for bit in (0, 1):
            nxt = _lz_step(phrases, node, bit)
            if nxt == _ROOT:
                walk(prefix << 1 | bit, depth + 1, _ROOT, emitted + 1, cost + complete[emitted])
                phrases.remove(node << 1 | bit)
            else:
                walk(prefix << 1 | bit, depth + 1, nxt, emitted, cost)

    walk(0, 0, _ROOT, 0, 0)


def lz_dictionary_costs(n: int, fixed_index_bits: int | None = None) -> list[int]:
    """``lz_dictionary_cost`` of every n-bit string, indexed by its value:
    the prefix walk with no ceiling, over all 2^(n+1) prefixes."""
    costs = [0] * (1 << n)
    _lz_walk(n, fixed_index_bits, None, costs.__setitem__)
    return costs


class CompressorOracle(ComplexityOracle):
    """Dictionary-compressed bit length as a cheap complexity proxy.

    No relation to true description complexity is claimed; the counting bound
    is verified empirically per (n, k) and the oracle refuses pairs where it
    fails (possible only with a fixed index width).  ``members(n, k)`` costs
    one walk over the prefixes of the dictionary parse that stops at every
    prefix already over k bits, for n up to ``max_n``: the fewer strings at
    or below k, the less of the full walk of ``lz_dictionary_costs`` it
    takes (see the README for n=20 timings).
    """

    name = "compressor"

    def __init__(self, fixed_index_bits: int | None = None, max_n: int = 20):
        self.fixed_index_bits = fixed_index_bits
        self.max_n = max_n

    def complexity(self, value: int, n: int) -> int | float:
        return lz_dictionary_cost(value, n, self.fixed_index_bits)

    def members(self, n: int, k: int) -> frozenset[int]:
        if n > self.max_n:
            raise CapacityError(
                f"enumerating 2^{n} strings exceeds this oracle's 2^{self.max_n} budget"
            )
        found: dict[int, int] = {}
        _lz_walk(n, self.fixed_index_bits, k, found.__setitem__)
        out = frozenset(found)
        if len(out) >= counting_bound(k):
            raise OracleRefusalError(
                f"compressor proxy puts {len(out)} strings of length {n} at or "
                f"below {k} bits, breaking the < 2^{k + 1} counting bound"
            )
        return out

    def caps_info(self) -> dict:
        return {"fixed_index_bits": self.fixed_index_bits, "max_n": self.max_n}


def compressor_oracle(
    fixed_index_bits: int | None = None, max_n: int = 20
) -> CompressorOracle:
    return CompressorOracle(fixed_index_bits=fixed_index_bits, max_n=max_n)


@dataclass(frozen=True)
class BSet:
    """Explicit stand-in for a low-complexity set of n-bit strings."""

    n: int
    k: int
    members: frozenset[int]
    source: str
    caps: dict | None = None

    @property
    def s(self) -> int | None:
        """floor(log2 |members|), None when empty."""
        return len(self.members).bit_length() - 1 if self.members else None


def bset(n: int, k: int, oracle: ComplexityOracle, max_n: int = MAX_BSET_BITS) -> BSet:
    """The exact member set {x in {0,1}^n : complexity(x) <= k}."""
    if n > max_n:
        raise CapacityError(f"n={n} exceeds the enumeration budget n<={max_n}")
    members = oracle.members(n, k)
    if len(members) >= counting_bound(k):
        raise InvariantError(
            f"oracle {oracle.name} yields {len(members)} members for (n={n}, k={k}), "
            f"breaking the < 2^{k + 1} counting bound"
        )
    return BSet(n=n, k=k, members=members, source=oracle.name, caps=oracle.caps_info())


def explicit_bset(n: int, k: int, members) -> BSet:
    """Wrap an explicit member set (no counting bound enforced)."""
    mem = frozenset(members)
    for x in mem:
        check_bits(x, n, "member")
    return BSet(n=n, k=k, members=mem, source="explicit", caps=None)


def save_bset(b: BSet, path) -> None:
    header = {"n": b.n, "k": b.k, "source": b.source, "caps": b.caps}
    write_hex_file(path, header, sorted(b.members), b.n)


def load_bset(path) -> BSet:
    """Read a B-set file.

    Undecodable bytes and a malformed header raise ``FormatError``; a member
    line that is not n-bit hex raises ``ShapeError``.
    """
    header, members = read_hex_file(path, "B-set file")
    k = header.get("k")
    if type(k) is not int:
        raise FormatError(f"B-set header in {path}: k must be an integer, got {k!r}")
    return BSet(
        n=header["n"], k=k, members=frozenset(members),
        source=header.get("source", "explicit"),
        caps=header.get("caps"),
    )
