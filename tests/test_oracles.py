import functools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balex
from balex.errors import (
    BalexError,
    CapacityError,
    FormatError,
    InvariantError,
    OracleRefusalError,
    ParameterError,
)
from balex.oracles import (
    DEFAULT_STEP_BUDGET,
    BSet,
    enumerate_toy_outputs,
    lz_dictionary_cost,
    lz_dictionary_costs,
    run_toy_program,
    toy_complexity,
)


from lz_oracle import lz_cost
from toy_machine_alt import alt_enumerate as _alt_enumerate


# --- toy machine -----------------------------------------------------------------


def test_specific_programs():
    # PUSH0 OUT -> "0"
    assert run_toy_program(0b000100, 6, 100) == (0, 1)
    # PUSH1 OUT -> "1"
    assert run_toy_program(0b001100, 6, 100) == (1, 1)
    # PUSH1 DUP OUT OUT -> "11"
    assert run_toy_program(0b001010100100, 12, 100) == (0b11, 2)
    # OUT on empty stack aborts
    assert run_toy_program(0b100, 3, 100) is None
    # unbalanced LOOP aborts
    assert run_toy_program(0b101, 3, 100) is None
    # PUSH1 LOOP END never terminates: budget abort
    assert run_toy_program(0b001101110, 9, 1000) is None
    # PUSH1 LOOP DROP END drains the stack and exits the loop
    assert run_toy_program(0b001101011110, 12, 1000) == (0, 0)
    # HALT stops before later opcodes run
    assert run_toy_program(0b111100, 6, 100) == (0, 0)
    # trailing bits beyond the last full opcode are ignored
    assert run_toy_program(0b000100_11, 8, 100) == (0, 1)


def test_empty_output_complexity_is_one():
    # the 1-bit program has no full opcode: implicit halt, empty output
    assert toy_complexity(0, 0, 12, DEFAULT_STEP_BUDGET) == 1
    assert _alt_enumerate(4, 100)[(0, 0)] == 1


def test_single_bit_complexities():
    assert toy_complexity(0, 1, 12, DEFAULT_STEP_BUDGET) == 6  # PUSH0 OUT
    assert toy_complexity(1, 1, 12, DEFAULT_STEP_BUDGET) == 6  # PUSH1 OUT


def test_unreachable_output_is_infinite():
    assert toy_complexity(0b1010, 4, 12, DEFAULT_STEP_BUDGET) == math.inf


def test_monotone_in_caps():
    values = []
    for cap in (6, 9, 12):
        values.append(toy_complexity(0b11, 2, cap, DEFAULT_STEP_BUDGET))
    assert values[0] >= values[1] >= values[2]
    for budget in (10, 100, 10_000):
        assert toy_complexity(1, 1, 12, budget) >= toy_complexity(1, 1, 12, 10_000)


def test_caps_capacity_errors():
    with pytest.raises(CapacityError):
        toy_complexity(0, 1, 30, 100)
    with pytest.raises(CapacityError):
        toy_complexity(0, 1, 10, 10**9)


def test_program_counting_discipline():
    table = enumerate_toy_outputs(12, DEFAULT_STEP_BUDGET)
    for k in range(1, 13):
        reachable = sum(1 for length in table.values() if length <= k)
        assert reachable <= (1 << (k + 1)) - 2


def test_two_enumerators_agree_exactly():
    # every output of length <= 8 at caps (12, 1e4), as one exact dict equality
    ours = enumerate_toy_outputs(12, DEFAULT_STEP_BUDGET)
    theirs = _alt_enumerate(12, DEFAULT_STEP_BUDGET)
    assert {k: v for k, v in ours.items() if k[0] <= 8} == {
        k: v for k, v in theirs.items() if k[0] <= 8
    }


# --- b-sets -----------------------------------------------------------------------


def test_toy_bset_matches_independent_enumeration():
    oracle = balex.ToyMachineOracle(program_length_cap=12, step_budget=DEFAULT_STEP_BUDGET)
    theirs = _alt_enumerate(12, DEFAULT_STEP_BUDGET)
    for n in (1, 2, 8):
        for k in (6, 9, 12):
            b = balex.bset(n, k, oracle)
            expected = {
                value for (out_n, value), length in theirs.items()
                if out_n == n and length <= k
            }
            assert b.members == frozenset(expected)


def test_bset_empty_when_no_program_halts():
    oracle = balex.ToyMachineOracle(program_length_cap=12)
    b = balex.bset(8, 3, oracle)
    assert b.members == frozenset()
    assert b.s is None


def test_bset_monotone_in_k():
    oracle = balex.ToyMachineOracle(program_length_cap=12)
    for n in (1, 2):
        previous = frozenset()
        for k in range(1, 13):
            current = balex.bset(n, k, oracle).members
            assert previous <= current
            previous = current


def test_bset_capacity():
    oracle = balex.ToyMachineOracle(program_length_cap=12)
    with pytest.raises(CapacityError):
        balex.bset(25, 6, oracle)


def test_bset_records_source_and_caps():
    oracle = balex.ToyMachineOracle(program_length_cap=12, step_budget=500)
    b = balex.bset(2, 12, oracle)
    assert b.source == "toy"
    assert b.caps == {"program_length_cap": 12, "step_budget": 500}


# --- explicit oracle ---------------------------------------------------------------


def test_explicit_oracle_passthrough():
    oracle = balex.explicit_oracle({(4, 2): {0b0000, 0b1111}})
    assert balex.bset(4, 2, oracle).members == {0b0000, 0b1111}
    assert oracle.complexity(0b0000, 4) == 2
    assert oracle.complexity(0b0001, 4) == math.inf


def test_explicit_oracle_counting_rejection():
    with pytest.raises(InvariantError):
        balex.explicit_oracle({(4, 1): set(range(4))})  # 4 >= 2^2


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_negative_level_refused_by_every_counting_check(k):
    with pytest.raises(ParameterError, match=f"k={k} must be >= 0"):
        balex.explicit_oracle({(4, k): set()})
    for oracle in (balex.compressor_oracle(), balex.ToyMachineOracle(program_length_cap=6)):
        with pytest.raises(ParameterError):
            balex.bset(4, k, oracle)
    with pytest.raises(ParameterError):
        balex.compressor_oracle().members(4, k)


def test_explicit_oracle_downward_closure_config():
    good = {(4, 2): {1, 2}, (4, 3): {1, 2, 3}}
    balex.explicit_oracle(good, require_monotone=True)
    bad = {(4, 2): {1, 2}, (4, 3): {3}}
    balex.explicit_oracle(bad)  # fine without the config
    with pytest.raises(InvariantError):
        balex.explicit_oracle(bad, require_monotone=True)


# --- compressor proxy ----------------------------------------------------------------


def test_compressor_deterministic():
    oracle = balex.compressor_oracle()
    assert oracle.complexity(0b1011_0110, 8) == oracle.complexity(0b1011_0110, 8)


def test_compressor_all_zeros_beats_length_eventually():
    costs = {n: lz_dictionary_cost(0, n) for n in (8, 16, 64, 128)}
    # the scheme has fixed overhead at small n but wins clearly later
    assert costs[64] < 64
    assert costs[128] < 128
    assert costs[64] == 39  # frozen from the documented scheme


def test_compressor_counting_bound_holds_adaptively():
    # the adaptive-width encoding is decodable, so the bound is a theorem
    oracle = balex.compressor_oracle()
    for n in (4, 8, 10):
        for k in range(0, 2 * n):
            members = oracle.members(n, k)
            assert len(members) < 1 << (k + 1)


def test_compressor_refusal_with_fixed_width():
    # 1-bit flat indices undercount wildly: sweeping k downward must refuse
    oracle = balex.compressor_oracle(fixed_index_bits=1)
    refused_at = None
    for k in range(12, 0, -1):
        try:
            oracle.members(7, k)
        except OracleRefusalError:
            refused_at = k
            break
    assert refused_at is not None
    b = balex.compressor_oracle(fixed_index_bits=1)
    with pytest.raises(OracleRefusalError):
        balex.bset(7, refused_at, b)


# --- compressor walk against the per-string parse (tests/lz_oracle.py) --------------


@pytest.mark.parametrize("fixed_index_bits", [None, 1, 2, 3])
def test_compressor_walk_matches_per_string_parse(fixed_index_bits):
    for n in range(1, 13):
        want = [lz_cost(x, n, fixed_index_bits) for x in range(1 << n)]
        assert lz_dictionary_costs(n, fixed_index_bits) == want
        assert [lz_dictionary_cost(x, n, fixed_index_bits) for x in range(1 << n)] == want


def test_compressor_members_every_k_at_n14():
    n = 14
    costs = [lz_cost(x, n) for x in range(1 << n)]
    oracle = balex.compressor_oracle()
    for k in range(max(costs) + 2):
        assert oracle.members(n, k) == {x for x, cost in enumerate(costs) if cost <= k}


def test_compressor_fixed_width_refusals_match_per_string_parse():
    oracle = balex.compressor_oracle(fixed_index_bits=1)
    refusals = 0
    for n in range(1, 11):
        costs = [lz_cost(x, n, 1) for x in range(1 << n)]
        for k in range(max(costs) + 2):
            want = {x for x, cost in enumerate(costs) if cost <= k}
            if len(want) >= 1 << (k + 1):
                refusals += 1
                with pytest.raises(OracleRefusalError):
                    oracle.members(n, k)
            else:
                assert oracle.members(n, k) == want
    assert refusals


# --- the walk that stops at prefixes over k, against the per-string parse ----------


@functools.lru_cache(maxsize=None)
def _per_string_costs(n, fixed_index_bits):
    return tuple(lz_cost(x, n, fixed_index_bits) for x in range(1 << n))


def _members_or_refusal(oracle, n, k):
    try:
        return oracle.members(n, k)
    except OracleRefusalError:
        return "refused"


def _filter_or_refusal(costs, k):
    want = frozenset(x for x, cost in enumerate(costs) if cost <= k)
    return "refused" if len(want) >= 1 << (k + 1) else want


@pytest.mark.parametrize("fixed_index_bits", [1, 2, 3])
def test_compressor_fixed_width_members_at_n14_match_per_string_parse(fixed_index_bits):
    n = 14
    costs = _per_string_costs(n, fixed_index_bits)
    oracle = balex.compressor_oracle(fixed_index_bits=fixed_index_bits)
    outcomes = [_members_or_refusal(oracle, n, k) for k in range(max(costs) + 2)]
    assert outcomes == [_filter_or_refusal(costs, k) for k in range(max(costs) + 2)]
    # only 1-bit indices undercount enough at n=14 to break the counting bound
    assert ("refused" in outcomes) == (fixed_index_bits == 1)
    assert any(outcome != "refused" and outcome for outcome in outcomes)


def test_compressor_members_at_n18_match_full_walk_at_lowest_levels():
    n = 18
    costs = lz_dictionary_costs(n)
    oracle = balex.compressor_oracle()
    for k in sorted(set(costs))[:3]:
        want = frozenset(x for x, cost in enumerate(costs) if cost <= k)
        assert want and oracle.members(n, k) == want


@given(
    n=st.integers(1, 12),
    k_share=st.fractions(0, 1),
    fixed_index_bits=st.one_of(st.none(), st.integers(0, 4)),
)
def test_compressor_members_match_per_string_filter_or_refuse(n, k_share, fixed_index_bits):
    k = math.floor(k_share * 3 * n)
    oracle = balex.compressor_oracle(fixed_index_bits=fixed_index_bits)
    want = _filter_or_refusal(_per_string_costs(n, fixed_index_bits), k)
    assert _members_or_refusal(oracle, n, k) == want


@pytest.mark.parametrize("call", [
    lambda: balex.compressor_oracle(fixed_index_bits=-1).members(4, 3),
    lambda: lz_dictionary_costs(4, -1),
    lambda: lz_dictionary_cost(5, 4, -2),
])
def test_compressor_refuses_negative_index_width(call):
    # a negative width would make costs fall as bits are added
    with pytest.raises(ParameterError, match="index width"):
        call()


def test_compressor_capacity():
    with pytest.raises(CapacityError):
        balex.compressor_oracle(max_n=10).members(11, 5)


# --- b-set files ------------------------------------------------------------------


def test_bset_file_round_trip(tmp_path):
    oracle = balex.ToyMachineOracle(program_length_cap=12)
    b = balex.bset(2, 12, oracle)
    path = tmp_path / "b.bset"
    balex.save_bset(b, path)
    loaded = balex.load_bset(path)
    assert loaded == b


def test_explicit_bset_wrapper():
    b = balex.oracles.explicit_bset(4, 2, {0, 15})
    assert b.source == "explicit"
    assert b.s == 1


@pytest.mark.parametrize("content", [
    b"[1]\n0\n",                       # header not an object
    b'{"n": "4", "k": 2}\n0\n',         # n not an integer
    b'{"n": 4, "k": 2.5}\n',
    b'{"n": true, "k": 1}\n',
    b'{"k": 1}\n',
    b'{"n": 0, "k": 1}\n',               # n outside 1..64
    b'{"n": 65, "k": 1}\n',
    b'{"n": 4, "k": 1}\n\xff\xfe\n',      # not UTF-8
    b"{not json\n",
    b"",
])
def test_load_bset_refuses_malformed_header(tmp_path, content):
    path = tmp_path / "b.bset"
    path.write_bytes(content)
    with pytest.raises(FormatError):
        balex.load_bset(path)


def _bset_file_bytes():
    """Mostly a valid header with hex members, each part sometimes garbage; or raw bytes."""
    value = st.one_of(
        st.integers(-2, 70), st.integers(), st.text(max_size=3), st.none(), st.booleans(),
        st.floats(allow_nan=False), st.lists(st.integers(0, 3), max_size=2),
    )
    valid = st.fixed_dictionaries({"n": st.integers(1, 10), "k": st.integers(0, 9)})
    header = st.one_of(
        valid, valid, st.fixed_dictionaries({"n": value, "k": value}), value,
    ).map(json.dumps).map(str.encode)
    hex_line = st.integers(0, 1023).map(lambda v: f"{v:x}".encode())
    line = st.one_of(hex_line, hex_line, st.binary(max_size=4))
    structured = st.tuples(header, st.lists(line, max_size=4)).map(
        lambda t: b"\n".join([t[0], *t[1]]))
    return st.one_of(structured, structured, st.binary(max_size=60))


@settings(max_examples=100)
@given(data=_bset_file_bytes())
def test_load_bset_bytes_give_bset_or_balex_error(data):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "b.bset"
        path.write_bytes(data)
        try:
            b = balex.load_bset(path)
        except BalexError:
            return
    assert isinstance(b, BSet) and 1 <= b.n <= 64
    assert all(0 <= x < 1 << b.n for x in b.members)
