import json
import math
from fractions import Fraction

import click
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import balex
from balex.cli import cli, main
from balex.randgraph import DEFAULT_MAX_SUBSETS


def run_cli(*args):
    return main([str(a) for a in args])


BUILD_ARGS = (
    "build-random", "--n", 4, "--d", 3, "--m", 4, "--epsilon", "1/2",
    "--delta-min", 2, "--t", 3, "--seed", 7, "--max-attempts", 1000,
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "g.bgex"
    code = run_cli(*BUILD_ARGS, "--out", out)
    assert code == 0
    return out


# --- exit codes ---------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path):
    assert run_cli("no-such-command") == 1
    assert run_cli("build-random", "--bogus-flag", 1) == 1
    assert run_cli("build-random", "--n", 4) == 1  # missing parameters
    assert run_cli("verify", "--graph", tmp_path / "missing.bgex", "--epsilon", "1/2") == 1


def test_parameter_failures_exit_two(tmp_path):
    code = run_cli(
        "build-random", "--n", 4, "--d", 3, "--m", 4, "--epsilon", "1/2",
        "--delta-min", 2, "--t", 3, "--seed", 7, "--max-attempts", 0,
        "--out", tmp_path / "never.bgex",
    )
    assert code == 2
    assert not (tmp_path / "never.bgex").exists()
    code = run_cli(
        "build-linear", "--n", 64, "--epsilon", "1/4", "--seed", 1,
        "--out", tmp_path / "lin.bgex",
    )
    assert code == 2  # default kappa=1, c=1: m = 64 - 864 < 1


def test_failed_search_writes_diagnostic_report(tmp_path):
    out = tmp_path / "never.bgex"
    code = run_cli(
        "build-random", "--n", 3, "--d", 2, "--m", 3, "--epsilon", "0",
        "--delta-min", 1, "--t", 3, "--seed", 5, "--max-attempts", 2,
        "--out", out,
    )
    assert code == 2
    report = json.loads((tmp_path / "never.bgex.report.json").read_text())
    assert report["found"] is False
    assert len(report["attempts"]) == 2
    for attempt in report["attempts"]:
        assert set(attempt["worst_by_k"]) == {"1", "2", "3"}


def test_capacity_exit_three(built, tmp_path):
    code = run_cli(
        "verify", "--graph", built, "--epsilon", "1/2", "--budget", 10,
        "--out", tmp_path / "r.json",
    )
    assert code == 3


def test_capacity_with_sampled_fallback_passes(built, tmp_path):
    code = run_cli(
        "verify", "--graph", built, "--epsilon", "1/2", "--budget", 10,
        "--sampled-trials", 20, "--seed", 3, "--out", tmp_path / "r.json",
    )
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    kinds = {rep["k"]: rep["kind"] for rep in doc["reports"]}
    assert kinds[1] == kinds[2] == kinds[3] == "extractor-sampled"
    assert kinds[4] == "extractor-exact"  # C(16,16) = 1 fits any budget


def test_sampled_fallback_past_int_to_str_limit(tmp_path):
    # C(2^20, 2^12) is too large to print; the budget check must not try
    graph = tmp_path / "g20.bgex"
    balex.save_graph(balex.sample_table(20, 1, 20, seed=0), graph)
    code = run_cli(
        "verify", "--graph", graph, "--epsilon", "1/4", "--k-min", 12, "--k-max", 12,
        "--sampled-trials", 2, "--out", tmp_path / "r.json",
    )
    doc = json.loads((tmp_path / "r.json").read_text())
    assert [rep["kind"] for rep in doc["reports"]] == ["extractor-sampled"]
    assert code == (0 if doc["pass"] else 2)


def test_sampled_refused_on_n64_linear_graph(tmp_path, capsys):
    # the README's n=64 graph: the sampled fallback cannot draw 64-bit left nodes
    lin = tmp_path / "lin.bgex"
    assert run_cli(
        "build-linear", "--n", 64, "--epsilon", "1/4", "--kappa", 0.015625,
        "--s", 16, "--seed", 9, "--out", lin,
    ) == 0
    capsys.readouterr()
    code = run_cli("verify", "--graph", lin, "--epsilon", "1/4", "--sampled-trials", 5)
    assert code == 3
    assert "62 bits" in capsys.readouterr().err


def test_malformed_graph_headers_exit_two(tmp_path, capsys):
    from test_graphs import BAD_DESCRIPTORS, linear_file_with, table_header_with_m

    table = balex.sample_table(4, 3, 4, seed=7)
    files = [table_header_with_m(table, m) for m in (0, 72)]
    files += [linear_file_with(**fields) for fields in BAD_DESCRIPTORS.values()]
    for i, data in enumerate(files):
        path = tmp_path / f"bad{i}.bgex"
        path.write_bytes(data)
        capsys.readouterr()
        assert run_cli("verify", "--graph", path, "--epsilon", "1/2") == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_linear_header_widths_exit_two(tmp_path, capsys):
    from test_graphs import BAD_LINEAR_HEADERS, linear_file_with

    for i, header in enumerate(BAD_LINEAR_HEADERS):
        path = tmp_path / f"bad{i}.bgex"
        path.write_bytes(linear_file_with(header=header))
        capsys.readouterr()
        assert run_cli("verify", "--graph", path, "--epsilon", "1/2") == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_short_external_table_exits_two_at_load(tmp_path, capsys):
    from balex.lineargraph import save_pair_table
    from test_graphs import linear_file_with

    table = tmp_path / "pairs.json"
    save_pair_table(table, 8, 8, [[(1, i + 1) for i in range(8)]])
    path = tmp_path / "short.bgex"
    path.write_bytes(linear_file_with(header=(12, 4, 8), id="external", table=str(table)))
    capsys.readouterr()
    assert run_cli("verify", "--graph", path, "--epsilon", "1/2") == 2
    assert capsys.readouterr().err == (
        "error: linear descriptor: external table covers 1 edge labels, a d=4 graph has 2^4\n"
    )


# --- build-random -------------------------------------------------------------


def test_build_random_graph_reverifies_on_reload(built):
    graph = balex.load_graph(built)
    assert balex.verify_min_degree(graph, 3, 2).passed
    for k in range(1, 5):
        assert balex.verify_extractor_exact(graph, k, Fraction(1, 2)).passed
    with open(str(built) + ".report.json") as fh:
        report = json.load(fh)
    assert report["found"] is True
    assert report["graph_digest"] == balex.graph_digest(graph)


def test_build_random_deterministic_reruns(tmp_path):
    out_a = tmp_path / "a.bgex"
    out_b = tmp_path / "b.bgex"
    assert run_cli(*BUILD_ARGS, "--out", out_a) == 0
    assert run_cli(*BUILD_ARGS, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(str(out_a) + ".report.json") as fh:
        report_a = json.load(fh)
    with open(str(out_b) + ".report.json") as fh:
        report_b = json.load(fh)
    report_a["config"].pop("out")
    report_b["config"].pop("out")
    assert report_a == report_b


def test_build_random_config_file(tmp_path):
    config = {
        "n": 4, "d": 3, "m": 4, "epsilon": "1/2", "delta_min": 2, "t": 3,
        "seed": 7, "max_attempts": 1000, "out": str(tmp_path / "c.bgex"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("build-random", "--config", cfg_path) == 0
    # a flag override changes the seed and hence the graph
    assert run_cli(
        "build-random", "--config", cfg_path, "--seed", 8,
        "--out", tmp_path / "d.bgex",
    ) == 0
    assert (tmp_path / "c.bgex").read_bytes() != (tmp_path / "d.bgex").read_bytes()


# --- --config -------------------------------------------------------------------


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


def build_config(out):
    return {
        "n": 4, "d": 3, "m": 4, "epsilon": "1/2", "delta_min": 2, "t": 3,
        "seed": 7, "max_attempts": 1000, "out": str(out),
    }


def test_config_keys_are_option_names(built, tmp_path, capsys):
    # the README's keys: out, graph, x, s
    cfg = write_config(tmp_path / "build.json", build_config(tmp_path / "g.bgex"))
    assert run_cli("build-random", "--config", cfg) == 0
    assert (tmp_path / "g.bgex").read_bytes() == built.read_bytes()
    cfg = write_config(tmp_path / "verify.json", {
        "graph": str(built), "epsilon": "1/2", "delta_min": 2, "t": 3,
        "out": str(tmp_path / "r.json"),
    })
    assert run_cli("verify", "--config", cfg) == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"]["graph"] == str(built)
    cfg = write_config(tmp_path / "amplify.json", {
        "graph": str(built), "epsilon": "1/2", "delta_blocks": 2, "t": 3, "x": "b", "index": 5,
    })
    capsys.readouterr()
    assert run_cli("amplify", "--config", cfg) == 0
    from_config = capsys.readouterr().out
    assert run_cli(
        "amplify", "--graph", built, "--epsilon", "1/2", "--delta-blocks", 2,
        "--t", 3, "--x", "b", "--index", 5,
    ) == 0
    assert capsys.readouterr().out == from_config
    cfg = write_config(tmp_path / "linear.json", {
        "n": 12, "epsilon": 0.25, "kappa": 0.02, "s": 8, "seed": 42,
        "out": str(tmp_path / "a.bgex"),
    })
    assert run_cli("build-linear", "--config", cfg) == 0
    assert run_cli(
        "build-linear", "--n", 12, "--epsilon", "1/4", "--kappa", 0.02, "--s", 8,
        "--seed", 42, "--out", tmp_path / "b.bgex",
    ) == 0
    assert (tmp_path / "a.bgex").read_bytes() == (tmp_path / "b.bgex").read_bytes()


def test_config_values_are_checked_as_flag_text(built, tmp_path):
    # "4" is what --n 4 passes; a string the flag would refuse is refused
    doc = {**build_config(tmp_path / "g.bgex"), "n": "4", "max_attempts": "1000"}
    assert run_cli("build-random", "--config", write_config(tmp_path / "a.json", doc)) == 0
    assert (tmp_path / "g.bgex").read_bytes() == built.read_bytes()
    doc = {"graph": str(built), "epsilon": "1/2", "k_max": "2", "out": str(tmp_path / "r.json")}
    assert run_cli("verify", "--config", write_config(tmp_path / "b.json", doc)) == 0
    assert [rep["k"] for rep in json.loads((tmp_path / "r.json").read_text())["reports"]] == [1, 2]


@pytest.mark.parametrize("key, value", [
    ("n", "four"), ("n", 4.5), ("n", True), ("n", [4]), ("budget", {"a": 1}),
    ("epsilon", "half"), ("epsilon", "1/0"), ("out", ["g.bgex"]), ("report", False),
])
def test_config_wrong_typed_value_exits_one(tmp_path, capsys, key, value):
    # the key under test comes from the config, every other option from a flag
    flags = []
    for name, flag_value in build_config(tmp_path / "g.bgex").items():
        if name != key:
            flags += ["--" + name.replace("_", "-"), flag_value]
    cfg = write_config(tmp_path / "c.json", {key: value})
    capsys.readouterr()
    assert run_cli("build-random", "--config", cfg, *flags) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "g.bgex").exists()


@pytest.mark.parametrize("key", ["out_path", "graph_path", "config", "bogus"])
def test_config_unknown_key_exits_one(tmp_path, key):
    doc = {**build_config(tmp_path / "g.bgex"), key: "g.bgex"}
    assert run_cli("build-random", "--config", write_config(tmp_path / "c.json", doc)) == 1
    assert not (tmp_path / "g.bgex").exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"cfg"', "3", "null", "{not json", ""])
def test_config_non_object_exits_one(tmp_path, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert run_cli("verify", "--config", cfg) == 1


def test_config_null_means_unset(built, tmp_path):
    doc = {
        "graph": str(built), "epsilon": "1/2", "budget": None, "k_max": None,
        "sampled_trials": None, "out": str(tmp_path / "r.json"),
    }
    assert run_cli("verify", "--config", write_config(tmp_path / "v.json", doc)) == 0
    echo = json.loads((tmp_path / "r.json").read_text())["config"]
    assert echo["budget"] == DEFAULT_MAX_SUBSETS
    assert "k_max" not in echo and "sampled_trials" not in echo
    # a required option set to null is missing
    doc = {**build_config(tmp_path / "g.bgex"), "seed": None}
    assert run_cli("build-random", "--config", write_config(tmp_path / "b.json", doc)) == 1
    # and a flag still fills it
    assert run_cli("build-random", "--config", tmp_path / "b.json", "--seed", 7) == 0
    assert (tmp_path / "g.bgex").read_bytes() == built.read_bytes()


@pytest.fixture(scope="module")
def base_configs(built, tmp_path_factory):
    """One valid config per command; each runs to exit 0."""
    work = tmp_path_factory.mktemp("configs")
    bset_path = work / "b.bset"
    balex.save_bset(balex.oracles.explicit_bset(4, 2, {0, 3, 7, 12}), bset_path)
    graph = str(built)
    configs = {
        "build-random": build_config(work / "g.bgex"),
        "build-linear": {
            "n": 12, "epsilon": "1/4", "c": 1, "kappa": 0.02, "s": 8, "seed": 42,
            "out": str(work / "lin.bgex"),
        },
        "verify": {
            "graph": graph, "epsilon": "1/2", "k_min": 1, "k_max": 4, "delta_min": 2,
            "t": 3, "budget": 100000, "sampled_trials": 3, "seed": 0,
            "out": str(work / "r.json"),
        },
        "congestion": {
            "graph": graph, "bset": str(bset_path), "epsilon": "1/2", "t": 3,
            "out": str(work / "c.json"),
        },
        "amplify": {
            "graph": graph, "epsilon": "1/2", "delta_blocks": 2, "t": 3, "x": "0",
            "oracle": "compressor", "k": 5, "cap": 12, "steps": 1000,
            "out": str(work / "list.txt"),
        },
    }
    for command, doc in configs.items():
        assert run_cli(command, "--config", write_config(work / "base.json", doc)) == 0
    return work, configs


def wrong_value(param):
    """JSON values the option's flag would refuse."""
    structural = st.one_of(
        st.booleans(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    )
    if isinstance(param.type, (click.types.IntParamType, click.types.FloatParamType,
                               balex.cli.Rational, click.Choice)):
        structural = st.one_of(structural, st.text(alphabet="abcxyz", min_size=1))
    if isinstance(param.type, click.types.IntParamType):
        fractional = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
        structural = st.one_of(structural, fractional)
    return structural


@given(data=st.data())
def test_malformed_config_exits_one(base_configs, data):
    work, configs = base_configs
    command = data.draw(st.sampled_from(sorted(configs)), label="command")
    doc = dict(configs[command])
    params = {p.name: p for p in cli.commands[command].params}
    mutation = data.draw(st.sampled_from(["wrong type", "junk key", "not an object"]))
    if mutation == "wrong type":
        key = data.draw(st.sampled_from(sorted(doc)), label="key")
        doc[key] = data.draw(wrong_value(params[key]), label="value")
    elif mutation == "junk key":
        junk = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in params))
        doc[junk] = data.draw(st.integers() | st.text(max_size=4), label="junk value")
    else:
        doc = data.draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=4),
            st.lists(st.integers(), max_size=3),
        ), label="document")
    cfg = write_config(work / "mutated.json", doc)
    assert run_cli(command, "--config", cfg) == 1


# --- build-linear --------------------------------------------------------------


def test_build_linear_prints_derived_dimensions(tmp_path, capsys):
    out = tmp_path / "lin.bgex"
    code = run_cli(
        "build-linear", "--n", 64, "--epsilon", "1/4", "--kappa", 0.015625,
        "--s", 16, "--seed", 9, "--out", out,
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["d"] == math.ceil(0.015625 * math.log2(64) ** 3 * math.log2(4) ** 2)
    assert printed["m"] == 64 - printed["d"]
    assert printed["delta_guarantee"] is True
    graph = balex.load_graph(out)
    assert graph.backend_kind == "linear"
    assert (graph.d, graph.m) == (printed["d"], printed["m"])


def test_build_linear_descriptor_reload_same_outputs(tmp_path):
    out = tmp_path / "lin.bgex"
    assert run_cli(
        "build-linear", "--n", 32, "--epsilon", "1/4", "--kappa", 0.02,
        "--s", 8, "--seed", 11, "--out", out,
    ) == 0
    g1 = balex.load_graph(out)
    g2 = balex.load_graph(out)
    rng = np.random.Generator(np.random.Philox(key=2))
    for _ in range(1000):
        x = int(rng.integers(0, 1 << 32, dtype=np.uint64))
        y = int(rng.integers(0, g1.degree))
        assert g1.ext_eval(x, y) == g2.ext_eval(x, y)


# --- verify ----------------------------------------------------------------------


def test_verify_linear_graph_with_sampled_fallback(tmp_path):
    lin = tmp_path / "lin.bgex"
    # n=12, eps=1/4, kappa=0.02: d = ceil(0.02 * log2(12)^3 * 4) = 4, m = 8
    assert run_cli(
        "build-linear", "--n", 12, "--epsilon", "1/4", "--kappa", 0.02,
        "--s", 8, "--seed", 42, "--out", lin,
    ) == 0
    out = tmp_path / "report.json"
    code = run_cli(
        "verify", "--graph", lin, "--epsilon", "1/2", "--k-min", 6, "--k-max", 6,
        "--sampled-trials", 3, "--seed", 1, "--budget", 1000,
        "--delta-min", 16, "--t", 10, "--out", out,
    )
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["kind"] == "extractor-sampled"
    assert doc["degree_report"] == {
        "kind": "delta-guarantee", "pass": True, "t": 10, "Delta": 16,
    }
    assert code == (0 if doc["pass"] else 2)


def test_verify_pass_and_fail_exit_codes(built, tmp_path):
    assert run_cli(
        "verify", "--graph", built, "--epsilon", "1/2",
        "--delta-min", 2, "--t", 3, "--out", tmp_path / "ok.json",
    ) == 0
    assert run_cli(
        "verify", "--graph", built, "--epsilon", "0",
        "--out", tmp_path / "fail.json",
    ) == 2
    doc = json.loads((tmp_path / "fail.json").read_text())
    assert doc["pass"] is False


# --- congestion ---------------------------------------------------------------------


def test_congestion_with_bset_file(built, tmp_path):
    b = balex.oracles.explicit_bset(4, 2, {0, 3, 7, 12})
    bset_path = tmp_path / "b.bset"
    balex.save_bset(b, bset_path)
    out = tmp_path / "congestion.json"
    code = run_cli(
        "congestion", "--graph", built, "--bset", bset_path,
        "--epsilon", "1/2", "--t", 3, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["b_size"] == 4
    assert doc["report"]["s"] == 2
    assert doc["report"]["pass"] is True


def test_congestion_bset_file_past_int64(tmp_path):
    # n = 64 linear graph, B = {2^63 .. 2^63+15}: recount from view.neighbors
    expansion = balex.SeedExpansion("counter", s=16, m=64, seed=5)
    g = balex.linear_graph(n=64, d=1, expansion=expansion)
    graph_path = tmp_path / "g64.bgex"
    balex.save_graph(g, graph_path)
    B = set(range(2**63, 2**63 + 16))
    bset_path = tmp_path / "b.bset"
    balex.save_bset(balex.oracles.explicit_bset(64, 4, B), bset_path)
    out = tmp_path / "congestion.json"
    code = run_cli(
        "congestion", "--graph", graph_path, "--bset", bset_path,
        "--epsilon", "1/4", "--t", 4, "--out", out,
    )
    report = json.loads(out.read_text())["report"]
    view = g.prefix_view(4)
    counts = {}
    for x in B:
        for z in view.neighbors(x):
            counts[z] = counts.get(z, 0) + 1
    threshold = Fraction(4 * len(B) * g.degree, view.r_size)  # (1/eps) |B| D / |R|
    heavy = {z for z, c in counts.items() if c > threshold}
    bad = {x for x in B if 2 * sum(z in heavy for z in view.neighbors(x)) >= g.degree}
    assert report["b_size"] == 16 and report["s"] == 4
    assert report["heavy_set"] == sorted(balex.bitstrings.to_hex(z, 4) for z in heavy)
    assert report["bad_set"] == sorted(balex.bitstrings.to_hex(x, 64) for x in bad)
    assert code == (0 if report["pass"] else 2)


def test_congestion_right_side_past_budget_exits_three(wide_table_graph, tmp_path, capsys):
    graph_path = tmp_path / "wide.bgex"
    balex.save_graph(wide_table_graph, graph_path)
    bset_path = tmp_path / "b.bset"
    balex.save_bset(balex.oracles.explicit_bset(2, 1, {0, 1}), bset_path)
    code = run_cli(
        "congestion", "--graph", graph_path, "--bset", bset_path,
        "--epsilon", "1/4", "--t", 2, "--out", tmp_path / "c.json",
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("capacity exceeded: right side of 2^63")


def test_verify_right_side_past_budget_exits_three(wide_table_graph, tmp_path, capsys):
    graph_path = tmp_path / "wide.bgex"
    balex.save_graph(wide_table_graph, graph_path)
    assert run_cli("verify", "--graph", graph_path, "--epsilon", "1/2") == 3
    assert capsys.readouterr().err.startswith("capacity exceeded: right side of 2^63")


def test_amplify_index_on_m64_table_past_int64(wide_table_graph, tmp_path, capsys):
    from block_oracle import amplified

    g = wide_table_graph
    path = tmp_path / "wide.bgex"
    balex.save_graph(g, path)
    pref = np.array([g.ext_eval(x, y) for x in range(4) for y in range(2)], dtype=np.uint64)
    for x in range(4):
        elements = amplified(pref, 1, x, 3)[0]
        for i, element in enumerate(elements):
            capsys.readouterr()
            assert run_cli(
                "amplify", "--graph", path, "--epsilon", "1/4", "--delta-blocks", 3,
                "--t", 2, "--x", f"{x:x}", "--index", i,
            ) == 0
            assert capsys.readouterr().out == f"{element:x}\n"


def test_congestion_with_oracle(built, tmp_path):
    # proxy costs at n=4 are 5 (four strings) or 6, so k=5 gives |B| = 4
    out = tmp_path / "congestion.json"
    code = run_cli(
        "congestion", "--graph", built, "--oracle", "compressor", "--k", 5,
        "--epsilon", "1/2", "--t", 3, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["b_size"] == 4
    assert doc["report"]["s"] == 2


# --- amplify ------------------------------------------------------------------------


def test_amplify_list_and_indexed_element_agree(built, tmp_path, capsys):
    out = tmp_path / "list.txt"
    assert run_cli(
        "amplify", "--graph", built, "--epsilon", "1/2", "--delta-blocks", 2,
        "--t", 3, "--x", "b", "--out", out,
    ) == 0
    header, elements = balex.listamp.load_list(out)
    assert header["x"] == "b"
    assert len(elements) == 16
    capsys.readouterr()
    assert run_cli(
        "amplify", "--graph", built, "--epsilon", "1/2", "--delta-blocks", 2,
        "--t", 3, "--x", "b", "--index", 5,
    ) == 0
    printed = capsys.readouterr().out.strip()
    assert int(printed, 16) == elements[5]


@pytest.mark.parametrize("index", [16, 99, -1])
def test_amplify_index_out_of_range_exits_two(built, capsys, index):
    code = run_cli(
        "amplify", "--graph", built, "--epsilon", "1/2", "--delta-blocks", 2,
        "--t", 3, "--x", "b", "--index", index,
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: list index {index} outside 0..15\n"


@pytest.mark.parametrize("content", [
    b"[1]\n0\n", b'{"n": "4", "k": 2}\n0\n', b'{"n": 4, "k": 2}\n\xff\n',
])
def test_congestion_malformed_bset_exits_two(built, tmp_path, capsys, content):
    bset_path = tmp_path / "b.bset"
    bset_path.write_bytes(content)
    code = run_cli(
        "congestion", "--graph", built, "--bset", bset_path,
        "--epsilon", "1/2", "--t", 3, "--out", tmp_path / "c.json",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("k", [-1, -5])
def test_congestion_negative_oracle_level_exits_two(built, tmp_path, capsys, k):
    code = run_cli(
        "congestion", "--graph", built, "--oracle", "compressor", "--k", k,
        "--epsilon", "1/2", "--t", 3, "--out", tmp_path / "c.json",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: complexity level k={k} must be >= 0\n"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("content", [
    "[1]", '{"s": 16, "m": 50, "pairs": 5}', '{"s": 16, "m": 50, "pairs": [[1]]}',
])
def test_build_linear_malformed_table_exits_two(tmp_path, capsys, content):
    table = tmp_path / "t.json"
    table.write_text(content)
    code = run_cli(
        "build-linear", "--n", 64, "--epsilon", "1/4", "--kappa", 0.015625,
        "--table", table, "--out", tmp_path / "lin.bgex",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: expansion table ")
    assert not (tmp_path / "lin.bgex").exists()


def test_amplify_with_bset_prints_survival(built, tmp_path, capsys):
    b = balex.oracles.explicit_bset(4, 2, {1, 2})
    bset_path = tmp_path / "b.bset"
    balex.save_bset(b, bset_path)
    code = run_cli(
        "amplify", "--graph", built, "--epsilon", "1/2", "--delta-blocks", 2,
        "--t", 3, "--x", "0", "--bset", bset_path,
    )
    assert code == 0
    assert "survival_fraction=" in capsys.readouterr().out


def test_amplify_refuses_empty_b(built, tmp_path, capsys):
    # toy-machine sets are empty for n >= 3 at caps <= 15
    code = run_cli(
        "amplify", "--graph", built, "--epsilon", "1/2", "--delta-blocks", 2,
        "--t", 3, "--x", "0", "--oracle", "toy", "--k", 9, "--cap", 12,
    )
    assert code == 2
    assert "survival_fraction" not in capsys.readouterr().out


def test_console_script_subprocess_determinism(tmp_path):
    # the installed entry point, in fresh processes, still byte-reproduces
    import subprocess
    import sys

    script = [sys.executable, "-m", "balex.cli"]
    outs = []
    for name in ("first.bgex", "second.bgex"):
        out = tmp_path / name
        proc = subprocess.run(
            script + ["build-random", "--n", "4", "--d", "3", "--m", "4",
                      "--epsilon", "1/2", "--delta-min", "2", "--t", "3",
                      "--seed", "7", "--max-attempts", "100",
                      "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
