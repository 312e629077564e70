"""Command-line entry point for reproducible batch runs.

Every command is deterministic given its resolved configuration (seeds
included): reports carry no timestamps, JSON is emitted with sorted keys, and
re-running a command with the same config produces byte-identical artifacts.

Exit codes: 0 all checks passed, 1 usage error, 2 construction/parameter
failure (including a failed verification), 3 capacity budget exceeded.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .bitstrings import from_hex, to_hex
from .errors import BalexError, CapacityError, ParameterError
from .graphs import BalanceParams, graph_digest, load_graph, save_graph
from .lineargraph import (
    SeedExpansion,
    build_linear_graph,
    delta_guarantee,
    derive_amplification,
    derive_dims,
    linearity_check,
)
from .listamp import (
    amplify,
    congestion_report,
    list_element,
    save_list,
    survival_ok,
    survival_fraction,
)
from .oracles import ToyMachineOracle, bset, compressor_oracle, load_bset
from .randgraph import (
    DEFAULT_MAX_SUBSETS,
    GENERATOR_ID,
    BalancedSearchError,
    search_balanced,
    verify_extractor_exact,
    verify_extractor_sampled,
    verify_min_degree,
)

EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_CAPACITY = 3


class CommandFailure(Exception):
    def __init__(self, message: str, code: int = EXIT_FAILURE):
        super().__init__(message)
        self.code = code


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"not a rational number: {text!r}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise click.UsageError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise click.UsageError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(config: dict, flags: dict, required: tuple[str, ...]) -> dict:
    merged = dict(config)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    missing = [key for key in required if merged.get(key) is None]
    if missing:
        raise click.UsageError(f"missing required parameter(s): {', '.join(missing)}")
    return merged


def _file_digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, document: dict) -> None:
    path.write_text(
        json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _require_file(path_text: str, what: str) -> Path:
    p = Path(path_text)
    if not p.is_file():
        raise click.UsageError(f"{what} not found: {path_text}")
    return p


@click.group()
def cli() -> None:
    """Balanced extractor graphs: build, verify, analyze, amplify."""


@cli.command("build-random")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--n", type=int, default=None, help="Left label length in bits.")
@click.option("--d", type=int, default=None, help="Edge label length in bits.")
@click.option("--m", type=int, default=None, help="Right label length in bits.")
@click.option("--epsilon", type=str, default=None, help="Extractor error, e.g. 1/2.")
@click.option("--delta-min", "delta_min", type=int, default=None, help="Required min right degree.")
@click.option("--t", type=int, default=None, help="Degree threshold prefix parameter.")
@click.option("--seed", type=int, default=None, help="Base search seed (u64).")
@click.option("--max-attempts", type=int, default=None, help="Sampled attempts before failing.")
@click.option("--budget", type=int, default=None, help="Max enumerated subsets per exact check.")
@click.option("--out", "out_path", type=str, default=None, help="Graph file to write.")
@click.option("--report", "report_path", type=str, default=None, help="Report file (default OUT.report.json).")
def build_random(config_path, **flags) -> None:
    """Search for a fully verified random table graph and write it."""
    cfg = _resolve(
        _load_config(config_path),
        flags,
        ("n", "d", "m", "epsilon", "delta_min", "t", "seed", "max_attempts", "out_path"),
    )
    cfg.setdefault("budget", DEFAULT_MAX_SUBSETS)
    epsilon = _parse_fraction(str(cfg["epsilon"]))
    out = Path(cfg["out_path"])
    report_path = Path(cfg.get("report_path") or str(out) + ".report.json")
    try:
        result = search_balanced(
            cfg["n"], cfg["d"], cfg["m"], epsilon,
            cfg["delta_min"], cfg["t"],
            cfg["max_attempts"], cfg["seed"],
            max_subsets=cfg["budget"],
        )
    except BalancedSearchError as exc:
        _write_json(report_path, {
            "command": "build-random",
            "config": _jsonable(cfg),
            "generator_id": GENERATOR_ID,
            "found": False,
            "attempts": [r.to_dict() for r in exc.records],
        })
        raise CommandFailure(str(exc))
    save_graph(result.graph, out)
    _write_json(report_path, {
        "command": "build-random",
        "config": _jsonable(cfg),
        "generator_id": GENERATOR_ID,
        "found": True,
        "attempt": result.attempt,
        "attempt_seed": result.seed,
        "graph_digest": _file_digest(out),
        "reports": [r.to_dict() for r in result.reports],
        "attempts": [r.to_dict() for r in result.records],
    })
    click.echo(f"balanced graph found at attempt {result.attempt}; wrote {out}")


@cli.command("build-linear")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--n", type=int, default=None, help="Left label length in bits.")
@click.option("--epsilon", type=str, default=None, help="Extractor error, e.g. 1/4.")
@click.option("--c", type=int, default=None, help="Output-shortening constant (m = n - c*d).")
@click.option("--kappa", type=float, default=None, help="Scale constant inside d.")
@click.option("--s", "field_bits", type=int, default=None, help="Field degree of the expansion.")
@click.option("--seed", type=int, default=None, help="Counter-expansion seed (u64).")
@click.option("--table", "table_path", type=str, default=None, help="External expansion table file.")
@click.option("--out", "out_path", type=str, default=None, help="Graph file to write.")
def build_linear(config_path, **flags) -> None:
    """Build a linear-backend graph with derived dimensions and write it."""
    cfg = _resolve(
        _load_config(config_path), flags, ("n", "epsilon", "out_path")
    )
    cfg.setdefault("c", 1)
    cfg.setdefault("kappa", 1.0)
    cfg.setdefault("field_bits", 16)
    epsilon = _parse_fraction(str(cfg["epsilon"]))
    d, m = derive_dims(cfg["n"], epsilon, cfg["c"], cfg["kappa"])
    if m < 1:
        raise ParameterError(
            f"derived m = n - c*d = {cfg['n']} - {cfg['c']}*{d} = {m} < 1"
        )
    if cfg.get("table_path") is not None:
        expansion = SeedExpansion(
            "external", cfg["field_bits"], m, table_path=str(_require_file(cfg["table_path"], "expansion table"))
        )
    else:
        if cfg.get("seed") is None:
            raise click.UsageError("build-linear needs --seed or --table")
        expansion = SeedExpansion("counter", cfg["field_bits"], m, seed=cfg["seed"])
    graph = build_linear_graph(cfg["n"], epsilon, expansion, cfg["c"], cfg["kappa"])
    delta_blocks, t = derive_amplification(cfg["n"], epsilon, d, cfg["c"])
    if not linearity_check(graph, y=0):
        raise CommandFailure("linearity self-check failed on edge label 0")
    guarantee = delta_guarantee(graph, t, delta_blocks) if t - graph.a >= 1 else False
    out = Path(cfg["out_path"])
    save_graph(graph, out)
    click.echo(json.dumps({
        "d": d, "m": m, "Delta": delta_blocks, "t": t,
        "c": cfg["c"], "kappa": cfg["kappa"],
        "delta_guarantee": guarantee,
        "graph_digest": _file_digest(out),
    }, sort_keys=True))


@cli.command("verify")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--graph", "graph_path", type=str, default=None, help="Graph file to verify.")
@click.option("--epsilon", type=str, default=None, help="Extractor error bound.")
@click.option("--k-min", type=int, default=None, help="First prefix parameter (default 1).")
@click.option("--k-max", type=int, default=None, help="Last prefix parameter (default n).")
@click.option("--delta-min", "delta_min", type=int, default=None, help="Required min right degree at t.")
@click.option("--t", type=int, default=None, help="Degree threshold prefix parameter.")
@click.option("--budget", type=int, default=None, help="Max enumerated subsets per exact check.")
@click.option("--sampled-trials", type=int, default=None, help="Enable sampled fallback with this many trials.")
@click.option("--seed", type=int, default=None, help="Seed for sampled checks.")
@click.option("--out", "out_path", type=str, default=None, help="Report file to write.")
def verify(config_path, **flags) -> None:
    """Check extractor deviations over a k-range plus the degree guarantee."""
    cfg = _resolve(_load_config(config_path), flags, ("graph_path", "epsilon"))
    cfg.setdefault("budget", DEFAULT_MAX_SUBSETS)
    cfg.setdefault("seed", 0)
    graph_file = _require_file(cfg["graph_path"], "graph file")
    graph = load_graph(graph_file)
    epsilon = _parse_fraction(str(cfg["epsilon"]))
    k_lo = cfg.get("k_min") or 1
    k_hi = cfg.get("k_max") or graph.n
    k_lo = max(k_lo, graph.a + 1)
    reports = []
    all_pass = True
    for k in range(k_lo, k_hi + 1):
        try:
            rep = verify_extractor_exact(graph, k, epsilon, max_subsets=cfg["budget"])
        except CapacityError:
            if cfg.get("sampled_trials") is None:
                raise
            rep = verify_extractor_sampled(
                graph, k, epsilon, cfg["sampled_trials"], cfg["seed"]
            )
        reports.append(rep)
        all_pass = all_pass and rep.passed
    if cfg.get("delta_min") is not None and cfg.get("t") is not None:
        if graph.backend_kind == "linear":
            ok = delta_guarantee(graph, cfg["t"], cfg["delta_min"], seed=cfg["seed"])
            reports_entry = {"kind": "delta-guarantee", "pass": ok,
                             "t": cfg["t"], "Delta": cfg["delta_min"]}
            all_pass = all_pass and ok
        else:
            rep = verify_min_degree(graph, cfg["t"], cfg["delta_min"])
            reports_entry = rep.to_dict()
            all_pass = all_pass and rep.passed
    else:
        reports_entry = None
    document = {
        "command": "verify",
        "config": _jsonable(cfg),
        "graph_digest": _file_digest(graph_file),
        "pass": all_pass,
        "reports": [r.to_dict() for r in reports],
    }
    if reports_entry is not None:
        document["degree_report"] = reports_entry
    if cfg.get("out_path"):
        _write_json(Path(cfg["out_path"]), document)
    click.echo("verify: PASS" if all_pass else "verify: FAIL")
    if not all_pass:
        raise CommandFailure("verification failed")


def _resolve_bset(cfg: dict, graph) -> frozenset[int]:
    if cfg.get("bset_path"):
        return load_bset(_require_file(cfg["bset_path"], "B-set file")).members
    oracle_name = cfg.get("oracle")
    if oracle_name is None:
        raise click.UsageError("need --bset FILE or --oracle NAME")
    if cfg.get("k") is None:
        raise click.UsageError("--oracle needs --k")
    if oracle_name == "toy":
        oracle = ToyMachineOracle(
            program_length_cap=cfg.get("cap", 12),
            step_budget=cfg.get("steps", 10_000),
        )
    elif oracle_name == "compressor":
        oracle = compressor_oracle()
    else:
        raise click.UsageError(f"unknown oracle {oracle_name!r} (toy, compressor)")
    return bset(graph.n, cfg["k"], oracle).members


@cli.command("congestion")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--graph", "graph_path", type=str, default=None, help="Graph file.")
@click.option("--bset", "bset_path", type=str, default=None, help="B-set file (JSON header + hex lines).")
@click.option("--oracle", type=str, default=None, help="Oracle name instead of a file (toy, compressor).")
@click.option("--k", type=int, default=None, help="Complexity level for the oracle.")
@click.option("--cap", type=int, default=None, help="Toy-machine program length cap.")
@click.option("--steps", type=int, default=None, help="Toy-machine step budget.")
@click.option("--epsilon", type=str, default=None, help="Extractor error bound.")
@click.option("--t", type=int, default=None, help="Classification threshold.")
@click.option("--out", "out_path", type=str, default=None, help="Report file to write.")
def congestion(config_path, **flags) -> None:
    """Classify a B-set into heavy right nodes and bad members."""
    cfg = _resolve(_load_config(config_path), flags, ("graph_path", "epsilon", "t", "out_path"))
    graph_file = _require_file(cfg["graph_path"], "graph file")
    graph = load_graph(graph_file)
    epsilon = _parse_fraction(str(cfg["epsilon"]))
    members = _resolve_bset(cfg, graph)
    report = congestion_report(graph, members, epsilon, cfg["t"])
    document = {
        "command": "congestion",
        "config": _jsonable(cfg),
        "graph_digest": _file_digest(graph_file),
        "report": report.to_dict(),
    }
    _write_json(Path(cfg["out_path"]), document)
    click.echo(f"congestion: bad_fraction={report.bad_fraction} "
               f"{'PASS' if report.bound_ok else 'FAIL'}")
    if not report.bound_ok:
        raise CommandFailure("bad fraction exceeds 2*sqrt(epsilon)")


@cli.command("amplify")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--graph", "graph_path", type=str, default=None, help="Graph file.")
@click.option("--epsilon", type=str, default=None, help="Extractor error bound.")
@click.option("--delta-blocks", "delta_blocks", type=int, default=None, help="Left-neighbors per segment.")
@click.option("--t", type=int, default=None, help="Amplification prefix parameter.")
@click.option("--x", "x_hex", type=str, default=None, help="Input as hex (n bits).")
@click.option("--index", "index", type=int, default=None, help="Emit only element i of the list.")
@click.option("--bset", "bset_path", type=str, default=None, help="Score survival against this B-set.")
@click.option("--oracle", type=str, default=None, help="Oracle name instead of a file.")
@click.option("--k", type=int, default=None, help="Complexity level for the oracle.")
@click.option("--cap", type=int, default=None, help="Toy-machine program length cap.")
@click.option("--steps", type=int, default=None, help="Toy-machine step budget.")
@click.option("--out", "out_path", type=str, default=None, help="List file to write.")
def amplify_cmd(config_path, **flags) -> None:
    """Emit the amplified list (or one indexed element) for an input."""
    cfg = _resolve(
        _load_config(config_path), flags,
        ("graph_path", "epsilon", "delta_blocks", "t", "x_hex"),
    )
    graph_file = _require_file(cfg["graph_path"], "graph file")
    graph = load_graph(graph_file)
    epsilon = _parse_fraction(str(cfg["epsilon"]))
    params = BalanceParams(epsilon=epsilon, Delta=cfg["delta_blocks"], t=cfg["t"])
    x = from_hex(cfg["x_hex"], graph.n)
    if cfg.get("index") is not None:
        element = list_element(graph, params, x, cfg["index"])
        line = to_hex(element, graph.n)
        if cfg.get("out_path"):
            Path(cfg["out_path"]).write_text(line + "\n", encoding="utf-8")
        click.echo(line)
        return
    alist = amplify(graph, params, x)
    if cfg.get("out_path"):
        save_list(alist, cfg["out_path"], _file_digest(graph_file))
    if cfg.get("bset_path") or cfg.get("oracle"):
        members = _resolve_bset(cfg, graph)
        if not members:
            raise ParameterError("survival scoring needs a non-empty B")
        fraction = survival_fraction(alist, members)
        ok = survival_ok(fraction, epsilon)
        click.echo(f"survival_fraction={fraction} {'PASS' if ok else 'FAIL'}")
        if not ok:
            raise CommandFailure("survival fraction below 1 - 2*sqrt(epsilon)")
    else:
        click.echo(f"list of {len(alist)} elements for x={cfg['x_hex']}")


def _jsonable(cfg: dict) -> dict:
    return {k: v for k, v in sorted(cfg.items()) if v is not None}


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except CommandFailure as exc:
        click.echo(f"failure: {exc}", err=True)
        return exc.code
    except CapacityError as exc:
        click.echo(f"capacity exceeded: {exc}", err=True)
        return EXIT_CAPACITY
    except BalancedSearchError as exc:
        click.echo(f"search failed: {exc}", err=True)
        return EXIT_FAILURE
    except BalexError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_FAILURE
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
