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

from . import oracles
from .bitstrings import from_hex, json_object, read_text, to_hex
from .errors import BalexError, CapacityError, FormatError, ParameterError
from .graphs import BalanceParams, load_graph, save_graph
from .lineargraph import (
    SeedExpansion,
    delta_guarantee,
    derive_amplification,
    derive_dims,
    linear_graph,
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


class Rational(click.ParamType):
    """An exact rational written as ``1/2``, ``0.25`` or ``3``."""

    name = "rational"

    def convert(self, value, param, ctx) -> Fraction:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"not a rational number: {value!r}", param, ctx)


RATIONAL = Rational()
INPUT_FILE = click.Path(exists=True, dir_okay=False)
OUTPUT_FILE = click.Path(dir_okay=False)


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Read a JSON object of option values into the command's default map.

    Keys are option names.  Each value must be a JSON string or number and
    reaches its option as text, so it is checked exactly as the flag would be;
    ``null`` leaves the option unset, and flags on the command line take
    precedence.
    """
    if path is None:
        return
    try:
        doc = json_object(read_text(path, "config file"), "config file")
    except FormatError as exc:
        raise click.BadParameter(str(exc)) from exc
    names = {p.name for p in ctx.command.params if p is not param}
    for key, value in doc.items():
        if key not in names:
            raise click.BadParameter(f"unknown key {key!r}")
        if isinstance(value, (bool, list, dict)):
            raise click.BadParameter(f"{key!r} must be a string or a number, not {value!r}")
    ctx.default_map = {key: str(value) for key, value in doc.items() if value is not None}


config_option = click.option(
    "--config", type=INPUT_FILE, is_eager=True, expose_value=False, callback=_load_config,
    help="JSON object of option values keyed by option name; flags take precedence.",
)


def bset_options(command):
    """Where B comes from: a --bset file, or an --oracle at level --k."""
    for option in reversed((
        click.option("--bset", type=INPUT_FILE, help="B-set file (JSON header + hex lines)."),
        click.option("--oracle", type=click.Choice(["toy", "compressor"]),
                     help="Oracle to draw B from instead of a file."),
        click.option("--k", type=int, help="Complexity level for the oracle."),
        click.option("--cap", type=int, help="Toy-machine program length cap (default 12)."),
        click.option("--steps", type=int, help="Toy-machine step budget (default 10^4)."),
    )):
        command = option(command)
    return command


def _bset_members(g, bset, oracle, k, cap, steps) -> frozenset[int]:
    if bset is not None:
        return oracles.load_bset(bset).members
    if oracle is None:
        raise click.UsageError("need --bset FILE or --oracle NAME")
    if k is None:
        raise click.UsageError("--oracle needs --k")
    if oracle == "toy":  # unset caps keep the toy machine's own defaults
        caps = {"program_length_cap": cap, "step_budget": steps}
        source = oracles.ToyMachineOracle(**{key: v for key, v in caps.items() if v is not None})
    else:
        source = oracles.compressor_oracle()
    return oracles.bset(g.n, k, source).members


def _config_echo() -> dict:
    """The command's resolved options, as its report records them."""
    return {k: v for k, v in click.get_current_context().params.items() if v is not None}


def _file_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path, document: dict) -> None:
    # default=str writes Fraction options (epsilon) as their text, e.g. "1/2"
    Path(path).write_text(
        json.dumps(document, sort_keys=True, indent=2, default=str) + "\n", encoding="utf-8"
    )


@click.group()
def cli() -> None:
    """Balanced extractor graphs: build, verify, analyze, amplify."""


@cli.command("build-random")
@config_option
@click.option("--n", type=int, required=True, help="Left label length in bits.")
@click.option("--d", type=int, required=True, help="Edge label length in bits.")
@click.option("--m", type=int, required=True, help="Right label length in bits.")
@click.option("--epsilon", type=RATIONAL, required=True, help="Extractor error, e.g. 1/2.")
@click.option("--delta-min", type=int, required=True, help="Required min right degree.")
@click.option("--t", type=int, required=True, help="Degree threshold prefix parameter.")
@click.option("--seed", type=int, required=True, help="Base search seed (u64).")
@click.option("--max-attempts", type=int, required=True, help="Sampled attempts before failing.")
@click.option("--budget", type=int, default=DEFAULT_MAX_SUBSETS, show_default=True,
              help="Max enumerated subsets per exact check.")
@click.option("--out", type=OUTPUT_FILE, required=True, help="Graph file to write.")
@click.option("--report", type=OUTPUT_FILE, help="Report file (default OUT.report.json).")
def build_random(n, d, m, epsilon, delta_min, t, seed, max_attempts, budget, out, report) -> None:
    """Search for a fully verified random table graph and write it."""
    out = Path(out)
    report_path = report or str(out) + ".report.json"
    head = {"command": "build-random", "config": _config_echo(), "generator_id": GENERATOR_ID}
    try:
        result = search_balanced(
            n, d, m, epsilon, delta_min, t, max_attempts, seed, max_subsets=budget
        )
    except BalancedSearchError as exc:
        _write_json(report_path, {
            **head, "found": False, "attempts": [r.to_dict() for r in exc.records],
        })
        raise CommandFailure(str(exc))
    save_graph(result.graph, out)
    _write_json(report_path, {
        **head,
        "found": True,
        "attempt": result.attempt,
        "attempt_seed": result.seed,
        "graph_digest": _file_digest(out),
        "reports": [r.to_dict() for r in result.reports],
        "attempts": [r.to_dict() for r in result.records],
    })
    click.echo(f"balanced graph found at attempt {result.attempt}; wrote {out}")


@cli.command("build-linear")
@config_option
@click.option("--n", type=int, required=True, help="Left label length in bits.")
@click.option("--epsilon", type=RATIONAL, required=True, help="Extractor error, e.g. 1/4.")
@click.option("--c", type=int, default=1, show_default=True,
              help="Output-shortening constant (m = n - c*d).")
@click.option("--kappa", type=float, default=1.0, show_default=True, help="Scale constant inside d.")
@click.option("--s", type=int, default=16, show_default=True, help="Field degree of the expansion.")
@click.option("--seed", type=int, help="Counter-expansion seed (u64).")
@click.option("--table", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="External expansion table file.")
@click.option("--out", type=OUTPUT_FILE, required=True, help="Graph file to write.")
def build_linear(n, epsilon, c, kappa, s, seed, table, out) -> None:
    """Build a linear-backend graph with derived dimensions and write it."""
    d, m = derive_dims(n, epsilon, c, kappa)
    if table is not None:
        expansion = SeedExpansion("external", s, m, table_path=str(table))
    elif seed is None:
        raise click.UsageError("build-linear needs --seed or --table")
    else:
        expansion = SeedExpansion("counter", s, m, seed=seed)
    graph = linear_graph(n, d, expansion)
    delta_blocks, t = derive_amplification(n, epsilon, d, c)
    if not linearity_check(graph, y=0):
        raise CommandFailure("linearity self-check failed on edge label 0")
    guarantee = delta_guarantee(graph, t, delta_blocks) if t - graph.a >= 1 else False
    save_graph(graph, out)
    click.echo(json.dumps({
        "d": d, "m": m, "Delta": delta_blocks, "t": t, "c": c, "kappa": kappa,
        "delta_guarantee": guarantee,
        "graph_digest": _file_digest(out),
    }, sort_keys=True))


@cli.command("verify")
@config_option
@click.option("--graph", type=INPUT_FILE, required=True, help="Graph file to verify.")
@click.option("--epsilon", type=RATIONAL, required=True, help="Extractor error bound.")
@click.option("--k-min", type=int, help="First prefix parameter (default 1).")
@click.option("--k-max", type=int, help="Last prefix parameter (default n).")
@click.option("--delta-min", type=int, help="Required min right degree at t.")
@click.option("--t", type=int, help="Degree threshold prefix parameter.")
@click.option("--budget", type=int, default=DEFAULT_MAX_SUBSETS, show_default=True,
              help="Max enumerated subsets per exact check.")
@click.option("--sampled-trials", type=int, help="Enable sampled fallback with this many trials.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for sampled checks.")
@click.option("--out", type=OUTPUT_FILE, help="Report file to write.")
def verify(graph, epsilon, k_min, k_max, delta_min, t, budget, sampled_trials, seed, out) -> None:
    """Check extractor deviations over a k-range plus the degree guarantee."""
    g = load_graph(graph)
    reports = []
    all_pass = True
    for k in range(max(k_min or 1, g.a + 1), (k_max or g.n) + 1):
        try:
            rep = verify_extractor_exact(g, k, epsilon, max_subsets=budget)
        except CapacityError:
            if sampled_trials is None:
                raise
            rep = verify_extractor_sampled(g, k, epsilon, sampled_trials, seed)
        reports.append(rep)
        all_pass = all_pass and rep.passed
    document = {
        "command": "verify",
        "config": _config_echo(),
        "graph_digest": _file_digest(graph),
        "reports": [r.to_dict() for r in reports],
    }
    if delta_min is not None and t is not None:
        if g.backend_kind == "linear":
            ok = delta_guarantee(g, t, delta_min, seed=seed)
            document["degree_report"] = {"kind": "delta-guarantee", "pass": ok,
                                         "t": t, "Delta": delta_min}
        else:
            rep = verify_min_degree(g, t, delta_min)
            ok = rep.passed
            document["degree_report"] = rep.to_dict()
        all_pass = all_pass and ok
    document["pass"] = all_pass
    if out:
        _write_json(out, document)
    click.echo("verify: PASS" if all_pass else "verify: FAIL")
    if not all_pass:
        raise CommandFailure("verification failed")


@cli.command("congestion")
@config_option
@click.option("--graph", type=INPUT_FILE, required=True, help="Graph file.")
@bset_options
@click.option("--epsilon", type=RATIONAL, required=True, help="Extractor error bound.")
@click.option("--t", type=int, required=True, help="Classification threshold.")
@click.option("--out", type=OUTPUT_FILE, required=True, help="Report file to write.")
def congestion(graph, epsilon, t, out, **source) -> None:
    """Classify a B-set into heavy right nodes and bad members."""
    g = load_graph(graph)
    report = congestion_report(g, _bset_members(g, **source), epsilon, t)
    _write_json(out, {
        "command": "congestion",
        "config": _config_echo(),
        "graph_digest": _file_digest(graph),
        "report": report.to_dict(),
    })
    click.echo(f"congestion: bad_fraction={report.bad_fraction} "
               f"{'PASS' if report.bound_ok else 'FAIL'}")
    if not report.bound_ok:
        raise CommandFailure("bad fraction exceeds 2*sqrt(epsilon)")


@cli.command("amplify")
@config_option
@click.option("--graph", type=INPUT_FILE, required=True, help="Graph file.")
@click.option("--epsilon", type=RATIONAL, required=True, help="Extractor error bound.")
@click.option("--delta-blocks", type=int, required=True, help="Left-neighbors per segment.")
@click.option("--t", type=int, required=True, help="Amplification prefix parameter.")
@click.option("--x", required=True, help="Input as hex (n bits).")
@click.option("--index", type=int, help="Emit only element i of the list.")
@bset_options
@click.option("--out", type=OUTPUT_FILE, help="List file to write.")
def amplify_cmd(graph, epsilon, delta_blocks, t, x, index, out, **source) -> None:
    """Emit the amplified list (or one indexed element) for an input."""
    g = load_graph(graph)
    params = BalanceParams(epsilon=epsilon, Delta=delta_blocks, t=t)
    value = from_hex(x, g.n)
    if index is not None:
        line = to_hex(list_element(g, params, value, index), g.n)
        if out:
            Path(out).write_text(line + "\n", encoding="utf-8")
        click.echo(line)
        return
    alist = amplify(g, params, value)
    if out:
        save_list(alist, out, _file_digest(graph))
    if source["bset"] or source["oracle"]:
        members = _bset_members(g, **source)
        if not members:
            raise ParameterError("survival scoring needs a non-empty B")
        fraction = survival_fraction(alist, members)
        ok = survival_ok(fraction, epsilon)
        click.echo(f"survival_fraction={fraction} {'PASS' if ok else 'FAIL'}")
        if not ok:
            raise CommandFailure("survival fraction below 1 - 2*sqrt(epsilon)")
    else:
        click.echo(f"list of {len(alist)} elements for x={x}")


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
    except BalexError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_FAILURE
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
