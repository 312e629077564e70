"""Pinned SHA-256 digests of the artifacts a fixed sequence of commands writes.

Every step runs in one temporary directory with relative file names, so the
names a report echoes are the same on every machine.  A step pins its exit
code, its stdout and the digest of each file it writes; the pins live in
``artifact_digests.json``.  A change that alters any artifact byte, exit code
or stdout line fails here.  After an intended artifact change, rewrite the
pins with ``PYTHONPATH=src python tests/test_artifact_digests.py`` and give
the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import balex
from balex.cli import main as cli_main
from balex.lineargraph import save_pair_table

PINS = Path(__file__).with_name("artifact_digests.json")

README_BUILD = ("build-random", "--n", 4, "--d", 3, "--m", 4, "--epsilon", "1/2",
                "--delta-min", 2, "--t", 3, "--seed", 7)
AMPLIFY = ("amplify", "--graph", "graph.bgex", "--epsilon", "1/2", "--delta-blocks", 2,
           "--t", 3, "--x", "b")


def _write_inputs() -> None:
    balex.save_bset(balex.oracles.explicit_bset(4, 2, {0, 3, 7, 12}), "b.bset")
    # n=12, eps=1/4, kappa=0.02 derives d=4, m=8: 16 labels of 8 pairs over GF(2^8)
    pairs = [[((37 * y + 11 * i + 1) % 256, (91 * y + 53 * i + 7) % 256) for i in range(8)]
             for y in range(16)]
    save_pair_table("pairs.json", s=8, m=8, pairs=pairs)


# (step name, CLI arguments or None for the input files, files the step writes)
STEPS = [
    ("inputs", None, ["b.bset", "pairs.json"]),
    ("readme-build-random", README_BUILD + ("--max-attempts", 100000, "--out", "graph.bgex"),
     ["graph.bgex", "graph.bgex.report.json"]),
    ("readme-verify", ("verify", "--graph", "graph.bgex", "--epsilon", "1/2", "--delta-min", 2,
                       "--t", 3, "--out", "report.json"), ["report.json"]),
    ("readme-build-linear", ("build-linear", "--n", 64, "--epsilon", "1/4", "--kappa", 0.015625,
                             "--s", 16, "--seed", 9, "--out", "lin.bgex"), ["lin.bgex"]),
    ("readme-congestion", ("congestion", "--graph", "graph.bgex", "--bset", "b.bset",
                           "--epsilon", "1/2", "--t", 3, "--out", "congestion.json"),
     ["congestion.json"]),
    ("readme-amplify", AMPLIFY + ("--out", "list.txt"), ["list.txt"]),
    ("readme-amplify-index", AMPLIFY + ("--index", 5), []),
    ("criterion9-build-random", README_BUILD + ("--max-attempts", 1000, "--out", "g9.bgex"),
     ["g9.bgex", "g9.bgex.report.json"]),
    ("criterion9-build-linear", ("build-linear", "--n", 32, "--epsilon", "1/4", "--kappa", 0.02,
                                 "--s", 8, "--seed", 11, "--out", "lin32.bgex"), ["lin32.bgex"]),
    ("congestion-compressor", ("congestion", "--graph", "graph.bgex", "--oracle", "compressor",
                               "--k", 5, "--epsilon", "1/2", "--t", 3,
                               "--out", "congestion-compressor.json"),
     ["congestion-compressor.json"]),
    ("amplify-compressor", AMPLIFY + ("--oracle", "compressor", "--k", 5), []),
    ("amplify-index-out", AMPLIFY + ("--index", 11, "--out", "element.txt"), ["element.txt"]),
    ("build-linear-12", ("build-linear", "--n", 12, "--epsilon", "1/4", "--kappa", 0.02,
                         "--s", 8, "--seed", 42, "--out", "lin12.bgex"), ["lin12.bgex"]),
    ("verify-sampled-linear", ("verify", "--graph", "lin12.bgex", "--epsilon", "1/2",
                               "--k-min", 6, "--k-max", 6, "--sampled-trials", 3, "--seed", 1,
                               "--budget", 1000, "--delta-min", 16, "--t", 10,
                               "--out", "verify-sampled.json"), ["verify-sampled.json"]),
    ("build-linear-table", ("build-linear", "--n", 12, "--epsilon", "1/4", "--kappa", 0.02,
                            "--s", 8, "--table", "pairs.json", "--out", "linext.bgex"),
     ["linext.bgex"]),
    ("amplify-linear-table", ("amplify", "--graph", "linext.bgex", "--epsilon", "1/4",
                              "--delta-blocks", 4, "--t", 10, "--x", "5a3",
                              "--out", "linext-list.txt"), ["linext-list.txt"]),
    ("build-random-not-found", ("build-random", "--n", 4, "--d", 1, "--m", 4,
                                "--epsilon", "1/100", "--delta-min", 2, "--t", 3, "--seed", 3,
                                "--max-attempts", 3, "--out", "none.bgex"),
     ["none.bgex.report.json"]),
]


def _digest(path: str) -> str | None:
    """SHA-256 of the file, None when the step did not write it."""
    file = Path(path)
    return hashlib.sha256(file.read_bytes()).hexdigest() if file.exists() else None


def run_steps() -> dict:
    """Run every step in a fresh temporary directory; the pins it yields."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, args, files in STEPS:
                stdout = StringIO()
                with redirect_stdout(stdout):
                    code = _write_inputs() if args is None else cli_main([str(a) for a in args])
                out[name] = {"exit": code, "stdout": stdout.getvalue(),
                             "files": {f: _digest(f) for f in files}}
        finally:
            os.chdir(cwd)
    return out


def test_artifacts_match_pinned_digests():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = run_steps()
    assert list(got) == list(pinned)
    for name in pinned:
        assert got[name] == pinned[name], name


if __name__ == "__main__":
    PINS.write_text(json.dumps(run_steps(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
