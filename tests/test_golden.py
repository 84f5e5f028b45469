"""Golden CLI outputs: each command's stdout bytes and exit code, as
recorded in ``tests/golden/``, must come back unchanged.

The market is ``gen.json`` (12 agents, 3 branches, capacities 2-4, mixed
transfer bits), itself the recorded output of the ``gen`` case; ``verify``
reads the recorded ``run`` output.  ``experiment-3-chain`` reads the
``gen-chain`` market, on which flipping (b03, 4) runs the improvement
chain walk that ``gen.json``'s theorem-3 experiment never reaches.  To
record the files afresh, run ``PYTHONPATH=src python tests/test_golden.py``.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sspwct.cli import main

GOLDEN = Path(__file__).with_name("golden")
MARKET = str(GOLDEN / "gen.json")
CASES = {
    "gen": ["gen", "--seed", "7", "--agents", "12", "--branches", "3", "--cap-min", "2", "--cap-max", "4"],
    "run": ["run", MARKET],
    "run-trace-lex": ["run", MARKET, "--trace"],
    "run-trace-random-5": ["run", MARKET, "--trace", "--policy", "random", "--seed", "5"],
    "verify": ["verify", MARKET, str(GOLDEN / "run.json")],
    **{f"experiment-{t}": ["experiment", MARKET, "--theorem", str(t)] for t in (3, 4, 5, 6)},
    "oracle": ["oracle", "--gen", "--count", "5", "--suite", "all", "--seed", "7"],
    "gen-chain": ["gen", "--seed", "37", "--agents", "16", "--branches", "3", "--cap-min", "4", "--cap-max", "6",
                  "--density", "0.4"],
    "experiment-3-chain": ["experiment", str(GOLDEN / "gen-chain.json"), "--theorem", "3", "--branch", "b03",
                           "--slot", "4"],
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _run(CASES[name]) == (_exit_codes()[name], (GOLDEN / f"{name}.json").read_bytes())


def test_golden_files_stay_small():
    assert sum(p.stat().st_size for p in GOLDEN.iterdir()) < 200_000


def record() -> None:
    """Write every case's stdout and exit code; each ``gen`` case before
    the cases that read its output as their market."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.json").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
