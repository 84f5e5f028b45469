"""The benchmark's workloads: which markets each one generates, which CLI
operations it runs on them, and how each operation's output is reduced to
its meaning and checked.

This module never imports sspwct at import time, so the parent process can
read the workload definitions without loading the program it measures.

Every input comes from ``variant = seed % VARIANTS``.  Expected outputs were
recorded once per variant (``run.py --record``) into ``expected.json``, so
every seed the benchmark accepts has a recorded answer.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VARIANTS = 16

#: ``sspwct oracle`` generator flags, pinned so that a change of the CLI's
#: defaults cannot change what the oracle battery measures.
ORACLE_GENERATOR_FLAGS = (
    "--agents", "4", "--branches", "2", "--cap-min", "1", "--cap-max", "3",
    "--contracts-min", "0", "--contracts-max", "2", "--density", "0.8",
    "--transfer-density", "0.5", "--location-policy", "random",
)


@dataclass(frozen=True)
class Op:
    """One CLI operation.  ``kind`` names its ``cli.<kind>_s`` span."""

    key: str
    kind: str
    argv: tuple[str, ...]
    market: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: set-up children per run; set-up time is the median over them
    setups: int
    #: (file name, GeneratorConfig keyword arguments) for each market
    markets: Callable[[int, bool], list[tuple[str, dict]]]
    ops: Callable[[int, bool, Path], list[Op]]


# Market sizes follow the ROADMAP's L and M, except that every branch gets
# the mean capacity of the ROADMAP's range instead of a random draw from it:
# with capacity=(20, 40) the total seat count, and with it the COM trace and
# peak RSS, varied by about 10% from seed to seed.


def _market_run_markets(variant: int, smoke: bool) -> list[tuple[str, dict]]:
    # size L: 800 agents, about 16k contracts, 7k COM steps
    size = dict(agents=30, branches=3, capacity=(3, 3)) if smoke else dict(
        agents=800, branches=20, capacity=(30, 30)
    )
    return [("L.json", dict(seed=1 + variant, **size))]


def _market_run_ops(variant: int, smoke: bool, work: Path) -> list[Op]:
    path = str(work / "L.json")
    return [Op("run-L", "run", ("run", path, "--policy", "lex", "--seed", "0"), "L.json")]


MARKET_TRACE_MARKETS = 3


def _market_trace_markets(variant: int, smoke: bool) -> list[tuple[str, dict]]:
    # size M: 200 agents, about 2k contracts each
    size = dict(agents=12, branches=3, capacity=(2, 2)) if smoke else dict(
        agents=200, branches=10, capacity=(15, 15)
    )
    return [
        (f"M{i}.json", dict(seed=100 + 10 * variant + i, **size))
        for i in range(MARKET_TRACE_MARKETS)
    ]


def first_zero_transfer_bit(doc: dict) -> tuple[str, int]:
    """The (branch, 1-based seat) that theorem 3 flips, pinned by the
    benchmark rather than left to the CLI's default choice."""
    for branch in sorted(doc["branches"], key=lambda b: b["id"]):
        for k, bit in enumerate(branch["transfer"], start=1):
            if bit == 0:
                return branch["id"], k
    raise ValueError("market has no zero transfer bit for theorem 3")


def _market_trace_ops(variant: int, smoke: bool, work: Path) -> list[Op]:
    ops: list[Op] = []
    for i, (name, _) in enumerate(_market_trace_markets(variant, smoke)):
        path = str(work / name)
        doc = json.loads((work / name).read_text(encoding="utf-8"))
        branch, slot = first_zero_transfer_bit(doc)
        stem = name.removesuffix(".json")
        ops += [
            Op(f"run-trace-{stem}", "run_trace",
               ("run", path, "--trace", "--policy", "lex", "--seed", "0"), name),
            Op(f"theorem3-{stem}", "experiment",
               ("experiment", path, "--theorem", "3", "--branch", branch, "--slot", str(slot)), name),
            Op(f"theorem5-{stem}", "experiment",
               ("experiment", path, "--theorem", "5", "--count", "2",
                "--seed", str(10 * variant + i)), name),
        ]
    return ops


#: 50-instance batches per pass; one batch's cost varies by about 15% with
#: its seed, so a pass runs several to keep passes of different seeds alike
ORACLE_BATCHES = 8


def _oracle_ops(variant: int, smoke: bool, work: Path) -> list[Op]:
    ops = []
    for j in range(ORACLE_BATCHES):
        seed = 7 + 50 * (ORACLE_BATCHES * variant + j)
        argv = (
            "oracle", "--gen", "--count", "3" if smoke else "50", "--suite", "all",
            "--seed", str(seed), "--bound", "8", "--trials", "20", "--jobs", "1",
        ) + ORACLE_GENERATOR_FLAGS
        ops.append(Op(f"oracle-{j}", "oracle", argv))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("market-run", 3, _market_run_markets, _market_run_ops),
        Workload("market-trace", 9, _market_trace_markets, _market_trace_ops),
        # its set-up only imports sspwct (about 0.05 s), so it takes many
        Workload("oracle-battery", 25, lambda variant, smoke: [], _oracle_ops),
    )
}


# -- meaning of an operation's output --


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def summarize(op: Op, exit_code: int | None, doc: dict | None) -> dict:
    """Reduce an output document to what the benchmark compares.

    Only the fields named here are read, so keys that a later version adds
    to the JSON output are not a difference.
    """
    summary: dict = {"exit": exit_code}
    if doc is None:
        return summary
    if op.kind in ("run", "run_trace"):
        summary["outcome"] = _digest(sorted(doc["outcome"]))
        summary["outcome_size"] = len(doc["outcome"])
    if op.kind == "run_trace":
        steps = [[s["t"], s["agent"], s["contract"], s["verdict"]] for s in doc["trace"]]
        summary["steps"] = _digest(steps)
        summary["step_count"] = len(steps)
    if op.kind == "experiment":
        summary["verdict"] = doc["verdict"]
        summary["per_agent"] = _digest(sorted(doc["per_agent"].items()))
    if op.kind == "oracle":
        summary["verdicts"] = sorted(
            [v["property"], v["status"], v["instances_checked"]] for v in doc["verdicts"]
        )
    return summary


def trace_problems(doc: dict, branch_of: dict[str, str]) -> list[str]:
    """Independent check of a ``run --trace`` log: steps count up from 1,
    and every step's pools are exactly the contracts proposed to each
    branch so far."""
    pools: dict[str, set] = {}
    for t, step in enumerate(doc["trace"], start=1):
        if step["t"] != t:
            return [f"step {t} is numbered {step['t']}"]
        if step["verdict"] not in ("held", "rejected"):
            return [f"step {t} has verdict {step['verdict']!r}"]
        pools.setdefault(branch_of[step["contract"]], set()).add(step["contract"])
        reported = {b: set(p) for b, p in step["pools"].items() if p}
        if reported != pools:
            return [f"step {t}: pools differ from the contracts proposed so far"]
    return []
