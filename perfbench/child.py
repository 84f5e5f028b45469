"""One fresh interpreter of the benchmark, started by run.py.

``setup`` imports sspwct, generates the workload's markets and writes them
to the work directory.  ``ops`` runs the workload's CLI operations once
through ``sspwct.cli.main``, each writing its standard output to a file as a
shell redirect would, then checks every output.  Either mode prints one JSON
line.  A fresh process per pass keeps ``ru_maxrss`` and the GC state its
own.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import GcClock, Tracer
from workloads import WORKLOADS, Op, summarize, trace_problems

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"


def import_program() -> None:
    """Import sspwct from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sspwct

    if not Path(sspwct.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sspwct was imported from {sspwct.__file__}, not from {SRC}")


def setup(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    import_program()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    from sspwct import generator, model

    for name, config in WORKLOADS[args.workload].markets(args.variant, args.smoke):
        inst = generator.generate_instance(generator.GeneratorConfig(**config))
        (args.work / name).write_text(model.serialize_instance(inst), encoding="utf-8")
    return {"setup_s": time.perf_counter() - start, "layers": tracer.report() if tracer else {}}


def _call(main, argv: tuple[str, ...]) -> int | None:
    """Exit code of one CLI call; None if it raised."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return None


def operations(args: argparse.Namespace) -> dict:
    import_program()
    from sspwct import cli

    ops = WORKLOADS[args.workload].ops(args.variant, args.smoke, args.work)
    gc_clock = GcClock() if args.gc else None
    if gc_clock:
        gc_clock.install()
    tracer = Tracer(memory=args.memory) if args.trace else None
    if tracer:
        tracer.install()

    exits: dict[str, int | None] = {}
    start = time.perf_counter()
    for op in ops:
        op_start = time.perf_counter()
        with open(args.work / f"{op.key}.out", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            exits[op.key] = _call(cli.main, op.argv)
        if tracer:
            tracer.add(f"cli.{op.kind}_s", time.perf_counter() - op_start)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc_pauses = {"gc_s": gc_clock.seconds, "gc.collections": gc_clock.collections} if gc_clock else {}

    layers = {}
    if tracer:
        for op in ops:
            tracer.add("cli.stdout_bytes", (args.work / f"{op.key}.out").stat().st_size)
        layers = tracer.report()
        tracer.enabled = False

    expected = None
    if not args.record:
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
        expected = recorded[args.workload]["smoke" if args.smoke else "full"][str(args.variant)]
    summaries, failures = check(ops, exits, args.work, expected)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(ops),
        "failures": failures,
        "layers": layers,
        **gc_pauses,
    }
    if args.record:
        result["summaries"] = summaries
    return result


def check(ops: list[Op], exits: dict, work: Path, expected: dict | None) -> tuple[dict, list[str]]:
    """Summarize every output, compare it with the recorded expectation and
    run the independent checks.  Returns the summaries and one line per
    failed operation."""
    from sspwct.mechanism import is_individually_rational
    from sspwct.model import outcome_violations, parse_instance

    instances: dict = {}
    run_outcomes: dict[str, frozenset] = {}
    summaries: dict[str, dict] = {}
    failures: list[str] = []
    for op in ops:
        problems: list[str] = []
        if exits[op.key] is None:
            problems.append("raised")
        text = (work / f"{op.key}.out").read_text(encoding="utf-8")
        try:
            doc = json.loads(text) if text.strip() else None
            summary = summarize(op, exits[op.key], doc)
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"unreadable output ({exc!r})")
            doc, summary = None, {"exit": exits[op.key]}
        summaries[op.key] = summary
        if expected is not None and summary != expected.get(op.key):
            fields = sorted(k for k in set(summary) | set(expected.get(op.key, {}))
                            if summary.get(k) != expected.get(op.key, {}).get(k))
            problems.append(f"differs from the recorded output in {', '.join(fields)}")

        if doc is not None and op.market is not None:
            if op.market not in instances:
                instances[op.market] = parse_instance((work / op.market).read_bytes())
            inst = instances[op.market]
            try:
                if op.kind in ("run", "run_trace"):
                    outcome = frozenset(doc["outcome"])
                    run_outcomes[op.market] = outcome
                    violations = outcome_violations(inst, outcome)
                    problems += violations
                    if not violations and not is_individually_rational(inst, outcome):
                        problems.append("outcome is not individually rational")
                if op.kind == "run_trace":
                    branch_of = {c.id: c.branch for c in inst.contracts}
                    problems += trace_problems(doc, branch_of)
                if op.kind == "experiment" and op.market in run_outcomes:
                    if frozenset(doc["baseline"]) != run_outcomes[op.market]:
                        problems.append("baseline differs from the outcome of run")
            except (KeyError, TypeError) as exc:
                problems.append(f"malformed output ({exc!r})")
        if problems:
            failures.append(f"{op.key}: {'; '.join(problems)}")
    return summaries, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "ops"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true", help="per-layer spans")
    parser.add_argument("--memory", action="store_true", help="with --trace, run COM under tracemalloc")
    parser.add_argument("--gc", action="store_true", help="time GC pauses through gc.callbacks")
    parser.add_argument("--record", action="store_true", help="return summaries, compare nothing")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else operations(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
