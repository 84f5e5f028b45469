"""Command-line surface: run the mechanism, verify outcomes, run the oracle
battery, run comparative-statics experiments, and generate instances.

Each command's handler returns its JSON document (None when nothing goes
to stdout) and whether its checks passed; :func:`main` alone writes the
document to stdout and turns the verdict into the exit code.  Diagnostics
go to stderr.  Exit codes: 0 on success, 1 when the reader closed stdout
early (nothing goes to stderr), 2 on bad input (exactly
:class:`~sspwct.model.InputError`), 3 when a requested check does not pass:
an oracle verdict of fail or vacuous, an unstable outcome, a comparison
verdict of violates, or an improvement chain that disagrees with the
mechanism.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Sequence

from . import comparative, generator, oracles
from .mechanism import DEFAULT_BLOCKING_BOUND, POLICY_LEX, POLICY_RANDOM, cumulative_offer, stability_report
from .model import (
    InputError,
    Instance,
    canonical_json,
    instance_to_dict,
    outcome_violations,
    parse_instance,
    serialize_instance,
    validate_instance,
)

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_INVALID = 2
EXIT_FAIL_VERDICT = 3


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "rb") as fh:
            inst = parse_instance(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    problems = validate_instance(inst)
    if problems:
        raise InputError(f"invalid instance {path}:\n" + "\n".join(f"  {v}" for v in problems))
    return inst


def _load_outcome(path: str, inst: Instance) -> frozenset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: undecodable or malformed JSON
        raise InputError(f"cannot read outcome {path}: {exc}")
    except RecursionError:
        raise InputError(f"cannot read outcome {path}: arrays or objects nested too deeply")
    # accept both a bare outcome file and the run command's own output
    if not isinstance(doc, dict) or ("assignment" not in doc and "outcome" not in doc):
        raise InputError(
            f"outcome {path}: expected an object with an 'assignment' (or 'outcome') array"
        )
    assignment = doc.get("assignment", doc.get("outcome"))
    if not isinstance(assignment, list) or not all(isinstance(x, str) for x in assignment):
        raise InputError(f"outcome {path}: 'assignment' must be an array of contract ids")
    problems = outcome_violations(inst, assignment)
    if problems:
        raise InputError(
            f"infeasible outcome {path}:\n" + "\n".join(f"  {v}" for v in problems)
        )
    return frozenset(assignment)


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("generator")
    config = generator.GeneratorConfig  # the one owner of the defaults
    g.add_argument("--agents", type=int, default=config.agents)
    g.add_argument("--branches", type=int, default=config.branches)
    g.add_argument("--cap-min", type=int, default=config.capacity[0])
    g.add_argument("--cap-max", type=int, default=config.capacity[1])
    g.add_argument("--contracts-min", type=int, default=config.contracts_per_pair[0])
    g.add_argument("--contracts-max", type=int, default=config.contracts_per_pair[1])
    g.add_argument("--density", type=float, default=config.density)
    g.add_argument("--transfer-density", type=float, default=config.transfer_density)
    g.add_argument(
        "--location-policy",
        choices=generator.LOCATION_POLICIES,
        default=config.location_policy,
    )
    g.add_argument(
        "--allow-empty-prefs",
        action="store_true",
        help="let agents come out with no acceptable contract",
    )


def _generator_config(args: argparse.Namespace) -> generator.GeneratorConfig:
    return generator.GeneratorConfig(
        seed=args.seed,
        agents=args.agents,
        branches=args.branches,
        capacity=(args.cap_min, args.cap_max),
        contracts_per_pair=(args.contracts_min, args.contracts_max),
        density=args.density,
        transfer_density=args.transfer_density,
        location_policy=args.location_policy,
        ensure_acceptable=not args.allow_empty_prefs,
    )


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise InputError(f"{flag} must be at least {least} (got {value})")


def _cmd_run(args: argparse.Namespace) -> tuple[dict, bool]:
    inst = _load_instance(args.instance)
    trace = cumulative_offer(inst, policy=args.policy, seed=args.seed)
    document = {"outcome": sorted(trace.outcome)}
    if args.trace:
        document["trace"] = trace.iter_steps()
    return document, True


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, bool]:
    _require_at_least("--bound", args.bound, 0)
    inst = _load_instance(args.instance)
    outcome = _load_outcome(args.outcome, inst)
    report = stability_report(inst, outcome, bound=args.bound)
    block = report.blocking
    document = {
        "individually_rational": report.individually_rational,
        "blocking": None if block is None else {"branch": block[0], "contracts": sorted(block[1])},
        "stable": report.stable,
    }
    return document, report.stable


def _cmd_oracle(args: argparse.Namespace) -> tuple[dict, bool]:
    if args.instance is not None and args.gen:
        raise InputError("give either an instance file or --gen, not both")
    if args.instance is None and not args.gen:
        raise InputError("oracle needs an instance file or --gen")
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise InputError("--suite names no suite")
    oracles.requested_suites(suites)
    _require_at_least("--bound", args.bound, 0)
    _require_at_least("trials", args.trials, 1)  # run_suite's text, checked before any instance
    _require_at_least("jobs", args.jobs, 1)
    if args.gen:
        _require_at_least("--count", args.count, 1)
        instances = generator.generate_batch(_generator_config(args), args.count)
    else:
        instances = [_load_instance(args.instance)]
    verdicts = oracles.run_suite(
        instances, suites, trials=args.trials, seed=args.seed, bound=args.bound, jobs=args.jobs
    )
    document = {"instances": len(instances), "verdicts": [v.to_json() for v in verdicts]}
    return document, all(v.ok for v in verdicts)


def _pick_zero_bit(inst: Instance, branch: str | None) -> tuple[str, int]:
    """The first zero transfer bit of ``branch``, or of any branch if None."""
    for b in inst.branches if branch is None else [branch]:
        for k, bit in enumerate(inst.branches[b].transfer, start=1):
            if bit == 0:
                return b, k
    where = "" if branch is None else f" of branch {branch}"
    raise InputError(f"every transfer bit{where} is already 1; nothing to relax")


def _cmd_experiment(args: argparse.Namespace) -> tuple[dict, bool]:
    inst = _load_instance(args.instance)
    if args.branch is not None and args.branch not in inst.branches:
        raise InputError(
            f"unknown branch {args.branch!r}; the instance has {', '.join(inst.branches)}"
        )
    if args.agent is not None and args.agent not in inst.agents:
        raise InputError(f"unknown agent {args.agent!r}")
    rng = random.Random(args.seed)
    chain_matches = None  # theorem 3's improvement chain against the mechanism
    if args.theorem == 3:
        if args.slot is None:
            branch, k = _pick_zero_bit(inst, args.branch)
        elif args.branch is None:
            raise InputError(f"--slot {args.slot} needs --branch to name its branch")
        else:
            branch, k = args.branch, args.slot
        report = comparative.flexibility_compare(inst, branch, k)
        chain: dict = {"attempted": False, "matches_modified": None, "outcome": None}
        try:
            chain_outcome = comparative.improvement_chain(inst, report, branch, k)
            chain_matches = chain_outcome == report.modified
            chain = {"attempted": True, "matches_modified": chain_matches, "outcome": sorted(chain_outcome)}
        except comparative.PreconditionUnmet:
            pass
        extra = {"flipped": {"branch": branch, "slot": k}, "chain": chain}
    elif args.theorem == 4:
        if not inst.branches:
            raise InputError("cannot add a seat: the instance has no branch")
        branch = args.branch if args.branch is not None else sorted(inst.branches)[0]
        ranking = comparative.random_slot_ranking(inst, branch, rng)
        report = comparative.add_original_slot(inst, branch, ranking, args.position)
        extra = {"added_slot": {"branch": branch, "ranking": list(ranking), "position": args.position}}
    else:
        _require_at_least("--count", args.count, 1)
        mode = comparative.MODE_BOTTOM if args.theorem == 5 else comparative.MODE_SINGLE_AGENT
        additions = comparative.random_added_contracts(
            inst, rng, mode, count=args.count, agent=args.agent
        )
        report = comparative.add_contracts(inst, additions, mode)
        extra = {"added_contracts": [
            {
                "id": a.contract.id,
                "agent": a.contract.agent,
                "branch": a.contract.branch,
                "pref_position": a.pref_position,
                "slots": {str(slot): pos for slot, pos in sorted(a.slot_positions.items())},
            }
            for a in additions
        ]}
    ok = report.verdict != comparative.VIOLATES and chain_matches is not False
    return {**report.to_json(), **extra}, ok


def _cmd_gen(args: argparse.Namespace) -> tuple[dict | None, bool]:
    inst = generator.generate_instance(_generator_config(args))
    if args.out is None:
        return instance_to_dict(inst), True
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(inst))
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    return None, True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and then shared: its
    actions and groups refer to each other, so a parser per call would
    leave a cycle of garbage behind every call."""
    parser = argparse.ArgumentParser(
        prog="sspwct",
        description="Slot-specific priorities with capacity transfers: mechanism, oracles, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the cumulative offer mechanism on an instance")
    p_run.add_argument("instance")
    p_run.add_argument("--trace", action="store_true", help="include the step-by-step log")
    p_run.add_argument("--policy", choices=[POLICY_LEX, POLICY_RANDOM], default=POLICY_LEX)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check an outcome file for stability")
    p_verify.add_argument("instance")
    p_verify.add_argument("outcome")
    p_verify.add_argument("--bound", type=int, default=DEFAULT_BLOCKING_BOUND)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="run property checks on an instance or a generated batch")
    p_oracle.add_argument("instance", nargs="?")
    p_oracle.add_argument("--gen", action="store_true", help="generate the batch instead of reading a file")
    p_oracle.add_argument("--count", type=int, default=20, help="batch size for --gen")
    p_oracle.add_argument("--suite", default="all", help="comma-separated: " + ",".join(oracles.ALL_SUITES))
    p_oracle.add_argument("--trials", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument(
        "--bound", type=int, default=oracles.EXHAUSTIVE_BOUND, help="exhaustive enumeration cap per branch"
    )
    p_oracle.add_argument("--jobs", type=int, default=1)
    _add_generator_flags(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_exp = sub.add_parser("experiment", help="comparative statics on one instance")
    p_exp.add_argument("instance")
    p_exp.add_argument("--theorem", type=int, choices=[3, 4, 5, 6], required=True)
    p_exp.add_argument("--branch")
    p_exp.add_argument("--slot", type=int, help="1-based transfer bit to flip (theorem 3)")
    p_exp.add_argument("--position", type=int, help="precedence position of the added seat (theorem 4)")
    p_exp.add_argument("--agent", help="owner of the added contracts (theorem 6)")
    p_exp.add_argument("--count", type=int, default=1, help="contracts to add (theorems 5, 6)")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.set_defaults(func=_cmd_experiment)

    p_gen = sub.add_parser("gen", help="generate a random valid instance")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path (default: stdout)")
    _add_generator_flags(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document, ok = args.func(args)
        if document is not None:  # an iterator in it goes out one item at a time
            canonical_json(document, sys.stdout.write)
            sys.stdout.write("\n")
        sys.stdout.flush()
        return EXIT_OK if ok else EXIT_FAIL_VERDICT
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # the reader closed stdout (``| head``): what is left goes to devnull,
        # so the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
