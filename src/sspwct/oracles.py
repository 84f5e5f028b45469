"""Executable verification of the theory behind the choice rules and the
mechanism: completion agreement, substitutability, irrelevance of rejected
contracts, law of aggregate demand, strategy-proofness, respect for
improvements, and proposal-order independence.

Each check is exhaustive within an explicit bound or randomized with an
explicit seed.  It yields one item per elementary check, ``None`` when the
check held and a witness payload when it failed, and :func:`_verdict` turns
that stream into a :class:`PropertyVerdict`: ``"fail"`` at the first
witness, else ``"pass"``, or ``"vacuous"`` when nothing was checked.  A
witness can be replayed through the public API to reproduce the violation.

The checks that take a ``rule`` accept any callable with the signature of
``completion_choose``; tests exploit this to confirm that each oracle
actually fires on deliberately corrupted rules.

The checks of one :func:`run_suite_on_instance` call share the work they
repeat on its instance (see :class:`_Shared`): the truthful ``lex`` run,
and one choice table per (config, rule) that holds the rule's choice from
every offer set, indexed by the set's bitmask.  A check called on its own
does its own work.
"""
from __future__ import annotations

import random
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .choice import ChoiceResult, completion_choose, sspwct_choose
from .mechanism import (
    DEFAULT_BLOCKING_BOUND,
    ComState,
    InstanceTooLarge,
    branch_universe,
    cumulative_offer,
    holdings,
    stability_report,
)
from .model import AgentId, BranchConfig, BranchId, Contract, ContractId, InputError, Instance, Outcome

ChoiceRule = Callable[[BranchConfig, Iterable[ContractId], Mapping[ContractId, Contract]], ChoiceResult]

#: Cap on a branch's contract universe for the per-branch checks, which
#: enumerate all of its subsets.
EXHAUSTIVE_BOUND = 8
MISREPORT_BOUND = 4


@dataclass(frozen=True)
class PropertyVerdict:
    name: str
    status: str  # "pass", "fail", or "vacuous" when nothing was checked (see _verdict)
    witness: Mapping | None
    instances_checked: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "status": self.status,
            "witness": dict(self.witness) if self.witness is not None else None,
            "instances_checked": self.instances_checked,
        }


def _verdict(name: str, witnesses: Iterable[Mapping | None]) -> PropertyVerdict:
    """The verdict on a stream of elementary checks, each ``None`` when it
    held or its witness when it failed: ``"fail"`` at the first witness,
    which stops the stream, else ``"pass"``, or ``"vacuous"`` (not
    :attr:`~PropertyVerdict.ok`) when the stream was empty.
    ``instances_checked`` counts the items read."""
    checked = 0
    for checked, witness in enumerate(witnesses, start=1):
        if witness is not None:
            return PropertyVerdict(name, "fail", witness, checked)
    return PropertyVerdict(name, "pass" if checked else "vacuous", None, checked)


def merge_verdicts(name: str, verdicts: Sequence[PropertyVerdict]) -> PropertyVerdict:
    """One verdict for a batch by the rule of :func:`_verdict`, with each
    verdict that checked something as one item: the first failure's
    witness, else a pass, or ``"vacuous"`` when nothing was checked;
    ``instances_checked`` sums every verdict's count."""
    merged = _verdict(name, (
        v.witness or {} if v.status == "fail" else None
        for v in verdicts
        if v.status == "fail" or v.instances_checked
    ))
    return replace(merged, instances_checked=sum(v.instances_checked for v in verdicts))


def _offer_sets(universe: Sequence[ContractId]) -> Iterator[tuple[int, tuple[ContractId, ...]]]:
    """Every offer set, each subset of the branch's contracts ``universe``
    (in id order) by size, then lexicographically, as its bitmask, where
    bit i stands for ``universe[i]``, and its contracts in id order."""
    bits = [1 << i for i in range(len(universe))]
    for size in range(len(universe) + 1):
        yield from zip(map(sum, combinations(bits, size)), combinations(universe, size))


class _Shared:
    """The work on one instance that the checks of one
    :func:`run_suite_on_instance` call share, each piece done on first use:
    the truthful ``lex`` outcome and one choice table per (config, rule).
    It lives only as long as that call."""

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.tables = {}  # (config, rule) -> its choice table

    @cached_property
    def truthful_outcome(self) -> Outcome:
        return cumulative_offer(self.inst).outcome

    def table(
        self, cfg: BranchConfig, bound: int, what: str, rule: ChoiceRule
    ) -> tuple[tuple[ContractId, ...], list[frozenset]]:
        """The branch's contracts, checked against ``bound`` first (see
        :func:`~sspwct.mechanism.branch_universe`), and what ``rule``
        chooses at ``cfg`` from each of their offer sets (see
        :func:`_offer_sets`), indexed by its bitmask, each chosen set as the
        rule returned it."""
        universe = branch_universe(self.inst, cfg.id, bound, what)
        if (cfg, rule) not in self.tables:
            table = [frozenset()] * (1 << len(universe))
            for mask, offers in _offer_sets(universe):
                table[mask] = rule(cfg, frozenset(offers), self.inst.contract_index).chosen
            self.tables[cfg, rule] = table
        return universe, self.tables[cfg, rule]


_SHARED = ContextVar("_SHARED", default=None)  # the running suite's _Shared


def _shared(inst: Instance) -> _Shared:
    """The running suite's shared work when it runs on ``inst``; else fresh
    work, so that a check called on its own does its own."""
    shared = _SHARED.get()
    return shared if shared is not None and shared.inst is inst else _Shared(inst)


# -- choice-rule properties --


def check_completion(
    inst: Instance,
    branch: BranchId,
    bound: int = EXHAUSTIVE_BOUND,
    rule: ChoiceRule = sspwct_choose,
    completion_rule: ChoiceRule = completion_choose,
) -> PropertyVerdict:
    """For every offer set, the completion either agrees with the base rule
    or holds two contracts of one agent."""
    cfg = inst.branches[branch]
    shared = _shared(inst)
    universe, base = shared.table(cfg, bound, "the completion check", rule)
    _, completion = shared.table(cfg, bound, "the completion check", completion_rule)
    return _verdict("completion", (
        {
            "branch": branch,
            "offers": list(offers),
            "chosen": sorted(base[m]),
            "completion": sorted(comp),
        } if comp != base[m] and len({inst.contract_index[c].agent for c in comp}) == len(comp) else None
        for m, offers in _offer_sets(universe)
        for comp in [completion[m]]
    ))


def check_substitutability(
    inst: Instance,
    branch: BranchId,
    bound: int = EXHAUSTIVE_BOUND,
    rule: ChoiceRule = completion_choose,
) -> PropertyVerdict:
    """Once rejected, always rejected: z out of C(Y + z) implies z out of
    C(Y + z + z'), for every Y, z, z'."""
    universe, table = _shared(inst).table(inst.branches[branch], bound, "the substitutability check", rule)
    positions = range(len(universe))
    return _verdict("substitutability", (
        {
            "branch": branch,
            "base_offers": list(offers),
            "rejected": universe[z],
            "added": universe[z2],
            "chosen_after": sorted(table[m | 1 << z2]),
        } if universe[z] in table[m | 1 << z2] else None
        for m, offers in _offer_sets(universe)
        for z in positions if m >> z & 1 and universe[z] not in table[m]
        for z2 in positions if not m >> z2 & 1
    ))


def check_irc(
    inst: Instance,
    branch: BranchId,
    bound: int = EXHAUSTIVE_BOUND,
    rule: ChoiceRule = completion_choose,
) -> PropertyVerdict:
    """Dropping a rejected contract never changes the chosen set."""
    universe, table = _shared(inst).table(inst.branches[branch], bound, "the IRC check", rule)
    return _verdict("irc", (
        {
            "branch": branch,
            "offers": list(offers),
            "removed": universe[x],
            "chosen": sorted(table[m]),
            "chosen_without": sorted(table[m ^ 1 << x]),
        } if table[m ^ 1 << x] != table[m] else None
        for m, offers in _offer_sets(universe)
        for x in range(len(universe)) if m >> x & 1 and universe[x] not in table[m]
    ))


def check_lad(
    inst: Instance,
    branch: BranchId,
    bound: int = EXHAUSTIVE_BOUND,
    rule: ChoiceRule = completion_choose,
) -> PropertyVerdict:
    """Law of aggregate demand over one-element extensions, which implies
    the general nested-pair statement by induction."""
    universe, table = _shared(inst).table(inst.branches[branch], bound, "the LAD check", rule)
    return _verdict("lad", (
        {
            "branch": branch,
            "offers": list(offers),
            "removed": universe[x],
            "smaller_set_chose": sorted(table[m ^ 1 << x]),
            "larger_set_chose": sorted(table[m]),
        } if len(table[m ^ 1 << x]) > len(table[m]) else None
        for m, offers in _offer_sets(universe)
        for x in range(len(universe)) if m >> x & 1
    ))


# -- reduction to plain slot-specific priorities --


def slot_specific_reference(
    cfg: BranchConfig,
    offers: Iterable[ContractId],
    contracts: Mapping[ContractId, Contract],
) -> ChoiceResult:
    """Independently coded slot-specific priorities rule: original seats
    only, in precedence order, each taking its best remaining contract and
    knocking out the chosen agent's other contracts.  Kept deliberately
    separate from the main implementation so the all-zero-transfer reduction
    has a second opinion.  Only ``chosen`` is recorded (``seats`` is
    empty)."""
    offer_set = frozenset(offers)
    chosen: list[ContractId] = []
    taken_agents: set[str] = set()
    for ranking in cfg.original_priorities:
        for cid in ranking:
            if cid in offer_set and contracts[cid].agent not in taken_agents:
                chosen.append(cid)
                taken_agents.add(contracts[cid].agent)
                break
    return ChoiceResult(frozenset(chosen))


def check_slot_specific_reduction(
    inst: Instance, branch: BranchId, bound: int = EXHAUSTIVE_BOUND
) -> PropertyVerdict:
    """With every transfer bit forced to zero the full rule must coincide
    with the reference slot-specific rule on every offer set."""
    cfg = inst.branches[branch]
    zeroed = replace(cfg, transfer=(0,) * cfg.n)
    universe, ours = _shared(inst).table(zeroed, bound, "the reduction check", sspwct_choose)
    return _verdict("slot-specific-reduction", (
        {
            "branch": branch,
            "offers": list(offers),
            "sspwct": sorted(ours[m]),
            "reference": sorted(reference),
        } if ours[m] != reference else None
        for m, offers in _offer_sets(universe)
        for reference in [slot_specific_reference(zeroed, offers, inst.contract_index).chosen]
    ))


# -- strategy-proofness --


def misreports(universe: Sequence[ContractId]) -> Iterator[tuple[ContractId, ...]]:
    """All strict rankings of all subsets of the given contracts, including
    the empty report."""
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            yield from permutations(combo)


def check_strategy_proofness(inst: Instance) -> PropertyVerdict:
    """No agent can obtain a strictly better contract (by her true ranking)
    by reporting any alternative ranking of any subset of her contracts;
    refuses an agent with more than :data:`MISREPORT_BOUND` contracts.

    Each report replays only the steps it can change.  One truthful ``lex``
    run pauses at each agent's first turn, in id order; each of the agent's
    reports runs a :meth:`~sspwct.mechanism.ComState.fork` of it to the end,
    which is exact for any deterministic choice rule (see
    :mod:`sspwct.mechanism`).  A run in which she proposes only the first k
    contracts of her report reads her ranking only through those k and
    through whether it has more, so every later report that starts with
    the same k contracts and is longer than k reuses its holding.
    """
    for agent, owned in inst.contracts_of_agent.items():
        if len(owned) > MISREPORT_BOUND:
            raise InstanceTooLarge(
                f"agent {agent} has {len(owned)} contracts; misreport enumeration is "
                f"exhaustive and capped at {MISREPORT_BOUND}"
            )
    truthful = holdings(inst, _shared(inst).truthful_outcome)

    def deviations() -> Iterator[tuple[AgentId, tuple[ContractId, ...], ContractId | None]]:
        state = ComState(inst)
        for agent in inst.agents:
            truth = inst.preferences.get(agent, ())
            reports = [r for r in misreports(inst.contracts_of_agent.get(agent, ())) if r != truth]
            if reports:
                state.run(stop=agent)
            settled: dict[tuple[ContractId, ...], ContractId | None] = {}  # proposed prefix -> holding
            for report in reports:
                prefix = next((report[:k] for k in range(len(report)) if report[:k] in settled), None)
                if prefix is None:
                    deviation = state.fork(agent, report)
                    deviation.run()
                    held = holdings(inst, deviation.outcome).get(agent)
                    proposed = deviation.proposed[agent]
                    if proposed < len(report):
                        settled[report[:proposed]] = held
                else:
                    held = settled[prefix]
                yield agent, report, held

    return _verdict("strategy-proofness", (
        {
            "agent": agent,
            "misreport": list(report),
            "truthful_assignment": truthful.get(agent),
            "deviation_assignment": held,
        } if inst.prefers(agent, held, truthful.get(agent)) else None
        for agent, report, held in deviations()
    ))


# -- priority improvements --


def _split_ranking(ranking: Sequence[ContractId], agent: AgentId, inst: Instance) -> tuple[list, dict]:
    """One pass over a seat's ranking: the other agents' contracts in order,
    and for each of the agent's contracts how many of those rank above it."""
    others: list[ContractId] = []
    above: dict[ContractId, int] = {}
    for cid in ranking:
        if inst.contract_index[cid].agent == agent:
            above.setdefault(cid, len(others))
        else:
            others.append(cid)
    return others, above


def is_priority_improvement(base: Instance, improved: Instance, agent: AgentId) -> bool:
    """Pairwise check of the two improvement conditions on every slot:
    the agent's contracts only gain priority (and stay acceptable), while
    other agents' contracts keep their relative order and acceptability.
    A seat table without n rows on either side is no improvement; a shared
    branch config or an equal seat ranking meets both, and is not split."""
    if set(base.branches) != set(improved.branches):
        return False
    for b, cfg in base.branches.items():
        new_cfg = improved.branches[b]
        if (cfg.n, cfg.location, cfg.transfer) != (new_cfg.n, new_cfg.location, new_cfg.transfer) or any(
            (len(c.original_priorities), len(c.shadow_priorities)) != (c.n, c.n) for c in (cfg, new_cfg)
        ):
            return False
        if new_cfg is cfg:
            continue
        for old, new in zip(cfg.original_priorities + cfg.shadow_priorities,
                            new_cfg.original_priorities + new_cfg.shadow_priorities):
            if old == new:
                continue
            old_others, old_above = _split_ranking(old, agent, base)
            new_others, new_above = _split_ranking(new, agent, base)
            if old_others != new_others or any(
                cid not in new_above or new_above[cid] > count for cid, count in old_above.items()
            ):
                return False
    return True


def generate_improvement(inst: Instance, agent: AgentId, seed: int = 0) -> Instance:
    """Randomly promote the agent's contracts in slot priority orders.

    Applies between one and three single-contract promotions (each either
    moves a listed contract strictly up or inserts an unlisted one), which
    composes to an arbitrary improvement.  Returns ``inst`` itself when the
    agent has no contract or already tops every ranking it could appear in.
    """
    rng = random.Random(seed)
    moves = rng.randint(1, 3)
    mine: dict[BranchId, list[ContractId]] = {}
    for cid in inst.contracts_of_agent.get(agent, ()):
        mine.setdefault(inst.contract_index[cid].branch, []).append(cid)
    # her branches' seat rankings in ``cfg.slots()`` order; a promotion copies its row to a list
    rows = {b: list(c.original_priorities + c.shadow_priorities) for b, c in inst.branches.items() if b in mine}
    promoted = set()
    for _ in range(moves):
        # every contract of hers below the top of a ranking, or not in it
        options = [
            (b, i, cid) for b, table in rows.items() for i, ranking in enumerate(table)
            for cid in mine[b] if cid not in ranking[:1]
        ]
        if not options:
            break
        b, i, cid = rng.choice(options)
        ranking = rows[b][i] = list(rows[b][i])
        if cid in ranking:
            pos = ranking.index(cid)
            del ranking[pos]
            ranking.insert(rng.randrange(0, pos), cid)
        else:
            ranking.insert(rng.randint(0, len(ranking)), cid)
        promoted.add(b)
    if not promoted:
        return inst
    branches = dict(inst.branches)
    for b in promoted:
        cfg = branches[b]
        k = len(cfg.original_priorities)
        branches[b] = BranchConfig(cfg.id, cfg.n, cfg.location, cfg.transfer, rows[b][:k], rows[b][k:])
    return inst.with_branches(branches)


def check_respects_improvements(
    inst: Instance, agent: AgentId, trials: int = 20, seed: int = 0
) -> PropertyVerdict:
    """Raising the agent's priorities never makes her worse off under the
    mechanism, for ``trials`` randomly generated improvements.  A trial that
    returns the market itself is counted and reuses the baseline's holding."""
    base_cid = holdings(inst, _shared(inst).truthful_outcome).get(agent)

    def witness(trial_seed: int) -> dict | None:
        improved = generate_improvement(inst, agent, seed=trial_seed)
        if not is_priority_improvement(inst, improved, agent):
            raise RuntimeError(
                f"generated priority change for {agent} fails the improvement conditions"
            )
        new_cid = base_cid if improved is inst else (
            holdings(inst, cumulative_offer(improved).outcome).get(agent))
        if not inst.prefers(agent, base_cid, new_cid):
            return None
        return {
            "agent": agent,
            "seed": trial_seed,
            "baseline_assignment": base_cid,
            "improved_assignment": new_cid,
        }

    return _verdict("respects-improvements", map(witness, range(seed, seed + trials)))


# -- stability of the mechanism's outcome --


def check_stability(inst: Instance, bound: int = DEFAULT_BLOCKING_BOUND) -> PropertyVerdict:
    """The mechanism's outcome is feasible, individually rational, and
    survives the exhaustive blocking-set search (see
    :func:`~sspwct.mechanism.stability_report`).  The witness names the first
    of those that fails."""
    outcome = _shared(inst).truthful_outcome
    report = stability_report(inst, outcome, bound)
    witness: dict | None = None
    if not report.stable:
        witness = {"outcome": sorted(outcome)}
        if report.violations:
            witness["violations"] = list(report.violations)
        elif not report.individually_rational:
            witness["violations"] = ["not individually rational"]
        else:
            branch, contracts = report.blocking
            witness.update(blocking_branch=branch, blocking_set=sorted(contracts))
    return _verdict("stability", [witness])


# -- order independence --


def check_order_independence(inst: Instance, seeds: Sequence[int]) -> PropertyVerdict:
    """The outcome must not depend on who proposes when: the lexicographic
    policy and every seeded random policy must produce the same set."""
    reference = _shared(inst).truthful_outcome
    others = ((seed, cumulative_offer(inst, policy="random", seed=seed).outcome) for seed in seeds)
    return _verdict("order-independence", (
        {
            "seed": seed,
            "lexicographic_outcome": sorted(reference),
            "random_outcome": sorted(other),
        } if other != reference else None
        for seed, other in others
    ))


# -- suite runner --

#: suite name -> (the property its verdicts name, its checks on one
#: instance, given (inst, trials, seed, bound)).  Each entry calls its
#: ``check_*`` through the module global when it runs, so a rebinding of
#: that global (as a tracer or a test makes) reaches every suite run.
_SUITES: dict[str, tuple[str, Callable[[Instance, int, int, int], list[PropertyVerdict]]]] = {
    "completion": ("completion", lambda inst, trials, seed, bound: [
        check_completion(inst, b, bound) for b in inst.branches
    ]),
    "substitutability": ("substitutability", lambda inst, trials, seed, bound: [
        check_substitutability(inst, b, bound) for b in inst.branches
    ]),
    "irc": ("irc", lambda inst, trials, seed, bound: [check_irc(inst, b, bound) for b in inst.branches]),
    "lad": ("lad", lambda inst, trials, seed, bound: [check_lad(inst, b, bound) for b in inst.branches]),
    "reduction": ("slot-specific-reduction", lambda inst, trials, seed, bound: [
        check_slot_specific_reduction(inst, b, bound) for b in inst.branches
    ]),
    "stability": ("stability", lambda inst, trials, seed, bound: [check_stability(inst, bound)]),
    "strategy-proofness": ("strategy-proofness", lambda inst, trials, seed, bound: [
        check_strategy_proofness(inst)
    ]),
    "improvements": ("respects-improvements", lambda inst, trials, seed, bound: [
        check_respects_improvements(inst, agent, max(1, trials // max(1, len(inst.agents))), seed)
        for agent in inst.agents
    ]),
    "order-independence": ("order-independence", lambda inst, trials, seed, bound: [
        check_order_independence(inst, list(range(seed + 1, seed + 1 + trials)))
    ]),
}
ALL_SUITES = tuple(_SUITES)


def requested_suites(names: Sequence[str]) -> list[str]:
    """The suites ``names`` asks for, each once, ``"all"`` standing for
    every suite; an unknown name raises :class:`~sspwct.model.InputError`."""
    unknown = [s for s in names if s != "all" and s not in _SUITES]
    if unknown:
        raise InputError(f"unknown suite {unknown[0]!r}; expected one of {ALL_SUITES}")
    return list(ALL_SUITES) if "all" in names else list(dict.fromkeys(names))


def run_suite_on_instance(
    inst: Instance,
    suites: Sequence[str],
    trials: int = 20,
    seed: int = 0,
    bound: int = EXHAUSTIVE_BOUND,
) -> list[list[PropertyVerdict]]:
    """Each requested suite's checks on one instance, one list per suite
    (config checks run per branch, so a market without branches gives them
    an empty list).  The checks share one :class:`_Shared`, which is
    dropped when the call returns."""
    token = _SHARED.set(_Shared(inst))
    try:
        return [_SUITES[suite][1](inst, trials, seed, bound) for suite in suites]
    finally:
        _SHARED.reset(token)


def run_suite(
    instances: Sequence[Instance],
    suites: Sequence[str],
    trials: int = 20,
    seed: int = 0,
    bound: int = EXHAUSTIVE_BOUND,
    jobs: int = 1,
) -> list[PropertyVerdict]:
    """Run the requested suites (see :func:`requested_suites`) over a batch
    and merge each suite's verdicts into one (see :func:`merge_verdicts`:
    a suite that checked nothing is ``"vacuous"``); an unknown suite name,
    ``trials`` or ``jobs`` below 1 and ``bound`` below 0 raise
    :class:`~sspwct.model.InputError` before any instance runs.

    With ``jobs > 1`` the per-instance work fans out to a process pool of
    at most one worker per instance; every check is a pure function of an
    immutable instance, so the workers receive pickled instances and return
    their verdicts.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1 (got {trials})")
    if jobs < 1:
        raise InputError(f"jobs must be at least 1 (got {jobs})")
    if bound < 0:
        raise InputError(f"bound must be at least 0 (got {bound})")
    suites = requested_suites(suites)
    run_one = partial(run_suite_on_instance, suites=suites, trials=trials, seed=seed, bound=bound)
    workers = min(jobs, len(instances))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_one, instances))
    else:
        batches = [run_one(inst) for inst in instances]
    merged = []
    for i, suite in enumerate(suites):
        verdicts = [v for batch in batches for v in batch[i]]
        merged.append(merge_verdicts(_SUITES[suite][0], verdicts))
    return merged
