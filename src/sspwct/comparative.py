"""Comparative statics: how the mechanism's outcome responds to relaxing a
transfer restriction, adding an original seat, or adding contracts.

Every experiment builds a modified instance, runs the mechanism on both, and
compares each agent's assignment under her own ranking.  The verdict only
reflects the agents the comparative claim protects; anyone else's loss is
recorded but is not a violation.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .mechanism import cumulative_offer, holdings
from .model import (
    ORIGINAL,
    SHADOW,
    AgentId,
    BranchConfig,
    BranchId,
    Contract,
    ContractId,
    InputError,
    Instance,
    Outcome,
    SlotId,
    validate_instance,
)

STRICTLY_BETTER = "strictly_better"
EQUAL = "equal"
STRICTLY_WORSE = "strictly_worse"

PARETO_DOMINATES = "pareto-dominates"
WEAKLY_IMPROVES_FOR = "weakly-improves-for"
VIOLATES = "violates"

MODE_BOTTOM = "bottom"
MODE_SINGLE_AGENT = "single-agent-anywhere"


class AlreadyFlexible(InputError):
    """The transfer bit to flip is already 1."""


class PreconditionUnmet(ValueError):
    """The improvement chain only runs when the flipped bit actually puts a
    contract on the activated shadow seat."""


class ConditionViolation(InputError):
    """A contract addition breaks the relative-order preservation rules."""


class ImprovementChainError(RuntimeError):
    """Chain reconstruction disagrees with the slot assignments; raised
    instead of guessing."""


@dataclass(frozen=True)
class ComparisonReport:
    """Both outcomes, the per-agent comparison and the verdict, plus each
    run's seat ledger (:attr:`~sspwct.mechanism.ComState.seats`; not part
    of :meth:`to_json`)."""

    baseline: Outcome
    modified: Outcome
    per_agent: Mapping[AgentId, str]
    protected: frozenset
    verdict: str
    baseline_seats: Mapping[SlotId, ContractId]
    modified_seats: Mapping[SlotId, ContractId]

    def to_json(self) -> dict:
        return {
            "baseline": sorted(self.baseline),
            "modified": sorted(self.modified),
            "per_agent": dict(sorted(self.per_agent.items())),
            "protected": sorted(self.protected),
            "verdict": self.verdict,
        }


def compare_outcomes(
    base_inst: Instance,
    mod_inst: Instance,
    protected: frozenset | None = None,
) -> ComparisonReport:
    """Run the mechanism on both instances and compare per agent.

    Comparison uses the modified instance's rankings (a superset of the
    baseline rankings in every experiment here, so baseline contracts keep
    their relative order).  ``protected`` defaults to every agent.
    """
    base_run, mod_run = cumulative_offer(base_inst), cumulative_offer(mod_inst)
    held_before = holdings(base_inst, base_run.outcome)
    held_after = holdings(mod_inst, mod_run.outcome)
    agents = sorted(set(base_inst.agents) | set(mod_inst.agents))
    if protected is None:
        protected = frozenset(agents)
    per_agent: dict[AgentId, str] = {}
    for agent in agents:
        before, after = held_before.get(agent), held_after.get(agent)
        if mod_inst.prefers(agent, after, before):
            per_agent[agent] = STRICTLY_BETTER
        elif mod_inst.prefers(agent, before, after):
            per_agent[agent] = STRICTLY_WORSE
        else:
            per_agent[agent] = EQUAL
    if any(per_agent[a] == STRICTLY_WORSE for a in protected):
        verdict = VIOLATES
    elif protected == frozenset(agents):
        verdict = PARETO_DOMINATES
    else:
        verdict = WEAKLY_IMPROVES_FOR
    return ComparisonReport(
        base_run.outcome, mod_run.outcome, per_agent, protected, verdict, base_run.seats, mod_run.seats
    )


# -- transfer flexibility (one bit 0 -> 1) --


def flip_transfer(inst: Instance, branch: BranchId, k: int) -> Instance:
    cfg = inst.branches[branch]
    if not 1 <= k <= cfg.n:
        raise InputError(f"slot index {k} out of range for branch {branch} (n={cfg.n})")
    if cfg.transfer[k - 1] == 1:
        raise AlreadyFlexible(f"transfer bit {k} of branch {branch} is already 1")
    transfer = cfg.transfer[:k - 1] + (1,) + cfg.transfer[k:]
    return inst.with_branches({branch: replace(cfg, transfer=transfer)})


def flexibility_compare(inst: Instance, branch: BranchId, k: int) -> ComparisonReport:
    """Relax one transfer restriction and compare outcomes.  The modified
    outcome weakly Pareto dominates the baseline."""
    return compare_outcomes(inst, flip_transfer(inst, branch, k))


def improvement_chain(inst: Instance, report: ComparisonReport, branch: BranchId, k: int) -> Outcome:
    """Reconstruct the modified outcome by walking the chain of reassignments
    that activating shadow seat k sets off.

    The newly active shadow seat takes some contract x1.  If x1's agent was
    unmatched before, the chain ends; otherwise she vacates her old seat,
    which (or whose shadow) picks up the next contract, and so on until the
    chain reaches an agent who previously held nothing.  Every step strictly
    improves one agent, so the walk terminates.

    ``report`` is :func:`flexibility_compare`'s report for the same
    ``inst``, ``branch`` and ``k``; seat assignments are read from the seat
    ledgers of its two runs, so nothing is chosen again.
    Raises :class:`PreconditionUnmet` when the activated shadow stays empty,
    and :class:`ImprovementChainError` instead of guessing when the walk
    cannot be completed from the recorded assignments.
    """
    baseline = report.baseline
    held = holdings(inst, baseline)
    base_slot_of = {cid: slot for slot, cid in report.baseline_seats.items()}
    mod_fill = report.modified_seats

    activated = SlotId(branch, SHADOW, k)
    x = mod_fill.get(activated)
    if x is None:
        raise PreconditionUnmet(
            f"shadow seat {activated} stays vacant after the transfer flip"
        )

    added: list[ContractId] = []
    removed: list[ContractId] = []
    read: set[SlotId] = {activated}
    while True:
        added.append(x)
        agent = inst.contract_index[x].agent
        z = held.get(agent)
        if z is None:
            break
        removed.append(z)
        vacated = base_slot_of.get(z)
        if vacated is None:
            raise ImprovementChainError(
                f"cannot locate the seat displaced contract {z} held"
            )
        # the vacated seat's replacement is whatever now sits there, or on
        # its paired shadow; a seat the chain already consumed means the
        # chain has closed on itself and no further agent is pulled in
        candidates = [vacated]
        if vacated.kind == ORIGINAL:
            candidates.append(SlotId(vacated.branch, SHADOW, vacated.index))
        x_next: ContractId | None = None
        for slot in candidates:
            if slot in read:
                continue
            fill = mod_fill.get(slot)
            if fill is not None:
                read.add(slot)
                x_next = fill
                break
        if x_next is None:
            break
        x = x_next

    return (baseline - frozenset(removed)) | frozenset(added)


# -- capacity expansion (add an original seat) --


def extend_branch(
    inst: Instance,
    branch: BranchId,
    ranking: Sequence[ContractId],
    position: int | None = None,
) -> Instance:
    """Add one original seat (with the given priority ranking) plus an inert
    paired shadow seat: empty ranking, transfer bit 0.

    By default the pair is appended after the existing seats with location
    n+1.  A ``position`` p inserts the pair at precedence position p in both
    orders, bumping later locations so the merged processing order stays
    valid; the comparative claim is placement-independent, the knob exists
    to probe that.
    """
    cfg = inst.branches[branch]
    n = cfg.n
    p = n + 1 if position is None else position
    if not 1 <= p <= n + 1:
        raise InputError(f"position {p} out of range for branch {branch} (n={n})")

    new_location = [l + 1 if l >= p else l for l in cfg.location]
    own_location = n + 1 if p == n + 1 else new_location[p - 1]
    new_location.insert(p - 1, own_location)
    transfer = list(cfg.transfer)
    transfer.insert(p - 1, 0)
    originals = list(cfg.original_priorities)
    originals.insert(p - 1, tuple(ranking))
    shadows = list(cfg.shadow_priorities)
    shadows.insert(p - 1, ())

    extended = BranchConfig(
        cfg.id, n + 1, tuple(new_location), tuple(transfer), tuple(originals), tuple(shadows)
    )
    out = inst.with_branches({branch: extended})
    problems = validate_instance(out)
    if problems:
        raise InputError("extended branch is invalid: " + "; ".join(problems))
    return out


def add_original_slot(
    inst: Instance,
    branch: BranchId,
    ranking: Sequence[ContractId],
    position: int | None = None,
) -> ComparisonReport:
    """Pure capacity expansion: every agent weakly gains."""
    return compare_outcomes(inst, extend_branch(inst, branch, ranking, position))


# -- adding contracts --


@dataclass(frozen=True)
class AddedContract:
    """One new contract plus where it lands.

    ``pref_position`` is the insertion index into the owning agent's ranking
    (existing entries keep their order).  ``slot_positions`` maps each slot
    listing the contract to the insertion index into that slot's ranking; in
    bottom mode the index must equal the current length of the ranking.
    """

    contract: Contract
    pref_position: int
    slot_positions: Mapping[SlotId, int]


def apply_additions(
    inst: Instance, additions: Sequence[AddedContract], mode: str
) -> Instance:
    if mode not in (MODE_BOTTOM, MODE_SINGLE_AGENT):
        raise InputError(f"unknown mode {mode!r}")
    if mode == MODE_SINGLE_AGENT:
        owners = {a.contract.agent for a in additions}
        if len(owners) > 1:
            raise ConditionViolation(
                f"single-agent mode requires one owner, got {sorted(owners)}"
            )

    # each edited agent's ranking and each edited branch's seat rows, as lists
    ids = set(inst.contract_index)
    preferences: dict[AgentId, list] = {}
    rows: dict[BranchId, list] = {}
    for a in additions:
        c = a.contract
        if c.id in ids:
            raise ConditionViolation(f"contract id {c.id} already exists")
        ids.add(c.id)
        if c.branch not in inst.branches:
            raise ConditionViolation(f"contract {c.id} references unknown branch {c.branch}")

        ranking = preferences.setdefault(c.agent, list(inst.preferences.get(c.agent, ())))
        if not 0 <= a.pref_position <= len(ranking):
            raise ConditionViolation(
                f"preference position {a.pref_position} out of range for {c.agent}"
            )
        ranking.insert(a.pref_position, c.id)

        cfg = inst.branches[c.branch]
        table = rows.setdefault(c.branch, list(cfg.original_priorities + cfg.shadow_priorities))
        for slot, pos in sorted(a.slot_positions.items()):
            try:
                i = cfg.row(slot)
            except KeyError as exc:
                raise ConditionViolation(f"contract {c.id} cannot be listed: {exc.args[0]}") from None
            row = table[i] = list(table[i])
            if mode == MODE_BOTTOM and pos != len(row):
                raise ConditionViolation(
                    f"bottom mode: contract {c.id} must land at the end of {slot} "
                    f"(position {len(row)}, got {pos})"
                )
            if not 0 <= pos <= len(row):
                raise ConditionViolation(f"position {pos} out of range for slot {slot}")
            row.insert(pos, c.id)

    current = Instance(
        inst.contracts + tuple(a.contract for a in additions),
        {**inst.preferences, **preferences},
        {**inst.branches, **{b: inst.branches[b].with_rows(table) for b, table in rows.items()}},
    )
    problems = validate_instance(current)
    if problems:
        raise ConditionViolation("additions produced an invalid instance: " + "; ".join(problems))
    return current


def add_contracts(
    inst: Instance, additions: Sequence[AddedContract], mode: str
) -> ComparisonReport:
    """Compare outcomes after adding contracts.

    Bottom mode appends the new contracts below every existing contract in
    each slot that lists them and checks the all-agents claim: any agent
    made strictly worse, third parties included, turns the verdict into
    ``violates``.  The claim holds when no added contract is listed at a
    transfer-enabled original seat.  Otherwise the additions can fill a
    vacant original seat o_k whose transfer bit is 1 (with a new contract or
    an old one a chain of reassignments moved there), which deactivates the
    paired shadow seat e_k and evicts whoever held it.  Single-agent
    mode lets one agent's new contracts land anywhere in slot rankings and
    protects only that agent; displaced third parties are recorded in the
    per-agent breakdown without failing the verdict.
    """
    modified = apply_additions(inst, additions, mode)
    if mode == MODE_BOTTOM:
        protected = None
    else:
        protected = frozenset({a.contract.agent for a in additions})
    return compare_outcomes(inst, modified, protected)


# -- randomized experiment material (used by the CLI and the test batteries) --


def random_slot_ranking(inst: Instance, branch: BranchId, rng: random.Random) -> tuple[ContractId, ...]:
    universe = list(inst.contracts_of_branch.get(branch, ()))
    listed = [cid for cid in universe if rng.random() < 0.7]
    rng.shuffle(listed)
    return tuple(listed)


def random_added_contracts(
    inst: Instance,
    rng: random.Random,
    mode: str,
    count: int = 1,
    agent: AgentId | None = None,
) -> list[AddedContract]:
    """Draw new contracts with valid placements for the requested mode,
    named ``new01``, ``new02``, ... skipping ids the market already has; the
    j-th has terms ``added-j``, or ``added-j-2``, ``added-j-3``, ... when its
    owner already holds those terms at its branch.  Raises
    :class:`~sspwct.model.InputError` on a market with no agent or no branch
    to draw from."""
    agents = list(inst.agents)
    branches = list(inst.branches)
    for missing, drawn in (("agent", agents), ("branch", branches)):
        if not drawn:
            raise InputError(f"cannot add contracts: the instance has no {missing}")
    if mode == MODE_SINGLE_AGENT and agent is None:
        agent = rng.choice(agents)
    additions: list[AddedContract] = []
    branch_growth: dict[BranchId, dict[SlotId, int]] = {
        b: {s: 0 for s in cfg.slots()} for b, cfg in inst.branches.items()
    }
    pref_growth: dict[AgentId, int] = {a: 0 for a in agents}
    names = (f"new{i:02d}" for i in itertools.count(1))
    new_ids = (cid for cid in names if cid not in inst.contract_index)
    held = {(c.agent, c.branch, c.terms) for c in inst.contracts}
    for j in range(count):
        owner = agent if mode == MODE_SINGLE_AGENT else rng.choice(agents)
        branch = rng.choice(branches)
        terms, k = f"added-{j + 1}", 1
        while (owner, branch, terms) in held:
            k += 1
            terms = f"added-{j + 1}-{k}"
        contract = Contract(next(new_ids), owner, branch, terms)
        cfg = inst.branches[branch]
        slot_positions: dict[SlotId, int] = {}
        for slot in cfg.slots():
            if rng.random() >= 0.7:
                continue
            base_len = len(cfg.priority(slot)) + branch_growth[branch][slot]
            pos = base_len if mode == MODE_BOTTOM else rng.randint(0, base_len)
            slot_positions[slot] = pos
            branch_growth[branch][slot] += 1
        pref_len = len(inst.preferences.get(owner, ())) + pref_growth.get(owner, 0)
        pref_growth[owner] = pref_growth.get(owner, 0) + 1
        additions.append(
            AddedContract(contract, rng.randint(0, pref_len), slot_positions)
        )
    return additions
