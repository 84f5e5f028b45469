"""Reference implementations kept only for differential tests.

These are the straightforward versions the library's fast paths replaced:
the seat merge rebuilt on every choice call, the choice rule walking all of it
with dict bookkeeping (and refusing offers its branch does not own), a cumulative offer process that rescans every agent each
round and copies every branch's pool into every step, a blocking search
that rescans the outcome for every agent of every candidate set, and the
seat ledger and holder lookups that chose again from the final pools and
scanned the outcome per agent, and the strategy-proofness check that ran
the library's COM from step 1 on a fresh instance per misreport.  The reference choice rule decides seat
activity on its own and returns its own :class:`Choice` record, built
without the library's; the reference COM records its own :class:`Step`
per step, with a frozen copy of every pool, and its own :class:`Trace`.
They are slow on purpose and must not be imported by ``sspwct`` itself.
"""
from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from conftest import with_preference
from sspwct import mechanism, oracles
from sspwct.mechanism import POLICY_LEX, POLICY_RANDOM
from sspwct.model import (
    ORIGINAL,
    AgentId,
    BranchConfig,
    BranchId,
    Contract,
    ContractId,
    Instance,
    Outcome,
    SlotId,
)


class ForeignContract(ValueError):
    """An offered contract does not belong to the choosing branch."""


def slot_order(cfg: BranchConfig) -> tuple[SlotId, ...]:
    """Merge original and shadow seats into the processing order.

    Shadow seat k is appended immediately after the l_k-th original seat;
    shadows sharing the same location value keep their own precedence order.
    Assumes the config passed validation (location nondecreasing, k <= l_k).
    """
    order: list[SlotId] = []
    k = 1
    for i in range(1, cfg.n + 1):
        order.append(cfg.original_slot(i))
        while k <= cfg.n and cfg.location[k - 1] == i:
            order.append(cfg.shadow_slot(k))
            k += 1
    return tuple(order)


class Choice(NamedTuple):
    """A branch's choice and its seat ledger, occupied seat -> contract in
    processing order."""

    chosen: frozenset
    seats: dict[SlotId, ContractId]


def choose(
    cfg: BranchConfig,
    offers: Iterable[ContractId],
    contracts: Mapping[ContractId, Contract],
    completion: bool,
) -> Choice:
    offer_set = frozenset(offers)
    for cid in offer_set:
        c = contracts.get(cid)
        if c is None:
            raise ForeignContract(f"unknown contract {cid} offered to branch {cfg.id}")
        if c.branch != cfg.id:
            raise ForeignContract(f"contract {cid} belongs to branch {c.branch}, not {cfg.id}")

    seats: dict[SlotId, ContractId] = {}
    filled: dict[SlotId, int] = {}
    chosen: list[ContractId] = []
    taken_ids: set[ContractId] = set()
    taken_agents: set[str] = set()

    for slot in slot_order(cfg):
        if slot.kind == ORIGINAL:
            active = True
        else:
            # capacity arrives only if the paired original stayed vacant and
            # the transfer bit allows it; l_k >= k guarantees the original
            # was already processed
            paired = cfg.original_slot(slot.index)
            active = filled[paired] == 0 and cfg.transfer[slot.index - 1] == 1
        pick: ContractId | None = None
        if active:
            for cid in cfg.priority(slot):
                if cid not in offer_set or cid in taken_ids:
                    continue
                if not completion and contracts[cid].agent in taken_agents:
                    continue
                pick = cid
                break
        if slot.kind == ORIGINAL:
            filled[slot] = 1 if pick is not None else 0
        if pick is not None:
            seats[slot] = pick
            chosen.append(pick)
            taken_ids.add(pick)
            taken_agents.add(contracts[pick].agent)

    return Choice(frozenset(chosen), seats)


class Step(NamedTuple):
    """One COM step with every branch's pool after it."""

    t: int
    agent: AgentId
    contract: ContractId
    verdict: str  # "held" or "rejected"
    pools: dict[BranchId, frozenset]


class Trace(NamedTuple):
    steps: tuple[Step, ...]
    outcome: Outcome
    choices: dict[BranchId, Choice]


def branch_choice(inst: Instance, branch: BranchId, pool: Iterable[ContractId]) -> Choice:
    return choose(inst.branches[branch], pool, inst.contract_index, completion=False)


def cumulative_offer(inst: Instance, policy: str = POLICY_LEX, seed: int = 0) -> Trace:
    """Run the cumulative offer process and return the full trace."""
    if policy not in (POLICY_LEX, POLICY_RANDOM):
        raise ValueError(f"unknown proposal policy {policy!r}")
    rng = random.Random(seed)

    pools: dict[BranchId, set[ContractId]] = {b: set() for b in inst.branches}
    current: dict[BranchId, frozenset] = {b: frozenset() for b in inst.branches}
    choices: dict[BranchId, Choice] = {b: Choice(frozenset(), {}) for b in inst.branches}
    rejected: set[ContractId] = set()
    steps: list[Step] = []

    t = 0
    while True:
        held_agents = {
            inst.contract_index[cid].agent for ch in current.values() for cid in ch
        }
        eligible: list[tuple[AgentId, ContractId]] = []
        for agent in inst.agents:
            if agent in held_agents:
                continue
            favorite = next(
                (cid for cid in inst.preferences.get(agent, ()) if cid not in rejected),
                None,
            )
            if favorite is not None:
                eligible.append((agent, favorite))
        if not eligible:
            break

        agent, cid = eligible[0] if policy == POLICY_LEX else rng.choice(eligible)
        t += 1
        branch = inst.contract_index[cid].branch
        pools[branch].add(cid)
        result = branch_choice(inst, branch, pools[branch])
        choices[branch] = result
        current[branch] = result.chosen
        rejected |= pools[branch] - result.chosen
        verdict = "held" if cid in result.chosen else "rejected"
        steps.append(
            Step(t, agent, cid, verdict, {b: frozenset(p) for b, p in pools.items()})
        )

    outcome = frozenset().union(*current.values()) if current else frozenset()
    return Trace(tuple(steps), outcome, choices)


def trace_to_json(trace: Trace) -> dict:
    """The trace's JSON view, sorting every step's pools afresh."""
    return {
        "steps": [
            {
                "t": s.t,
                "agent": s.agent,
                "contract": s.contract,
                "verdict": s.verdict,
                "pools": {b: sorted(pool) for b, pool in s.pools.items()},
            }
            for s in trace.steps
        ],
        "outcome": sorted(trace.outcome),
    }


def find_blocking_set(
    inst: Instance, outcome: frozenset, bound: int = mechanism.DEFAULT_BLOCKING_BOUND
) -> tuple[BranchId, frozenset] | None:
    """The blocking search before its candidate filter decided the agent
    side: candidates are the contracts each agent weakly prefers to her
    assignment, and every candidate set is re-checked with :func:`best_in`
    over outcome + Y.  Uses the library's choice rule."""
    for branch in inst.branches:
        universe = mechanism.branch_universe(inst, branch, bound, "blocking enumeration")
        cfg = inst.branches[branch]
        out_b = frozenset(c for c in outcome if inst.contract_index[c].branch == branch)
        base = mechanism.branch_choice(inst, branch, out_b).chosen

        current_of = {inst.contract_index[c].agent: c for c in outcome}
        candidates = []
        for cid in universe:
            agent = inst.contract_index[cid].agent
            now = current_of.get(agent)
            if cid == now or inst.prefers(agent, cid, now):
                candidates.append(cid)

        for size in range(1, cfg.n + 1):
            for combo in combinations(candidates, size):
                agents = [inst.contract_index[c].agent for c in combo]
                if len(set(agents)) != len(agents):
                    continue
                y = frozenset(combo)
                if y == base:
                    continue
                if mechanism.branch_choice(inst, branch, out_b | y).chosen != y:
                    continue
                if all(
                    best_in(inst, agent, outcome | y) == ycid
                    for ycid, agent in zip(combo, agents)
                ):
                    return branch, y
    return None


def best_in(inst: Instance, agent: AgentId, contracts: Iterable[ContractId]) -> ContractId | None:
    """The agent's most preferred *acceptable* contract among her own."""
    best: ContractId | None = None
    for cid in contracts:
        if inst.contract_index[cid].agent != agent or not inst.acceptable(agent, cid):
            continue
        if best is None or inst.prefers(agent, cid, best):
            best = cid
    return best


def slot_assignments(inst: Instance, pools: Mapping[BranchId, frozenset]) -> dict[SlotId, ContractId]:
    """Per-seat view of the outcome, read off each branch's choice from its
    final accumulated pool."""
    placed: dict[SlotId, ContractId] = {}
    for b, pool in pools.items():
        placed.update(branch_choice(inst, b, pool).seats)
    return placed


def assigned_contract(inst: Instance, outcome: Outcome, agent: AgentId) -> ContractId | None:
    for cid in outcome:
        if inst.contract_index[cid].agent == agent:
            return cid
    return None


def check_strategy_proofness(inst: Instance) -> oracles.PropertyVerdict:
    """The strategy-proofness check before it forked COM at each agent's
    first turn: every misreport builds an instance with
    ``conftest.with_preference`` and runs the library's
    :func:`~sspwct.mechanism.cumulative_offer` on it from step 1."""
    for agent, owned in inst.contracts_of_agent.items():
        if len(owned) > oracles.MISREPORT_BOUND:
            raise mechanism.InstanceTooLarge(
                f"agent {agent} has {len(owned)} contracts; misreport enumeration is "
                f"exhaustive and capped at {oracles.MISREPORT_BOUND}"
            )
    truthful = mechanism.holdings(inst, mechanism.cumulative_offer(inst).outcome)
    deviations = (
        (agent, report, mechanism.holdings(
            inst, mechanism.cumulative_offer(with_preference(inst, agent, report)).outcome))
        for agent in inst.agents
        for report in oracles.misreports(inst.contracts_of_agent.get(agent, ()))
        if report != inst.preferences.get(agent, ())
    )
    return oracles._verdict("strategy-proofness", (
        {
            "agent": agent,
            "misreport": list(report),
            "truthful_assignment": truthful.get(agent),
            "deviation_assignment": held.get(agent),
        } if inst.prefers(agent, held.get(agent), truthful.get(agent)) else None
        for agent, report, held in deviations
    ))
