"""The cumulative offer mechanism and exhaustive stability verification.

The mechanism runs in rounds: an agent no branch currently holds proposes
her favorite contract among those not yet rejected; the target branch adds
it to its accumulated pool and re-chooses from the whole pool.  Pools only
grow, and a contract that drops out of a branch's chosen set counts as
rejected.  The outcome is the union of every branch's choice from its final
pool.

Each round does only the work that round needs.  An agent proposes in
preference order, and while she holds nothing every contract she has
proposed is rejected, so her favorite not-yet-rejected contract is the
first she has not proposed: COM keeps, per agent, how many she has
proposed, and how many of her contracts are chosen, updated in one pass
over the symmetric difference of the one branch's old and new chosen sets;
an agent is held while that count is positive.  The eligible agents
(unheld, with a contract left to propose) sit in a list sorted by id that
only the touched agents update.  ``lex`` takes its first element and
``random`` draws ``rng.choice`` from it (by Hirata & Kasuya's order
independence, the outcome does not depend on the policy).  COM keeps one
pool per branch and logs each step as one move (proposer, contract,
branch, held); ``iter_steps`` is the one replay of that log into each
step's pools.  Per branch, COM keeps only its latest choice, whose chosen
set is the old side of the next diff; the final choices' union is the
outcome, and their merged ledgers are the run's seat ledger.  Both views
are read on demand, never cached, so a paused or resumed run shows its
moves so far.

A run is a :class:`ComState`; :func:`cumulative_offer` builds one and runs
it to the end.  ``run(stop=agent)`` pauses a ``lex`` run once no eligible
agent other than ``agent`` sorts before it, and ``fork(agent, ranking)``
copies the state and gives an agent who has proposed nothing a new
ranking.  A fork at the pause runs exactly the steps a full run on the
market with that ranking takes, for any deterministic choice rule: every
step before the pause is proposed by an agent who sorts before ``agent``,
a step reads only its proposer's ranking, and whether ``agent`` is
eligible cannot change the list's first element while an agent before
her is.  So the prefix is the same whatever she reports, and the
strategy-proofness oracle replays only what follows it.  (A fork that
first runs every other agent to quiescence would rest on order
independence instead, which a faulty choice rule need not have, and a
check through it can miss such a rule's violations.)

One oracle suite run enters one :class:`SharedWork`, in which
:func:`branch_choice` memoises by (config, rule, pool) at the instance's
branches of at most :data:`EXHAUSTIVE_BOUND` contracts: exact for any
deterministic rule, as the fork is.

Stability is verified by brute force on one path, :func:`stability_report`:
feasibility, individual rationality and an exhaustive search over
candidate blocking sets, feasible per branch.
"""
from __future__ import annotations

import copy
import random
from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .choice import ChoiceResult, sspwct_choose
from .model import AgentId, BranchId, ContractId, InputError, Instance, Outcome, SlotId, outcome_violations

POLICY_LEX = "lex"
POLICY_RANDOM = "random"

#: Candidate blocking sets are enumerated over each branch's contract
#: universe; refuse branches larger than this.
DEFAULT_BLOCKING_BOUND = 14

#: Cap on a branch's contract universe for the oracles' per-branch checks,
#: which enumerate its subsets, and for the choice memo: larger pools seldom repeat.
EXHAUSTIVE_BOUND = 8

_WORK = ContextVar("_WORK", default=None)  # the running suite's SharedWork


class InstanceTooLarge(InputError):
    """An exhaustive search was asked to run past its configured bound."""


@dataclass(frozen=True)
class ComStep:
    """One step of a run, as :attr:`ComState.steps` reads it off ``iter_steps``."""
    t: int
    agent: AgentId
    contract: ContractId
    verdict: str  # "held" or "rejected"
    pools: Mapping[BranchId, list]  # sorted, as in ComState.iter_steps


def branch_universe(inst: Instance, branch: BranchId, bound: int, what: str) -> tuple[ContractId, ...]:
    """The branch's contracts, for an enumeration over their subsets; raises
    :class:`InputError` for a ``bound`` below 0 and :class:`InstanceTooLarge`
    when there are more than ``bound``."""
    if bound < 0:
        raise InputError(f"bound must be at least 0 (got {bound})")
    universe = inst.contracts_of_branch.get(branch, ())
    if len(universe) > bound:
        raise InstanceTooLarge(
            f"branch {branch} has {len(universe)} contracts; {what} is exhaustive "
            f"and capped at {bound}"
        )
    return universe


class SharedWork:
    """What the checks of one oracle suite run on ``inst`` share, each piece
    done on first use; ``with SharedWork(inst):`` makes it the running work
    for the block, and nothing keeps it after.

    - ``outcomes``: a market's branch configs -> its ``lex`` outcome, for the
      truthful run and every improvement trial (a trial market has
      ``inst``'s contracts and preferences, so its configs name it);
    - ``tables``: (config, rule) -> the rule's chosen set from each offer
      set, by bitmask (the oracles fill it);
    - ``memo``: id(config) -> (config, rule, {pool: result}), which
      :func:`branch_choice` fills while the work runs, at ``inst``'s configs
      of at most :data:`EXHAUSTIVE_BOUND` contracts.  An entry holds its
      config, so no id is reused while it lives, and the rule the module
      global named, so a rebound ``sspwct_choose`` starts it afresh.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.outcomes = {}
        self.tables = {}
        self.memo = {id(cfg): (cfg, sspwct_choose, {}) for b, cfg in inst.branches.items()
                     if len(inst.contracts_of_branch[b]) <= EXHAUSTIVE_BOUND}

    def __enter__(self) -> SharedWork:
        self.token = _WORK.set(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _WORK.reset(self.token)


def shared_work(inst: Instance) -> SharedWork:
    """The running work when it is on ``inst``, else fresh work."""
    work = _WORK.get()
    return work if work is not None and work.inst is inst else SharedWork(inst)


def branch_choice(inst: Instance, branch: BranchId, pool: Iterable[ContractId]) -> ChoiceResult:
    cfg, work = inst.branches[branch], _WORK.get()
    entry = work and work.memo.get(id(cfg))
    if not entry:
        return sspwct_choose(cfg, pool, inst.contract_index)
    if entry[1] is not sspwct_choose:
        entry = work.memo[id(cfg)] = cfg, sspwct_choose, {}
    key = frozenset(pool)
    result = entry[2].get(key)
    if result is None:
        result = entry[2][key] = sspwct_choose(cfg, key, inst.contract_index)
    return result


def _relist(eligible: list[AgentId], agent: AgentId, can_propose: bool) -> None:
    """Keep ``agent`` in the sorted ``eligible`` list exactly when she can
    propose: she holds nothing and has a contract left."""
    i = bisect_left(eligible, agent)
    listed = i < len(eligible) and eligible[i] == agent
    if can_propose != listed:
        if listed:
            del eligible[i]
        else:
            eligible.insert(i, agent)


class ComState:
    """A cumulative offer run, in progress or finished: the branches' pools
    and latest choices, each agent's proposal and held counts, the eligible
    agents (sorted), the move log, and the ranking each agent proposes by."""

    def __init__(self, inst: Instance, policy: str = POLICY_LEX, seed: int = 0) -> None:
        if policy not in (POLICY_LEX, POLICY_RANDOM):
            raise InputError(f"unknown proposal policy {policy!r}")
        self.inst = inst
        self.rng = random.Random(seed) if policy == POLICY_RANDOM else None
        self.preferences = inst.preferences
        self.pools: dict[BranchId, set[ContractId]] = {}
        self.choices: dict[BranchId, ChoiceResult] = {}
        self.proposed = dict.fromkeys(inst.agents, 0)  # contracts proposed so far
        self.held = dict.fromkeys(inst.agents, 0)  # contracts in the chosen sets
        self.moves: list[tuple] = []  # (proposer, contract, branch, held) per step
        self.eligible = [agent for agent in inst.agents if self.preferences.get(agent)]  # sorted

    @property
    def outcome(self) -> Outcome:
        """The union of the branches' latest chosen sets."""
        return frozenset().union(*(result.chosen for result in self.choices.values()))

    @property
    def steps(self) -> tuple[ComStep, ...]:
        """The run's steps so far, rebuilt from :meth:`iter_steps` on every read."""
        return tuple(ComStep(**step) for step in self.iter_steps())

    @property
    def seats(self) -> dict[SlotId, ContractId]:
        """The run's seat ledger, occupied seat -> contract: the merge of the
        branches' latest :attr:`~sspwct.choice.ChoiceResult.seats`, rebuilt
        on every read."""
        return {slot: cid for result in self.choices.values() for slot, cid in result.seats.items()}

    def iter_steps(self) -> Iterator[dict]:
        """The run's one replay of its moves, one step at a time: step t's
        ``pools`` map every branch to the sorted contracts proposed to it in
        steps 1..t, and a step shares the lists of the pools it did not
        grow, so a reader that keeps one step holds one step's pools."""
        pools = dict.fromkeys(self.inst.branches, [])
        for t, (agent, cid, branch, held) in enumerate(self.moves, 1):
            pools = {**pools, branch: sorted([*pools[branch], cid])}
            verdict = "held" if held else "rejected"
            yield {"t": t, "agent": agent, "contract": cid, "verdict": verdict, "pools": pools}

    def fork(self, agent: AgentId, ranking: Iterable[ContractId]) -> ComState:
        """A copy of the state in which ``agent`` proposes by ``ranking``;
        raises :class:`ValueError` once the agent has proposed."""
        if self.proposed[agent]:
            raise ValueError(f"agent {agent} has proposed; only an agent who has not can be forked")
        ranking = tuple(ranking)
        other = object.__new__(ComState)
        other.__dict__ = {
            "inst": self.inst,
            "rng": None if self.rng is None else copy.copy(self.rng),
            "preferences": {**self.preferences, agent: ranking},
            "pools": {branch: set(pool) for branch, pool in self.pools.items()},
            "choices": dict(self.choices),
            "proposed": dict(self.proposed),
            "held": dict(self.held),
            "moves": list(self.moves),
            "eligible": list(self.eligible),
        }
        _relist(other.eligible, agent, other.held[agent] == 0 and bool(ranking))
        return other

    def run(self, stop: AgentId | None = None) -> None:
        """Take steps until no agent is eligible, or, given ``stop``, until
        no eligible agent other than ``stop`` sorts before it."""
        rng = self.rng
        if stop is not None and rng is not None:
            raise ValueError("a run stops at an agent's turn only under the lex policy")
        inst, index, preferences = self.inst, self.inst.contract_index, self.preferences
        pools, choices, proposed, held = self.pools, self.choices, self.proposed, self.held
        eligible, moves = self.eligible, self.moves
        while eligible:
            if rng is None:
                agent = eligible[0]
                if stop is not None and agent >= stop:
                    break
            else:
                agent = rng.choice(eligible)
            cid = preferences[agent][proposed[agent]]
            proposed[agent] += 1
            branch = index[cid].branch
            pool = pools.setdefault(branch, set())
            pool.add(cid)
            old = choices[branch].chosen if branch in choices else frozenset()
            choices[branch] = result = branch_choice(inst, branch, pool)
            new = result.chosen
            # only the proposer and the agents in this branch's chosen diff change
            touched = {agent}
            for c in old ^ new:
                owner = index[c].agent
                held[owner] += 1 if c in new else -1
                touched.add(owner)
            for a in touched:
                _relist(eligible, a, held[a] == 0 and proposed[a] < len(preferences.get(a, ())))
            moves.append((agent, cid, branch, cid in new))


def cumulative_offer(inst: Instance, policy: str = POLICY_LEX, seed: int = 0) -> ComState:
    """Run the cumulative offer process and return the finished run.

    ``policy`` picks the proposer among eligible agents each round:
    ``"lex"`` takes the smallest agent id (the canonical, deterministic
    default), ``"random"`` draws uniformly with the given seed.  The outcome
    is policy-independent; the random policy exists to test exactly that.
    Every step proposes a contract its agent has not proposed before, so a
    run takes at most ``sum(len(r) for r in inst.preferences.values())``
    steps, on any instance.
    """
    state = ComState(inst, policy, seed)
    state.run()
    return state


def holdings(inst: Instance, outcome: Outcome) -> dict[AgentId, ContractId]:
    """Agent -> the contract she holds in ``outcome`` (agents holding nothing
    are absent).  Of several, which only a faulty choice rule leaves, she
    holds her favorite, and of unlisted ones the smallest id."""
    index, held = inst.contract_index, {}
    for c in sorted(outcome):  # ids in order, so a tie keeps the smaller
        agent = index[c].agent
        if agent not in held or inst.prefers(agent, c, held[agent]):
            held[agent] = c
    return held


def _branch_part(inst: Instance, outcome: Outcome, branch: BranchId) -> frozenset:
    return frozenset(c for c in outcome if inst.contract_index[c].branch == branch)


def is_individually_rational(inst: Instance, outcome: Outcome) -> bool:
    """Every signed contract is acceptable to its agent, and every branch
    would re-choose exactly its assigned set."""
    for cid in outcome:
        if not inst.acceptable(inst.contract_index[cid].agent, cid):
            return False
    for branch in inst.branches:
        part = _branch_part(inst, outcome, branch)
        if branch_choice(inst, branch, part).chosen != part:
            return False
    return True


def find_blocking_set(
    inst: Instance, outcome: Outcome, bound: int = DEFAULT_BLOCKING_BOUND
) -> tuple[BranchId, frozenset] | None:
    """Exhaustively search for a branch and contract set blocking a feasible
    ``outcome`` (:func:`stability_report` checks feasibility first).

    A set Y of contracts at branch b blocks if Y differs from what b holds,
    b would choose exactly Y from outcome + Y, and every agent in Y finds her
    Y-contract the best among her contracts in outcome + Y.  Those are at
    most her held contract and her Y-contract, so the agent-side condition
    is a filter on single contracts: acceptable to the agent, and her held
    contract or one she prefers to it.  Enumeration is deterministic
    (branches by id, filtered candidates by size then lexicographically) and
    restricted to sets with one contract per agent.
    """
    index = inst.contract_index
    held = holdings(inst, outcome)
    for branch in inst.branches:
        universe = branch_universe(inst, branch, bound, "blocking enumeration")
        out_b = _branch_part(inst, outcome, branch)
        base = branch_choice(inst, branch, out_b).chosen
        candidates = []
        for c in universe:
            agent = index[c].agent
            now = held.get(agent)
            if inst.acceptable(agent, c) and (c == now or inst.prefers(agent, c, now)):
                candidates.append(c)
        for size in range(1, inst.branches[branch].n + 1):
            for combo in combinations(candidates, size):
                y = frozenset(combo)
                if (
                    len({index[c].agent for c in combo}) == size
                    and y != base
                    and branch_choice(inst, branch, out_b | y).chosen == y
                ):
                    return branch, y
    return None


@dataclass(frozen=True)
class StabilityReport:
    """The verdict of :func:`stability_report`.  ``violations`` lists the
    outcome's feasibility problems; when there are any, neither IR nor the
    blocking search runs (``individually_rational`` is False, ``blocking``
    None).  ``blocking`` is a (branch, contract set) that blocks."""

    violations: tuple[str, ...]
    individually_rational: bool
    blocking: tuple[BranchId, frozenset] | None

    @property
    def stable(self) -> bool:
        return not self.violations and self.individually_rational and self.blocking is None


def stability_report(
    inst: Instance, outcome: Outcome, bound: int = DEFAULT_BLOCKING_BOUND
) -> StabilityReport:
    """Feasibility, then individual rationality and the exhaustive
    blocking-set search; both of those run on every feasible outcome, so a
    report on an outcome that is not IR still names a blocking set."""
    violations = tuple(outcome_violations(inst, outcome))
    if violations:
        return StabilityReport(violations, False, None)
    return StabilityReport(
        (), is_individually_rational(inst, outcome), find_blocking_set(inst, outcome, bound)
    )
