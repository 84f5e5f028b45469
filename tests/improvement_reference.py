"""Reference improvement generator and checker kept only for differential
tests.

These are the straightforward versions the library's single-pass ones
replaced: the generator rebuilds the whole instance after each promotion and
can be told how many promotions to make, the checker filters each seat's
ranking twice and recounts the other agents' contracts above each of the
agent's contracts, and the respect-for-improvements check runs COM in full
on every trial's market, unchanged or not.  They must not be imported by
``sspwct`` itself.
"""
from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

from sspwct import mechanism, oracles
from sspwct.model import ORIGINAL, AgentId, ContractId, Instance


def _others_sequence(ranking: Sequence[ContractId], agent: AgentId, inst: Instance) -> list[ContractId]:
    return [cid for cid in ranking if inst.contract_index[cid].agent != agent]


def is_priority_improvement(base: Instance, improved: Instance, agent: AgentId) -> bool:
    """Pairwise check of the two improvement conditions on every slot:
    the agent's contracts only gain priority (and stay acceptable), while
    other agents' contracts keep their relative order and acceptability."""
    if set(base.branches) != set(improved.branches):
        return False
    for b, cfg in base.branches.items():
        new_cfg = improved.branches[b]
        if (cfg.n, cfg.location, cfg.transfer) != (new_cfg.n, new_cfg.location, new_cfg.transfer):
            return False
        for slot in cfg.slots():
            old = cfg.priority(slot)
            new = new_cfg.priority(slot)
            if _others_sequence(old, agent, base) != _others_sequence(new, agent, base):
                return False
            for pos, cid in enumerate(old):
                if base.contract_index[cid].agent != agent:
                    continue
                if cid not in new:
                    return False
                others_above_old = sum(
                    1 for c in old[:pos] if base.contract_index[c].agent != agent
                )
                others_above_new = sum(
                    1
                    for c in new[: new.index(cid)]
                    if base.contract_index[c].agent != agent
                )
                if others_above_new > others_above_old:
                    return False
    return True


def generate_improvement(
    inst: Instance, agent: AgentId, seed: int = 0, moves: int | None = None
) -> Instance:
    """Randomly promote the agent's contracts in slot priority orders.

    Applies between one and three single-contract promotions (each either
    moves a listed contract strictly up or inserts an unlisted one), which
    composes to an arbitrary improvement.  Returns the instance unchanged
    when the agent already tops every ranking it could appear in.
    """
    rng = random.Random(seed)
    if moves is None:
        moves = rng.randint(1, 3)
    current = inst
    for _ in range(moves):
        options = []
        for b, cfg in current.branches.items():
            mine = [
                cid
                for cid in current.contracts_of_agent.get(agent, ())
                if current.contract_index[cid].branch == b
            ]
            if not mine:
                continue
            for slot in cfg.slots():
                ranking = cfg.priority(slot)
                for cid in mine:
                    if cid in ranking:
                        pos = ranking.index(cid)
                        if pos > 0:
                            options.append((b, slot, cid, "raise"))
                    else:
                        options.append((b, slot, cid, "insert"))
        if not options:
            break
        b, slot, cid, kind = rng.choice(options)
        cfg = current.branches[b]
        ranking = list(cfg.priority(slot))
        if kind == "raise":
            pos = ranking.index(cid)
            ranking.remove(cid)
            ranking.insert(rng.randrange(0, pos), cid)
        else:
            ranking.insert(rng.randint(0, len(ranking)), cid)
        field = "original_priorities" if slot.kind == ORIGINAL else "shadow_priorities"
        rows = list(getattr(cfg, field))
        rows[slot.index - 1] = ranking
        current = replace(current, branches={**current.branches, b: replace(cfg, **{field: rows})})
    return current


def check_respects_improvements(
    inst: Instance, agent: AgentId, trials: int = 20, seed: int = 0
) -> oracles.PropertyVerdict:
    """Each trial builds its market with :func:`generate_improvement`, checks
    it with :func:`is_priority_improvement` and runs the library's
    :func:`~sspwct.mechanism.cumulative_offer` on it, even when the market
    came back unchanged."""
    baseline = mechanism.holdings(inst, mechanism.cumulative_offer(inst).outcome).get(agent)

    def witness(trial_seed: int) -> dict | None:
        improved = generate_improvement(inst, agent, seed=trial_seed)
        if not is_priority_improvement(inst, improved, agent):
            raise RuntimeError(
                f"generated priority change for {agent} fails the improvement conditions"
            )
        held = mechanism.holdings(inst, mechanism.cumulative_offer(improved).outcome).get(agent)
        if not inst.prefers(agent, baseline, held):
            return None
        return {
            "agent": agent,
            "seed": trial_seed,
            "baseline_assignment": baseline,
            "improved_assignment": held,
        }

    return oracles._verdict("respects-improvements", map(witness, range(seed, seed + trials)))
