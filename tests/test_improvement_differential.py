"""The single-pass improvement generator and checker against the reference
versions they replaced (``improvement_reference``): the same improved
instance for every agent and seed, and the same verdict on every pair."""
import random
from dataclasses import replace

import pytest

import improvement_reference as ref
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.mechanism import cumulative_offer
from sspwct.model import Instance
from sspwct.oracles import generate_improvement, is_priority_improvement

from conftest import branch, make_instance

SEEDS = range(6)


def shuffled_ids(inst: Instance, rng: random.Random) -> Instance:
    """The same market with its contract ids permuted, so that an agent's
    contracts in id order are no longer in branch order."""
    ids = [c.id for c in inst.contracts]
    rename = dict(zip(ids, rng.sample(ids, len(ids))))

    def rows(table):
        return tuple(tuple(rename[cid] for cid in row) for row in table)

    return Instance(
        tuple(replace(c, id=rename[c.id]) for c in inst.contracts),
        {agent: tuple(rename[cid] for cid in r) for agent, r in inst.preferences.items()},
        {
            b: replace(cfg, original_priorities=rows(cfg.original_priorities),
                       shadow_priorities=rows(cfg.shadow_priorities))
            for b, cfg in inst.branches.items()
        },
    )


def crosses_branch_order(inst: Instance, agent: str) -> bool:
    branches = [inst.contract_index[cid].branch for cid in inst.contracts_of_agent[agent]]
    return branches != sorted(branches)


def assert_matches_reference(inst: Instance) -> None:
    """Compares every agent's improvement at every seed, and the checker's
    verdict on it, on its reverse (a demotion) and on the next agent's
    improvement."""
    agents = inst.agents
    for seed in SEEDS:
        improved = [generate_improvement(inst, agent, seed=seed) for agent in agents]
        for i, agent in enumerate(agents):
            assert improved[i] == ref.generate_improvement(inst, agent, seed=seed), (agent, seed)
            other = improved[(i + 1) % len(agents)]
            for base, new in ((inst, improved[i]), (improved[i], inst), (inst, other)):
                assert is_priority_improvement(base, new, agent) == ref.is_priority_improvement(
                    base, new, agent
                ), (agent, seed)


def test_generated_markets_match_reference():
    for s in range(300):
        assert_matches_reference(generate_instance(GeneratorConfig(seed=s)))


def test_shuffled_id_markets_match_reference():
    rng = random.Random(12)
    crossing = 0
    for s in range(75):
        inst = shuffled_ids(generate_instance(GeneratorConfig(seed=1000 + s, agents=5)), rng)
        crossing += sum(crosses_branch_order(inst, agent) for agent in inst.agents)
        assert_matches_reference(inst)
    assert crossing > 50


def test_builds_at_most_one_instance(monkeypatch):
    # a trial market is copied from its base, so it runs no constructor at
    # all; the lookups and seat orders it takes from the base must equal
    # those a fresh build of the same market makes
    built = []
    post_init = Instance.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Instance, "__post_init__", counted)
    taken = planned = 0
    for s in range(40):
        inst = generate_instance(GeneratorConfig(seed=s))
        cumulative_offer(inst)  # builds the seat orders a trial takes from its base
        assert inst.contracts_of_branch
        for agent in inst.agents:
            for seed in SEEDS:
                built.clear()
                improved = generate_improvement(inst, agent, seed=seed)
                assert built == []
                assert improved == ref.generate_improvement(inst, agent, seed=seed), (agent, seed)
                if improved is inst:
                    continue
                cumulative_offer(improved)
                fresh = Instance(improved.contracts, improved.preferences,
                                 {b: replace(cfg) for b, cfg in improved.branches.items()})
                assert vars(improved)["contracts_of_branch"] == fresh.contracts_of_branch
                for b, cfg in improved.branches.items():
                    if "slot_order" in vars(inst.branches[b]):
                        assert vars(cfg)["slot_order"] == fresh.branches[b].slot_order
                        taken += cfg is not inst.branches[b]
                    if "seat_plan" in vars(cfg):
                        assert cfg.seat_plan == fresh.branches[b].seat_plan
                        planned += cfg is not inst.branches[b]
    assert taken > 100 and planned > 100, (taken, planned)


@pytest.mark.parametrize("agent", ["A", "nobody"])
def test_nothing_to_promote_returns_the_instance_itself(agent):
    inst = make_instance(
        [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, original=[("x",)], shadow=[("x",)])]
    )
    for seed in SEEDS:
        assert generate_improvement(inst, agent, seed=seed) is inst
