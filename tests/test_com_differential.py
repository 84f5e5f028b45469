"""Differential tests: the incremental cumulative offer process and the
planned choice rules against the straightforward implementations they
replaced (kept in ``com_reference``).  Traces must match exactly, step by
step and pool by pool, for the deterministic and the seeded random policy;
the reference side is serialized without the shared-pool memo."""
import random

import pytest

import com_reference as ref
from sspwct.choice import completion_choose, sspwct_choose
from sspwct.generator import GeneratorConfig, generate_batch, generate_instance
from sspwct.mechanism import cumulative_offer

BATCHES = {
    "default": (GeneratorConfig(seed=3000), 100),
    "12x3": (GeneratorConfig(seed=3100, agents=12, branches=3), 40),
    "30x4": (GeneratorConfig(seed=3200, agents=30, branches=4), 15),
}
POLICIES = (("lex", 0), ("random", 1), ("random", 2))


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_traces_match_reference(batch):
    cfg, count = BATCHES[batch]
    steps = 0
    for i, inst in enumerate(generate_batch(cfg, count)):
        for policy, seed in POLICIES:
            got = cumulative_offer(inst, policy=policy, seed=seed)
            want = ref.cumulative_offer(inst, policy=policy, seed=seed)
            assert got.to_json() == ref.trace_to_json(want), (cfg.seed + i, policy, seed)
            steps += len(got.steps)
    assert steps > count  # the batch is not trivially empty


def test_large_market_lex_trace_matches_reference():
    inst = generate_instance(GeneratorConfig(seed=3400, agents=200, branches=10, capacity=(15, 15)))
    got = cumulative_offer(inst)
    assert len(got.steps) > 500
    assert got.to_json() == ref.trace_to_json(ref.cumulative_offer(inst))


@pytest.mark.parametrize("rule, completion", [(sspwct_choose, False), (completion_choose, True)])
def test_choice_rules_match_reference(rule, completion):
    rng = random.Random(3500)
    configs = [GeneratorConfig(seed=3500, agents=12, branches=3, capacity=(1, 4)),
               GeneratorConfig(seed=3600, agents=6, branches=2, location_policy="adjacent")]
    calls = 0
    for cfg in configs:
        for inst in generate_batch(cfg, 20):
            for b, branch in inst.branches.items():
                universe = inst.contracts_of_branch[b]
                for _ in range(8):
                    offers = frozenset(c for c in universe if rng.random() < 0.6)
                    got = rule(branch, offers, inst.contract_index)
                    want = ref.choose(branch, offers, inst.contract_index, completion)
                    assert got.chosen == want.chosen
                    assert list(got.per_slot.items()) == list(want.per_slot.items())
                    calls += 1
    assert calls > 500
