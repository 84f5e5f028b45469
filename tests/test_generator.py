import hashlib

import pytest

from sspwct.generator import (
    LOCATION_ADJACENT,
    LOCATION_RANDOM,
    LOCATION_TERMINAL,
    GeneratorConfig,
    generate_batch,
    generate_instance,
)
from sspwct.model import serialize_instance, validate_instance


def test_same_seed_same_bytes():
    a = serialize_instance(generate_instance(GeneratorConfig(seed=7)))
    b = serialize_instance(generate_instance(GeneratorConfig(seed=7)))
    assert a == b
    assert a != serialize_instance(generate_instance(GeneratorConfig(seed=8)))


def test_every_instance_validates():
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, agents=5, branches=3, capacity=(1, 4))
        assert not validate_instance(generate_instance(cfg))


def test_location_policies():
    adjacent = generate_instance(GeneratorConfig(seed=1, location_policy=LOCATION_ADJACENT))
    for cfg in adjacent.branches.values():
        assert cfg.location == tuple(range(1, cfg.n + 1))
    terminal = generate_instance(GeneratorConfig(seed=1, location_policy=LOCATION_TERMINAL))
    for cfg in terminal.branches.values():
        assert cfg.location == (cfg.n,) * cfg.n
    for seed in range(10):
        rnd = generate_instance(GeneratorConfig(seed=seed, location_policy=LOCATION_RANDOM, capacity=(2, 4)))
        for cfg in rnd.branches.values():
            for k, l_k in enumerate(cfg.location, start=1):
                assert k <= l_k <= cfg.n
            assert list(cfg.location) == sorted(cfg.location)


def test_ranges_respected():
    cfg = GeneratorConfig(seed=3, agents=3, branches=2, capacity=(2, 3), contracts_per_pair=(1, 2))
    inst = generate_instance(cfg)
    assert len(inst.agents) == 3 and len(inst.branches) == 2
    for bc in inst.branches.values():
        assert 2 <= bc.n <= 3
    for agent in inst.agents:
        per_branch = {}
        for cid in inst.contracts_of_agent[agent]:
            per_branch.setdefault(inst.contract_index[cid].branch, []).append(cid)
        for owned in per_branch.values():
            assert 1 <= len(owned) <= 2


def test_ensure_acceptable_default_and_opt_out():
    cfg = GeneratorConfig(seed=5, density=0.05, contracts_per_pair=(1, 1))
    inst = generate_instance(cfg)
    for agent in inst.agents:
        if inst.contracts_of_agent[agent]:
            assert inst.preferences[agent]
    loose = generate_instance(
        GeneratorConfig(seed=5, density=0.05, contracts_per_pair=(1, 1), ensure_acceptable=False)
    )
    assert any(not loose.preferences[a] for a in loose.agents)


def test_batch_uses_consecutive_seeds():
    batch = generate_batch(GeneratorConfig(seed=10), 3)
    singles = [generate_instance(GeneratorConfig(seed=10 + i)) for i in range(3)]
    assert batch == singles


# sha256 of the serialized market, pinned before the generator collected
# contract ids in its creation loop; the last config has more than 999
# contracts, past which ids stop sorting numerically (c1000 < c101)
PINNED = [
    (GeneratorConfig(seed=7), 6,
     "e2ad79488ec6cfb40f94a9bce86017a74ab0d49c42cdf0186ff5c3aaf010f7af"),
    (GeneratorConfig(seed=3, agents=40, branches=4, capacity=(2, 5), location_policy=LOCATION_ADJACENT), 176,
     "0ba4436df3c8b1765845623e816fa5eadfb7037a45e0bafc3c55781bd3aaea37"),
    (GeneratorConfig(seed=11, agents=300, branches=5, capacity=(3, 8), density=0.6, transfer_density=0.3,
                     location_policy=LOCATION_TERMINAL), 1490,
     "bc2b24c441c3d8556e5491beb92bd9004361860130b6d81dd9cf790d6d569ec3"),
]


@pytest.mark.parametrize("cfg, contracts, digest", PINNED)
def test_generated_bytes_are_pinned(cfg, contracts, digest):
    inst = generate_instance(cfg)
    assert len(inst.contracts) == contracts
    assert hashlib.sha256(serialize_instance(inst).encode()).hexdigest() == digest
