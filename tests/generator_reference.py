"""Reference instance generator kept only for differential tests.

This is ``sspwct.generator.generate_instance`` as it was before the
generator made its own index draws: it calls ``random.Random``'s
``randint``, ``choice`` and ``shuffle``, and samples each ranking in a
nested function that reads ``rng.random`` and ``cfg.density`` per contract.
It must not be imported by ``sspwct`` itself.
"""
from __future__ import annotations

import random

from sspwct.generator import LOCATION_ADJACENT, LOCATION_TERMINAL, GeneratorConfig
from sspwct.model import BranchConfig, Contract, Instance


def _location_vector(n: int, policy: str, rng: random.Random) -> tuple[int, ...]:
    if policy == LOCATION_ADJACENT:
        return tuple(range(1, n + 1))
    if policy == LOCATION_TERMINAL:
        return (n,) * n
    loc: list[int] = []
    for k in range(1, n + 1):
        lower = max(k, loc[-1] if loc else 1)
        loc.append(rng.randint(lower, n))
    return tuple(loc)


def generate_instance(cfg: GeneratorConfig) -> Instance:
    rng = random.Random(cfg.seed)
    agents = [f"i{j:02d}" for j in range(1, cfg.agents + 1)]
    branch_ids = [f"b{j:02d}" for j in range(1, cfg.branches + 1)]

    contracts: list[Contract] = []
    own_of: dict[str, list[str]] = {agent: [] for agent in agents}
    pool_of: dict[str, list[str]] = {branch: [] for branch in branch_ids}
    for agent in agents:
        for branch in branch_ids:
            for t in range(rng.randint(*cfg.contracts_per_pair)):
                cid = f"c{len(contracts) + 1:03d}"
                contracts.append(Contract(cid, agent, branch, terms=f"t{t + 1}"))
                own_of[agent].append(cid)
                pool_of[branch].append(cid)

    preferences = {}
    for agent in agents:
        own = own_of[agent]
        listed = [cid for cid in own if rng.random() < cfg.density]
        if cfg.ensure_acceptable and own and not listed:
            listed = [rng.choice(own)]
        rng.shuffle(listed)
        preferences[agent] = tuple(listed)

    branches = {}
    for branch in branch_ids:
        n = rng.randint(*cfg.capacity)
        pool = pool_of[branch]

        def ranking() -> tuple[str, ...]:
            listed = [cid for cid in pool if rng.random() < cfg.density]
            rng.shuffle(listed)
            return tuple(listed)

        branches[branch] = BranchConfig(
            branch,
            n,
            _location_vector(n, cfg.location_policy, rng),
            tuple(1 if rng.random() < cfg.transfer_density else 0 for _ in range(n)),
            tuple(ranking() for _ in range(n)),
            tuple(ranking() for _ in range(n)),
        )

    return Instance(tuple(contracts), preferences, branches)
