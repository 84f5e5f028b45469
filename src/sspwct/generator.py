"""Random instance generation for experiments and oracle batteries.

All randomness flows from one seed through :class:`random.Random` (the
stdlib Mersenne Twister, whose seeded streams are stable across platforms
and versions), so any generated batch and any counterexample found on it
can be reproduced exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .model import BranchConfig, Contract, InputError, Instance

LOCATION_ADJACENT = "adjacent"
LOCATION_TERMINAL = "terminal"
LOCATION_RANDOM = "random"
LOCATION_POLICIES = (LOCATION_ADJACENT, LOCATION_TERMINAL, LOCATION_RANDOM)


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator settings; ``capacity`` and ``contracts_per_pair`` are
    inclusive (min, max) ranges.  An out-of-range field raises
    :class:`~sspwct.model.InputError` naming it."""

    seed: int = 0
    agents: int = 4
    branches: int = 2
    capacity: tuple[int, int] = (1, 3)
    contracts_per_pair: tuple[int, int] = (0, 2)
    density: float = 0.8
    transfer_density: float = 0.5
    location_policy: str = LOCATION_RANDOM
    ensure_acceptable: bool = True

    def __post_init__(self) -> None:
        problems = []
        if self.agents < 1:
            problems.append(f"agents must be at least 1 (got {self.agents})")
        if self.branches < 1:
            problems.append(f"branches must be at least 1 (got {self.branches})")
        low, high = self.capacity
        if not 1 <= low <= high:
            problems.append(f"capacity must satisfy 1 <= min <= max (got min {low}, max {high})")
        low, high = self.contracts_per_pair
        if not 0 <= low <= high:
            problems.append(
                f"contracts_per_pair must satisfy 0 <= min <= max (got min {low}, max {high})"
            )
        for name in ("density", "transfer_density"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                problems.append(f"{name} must lie in [0, 1] (got {value})")
        if self.location_policy not in LOCATION_POLICIES:
            problems.append(
                f"location_policy must be one of {', '.join(LOCATION_POLICIES)} "
                f"(got {self.location_policy!r})"
            )
        if problems:
            raise InputError("invalid generator config: " + "; ".join(problems))


def _location_vector(n: int, policy: str, rng: random.Random) -> tuple[int, ...]:
    if policy == LOCATION_ADJACENT:
        return tuple(range(1, n + 1))
    if policy == LOCATION_TERMINAL:
        return (n,) * n
    loc: list[int] = []  # LOCATION_RANDOM; GeneratorConfig admits no other policy
    for k in range(1, n + 1):
        lower = max(k, loc[-1] if loc else 1)
        loc.append(rng.randint(lower, n))
    return tuple(loc)


def generate_instance(cfg: GeneratorConfig) -> Instance:
    """Deterministically generate a valid instance from the config's seed.

    Acceptability density controls both how much of her own contract list an
    agent ranks and how much of the branch's contract pool each slot ranks.
    Unless disabled, every agent with contracts ranks at least one so markets
    are not trivially empty.
    """
    rng = random.Random(cfg.seed)
    agents = [f"i{j:02d}" for j in range(1, cfg.agents + 1)]
    branch_ids = [f"b{j:02d}" for j in range(1, cfg.branches + 1)]

    # each agent's and each branch's contract ids in creation order, which
    # the draws below walk (ids past c999 do not sort numerically)
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


def generate_batch(cfg: GeneratorConfig, count: int) -> list[Instance]:
    """``count`` instances with seeds cfg.seed, cfg.seed+1, ..."""
    return [generate_instance(replace(cfg, seed=cfg.seed + i)) for i in range(count)]
