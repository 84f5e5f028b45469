"""Random instance generation for experiments and oracle batteries.

All randomness flows from one seed through :class:`random.Random`, the
stdlib Mersenne Twister, so any generated batch and any counterexample
found on it can be reproduced exactly.  Python promises a seeded stream
only for ``random()``; its integer methods (``randint``, ``choice``,
``shuffle``) may change between versions.  So every index draw here
(contract counts, capacities, location vectors, the ensured preference and
each shuffle) is the module's own rejection draw over ``getrandbits``,
:func:`_below` and :func:`_shuffle`, which make exactly the draws those
methods make on CPython 3.10-3.13.
"""
from __future__ import annotations

import random
from collections.abc import Callable
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
        for name in ("capacity", "contracts_per_pair"):  # the draws need integer bounds
            if not all(isinstance(bound, int) for bound in getattr(self, name)):
                problems.append(f"{name} must hold integers (got {getattr(self, name)})")
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


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``: ``getrandbits`` of
    ``n``'s bit length, redrawn until below ``n``, as
    ``random.Random._randbelow`` draws it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``x`` in place with the draws ``random.Random.shuffle`` makes:
    :func:`_below` of ``i + 1`` for each ``i`` from ``len(x) - 1`` down to 1,
    inlined because it runs once per ranking entry."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _location_vector(n: int, policy: str, randint: Callable[[int, int], int]) -> tuple[int, ...]:
    if policy == LOCATION_ADJACENT:
        return tuple(range(1, n + 1))
    if policy == LOCATION_TERMINAL:
        return (n,) * n
    loc: list[int] = []  # LOCATION_RANDOM; GeneratorConfig admits no other policy
    for k in range(1, n + 1):
        lower = max(k, loc[-1] if loc else 1)
        loc.append(randint(lower, n))
    return tuple(loc)


def generate_instance(cfg: GeneratorConfig) -> Instance:
    """Deterministically generate a valid instance from the config's seed.

    Acceptability density controls both how much of her own contract list an
    agent ranks and how much of the branch's contract pool each slot ranks.
    Unless disabled, every agent with contracts ranks at least one so markets
    are not trivially empty.
    """
    rng = random.Random(cfg.seed)
    draw, getrandbits, density = rng.random, rng.getrandbits, cfg.density

    def randint(low: int, high: int) -> int:
        return low + _below(getrandbits, high - low + 1)

    def sample(ids: list[str]) -> list[str]:  # each id with probability density, in random order
        listed = [cid for cid in ids if draw() < density]
        _shuffle(listed, getrandbits)
        return listed

    agents = [f"i{j:02d}" for j in range(1, cfg.agents + 1)]
    branch_ids = [f"b{j:02d}" for j in range(1, cfg.branches + 1)]

    # each agent's and each branch's contract ids in creation order, which
    # the draws below walk (ids past c999 do not sort numerically)
    contracts: list[Contract] = []
    own_of: dict[str, list[str]] = {agent: [] for agent in agents}
    pool_of: dict[str, list[str]] = {branch: [] for branch in branch_ids}
    for agent in agents:
        for branch in branch_ids:
            for t in range(randint(*cfg.contracts_per_pair)):
                cid = f"c{len(contracts) + 1:03d}"
                contracts.append(Contract(cid, agent, branch, terms=f"t{t + 1}"))
                own_of[agent].append(cid)
                pool_of[branch].append(cid)

    preferences = {}
    for agent in agents:
        own = own_of[agent]
        listed = sample(own)
        if cfg.ensure_acceptable and own and not listed:  # shuffling one id draws nothing
            listed = [own[_below(getrandbits, len(own))]]
        preferences[agent] = listed

    branches = {}
    for branch in branch_ids:
        n = randint(*cfg.capacity)
        pool = pool_of[branch]
        branches[branch] = BranchConfig(
            branch,
            n,
            _location_vector(n, cfg.location_policy, randint),
            tuple(1 if draw() < cfg.transfer_density else 0 for _ in range(n)),
            tuple(sample(pool) for _ in range(n)),
            tuple(sample(pool) for _ in range(n)),
        )

    return Instance(tuple(contracts), preferences, branches)


def generate_batch(cfg: GeneratorConfig, count: int) -> list[Instance]:
    """``count`` instances with seeds cfg.seed, cfg.seed+1, ..."""
    return [generate_instance(replace(cfg, seed=cfg.seed + i)) for i in range(count)]
