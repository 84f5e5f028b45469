"""The generator's own index draws against ``random.Random``'s methods, and
the generator against the one it replaced (kept in ``generator_reference``).

``generator._below`` and ``generator._shuffle`` must make exactly the draws
``randint``, ``choice`` and ``shuffle`` make on the Python running the
tests: the same results and the same generator state afterwards, so every
later draw agrees too.  The generator must then write the same bytes as the
reference on every kind of config.
"""
import itertools
import random
from dataclasses import replace

import pytest

import generator_reference as ref
from sspwct import generator
from sspwct.generator import LOCATION_POLICIES, GeneratorConfig, generate_instance
from sspwct.model import serialize_instance

SEEDS = range(300)
# every width up to 70, the powers of two and their neighbours (where the
# rejection rate is lowest and highest), and a width past 32 bits
WIDTHS = sorted({*range(1, 71), *(2 ** p + d for p in range(7, 12) for d in (-1, 0, 1)), 2 ** 40 + 3})


def test_shuffle_makes_random_shuffles_draws():
    for length, seed in itertools.product(range(71), SEEDS):
        ours, theirs = random.Random(seed), random.Random(seed)
        mine, expected = list(range(length)), list(range(length))
        generator._shuffle(mine, ours.getrandbits)
        theirs.shuffle(expected)
        assert mine == expected, (length, seed)
        assert ours.getstate() == theirs.getstate(), (length, seed)


def test_below_makes_randint_and_choices_draws():
    for n, seed in itertools.product(WIDTHS, SEEDS[:60]):
        ours, ints, choices = random.Random(seed), random.Random(seed), random.Random(seed)
        for low in (0, 1, 7):
            drawn = low + generator._below(ours.getrandbits, n)
            assert drawn == ints.randint(low, low + n - 1), (n, seed, low)
            assert drawn - low == choices.choice(range(n)), (n, seed, low)
        assert ours.getstate() == ints.getstate() == choices.getstate(), (n, seed)


def grid(density, ensure, policy):
    """Markets of every contract range up to (0, 4) at three sizes."""
    for contracts, (seed, agents, branches, capacity) in itertools.product(
        ((0, 0), (1, 1), (0, 2), (0, 4)), ((0, 4, 2, (1, 3)), (5, 7, 3, (2, 5)), (11, 2, 1, (1, 1))),
    ):
        yield GeneratorConfig(seed=seed, agents=agents, branches=branches, capacity=capacity,
                              contracts_per_pair=contracts, density=density, ensure_acceptable=ensure,
                              location_policy=policy)


@pytest.mark.parametrize("ensure", [True, False], ids=["ensure", "loose"])
@pytest.mark.parametrize("policy", LOCATION_POLICIES)
@pytest.mark.parametrize("density", [0, 1, 0.8, 0.1])  # 1 as an int, as a library caller may give it
def test_generator_writes_the_reference_bytes(density, ensure, policy):
    for cfg in grid(density, ensure, policy):
        assert serialize_instance(generate_instance(cfg)) == serialize_instance(ref.generate_instance(cfg)), cfg


def test_the_grid_reaches_each_draw():
    # ensure_acceptable draws an id on some market, density 1 ranks every
    # contract, and some rankings are long enough for a shuffle to redraw
    assert any(
        generate_instance(cfg).preferences != generate_instance(replace(cfg, ensure_acceptable=False)).preferences
        for cfg in grid(0.1, True, "random")
    )
    full = generate_instance(list(grid(1, True, "random"))[-2])
    assert all(len(row) == len(full.contracts_of_branch[b]) for b, c in full.branches.items()
               for row in c.original_priorities + c.shadow_priorities)
    assert max(len(row) for row in full.branches["b01"].original_priorities) > 4


@pytest.mark.parametrize("cfg", [
    GeneratorConfig(seed=1, agents=120, branches=6, capacity=(5, 12), contracts_per_pair=(0, 4)),
    GeneratorConfig(seed=2, agents=80, branches=4, capacity=(1, 9), density=0.3, location_policy="adjacent"),
])
def test_larger_markets_match_the_reference(cfg):
    assert serialize_instance(generate_instance(cfg)) == serialize_instance(ref.generate_instance(cfg))
