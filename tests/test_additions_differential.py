"""``comparative.apply_additions`` against the per-contract version it
replaced (``additions_reference``): the same market, serialized byte for
byte, from generated markets and additions in both modes, and the same
:class:`ConditionViolation` message for each kind of bad addition."""
import random
from dataclasses import replace

import pytest

import additions_reference as ref
from sspwct.comparative import (
    MODE_BOTTOM,
    MODE_SINGLE_AGENT,
    AddedContract,
    ConditionViolation,
    apply_additions,
    random_added_contracts,
)
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.model import Contract, SlotId, serialize_instance

from conftest import MISSING_SEATS, branch, make_instance, seat_id

MODES = [MODE_BOTTOM, MODE_SINGLE_AGENT]

#: small markets and one with long seat rows
CONFIGS = [
    (GeneratorConfig(seed=2600, agents=5, branches=3, density=0.7, transfer_density=0.4), 60),
    (GeneratorConfig(seed=2700, agents=40, branches=4, capacity=(3, 6)), 10),
]


def _markets():
    for cfg, count in CONFIGS:
        for i in range(count):
            yield generate_instance(replace(cfg, seed=cfg.seed + i))


def _same_violation(inst, adds, mode):
    with pytest.raises(ConditionViolation) as got:
        apply_additions(inst, adds, mode)
    with pytest.raises(ConditionViolation) as want:
        ref.apply_additions(inst, adds, mode)
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.mark.parametrize("mode", MODES)
def test_additions_build_the_reference_market(mode):
    rng = random.Random(29)
    counts = set()
    for inst in _markets():
        adds = random_added_contracts(inst, rng, mode, count=rng.randint(1, 3))
        got = serialize_instance(apply_additions(inst, adds, mode))
        assert got == serialize_instance(ref.apply_additions(inst, adds, mode))
        assert got != serialize_instance(inst)
        counts.add(len(adds))
    assert counts == {1, 2, 3}


def _last(adds, **changes):
    """``adds`` with the last addition's fields, or its contract's, changed."""
    a = adds[-1]
    contract = replace(a.contract, **{k: v for k, v in changes.items() if k in ("id", "branch")})
    fields = {k: v for k, v in changes.items() if k in ("pref_position", "slot_positions")}
    return adds[:-1] + [replace(a, contract=contract, **fields)]


def _listed(inst, adds, pos, past_n=False):
    """``adds`` with the last addition also listed at ``pos`` of its
    branch's original seat 1, or of seat n+1, which the branch lacks."""
    cfg = inst.branches[adds[-1].contract.branch]
    slot = cfg.original_slot(cfg.n + 1 if past_n else 1)
    return _last(adds, slot_positions={**adds[-1].slot_positions, slot: pos})


#: (name, the bad additions made from a market and two valid additions,
#: words of the message in bottom mode and in single-agent mode); a seat
#: position outside the row is also one off the bottom
BAD_ADDITIONS = [
    ("market-id", lambda inst, adds: _last(adds, id=inst.contracts[0].id), "already exists", "already exists"),
    ("repeated-id", lambda inst, adds: _last(adds, id=adds[0].contract.id), "already exists", "already exists"),
    ("unknown-branch", lambda inst, adds: _last(adds, branch="zz"), "unknown branch zz", "unknown branch zz"),
    ("preference-below", lambda inst, adds: _last(adds, pref_position=-1),
     "preference position -1", "preference position -1"),
    ("preference-above", lambda inst, adds: _last(adds, pref_position=10**6),
     "preference position 1000000", "preference position 1000000"),
    ("seat-below", lambda inst, adds: _listed(inst, adds, -1), "bottom mode", "position -1 out of range"),
    ("seat-above", lambda inst, adds: _listed(inst, adds, 10**6), "bottom mode", "position 1000000 out of range"),
    ("seat-n+1", lambda inst, adds: _listed(inst, adds, 0, past_n=True), "cannot be listed", "cannot be listed"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("corrupt, bottom, single", [b[1:] for b in BAD_ADDITIONS],
                         ids=[b[0] for b in BAD_ADDITIONS])
def test_a_bad_addition_raises_the_reference_message(mode, corrupt, bottom, single):
    rng = random.Random(29)
    for inst in _markets():
        adds = corrupt(inst, random_added_contracts(inst, rng, mode, count=2))
        assert (bottom if mode == MODE_BOTTOM else single) in _same_violation(inst, adds, mode)


#: a two-seat branch ``b``, for every seat of ``MISSING_SEATS``
MARKET = make_instance(
    [("x", "A", "b"), ("y", "B", "b")],
    {"A": ("x",), "B": ("y",)},
    [branch(n=2, original=[("x",), ("y", "x")], shadow=[("y",), ()]), branch("z")],
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("slot", MISSING_SEATS, ids=seat_id)
def test_a_seat_the_branch_lacks_raises_the_reference_message(mode, slot):
    # the first addition is listed at the bottom of b:o1, the second at the missing seat
    adds = [
        AddedContract(Contract("n1", "A", "b", "t1"), 0, {SlotId("b", "original", 1): 1}),
        AddedContract(Contract("n2", "A", "b", "t2"), 2, {slot: 0}),
    ]
    message = _same_violation(MARKET, adds, mode)
    assert message == f"contract n2 cannot be listed: branch b has no seat {slot!r}"


def test_a_market_that_fails_validation_gets_the_reference_message():
    # a location vector shorter than n, which a seat order cannot be built from
    inst = make_instance([("x", "A", "b")], {"A": ("x",)}, [branch(n=2, location=(1,), original=[("x",), ()])])
    adds = [AddedContract(Contract("n1", "A", "b", "t1"), 0, {SlotId("b", "original", 1): 1})]
    message = _same_violation(inst, adds, MODE_BOTTOM)
    assert message == "additions produced an invalid instance: branch b: location vector has length 1, expected 2"
