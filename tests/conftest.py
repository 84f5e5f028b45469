import dataclasses

from sspwct.model import BranchConfig, Contract, Instance, SlotId


def make_instance(contracts, prefs, branches) -> Instance:
    """Compact instance builder for fixtures.

    ``contracts`` is a list of (id, agent, branch) triples; terms default to
    the contract id so the (agent, branch, terms) uniqueness invariant never
    trips by accident.
    """
    built = tuple(Contract(cid, agent, branch, terms=cid) for cid, agent, branch in contracts)
    return Instance(built, prefs, {cfg.id: cfg for cfg in branches})


def with_preference(inst: Instance, agent: str, ranking) -> Instance:
    """``inst`` with ``agent`` ranking ``ranking``, built through the
    constructor, so the ranking is normalised and checked as parsed ones are."""
    return dataclasses.replace(inst, preferences={**inst.preferences, agent: ranking})


def with_branch(inst: Instance, cfg: BranchConfig) -> Instance:
    """``inst`` with ``cfg`` under its id, added or replaced, built through
    the constructor as :func:`with_preference` is.  The library's
    ``Instance.with_branches`` only replaces configs the market has."""
    return dataclasses.replace(inst, branches={**inst.branches, cfg.id: cfg})


def run_json(state) -> dict:
    """A COM run as one document: its steps, replayed by ``iter_steps``,
    and its sorted outcome."""
    return {"steps": list(state.iter_steps()), "outcome": sorted(state.outcome)}


def branch(bid="b", n=1, location=None, transfer=None, original=None, shadow=None) -> BranchConfig:
    location = tuple(location) if location is not None else tuple(range(1, n + 1))
    transfer = tuple(transfer) if transfer is not None else (0,) * n
    original = tuple(tuple(r) for r in original) if original is not None else ((),) * n
    shadow = tuple(tuple(r) for r in shadow) if shadow is not None else ((),) * n
    return BranchConfig(bid, n, location, transfer, original, shadow)


#: Seats a 2-seat branch ``b`` lacks: a foreign branch, an unknown kind, and
#: indices outside 1..2.
MISSING_SEATS = [
    SlotId("z", "original", 1),
    SlotId("b", "bogus", 1),
    SlotId("b", "original", 0),
    SlotId("b", "original", -1),
    SlotId("b", "original", 3),
    SlotId("b", "shadow", 0),
    SlotId("b", "shadow", 3),
]


def seat_id(slot: SlotId) -> str:
    return f"{slot.branch}-{slot.kind}-{slot.index}"


class CountedSet(set):
    """A set that counts the membership tests made on it."""

    tests = 0

    def __contains__(self, item):
        self.tests += 1
        return super().__contains__(item)
