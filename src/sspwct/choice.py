"""Branch choice rules: sequential slot filling with capacity transfers.

A branch processes its 2n seats in a single merged order determined by the
location vector: original seats keep their precedence order, and shadow seat
k is slotted in right after the l_k-th original seat (and after any earlier
shadow seat).  Original seats always hold one unit of capacity.  A shadow
seat holds capacity only if its paired original seat ended up vacant *and*
the branch's transfer bit for that pair is set; otherwise it is inactive.
The seat plan leaves out shadow seats whose bit is 0 (with every bit at 0,
the rule is Kominers & Sönmez's slot-specific rule).

Two rules walk the plan and differ only in what a pick excludes later:

* ``sspwct_choose`` excludes the pick's agent, so the result never holds two
  contracts of the same agent.
* ``completion_choose`` excludes only the picked contract.  It may select
  two contracts of one agent, and in exchange it is substitutable,
  satisfies the irrelevance of rejected contracts, and the law of aggregate
  demand (see the oracles module for executable checks).

The walk stops early: when a seat stays vacant and there are as many
exclusions as offers, no later seat can pick, and the remaining picks are
``None``.  For the completion every offer is then excluded.  For the
sspwct rule every offered agent is then seated, since each excluded agent
owns at least one offer; so its walk runs on while an agent has several
offers, as it does when an offer is unknown or another branch's (no seat
ranks it, so it is never excluded).  Counting the distinct offered agents
instead stopped no further walk in cumulative offer runs on generated
markets of 200 to 2,000 agents, and cost more than it saved on the small
offer sets of the oracles.

Both rules take any offer set Y and choose from its part at the branch,
C_b(Y) = C_b(Y ∩ X_b): a seat picks only from its ranking, and a validated
ranking lists only the branch's own contracts.  A set of offers is read in
place; any other iterable is frozen once.

Both return a :class:`ChoiceResult`: the chosen set plus one pick per seat
of the seat plan, read through its seat ledger ``seats``.  Whether a seat
was active is decided only here, and is not stored: shadow seat k was
active exactly when bit k is 1 and original seat k is not in the ledger.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .model import BranchConfig, Contract, ContractId, SeatPlanEntry, SlotId


class ChoiceResult:
    """A branch's choice: the ``chosen`` set, and the rule's ``picks`` over
    the branch's seat ``plan``, one per seat (None for a seat left empty).

    ``seats``, the per-seat view, is built from them when first read.  A
    rule that records no picks, as custom rules may, has an empty ``seats``.
    """

    def __init__(
        self,
        chosen: frozenset,
        plan: Sequence[SeatPlanEntry] = (),
        picks: Sequence[ContractId | None] = (),
    ) -> None:
        self.chosen = chosen
        self._plan = plan
        self._picks = picks

    @cached_property
    def seats(self) -> dict[SlotId, ContractId]:
        """The seat ledger: each occupied seat -> its contract, in the
        branch's processing order."""
        return {slot: pick for (slot, _, _), pick in zip(self._plan, self._picks) if pick is not None}


def _choose(
    cfg: BranchConfig,
    offers: Iterable[ContractId],
    contracts: Mapping[ContractId, Contract],
    completion: bool,
) -> ChoiceResult:
    if not isinstance(offers, (set, frozenset)):
        offers = frozenset(offers)
    plan = cfg.seat_plan
    picks: list[ContractId | None] = []
    excluded: set[str] = set()  # the picks' agents, or the picks themselves

    for _, paired, ranking in plan:
        pick: ContractId | None = None
        # an original seat always holds capacity; a planned shadow seat only
        # if its paired original stayed vacant
        if paired < 0 or picks[paired] is None:
            for cid in ranking:
                if cid in offers:
                    key = cid if completion else contracts[cid].agent
                    if key not in excluded:
                        excluded.add(key)
                        pick = cid
                        break
            else:  # the seat stays vacant
                if len(excluded) == len(offers):  # no later seat can pick
                    picks += [None] * (len(plan) - len(picks))
                    break
        picks.append(pick)

    return ChoiceResult(frozenset(pick for pick in picks if pick is not None), plan, picks)


def sspwct_choose(
    cfg: BranchConfig,
    offers: Iterable[ContractId],
    contracts: Mapping[ContractId, Contract],
) -> ChoiceResult:
    """The branch's choice from an offer set (one contract per agent)."""
    return _choose(cfg, offers, contracts, completion=False)


def completion_choose(
    cfg: BranchConfig,
    offers: Iterable[ContractId],
    contracts: Mapping[ContractId, Contract],
) -> ChoiceResult:
    """The completion: identical procedure, but an agent's remaining
    contracts stay available after one of hers is taken."""
    return _choose(cfg, offers, contracts, completion=True)

