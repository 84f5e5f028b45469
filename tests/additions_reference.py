"""Reference contract additions kept only for differential tests.

This is the per-contract version that ``comparative.apply_additions``
replaced: it rebuilds the whole instance after each added contract, and the
branch config after each seat that lists it, finding the seat's row with
its own seat check and editing it through ``dataclasses.replace``.  The
library edits row lists and builds one instance per call, and must build
the same market and raise the same
:class:`~sspwct.comparative.ConditionViolation` messages.  It must not be
imported by ``sspwct`` itself.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from sspwct.comparative import MODE_BOTTOM, MODE_SINGLE_AGENT, AddedContract, ConditionViolation
from sspwct.model import ORIGINAL, SHADOW, BranchConfig, InputError, Instance, SlotId, validate_instance


def _field(cfg: BranchConfig, slot: SlotId) -> str:
    """The priority field holding ``slot``'s row; a seat the branch lacks
    raises KeyError."""
    if slot.branch != cfg.id or slot.kind not in (ORIGINAL, SHADOW) or not 1 <= slot.index <= cfg.n:
        raise KeyError(f"branch {cfg.id} has no seat {slot!r}")
    return "original_priorities" if slot.kind == ORIGINAL else "shadow_priorities"


def _with_seat_ranking(cfg: BranchConfig, slot: SlotId, ranking: Sequence[str]) -> BranchConfig:
    field = _field(cfg, slot)
    rows = list(getattr(cfg, field))
    rows[slot.index - 1] = ranking
    return replace(cfg, **{field: rows})


def apply_additions(inst: Instance, additions: Sequence[AddedContract], mode: str) -> Instance:
    if mode not in (MODE_BOTTOM, MODE_SINGLE_AGENT):
        raise InputError(f"unknown mode {mode!r}")
    if mode == MODE_SINGLE_AGENT:
        owners = {a.contract.agent for a in additions}
        if len(owners) > 1:
            raise ConditionViolation(
                f"single-agent mode requires one owner, got {sorted(owners)}"
            )

    current = inst
    for a in additions:
        c = a.contract
        if c.id in current.contract_index:
            raise ConditionViolation(f"contract id {c.id} already exists")
        if c.branch not in current.branches:
            raise ConditionViolation(f"contract {c.id} references unknown branch {c.branch}")

        ranking = list(current.preferences.get(c.agent, ()))
        if not 0 <= a.pref_position <= len(ranking):
            raise ConditionViolation(
                f"preference position {a.pref_position} out of range for {c.agent}"
            )
        ranking.insert(a.pref_position, c.id)

        cfg = current.branches[c.branch]
        for slot, pos in sorted(a.slot_positions.items()):
            try:
                row = list(getattr(cfg, _field(cfg, slot))[slot.index - 1])
            except KeyError as exc:
                raise ConditionViolation(f"contract {c.id} cannot be listed: {exc.args[0]}") from None
            if mode == MODE_BOTTOM and pos != len(row):
                raise ConditionViolation(
                    f"bottom mode: contract {c.id} must land at the end of {slot} "
                    f"(position {len(row)}, got {pos})"
                )
            if not 0 <= pos <= len(row):
                raise ConditionViolation(f"position {pos} out of range for slot {slot}")
            row.insert(pos, c.id)
            cfg = _with_seat_ranking(cfg, slot, row)

        current = replace(
            current,
            contracts=current.contracts + (c,),
            preferences={**current.preferences, c.agent: tuple(ranking)},
            branches={**current.branches, c.branch: cfg},
        )

    problems = validate_instance(current)
    if problems:
        raise ConditionViolation("additions produced an invalid instance: " + "; ".join(problems))
    return current
