"""Reference choice-rule oracles kept only for differential tests.

These are the versions the library's shared choice tables replaced: each
check builds its own ``dict`` from every offer set, as a frozenset, to what
the rule chooses from it, and looks up neighbouring offer sets by building
and hashing frozensets.  They must not be imported by ``sspwct`` itself.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from sspwct.choice import completion_choose, sspwct_choose
from sspwct.mechanism import branch_universe
from sspwct.model import BranchConfig, BranchId, Instance
from sspwct.oracles import EXHAUSTIVE_BOUND, ChoiceRule, PropertyVerdict, _verdict


def _choices(
    inst: Instance, cfg: BranchConfig, bound: int, what: str, rule: ChoiceRule
) -> Iterator[tuple[frozenset, frozenset]]:
    """Every offer set, each subset of the branch's contracts by size, then
    lexicographically, with what ``rule`` chooses from it; the bound is
    checked before the first one."""
    universe = branch_universe(inst, cfg.id, bound, what)
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            offers = frozenset(combo)
            yield offers, rule(cfg, offers, inst.contract_index).chosen


def check_completion(
    inst: Instance,
    branch: BranchId,
    bound: int = EXHAUSTIVE_BOUND,
    rule: ChoiceRule = sspwct_choose,
    completion_rule: ChoiceRule = completion_choose,
) -> PropertyVerdict:
    cfg = inst.branches[branch]
    choices = (
        (offers, base, completion_rule(cfg, offers, inst.contract_index).chosen)
        for offers, base in _choices(inst, cfg, bound, "the completion check", rule)
    )
    return _verdict("completion", (
        {
            "branch": branch,
            "offers": sorted(offers),
            "chosen": sorted(base),
            "completion": sorted(comp),
        } if comp != base and len({inst.contract_index[c].agent for c in comp}) == len(comp) else None
        for offers, base, comp in choices
    ))


def check_substitutability(
    inst: Instance, branch: BranchId, bound: int = EXHAUSTIVE_BOUND, rule: ChoiceRule = completion_choose
) -> PropertyVerdict:
    table = dict(_choices(inst, inst.branches[branch], bound, "the substitutability check", rule))
    universe = inst.contracts_of_branch.get(branch, ())
    return _verdict("substitutability", (
        {
            "branch": branch,
            "base_offers": sorted(offers),
            "rejected": z,
            "added": z2,
            "chosen_after": sorted(table[offers | {z2}]),
        } if z in table[offers | {z2}] else None
        for offers, chosen in table.items()
        for z in sorted(offers - chosen)
        for z2 in universe
        if z2 not in offers
    ))


def check_irc(
    inst: Instance, branch: BranchId, bound: int = EXHAUSTIVE_BOUND, rule: ChoiceRule = completion_choose
) -> PropertyVerdict:
    table = dict(_choices(inst, inst.branches[branch], bound, "the IRC check", rule))
    return _verdict("irc", (
        {
            "branch": branch,
            "offers": sorted(offers),
            "removed": x,
            "chosen": sorted(chosen),
            "chosen_without": sorted(table[offers - {x}]),
        } if table[offers - {x}] != chosen else None
        for offers, chosen in table.items()
        for x in sorted(offers - chosen)
    ))


def check_lad(
    inst: Instance, branch: BranchId, bound: int = EXHAUSTIVE_BOUND, rule: ChoiceRule = completion_choose
) -> PropertyVerdict:
    table = dict(_choices(inst, inst.branches[branch], bound, "the LAD check", rule))
    return _verdict("lad", (
        {
            "branch": branch,
            "offers": sorted(offers),
            "removed": x,
            "smaller_set_chose": sorted(table[offers - {x}]),
            "larger_set_chose": sorted(chosen),
        } if len(table[offers - {x}]) > len(chosen) else None
        for offers, chosen in table.items()
        for x in sorted(offers)
    ))
