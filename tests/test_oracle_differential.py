"""The choice-rule oracles, which read one shared choice table per (config,
rule) by bitmask, against the reference versions they replaced
(``oracle_reference``), which build a frozenset dict per check: the same
verdict, witness and count on battery-settings batches and under every
corrupted rule."""
import pytest

import oracle_reference as ref
from sspwct import oracles
from sspwct.choice import ChoiceResult, completion_choose, sspwct_choose
from sspwct.generator import GeneratorConfig, generate_batch
from test_oracles import (
    choose_from_pairs,
    drop_lowest_id,
    no_guard_completion,
    parity_flipping_rule,
    reject_odd_pools,
    stingy_rule,
)

CHECKS = ["check_completion", "check_substitutability", "check_irc", "check_lad"]

#: The benchmark battery's generator settings, which are the defaults.
BATTERY = [inst for seed in (7, 1000, 2000) for inst in generate_batch(GeneratorConfig(seed=seed), 50)]


def add_unoffered(cfg, offers, contracts):
    """Corruption: the completion's choice plus the branch's lowest-id
    contract that was not offered."""
    offers = frozenset(offers)
    unoffered = sorted(c.id for c in contracts.values() if c.branch == cfg.id and c.id not in offers)
    return ChoiceResult(completion_choose(cfg, offers, contracts).chosen | set(unoffered[:1]))


def add_other_branch(cfg, offers, contracts):
    """Corruption: the completion's choice plus, from an offer set of odd
    size, the lowest-id contract of another branch."""
    offers = frozenset(offers)
    foreign = sorted(c.id for c in contracts.values() if c.branch != cfg.id) if len(offers) % 2 else []
    return ChoiceResult(completion_choose(cfg, offers, contracts).chosen | set(foreign[:1]))


CORRUPTED = [no_guard_completion, parity_flipping_rule, stingy_rule, choose_from_pairs, drop_lowest_id,
             reject_odd_pools, add_unoffered, add_other_branch]


def _pair(name, inst, b, **kwargs):
    ours, theirs = getattr(oracles, name), getattr(ref, name)
    return ours(inst, b, **kwargs).to_json(), theirs(inst, b, **kwargs).to_json()


@pytest.mark.parametrize("name", CHECKS)
def test_battery_verdicts_match_the_reference(name):
    pairs = [_pair(name, inst, b) for inst in BATTERY for b in inst.branches]
    assert [ours for ours, _ in pairs] == [theirs for _, theirs in pairs]
    assert sum(ours["instances_checked"] for ours, _ in pairs) > 1000


@pytest.mark.parametrize("rule", CORRUPTED, ids=lambda rule: rule.__name__)
def test_corrupted_rule_verdicts_match_the_reference(rule):
    pairs = [
        _pair(name, inst, b, **kwargs)
        for inst in BATTERY[:60]
        for b in inst.branches
        for name, kwargs in [
            ("check_completion", {"rule": rule}),
            ("check_completion", {"completion_rule": rule}),
            ("check_substitutability", {"rule": rule}),
            ("check_irc", {"rule": rule}),
            ("check_lad", {"rule": rule}),
        ]
    ]
    assert [ours for ours, _ in pairs] == [theirs for _, theirs in pairs]
    assert any(ours["status"] == "fail" for ours, _ in pairs)


def test_foreign_choices_fail_with_their_ids_in_the_witness():
    # the two rules that choose contracts outside the offers fire, and the
    # witnesses name those contracts as the rule returned them
    inst = next(inst for inst in BATTERY if all(len(ids) >= 3 for ids in inst.contracts_of_branch.values()))
    b, other = sorted(inst.branches)
    lowest_other = inst.contracts_of_branch[other][0]
    verdict = oracles.check_irc(inst, b, rule=add_unoffered)
    assert verdict.status == "fail"
    assert verdict.witness["chosen"] != verdict.witness["chosen_without"]
    verdict = oracles.check_lad(inst, b, rule=add_other_branch)
    assert verdict.status == "fail" and lowest_other in verdict.witness["smaller_set_chose"]
    verdict = oracles.check_completion(inst, b, rule=sspwct_choose, completion_rule=add_other_branch)
    assert verdict.status == "fail"
