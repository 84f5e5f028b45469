import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from sspwct.choice import ChoiceResult, completion_choose, sspwct_choose
from sspwct.generator import GeneratorConfig, generate_batch, generate_instance
from sspwct import choice, mechanism, oracles
from sspwct.mechanism import InstanceTooLarge, cumulative_offer, holdings
from sspwct.model import ORIGINAL, InputError, Instance
from sspwct.oracles import (
    ALL_SUITES,
    check_completion,
    check_irc,
    check_lad,
    check_order_independence,
    check_respects_improvements,
    check_slot_specific_reduction,
    check_stability,
    check_strategy_proofness,
    check_substitutability,
    generate_improvement,
    is_priority_improvement,
    merge_verdicts,
    misreports,
    run_suite,
    run_suite_on_instance,
)

import com_reference as ref
import improvement_reference
from conftest import branch, make_instance, with_branch, with_preference


# -- deliberately corrupted rules (oracle sensitivity) --


def no_guard_completion(cfg, offers, contracts):
    """Corruption: a shadow seat takes capacity whenever its transfer bit is
    set, ignoring whether the paired original seat filled."""
    offer_set = frozenset(offers)
    chosen = []
    taken = set()
    for slot in cfg.slot_order:
        active = slot.kind == ORIGINAL or cfg.transfer[slot.index - 1] == 1
        pick = None
        if active:
            pick = next(
                (c for c in cfg.priority(slot) if c in offer_set and c not in taken), None
            )
        if pick:
            chosen.append(pick)
            taken.add(pick)
    return ChoiceResult(frozenset(chosen))


def parity_flipping_rule(cfg, offers, contracts):
    """Corruption: even-sized offer sets see the first seat's priorities
    reversed, so dropping a rejected contract changes the choice."""
    if len(frozenset(offers)) % 2 == 0:
        doctored = replace(
            cfg,
            original_priorities=(tuple(reversed(cfg.original_priorities[0])),)
            + cfg.original_priorities[1:],
        )
        return completion_choose(doctored, offers, contracts)
    return completion_choose(cfg, offers, contracts)


def stingy_rule(cfg, offers, contracts):
    """Corruption: the first seat refuses to choose from offer sets with two
    or more contracts, shrinking demand as supply grows."""
    if len(frozenset(offers)) >= 2:
        doctored = replace(cfg, original_priorities=((),) + cfg.original_priorities[1:])
        return completion_choose(doctored, offers, contracts)
    return completion_choose(cfg, offers, contracts)


def choose_from_pairs(cfg, offers, contracts):
    """Corruption: choose nothing from fewer than two offers."""
    offers = frozenset(offers)
    return sspwct_choose(cfg, offers, contracts) if len(offers) >= 2 else ChoiceResult(frozenset())


def drop_lowest_id(cfg, offers, contracts):
    """Corruption: from three or more offers, drop the lowest contract id
    before choosing."""
    offers = frozenset(offers)
    if len(offers) >= 3:
        offers = offers - {min(offers)}
    return sspwct_choose(cfg, offers, contracts)


def reject_odd_pools(cfg, offers, contracts):
    """Corruption: reject every offer of an odd-sized offer set."""
    offers = frozenset(offers)
    return ChoiceResult(frozenset()) if len(offers) % 2 else sspwct_choose(cfg, offers, contracts)


#: The respects-improvements check of every agent of the corrupted
#: strategy-proofness batch, 5 trials each, under ``sspwct_choose`` and each
#: corrupted rule, with the fail count of its 400 agent checks.
IMPROVEMENT_FAILS = [(sspwct_choose, 0), (choose_from_pairs, 9), (drop_lowest_id, 0), (reject_odd_pools, 18)]


class TestMutationSensitivity:
    def test_completion_oracle_fires_on_missing_activation_guard(self):
        inst = make_instance(
            [("a", "A", "b"), ("c", "C", "b")],
            {"A": ("a",), "C": ("c",)},
            [branch(n=1, transfer=(1,), original=[("a",)], shadow=[("c",)])],
        )
        verdict = check_completion(inst, "b", completion_rule=no_guard_completion)
        assert not verdict.ok
        assert verdict.witness is not None
        # witness replays: the corrupted rule really does disagree without
        # holding two contracts of one agent
        offers = frozenset(verdict.witness["offers"])
        base = sspwct_choose(inst.branches["b"], offers, inst.contract_index).chosen
        corrupt = no_guard_completion(inst.branches["b"], offers, inst.contract_index).chosen
        assert corrupt != base
        agents = [inst.contract_index[c].agent for c in corrupt]
        assert len(set(agents)) == len(agents)

    def test_substitutability_oracle_fires_on_uncompleted_rule(self):
        # the base rule itself is not substitutable: z' of agent W displaces
        # u at the first seat, which frees W's other contract's seat for z
        inst = make_instance(
            [("u", "U", "b"), ("v", "W", "b"), ("z", "Z", "b"), ("zp", "W", "b")],
            {"U": ("u",), "W": ("v", "zp"), "Z": ("z",)},
            [branch(n=2, location=(2, 2), original=[("zp", "u"), ("v", "z")])],
        )
        verdict = check_substitutability(inst, "b", rule=sspwct_choose)
        assert not verdict.ok
        w = verdict.witness
        base = frozenset(w["base_offers"])
        assert w["rejected"] not in sspwct_choose(inst.branches["b"], base, inst.contract_index).chosen
        assert w["rejected"] in sspwct_choose(
            inst.branches["b"], base | {w["added"]}, inst.contract_index
        ).chosen

    def test_irc_oracle_fires_on_parity_rule(self):
        inst = make_instance(
            [("a", "A", "b"), ("c", "C", "b"), ("d", "D", "b")],
            {"A": ("a",), "C": ("c",), "D": ("d",)},
            [branch(n=1, original=[("a", "c", "d")])],
        )
        verdict = check_irc(inst, "b", rule=parity_flipping_rule)
        assert not verdict.ok and verdict.witness is not None

    def test_lad_oracle_fires_on_stingy_rule(self):
        inst = make_instance(
            [("a", "A", "b"), ("c", "C", "b")],
            {"A": ("a",), "C": ("c",)},
            [branch(n=1, original=[("a", "c")])],
        )
        verdict = check_lad(inst, "b", rule=stingy_rule)
        assert not verdict.ok
        assert len(verdict.witness["smaller_set_chose"]) > len(verdict.witness["larger_set_chose"])


    def test_reduction_oracle_fires_on_corrupted_rule(self, monkeypatch):
        # the check reaches the rule through oracles' module global; every
        # witness must replay on the transfer-zeroed config
        monkeypatch.setattr(oracles, "sspwct_choose", drop_lowest_id)
        fails = 0
        for inst in generate_batch(GeneratorConfig(seed=7), 50):
            for b, cfg in inst.branches.items():
                verdict = check_slot_specific_reduction(inst, b)
                if verdict.status == "fail":
                    fails += 1
                    w = verdict.witness
                    zeroed, offers = replace(cfg, transfer=(0,) * cfg.n), frozenset(w["offers"])
                    assert w["branch"] == b and w["sspwct"] != w["reference"]
                    assert sorted(drop_lowest_id(zeroed, offers, inst.contract_index).chosen) == w["sspwct"]
                    assert sorted(oracles.slot_specific_reference(
                        zeroed, offers, inst.contract_index).chosen) == w["reference"]
        assert fails == 72  # of the batch's 100 branch checks

    @pytest.mark.parametrize("rule", [choose_from_pairs, drop_lowest_id, reject_odd_pools])
    def test_strategy_proofness_oracle_fires_on_corrupted_rules(self, monkeypatch, rule):
        # COM reaches the rule through mechanism's module global, and so do
        # the forked runs; their verdicts must equal the per-misreport
        # reference's, and every fail witness must replay through full runs
        monkeypatch.setattr(mechanism, "sspwct_choose", rule)
        fails = 0
        for inst in generate_batch(GeneratorConfig(seed=4100), 100):
            verdict = check_strategy_proofness(inst)
            assert verdict == ref.check_strategy_proofness(inst)
            if verdict.status == "fail":
                fails += 1
                w = verdict.witness
                misreported = with_preference(inst, w["agent"], w["misreport"])
                assert holdings(inst, cumulative_offer(inst).outcome).get(w["agent"]) == (
                    w["truthful_assignment"])
                assert holdings(inst, cumulative_offer(misreported).outcome).get(w["agent"]) == (
                    w["deviation_assignment"])
                assert inst.prefers(w["agent"], w["deviation_assignment"], w["truthful_assignment"])
        # 17, 11 and 42 of the 100 on every hash seed: these rules let an
        # agent hold two contracts, and ``holdings`` keeps her favorite
        assert fails >= 5

    @pytest.mark.parametrize("rule, fails", IMPROVEMENT_FAILS)
    def test_improvements_oracle_matches_full_runs_under_corrupted_rules(self, monkeypatch, rule, fails):
        # the reference builds and checks every trial the straightforward way
        # and runs COM in full on every trial's market, the unchanged ones too
        monkeypatch.setattr(mechanism, "sspwct_choose", rule)
        verdicts = []
        for inst in generate_batch(GeneratorConfig(seed=4100), 100):
            for agent in inst.agents:
                verdict = check_respects_improvements(inst, agent, trials=5, seed=0)
                assert verdict == improvement_reference.check_respects_improvements(
                    inst, agent, trials=5, seed=0)
                verdicts.append(verdict.status)
        assert (len(verdicts), verdicts.count("fail")) == (400, fails)



#: batch and prints every verdict's JSON.
_CORRUPTED_VERDICTS_SCRIPT = """
import json
from sspwct.choice import sspwct_choose
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.oracles import check_irc, check_lad, check_substitutability
from test_oracles import parity_flipping_rule, stingy_rule

checks = ((check_substitutability, sspwct_choose), (check_irc, parity_flipping_rule),
          (check_lad, stingy_rule))
verdicts = [
    check(inst, b, rule=rule).to_json()
    for inst in (generate_instance(GeneratorConfig(seed=seed)) for seed in range(50, 90))
    for b in inst.branches
    for check, rule in checks
]
print(json.dumps(verdicts))
"""


#: The strategy-proofness check with each corrupted rule of
#: ``test_strategy_proofness_oracle_fires_on_corrupted_rules`` on its batch;
#: prints every verdict's JSON.
_CORRUPTED_STRATEGY_PROOFNESS_SCRIPT = """
import json
from sspwct import mechanism
from sspwct.generator import GeneratorConfig, generate_batch
from sspwct.oracles import check_strategy_proofness
from test_oracles import choose_from_pairs, drop_lowest_id, reject_odd_pools

verdicts = []
for rule in (choose_from_pairs, drop_lowest_id, reject_odd_pools):
    mechanism.sspwct_choose = rule
    verdicts += [check_strategy_proofness(inst).to_json()
                 for inst in generate_batch(GeneratorConfig(seed=4100), 100)]
print(json.dumps(verdicts))
"""


#: The checks of ``IMPROVEMENT_FAILS``; prints every verdict's JSON.
_CORRUPTED_IMPROVEMENTS_SCRIPT = """
import json
from sspwct import mechanism
from sspwct.generator import GeneratorConfig, generate_batch
from sspwct.oracles import check_respects_improvements
from test_oracles import IMPROVEMENT_FAILS

verdicts = []
for rule, _ in IMPROVEMENT_FAILS:
    mechanism.sspwct_choose = rule
    verdicts += [check_respects_improvements(inst, agent, trials=5, seed=0).to_json()
                 for inst in generate_batch(GeneratorConfig(seed=4100), 100) for agent in inst.agents]
print(json.dumps(verdicts))
"""


def _outputs_under_hash_seeds(script: str) -> list[str]:
    """The script's stdout in a fresh interpreter under hash seeds 1 and 2."""
    here = Path(__file__).resolve().parent
    # prepend to the inherited path: the child imports test_oracles, hence pytest
    path = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")])
    )
    return [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]


def test_fail_verdicts_do_not_depend_on_the_hash_seed():
    # offer sets are frozensets of strings, whose order follows the hash seed;
    # the counts and witnesses of a fail verdict must not
    outputs = _outputs_under_hash_seeds(_CORRUPTED_VERDICTS_SCRIPT)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"status": "fail"') >= 30


def test_strategy_proofness_verdicts_do_not_depend_on_the_hash_seed():
    # a corrupted rule can leave an agent two contracts, an outcome is a
    # frozenset of strings, and the holding read from it must not follow
    # the set's order
    outputs = _outputs_under_hash_seeds(_CORRUPTED_STRATEGY_PROOFNESS_SCRIPT)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"status": "fail"') >= 15


def test_improvement_verdicts_do_not_depend_on_the_hash_seed():
    outputs = _outputs_under_hash_seeds(_CORRUPTED_IMPROVEMENTS_SCRIPT)
    assert outputs[0] == outputs[1]
    statuses = [v["status"] for v in json.loads(outputs[0])]
    assert [statuses[i:i + 400].count("fail") for i in range(0, 1600, 400)] == [
        fails for _, fails in IMPROVEMENT_FAILS]


def test_corrupted_rule_verdicts_are_pinned(capsys):
    # the branches that give a check nothing to test are vacuous, not passes
    exec(_CORRUPTED_VERDICTS_SCRIPT, {})
    out = capsys.readouterr().out
    statuses = [v["status"] for v in json.loads(out)]
    assert (len(statuses), statuses.count("fail"), statuses.count("vacuous")) == (240, 64, 42)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d489b7aa6c8d5a012da3a2da5714e5092108a87a29930e81e4eb8ece0a7bf7f0"
    )


#: one agent, no contract, one one-seat branch
LONE = make_instance([], {"A": ()}, [branch(n=1)])


@pytest.mark.parametrize("check, status, checked", [
    (lambda: check_completion(LONE, "b"), "pass", 1),  # the empty offer set
    (lambda: check_substitutability(LONE, "b"), "vacuous", 0),
    (lambda: check_irc(LONE, "b"), "vacuous", 0),
    (lambda: check_lad(LONE, "b"), "vacuous", 0),
    (lambda: check_slot_specific_reduction(LONE, "b"), "pass", 1),
    (lambda: check_stability(LONE), "pass", 1),  # the one outcome
    (lambda: check_strategy_proofness(LONE), "vacuous", 0),
    (lambda: check_respects_improvements(LONE, "A", trials=0), "vacuous", 0),
    (lambda: check_order_independence(LONE, seeds=[]), "vacuous", 0),
], ids=["completion", "substitutability", "irc", "lad", "reduction", "stability",
        "strategy-proofness", "improvements", "order-independence"])
def test_a_check_of_nothing_is_vacuous(check, status, checked):
    verdict = check()
    assert (verdict.status, verdict.instances_checked, verdict.witness) == (status, checked, None)
    assert verdict.ok == (status == "pass")


class TestChoiceOracles:
    def test_pass_on_random_configs(self):
        # a branch with nothing to check is vacuous, which is no failure;
        # over the batch every check must pass
        checks = (check_completion, check_substitutability, check_irc, check_lad,
                  check_slot_specific_reduction)
        verdicts = {check: [] for check in checks}
        for seed in range(40):
            inst = generate_instance(
                GeneratorConfig(seed=seed, agents=3, branches=1, contracts_per_pair=(0, 2))
            )
            for b in inst.branches:
                for check in checks:
                    verdict = check(inst, b)
                    assert verdict.status != "fail", (check.__name__, seed, verdict.witness)
                    verdicts[check].append(verdict)
        for check in checks:
            assert merge_verdicts(check.__name__, verdicts[check]).status == "pass", check.__name__

    def test_completion_vacuous_on_empty_contract_set(self):
        inst = make_instance([], {}, [branch(n=2, location=(1, 2))])
        verdict = check_completion(inst, "b")
        assert verdict.ok and verdict.instances_checked == 1  # just the empty set

    def test_bound_enforced(self):
        contracts = [(f"c{i}", f"a{i}", "b") for i in range(5)]
        inst = make_instance(contracts, {f"a{i}": (f"c{i}",) for i in range(5)}, [branch(n=1)])
        with pytest.raises(InstanceTooLarge):
            check_substitutability(inst, "b", bound=4)

    def test_one_default_bound_for_every_per_branch_check(self):
        def market(size):
            ids = tuple(f"c{i}" for i in range(size))
            return make_instance(
                [(c, f"a{c}", "b") for c in ids],
                {f"a{c}": (c,) for c in ids},
                [branch(n=2, location=(2, 2), original=[ids, ids])],
            )

        for check in (check_completion, check_substitutability, check_irc, check_lad,
                      check_slot_specific_reduction):
            assert check(market(8), "b").instances_checked > 0
            with pytest.raises(InstanceTooLarge, match="capped at 8"):
                check(market(9), "b")

    def test_reduction_matches_on_zero_transfer_instance(self):
        inst = generate_instance(
            GeneratorConfig(seed=3, agents=3, branches=1, transfer_density=0.0)
        )
        for b in inst.branches:
            assert check_slot_specific_reduction(inst, b).ok


class TestStrategyProofness:
    def test_misreport_space_all_rankings_of_all_subsets(self):
        assert len(list(misreports(("c1", "c2")))) == 5  # {}, two singletons, two orders
        assert len(list(misreports(("c1", "c2", "c3", "c4")))) == 65

    def test_single_agent_instance(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, original=[("x",)])]
        )
        assert check_strategy_proofness(inst).ok

    def test_contested_two_agent_one_seat(self):
        # B's favorite b1 always loses to a1; her fallback b2 beats a1, so
        # truth-telling already earns her b2 and no misreport improves on it
        inst = make_instance(
            [("a1", "A", "b"), ("b1", "B", "b"), ("b2", "B", "b")],
            {"A": ("a1",), "B": ("b1", "b2")},
            [branch(n=1, original=[("b2", "a1", "b1")])],
        )
        truthful = cumulative_offer(inst).outcome
        assert truthful == {"b2"}
        verdict = check_strategy_proofness(inst)
        assert verdict.ok and verdict.instances_checked > 0

    def test_reports_extending_a_settled_prefix_reuse_its_run(self, monkeypatch):
        # a run in which the agent proposes only the first k contracts of her
        # report settles every longer report starting with them: those run no
        # fork, and the verdicts still equal the per-misreport reference's
        fork, forks = mechanism.ComState.fork, []
        monkeypatch.setattr(mechanism.ComState, "fork",
                            lambda self, *args: forks.append(args) or fork(self, *args))
        checked = 0
        for inst in generate_batch(GeneratorConfig(seed=4200), 40):
            verdict = check_strategy_proofness(inst)
            assert verdict == ref.check_strategy_proofness(inst)
            checked += verdict.instances_checked
        assert 0 < len(forks) < 0.6 * checked, (len(forks), checked)  # 863 of 1,724

    def test_limit_enforced(self):
        contracts = [(f"c{i}", "A", "b") for i in range(5)]
        inst = make_instance(contracts, {"A": tuple(f"c{i}" for i in range(5))}, [branch(n=1)])
        with pytest.raises(InstanceTooLarge):
            check_strategy_proofness(inst)

    def test_limit_message_names_count_and_cap(self):
        inst = generate_instance(
            GeneratorConfig(seed=5, agents=2, branches=3, contracts_per_pair=(2, 2))
        )
        with pytest.raises(InstanceTooLarge) as exc:
            check_strategy_proofness(inst)
        assert str(exc.value) == (
            "agent i01 has 6 contracts; misreport enumeration is exhaustive and capped at 4"
        )

    def test_randomized_instances(self):
        for seed in range(30):
            inst = generate_instance(GeneratorConfig(seed=900 + seed, agents=3))
            assert check_strategy_proofness(inst).ok


class TestImprovements:
    def flip_instance(self):
        return make_instance(
            [("xa", "A", "b"), ("xb", "B", "b")],
            {"A": ("xa",), "B": ("xb",)},
            [branch(n=1, original=[("xa", "xb")])],
        )

    def test_an_improved_market_shares_its_base_lookups(self):
        inst = generate_instance(GeneratorConfig(seed=7))
        names = ("contract_index", "agents", "contracts_of_agent", "_pref_rank", "contracts_of_branch")
        built = [getattr(inst, name) for name in names]
        improved = next(market for agent in inst.agents for s in range(5)
                        if (market := generate_improvement(inst, agent, seed=s)) is not inst)
        assert improved.branches != inst.branches
        assert all(getattr(improved, name) is lookup for name, lookup in zip(names, built))

    def test_identity_when_agent_tops_everything(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, original=[("x",)], shadow=[("x",)])]
        )
        assert generate_improvement(inst, "A", seed=1) == inst

    def test_single_promotion_is_an_improvement(self):
        inst = self.flip_instance()
        improved = generate_improvement(inst, "B", seed=1)
        assert improved != inst
        assert is_priority_improvement(inst, improved, "B")

    def test_unlisted_contract_promoted_to_listed(self):
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": ("x",), "B": ("y",)},
            [branch(n=1, original=[()], shadow=[("y",)])],
        )
        improved = generate_improvement(inst, "A", seed=2)
        assert "x" in improved.branches["b"].original_priorities[0]
        assert is_priority_improvement(inst, improved, "A")

    def test_demotion_is_not_an_improvement(self):
        inst = self.flip_instance()
        demoted = with_branch(
            inst, replace(inst.branches["b"], original_priorities=(("xb", "xa"),))
        )
        assert not is_priority_improvement(inst, demoted, "A")
        assert is_priority_improvement(inst, demoted, "B")

    def test_reordering_others_is_not_an_improvement(self):
        inst = make_instance(
            [("xa", "A", "b"), ("xb", "B", "b"), ("xc", "C", "b")],
            {"A": ("xa",), "B": ("xb",), "C": ("xc",)},
            [branch(n=1, original=[("xa", "xb", "xc")])],
        )
        shuffled = with_branch(
            inst, replace(inst.branches["b"], original_priorities=(("xa", "xc", "xb"),))
        )
        assert not is_priority_improvement(inst, shuffled, "A")

    def test_a_market_with_other_branch_ids_is_no_improvement(self):
        inst = make_instance(
            [("xa", "A", "b")], {"A": ("xa",)}, [branch(n=1, original=[("xa",)]), branch("c", n=1)]
        )
        dropped = Instance(inst.contracts, inst.preferences, {"b": inst.branches["b"]})
        renamed = with_branch(dropped, branch("d", n=1))  # as many branches, other ids
        for base, new in ((inst, dropped), (dropped, inst), (inst, renamed)):
            assert not is_priority_improvement(base, new, "A")

    def test_a_seat_table_without_n_rows_is_no_improvement(self):
        # a zip over the rows would stop at the shorter table and pass
        inst = make_instance(
            [("xa", "A", "b"), ("xb", "B", "b")],
            {"A": ("xa",), "B": ("xb",)},
            [branch(n=2, original=[("xa", "xb"), ("xb",)], shadow=[("xa",), ("xb", "xa")])],
        )
        cfg = inst.branches["b"]
        for field in ("original_priorities", "shadow_priorities"):
            short = with_branch(inst, replace(cfg, **{field: getattr(cfg, field)[:1]}))
            for base, new in ((inst, short), (short, inst), (short, short)):
                assert not is_priority_improvement(base, new, "A"), (field, base is inst)

    @pytest.mark.parametrize("change", [{"n": 3}, {"location": (2, 2)}, {"transfer": (1, 0)}])
    def test_equal_rankings_in_a_new_config_of_another_shape_are_no_improvement(self, change):
        # every row compares equal, so only the config's shape can reject it
        inst = make_instance(
            [("xa", "A", "b")], {"A": ("xa",)}, [branch(n=2, original=[("xa",), ()], shadow=[(), ()])]
        )
        reshaped = with_branch(inst, replace(inst.branches["b"], **change))
        assert not is_priority_improvement(inst, reshaped, "A")
        assert is_priority_improvement(inst, with_branch(inst, replace(inst.branches["b"])), "A")

    def test_one_demoted_row_among_equal_rows_is_no_improvement(self):
        rows = [("xa", "xb"), ("xb", "xa"), ("xa", "xb")]
        inst = make_instance(
            [("xa", "A", "b"), ("xb", "B", "b")],
            {"A": ("xa",), "B": ("xb",)},
            [branch("b", n=3, original=rows, shadow=rows), branch("c", n=1)],
        )
        cfg = inst.branches["b"]
        demoted = with_branch(inst, replace(cfg, shadow_priorities=rows[:2] + [("xb", "xa")]))
        assert not is_priority_improvement(inst, demoted, "A")
        assert is_priority_improvement(inst, demoted, "B")

    @pytest.mark.parametrize("agent", ["A", "B"])
    def test_a_trial_that_returns_the_market_runs_no_com_and_counts(self, monkeypatch, agent):
        # A tops every ranking she could enter and B owns no contract
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",), "B": ()}, [branch(n=1, original=[("x",)], shadow=[("x",)])]
        )
        runs = []
        com = oracles.cumulative_offer
        monkeypatch.setattr(oracles, "cumulative_offer", lambda market: runs.append(market) or com(market))
        verdict = check_respects_improvements(inst, agent, trials=4)
        assert (verdict.status, verdict.instances_checked, runs) == ("pass", 4, [inst])

    def test_a_generated_change_that_is_no_improvement_raises(self, monkeypatch):
        # the self-check guards the generator: a demotion must never be tried
        inst = self.flip_instance()
        demoted = with_branch(
            inst, replace(inst.branches["b"], original_priorities=(("xb", "xa"),))
        )
        monkeypatch.setattr(oracles, "generate_improvement", lambda inst, agent, seed: demoted)
        with pytest.raises(RuntimeError, match="generated priority change for A fails"):
            check_respects_improvements(inst, "A", trials=1)

    def test_improvement_flips_winner_and_helps_improved_agent(self):
        inst = self.flip_instance()
        assert cumulative_offer(inst).outcome == {"xa"}
        improved = with_branch(
            inst, replace(inst.branches["b"], original_priorities=(("xb", "xa"),))
        )
        assert cumulative_offer(improved).outcome == {"xb"}  # B gains, A loses
        assert check_respects_improvements(inst, "B", trials=10, seed=0).ok

    def test_randomized_improvements_never_hurt(self):
        for seed in range(20):
            inst = generate_instance(GeneratorConfig(seed=700 + seed))
            for agent in inst.agents:
                assert check_respects_improvements(inst, agent, trials=3, seed=seed).ok


class TestOrderIndependenceAndStability:
    def test_single_agent_trivial(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, original=[("x",)])]
        )
        assert check_order_independence(inst, seeds=[1, 2, 3]).ok

    def test_contested_instance(self):
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": ("x",), "B": ("y",)},
            [branch(n=1, transfer=(1,), original=[("x",)], shadow=[("y", "x")])],
        )
        assert check_order_independence(inst, seeds=list(range(1, 21))).ok

    def test_random_instances(self):
        for seed in range(25):
            inst = generate_instance(GeneratorConfig(seed=500 + seed))
            assert check_order_independence(inst, seeds=list(range(1, 6))).ok
            assert check_stability(inst).ok

    @pytest.mark.parametrize("outcome, witness", [
        ({"x", "x2"}, {"violations": ["outcome: agent A holds 2 contracts"]}),
        ({"y"}, {"violations": ["not individually rational"]}),
        (set(), {"blocking_branch": "b", "blocking_set": ["x"]}),
    ])
    def test_stability_witness_names_first_failing_check(self, monkeypatch, outcome, witness):
        # B holds y although y is unacceptable to her, and A's x blocks both
        # y and the empty outcome; A's two contracts make {x, x2} infeasible
        inst = make_instance(
            [("x", "A", "b"), ("x2", "A", "b"), ("y", "B", "b")],
            {"A": ("x", "x2"), "B": ()},
            [branch(n=2, location=(2, 2), original=[("x", "y"), ("x2",)])],
        )
        monkeypatch.setattr(
            oracles, "cumulative_offer", lambda inst: SimpleNamespace(outcome=frozenset(outcome))
        )
        verdict = check_stability(inst)
        assert not verdict.ok
        assert verdict.witness == {"outcome": sorted(outcome), **witness}


class TestSuiteRunner:
    def test_merge_keeps_first_failure(self):
        inst = make_instance(
            [("a", "A", "b"), ("c", "C", "b")],
            {"A": ("a",), "C": ("c",)},
            [branch(n=1, original=[("a", "c")])],
        )
        good = check_lad(inst, "b")
        bad = check_lad(inst, "b", rule=stingy_rule)
        merged = merge_verdicts("lad", [good, bad])
        assert not merged.ok and merged.witness == bad.witness
        assert merged.instances_checked == good.instances_checked + bad.instances_checked

    def test_run_suite_all_green(self):
        instances = [
            generate_instance(GeneratorConfig(seed=s, agents=3, branches=2)) for s in range(4)
        ]
        verdicts = run_suite(instances, ["all"], trials=4, seed=1)
        assert {v.name for v in verdicts} >= {"completion", "stability", "strategy-proofness"}
        assert all(v.ok for v in verdicts)

    def test_zero_checks_merge_to_a_vacuous_verdict(self):
        # every requested suite yields one verdict, also when no instance
        # gave it anything to check, and such a verdict is not ok
        verdicts = run_suite([make_instance([], {}, [])], ["all"], trials=3)
        assert [(v.name, v.status, v.instances_checked) for v in verdicts] == [
            ("completion", "vacuous", 0),
            ("substitutability", "vacuous", 0),
            ("irc", "vacuous", 0),
            ("lad", "vacuous", 0),
            ("slot-specific-reduction", "vacuous", 0),
            ("stability", "pass", 1),
            ("strategy-proofness", "vacuous", 0),
            ("respects-improvements", "vacuous", 0),
            ("order-independence", "pass", 3),
        ]
        assert [v.ok for v in verdicts] == [v.status == "pass" for v in verdicts]
        lone = make_instance([], {"A": ()}, [branch(n=1)])
        verdicts = run_suite([lone], ["substitutability", "irc", "lad", "completion"])
        assert [(v.status, v.instances_checked) for v in verdicts] == [("vacuous", 0)] * 3 + [("pass", 1)]
        assert merge_verdicts("lad", []).status == "vacuous"

    def test_run_suite_parallel_matches_serial(self):
        instances = [
            generate_instance(GeneratorConfig(seed=s, agents=3, branches=2)) for s in range(4)
        ]
        serial = run_suite(instances, ["completion", "irc", "stability"], trials=4, seed=1)
        parallel = run_suite(instances, ["completion", "irc", "stability"], trials=4, seed=1, jobs=2)
        assert sorted(v.to_json().items() for v in serial) == sorted(
            v.to_json().items() for v in parallel
        )

    @pytest.mark.parametrize("jobs, count, workers", [(8, 1, None), (8, 3, 3), (2, 5, 2), (4, 0, None)])
    def test_run_suite_starts_at_most_one_worker_per_instance(self, monkeypatch, jobs, count, workers):
        # a fork-based pool forks all of its workers up front, so a pool
        # wider than the batch starts processes that never get work
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        instances = [generate_instance(GeneratorConfig(seed=s, agents=3, branches=2)) for s in range(count)]
        verdicts = run_suite(instances, ["completion", "irc"], trials=2, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        serial = run_suite(instances, ["completion", "irc"], trials=2)
        assert [v.to_json() for v in verdicts] == [v.to_json() for v in serial]

    def test_unknown_suite_rejected(self, monkeypatch):
        # before any instance runs, also when "all" is among the names
        ran = []
        monkeypatch.setattr(oracles, "check_irc", lambda *args: ran.append(args) or [])
        inst = generate_instance(GeneratorConfig(seed=1))
        for suites in (["nonsense"], ["irc", "nonsense"], ["all", "nonsense"]):
            with pytest.raises(ValueError, match="nonsense"):
                run_suite([inst], suites)
        assert ran == []

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_rejected(self, monkeypatch, trials):
        # a batch with no order-independence trial would pass vacuously
        ran = []
        monkeypatch.setattr(oracles, "check_order_independence", lambda *args: ran.append(args) or [])
        inst = generate_instance(GeneratorConfig(seed=1))
        for suites in (["order-independence"], ["completion"]):
            with pytest.raises(InputError, match=rf"^trials must be at least 1 \(got {trials}\)$"):
                run_suite([inst], suites, trials=trials)
        assert ran == []

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        ran = []
        monkeypatch.setattr(oracles, "check_irc", lambda *args: ran.append(args) or [])
        inst = generate_instance(GeneratorConfig(seed=1))
        with pytest.raises(InputError, match=rf"^jobs must be at least 1 \(got {jobs}\)$"):
            run_suite([inst], ["irc"], jobs=jobs)
        assert ran == []

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_bound_below_zero_rejected(self, monkeypatch, bound):
        ran = []
        monkeypatch.setattr(oracles, "check_irc", lambda *args: ran.append(args) or [])
        inst = generate_instance(GeneratorConfig(seed=1))
        with pytest.raises(InputError, match=rf"^bound must be at least 0 \(got {bound}\)$"):
            run_suite([inst], ["irc"], bound=bound)
        assert ran == []
        # a bound of 0 enumerates the empty offer set of a branch without contracts
        assert run_suite([LONE], ["completion"], bound=0)[0].to_json()["instances_checked"] == 1

    @pytest.mark.parametrize("bound", [-1, -5])
    @pytest.mark.parametrize("call", [
        pytest.param(check, id=check.__name__)
        for check in (check_completion, check_substitutability, check_irc, check_lad, check_slot_specific_reduction)
    ] + [
        pytest.param(lambda inst, b, bound: check_stability(inst, bound), id="check_stability"),
        pytest.param(lambda inst, b, bound: mechanism.stability_report(inst, cumulative_offer(inst).outcome, bound),
                     id="stability_report"),
        pytest.param(lambda inst, b, bound: mechanism.find_blocking_set(inst, cumulative_offer(inst).outcome, bound),
                     id="find_blocking_set"),
    ])
    def test_bound_below_zero_rejected_by_every_bounded_entry_point(self, call, bound):
        inst = generate_instance(GeneratorConfig(seed=1))
        with pytest.raises(InputError, match=rf"^bound must be at least 0 \(got {bound}\)$") as raised:
            call(inst, next(iter(inst.branches)), bound)
        assert not isinstance(raised.value, InstanceTooLarge)

    def test_one_suite_run_chooses_once_per_offer_set_and_runs_truthful_com_once(self, monkeypatch):
        inst = generate_instance(GeneratorConfig(seed=7))
        assert all(inst.contracts_of_branch[b] for b in inst.branches)
        alone = [[v.to_json() for v in verdicts] for verdicts in run_suite_on_instance(inst, ALL_SUITES)]
        choose, com = choice._choose, oracles.cumulative_offer
        calls, runs = Counter(), []

        def counted(cfg, offers, contracts, completion):
            calls[cfg, frozenset(offers), completion] += 1
            return choose(cfg, offers, contracts, completion)

        monkeypatch.setattr(choice, "_choose", counted)
        # COM's own choices go around the count, which then holds the oracles' rule calls
        monkeypatch.setattr(mechanism, "branch_choice", lambda market, b, pool: choose(
            market.branches[b], pool, market.contract_index, False))
        monkeypatch.setattr(oracles, "cumulative_offer",
                            lambda market, **kwargs: runs.append((market, kwargs)) or com(market, **kwargs))
        shared = [[v.to_json() for v in verdicts] for verdicts in run_suite_on_instance(inst, ALL_SUITES)]
        assert shared == alone
        assert max(calls.values()) == 1
        # the completion's table, and the sspwct rule's on each config and on its zeroed copy
        sets = sum(2 ** len(inst.contracts_of_branch[b]) for b in inst.branches)
        assert sum(completion for _, _, completion in calls) == sets
        assert sets < len(calls) <= 3 * sets
        lex = [kwargs for market, kwargs in runs if market is inst and kwargs.get("policy", "lex") == "lex"]
        assert lex == [{}]

    def test_no_shared_work_outlives_its_suite_run(self, monkeypatch):
        # a memo kept on the instance would give the second run the first run's outcome
        inst = generate_instance(GeneratorConfig(seed=7))
        before = [[v.to_json() for v in verdicts] for verdicts in run_suite_on_instance(inst, ALL_SUITES)]
        monkeypatch.setattr(mechanism, "sspwct_choose", reject_odd_pools)
        again = [[v.to_json() for v in verdicts] for verdicts in run_suite_on_instance(inst, ALL_SUITES)]
        copy = Instance(inst.contracts, inst.preferences, inst.branches)
        fresh = [[v.to_json() for v in verdicts] for verdicts in run_suite_on_instance(copy, ALL_SUITES)]
        assert again == fresh != before

    def test_all_reaches_every_check_through_its_module_global(self, monkeypatch):
        # the suite table must look each check up when it runs, so rebinding
        # the module global (as a tracer does) reaches every suite
        names = sorted(n for n in vars(oracles) if n.startswith("check_"))
        assert len(names) == len(oracles.ALL_SUITES)
        calls = {name: 0 for name in names}

        def stub(name):
            def counted(*args):
                calls[name] += 1
                return oracles.PropertyVerdict(name, "pass", None, 1)
            return counted

        for name in names:
            monkeypatch.setattr(oracles, name, stub(name))
        instances = [generate_instance(GeneratorConfig(seed=s, agents=3, branches=2)) for s in range(2)]
        verdicts = run_suite(instances, ["all"], trials=2, seed=1)
        assert all(calls[name] > 0 for name in names), calls
        # every stub verdict is merged, under its suite's property name
        assert sum(v.instances_checked for v in verdicts) == sum(calls.values())
        assert [v.name for v in verdicts] == [name for name, _ in oracles._SUITES.values()]
