import random

import pytest

from sspwct.comparative import (
    MODE_BOTTOM,
    MODE_SINGLE_AGENT,
    PARETO_DOMINATES,
    STRICTLY_BETTER,
    VIOLATES,
    WEAKLY_IMPROVES_FOR,
    AddedContract,
    AlreadyFlexible,
    ConditionViolation,
    PreconditionUnmet,
    add_contracts,
    add_original_slot,
    apply_additions,
    extend_branch,
    flexibility_compare,
    improvement_chain,
    random_added_contracts,
    random_slot_ranking,
)
from sspwct import choice, comparative, mechanism
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.mechanism import cumulative_offer
from sspwct.model import Contract, SlotId, validate_instance

from conftest import MISSING_SEATS, branch, make_instance, seat_id, with_preference


def first_zero_bit(inst):
    for b, cfg in inst.branches.items():
        for k, bit in enumerate(cfg.transfer, start=1):
            if bit == 0:
                return b, k
    return None


class TestFlexibility:
    def test_filled_original_means_identical_outcomes(self):
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": ("x",), "B": ("y",)},
            [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
        )
        report = flexibility_compare(inst, "b", 1)
        assert report.baseline == report.modified == {"x"}
        assert report.verdict == PARETO_DOMINATES
        assert set(report.per_agent.values()) == {"equal"}

    def test_vacant_original_vacant_shadow_identical(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ()}, [branch(n=1, original=[("x",)], shadow=[()])]
        )
        report = flexibility_compare(inst, "b", 1)
        assert report.baseline == report.modified == frozenset()
        assert report.verdict == PARETO_DOMINATES

    def test_activated_shadow_fills_and_strictly_improves(self):
        # x is unacceptable to its owner, so the original seat stays vacant;
        # the flipped bit lets the shadow seat take y
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": (), "B": ("y",)},
            [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
        )
        report = flexibility_compare(inst, "b", 1)
        assert report.baseline == frozenset() and report.modified == {"y"}
        assert report.verdict == PARETO_DOMINATES
        assert [a for a, s in report.per_agent.items() if s == STRICTLY_BETTER] == ["B"]

    def test_already_flexible_rejected(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, transfer=(1,), original=[("x",)])]
        )
        with pytest.raises(AlreadyFlexible):
            flexibility_compare(inst, "b", 1)

    def test_pareto_dominance_on_random_instances(self):
        for seed in range(60):
            inst = generate_instance(
                GeneratorConfig(seed=600 + seed, density=0.5, transfer_density=0.3)
            )
            target = first_zero_bit(inst)
            if target is None:
                continue
            report = flexibility_compare(inst, *target)
            assert report.verdict == PARETO_DOMINATES, (seed, report.to_json())

    def test_monotone_flexibility_chain(self):
        # flipping bits one at a time from all-zeros is a chain of weak
        # Pareto improvements
        inst = generate_instance(
            GeneratorConfig(seed=77, agents=4, branches=2, density=0.5, transfer_density=0.0)
        )
        current = inst
        while (target := first_zero_bit(current)) is not None:
            report = flexibility_compare(current, *target)
            assert report.verdict == PARETO_DOMINATES
            current = comparative.flip_transfer(current, *target)


class TestImprovementChain:
    def test_chain_of_length_one(self):
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": (), "B": ("y",)},
            [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
        )
        report = flexibility_compare(inst, "b", 1)
        assert improvement_chain(inst, report, "b", 1) == report.baseline | {"y"}

    def test_chain_of_length_two(self):
        # activating e1 hands p_hi to its agent, whose vacated seat o2 then
        # picks up the previously unmatched agent's q1
        inst = make_instance(
            [("p_hi", "P", "b"), ("p_lo", "P", "b"), ("q1", "Q", "b")],
            {"P": ("p_hi", "p_lo"), "Q": ("q1",)},
            [
                branch(
                    n=2,
                    location=(2, 2),
                    transfer=(0, 0),
                    original=[(), ("p_lo", "q1")],
                    shadow=[("p_hi",), ()],
                )
            ],
        )
        report = flexibility_compare(inst, "b", 1)
        assert report.baseline == {"p_lo"}
        chain = improvement_chain(inst, report, "b", 1)
        assert chain == {"p_hi", "q1"}
        assert chain == cumulative_offer(comparative.flip_transfer(inst, "b", 1)).outcome

    def test_precondition_shadow_must_fill(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ()}, [branch(n=1, original=[("x",)], shadow=[()])]
        )
        with pytest.raises(PreconditionUnmet):
            improvement_chain(inst, flexibility_compare(inst, "b", 1), "b", 1)

    def test_matches_modified_outcome_on_random_instances(self):
        ran = 0
        for seed in range(120):
            inst = generate_instance(
                GeneratorConfig(seed=4000 + seed, density=0.5, transfer_density=0.3)
            )
            target = first_zero_bit(inst)
            if target is None:
                continue
            report = flexibility_compare(inst, *target)
            try:
                chain = improvement_chain(inst, report, *target)
            except PreconditionUnmet:
                continue
            ran += 1
            modified = cumulative_offer(
                comparative.flip_transfer(inst, *target)
            ).outcome
            assert chain == modified, (seed, sorted(chain), sorted(modified))
        assert ran >= 10

    def test_theorem_3_chooses_only_inside_the_mechanism(self, monkeypatch):
        # the comparison and the chain read seats and holders off the two COM
        # runs, so every choice-rule call happens inside cumulative_offer
        inside, outside = [], []

        def com(*args, **kwargs):
            inside.append(True)
            try:
                return mechanism.cumulative_offer(*args, **kwargs)
            finally:
                inside.pop()

        def rule(cfg, *args, **kwargs):
            if not inside:
                outside.append(cfg.id)
            return real_choose(cfg, *args, **kwargs)

        real_choose = choice._choose
        monkeypatch.setattr(comparative, "cumulative_offer", com)
        monkeypatch.setattr(choice, "_choose", rule)
        chains = 0
        for seed in range(60):
            inst = generate_instance(
                GeneratorConfig(seed=4000 + seed, density=0.5, transfer_density=0.3)
            )
            target = first_zero_bit(inst)
            if target is None:
                continue
            report = flexibility_compare(inst, *target)
            try:
                improvement_chain(inst, report, *target)
                chains += 1
            except PreconditionUnmet:
                pass
        assert chains >= 5
        assert outside == []

    def test_known_divergence_chain_ends_before_offpath_upgrade(self):
        """The literal chain stops at the first agent who was unmatched, but
        the mechanism can simultaneously upgrade an off-chain agent: holding
        p_hi early keeps P from ever proposing p_lo, so o2 stays vacant and
        its own shadow seat picks P up.  The walk reports the chain's view;
        the comparison against the mechanism flags the difference."""
        inst = make_instance(
            [("hi", "P", "b"), ("lo", "P", "b"), ("q", "Q", "b"), ("dead", "R", "b")],
            {"P": ("hi", "lo"), "Q": ("q",), "R": ()},
            [
                branch(
                    n=2,
                    location=(1, 2),
                    transfer=(0, 1),
                    original=[("dead",), ("lo", "dead", "q")],
                    shadow=[("q", "dead", "lo", "hi"), ("q", "dead", "hi")],
                )
            ],
        )
        report = flexibility_compare(inst, "b", 1)
        assert report.baseline == {"lo"}
        assert report.modified == {"hi", "q"}
        assert report.verdict == PARETO_DOMINATES  # the dominance claim itself holds
        chain = improvement_chain(inst, report, "b", 1)
        assert chain == {"lo", "q"}  # the literal walk: x1=q, Q was unmatched, stop
        assert chain != report.modified


class TestAddOriginalSlot:
    def test_inert_slot_changes_nothing(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, original=[("x",)])]
        )
        report = add_original_slot(inst, "b", ())
        assert report.baseline == report.modified
        assert report.verdict == PARETO_DOMINATES

    def test_new_slot_absorbs_rejected_agent(self):
        inst = make_instance(
            [("xa", "A", "b"), ("xb", "B", "b")],
            {"A": ("xa",), "B": ("xb",)},
            [branch(n=1, original=[("xa", "xb")])],
        )
        report = add_original_slot(inst, "b", ("xb",))
        assert report.baseline == {"xa"} and report.modified == {"xa", "xb"}
        assert [a for a, s in report.per_agent.items() if s == STRICTLY_BETTER] == ["B"]

    def test_extension_is_valid_at_every_position(self):
        inst = generate_instance(GeneratorConfig(seed=42, branches=1, capacity=(3, 3)))
        b = next(iter(inst.branches))
        for position in range(1, inst.branches[b].n + 2):
            extended = extend_branch(inst, b, (), position)
            assert not validate_instance(extended)
            cfg = extended.branches[b]
            assert cfg.n == inst.branches[b].n + 1
            assert cfg.transfer.count(0) == inst.branches[b].transfer.count(0) + 1

    def test_position_out_of_range(self):
        inst = make_instance([], {}, [branch(n=1)])
        with pytest.raises(ValueError):
            extend_branch(inst, "b", (), 3)

    def test_no_agent_worse_on_random_instances_any_position(self):
        rng = random.Random(11)
        for seed in range(60):
            inst = generate_instance(
                GeneratorConfig(seed=800 + seed, density=0.6, transfer_density=0.4)
            )
            b = rng.choice(sorted(inst.branches))
            ranking = random_slot_ranking(inst, b, rng)
            position = rng.randint(1, inst.branches[b].n + 1)
            report = add_original_slot(inst, b, ranking, position)
            assert "strictly_worse" not in report.per_agent.values(), (seed, report.to_json())


class TestAddContracts:
    def base_instance(self):
        # two seats: o1 takes A's contract, o2 stays vacant
        return make_instance(
            [("xa", "A", "b")],
            {"A": ("xa",)},
            [branch(n=2, location=(2, 2), original=[("xa",), ()])],
        )

    def test_unacceptable_new_contract_changes_nothing(self):
        inst = self.base_instance()
        added = AddedContract(Contract("nw", "B", "b", "t"), 0, {SlotId("b", "original", 2): 0})
        modified = apply_additions(inst, [added], MODE_SINGLE_AGENT)
        # make the contract unacceptable by clearing B's ranking
        modified = with_preference(modified, "B", ())
        assert cumulative_offer(modified).outcome == cumulative_offer(inst).outcome

    def test_bottom_contract_fills_vacant_seat(self):
        inst = self.base_instance()
        added = AddedContract(Contract("nw", "B", "b", "t"), 0, {SlotId("b", "original", 2): 0})
        report = add_contracts(inst, [added], MODE_BOTTOM)
        assert report.modified == {"xa", "nw"}
        assert report.per_agent == {"A": "equal", "B": "strictly_better"}
        assert report.verdict == PARETO_DOMINATES

    def test_single_agent_anywhere_can_displace_third_party(self):
        inst = make_instance(
            [("xb", "B", "b")], {"B": ("xb",)}, [branch(n=1, original=[("xb",)])]
        )
        added = AddedContract(Contract("nw", "A", "b", "t"), 0, {SlotId("b", "original", 1): 0})
        report = add_contracts(inst, [added], MODE_SINGLE_AGENT)
        assert report.modified == {"nw"}
        assert report.per_agent == {"A": "strictly_better", "B": "strictly_worse"}
        assert report.protected == {"A"}
        assert report.verdict == WEAKLY_IMPROVES_FOR  # B's loss is recorded, not a failure

    def test_bottom_mode_rejects_non_bottom_positions(self):
        inst = make_instance(
            [("xa", "A", "b"), ("xc", "C", "b")],
            {"A": ("xa",), "C": ("xc",)},
            [branch(n=1, original=[("xa", "xc")])],
        )
        added = AddedContract(Contract("nw", "B", "b", "t"), 0, {SlotId("b", "original", 1): 0})
        with pytest.raises(ConditionViolation):
            add_contracts(inst, [added], MODE_BOTTOM)

    def test_single_agent_mode_rejects_multiple_owners(self):
        inst = self.base_instance()
        adds = [
            AddedContract(Contract("n1", "B", "b", "t"), 0, {}),
            AddedContract(Contract("n2", "C", "b", "t"), 0, {}),
        ]
        with pytest.raises(ConditionViolation):
            add_contracts(inst, adds, MODE_SINGLE_AGENT)

    def test_duplicate_id_and_foreign_slot_rejected(self):
        inst = self.base_instance()
        with pytest.raises(ConditionViolation):
            apply_additions(
                inst, [AddedContract(Contract("xa", "B", "b", "t"), 0, {})], MODE_BOTTOM
            )
        with pytest.raises(ConditionViolation):
            apply_additions(
                inst,
                [AddedContract(Contract("nw", "B", "b", "t"), 0, {SlotId("z", "original", 1): 0})],
                MODE_BOTTOM,
            )

    @pytest.mark.parametrize("slot", MISSING_SEATS, ids=seat_id)
    def test_a_seat_the_branch_lacks_is_rejected(self, slot):
        added = AddedContract(Contract("nw", "B", "b", "t"), 0, {slot: 0})
        with pytest.raises(ConditionViolation) as exc:
            apply_additions(self.base_instance(), [added], MODE_SINGLE_AGENT)
        assert str(exc.value) == f"contract nw cannot be listed: branch b has no seat {slot!r}"

    def test_added_terms_are_new_to_their_owner_at_their_branch(self):
        inst = make_instance([("added-1", "A", "b")], {"A": ("added-1",)}, [branch(original=[("added-1",)])])
        inst = apply_additions(inst, random_added_contracts(inst, random.Random(0), MODE_BOTTOM), MODE_BOTTOM)
        adds = random_added_contracts(inst, random.Random(0), MODE_BOTTOM, count=2)
        assert [a.contract.terms for a in adds] == ["added-1-3", "added-2"]
        assert not validate_instance(apply_additions(inst, adds, MODE_BOTTOM))

    def test_owner_never_worse_in_single_agent_mode_randomized(self):
        rng = random.Random(5)
        for seed in range(60):
            inst = generate_instance(
                GeneratorConfig(seed=850 + seed, density=0.6, transfer_density=0.4)
            )
            adds = random_added_contracts(inst, rng, MODE_SINGLE_AGENT, count=rng.randint(1, 2))
            report = add_contracts(inst, adds, MODE_SINGLE_AGENT)
            owner = next(iter(report.protected))
            assert report.per_agent[owner] != "strictly_worse", (seed, report.to_json())

    def test_bottom_additions_can_hurt_third_parties_via_shadow_deactivation(self):
        """A bottom-priority contract can fill a vacant transfer-enabled
        original seat, which deactivates the paired shadow seat and evicts
        whoever sat there.  So the all-agents protection that holds without
        capacity transfers does not carry over once transfers are active;
        the report records the loss and the verdict flags it."""
        inst = make_instance(
            [("v", "V", "b"), ("w", "W", "b")],
            {"V": ("v",), "W": ("w",)},
            [
                branch(
                    n=2,
                    location=(2, 2),
                    transfer=(1, 0),
                    original=[(), ("w",)],
                    shadow=[("v",), ()],
                )
            ],
        )
        assert cumulative_offer(inst).outcome == {"v", "w"}  # v rides the transfer
        added = AddedContract(Contract("znew", "N", "b", "t"), 0, {SlotId("b", "original", 1): 0})
        report = add_contracts(inst, [added], MODE_BOTTOM)
        assert report.modified == {"znew", "w"}
        assert report.per_agent["V"] == "strictly_worse"
        assert report.per_agent["N"] == "strictly_better"
        assert report.verdict == VIOLATES
