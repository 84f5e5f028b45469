from hypothesis import given, settings, strategies as st

from sspwct.choice import completion_choose, sspwct_choose
from sspwct.model import ORIGINAL, Contract, Instance

from conftest import CountedSet, branch, make_instance


def seq_names(cfg):
    order = cfg.slot_order
    return [("o" if s.kind == ORIGINAL else "e") + str(s.index) for s in order]


class TestSlotSequence:
    def test_location_1_3_3(self):
        assert seq_names(branch(n=3, location=(1, 3, 3))) == ["o1", "e1", "o2", "o3", "e2", "e3"]

    def test_location_1_2_3_alternates(self):
        assert seq_names(branch(n=3, location=(1, 2, 3))) == ["o1", "e1", "o2", "e2", "o3", "e3"]

    def test_location_3_3_3_originals_first(self):
        assert seq_names(branch(n=3, location=(3, 3, 3))) == ["o1", "o2", "o3", "e1", "e2", "e3"]

    def test_each_slot_exactly_once_and_pairs_ordered(self):
        cfg = branch(n=4, location=(2, 2, 4, 4))
        order = cfg.slot_order
        assert len(order) == 8 and len(set(order)) == 8
        for k in range(1, 5):
            assert order.index(cfg.original_slot(k)) < order.index(cfg.shadow_slot(k))
        # shadow k sits after exactly l_k originals
        for k, l_k in enumerate(cfg.location, start=1):
            pos = order.index(cfg.shadow_slot(k))
            assert sum(1 for s in order[:pos] if s.kind == ORIGINAL) == l_k


# the transfer-gate fixture: o1 accepts only x, e1 prefers y
def gate_instance(bit):
    return make_instance(
        [("x", "A", "b"), ("y", "B", "b")],
        {"A": ("x",), "B": ("y",)},
        [branch(n=1, transfer=(bit,), original=[("x",)], shadow=[("y", "x")])],
    )


class TestSspwctChoose:
    def test_empty_offers(self):
        inst = gate_instance(1)
        result = sspwct_choose(inst.branches["b"], set(), inst.contract_index)
        assert result.chosen == frozenset()
        assert result.seats == {}

    def test_vacancy_transfers_when_bit_set(self):
        inst = gate_instance(1)
        cfg = inst.branches["b"]
        result = sspwct_choose(cfg, {"y"}, inst.contract_index)
        assert result.chosen == frozenset({"y"})
        assert result.seats == {cfg.shadow_slot(1): "y"}

    def test_transfer_bit_zero_blocks_activation(self):
        inst = gate_instance(0)
        cfg = inst.branches["b"]
        result = sspwct_choose(cfg, {"y"}, inst.contract_index)
        assert result.chosen == frozenset()
        assert result.seats == {}  # e1 ranks the offered y, so it was inactive

    def test_filled_original_deactivates_shadow(self):
        inst = gate_instance(1)
        cfg = inst.branches["b"]
        result = sspwct_choose(cfg, {"x", "y"}, inst.contract_index)
        assert result.chosen == frozenset({"x"})
        assert result.seats == {cfg.original_slot(1): "x"}  # e1 ranks y second, so it was inactive

    def test_active_but_unfilled_shadow_is_distinct_from_inactive(self):
        inst = make_instance(
            [("x", "A", "b")],
            {"A": ("x",)},
            [branch(n=1, transfer=(1,), original=[()], shadow=[()])],
        )
        cfg = inst.branches["b"]
        result = sspwct_choose(cfg, {"x"}, inst.contract_index)
        # e1 is active (o1 is not in the ledger and bit 1 is set), yet empty:
        # once it ranks x, it takes x
        assert result.seats == {} and cfg.transfer == (1,)
        ranked = cfg.with_rows([(), ("x",)])
        assert sspwct_choose(ranked, {"x"}, inst.contract_index).seats == {cfg.shadow_slot(1): "x"}


class TestCompletion:
    def duplicate_instance(self):
        # one agent holds both contracts; the two originals disagree on which
        # of her contracts comes first
        return make_instance(
            [("x1", "i", "b"), ("x2", "i", "b")],
            {"i": ("x1", "x2")},
            [branch(n=2, location=(2, 2), original=[("x1", "x2"), ("x2", "x1")])],
        )

    def test_completion_may_take_two_contracts_of_one_agent(self):
        inst = self.duplicate_instance()
        cfg = inst.branches["b"]
        assert sspwct_choose(cfg, {"x1", "x2"}, inst.contract_index).chosen == {"x1"}
        assert completion_choose(cfg, {"x1", "x2"}, inst.contract_index).chosen == {"x1", "x2"}

    def test_agrees_when_chosen_agents_distinct(self):
        inst = gate_instance(1)
        cfg = inst.branches["b"]
        for offers in [set(), {"x"}, {"y"}, {"x", "y"}]:
            assert (
                sspwct_choose(cfg, offers, inst.contract_index).chosen
                == completion_choose(cfg, offers, inst.contract_index).chosen
            )

    def test_empty_offers(self):
        inst = self.duplicate_instance()
        assert completion_choose(inst.branches["b"], set(), inst.contract_index).chosen == frozenset()


class TestRejected:
    """What a rule rejects is the offer set minus its chosen set."""

    def test_empty(self):
        inst = gate_instance(1)
        assert sspwct_choose(inst.branches["b"], set(), inst.contract_index).chosen == frozenset()

    def test_singleton_acceptable_offer_rejects_nothing(self):
        inst = gate_instance(1)
        assert sspwct_choose(inst.branches["b"], {"x"}, inst.contract_index).chosen == {"x"}

    def test_all_but_one_contract_of_single_agent_rejected(self):
        # Example-1 shaped branch; one agent offers all three of her contracts
        inst = make_instance(
            [("c1", "a", "b"), ("c2", "a", "b"), ("c3", "a", "b")],
            {"a": ("c1", "c2", "c3")},
            [
                branch(
                    n=3,
                    location=(1, 3, 3),
                    transfer=(1, 1, 1),
                    original=[("c1", "c2", "c3"), ("c2",), ("c3",)],
                    shadow=[(), (), ()],
                )
            ],
        )
        got = sspwct_choose(inst.branches["b"], {"c1", "c2", "c3"}, inst.contract_index)
        assert got.chosen == {"c1"}

    def test_completion_rule_variant(self):
        inst = TestCompletion().duplicate_instance()
        got = completion_choose(inst.branches["b"], {"x1", "x2"}, inst.contract_index)
        assert got.chosen == {"x1", "x2"}


# -- property tests over random branch configurations --

AGENTS = ["p", "q", "r"]


@st.composite
def branch_market(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    contracts = [Contract(f"c{i}", draw(st.sampled_from(AGENTS)), "b", terms=f"t{i}") for i in range(m)]
    ids = [c.id for c in contracts]
    location = []
    for k in range(1, n + 1):
        lower = max(k, location[-1] if location else 1)
        location.append(draw(st.integers(lower, n)))
    transfer = tuple(draw(st.integers(0, 1)) for _ in range(n))

    def ranking():
        subset = draw(st.permutations(ids))
        cut = draw(st.integers(0, m))
        return tuple(subset[:cut])

    cfg = branch(
        n=n,
        location=tuple(location),
        transfer=transfer,
        original=[ranking() for _ in range(n)],
        shadow=[ranking() for _ in range(n)],
    )
    prefs = {a: tuple(cid for cid in ids if contracts[ids.index(cid)].agent == a) for a in AGENTS}
    inst = Instance(tuple(contracts), prefs, {"b": cfg})
    offers = frozenset(draw(st.sets(st.sampled_from(ids)))) if ids else frozenset()
    return inst, offers


@settings(max_examples=200, deadline=None)
@given(branch_market())
def test_choice_invariants(market):
    inst, offers = market
    cfg = inst.branches["b"]
    result = sspwct_choose(cfg, offers, inst.contract_index)

    assert result.chosen <= offers
    assert len(result.chosen) <= cfg.n  # physical capacity
    agents = [inst.contract_index[c].agent for c in result.chosen]
    assert len(set(agents)) == len(agents)  # feasibility: one per agent
    seats = result.seats
    for k in range(1, cfg.n + 1):
        if cfg.shadow_slot(k) in seats:
            assert cfg.original_slot(k) not in seats
            assert cfg.transfer[k - 1] == 1
    # the ledger holds exactly the chosen contracts, in processing order
    assert sorted(seats.values()) == sorted(result.chosen)
    assert list(seats) == [slot for slot in cfg.slot_order if slot in seats]
    # the plan: every original seat and each shadow seat whose bit is 1, in
    # processing order, each shadow pointing at its paired original
    plan = cfg.seat_plan
    assert [slot for slot, _, _ in plan] == [
        slot for slot in cfg.slot_order if slot.kind == ORIGINAL or cfg.transfer[slot.index - 1] == 1]
    for slot, paired, ranking in plan:
        assert ranking == cfg.priority(slot)
        if slot.kind == ORIGINAL:
            assert paired == -1
        else:
            assert plan[paired][0] == cfg.original_slot(slot.index)


@settings(max_examples=200, deadline=None)
@given(branch_market())
def test_completion_dichotomy(market):
    """Either the completion agrees with the base rule, or it holds two
    contracts of one agent."""
    inst, offers = market
    cfg = inst.branches["b"]
    base = sspwct_choose(cfg, offers, inst.contract_index).chosen
    comp = completion_choose(cfg, offers, inst.contract_index).chosen
    if comp != base:
        agents = [inst.contract_index[c].agent for c in comp]
        assert len(set(agents)) < len(agents)
    assert comp <= offers


# contracts of the market's agents at another branch, and ids no market has
FOREIGN = {f"f{i}": Contract(f"f{i}", agent, "z", terms=f"f{i}") for i, agent in enumerate(AGENTS)}
UNKNOWN = ("u0", "u1")


@settings(max_examples=200, deadline=None)
@given(branch_market(), st.sets(st.sampled_from([*FOREIGN, *UNKNOWN]), min_size=1))
def test_rules_choose_from_the_branch_part_of_any_offer_set(market, strangers):
    """C_b(Y) = C_b(Y ∩ X_b): offers of other branches' contracts and of
    unknown ids change neither the chosen set nor the seat ledger."""
    inst, own = market
    cfg = inst.branches["b"]
    contracts = {**inst.contract_index, **FOREIGN}
    for rule in (sspwct_choose, completion_choose):
        mixed = rule(cfg, own | strangers, contracts)
        alone = rule(cfg, own, contracts)
        assert (mixed.chosen, mixed.seats) == (alone.chosen, alone.seats)


def test_a_set_of_offers_is_read_in_place():
    # a copy would be a plain frozenset, so no membership test would be counted
    inst = gate_instance(1)
    for rule in (sspwct_choose, completion_choose):
        offers = CountedSet({"y"})
        assert rule(inst.branches["b"], offers, inst.contract_index).chosen == {"y"}
        assert offers.tests == 2  # o1 ranks x, e1 ranks y first


def test_the_walk_stops_once_every_offered_agent_is_seated():
    # o1 seats A, the only offered agent.  With one offer, either rule scans
    # o2's whole ranking, finds it vacant and stops: e2, o3 and e3 are never
    # scanned.  With A's two offers the completion takes x2 at o2 and stops
    # at o3, the first vacant seat; the sspwct rule, which excludes A once
    # for both, walks to the end of the plan.  A full walk makes 13 tests
    # for one offer and 9 for the completion's two.
    inst = make_instance(
        [("x", "A", "b"), ("x2", "A", "b"), ("y", "B", "b")],
        {"A": ("x", "x2"), "B": ("y",)},
        [branch(n=3, transfer=(1, 1, 1), original=[("x", "x2", "y")] * 3, shadow=[("x", "x2", "y")] * 3)],
    )
    cfg = inst.branches["b"]
    for rule, offered, tests, seats in ((sspwct_choose, {"x"}, 4, {"o1": "x"}),
                                        (completion_choose, {"x"}, 4, {"o1": "x"}),
                                        (completion_choose, {"x", "x2"}, 6, {"o1": "x", "o2": "x2"}),
                                        (sspwct_choose, {"x", "x2"}, 13, {"o1": "x"})):
        offers = CountedSet(offered)
        result = rule(cfg, offers, inst.contract_index)
        assert {f"o{slot.index}": cid for slot, cid in result.seats.items()} == seats
        assert len(result._picks) == len(cfg.seat_plan)
        assert offers.tests == tests, (rule.__name__, offered)
