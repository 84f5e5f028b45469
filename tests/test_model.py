import dataclasses
import gc
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sspwct.model import (
    BranchConfig,
    Contract,
    InputError,
    Instance,
    ParseError,
    canonical_json,
    outcome_violations,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from sspwct import cli
from sspwct.cli import main
from sspwct.generator import LOCATION_POLICIES, GeneratorConfig, generate_instance
from sspwct.mechanism import cumulative_offer

from conftest import MISSING_SEATS, branch, make_instance, seat_id, with_preference


def test_location_lower_bound_violation():
    inst = make_instance([], {}, [branch(n=1, location=(0,))])
    violations = validate_instance(inst)
    assert any("location lower bound k <= l_k" in v for v in violations)


def test_location_vector_1_3_3_is_valid():
    inst = make_instance([], {}, [branch(n=3, location=(1, 3, 3))])
    assert not [v for v in validate_instance(inst) if "location" in v]


def test_duplicate_contract_in_slot_ranking():
    inst = make_instance(
        [("x", "a", "b")],
        {"a": ("x",)},
        [branch(n=1, original=[("x", "x")])],
    )
    violations = validate_instance(inst)
    assert any("strict order violated" in v for v in violations)


def test_duplicate_in_preference_and_foreign_contract_listed():
    inst = make_instance(
        [("x", "a", "b"), ("y", "a2", "b2")],
        {"a": ("x", "x"), "a2": ("y",)},
        [branch("b", n=1, original=[("y",)]), branch("b2", n=1)],
    )
    violations = validate_instance(inst)
    assert any("preference a: strict order violated" in v for v in violations)
    assert any("belongs to branch b2" in v for v in violations)


def test_ranking_violations_list_duplicates_first_then_entries_in_order():
    inst = make_instance(
        [("x", "a", "b"), ("y", "a2", "b2")],
        {"a": ("nope", "y", "x", "x"), "a2": ("y",)},
        [branch("b", n=1, original=[("y", "x", "x")]), branch("b2", n=1)],
    )
    assert validate_instance(inst) == [
        "preference a: strict order violated (duplicate contract x)",
        "preference a: unknown contract nope",
        "preference a: contract y belongs to a2",
        "slot b:o1: strict order violated (duplicate contract x)",
        "slot b:o1: contract y belongs to branch b2",
    ]


def test_outcome_counts_a_repeated_contract_id_once():
    inst = make_instance(
        [("x", "a", "b"), ("y", "a2", "b")], {"a": ("x",), "a2": ("y",)}, [branch(n=1)]
    )
    assert outcome_violations(inst, ["x", "x", "y", "nope", "nope"]) == [
        "outcome: contract x listed 2 times",
        "outcome: contract nope listed 2 times",
        "outcome: unknown contract nope",
        "outcome: branch b holds 2 contracts, capacity 1",
    ]
    assert outcome_violations(inst, ["x", "x"]) == ["outcome: contract x listed 2 times"]


def test_missing_preference_record_and_unknown_branch():
    inst = make_instance([("x", "a", "nowhere")], {}, [branch()])
    violations = validate_instance(inst)
    assert any("no preference record" in v for v in violations)
    assert any("unknown branch" in v for v in violations)


def test_transfer_bits_and_monotonicity():
    inst = make_instance([], {}, [branch(n=2, location=(2, 1), transfer=(2, 0))])
    violations = validate_instance(inst)
    assert any("must be 0 or 1" in v for v in violations)
    assert any("not nondecreasing" in v for v in violations)
    assert any("lower bound" in v for v in violations)  # l_2 = 1 < 2


def test_roundtrip_structural_equality():
    inst = make_instance(
        [("x", "a", "b"), ("y", "a2", "b")],
        {"a": ("x",), "a2": ("y",)},
        [branch(n=1, transfer=(1,), original=[("x",)], shadow=[("y", "x")])],
    )
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_roundtrip_is_byte_identical():
    inst = generate_instance(GeneratorConfig(seed=5))
    text = serialize_instance(inst)
    assert serialize_instance(parse_instance(text)) == text


@pytest.mark.parametrize("where, place", [
    pytest.param("top level", lambda doc: doc, id="top-level"),
    pytest.param("contracts[0]", lambda doc: doc["contracts"][0], id="contract"),
    pytest.param("branches[0]", lambda doc: doc["branches"][0], id="branch"),
])
def test_parse_rejects_unknown_field(where, place):
    inst = generate_instance(GeneratorConfig(seed=5))
    doc = json.loads(serialize_instance(inst))
    place(doc)["term"] = "t1"
    with pytest.raises(ParseError, match=rf"^{re.escape(where)}: unknown field 'term'$") as exc:
        parse_instance(json.dumps(doc))
    assert isinstance(exc.value, InputError)


def test_parse_missing_transfer_names_the_field():
    inst = make_instance([], {}, [branch(n=1)])
    doc = json.loads(serialize_instance(inst))
    del doc["branches"][0]["transfer"]
    with pytest.raises(ParseError, match="transfer"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_non_object_and_bad_types():
    with pytest.raises(ParseError):
        parse_instance("[1, 2]")
    with pytest.raises(ParseError, match="location"):
        parse_instance(
            json.dumps(
                {
                    "contracts": [],
                    "preferences": {},
                    "branches": [
                        {
                            "id": "b",
                            "n": 1,
                            "location": ["x"],
                            "transfer": [0],
                            "original_priorities": [[]],
                            "shadow_priorities": [[]],
                        }
                    ],
                }
            )
        )


def test_n2_config_with_four_slot_priorities_roundtrips_field_by_field():
    cfg = branch(
        n=2,
        location=(1, 2),
        transfer=(1, 0),
        original=[("x",), ("y",)],
        shadow=[("y", "x"), ()],
    )
    inst = make_instance(
        [("x", "a", "b"), ("y", "a2", "b")], {"a": ("x",), "a2": ("y",)}, [cfg]
    )
    again = parse_instance(serialize_instance(inst)).branches["b"]
    assert again.id == cfg.id
    assert again.n == cfg.n
    assert again.location == cfg.location
    assert again.transfer == cfg.transfer
    assert again.original_priorities == cfg.original_priorities
    assert again.shadow_priorities == cfg.shadow_priorities


def test_generator_output_always_validates():
    for seed in range(25):
        inst = generate_instance(GeneratorConfig(seed=seed))
        assert not validate_instance(inst)


def test_replace_and_transfer_update_build_a_fresh_seat_plan():
    # the plan holds every original seat and only the shadow seats whose
    # transfer bit is 1, each with the plan position of its paired original
    def planned(cfg):
        return [(str(slot), paired) for slot, paired, _ in cfg.seat_plan]

    inst = make_instance([], {}, [branch(n=2, location=(1, 2), transfer=(0, 1))])
    cfg = inst.branches["b"]
    assert [str(slot) for slot in cfg.slot_order] == ["b:o1", "b:e1", "b:o2", "b:e2"]
    assert planned(cfg) == [("b:o1", -1), ("b:o2", -1), ("b:e2", 1)]
    flipped = inst.with_branches({"b": dataclasses.replace(cfg, transfer=(1, 1))}).branches["b"]
    assert planned(flipped) == [("b:o1", -1), ("b:e1", 0), ("b:o2", -1), ("b:e2", 2)]
    closed = inst.with_branches({"b": dataclasses.replace(cfg, transfer=(0, 0))}).branches["b"]
    assert planned(closed) == [("b:o1", -1), ("b:o2", -1)]
    moved = dataclasses.replace(cfg, location=(2, 2))
    assert planned(moved) == [("b:o1", -1), ("b:o2", -1), ("b:e2", 1)]
    assert planned(dataclasses.replace(flipped, location=(2, 2))) == [
        ("b:o1", -1), ("b:o2", -1), ("b:e1", 0), ("b:e2", 1)]
    assert planned(cfg) == [("b:o1", -1), ("b:o2", -1), ("b:e2", 1)]  # the original is untouched


def test_with_branches_keeps_the_order_the_unchanged_configs_and_the_lookups():
    inst = make_instance(
        [("x", "A", "b"), ("y", "B", "c"), ("z", "B", "d")], {"A": ("x",), "B": ("y", "z")},
        [branch("b"), branch("c"), branch("d")],
    )
    lookups = ["contract_index", "agents", "contracts_of_agent", "_pref_rank", "contracts_of_branch"]
    built = {name: getattr(inst, name) for name in lookups}
    changes = {"d": branch("d", transfer=(1,)), "b": branch("b", original=[("x",)])}
    edited = inst.with_branches(changes)
    assert list(edited.branches) == ["b", "c", "d"]
    assert [edited.branches[b] for b in "bcd"] == [changes["b"], inst.branches["c"], changes["d"]]
    assert edited.branches["c"] is inst.branches["c"] and edited.branches["d"] is changes["d"]
    assert all(getattr(edited, name) is built[name] for name in lookups)
    assert list(inst.branches) == ["b", "c", "d"] and inst.branches["d"].transfer == (0,)
    assert inst.with_branches({}).branches == inst.branches
    # a lookup this market never built is built by the copy
    fresh = make_instance([("x", "A", "b")], {"A": ("x",)}, [branch("b")])
    assert "contract_index" not in vars(fresh.with_branches({"b": branch("b", n=2)}))
    assert fresh.with_branches({"b": branch("b", n=2)}).contract_index == {"x": fresh.contracts[0]}


@pytest.mark.parametrize("changes", [{"e": branch("e")}, {"b": branch("b"), "a": branch("a")}],
                         ids=["new-id", "new-id-after-a-known-one"])
def test_with_branches_rejects_an_id_the_market_lacks(changes):
    inst = make_instance([("x", "A", "b")], {"A": ("x",)}, [branch("b")])
    unknown = next(b for b in changes if b not in inst.branches)
    with pytest.raises(KeyError) as exc:
        inst.with_branches(changes)
    assert exc.value.args == (f"the market has no branch {unknown}",)
    assert list(inst.branches) == ["b"]


def test_equality_and_hash_ignore_the_cached_seat_plan():
    planned = branch(n=2, location=(2, 2), transfer=(1, 0), original=[("x",), ()])
    fresh = branch(n=2, location=(2, 2), transfer=(1, 0), original=[("x",), ()])
    assert planned.seat_plan and "seat_plan" in vars(planned) and "seat_plan" not in vars(fresh)
    assert planned == fresh
    assert hash(planned) == hash(fresh)
    assert dataclasses.replace(planned, transfer=(0, 0)) != fresh


def _doc_with_branch_ids(*ids):
    return json.dumps({
        "contracts": [],
        "preferences": {},
        "branches": [
            {"id": bid, "n": 1, "location": [1], "transfer": [0],
             "original_priorities": [[]], "shadow_priorities": [[]]}
            for bid in ids
        ],
    })


@pytest.mark.parametrize("ids, where", [
    ((1, "b02"), "branches[0]"),
    (("b01", ["x"]), "branches[1]"),
    ((7,), "branches[0]"),
])
def test_parse_rejects_a_branch_id_that_is_not_a_string(ids, where):
    with pytest.raises(ParseError, match=rf"^{re.escape(where)}\.id: expected a string$"):
        parse_instance(_doc_with_branch_ids(*ids))


@pytest.mark.parametrize("slot", MISSING_SEATS, ids=seat_id)
def test_priority_and_row_reject_a_seat_the_branch_lacks(slot):
    cfg = branch(n=2, original=[("x",), ("y",)], shadow=[("y",), ("x",)])
    for call in (cfg.priority, cfg.row):
        with pytest.raises(KeyError) as exc:
            call(slot)
        assert exc.value.args == (f"branch b has no seat {slot!r}",)


def test_row_is_the_seat_index_in_with_rows_order():
    cfg = branch(n=2, original=[("x",), ("y",)], shadow=[("y",), ("x",)])
    assert [cfg.row(slot) for slot in cfg.slots()] == [0, 1, 2, 3]
    for slot in cfg.slots():
        rows = [cfg.priority(s) for s in cfg.slots()]
        rows[cfg.row(slot)] = ["z"]
        edited = cfg.with_rows(rows)
        assert [edited.priority(s) for s in cfg.slots()] == [
            ("z",) if s == slot else cfg.priority(s) for s in cfg.slots()
        ]


def test_with_rows_takes_a_built_seat_order_and_builds_none():
    cfg = branch(n=2, location=(2, 2), original=[("x",), ()])
    rows = [("y",), (), (), ()]
    assert "slot_order" not in vars(cfg.with_rows(rows)) and "slot_order" not in vars(cfg)
    order = cfg.slot_order
    assert vars(cfg.with_rows(rows))["slot_order"] is order
    short = branch(n=2, location=(1,))  # no seat order can be built from it
    assert short.with_rows(rows).original_priorities == (("y",), ())


def test_parse_keeps_one_string_per_id():
    inst = parse_instance(serialize_instance(generate_instance(GeneratorConfig(seed=5))))
    ids = {c.id: c.id for c in inst.contracts}
    agents = {c.agent: c.agent for c in inst.contracts}
    seen = 0
    for agent, ranking in inst.preferences.items():
        assert agent is agents.get(agent, agent)
        for cid in ranking:
            assert cid is ids[cid]
            seen += 1
    for cfg in inst.branches.values():
        for row in cfg.original_priorities + cfg.shadow_priorities:
            for cid in row:
                assert cid is ids[cid]
                seen += 1
    assert seen > len(ids)


def _one_branch_doc(**fields) -> str:
    # every bad value sits in a document that also holds the integer 1, so a
    # memo keyed by equal values would turn true into 1 (or 1 into true)
    rb = {"id": "b", "n": 1, "location": [1], "transfer": [1],
          "original_priorities": [["x"]], "shadow_priorities": [["x"]]}
    doc = {"contracts": [{"id": "x", "agent": "A", "branch": "b", "terms": ""}],
           "preferences": {"A": ["x"]}, "branches": [{**rb, **fields}]}
    return json.dumps(doc)


@pytest.mark.parametrize("fields, message", [
    pytest.param({"n": True}, "branches[0].n: expected an integer", id="n"),
    pytest.param({"location": [True]}, "branches[0].location: expected an array of integers",
                 id="location"),
    pytest.param({"transfer": [True]}, "branches[0].transfer: expected an array of integers",
                 id="transfer"),
    pytest.param({"original_priorities": [["x", 1]]},
                 "branches[0].original_priorities[0]: expected an array of strings", id="ranking"),
    pytest.param({"shadow_priorities": [[True]]},
                 "branches[0].shadow_priorities[0]: expected an array of strings", id="shadow-ranking"),
])
def test_parse_never_changes_a_value_type(fields, message):
    with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
        parse_instance(_one_branch_doc(**fields))


def test_parse_reports_a_number_in_a_preference_ranking():
    text = _one_branch_doc().replace('"A": ["x"]', '"A": ["x", 1]')
    with pytest.raises(ParseError, match=r"^preferences\[A\]: expected an array of strings$"):
        parse_instance(text)


def test_parse_duplicate_keys_resolve_last_wins():
    text = _one_branch_doc().replace('"n": 1', '"n": 5, "n": 1').replace(
        '"preferences": {"A": ["x"]}', '"preferences": {"A": ["y"], "A": ["x"]}')
    assert '"n": 5' in text and '"A": ["y"]' in text
    inst = parse_instance(text)
    assert inst.branches["b"].n == 1
    assert inst.preferences == {"A": ("x",)}
    assert list(inst.branches["b"].original_priorities) == [("x",)]


def _one_contract(**fields):
    contract = Contract(**{"id": "x", "agent": "A", "branch": "b", "terms": "t", **fields})
    return Instance((contract,), {contract.agent: (contract.id,)}, {"b": branch()})


@pytest.mark.parametrize("inst, message", [
    pytest.param(make_instance([], {}, [branch(transfer=(True,))]),
                 "branch b: transfer bit at k=1 must be 0 or 1 (got True)", id="transfer-bool"),
    pytest.param(make_instance([], {}, [branch(n=True)]),
                 "branch b: capacity n must be an integer (got True)", id="n-bool"),
    pytest.param(make_instance([], {}, [branch(location=(1.0,))]),
                 "branch b: location at k=1 must be an integer (got 1.0)", id="location-float"),
    pytest.param(_one_contract(id=7), "contract 7: id must be a string (got 7)", id="contract-id"),
    pytest.param(_one_contract(agent=7), "contract x: agent must be a string (got 7)", id="agent"),
    pytest.param(_one_contract(branch=7), "contract x: branch must be a string (got 7)", id="branch"),
    pytest.param(_one_contract(terms=7), "contract x: terms must be a string (got 7)", id="terms"),
    pytest.param(Instance((), {}, {5: branch(bid=5)}), "branch 5: id must be a string (got 5)",
                 id="branch-id"),
])
def test_validation_rejects_what_the_parser_rejects(inst, message):
    # each value is accepted by the library's constructors, but its
    # serialized form does not parse back
    assert message in validate_instance(inst)
    with pytest.raises(ParseError):
        parse_instance(serialize_instance(inst))


def _two_seats(**fields):
    cfg = {"id": "b", "n": 2, "location": (1, 2), "transfer": (0, 0), "original_priorities": ((), ()),
           "shadow_priorities": ((), ()), **fields}
    return Instance((), {}, {"b": BranchConfig(**cfg)})


@pytest.mark.parametrize("inst, message, parses", [
    pytest.param(make_instance([("x", "A", "b"), ("x", "B", "b")], {"A": (), "B": ()}, [branch()]),
                 "contract x: duplicate contract id", True, id="duplicate-id"),
    pytest.param(Instance((Contract("x", "A", "b", "t"), Contract("y", "A", "b", "t")), {"A": ("x", "y")},
                          {"b": branch()}),
                 "contract y: duplicate (agent, branch, terms) triple ('A', 'b', 't')", True,
                 id="duplicate-triple"),
    # the file format keys a branch by its config's id, so only a library
    # caller can build this one
    pytest.param(Instance((), {}, {"b": branch(bid="c")}), "branch b: config id mismatch (c)", False,
                 id="id-mismatch"),
    pytest.param(_two_seats(n=0, location=(), transfer=(), original_priorities=(), shadow_priorities=()),
                 "branch b: capacity n must be positive (n=0)", True, id="n-zero"),
    pytest.param(_two_seats(location=(1,)), "branch b: location vector has length 1, expected 2", True,
                 id="location-length"),
    pytest.param(_two_seats(transfer=(0,)), "branch b: transfer vector has length 1, expected 2", True,
                 id="transfer-length"),
    pytest.param(_two_seats(original_priorities=((),)), "branch b: expected 2 original priority orders", True,
                 id="original-count"),
    pytest.param(_two_seats(shadow_priorities=((),)), "branch b: expected 2 shadow priority orders", True,
                 id="shadow-count"),
    pytest.param(_two_seats(location=(1, 3)),
                 "branch b: location upper bound l_k <= n violated at k=2 (l_k=3)", True, id="location-upper"),
])
def test_validation_names_each_structural_violation(inst, message, parses, tmp_path, capsys):
    assert message in validate_instance(inst)
    if parses:
        path = tmp_path / "invalid.json"
        path.write_text(serialize_instance(inst))
        code = main(["run", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and f"  {message}\n" in err


def test_validation_rejects_a_preference_agent_the_parser_would_retype():
    # JSON object keys are strings, so the agent 7 would come back as "7"
    inst = Instance((), {7: ()}, {"b": branch()})
    assert validate_instance(inst) == ["preference 7: agent must be a string (got 7)"]
    assert parse_instance(serialize_instance(inst)).preferences == {"7": ()}


def test_validation_reports_an_unhashable_contract_field():
    # the duplicate-triple check hashes (agent, branch, terms)
    inst = Instance((Contract("x", "A", "b", ["t"]),), {"A": ("x",)}, {"b": branch()})
    assert validate_instance(inst) == [
        "contract x: terms must be a string (got ['t'])",
        "preference A: unknown contract x",
    ]


def test_validation_reports_an_int_agent_beside_string_agents():
    # the owners check sorts the agents, and 5 does not sort with "a"
    inst = Instance(
        (Contract("x", 5, "b"), Contract("y", "a", "b")), {"a": ("y",)}, {"b": branch()}
    )
    assert validate_instance(inst) == ["contract x: agent must be a string (got 5)"]


def test_validation_reports_an_unhashable_ranking_entry():
    # the strict-order check hashes every entry; the ranking's entries are
    # then checked only for their type, and other rankings as usual
    inst = Instance(
        (Contract("x", "A", "b"),),
        {"A": (["x"], "x", {"y": 1})},
        {"b": branch(original=[("x", ["y"], 7, "z")], shadow=[("x", 7)])},
    )
    assert validate_instance(inst) == [
        "preference A: ranking entry ['x'] must be a contract id (a string)",
        "preference A: ranking entry {'y': 1} must be a contract id (a string)",
        "slot b:o1: ranking entry ['y'] must be a contract id (a string)",
        "slot b:o1: ranking entry 7 must be a contract id (a string)",
        "slot b:e1: unknown contract 7",
    ]
    assert validate_instance(Instance((), {"A": (["x"],)}, {})) == [
        "preference A: ranking entry ['x'] must be a contract id (a string)"
    ]


@pytest.mark.parametrize("args, message", [
    (((), {"A": ("x",), 3: ()}, {}), "preferences: agents must all be strings"),
    (((Contract("x", "A", "b"), Contract(5, "A", "b", "u")), {}, {}),
     "contracts: contract ids must all be strings"),
    (((), {}, {"b": branch(), 2: branch(bid=2)}), "branches: branch ids must all be strings"),
])
def test_ids_that_do_not_sort_together_raise_an_input_error(args, message):
    with pytest.raises(InputError, match=re.escape(message)):
        Instance(*args)


#: a ranking written as one string would split into its characters; with
#: single-character ids the split market validates and runs
STRING_RANKINGS = [
    (lambda: Instance((), {"A": "yx"}, {}), "preferences[A]"),
    (lambda: make_instance([("x", "A", "b"), ("y", "A", "b")], {"A": ("x", "y")},
                           [BranchConfig("b", 1, (1,), (0,), ("xy",), ((),))]),
     "branches[b].original_priorities[0]"),
    (lambda: BranchConfig("b", 2, (1, 2), (0, 0), ((), ()), ((), "xy")),
     "branches[b].shadow_priorities[1]"),
    (lambda: with_preference(make_instance([("x", "A", "b")], {"A": ("x",)}, [branch(n=1)]), "A", "x"),
     "preferences[A]"),
    (lambda: branch(n=1).with_rows(["x", ()]), "branches[b].original_priorities[0]"),
    (lambda: branch(n=2).with_rows([(), (), (), "xy"]), "branches[b].shadow_priorities[1]"),
]


@pytest.mark.parametrize("build, field", STRING_RANKINGS,
                         ids=["preference", "original", "shadow", "with_preference", "with_rows-original",
                              "with_rows-shadow"])
def test_a_ranking_given_as_one_string_raises_an_input_error(build, field):
    with pytest.raises(InputError, match=re.escape(
        f"{field}: a ranking must be a sequence of contract ids, not a string"
    )):
        build()


def test_rankings_of_any_sequence_are_stored_as_tuples():
    inst = make_instance([("x", "A", "b"), ("y", "A", "b")], {"A": ["x", "y"]},
                         [BranchConfig("b", 1, [1], [0], [["y", "x"]], [[]])])
    assert inst.preferences["A"] == ("x", "y")
    assert inst.branches["b"].original_priorities == (("y", "x"),)
    assert with_preference(inst, "A", iter(["y"])).preferences["A"] == ("y",)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    agents=st.integers(1, 8),
    branches=st.integers(1, 3),
    cap_max=st.integers(1, 4),
    transfer_density=st.sampled_from([0.0, 0.5, 1.0]),
    location_policy=st.sampled_from(LOCATION_POLICIES),
)
def test_generated_instances_validate_and_round_trip(seed, agents, branches, cap_max, transfer_density,
                                                     location_policy):
    inst = generate_instance(GeneratorConfig(
        seed=seed, agents=agents, branches=branches, capacity=(1, cap_max),
        transfer_density=transfer_density, location_policy=location_policy))
    assert validate_instance(inst) == []
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst and serialize_instance(again) == text


def test_writer_and_parser_leave_no_reference_cycles():
    # garbage in a cycle waits for a full collection, so a memo kept by one
    # would stay in memory after the call that built it
    inst = generate_instance(GeneratorConfig(seed=5))
    text = serialize_instance(inst)

    def closed(chunk):  # a reader gone mid-stream, as ``| head`` leaves stdout
        raise BrokenPipeError

    gc.collect()
    gc.disable()
    try:
        assert parse_instance(text) and canonical_json({"steps": [["x", "y"], ["x"]]})
        assert gc.collect() == 0
        chunks = []
        canonical_json({"trace": cumulative_offer(inst).iter_steps()}, chunks.append)
        assert len(chunks) > 2 and gc.collect() == 0
        with pytest.raises(BrokenPipeError):
            canonical_json({"trace": cumulative_offer(inst).iter_steps()}, closed)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller's frame keeps its call arguments until the call returns")
def test_parse_holds_the_file_text_once(tmp_path):
    # the bytes die when decoded and the text once the JSON is parsed; with
    # either kept through the parse the peak is about 3x the file
    path = tmp_path / "m.json"
    path.write_text(serialize_instance(generate_instance(
        GeneratorConfig(seed=100, agents=200, branches=10, capacity=(15, 15)))))
    gc.collect()
    tracemalloc.start()
    try:
        inst = parse_instance(path.read_bytes())  # not in an assert, whose rewrite keeps the bytes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.contracts and peak < 2.5 * path.stat().st_size


def test_reading_a_file_in_chunks_holds_less_than_its_text(tmp_path, monkeypatch):
    # the CLI reads a market longer than its first chunk item by item, so
    # the peak stays below the file's size; reading it whole as
    # ``parse_instance(fh.read())`` holds about twice the file
    monkeypatch.setattr(cli, "CHUNK", 1 << 18)
    path = tmp_path / "m.json"
    path.write_text(serialize_instance(generate_instance(
        GeneratorConfig(seed=1, agents=400, branches=10, capacity=(30, 30)))))
    assert path.stat().st_size > 8 * cli.CHUNK
    gc.collect()
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            inst = parse_instance(cli._Reader(fh))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.contracts and peak < path.stat().st_size
