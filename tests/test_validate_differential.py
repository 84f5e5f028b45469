"""Differential tests for the set-based checks in ``validate_instance``.

``sspwct.model.validate_instance`` walks the contract table contract by
contract, and a ranking entry by entry, only when it fails set operations;
``validate_reference`` walks every contract and every ranking.  Both must
return the same violations, with the same texts in the same order, on every
instance the input-error tests validate, on every one-field mutation of
``test_parse_differential`` that parses, and on library-built instances with
bad rankings and with each way out of the contract table's check.
"""
import dataclasses
import json
import random

import pytest

import validate_reference as ref
from sspwct import cli, comparative, model
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.model import Contract, InputError, Instance, ParseError, parse_instance, serialize_instance

from conftest import branch, make_instance, with_branch, with_preference
from test_input_errors import MARKET, RAISE_SITES, _deep_preference
from test_parse_differential import CONFIGS, _mutations


def _same_violations(inst, name):
    got = model.validate_instance(inst)
    assert got == ref.validate_instance(inst), name
    return got


def test_every_instance_of_the_input_error_cases(tmp_path, monkeypatch):
    seen = []

    def spy(inst):
        seen.append(inst)
        return model.validate_instance(inst)

    monkeypatch.setattr(cli, "validate_instance", spy)
    monkeypatch.setattr(comparative, "validate_instance", spy)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(MARKET))
    for site in RAISE_SITES:
        call, _, argv = site.values
        with pytest.raises(InputError):
            call()
        if argv is not None:
            assert cli.main([arg.format(path=path) for arg in argv]) == 2
    doc = json.loads(serialize_instance(MARKET))
    texts = [json.dumps({**doc, "branches": [{**doc["branches"][0], "id": bid} for bid in ids]})
             for ids in [(1, "b02"), ("b", ["x"]), (7,)]] + [_deep_preference()]
    for text in texts:
        with pytest.raises(ParseError):
            parse_instance(text)
    found = [_same_violations(inst, i) for i, inst in enumerate([MARKET, *seen])]
    assert len(found) > 5 and [] in found and any(found)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
def test_one_field_mutations_that_parse(config):
    doc = json.loads(serialize_instance(generate_instance(config)))
    valid = invalid = 0
    for name, mutated in _mutations(doc):
        try:
            inst = parse_instance(json.dumps(mutated))
        except ParseError:
            continue
        if _same_violations(inst, name):
            invalid += 1
        else:
            valid += 1
    assert valid and invalid, (valid, invalid)


_TWO_AGENTS = make_instance(
    [("x", "A", "b"), ("y", "B", "b"), ("z", "A", "c")],
    {"A": ("x", "z"), "B": ("y",)},
    [branch(n=1, original=[("x", "y")], shadow=[("y",)]), branch(bid="c", n=1, original=[("z",)])],
)

LIBRARY_BUILT = [
    pytest.param(_TWO_AGENTS, id="valid"),
    pytest.param(with_preference(_TWO_AGENTS, "A", ("x", "z", "x", "z")), id="duplicate-entries"),
    pytest.param(with_preference(_TWO_AGENTS, "A", ("q", "x", "r")), id="unknown-ids"),
    pytest.param(with_preference(_TWO_AGENTS, "A", ("y", "x", "y")), id="other-agent-ids"),
    pytest.param(with_branch(_TWO_AGENTS, branch(n=1, original=[("z", "x", "z", "q")])), id="other-branch-ids"),
    pytest.param(with_preference(_TWO_AGENTS, "A", (["x"], "x", {"y": 1}, 7)), id="unhashable-entries"),
    pytest.param(with_preference(_TWO_AGENTS, "A", (7, None, ("x",), 1.5, "x")), id="non-string-entries"),
    pytest.param(with_preference(_TWO_AGENTS, "C", ("x",)), id="agent-with-no-contracts"),
    pytest.param(with_branch(_TWO_AGENTS, branch(bid="d", n=1, shadow=[("x",)])), id="branch-with-no-contracts"),
    pytest.param(make_instance([("x", "A", "b"), ("x", "B", "b")], {"A": ("x",), "B": ("x",)}, [branch()]),
                 id="duplicate-ids"),
    pytest.param(Instance((Contract("x", "A", "b", "t"), Contract("y", "A", "b", "t")), {"A": ("y", "x")},
                          {"b": branch(original=[("x", "y")])}), id="duplicate-triples"),
    pytest.param(make_instance([("x", "A", "nope")], {"A": ("x",)}, [branch(original=[("x",)])]),
                 id="unknown-branch"),
    pytest.param(Instance((Contract("x", 7, "b"), Contract("y", "A", ["b"])), {"A": ("x", "y")},
                          {"b": branch(original=[("y", "x")])}), id="wrong-field-kinds"),
    *[pytest.param(Instance((dataclasses.replace(Contract("x", "A", "b"), **{field: value}),
                             Contract("y", "A", "b", "t")), {"A": ("y", "x")}, {"b": branch(original=[("x", "y")])}),
                   id=f"{field}-not-a-string")
      for field, value in [("agent", 7), ("branch", ["b"]), ("terms", None)]],
    # a contract id that is not a string cannot sort among strings, so it is alone
    pytest.param(Instance((Contract(7, "A", "b"),), {"A": (7,)}, {"b": branch(original=[(7,)])}),
                 id="id-not-a-string"),
    pytest.param(make_instance([("x", "A", "b"), ("y", "B", "b"), ("z", "C", "b")], {"B": ("y",)},
                               [branch(n=1, original=[("x", "y")])]), id="owners-without-preferences"),
    pytest.param(make_instance([("x", "A", "b"), ("x", "B", "nope"), ("y", "A", "c")], {"A": ("x", "y")},
                               [branch(original=[("x",)])]), id="duplicate-id-and-unknown-branches"),
    pytest.param(Instance((Contract("w", "A", "b", "t"), Contract("x", "A", "b", "t"), Contract("y", None, "b"),
                           Contract("z", "Z", "b")), {"A": ("w", "x")}, {"b": branch(original=[("x", "w")])}),
                 id="duplicate-triple-kind-and-missing-preferences"),
]


@pytest.mark.parametrize("inst", LIBRARY_BUILT)
def test_library_built_instances(inst):
    _same_violations(inst, "")


def test_a_valid_contract_table_is_never_walked(monkeypatch):
    """A parsed size-L market passes the parser's and the validator's checks
    on its contract table without reading or walking a single contract."""
    text = serialize_instance(generate_instance(GeneratorConfig(seed=1, agents=800, branches=20, capacity=(30, 30))))
    walked, read = [], []
    walk, record = model._contract_violations, model._record
    monkeypatch.setattr(model, "_contract_violations", lambda inst, v: walked.append(inst) or walk(inst, v))
    monkeypatch.setattr(model, "_record", lambda obj, fields, *at: read.append(fields) or record(obj, fields, *at))
    inst = parse_instance(text)
    assert len(inst.contracts) > 15000 and read and all(fields is not model.CONTRACT_FORMAT for fields in read)
    assert _same_violations(inst, "L") == [] and walked == []
    # the spies see a table that fails its check
    bad = dataclasses.replace(inst, contracts=inst.contracts + (inst.contracts[0],))
    assert _same_violations(bad, "L") and walked == [bad]
    with pytest.raises(ParseError, match=r"^contracts\[0\]\.terms: expected a string$"):
        parse_instance(text.replace('"terms": "t1"', '"terms": 1', 1))
    assert read[-1] is model.CONTRACT_FORMAT


# entries a ranking edit puts in: unknown, not a string, not hashable
_STRANGERS = ["zz9", 7, None, ("x",), ["x"], {"y": 1}]


def _edit_ranking(rng, inst):
    rankings = [("pref", agent) for agent in inst.preferences]
    rankings += [(b, field, k) for b, cfg in inst.branches.items()
                 for field in ("original_priorities", "shadow_priorities") for k in range(cfg.n)]
    where = rng.choice(rankings)
    if where[0] == "pref":
        row = list(inst.preferences[where[1]])
    else:
        row = list(getattr(inst.branches[where[0]], where[1])[where[2]])
    kind = rng.randrange(4)
    if kind == 0 and row:  # a repeat
        row.insert(rng.randrange(len(row) + 1), rng.choice(row))
    elif kind == 1:  # another owner's, or the same owner's, contract
        row.insert(rng.randrange(len(row) + 1), rng.choice(inst.contracts).id)
    elif kind == 2:
        row.insert(rng.randrange(len(row) + 1), rng.choice(_STRANGERS))
    elif row:
        del row[rng.randrange(len(row))]
    if where[0] == "pref":
        return with_preference(inst, where[1], row)
    cfg = inst.branches[where[0]]
    rows = list(getattr(cfg, where[1]))
    rows[where[2]] = row
    return with_branch(inst, dataclasses.replace(cfg, **{where[1]: rows}))


def _edit_contracts(rng, inst):
    contracts = list(inst.contracts)
    i, other = rng.randrange(len(contracts)), rng.choice(contracts)
    kind = rng.randrange(4)
    if kind == 0:  # a repeated id
        edit = {"id": other.id}
    elif kind == 1:  # a repeated triple
        edit = {"agent": other.agent, "branch": other.branch, "terms": other.terms}
    elif kind == 2:  # an unknown branch, or another agent or branch
        field = rng.choice(["agent", "branch"])
        edit = {field: rng.choice(["nope", getattr(other, field)])}
    else:  # a field of the wrong kind
        edit = {rng.choice(["agent", "branch", "terms"]): rng.choice([7, ["t"]])}
    contracts[i] = dataclasses.replace(contracts[i], **edit)
    return dataclasses.replace(inst, contracts=tuple(contracts))


def test_random_edits_of_generated_instances():
    rng = random.Random(2020)
    counts = {"valid": 0, "invalid": 0}
    for seed in range(150):
        inst = generate_instance(GeneratorConfig(seed=seed, agents=rng.randint(2, 6), branches=rng.randint(1, 3),
                                                 capacity=(1, 3), transfer_density=0.5))
        if not inst.contracts:
            continue
        for _ in range(rng.randint(1, 3)):
            inst = (_edit_contracts if rng.random() < 0.3 else _edit_ranking)(rng, inst)
        counts["invalid" if _same_violations(inst, seed) else "valid"] += 1
    assert min(counts.values()) > 0, counts
