"""Differential and per-field tests for the table-driven instance reader.

Every one-field mutation of generated documents goes through both
``sspwct.model.parse_instance`` and the per-field parser it replaced (kept
in ``parse_reference``).  Where both accept, the instances serialize to the
same bytes; where both reject, the ``ParseError`` texts are equal once the
two messages that now name their field are mapped back to the old wording.
A field is an object's key or an array's first item, and a mutation deletes
it, sets it to one of ``VALUES`` or to the id of the last branch or contract,
or, in an object, adds an unknown key.
"""
import copy
import json
import re

import pytest

import parse_reference as ref
from sspwct import model
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.model import ParseError, parse_instance, serialize_instance

VALUES = [None, True, 1, 0, -1, 1.5, "s", [], ["s"], [1], [[1]], [["s"]], {}, {"a": 1}]
CONFIGS = [
    GeneratorConfig(seed=5),
    GeneratorConfig(seed=11, agents=3, branches=1, capacity=(2, 2), transfer_density=1.0),
]

#: The two messages that name their field, with the old wording of each.
RENAMED = [
    (re.compile(r"^(contracts\[\d+\])\.(id|agent|branch|terms): expected a string$"),
     r"\1: id, agent, branch, terms must be strings"),
    (re.compile(r"^(branches\[\d+\])\.(original|shadow)_priorities: expected an array of arrays of strings$"),
     r"\1: priority fields must be arrays of arrays"),
]


_DELETE = object()


def _paths(value, path=()):
    """Every field below ``value``: an object's keys and an array's first item."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from _paths(value[0], path + (0,))


def _mutations(doc):
    # the last branch's and contract's ids make the first record a duplicate
    ids = [doc["branches"][-1]["id"], doc["contracts"][-1]["id"]]
    for path in _paths(doc):
        *parent_path, key = path
        for value in [_DELETE, *VALUES, *ids]:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for step in parent_path:
                parent = parent[step]
            if value is _DELETE:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(value)
            yield f"{'/'.join(map(str, path))}={'deleted' if value is _DELETE else json.dumps(value)}", mutated
    for path in [()] + list(_paths(doc)):
        mutated = copy.deepcopy(doc)
        target = mutated
        for step in path:
            target = target[step]
        if isinstance(target, dict):
            target["extra"] = 1
            yield f"{'/'.join(map(str, path))}+extra", mutated


def _outcome(parse, text):
    try:
        return "accepted", serialize_instance(parse(text))
    except ParseError as exc:
        return "rejected", str(exc)


def _old_wording(message):
    for pattern, old in RENAMED:
        message = pattern.sub(old, message)
    return message


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
def test_one_field_mutations_match_the_reference_parser(config):
    doc = json.loads(serialize_instance(generate_instance(config)))
    counts = {"accepted": 0, "rejected": 0, "renamed": 0}
    for name, mutated in _mutations(doc):
        text = json.dumps(mutated)
        got, want = _outcome(parse_instance, text), _outcome(ref.parse_instance, text)
        counts[got[0]] += 1
        if got[0] == "rejected" and _old_wording(got[1]) != got[1]:
            counts["renamed"] += 1
            # a renamed message names the field the mutation touched
            assert got[1].split(":")[0] == "{}[{}].{}".format(*name.split("=")[0].split("/")[:3]), name
        assert (got[0], _old_wording(got[1])) == want, name
    assert min(counts.values()) > 0, counts


def _document():
    return json.loads(serialize_instance(generate_instance(GeneratorConfig(seed=5))))


# (table, place of one record in a document, the record's name, text of each kind)
RECORDS = [
    pytest.param(model.INSTANCE_FORMAT, lambda doc: doc, "top level", "{field}",
                 {"contracts": "an array", "preferences": "an object", "branches": "an array"},
                 id="top-level"),
    pytest.param(model.CONTRACT_FORMAT, lambda doc: doc["contracts"][0], "contracts[0]", "contracts[0].{field}",
                 dict.fromkeys(["id", "agent", "branch", "terms"], "a string"), id="contract"),
    pytest.param(model.BRANCH_FORMAT, lambda doc: doc["branches"][0], "branches[0]", "branches[0].{field}",
                 {"id": "a string", "n": "an integer", "location": "an array of integers",
                  "transfer": "an array of integers",
                  "original_priorities": "an array of arrays of strings",
                  "shadow_priorities": "an array of arrays of strings"}, id="branch"),
]


@pytest.mark.parametrize("table, place, where, at, kinds", RECORDS)
def test_each_field_of_each_table(table, place, where, at, kinds):
    assert list(table) == list(kinds)  # every field of the table is tested here
    for field, kind in kinds.items():
        missing = _document()
        del place(missing)[field]
        if field == "terms":  # the one optional field: a contract's terms default to ""
            assert {c.terms for c in parse_instance(json.dumps(missing)).contracts} >= {""}
        else:
            with pytest.raises(ParseError, match=rf"^{re.escape(where)}: missing required field '{field}'$"):
                parse_instance(json.dumps(missing))
        for wrong in (None, True, 1.5):
            doc = _document()
            place(doc)[field] = wrong
            message = f"{at.format(field=field)}: expected {kind}"
            with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
                parse_instance(json.dumps(doc))


def test_a_preference_ranking_of_the_wrong_kind():
    doc = _document()
    agent = sorted(doc["preferences"])[0]
    for wrong in (None, "x", [1], [["x"]], {}):
        doc["preferences"][agent] = wrong
        with pytest.raises(ParseError, match=rf"^preferences\[{agent}\]: expected an array of strings$"):
            parse_instance(json.dumps(doc))
