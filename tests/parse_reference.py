"""Reference instance parser kept only for differential tests.

This is the per-field parser that the format tables in ``sspwct.model``
replaced: it reads each field with its own call and inline type check, and
states the fields a record may hold in one set per record.  Two of its
messages name no single field (``contracts[i]: id, agent, branch, terms
must be strings`` and ``branches[i]: priority fields must be arrays of
arrays``).  It keeps its own copy of the string-sharing hook it was
written against, which leaves every array a list.  It must not be imported
by ``sspwct`` itself.
"""
from __future__ import annotations

import json
from typing import Any, Callable, Mapping

from sspwct.model import (
    BranchConfig,
    BranchId,
    Contract,
    Instance,
    ParseError,
    _is_int,
)


def _sharing_strings() -> Callable[[list[tuple[str, Any]]], dict]:
    """A ``json.loads`` object hook for one document: each object's keys,
    its string values and the strings in its arrays and arrays of arrays
    are replaced by the first equal string the document produced.  Only
    ``str`` objects are looked up, so no value changes type."""
    memo: dict[str, str] = {}
    share = memo.setdefault
    return lambda pairs: {share(key, key): _shared(value, share) for key, value in pairs}


def _shared(value: Any, share: Callable[[str, str], str], depth: int = 2) -> Any:
    if type(value) is str:
        return share(value, value)
    if type(value) is list and depth:
        value[:] = [share(x, x) if type(x) is str else _shared(x, share, depth - 1) for x in value]
    return value


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if not isinstance(obj, Mapping):
        raise ParseError(f"{where}: expected an object")
    if key not in obj:
        raise ParseError(f"{where}: missing required field '{key}'")
    return obj[key]


_TOP_FIELDS = frozenset({"contracts", "preferences", "branches"})
_CONTRACT_FIELDS = frozenset({"id", "agent", "branch", "terms"})
_BRANCH_FIELDS = frozenset({"id", "n", "location", "transfer", "original_priorities", "shadow_priorities"})


def _reject_unknown(obj: Mapping[str, Any], fields: frozenset, where: str) -> None:
    if not obj.keys() <= fields:
        unknown = next(key for key in obj if key not in fields)
        raise ParseError(f"{where}: unknown field {unknown!r}")


def _string_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where}: expected an array of strings")
    return tuple(value)


def _int_list(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise ParseError(f"{where}: expected an array of integers")
    return tuple(value)


def parse_instance(text: str | bytes) -> Instance:
    """Parse the canonical JSON instance format.

    Structural problems, unknown fields included, raise :class:`ParseError`
    naming the field; semantic invariants are left to :func:`validate_instance`.
    Equal id strings are one object in the returned instance.
    """
    try:
        doc = json.loads(
            text.decode("utf-8") if isinstance(text, bytes) else text,
            object_pairs_hook=_sharing_strings(),
        )
    except ValueError as exc:  # undecodable bytes as well as malformed JSON
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")

    raw_contracts = _require(doc, "contracts", "top level")
    if not isinstance(raw_contracts, list):
        raise ParseError("contracts: expected an array")
    contracts = []
    for i, rc in enumerate(raw_contracts):
        where = f"contracts[{i}]"
        cid = _require(rc, "id", where)
        agent = _require(rc, "agent", where)
        branch = _require(rc, "branch", where)
        terms = rc.get("terms", "")
        if not all(isinstance(x, str) for x in (cid, agent, branch, terms)):
            raise ParseError(f"{where}: id, agent, branch, terms must be strings")
        _reject_unknown(rc, _CONTRACT_FIELDS, where)
        contracts.append(Contract(cid, agent, branch, terms))

    raw_prefs = _require(doc, "preferences", "top level")
    if not isinstance(raw_prefs, dict):
        raise ParseError("preferences: expected an object")
    preferences = {
        agent: _string_list(ranking, f"preferences[{agent}]")
        for agent, ranking in raw_prefs.items()
    }

    raw_branches = _require(doc, "branches", "top level")
    if not isinstance(raw_branches, list):
        raise ParseError("branches: expected an array")
    branches: dict[BranchId, BranchConfig] = {}
    for i, rb in enumerate(raw_branches):
        where = f"branches[{i}]"
        bid = _require(rb, "id", where)
        if not isinstance(bid, str):
            raise ParseError(f"{where}.id: expected a string")
        n = _require(rb, "n", where)
        if not _is_int(n):
            raise ParseError(f"{where}.n: expected an integer")
        location = _int_list(_require(rb, "location", where), f"{where}.location")
        transfer = _int_list(_require(rb, "transfer", where), f"{where}.transfer")
        orig = _require(rb, "original_priorities", where)
        shad = _require(rb, "shadow_priorities", where)
        if not isinstance(orig, list) or not isinstance(shad, list):
            raise ParseError(f"{where}: priority fields must be arrays of arrays")
        original_priorities = tuple(
            _string_list(row, f"{where}.original_priorities[{k}]") for k, row in enumerate(orig)
        )
        shadow_priorities = tuple(
            _string_list(row, f"{where}.shadow_priorities[{k}]") for k, row in enumerate(shad)
        )
        if bid in branches:
            raise ParseError(f"{where}: duplicate branch id {bid}")
        _reject_unknown(rb, _BRANCH_FIELDS, where)
        branches[bid] = BranchConfig(
            bid, n, location, transfer, original_priorities, shadow_priorities
        )

    _reject_unknown(doc, _TOP_FIELDS, "top level")
    return Instance(tuple(contracts), preferences, branches)
