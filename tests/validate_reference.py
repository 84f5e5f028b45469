"""Reference instance validator kept only for differential tests.

This is the validator that the set-based ranking check in
``sspwct.model`` replaced: it walks every ranking entry by entry, checking
each entry for a repeat, then that it is a known contract of the ranking's
owner.  The library now walks only a ranking that fails two set operations,
and must return the same violations in the same order.  It must not be
imported by ``sspwct`` itself.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from sspwct.model import (
    CONTRACT_FORMAT,
    _EXPECTED,
    AgentId,
    BranchId,
    ContractId,
    Instance,
    _is_int,
)


def _ranking_violations(label: str, ranking: Sequence[ContractId], owner_of: Mapping, owner: str,
                        kind: str = "") -> list[str]:
    """A ranking's duplicate entries, then its entries that are unknown or
    not ``owner``'s by ``owner_of`` (contract id -> owner).  A ranking with
    an entry that does not hash gets instead one violation per entry that is
    not a string, so a valid ranking pays no per-entry type test."""
    seen: set[ContractId] = set()
    duplicates, entries = [], []
    try:
        for cid in ranking:
            if cid in seen:
                duplicates.append(f"{label}: strict order violated (duplicate contract {cid})")
            seen.add(cid)
            held_by = owner_of.get(cid)
            if held_by is None:
                entries.append(f"{label}: unknown contract {cid}")
            elif held_by != owner:
                entries.append(f"{label}: contract {cid} belongs to {kind}{held_by}")
    except TypeError:
        return [f"{label}: ranking entry {cid!r} must be a contract id (a string)"
                for cid in ranking if not isinstance(cid, str)]
    return duplicates + entries


def validate_instance(inst: Instance) -> list[str]:
    """``sspwct.model.validate_instance`` with every ranking walked entry by
    entry."""
    v: list[str] = []

    # a contract with a field of the wrong kind gets only its kind
    # violations: it may not hash or sort, so the checks below skip it
    agent_of: dict[ContractId, AgentId] = {}
    branch_of: dict[ContractId, BranchId] = {}
    owners: set[AgentId] = set()
    seen_triples: set[tuple[str, str, str]] = set()
    for c in inst.contracts:
        found = len(v)
        for field, kind in CONTRACT_FORMAT.items():
            value = getattr(c, field)
            if not isinstance(value, kind):
                v.append(f"contract {c.id}: {field} must be {_EXPECTED[kind]} (got {value!r})")
        if len(v) > found:
            continue
        if c.id in agent_of:
            v.append(f"contract {c.id}: duplicate contract id")
        agent_of[c.id], branch_of[c.id] = c.agent, c.branch
        owners.add(c.agent)
        triple = (c.agent, c.branch, c.terms)
        if triple in seen_triples:
            v.append(f"contract {c.id}: duplicate (agent, branch, terms) triple {triple}")
        seen_triples.add(triple)
        if c.branch not in inst.branches:
            v.append(f"contract {c.id}: unknown branch {c.branch}")

    for agent in sorted(owners):
        if agent not in inst.preferences:
            v.append(f"agent {agent}: owns contracts but has no preference record")

    for agent, ranking in inst.preferences.items():
        if not isinstance(agent, str):
            v.append(f"preference {agent}: agent must be a string (got {agent!r})")
        v.extend(_ranking_violations(f"preference {agent}", ranking, agent_of, agent))

    for b, cfg in inst.branches.items():
        if cfg.id != b:
            v.append(f"branch {b}: config id mismatch ({cfg.id})")
        if not isinstance(cfg.id, str):
            v.append(f"branch {b}: id must be a string (got {cfg.id!r})")
        if not _is_int(cfg.n):
            v.append(f"branch {b}: capacity n must be an integer (got {cfg.n!r})")
            continue
        if cfg.n < 1:
            v.append(f"branch {b}: capacity n must be positive (n={cfg.n})")
            continue
        if len(cfg.location) != cfg.n:
            v.append(f"branch {b}: location vector has length {len(cfg.location)}, expected {cfg.n}")
        if len(cfg.transfer) != cfg.n:
            v.append(f"branch {b}: transfer vector has length {len(cfg.transfer)}, expected {cfg.n}")
        if len(cfg.original_priorities) != cfg.n:
            v.append(f"branch {b}: expected {cfg.n} original priority orders")
        if len(cfg.shadow_priorities) != cfg.n:
            v.append(f"branch {b}: expected {cfg.n} shadow priority orders")
        for k, l_k in enumerate(cfg.location, start=1):
            if not _is_int(l_k):
                v.append(f"branch {b}: location at k={k} must be an integer (got {l_k!r})")
                continue
            if l_k < k:
                v.append(f"branch {b}: location lower bound k <= l_k violated at k={k} (l_k={l_k})")
            if l_k > cfg.n:
                v.append(f"branch {b}: location upper bound l_k <= n violated at k={k} (l_k={l_k})")
            if k >= 2 and _is_int(cfg.location[k - 2]) and l_k < cfg.location[k - 2]:
                v.append(f"branch {b}: location vector not nondecreasing at k={k}")
        for k, bit in enumerate(cfg.transfer, start=1):
            if not _is_int(bit) or bit not in (0, 1):
                v.append(f"branch {b}: transfer bit at k={k} must be 0 or 1 (got {bit!r})")
        if len(cfg.original_priorities) != cfg.n or len(cfg.shadow_priorities) != cfg.n:
            continue
        for slot in cfg.slots():
            v.extend(_ranking_violations(f"slot {slot}", cfg.priority(slot), branch_of, b, "branch "))

    return v
