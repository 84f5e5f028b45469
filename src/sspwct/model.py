"""Domain model: contracts, agent preferences, branch configurations, instances.

Everything is an immutable value object.  Constructors normalize collections
to tuples so instances can be shared across threads and compared
structurally.  JSON serialization is canonical (sorted keys, sorted contract
and branch lists, two-space indent), which makes serialize -> parse ->
serialize byte-identical.  :func:`canonical_json` is the one canonical
writer: instance files and every CLI document are its text.

The instance format is stated once, as one table per record that maps each
field to its kind: :data:`CONTRACT_FORMAT`, :data:`BRANCH_FORMAT`,
:data:`INSTANCE_FORMAT` for the top level and :data:`RANKING` for each
agent's preference list.  :func:`parse_instance` reads every record with
them, :func:`instance_to_dict` builds every contract and branch record from
the first two, and :func:`validate_instance` checks contract fields against
:data:`CONTRACT_FORMAT`.

Rankings encode unacceptability implicitly: a contract is acceptable to an
agent (or to a slot) iff it appears in the ranking.  The outside option sits
at the end of every list.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

ContractId = str
AgentId = str
BranchId = str

ORIGINAL = "original"
SHADOW = "shadow"

#: An outcome is just the set of signed contracts.
Outcome = frozenset


class InputError(ValueError):
    """Input a caller got wrong; the message names the bad value.  The CLI
    maps exactly this type to exit 2."""


class ParseError(InputError):
    """Malformed instance document; the message names the offending field."""


@dataclass(frozen=True, order=True)
class SlotId:
    """Identifies one seat of a branch.

    ``index`` is the 1-based position in the branch's precedence order for
    that kind of seat.  The shadow seat with index k is paired with the
    original seat with the same index.
    """

    branch: BranchId
    kind: str  # ORIGINAL or SHADOW
    index: int

    def __str__(self) -> str:
        tag = "o" if self.kind == ORIGINAL else "e"
        return f"{self.branch}:{tag}{self.index}"


#: One seat of :attr:`BranchConfig.seat_plan`: (slot, plan position of the
#: paired original seat or -1, ranking).
SeatPlanEntry = tuple[SlotId, int, tuple[ContractId, ...]]


@dataclass(frozen=True)
class Contract:
    id: ContractId
    agent: AgentId
    branch: BranchId
    terms: str = ""


def _ranking(ranking: Iterable[str], field: str, key: object) -> tuple[str, ...]:
    """``ranking`` as a tuple; a string, which would split into its
    characters, raises :class:`InputError` naming ``field[key]``."""
    if isinstance(ranking, str):
        raise InputError(f"{field}[{key}]: a ranking must be a sequence of contract ids, not a string")
    return tuple(ranking)


def _tupled(rows: Iterable[Iterable[str]], field: str) -> tuple[tuple[str, ...], ...]:
    return tuple([_ranking(row, field, k) for k, row in enumerate(rows)])


@dataclass(frozen=True)
class BranchConfig:
    """Static configuration of one branch.

    ``n`` is the physical capacity: the branch has n original seats and n
    paired shadow seats.  ``location[k-1]`` says how many original seats are
    processed before shadow seat k; ``transfer[k-1]`` is 1 if a vacancy at
    original seat k hands its capacity to shadow seat k.  Priority arrays are
    indexed by precedence position (entry k-1 ranks seat k).
    """

    id: BranchId
    n: int
    location: tuple[int, ...]
    transfer: tuple[int, ...]
    original_priorities: tuple[tuple[ContractId, ...], ...]
    shadow_priorities: tuple[tuple[ContractId, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", tuple(self.location))
        object.__setattr__(self, "transfer", tuple(self.transfer))
        for field in ("original_priorities", "shadow_priorities"):
            object.__setattr__(self, field, _tupled(getattr(self, field), f"branches[{self.id}].{field}"))

    def original_slot(self, k: int) -> SlotId:
        return SlotId(self.id, ORIGINAL, k)

    def shadow_slot(self, k: int) -> SlotId:
        return SlotId(self.id, SHADOW, k)

    def slots(self) -> tuple[SlotId, ...]:
        """All 2n seats, originals first, in precedence order."""
        orig = tuple(self.original_slot(k) for k in range(1, self.n + 1))
        shad = tuple(self.shadow_slot(k) for k in range(1, self.n + 1))
        return orig + shad

    def _priority_field(self, slot: SlotId) -> str:
        if slot.branch != self.id or slot.kind not in (ORIGINAL, SHADOW) or not 1 <= slot.index <= self.n:
            raise KeyError(f"branch {self.id} has no seat {slot!r}")
        return "original_priorities" if slot.kind == ORIGINAL else "shadow_priorities"

    def priority(self, slot: SlotId) -> tuple[ContractId, ...]:
        """``slot``'s ranking; a seat the branch lacks (a foreign branch, an
        unknown kind, an index outside 1..n) raises KeyError."""
        return getattr(self, self._priority_field(slot))[slot.index - 1]

    def with_ranking(self, slot: SlotId, ranking: Iterable[ContractId]) -> "BranchConfig":
        """A copy in which ``slot`` ranks ``ranking``; rejects a seat as
        :meth:`priority` does."""
        field = self._priority_field(slot)
        rows = list(getattr(self, field))
        rows[slot.index - 1] = ranking
        return replace(self, **{field: rows})

    # Derived once per config, on first use (never in __init__, so building
    # instances stays cheap).  They live outside the dataclass fields:
    # ``==`` and ``hash`` ignore them and ``dataclasses.replace`` starts empty.

    @cached_property
    def slot_order(self) -> tuple[SlotId, ...]:
        """The merged processing order of all 2n seats.

        Shadow seat k comes right after the l_k-th original seat; shadows
        sharing the same location value keep their own precedence order.
        Assumes the config passed validation (location nondecreasing, k <= l_k).
        """
        order: list[SlotId] = []
        k = 1
        for i in range(1, self.n + 1):
            order.append(self.original_slot(i))
            while k <= self.n and self.location[k - 1] == i:
                order.append(self.shadow_slot(k))
                k += 1
        return tuple(order)

    @cached_property
    def seat_plan(self) -> tuple[SeatPlanEntry, ...]:
        """The seats of :attr:`slot_order` that can hold capacity, in that
        order: every original seat, and each shadow seat whose transfer bit
        is 1.  An entry is (slot, position in the plan of the paired original
        seat or -1 for an original seat, the seat's ranking)."""
        position: dict[int, int] = {}
        plan = []
        for slot in self.slot_order:
            if slot.kind == ORIGINAL:
                position[slot.index] = len(plan)
                plan.append((slot, -1, self.priority(slot)))
            elif self.transfer[slot.index - 1] == 1:
                # l_k >= k guarantees the paired original came earlier
                plan.append((slot, position[slot.index], self.priority(slot)))
        return tuple(plan)


def _sorted(items: Iterable[Any], field: str, what: str, key: Callable[[Any], Any] | None = None) -> list:
    """``sorted(items)``; ids that do not sort together, such as an int among
    strings, raise :class:`InputError` naming ``field``, not ``TypeError``."""
    try:
        return sorted(items, key=key)
    except TypeError as err:
        raise InputError(f"{field}: {what} must all be strings ({err})") from None


@dataclass(frozen=True)
class Instance:
    """A complete market: contracts, agent preferences, branch configurations.

    ``preferences`` maps each agent to its ranking (most preferred first);
    agents with an empty tuple find every contract unacceptable.
    """

    contracts: tuple[Contract, ...]
    preferences: Mapping[AgentId, tuple[ContractId, ...]]
    branches: Mapping[BranchId, BranchConfig]

    def __post_init__(self) -> None:
        contracts = _sorted(self.contracts, "contracts", "contract ids", key=lambda c: c.id)
        preferences = _sorted(self.preferences.items(), "preferences", "agents")
        branches = _sorted(self.branches.items(), "branches", "branch ids")
        object.__setattr__(self, "contracts", tuple(contracts))
        object.__setattr__(
            self, "preferences", {agent: _ranking(r, "preferences", agent) for agent, r in preferences}
        )
        object.__setattr__(self, "branches", dict(branches))

    # -- derived lookups (cached; instances are immutable) --

    @cached_property
    def contract_index(self) -> dict[ContractId, Contract]:
        return {c.id: c for c in self.contracts}

    @cached_property
    def agents(self) -> tuple[AgentId, ...]:
        owners = {c.agent for c in self.contracts}
        return tuple(sorted(owners | set(self.preferences)))

    @cached_property
    def contracts_of_agent(self) -> dict[AgentId, tuple[ContractId, ...]]:
        out: dict[AgentId, list[ContractId]] = {a: [] for a in self.agents}
        for c in self.contracts:
            out.setdefault(c.agent, []).append(c.id)
        return {a: tuple(v) for a, v in out.items()}

    @cached_property
    def contracts_of_branch(self) -> dict[BranchId, tuple[ContractId, ...]]:
        out: dict[BranchId, list[ContractId]] = {b: [] for b in self.branches}
        for c in self.contracts:
            out.setdefault(c.branch, []).append(c.id)
        return {b: tuple(v) for b, v in out.items()}

    @cached_property
    def _pref_rank(self) -> dict[AgentId, dict[ContractId, int]]:
        return {
            agent: {cid: i for i, cid in enumerate(ranking)}
            for agent, ranking in self.preferences.items()
        }

    def acceptable(self, agent: AgentId, cid: ContractId) -> bool:
        return cid in self._pref_rank.get(agent, {})

    def pref_value(self, agent: AgentId, cid: ContractId | None) -> int:
        """Position of ``cid`` in the agent's ranking; lower is better.

        The outside option (``None``) sits right after the listed contracts,
        and an unlisted contract sits below the outside option.
        """
        ranking = self._pref_rank.get(agent, {})
        if cid is None:
            return len(ranking)
        if cid in ranking:
            return ranking[cid]
        return len(ranking) + 1

    def prefers(self, agent: AgentId, a: ContractId | None, b: ContractId | None) -> bool:
        """True iff the agent strictly prefers ``a`` to ``b``."""
        return self.pref_value(agent, a) < self.pref_value(agent, b)

    # -- functional updates --

    def with_preference(self, agent: AgentId, ranking: Sequence[ContractId]) -> "Instance":
        prefs = dict(self.preferences)
        prefs[agent] = ranking
        return replace(self, preferences=prefs)

    def with_branches(self, branches: Mapping[BranchId, BranchConfig]) -> "Instance":
        """This market with ``branches`` as its branch table.  Its contracts
        and preferences are the same, so the copy shares those of this
        one's ``contract_index``, ``agents``, ``contracts_of_agent`` and
        ``_pref_rank`` that are built, and ``contracts_of_branch`` when the
        branch ids are the same."""
        inst = replace(self, branches=branches)
        shared = ["contract_index", "agents", "contracts_of_agent", "_pref_rank"]
        if inst.branches.keys() == self.branches.keys():
            shared.append("contracts_of_branch")
        inst.__dict__.update((name, self.__dict__[name]) for name in shared if name in self.__dict__)
        return inst

    def with_branch(self, cfg: BranchConfig) -> "Instance":
        return self.with_branches({**self.branches, cfg.id: cfg})

    def with_transfer_bit(self, branch: BranchId, k: int, bit: int) -> "Instance":
        cfg = self.branches[branch]
        transfer = list(cfg.transfer)
        transfer[k - 1] = bit
        return self.with_branch(replace(cfg, transfer=tuple(transfer)))


def _is_int(value: Any) -> bool:
    """An int that is not a bool, as the parser reads integer fields."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ranking_violations(label: str, ranking: Sequence[ContractId], owned: set, owner_of: Mapping,
                        owner: str, kind: str = "") -> list[str]:
    """A ranking's duplicate entries, then its entries that are unknown or
    not ``owner``'s by ``owner_of`` (contract id -> owner), which gives
    ``owner`` the ids ``owned``.  A ranking with an entry that does not hash
    gets instead one violation per entry that is not a string."""
    try:
        if owned.issuperset(ranking) and len(set(ranking)) == len(ranking):
            return []
    except TypeError:
        pass
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


def _ids_by_owner(owner_of: Mapping) -> dict:
    """``owner_of`` (contract id -> owner) inverted: each owner's set of ids."""
    ids: dict = {}
    for cid, owner in owner_of.items():
        ids.setdefault(owner, set()).add(cid)
    return ids


def validate_instance(inst: Instance) -> list[str]:
    """Check every structural invariant; returns all violations found, as
    :func:`outcome_violations` does.

    An empty list means the instance is well-formed, and so parses back
    from :func:`serialize_instance`: every field the parser types (the
    contract fields of :data:`CONTRACT_FORMAT`, preference agents, branch
    ids, capacities, locations and transfer bits; ranking entries are not
    checked) has the parser's type.  Violations are data, not exceptions:
    callers decide whether to proceed, and a contract field of the wrong
    kind, or a ranking entry that does not hash, is a violation, never a
    ``TypeError``.

    A valid ranking costs two set operations: one that its entries are its
    owner's contract ids and one that none repeats.  Only a ranking that
    fails them is walked entry by entry, to word each violation.
    """
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

    ids_of_agent, ids_of_branch, no_ids = _ids_by_owner(agent_of), _ids_by_owner(branch_of), set()
    for agent, ranking in inst.preferences.items():
        if not isinstance(agent, str):
            v.append(f"preference {agent}: agent must be a string (got {agent!r})")
        v.extend(_ranking_violations(f"preference {agent}", ranking, ids_of_agent.get(agent, no_ids),
                                     agent_of, agent))

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
        owned = ids_of_branch.get(b, no_ids)
        for slot in cfg.slots():
            v.extend(_ranking_violations(f"slot {slot}", cfg.priority(slot), owned, branch_of, b, "branch "))

    return v


def outcome_violations(inst: Instance, assignment: Iterable[ContractId]) -> list[str]:
    """Feasibility check for an outcome: each contract id listed once and
    known, at most one contract per agent, at most n_b per branch."""
    v: list[str] = []
    per_agent: dict[AgentId, int] = {}
    per_branch: dict[BranchId, int] = {}
    for cid, times in Counter(assignment).items():
        if times > 1:
            v.append(f"outcome: contract {cid} listed {times} times")
        c = inst.contract_index.get(cid)
        if c is None:
            v.append(f"outcome: unknown contract {cid}")
            continue
        per_agent[c.agent] = per_agent.get(c.agent, 0) + 1
        per_branch[c.branch] = per_branch.get(c.branch, 0) + 1
    for agent, count in sorted(per_agent.items()):
        if count > 1:
            v.append(f"outcome: agent {agent} holds {count} contracts")
    for b, count in sorted(per_branch.items()):
        cfg = inst.branches.get(b)
        if cfg is not None and count > cfg.n:
            v.append(f"outcome: branch {b} holds {count} contracts, capacity {cfg.n}")
    return v


# -- JSON --


#: The instance format, one table per record: each field and its kind.  A
#: kind is ``str``, ``int`` (never a bool), ``(k,)`` for an array of kind k,
#: or, at the top level, ``list`` or ``dict`` for an array or object whose
#: items are read on their own.
INSTANCE_FORMAT = {"contracts": list, "preferences": dict, "branches": list}
CONTRACT_FORMAT = {"id": str, "agent": str, "branch": str, "terms": str}
BRANCH_FORMAT = {"id": str, "n": int, "location": (int,), "transfer": (int,),
                 "original_priorities": ((str,),), "shadow_priorities": ((str,),)}
#: Each agent's entry in ``preferences``.
RANKING = (str,)
#: Fields a record may omit; ``Contract.terms`` defaults to "".
_OPTIONAL = frozenset({"terms"})
_EXPECTED = {str: "a string", int: "an integer", list: "an array", dict: "an object",
             (int,): "an array of integers", (str,): "an array of strings",
             ((str,),): "an array of arrays of strings"}


def _read(value: Any, kind: Any, where: str) -> Any:
    """``value`` checked against ``kind``, an array of a kind as a tuple.  An
    array of arrays names its first bad row by index."""
    if type(value) is kind:  # JSON makes no subclasses, and a bool is not an int
        return value
    if type(kind) is tuple and type(value) is list:
        item = kind[0]
        if type(item) is tuple:
            return tuple([_read(row, item, f"{where}[{k}]") for k, row in enumerate(value)])
        if {*map(type, value)} <= {item}:
            return tuple(value)
    raise ParseError(f"{where}: expected {_EXPECTED[kind]}")


def _record(obj: Any, fields: dict[str, Any], where: str, at: str) -> dict[str, Any]:
    """``obj`` read as a record of ``fields``: an object holding every field
    not in ``_OPTIONAL``, each of its kind, and no other field.  ``where``
    names the record and ``at + field`` each of its fields."""
    if type(obj) is not dict:
        raise ParseError(f"{where}: expected an object")
    for field in fields:
        if field not in obj and field not in _OPTIONAL:
            raise ParseError(f"{where}: missing required field '{field}'")
    record = {field: _read(obj[field], kind, at + field) for field, kind in fields.items() if field in obj}
    if len(record) < len(obj):
        unknown = next(key for key in obj if key not in fields)
        raise ParseError(f"{where}: unknown field {unknown!r}")
    return record


def _sharing_strings() -> Callable[[list[tuple[str, Any]]], dict]:
    """A ``json.loads`` object hook for one document: each object's keys,
    its string values and the strings in its arrays and arrays of arrays
    (the format nests no deeper) are replaced by the first equal string the
    document produced, so every id exists once.  Only ``str`` objects are
    looked up, so no value changes type.  The recursion is a module function,
    not a closure, so no reference cycle keeps the memo alive after the hook."""
    memo: dict[str, str] = {}
    share = memo.setdefault
    return lambda pairs: {share(key, key): _shared(value, share) for key, value in pairs}


def _shared(value: Any, share: Callable[[str, str], str], depth: int = 2) -> Any:
    if type(value) is str:
        return share(value, value)
    if type(value) is list and depth:
        value[:] = [share(x, x) if type(x) is str else _shared(x, share, depth - 1) for x in value]
    return value


def parse_instance(text: str | bytes) -> Instance:
    """Parse the canonical JSON instance format, reading each record with
    its format table (:data:`INSTANCE_FORMAT`, :data:`CONTRACT_FORMAT`,
    :data:`BRANCH_FORMAT`, and :data:`RANKING` for each preference).

    Structural problems, unknown fields included, raise :class:`ParseError`
    naming the field; semantic invariants are left to :func:`validate_instance`.
    Equal id strings are one object in the returned instance.

    Bytes are decoded and dropped before the JSON parse, and the text is
    dropped once the document is built.  CPython 3.11 and later hand call
    arguments over to the callee's frame, so a caller that passes
    ``fh.read()`` holds the file's text once, never bytes and text beside
    the document.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text, object_pairs_hook=_sharing_strings())
        del text
    except ValueError as exc:  # undecodable bytes as well as malformed JSON
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from exc
    top = _record(doc, INSTANCE_FORMAT, "top level", "")
    contracts = [
        Contract(**_record(rc, CONTRACT_FORMAT, f"contracts[{i}]", f"contracts[{i}]."))
        for i, rc in enumerate(top["contracts"])
    ]
    preferences = {
        agent: _read(ranking, RANKING, f"preferences[{agent}]")
        for agent, ranking in top["preferences"].items()
    }
    branches: dict[BranchId, BranchConfig] = {}
    for i, rb in enumerate(top["branches"]):
        where = f"branches[{i}]"
        cfg = BranchConfig(**_record(rb, BRANCH_FORMAT, where, where + "."))
        if cfg.id in branches:
            raise ParseError(f"{where}: duplicate branch id {cfg.id}")
        branches[cfg.id] = cfg
    return Instance(tuple(contracts), preferences, branches)


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    """The JSON document of ``inst``: each contract and branch record holds
    the fields of its format table, and arrays are the instance's own tuples,
    which :func:`canonical_json` writes as lists."""
    return {
        "contracts": [{field: getattr(c, field) for field in CONTRACT_FORMAT} for c in inst.contracts],
        "preferences": dict(inst.preferences),
        "branches": [
            {field: getattr(cfg, field) for field in BRANCH_FORMAT} for cfg in inst.branches.values()
        ],
    }


def serialize_instance(inst: Instance) -> str:
    """Canonical serialization: sorted keys, sorted lists, trailing newline."""
    return canonical_json(instance_to_dict(inst)) + "\n"


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``value``, exactly ``json.dumps(value,
    sort_keys=True, indent=2)``; every document sspwct writes goes through
    here.  It joins at C level instead of running json's pure-Python indent
    encoder: a list of strings is one join over the C string quoter, and its
    text is kept per depth, so a list object that trace steps share is
    written once.  Other scalars and dicts with a non-string key go to
    ``json.dumps``, so their text and errors are json's own."""
    quote, memo = json.encoder.encode_basestring_ascii, {}

    def write(v: Any, pad: str) -> str:
        if isinstance(v, str):
            return quote(v)
        inner, sep = pad + "  ", ",\n" + pad + "  "
        if isinstance(v, (list, tuple)):
            if not v:
                return "[]"
            text = memo.get((id(v), pad))  # ids stay unique: every list in value lives until we return
            if text is None:
                try:
                    text = memo[id(v), pad] = f"[\n{inner}{sep.join(map(quote, v))}\n{pad}]"
                except TypeError:  # not all strings
                    text = f"[\n{inner}{sep.join([write(x, inner) for x in v])}\n{pad}]"
            return text
        if isinstance(v, dict) and all(isinstance(k, str) for k in v):
            body = sep.join([f"{quote(k)}: {write(x, inner)}" for k, x in sorted(v.items())])
            return f"{{\n{inner}{body}\n{pad}}}" if v else "{}"
        if isinstance(v, dict):  # json converts or rejects the other keys; no string holds a newline
            return json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + pad)
        return json.dumps(v)

    try:
        return write(value, "")
    finally:
        del write  # a recursive closure is a reference cycle: free the memo now, not at a full collection
