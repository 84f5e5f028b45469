"""Differential tests of the chunked instance-file reader in ``cli``.

``cli._Reader`` reads an open binary file ``cli.CHUNK`` bytes first and
then item by item, for ``parse_instance``; before it, the CLI read a file
as ``parse_instance(fh.read())``, which is still how ``parse_instance``
reads text and bytes.  Every document below goes through both, from an
in-memory and from a disk file, with ``cli.CHUNK`` at 1, 2, 3, 5 and 64
bytes and at its default:

* the reader's document equals ``json.loads`` of the whole text with the
  reference sharing hook of ``parse_reference``: the same values, a tuple
  exactly where the parser's hook makes one (a non-empty array of only
  strings that is an object's value or an item of one), and each string
  held by as many objects;
* only a document ``json.loads`` rejects is read again whole, by
  ``json.loads``, so the reader rejects exactly those;
* the instance serializes to the same bytes, or both raise ``ParseError``
  with the same text.

The documents are the golden CLI outputs, generated markets, every 7th
prefix of a small market, random one-character corruptions of it, and
hand-made cases: a BOM, deep nesting, duplicate keys, compact and spread
layouts, trailing data, and valid and invalid UTF-8, including multi-byte
characters split across chunks.
"""
import codecs
import gc
import io
import json
import os
import random
import re
from collections import defaultdict
from pathlib import Path

import pytest

import parse_reference as ref
from sspwct import cli
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.model import ParseError, _sharing_strings, parse_instance, serialize_instance

GOLDEN = Path(__file__).with_name("golden")
SMALL = serialize_instance(generate_instance(GeneratorConfig(seed=5)))
CHUNKS = [1, 2, 3, 5, 64, None]


def _documents() -> dict[str, bytes]:
    docs = {f"golden-{path.stem}": path.read_bytes() for path in sorted(GOLDEN.glob("*.json"))}
    for config in (GeneratorConfig(seed=11, agents=3, branches=1, capacity=(2, 2), transfer_density=1.0),
                   GeneratorConfig(seed=100, agents=30, branches=3, capacity=(4, 4))):
        docs[f"generated-{config.seed}"] = serialize_instance(generate_instance(config)).encode()
    docs.update({f"prefix-{k}": SMALL[:k].encode() for k in range(0, len(SMALL), 7)})
    rng = random.Random(0)
    for _ in range(200):
        k = rng.randrange(len(SMALL))
        char = rng.choice(' \n\t,:[]{}"\\0-1.eanx')
        docs[f"corrupt-{k}-{char!r}"] = (SMALL[:k] + char + SMALL[k + 1:]).encode()
    doc = json.loads(SMALL)
    agent = next(iter(doc["preferences"]))
    multibyte = SMALL.replace('"terms": "', '"terms": "é€\U0001F600').encode()
    assert len(multibyte) > len(SMALL.encode()) + 50
    docs.update({
        "bom": codecs.BOM_UTF8 + SMALL.encode(),
        "compact": json.dumps(doc, separators=(",", ":")).encode(),
        "spread": json.dumps(doc, indent=40).replace(",", " \r\n\t ,\t ").encode(),
        "trailing-data": SMALL.encode() + b"x",
        "trailing-separator": SMALL.encode() + b",",
        "trailing-whitespace": SMALL.encode() + b" \r\n\t ",
        "two-documents": SMALL.encode() * 2,
        "separator-first": b"," + SMALL.encode(),
        "duplicate-top-key": ('{"contracts": [], ' + SMALL[1:]).encode(),
        "duplicate-ranking": SMALL.replace('"preferences": {', f'"preferences": {{"{agent}": ["x"], ', 1)
        .encode(),
        "duplicate-row-field": SMALL.replace('"n": ', '"shadow_priorities": [["x"]], "n": ', 1).encode(),
        "key-not-a-string": SMALL.replace('"preferences": {', '"preferences": {1: [], ', 1).encode(),
        "missing-colon": SMALL.replace('"contracts": [', '"contracts" [', 1).encode(),
        "missing-comma": SMALL.replace('],\n  "contracts"', ']\n  "contracts"', 1).encode(),
        "nested": b'{"contracts": [' + b"[" * 50 + b"]" * 50 + b'], "preferences": {}, "branches": []}',
        "deep": b"[" * 100_000 + b"]" * 100_000,
        "deep-in-contracts": b'{"contracts": [' + b"[" * 100_000 + b"]" * 100_000 + b"]}",
        "numbers": SMALL.replace('"n": ', '"x": [1e400, -0, NaN, -Infinity, 12345678901234567890], "n": ', 1)
        .encode(),
        "multibyte": multibyte,
        "multibyte-truncated": multibyte[:-40] + b"\xe2\x82",
        "invalid-start-byte": SMALL.encode()[:200] + b"\xff" + SMALL.encode()[201:],
        "invalid-continuation": SMALL.encode()[:300] + b"\xe2\x28\xa1" + SMALL.encode()[300:],
        "empty": b"",
        "whitespace": b" \n ",
        "null": b"null",
        "not-an-object": b"[1, 2]",
    })
    return docs


DOCUMENTS = _documents()


def _same(got, want, depth=0):
    """``got`` holds ``want``'s values, with a tuple for each non-empty array
    of only strings at ``depth`` 1 or 2 (an object's value is at 2)."""
    if type(want) is dict:
        assert type(got) is dict and list(got) == list(want)
        for key in want:
            _same(got[key], want[key], 2)
    elif type(want) is list:
        strings = bool(depth and want and {*map(type, want)} == {str})
        assert type(got) is (tuple if strings else list) and len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w, max(depth - 1, 0))
    else:
        assert type(got) is type(want) and repr(got) == repr(want)


def _objects(doc) -> dict[str, int]:
    """Each string in ``doc``, keys included, -> the number of objects holding it."""
    seen, stack = defaultdict(set), [doc]
    while stack:
        value = stack.pop()
        if type(value) is str:
            seen[value].add(id(value))
        elif type(value) is dict:
            stack += [*value, *value.values()]
        elif type(value) in (list, tuple):
            stack += value
    return {s: len(ids) for s, ids in seen.items()}


def _whole(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=ref._sharing_strings())
    except (ValueError, RecursionError):
        return ParseError


def _utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _outcome(read, raw):
    try:
        return "accepted", serialize_instance(read(raw))
    except ParseError as exc:
        return "rejected", str(exc)


def _read(fh):
    return parse_instance(cli._Reader(fh))


@pytest.mark.parametrize("chunk", CHUNKS, ids=lambda c: f"chunk-{c or 'default'}")
def test_reader_matches_the_whole_text_parse(chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(cli, "CHUNK", chunk)
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(args) or loads(*args, **kwargs))
    path = tmp_path / "m.json"
    rejected = 0
    for name, raw in DOCUMENTS.items():
        want, outcome = _whole(raw), _outcome(parse_instance, raw)
        path.write_bytes(raw)
        for source in (lambda: io.BytesIO(raw), lambda: open(path, "rb")):
            calls.clear()
            with source() as fh:
                try:
                    got = cli._Reader(fh).document(_sharing_strings())
                except (ValueError, RecursionError):
                    got = ParseError
            # only a document json.loads rejects is read again whole, and
            # one that is not UTF-8 fails before json.loads is called
            assert len(calls) == (want is ParseError and _utf8(raw)), name
            if want is ParseError:
                assert got is ParseError, name
            else:
                _same(got, want)
                assert _objects(got) == _objects(want), name
            with source() as fh:
                assert _outcome(_read, fh) == outcome, name
        rejected += want is ParseError
    assert min(rejected, len(DOCUMENTS) - rejected) > 50  # many of each


def test_a_multibyte_character_split_across_chunks(monkeypatch):
    # the first read ends inside the euro sign, the next one inside the
    # emoji; the incremental decoder joins them, with no whole-text retry
    monkeypatch.setattr(cli, "CHUNK", 2)
    monkeypatch.setattr(json, "loads", None)
    text = "\u20ac\U0001F600"
    assert cli._Reader(io.BytesIO(f'"{text}"'.encode())).document(_sharing_strings()) == text
    inst = _read(io.BytesIO(DOCUMENTS["multibyte"]))
    assert {c.terms[:3] for c in inst.contracts} == {"é€\U0001F600"}


def test_a_file_that_cannot_seek_is_read_whole():
    for raw, want in ((SMALL.encode(), SMALL), (b'{"contracts": [}', None)):
        r, w = os.pipe()
        os.write(w, raw)
        os.close(w)
        with open(r, "rb") as fh:
            assert not fh.seekable()
            if want is None:
                with pytest.raises(ParseError, match=re.escape(_outcome(parse_instance, raw)[1])):
                    _read(fh)
            else:
                assert serialize_instance(_read(fh)) == want


def test_a_rejected_file_is_read_again_from_where_it_started():
    head, doc = b"not part of the document", b'{"contracts": [1, }'
    with io.BytesIO(head + doc) as fh:
        fh.seek(len(head))
        with pytest.raises(ParseError, match=f"^{re.escape(_outcome(parse_instance, doc)[1])}$"):
            _read(fh)


def test_the_reader_leaves_no_reference_cycles(monkeypatch):
    monkeypatch.setattr(cli, "CHUNK", 64)
    gc.collect()
    gc.disable()
    try:
        assert _read(io.BytesIO(SMALL.encode())).contracts
        assert gc.collect() == 0
    finally:
        gc.enable()
