"""Differential tests of the one decode path of ``parse_instance``.

``model.parse_instance`` decodes text, bytes and an open binary file
through ``_reader.Reader``, which reads text whole and a seekable file
``_reader.CHUNK`` bytes first and then item by item.  Before it, text and
bytes went whole to ``json.loads``, which stays the reference here.  Every
document below goes through four sources, text, bytes, ``io.BytesIO`` and
a disk file, with ``_reader.CHUNK`` at 1, 2, 3, 5 and 64 bytes and at its
default:

* the reader's document equals ``json.loads`` of the whole text with the
  reference sharing hook of ``parse_reference``: the same values, a tuple
  exactly where the parser's hook makes one (a non-empty array of only
  strings that is an object's value or an item of one), and each string
  held by as many objects;
* ``json.loads`` runs only for a document it rejects, from any source, and
  the ``ParseError`` text is then ``invalid JSON: `` and json's message;
* the instance serializes to the same bytes from every source, or every
  source raises ``ParseError`` with the same text.

The documents are the golden CLI outputs, generated markets, every 7th
prefix of a small market, random one-character corruptions of it, and
hand-made cases: a BOM, deep nesting, duplicate keys, compact and spread
layouts, trailing data, and valid and invalid UTF-8, including multi-byte
characters split across chunks.
"""
import codecs
import contextlib
import gc
import io
import json
import os
import random
import re
import weakref
from collections import defaultdict
from pathlib import Path

import pytest

import parse_reference as ref
from sspwct import _reader, model
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


class Rejected(str):
    """The ``ParseError`` text of a document ``json.loads`` rejects."""


def _whole(raw: bytes):
    """``json.loads`` of the whole text, or the ``ParseError`` text of its
    rejection."""
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=ref._sharing_strings())
    except ValueError as exc:
        return Rejected(f"invalid JSON: {exc}")
    except RecursionError:
        return Rejected("invalid JSON: arrays or objects nested too deeply")


def _utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _outcome(source):
    try:
        return "accepted", serialize_instance(parse_instance(source))
    except ParseError as exc:
        return "rejected", str(exc)


def _document(source):
    return _reader.Reader(source).document(_sharing_strings(), model._STREAMED)


@pytest.mark.parametrize("chunk", CHUNKS, ids=lambda c: f"chunk-{c or 'default'}")
def test_every_source_matches_the_whole_text_parse(chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(_reader, "CHUNK", chunk)
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(args) or loads(*args, **kwargs))
    path = tmp_path / "m.json"
    rejected = 0
    for name, raw in DOCUMENTS.items():
        want, utf8 = _whole(raw), _utf8(raw)
        path.write_bytes(raw)
        sources = {"bytes": lambda: contextlib.nullcontext(raw), "BytesIO": lambda: io.BytesIO(raw),
                   "file": lambda: open(path, "rb")}
        if utf8:
            sources["text"] = lambda: contextlib.nullcontext(raw.decode("utf-8"))
        outcomes = set()
        for kind, source in sources.items():
            # only a document json.loads rejects reaches it, and one that is
            # not UTF-8 fails before json.loads is called
            calls.clear()
            with source() as src:
                outcomes.add(_outcome(src))
            assert len(calls) == (type(want) is Rejected and utf8), (name, kind)
            if kind == "bytes":
                continue
            with source() as src:
                try:
                    got = _document(src)
                except (ValueError, RecursionError):
                    got = Rejected
            if type(want) is Rejected:
                assert got is Rejected, (name, kind)
            else:
                _same(got, want)
                assert _objects(got) == _objects(want), (name, kind)
        assert len(outcomes) == 1, name
        if type(want) is Rejected:
            assert outcomes == {("rejected", want)}, name
        rejected += type(want) is Rejected
    assert min(rejected, len(DOCUMENTS) - rejected) > 50  # many of each


def test_a_multibyte_character_split_across_chunks(monkeypatch):
    # the first read ends inside the euro sign, the next one inside the
    # emoji; the incremental decoder joins them, with no whole-text retry
    monkeypatch.setattr(_reader, "CHUNK", 2)
    monkeypatch.setattr(json, "loads", None)
    text = "\u20ac\U0001F600"
    assert _document(io.BytesIO(f'"{text}"'.encode())) == text
    inst = parse_instance(io.BytesIO(DOCUMENTS["multibyte"]))
    assert {c.terms[:3] for c in inst.contracts} == {"é€\U0001F600"}


def test_a_file_that_cannot_seek_is_read_whole():
    bad = b'{"contracts": [}'
    for raw, want in ((SMALL.encode(), ("accepted", SMALL)), (bad, ("rejected", _whole(bad)))):
        r, w = os.pipe()
        os.write(w, raw)
        os.close(w)
        with open(r, "rb") as fh:
            assert not fh.seekable() and _outcome(fh) == want


def test_a_rejected_file_is_read_again_from_where_it_started():
    head, doc = b"not part of the document", b'{"contracts": [1, }'
    with io.BytesIO(head + doc) as fh:
        fh.seek(len(head))
        with pytest.raises(ParseError, match=f"^{re.escape(_whole(doc))}$"):
            parse_instance(fh)


def test_the_reader_leaves_no_reference_cycles(monkeypatch):
    monkeypatch.setattr(_reader, "CHUNK", 64)
    gc.collect()
    gc.disable()
    try:
        for source in (SMALL, io.BytesIO(SMALL.encode())):
            assert parse_instance(source).contracts
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("chunk", [64, None], ids=["streamed", "whole"])
def test_no_reader_outlives_its_decode(chunk, tmp_path, monkeypatch):
    # the reader and its hook's string memo are temporaries of the decode,
    # so they are gone before the record walk on every Python version (a
    # caller's frame keeps a call argument until the call returns before
    # 3.11, so a reader passed to parse_instance would live through it)
    if chunk:
        monkeypatch.setattr(_reader, "CHUNK", chunk)
    path = tmp_path / "m.json"
    path.write_text(SMALL)
    refs, record = [], model._record

    class Reader(_reader.Reader):
        def document(self, hook, streamed):
            refs.extend((weakref.ref(self), weakref.ref(hook)))
            return super().document(hook, streamed)

    def walk(*args):
        assert refs and [r() for r in refs] == [None] * len(refs)
        return record(*args)

    monkeypatch.setattr(_reader, "Reader", Reader)
    monkeypatch.setattr(model, "_record", walk)
    for source in (lambda: contextlib.nullcontext(SMALL), lambda: contextlib.nullcontext(SMALL.encode()),
                   lambda: io.BytesIO(SMALL.encode()), lambda: open(path, "rb")):
        refs.clear()
        with source() as src:
            assert serialize_instance(parse_instance(src)) == SMALL
        assert len(refs) == 2
