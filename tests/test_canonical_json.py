"""``model.canonical_json`` against ``json.dumps(value, sort_keys=True,
indent=2)``."""
import functools
import json
import math
import re
import tracemalloc
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sspwct import cli, model, oracles
from sspwct.choice import sspwct_choose
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.mechanism import cumulative_offer

from conftest import branch, make_instance


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


EDGE_STRINGS = ["", "\x00\x1f\x7f", "é", " ", "😀", '"\\/', "\n\t\r"]
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-0.0, 1e100, -1e-310, math.nan, math.inf, 2 ** 70, *EDGE_STRINGS])
    | st.text()
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(EDGE_STRINGS), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_any_json_value(value):
    assert model.canonical_json(value) == reference(value)


@settings(max_examples=60, deadline=None)
@given(values, st.lists(st.text(max_size=3), max_size=3))
def test_one_list_object_at_two_depths(value, shared):
    # the memo is keyed by the list and its depth: a list met again at
    # another depth is written at that depth's indent
    doc = {"a": shared, "b": [shared, {"c": shared, "d": [value, shared]}], "e": [value, [value]]}
    assert model.canonical_json(doc) == reference(doc)


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"a": {}}, ("x",), [(), ["y", ("z",)]],
    {"a": [1, "b"], "b": [None, True, 1.5]},
    {2: "two", 1.5: [1, [2]], False: None},  # keys json converts, sorted as numbers
    {"outer": {3: {"x": ["s"]}, -1: []}},
    [math.nan, -math.inf, -0.0, 10 ** 30],
])
def test_edge_values(value):
    assert model.canonical_json(value) == reference(value)


@pytest.mark.parametrize("value", [
    frozenset({"a"}),
    [1, {"k": {2}}],
    {("a",): 1},  # a key json rejects
    {"a": 1, 2: 3},  # keys json cannot sort
    {"a": [object()]},
])
def test_unsupported_values_raise_what_json_raises(value):
    with pytest.raises(TypeError) as expected:
        reference(value)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        model.canonical_json(value)


@pytest.mark.parametrize("config", [
    dict(seed=seed, agents=6, branches=2) for seed in range(5)
] + [
    dict(seed=3, agents=40, branches=5, capacity=(4, 8)),
    dict(seed=100, agents=200, branches=10, capacity=(15, 15)),  # size M
], ids=lambda config: f"{config['agents']}x{config['branches']}-seed{config['seed']}")
def test_instance_files(config):
    inst = generate_instance(GeneratorConfig(**config))
    doc = model.instance_to_dict(inst)
    assert model.canonical_json(doc) == reference(doc)
    assert model.serialize_instance(inst) == reference(doc) + "\n"


def test_trace_steps_share_the_pools_they_did_not_grow():
    inst = generate_instance(GeneratorConfig(seed=3, agents=40, branches=5, capacity=(4, 8)))
    trace = cumulative_offer(inst)
    steps = list(trace.iter_steps())
    for before, step in zip(steps, steps[1:]):
        grown = inst.contract_index[step["contract"]].branch
        assert all((pool is before["pools"][b]) == (b != grown) for b, pool in step["pools"].items())


# -- iterators, written as a stream --


def streamed(value):
    """``value`` with every list in it, itself included, an iterator over
    its items."""
    if isinstance(value, list):
        return iter([streamed(x) for x in value])
    if isinstance(value, dict):
        return {k: streamed(x) for k, x in value.items()}
    return value


@settings(max_examples=150, deadline=None)
@given(st.lists(values, max_size=5))
def test_iterators_are_written_as_arrays(items):
    assert model.canonical_json(streamed(items)) == reference(items)
    chunks = []
    assert model.canonical_json(streamed(items), chunks.append) is None
    assert "".join(chunks) == reference(items)
    chunks = []
    model.canonical_json(iter(items), chunks.append)
    # the text so far after each item, then the rest
    assert "".join(chunks) == reference(items) and len(chunks) == len(items) + 1


@pytest.mark.parametrize("value, materialised", [
    (iter([]), []),
    ([{"a": iter([])}], [{"a": []}]),
    ([{"a": iter(["x", ["y"]]), "b": (str(i) for i in range(3))}], [{"a": ["x", ["y"]], "b": ["0", "1", "2"]}]),
    ({"a": map(str, range(2)), "b": [iter([[], {}]), ()]}, {"a": ["0", "1"], "b": [[[], {}], []]}),
])
def test_edge_iterators(value, materialised):
    chunks = []
    model.canonical_json(value, chunks.append)
    assert "".join(chunks) == reference(materialised)


def fresh_lists(tag):
    for i in range(3):
        yield [f"{tag}{i}"]


def test_a_freed_list_does_not_lend_its_id_to_the_next():
    # a generator's last list is freed once the generator is done, and
    # CPython gives its address to the next list made: here the second
    # generator's first list, at the same depth.  A memo keyed by id that
    # did not hold its lists would write the freed list's text for it
    value = [fresh_lists("a"), fresh_lists("b")]
    expected = reference([[["a0"], ["a1"], ["a2"]], [["b0"], ["b1"], ["b2"]]])
    assert model.canonical_json(value) == expected
    chunks = []
    model.canonical_json([fresh_lists("a"), fresh_lists("b")], chunks.append)
    assert "".join(chunks) == expected
    lists = fresh_lists("a")
    freed = id(next(lists))
    assert id(next(lists)) == freed  # without the reuse the test above checks nothing


def test_a_list_shared_by_consecutive_items_is_quoted_once(monkeypatch):
    # trace steps share the pools they did not grow with the step before
    shared, quoted, quote = ["s1", "s2"], [], json.encoder.encode_basestring_ascii
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", lambda s: quoted.append(s) or quote(s))
    chunks = []
    model.canonical_json({"steps": ({"a": shared, "b": [str(i)]} for i in range(5))}, chunks.append)
    assert quoted.count("s1") == 1
    assert "".join(chunks) == reference({"steps": [{"a": shared, "b": [str(i)]} for i in range(5)]})


def test_a_stream_holds_one_item():
    # each item is a fresh list; a memo kept across items would hold them all
    size = 0

    def count(text):
        nonlocal size
        size += len(text)

    items = ([f"{i}-{j}" for j in range(50)] for i in range(500))
    tracemalloc.start()
    try:
        model.canonical_json({"steps": items}, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * size  # 0.036 streamed; 5.3 with a memo that keeps every list


# -- every CLI command's payload --


@pytest.fixture
def written(monkeypatch):
    """The texts the CLI writes, each checked against ``json.dumps`` of the
    same payload in its materialised form: a streamed trace is compared with
    the steps of its run's ``to_json``, a second replay of the same moves."""
    texts, write, runs = [], model.canonical_json, []

    def run(*args, **kwargs):
        runs.append(cumulative_offer(*args, **kwargs))
        return runs[-1]

    def checked(value, out=None):
        chunks = []
        assert write(value, chunks.append) is None
        text = "".join(chunks)
        if isinstance(value, dict) and isinstance(value.get("trace"), Iterator):
            value = {**value, "trace": list(runs[-1].iter_steps())}
        assert text == reference(value)
        texts.append(text)
        if out is None:
            return text
        out(text)

    monkeypatch.setattr(cli, "cumulative_offer", run)
    monkeypatch.setattr(cli, "canonical_json", checked)
    monkeypatch.setattr(model, "canonical_json", checked)  # serialize_instance
    return texts


def run_cli(capsys, written, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert out == (written[-1] + "\n" if out else "")
    return code, out


@pytest.fixture
def markets(tmp_path, capsys):
    """A small market every command accepts, its outcome, and a larger
    market for traces."""
    small, outcome, large = (str(tmp_path / name) for name in ("small.json", "outcome.json", "large.json"))
    assert cli.main(["gen", "--seed", "3", "--out", small]) == 0
    assert cli.main(["gen", "--seed", "3", "--agents", "40", "--branches", "5", "--out", large]) == 0
    assert cli.main(["run", small]) == 0
    Path(outcome).write_text(capsys.readouterr().out)
    return {"m": small, "o": outcome, "large": large}


@pytest.mark.parametrize("argv", [
    ("run", "{m}"),
    ("run", "{m}", "--trace"),
    ("run", "{large}", "--trace"),
    ("run", "{large}", "--trace", "--policy", "random", "--seed", "5"),
    ("verify", "{m}", "{o}"),
    ("oracle", "{m}", "--suite", "all", "--trials", "4"),
    ("oracle", "--gen", "--count", "5", "--seed", "7", "--trials", "10"),
    ("experiment", "{m}", "--theorem", "3"),
    ("experiment", "{m}", "--theorem", "4", "--seed", "2"),
    ("experiment", "{m}", "--theorem", "5", "--count", "2", "--seed", "1"),
    ("experiment", "{m}", "--theorem", "6", "--count", "2", "--seed", "1"),
    ("gen", "--seed", "9", "--agents", "5", "--branches", "3"),
], ids=" ".join)
def test_cli_output(capsys, written, markets, argv):
    code, out = run_cli(capsys, written, *(a.format(**markets) for a in argv))
    assert code in (0, 3) and out and written


def test_oracle_fail_witness(tmp_path, capsys, written, monkeypatch):
    # the base rule is not substitutable, so the check on it fails with a witness
    path = tmp_path / "market.json"
    path.write_text(model.serialize_instance(make_instance(
        [("u", "U", "b"), ("v", "W", "b"), ("z", "Z", "b"), ("zp", "W", "b")],
        {"U": ("u",), "W": ("v", "zp"), "Z": ("z",)},
        [branch(n=2, location=(2, 2), original=[("zp", "u"), ("v", "z")])],
    )))
    monkeypatch.setattr(oracles, "check_substitutability",
                        functools.partial(oracles.check_substitutability, rule=sspwct_choose))
    code, out = run_cli(capsys, written, "oracle", str(path), "--suite", "substitutability")
    (verdict,) = json.loads(out)["verdicts"]
    assert code == 3 and verdict["status"] == "fail" and verdict["witness"]["branch"] == "b"


def test_large_trace_payload():
    # a size-M market's trace, the payload market-trace writes
    inst = generate_instance(GeneratorConfig(seed=100, agents=200, branches=10, capacity=(15, 15)))
    trace = cumulative_offer(inst)
    payload = {"outcome": sorted(trace.outcome), "trace": list(trace.iter_steps())}
    assert model.canonical_json(payload) == reference(payload)
