"""``model.canonical_json`` against ``json.dumps(value, sort_keys=True,
indent=2)``."""
import functools
import json
import math
import re
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
    steps = trace.to_json()["steps"]
    for before, step in zip(steps, steps[1:]):
        grown = inst.contract_index[step["contract"]].branch
        assert all((pool is before["pools"][b]) == (b != grown) for b, pool in step["pools"].items())


# -- every CLI command's payload --


@pytest.fixture
def written(monkeypatch):
    """The texts the CLI writes, each checked against ``json.dumps`` of the
    same payload."""
    texts, write = [], model.canonical_json

    def checked(value):
        text = write(value)
        assert text == reference(value)
        texts.append(text)
        return text

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
    payload = {"outcome": sorted(trace.outcome), "trace": trace.to_json()["steps"]}
    assert model.canonical_json(payload) == reference(payload)
