"""The one input-error boundary: ``cli.main`` exits 2 on exactly
``model.InputError``, and the library raises it with the text the CLI prints.
Internal faults stay outside that type, so they still end in a traceback."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sspwct import cli, comparative, generator, mechanism, oracles
from sspwct.cli import main
from sspwct.model import Contract, InputError, ParseError, SlotId, serialize_instance

from conftest import branch, make_instance

# one seat, transfer bit 0, so a flip at slot 1 and a seat at position 1 or 2 are valid
MARKET = make_instance(
    [("x", "A", "b"), ("y", "B", "b")],
    {"A": (), "B": ("y",)},
    [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
)

INPUT_ERRORS = [
    ParseError,
    mechanism.InstanceTooLarge,
    comparative.AlreadyFlexible,
    comparative.ConditionViolation,
]
INTERNAL_FAULTS = [
    comparative.PreconditionUnmet,
    comparative.ImprovementChainError,
]


def _added(cid, agent, branch_id, terms="t", pref=0, seats=None):
    return comparative.AddedContract(Contract(cid, agent, branch_id, terms), pref, seats or {})


def _raising(exc_type):
    def raise_it(*args, **kwargs):
        raise exc_type("boom")
    return raise_it


@pytest.mark.parametrize("exc_type", INPUT_ERRORS)
def test_input_errors_exit_2(tmp_path, capsys, monkeypatch, exc_type):
    assert issubclass(exc_type, InputError) and issubclass(exc_type, ValueError)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(MARKET))
    monkeypatch.setattr(cli, "cumulative_offer", _raising(exc_type))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "boom\n"


@pytest.mark.parametrize("exc_type", INTERNAL_FAULTS)
def test_internal_faults_propagate(tmp_path, capsys, monkeypatch, exc_type):
    assert not issubclass(exc_type, InputError)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(MARKET))
    monkeypatch.setattr(cli, "cumulative_offer", _raising(exc_type))
    with pytest.raises(exc_type, match="boom"):
        main(["run", str(path)])
    assert capsys.readouterr().out == ""


# (library call, its message, CLI arguments that reach it or None)
RAISE_SITES = [
    pytest.param(
        lambda: comparative.flip_transfer(MARKET, "b", 0),
        "slot index 0 out of range for branch b (n=1)",
        ["experiment", "{path}", "--theorem", "3", "--branch", "b", "--slot", "0"],
        id="flip_transfer-slot-0",
    ),
    pytest.param(
        lambda: comparative.flip_transfer(MARKET, "b", 2),
        "slot index 2 out of range for branch b (n=1)",
        ["experiment", "{path}", "--theorem", "3", "--branch", "b", "--slot", "2"],
        id="flip_transfer-slot-n+1",
    ),
    pytest.param(
        lambda: comparative.flip_transfer(MARKET, "b", -1),
        "slot index -1 out of range for branch b (n=1)",
        ["experiment", "{path}", "--theorem", "3", "--branch", "b", "--slot", "-1"],
        id="flip_transfer-slot--1",
    ),
    pytest.param(
        lambda: comparative.flip_transfer(MARKET, "b", 3),
        "slot index 3 out of range for branch b (n=1)",
        ["experiment", "{path}", "--theorem", "3", "--branch", "b", "--slot", "3"],
        id="flip_transfer-slot-n+2",
    ),
    pytest.param(
        lambda: comparative.extend_branch(MARKET, "b", (), 0),
        "position 0 out of range for branch b (n=1)",
        ["experiment", "{path}", "--theorem", "4", "--branch", "b", "--position", "0"],
        id="extend_branch-position-0",
    ),
    pytest.param(
        lambda: comparative.extend_branch(MARKET, "b", (), 3),
        "position 3 out of range for branch b (n=1)",
        ["experiment", "{path}", "--theorem", "4", "--branch", "b", "--position", "3"],
        id="extend_branch-position-n+2",
    ),
    pytest.param(
        lambda: comparative.extend_branch(MARKET, "b", ["nope"]),
        "extended branch is invalid: slot b:o2: unknown contract nope",
        None,
        id="extend_branch-ranking",
    ),
    pytest.param(
        lambda: oracles.requested_suites(["bogus"]),
        f"unknown suite 'bogus'; expected one of {oracles.ALL_SUITES}",
        ["oracle", "--gen", "--suite", "bogus"],
        id="requested_suites",
    ),
    pytest.param(
        lambda: generator.GeneratorConfig(agents=0),
        "invalid generator config: agents must be at least 1 (got 0)",
        ["gen", "--agents", "0"],
        id="GeneratorConfig",
    ),
    pytest.param(
        lambda: generator.GeneratorConfig(branches=0),
        "invalid generator config: branches must be at least 1 (got 0)",
        ["gen", "--branches", "0"],
        id="GeneratorConfig-branches",
    ),
    pytest.param(  # argparse reads --cap-min and --cap-max as integers
        lambda: generator.GeneratorConfig(capacity=(1.0, 3.0)),
        "invalid generator config: capacity must hold integers (got (1.0, 3.0))",
        None,
        id="GeneratorConfig-capacity-float",
    ),
    pytest.param(  # argparse restricts --location-policy to the known names
        lambda: generator.GeneratorConfig(location_policy="nope"),
        "invalid generator config: location_policy must be one of "
        f"{', '.join(generator.LOCATION_POLICIES)} (got 'nope')",
        None,
        id="GeneratorConfig-location_policy",
    ),
    pytest.param(
        lambda: comparative.apply_additions(MARKET, [], mode="nope"),
        "unknown mode 'nope'",
        None,
        id="apply_additions-mode",
    ),
    pytest.param(
        lambda: comparative.apply_additions(MARKET, [_added("z", "A", "nope")], comparative.MODE_BOTTOM),
        "contract z references unknown branch nope",
        None,
        id="apply_additions-branch",
    ),
    pytest.param(
        lambda: comparative.apply_additions(MARKET, [_added("z", "A", "b", pref=1)], comparative.MODE_BOTTOM),
        "preference position 1 out of range for A",
        None,
        id="apply_additions-preference-position",
    ),
    pytest.param(
        lambda: comparative.apply_additions(
            MARKET, [_added("z", "A", "b", seats={SlotId("b", "original", 1): 2})], comparative.MODE_SINGLE_AGENT
        ),
        "position 2 out of range for slot b:o1",
        None,
        id="apply_additions-slot-position",
    ),
    pytest.param(
        lambda: comparative.apply_additions(MARKET, [_added("z", "A", "b", terms="x")], comparative.MODE_BOTTOM),
        "additions produced an invalid instance: contract z: duplicate (agent, branch, terms) triple "
        "('A', 'b', 'x')",
        None,
        id="apply_additions-repeated-triple",
    ),
    pytest.param(
        lambda: mechanism.cumulative_offer(MARKET, policy="nope"),
        "unknown proposal policy 'nope'",
        None,
        id="cumulative_offer-policy",
    ),
    pytest.param(
        lambda: oracles.run_suite([MARKET], ["irc"], jobs=0),
        "jobs must be at least 1 (got 0)",
        ["oracle", "{path}", "--suite", "irc", "--jobs", "0"],
        id="run_suite-jobs",
    ),
]


@pytest.mark.parametrize("call, message, argv", RAISE_SITES)
def test_library_raises_the_text_the_cli_prints(tmp_path, capsys, call, message, argv):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
    if argv is not None:
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(MARKET))
        code = main([arg.format(path=path) for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message + "\n")


@pytest.mark.parametrize("ids, where", [
    ((1, "b02"), "branches[0]"),  # ids that cannot be sorted together
    (("b", ["x"]), "branches[1]"),  # an id that cannot be hashed
    ((7,), "branches[0]"),
])
def test_non_string_branch_id_exits_2(tmp_path, capsys, ids, where):
    doc = json.loads(serialize_instance(MARKET))
    doc["branches"] = [{**doc["branches"][0], "id": bid} for bid in ids]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"{where}.id: expected a string\n")


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _deep_preference() -> str:
    doc = json.loads(serialize_instance(MARKET))
    doc["preferences"]["A"] = "@"
    return json.dumps(doc).replace('"@"', _nested(900))


@pytest.mark.parametrize("command, files", [
    ("run", [_deep_preference()]),
    ("run", ['{"contracts": %s, "preferences": {}, "branches": []}' % _nested(5000)]),
    ("verify", [serialize_instance(MARKET), '{"assignment": %s}' % _nested(5000)]),
], ids=["preference", "contracts", "outcome"])
def test_deep_nesting_exits_2_without_a_traceback(tmp_path, command, files):
    # json itself, and any walk over the decoded document, can run out of stack
    paths = [tmp_path / f"{i}.json" for i in range(len(files))]
    for path, text in zip(paths, files):
        path.write_text(text)
    src = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                        os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "sspwct", command, *map(str, paths)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr and "Traceback" not in done.stderr
