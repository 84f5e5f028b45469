import contextlib
import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import sspwct
from sspwct import cli, comparative, mechanism
from sspwct.cli import main
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.model import parse_instance, serialize_instance, validate_instance

from conftest import branch, make_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_contested_instance(path):
    inst = make_instance(
        [("x", "A", "b"), ("y", "B", "b")],
        {"A": ("x",), "B": ("y",)},
        [branch(n=1, transfer=(1,), original=[("x",)], shadow=[("y", "x")])],
    )
    path.write_text(serialize_instance(inst))
    return inst


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, "gen", "--seed", "7", "--out", str(a))[0] == 0
        assert run_cli(capsys, "gen", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "3")
        assert code == 0
        assert not validate_instance(parse_instance(out))

    @pytest.mark.parametrize("flags, field", [
        (("--agents", "-3"), "agents"),
        (("--cap-min", "3", "--cap-max", "1"), "capacity"),
        (("--density", "2"), "density"),
    ])
    def test_invalid_config_exits_2_and_writes_nothing(self, tmp_path, capsys, flags, field):
        path = tmp_path / "inst.json"
        code, out, err = run_cli(capsys, "gen", *flags, "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("invalid generator config: " + field)
        code, out, err = run_cli(capsys, "gen", *flags)
        assert code == 2 and out == "" and field in err

    @pytest.mark.parametrize("command", ["gen", "oracle"])
    def test_flag_defaults_are_the_config_defaults(self, command):
        args = cli.build_parser().parse_args([command])
        assert cli._generator_config(args) == GeneratorConfig()

    @pytest.mark.parametrize("target", ["missing/m.json", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        out_path = tmp_path / target  # a missing directory, then a directory
        code, out, err = run_cli(capsys, "gen", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {out_path}: ")


class TestRun:
    def test_outcome_json(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_contested_instance(path)
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert json.loads(out) == {"outcome": ["x"]}

    def test_trace_final_outcome_matches_plain_run(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_contested_instance(path)
        _, plain, _ = run_cli(capsys, "run", str(path))
        code, traced, _ = run_cli(capsys, "run", str(path), "--trace", "--policy", "random", "--seed", "3")
        assert code == 0
        doc = json.loads(traced)
        assert doc["outcome"] == json.loads(plain)["outcome"]
        assert all(step["verdict"] in ("held", "rejected") for step in doc["trace"])

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for content in (b"{", b"\xff\xfe{"):  # bad JSON, then bytes that are not UTF-8
            path.write_bytes(content)
            code, out, err = run_cli(capsys, "run", str(path))
            assert code == 2 and out == "" and err.startswith("invalid JSON: ")

    @staticmethod
    def run_from_pipe(capsys, tmp_path, raw):
        # a FIFO cannot seek, so the instance is read from it once, whole
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        result = run_cli(capsys, "run", str(fifo))
        writer.join(timeout=60)
        assert not writer.is_alive()
        return result

    def test_instance_from_a_pipe(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(generate_instance(GeneratorConfig(seed=7, agents=120, branches=4))))
        assert path.stat().st_size > 1 << 16  # more than a pipe's buffer holds
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, err) == (0, "")
        assert self.run_from_pipe(capsys, tmp_path, path.read_bytes()) == (0, out, "")

    def test_malformed_instance_from_a_pipe_exits_2(self, tmp_path, capsys):
        raw = '{"contracts": [}'
        with pytest.raises(ValueError) as whole:
            json.loads(raw)
        assert self.run_from_pipe(capsys, tmp_path, raw.encode()) == (2, "", f"invalid JSON: {whole.value}\n")

    def test_invalid_instance_exits_2(self, tmp_path, capsys):
        inst = make_instance([], {}, [branch(n=1, location=(0,))])
        path = tmp_path / "invalid.json"
        path.write_text(serialize_instance(inst))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2 and "location" in err

    def test_missing_file_exits_2(self, capsys):
        assert run_cli(capsys, "run", "/nonexistent.json")[0] == 2


class TestVerify:
    def test_stable_outcome_exit_0(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_contested_instance(path)
        out_path = tmp_path / "outcome.json"
        out_path.write_text(json.dumps({"assignment": ["x"]}))
        code, out, _ = run_cli(capsys, "verify", str(path), str(out_path))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"individually_rational": True, "blocking": None, "stable": True}

    def test_blocked_outcome_exit_3(self, tmp_path, capsys):
        inst = make_instance(
            [("c", "a", "b")], {"a": ("c",)}, [branch(n=1, original=[("c",)])]
        )
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst))
        out_path = tmp_path / "outcome.json"
        out_path.write_text(json.dumps({"assignment": []}))
        code, out, _ = run_cli(capsys, "verify", str(path), str(out_path))
        assert code == 3
        doc = json.loads(out)
        assert doc["stable"] is False
        assert doc["blocking"] == {"branch": "b", "contracts": ["c"]}

    def test_not_individually_rational_outcome_still_reports_blocking(self, tmp_path, capsys):
        # B holds y although y is unacceptable to her, and A's x blocks
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": ("x",), "B": ()},
            [branch(n=1, original=[("x", "y")])],
        )
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst))
        out_path = tmp_path / "outcome.json"
        out_path.write_text(json.dumps({"assignment": ["y"]}))
        code, out, _ = run_cli(capsys, "verify", str(path), str(out_path))
        assert code == 3
        assert out == (
            '{\n  "blocking": {\n    "branch": "b",\n    "contracts": [\n      "x"\n    ]\n  },\n'
            '  "individually_rational": false,\n  "stable": false\n}\n'
        )

    def test_infeasible_outcome_exit_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_contested_instance(path)
        out_path = tmp_path / "outcome.json"
        out_path.write_text(json.dumps({"assignment": ["x", "nope"]}))
        assert run_cli(capsys, "verify", str(path), str(out_path))[0] == 2

    def test_repeated_contract_id_is_named_once(self, tmp_path, capsys):
        # one contract listed twice is not an agent holding two contracts
        path = tmp_path / "inst.json"
        write_contested_instance(path)
        out_path = tmp_path / "outcome.json"
        out_path.write_text(json.dumps({"assignment": ["x", "x"]}))
        assert run_cli(capsys, "verify", str(path), str(out_path)) == (
            2, "", f"infeasible outcome {out_path}:\n  outcome: contract x listed 2 times\n"
        )


@pytest.mark.parametrize("content, argv, named", [
    pytest.param(None, ("verify", "{inst}", "{outcome}"), "cannot read outcome {outcome}: [Errno 2]", id="missing"),
    pytest.param(b'{"assignment": [', ("verify", "{inst}", "{outcome}"), "cannot read outcome {outcome}: Expecting",
                 id="malformed"),
    pytest.param(b"\xff\xfe{}", ("verify", "{inst}", "{outcome}"), "cannot read outcome {outcome}: 'utf-8' codec",
                 id="undecodable"),
    pytest.param(b"[" * 100_000, ("verify", "{inst}", "{outcome}"),
                 "cannot read outcome {outcome}: arrays or objects nested too deeply", id="too-deep"),
    pytest.param(b'["x"]', ("verify", "{inst}", "{outcome}"),
                 "outcome {outcome}: expected an object with an 'assignment' (or 'outcome') array", id="array"),
    pytest.param(b'{"assignment": "x"}', ("verify", "{inst}", "{outcome}"),
                 "outcome {outcome}: 'assignment' must be an array of contract ids", id="assignment-string"),
    pytest.param(None, ("oracle", "{inst}", "--gen"), "give either an instance file or --gen, not both",
                 id="oracle-file-and-gen"),
])
def test_rejected_outcome_files_and_oracle_arguments_exit_2(tmp_path, capsys, content, argv, named):
    paths = {"inst": tmp_path / "inst.json", "outcome": tmp_path / "outcome.json"}
    write_contested_instance(paths["inst"])
    if content is not None:
        paths["outcome"].write_bytes(content)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == "" and named.format(**paths) in err


class TestOracle:
    def test_generated_batch_all_suites_green(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--gen", "--count", "6", "--seed", "2", "--trials", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instances"] == 6
        names = {v["property"] for v in doc["verdicts"]}
        assert "completion" in names and "stability" in names
        assert all(v["status"] == "pass" for v in doc["verdicts"])

    def test_single_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_contested_instance(path)
        code, out, _ = run_cli(capsys, "oracle", str(path), "--suite", "completion,stability")
        assert code == 0
        assert len(json.loads(out)["verdicts"]) == 2

    def test_jobs_flag_matches_serial(self, capsys):
        code, serial, _ = run_cli(capsys, "oracle", "--gen", "--count", "4", "--suite", "irc,lad")
        code2, parallel, _ = run_cli(
            capsys, "oracle", "--gen", "--count", "4", "--suite", "irc,lad", "--jobs", "2"
        )
        assert code == code2 == 0
        assert json.loads(serial) == json.loads(parallel)

    def test_requires_input(self, capsys):
        assert run_cli(capsys, "oracle")[0] == 2

    def test_invalid_generator_config_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--gen", "--contracts-min", "2", "--contracts-max", "1")
        assert code == 2 and out == ""
        assert err.startswith("invalid generator config: contracts_per_pair")

    def test_stability_suite_honours_bound(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(
            [("x", "A", "b"), ("y", "B", "b"), ("z", "C", "b")],
            {"A": ("x",), "B": ("y",), "C": ("z",)},
            [branch(n=2, original=[("x", "y", "z"), ("z", "y")])],
        )))
        assert run_cli(capsys, "oracle", str(path), "--suite", "stability")[0] == 0
        code, out, err = run_cli(capsys, "oracle", str(path), "--suite", "stability", "--bound", "2")
        assert code == 2 and out == ""
        assert "branch b has 3 contracts" in err and "capped at 2" in err

    def test_vacuous_verdicts_exit_3(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(serialize_instance(make_instance([], {}, [])))
        code, out, _ = run_cli(capsys, "oracle", str(path), "--suite", "all")
        assert code == 3
        verdicts = json.loads(out)["verdicts"]
        assert len(verdicts) == 9
        assert {v["property"] for v in verdicts if v["status"] == "vacuous"} == {
            "completion", "substitutability", "irc", "lad", "slot-specific-reduction",
            "strategy-proofness", "respects-improvements",
        }

    def test_unknown_suite_exits_2(self, capsys, monkeypatch):
        def no_batch(*args):
            raise AssertionError("generated a batch for an unknown suite")

        monkeypatch.setattr(cli.generator, "generate_batch", no_batch)
        for suites in ("bogus", "irc,bogus", "all,bogus"):
            code, out, err = run_cli(capsys, "oracle", "--gen", "--suite", suites)
            assert code == 2 and out == "" and "unknown suite 'bogus'" in err

    @pytest.mark.parametrize("flags, named", [
        (("--count", "0"), "--count must be at least 1 (got 0)"),
        (("--count", "-3"), "--count must be at least 1 (got -3)"),
        (("--count", "0", "--suite", "nonsense"), "unknown suite 'nonsense'"),
        (("--suite", ","), "--suite names no suite"),
        (("--count", "3", "--trials", "0", "--suite", "order-independence"),
         "trials must be at least 1 (got 0)"),
        (("--jobs", "0"), "jobs must be at least 1 (got 0)"),
        (("--jobs", "-2"), "jobs must be at least 1 (got -2)"),
    ])
    def test_empty_batch_or_suite_list_exits_2(self, capsys, flags, named):
        code, out, err = run_cli(capsys, "oracle", "--gen", *flags)
        assert code == 2 and out == "" and named in err

    @pytest.mark.parametrize("bound", ["-1", "-7"])
    def test_negative_bound_exits_2_before_any_instance(self, tmp_path, capsys, monkeypatch, bound):
        # once rejected only after the whole batch was generated, as a cap
        def no_batch(*args):
            raise AssertionError("generated a batch for a negative bound")

        monkeypatch.setattr(cli.generator, "generate_batch", no_batch)
        missing = str(tmp_path / "missing.json")
        for argv in (["oracle", "--gen", "--bound", bound], ["oracle", missing, "--bound", bound],
                     ["verify", missing, missing, "--bound", bound]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"--bound must be at least 0 (got {bound})\n")

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-3"), ("--jobs", "0"), ("--jobs", "-2")])
    def test_bad_trials_or_jobs_exit_2_before_any_instance(self, tmp_path, capsys, monkeypatch, flag, value):
        # once rejected by run_suite only after the whole batch was generated
        def no_batch(*args):
            raise AssertionError(f"generated a batch for {flag} {value}")

        monkeypatch.setattr(cli.generator, "generate_batch", no_batch)
        missing = str(tmp_path / "missing.json")
        for argv in (["oracle", "--gen", flag, value], ["oracle", missing, flag, value]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"{flag[2:]} must be at least 1 (got {value})\n")


def test_internal_value_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    # only named input errors exit 2; a ValueError raised inside an algorithm
    # is a fault of the program and propagates
    path = tmp_path / "inst.json"
    write_contested_instance(path)

    def broken(*args, **kwargs):
        raise ValueError("not enough values to unpack")

    monkeypatch.setattr(cli, "cumulative_offer", broken)
    with pytest.raises(ValueError, match="unpack"):
        main(["run", str(path)])
    assert capsys.readouterr().out == ""


class TestExperiment:
    def test_theorem_3_reports_dominance_and_chain(self, tmp_path, capsys):
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": (), "B": ("y",)},
            [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
        )
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst))
        code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pareto-dominates"
        assert doc["flipped"] == {"branch": "b", "slot": 1}
        assert doc["chain"] == {"attempted": True, "matches_modified": True, "outcome": ["y"]}

    def test_theorem_3_runs_the_mechanism_twice(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mechanism.cumulative_offer(*args, **kwargs)

        for module in (cli, comparative):
            monkeypatch.setattr(module, "cumulative_offer", counted)
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": (), "B": ("y",)},
            [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
        )))
        code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", "3")
        assert code == 0 and json.loads(out)["chain"]["attempted"]
        assert len(calls) == 2  # baseline and modified, shared with the chain

    def test_theorem_3_chain_that_disagrees_with_the_mechanism_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(comparative, "improvement_chain", lambda *args: frozenset())
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": (), "B": ("y",)},
            [branch(n=1, transfer=(0,), original=[("x",)], shadow=[("y", "x")])],
        )))
        code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", "3")
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["modified"]) == (3, "pareto-dominates", ["y"])
        assert doc["chain"] == {"attempted": True, "matches_modified": False, "outcome": []}

    def test_bottom_addition_that_hurts_a_third_party_exits_3(self, tmp_path, capsys):
        # the smallest hurt market: A's x is ranked only at shadow seat e_1,
        # which transfers while o_1 (ranking nothing) is vacant; B's added
        # contract fills o_1, so e_1 closes and A loses x
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(
            [("x", "A", "b")],
            {"A": ("x",), "B": ()},
            [branch(n=1, transfer=(1,), original=[()], shadow=[("x",)])],
        )))
        code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", "5", "--seed", "0")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (3, "violates")
        assert doc["per_agent"] == {"A": "strictly_worse", "B": "strictly_better"}

    def test_theorem_3_no_zero_bit_exits_2(self, tmp_path, capsys):
        inst = make_instance(
            [("x", "A", "b")], {"A": ("x",)}, [branch(n=1, transfer=(1,), original=[("x",)])]
        )
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst))
        assert run_cli(capsys, "experiment", str(path), "--theorem", "3")[0] == 2

    @pytest.mark.parametrize("flags, named", [
        (("--theorem", "3", "--branch", "nope", "--slot", "1"), "unknown branch 'nope'"),
        (("--theorem", "4", "--branch", "nope"), "unknown branch 'nope'"),
        (("--theorem", "6", "--agent", "ghost"), "unknown agent 'ghost'"),
        (("--theorem", "3", "--branch", "b", "--slot", "2"), "slot index 2 out of range"),
        (("--theorem", "4", "--branch", "b", "--position", "3"), "position 3 out of range"),
        (("--theorem", "5", "--count", "-1"), "--count must be at least 1 (got -1)"),
        (("--theorem", "6", "--count", "0"), "--count must be at least 1 (got 0)"),
        (("--theorem", "3", "--slot", "1"), "--slot 1 needs --branch"),
        (("--theorem", "4"), "cannot add a seat: the instance has no branch"),
        (("--theorem", "5"), "cannot add contracts: the instance has no agent"),
        (("--theorem", "5"), "cannot add contracts: the instance has no branch"),
        (("--theorem", "6"), "cannot add contracts: the instance has no agent"),
        (("--theorem", "6"), "cannot add contracts: the instance has no branch"),
    ])
    def test_bad_experiment_arguments_exit_2(self, tmp_path, capsys, flags, named):
        path = tmp_path / "inst.json"
        if named.endswith("has no branch"):
            path.write_text(serialize_instance(make_instance([], {"A": ()}, [])))
        elif named.endswith("has no agent"):
            path.write_text(serialize_instance(make_instance([], {}, [branch(n=1)])))
        else:
            write_contested_instance(path)
        code, out, err = run_cli(capsys, "experiment", str(path), *flags)
        assert code == 2 and out == "" and named in err

    @pytest.mark.parametrize("theorem", ["4", "5", "6"])
    def test_entry_experiments_smoke(self, tmp_path, capsys, theorem):
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--seed", "19", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "experiment", str(path), "--theorem", theorem, "--seed", "4"
        )
        doc = json.loads(out)
        assert code in (0, 3)
        assert doc["verdict"] in ("pareto-dominates", "weakly-improves-for", "violates")
        if theorem == "4":
            assert "added_slot" in doc
        else:
            assert "added_contracts" in doc

    @pytest.mark.parametrize("theorem", ["5", "6"])
    def test_added_ids_skip_ids_the_market_has(self, tmp_path, capsys, theorem):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(
            [("new01", "A", "b"), ("new03", "B", "b")],
            {"A": ("new01",), "B": ("new03",)},
            [branch(n=2, transfer=(1, 0), original=[("new01", "new03"), ("new03",)],
                    shadow=[("new03",), ()])],
        )))
        code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", theorem, "--count", "3")
        assert code in (0, 3)
        assert [c["id"] for c in json.loads(out)["added_contracts"]] == ["new02", "new04", "new05"]

    @pytest.mark.parametrize("theorem", ["5", "6"])
    def test_added_terms_skip_terms_the_owner_holds_at_the_branch(self, tmp_path, capsys, theorem):
        # the one owner and branch already hold terms added-1, the first
        # added contract's terms before this clash was avoided (exit 2)
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(
            [("added-1", "A", "b")], {"A": ("added-1",)}, [branch(original=[("added-1",)])],
        )))
        code, out, err = run_cli(capsys, "experiment", str(path), "--theorem", theorem)
        assert (code, err) == (0, "")
        assert [(c["id"], c["agent"], c["branch"]) for c in json.loads(out)["added_contracts"]] == [
            ("new01", "A", "b")
        ]


def test_pipeline_gen_run_verify_oracle(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert run_cli(capsys, "gen", "--seed", "21", "--out", str(inst_path))[0] == 0
    code, out, _ = run_cli(capsys, "run", str(inst_path))
    assert code == 0
    # verify consumes run's output file as-is
    outcome_path = tmp_path / "outcome.json"
    outcome_path.write_text(out)
    assert run_cli(capsys, "verify", str(inst_path), str(outcome_path))[0] == 0
    assert run_cli(capsys, "oracle", str(inst_path), "--suite", "completion,stability")[0] == 0


def test_theorem_3_branch_without_slot_flips_that_branch(tmp_path, capsys):
    path = tmp_path / "inst.json"
    # transfer bits: b01 (1, 0), b02 (0, 0, 0), b03 (1,)
    assert run_cli(capsys, "gen", "--seed", "3", "--agents", "6", "--branches", "3", "--out", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", "3", "--branch", "b02")
    assert code in (0, 3)
    assert json.loads(out)["flipped"] == {"branch": "b02", "slot": 1}
    code, out, _ = run_cli(capsys, "experiment", str(path), "--theorem", "3")
    assert json.loads(out)["flipped"] == {"branch": "b01", "slot": 2}
    code, out, err = run_cli(capsys, "experiment", str(path), "--theorem", "3", "--branch", "b03")
    assert (code, out) == (2, "")
    assert err == "every transfer bit of branch b03 is already 1; nothing to relax\n"


def test_python_dash_m_entry_point(tmp_path):
    # ``python -m sspwct`` runs the CLI and passes its exit code on
    src = str(Path(sspwct.__file__).resolve().parents[1])

    def sspwct_main(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "sspwct", *argv],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        return done.returncode, done.stdout, done.stderr

    inst_path, outcome_path = tmp_path / "inst.json", tmp_path / "outcome.json"
    assert sspwct_main("gen", "--seed", "21", "--out", str(inst_path))[0] == 0
    code, out, _ = sspwct_main("run", str(inst_path))
    assert code == 0 and json.loads(out)["outcome"]
    outcome_path.write_text(out)
    assert sspwct_main("verify", str(inst_path), str(outcome_path))[0] == 0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{")
    code, out, err = sspwct_main("run", str(bad_path))
    assert (code, out) == (2, "") and err.startswith("invalid JSON: ")


def test_closed_stdout_exits_1_and_writes_nothing_to_stderr(tmp_path, capsys):
    # the reader stops after a few bytes of an output larger than the pipe
    # buffer, as ``| head -c 16`` does; that is neither bad input nor a fault
    path = tmp_path / "big.json"
    path.write_text(serialize_instance(generate_instance(GeneratorConfig(seed=7, agents=60, branches=4))))
    code, out, _ = run_cli(capsys, "run", str(path), "--trace")
    assert code == 0 and len(out) > 4 * 65536  # far more than a pipe holds
    src = str(Path(sspwct.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "sspwct", "run", str(path), "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(16) == b'{\n  "outcome": ['
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_CLOSED_STDOUT, b"")


def test_run_trace_writes_one_step_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(serialize_instance(generate_instance(GeneratorConfig(seed=7))))
    chunks = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=chunks.append, flush=lambda: None))
    assert main(["run", str(path), "--trace"]) == 0
    steps = json.loads("".join(chunks))["trace"]
    # the text up to and with each step, then the rest, then the newline
    assert len(chunks) == len(steps) + 2 and chunks[-1] == "\n"
    assert all(chunk.endswith(f'"verdict": "{step["verdict"]}"\n    }}') for chunk, step in zip(chunks, steps))


def test_run_trace_peak_memory_is_a_fraction_of_its_output(tmp_path):
    # a size-M trace streamed to a file: the peak is the parse of the
    # market, not the document.  Built whole first, the peak was 2.4 times
    # the output; streamed it is 0.31-0.35 times on 3.11-3.13, and 0.50 on
    # 3.10, whose callers keep their call arguments through the parse
    path, out_path = tmp_path / "m.json", tmp_path / "trace.json"
    path.write_text(serialize_instance(generate_instance(
        GeneratorConfig(seed=100, agents=200, branches=10, capacity=(15, 15)))))
    gc.collect()
    with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--trace"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 0.75 * out_path.stat().st_size


def test_calls_after_the_first_leave_no_garbage(tmp_path, capsys):
    # garbage in a reference cycle waits for a full collection; one parser
    # per process leaves none behind a call once the first call built it
    path = tmp_path / "m.json"
    assert run_cli(capsys, "gen", "--seed", "7", "--out", str(path))[0] == 0
    assert cli.build_parser() is cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        for argv in (["gen", "--seed", "7"], ["run", str(path)]):
            assert run_cli(capsys, *argv)[0] == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
