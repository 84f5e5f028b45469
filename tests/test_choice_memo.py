"""The work that one oracle suite run shares (``mechanism.SharedWork``:
``lex`` outcomes, choice tables and COM's choice memo) against the same
checks run without it: the same verdicts under the real rule and under
every corrupted one, no shared work outside a suite run or after one, no
memo entry for a branch above the bound, and one COM run per distinct
market."""
from collections import Counter

import pytest

from sspwct import mechanism, oracles
from sspwct.choice import sspwct_choose
from sspwct.generator import GeneratorConfig, generate_batch
from sspwct.mechanism import EXHAUSTIVE_BOUND, InstanceTooLarge, SharedWork, cumulative_offer
from sspwct.oracles import ALL_SUITES, run_suite_on_instance

from conftest import branch, make_instance
from test_oracles import (
    choose_from_pairs,
    drop_lowest_id,
    no_guard_completion,
    parity_flipping_rule,
    reject_odd_pools,
    stingy_rule,
)

#: the benchmark battery's first batch: seed 7, 50 instances, the generator's defaults
BATTERY = generate_batch(GeneratorConfig(seed=7), 50)
RULES = [sspwct_choose, no_guard_completion, parity_flipping_rule, stingy_rule,
         choose_from_pairs, drop_lowest_id, reject_odd_pools]


def running_memo():
    """The running suite's choice memo, or None outside a suite run."""
    work = mechanism._WORK.get()
    return None if work is None else work.memo


def counted(rule, calls: Counter, memos: list | None = None):
    """``rule``, counting its calls in ``calls`` and, given ``memos``,
    recording the memo in force at each call."""
    def wrapper(cfg, offers, contracts):
        calls[rule] += 1
        if memos is not None:
            memos.append(running_memo())
        return rule(cfg, offers, contracts)
    return wrapper


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_a_suite_run_matches_every_check_run_alone(monkeypatch, rule):
    # each check on its own runs outside any suite, so nothing is shared
    # or memoised; every verdict, witnesses included, must be the same
    calls = Counter()
    monkeypatch.setattr(mechanism, "sspwct_choose", counted(rule, calls))
    suite_calls = alone_calls = 0
    for inst in BATTERY:
        calls.clear()
        suite = run_suite_on_instance(inst, ALL_SUITES)
        suite_calls += calls[rule]
        calls.clear()
        assert mechanism._WORK.get() is None
        alone = [oracles._SUITES[name][1](inst, 20, 0, EXHAUSTIVE_BOUND) for name in ALL_SUITES]
        alone_calls += calls[rule]
        assert suite == alone, inst
    # the memo answered most of COM's and the stability check's choices
    assert suite_calls * 3 < alone_calls, (suite_calls, alone_calls)


def one_branch(bid, n, ranking, transfer=1):
    """Branch ``bid`` of ``n`` seats, every original seat ranking ``ranking``
    and every shadow seat its reverse."""
    return branch(bid=bid, n=n, transfer=(transfer,) * n, original=[tuple(ranking)] * n,
                  shadow=[tuple(reversed(ranking))] * n)


def test_no_memo_outlives_its_suite_run_even_when_a_check_raises(monkeypatch):
    # order-independence fills the memo, then strategy-proofness refuses
    # A's five contracts
    ids = ["x0", "x1", "x2", "x3", "x4", "y"]
    inst = make_instance([(c, "B" if c == "y" else "A", "b") for c in ids],
                         {"A": tuple(ids[:5]), "B": ("y",)}, [one_branch("b", 2, ids)])
    memos = []
    monkeypatch.setattr(mechanism, "sspwct_choose", counted(sspwct_choose, Counter(), memos))
    with pytest.raises(InstanceTooLarge, match="agent A has 5 contracts"):
        run_suite_on_instance(inst, ["order-independence", "strategy-proofness"])
    assert any(memos)
    assert mechanism._WORK.get() is None


def test_a_branch_above_the_bound_never_enters_the_memo(monkeypatch):
    # b holds nine contracts, one more than the bound, and c two
    agents = [f"A{i}" for i in range(9)]
    inst = make_instance(
        [(f"x{i}", a, "b") for i, a in enumerate(agents)] + [("y0", "A0", "c"), ("y1", "A1", "c")],
        {a: ((f"y{i}",) if i < 2 else ()) + (f"x{i}",) for i, a in enumerate(agents)},
        [one_branch("b", 2, [f"x{i}" for i in range(9)]), one_branch("c", 1, ["y1", "y0"])],
    )
    assert oracles.EXHAUSTIVE_BOUND is EXHAUSTIVE_BOUND  # the oracles' bound is the memo's
    assert len(inst.contracts_of_branch["b"]) == EXHAUSTIVE_BOUND + 1
    memos = []
    monkeypatch.setattr(mechanism, "sspwct_choose", counted(sspwct_choose, Counter(), memos))
    run_suite_on_instance(inst, ["order-independence", "improvements", "strategy-proofness"])
    assert memos and all(list(memo) == [id(inst.branches["c"])] for memo in memos)
    with SharedWork(inst):
        cumulative_offer(inst)
        assert list(running_memo()) == [id(inst.branches["c"])]


def test_cumulative_offer_outside_a_suite_never_memoises(monkeypatch):
    inst = BATTERY[0]
    calls = Counter()
    monkeypatch.setattr(mechanism, "sspwct_choose", counted(sspwct_choose, calls))
    runs = [cumulative_offer(inst) for _ in range(2)]
    assert running_memo() is None
    # one choice per step, on every run
    assert calls[sspwct_choose] == sum(len(run.moves) for run in runs) > 0
    calls.clear()
    with SharedWork(inst):
        memoised = [cumulative_offer(inst) for _ in range(2)]
    assert calls[sspwct_choose] == len(memoised[0].moves)  # the second run chose nothing
    assert [run.moves for run in memoised] == [run.moves for run in runs]
    assert running_memo() is None


def test_a_rebound_rule_starts_its_entries_afresh(monkeypatch):
    def outcome_under(rule, inst):
        monkeypatch.setattr(mechanism, "sspwct_choose", rule)
        return cumulative_offer(inst).outcome

    inst = next(inst for inst in BATTERY
                if outcome_under(reject_odd_pools, inst) != outcome_under(sspwct_choose, inst))
    truthful, corrupted = outcome_under(sspwct_choose, inst), outcome_under(reject_odd_pools, inst)
    with SharedWork(inst):
        assert [outcome_under(rule, inst) for rule in (sspwct_choose, reject_odd_pools, sspwct_choose)] == [
            truthful, corrupted, truthful]


def lex_runs(monkeypatch) -> list:
    """The branch configs of every market the oracles run ``lex`` COM on,
    recorded through the module global that the oracles call."""
    runs, com = [], oracles.cumulative_offer

    def recorded(market, **kwargs):
        if kwargs.get("policy", "lex") == "lex":
            runs.append(tuple(market.branches.values()))
        return com(market, **kwargs)

    monkeypatch.setattr(oracles, "cumulative_offer", recorded)
    return runs


def test_a_trial_that_returns_the_base_market_runs_no_com_in_a_suite_run(monkeypatch):
    # A tops every ranking she could enter and B owns no contract, so every
    # trial of either agent returns the market itself
    inst = make_instance(
        [("x", "A", "b")], {"A": ("x",), "B": ()}, [branch(n=1, original=[("x",)], shadow=[("x",)])]
    )
    runs = lex_runs(monkeypatch)
    verdicts = run_suite_on_instance(inst, ["stability", "improvements", "strategy-proofness"], trials=8)
    assert [[(v.status, v.instances_checked) for v in suite] for suite in verdicts] == [
        [("pass", 1)], [("pass", 4), ("pass", 4)], [("pass", 1)]]
    assert runs == [tuple(inst.branches.values())]


def test_a_suite_run_runs_com_once_per_distinct_market(monkeypatch):
    runs = lex_runs(monkeypatch)
    for inst in BATTERY[:10]:
        runs.clear()
        run_suite_on_instance(inst, ALL_SUITES)
        # the truthful run first, then each distinct trial market once
        assert runs[0] == tuple(inst.branches.values())
        assert len(set(runs)) == len(runs) > 1
