"""Differential tests: the incremental cumulative offer process, the
planned choice rules (which stop walking once no later seat can pick),
the filtered blocking search, and the seat ledger and
holder map read off a COM run, and the strategy-proofness check's forked
runs, against the straightforward implementations
they replaced (kept in ``com_reference``).  Traces must match exactly, step
by step and pool by pool, for the deterministic and the seeded random
policy: the steps the library rebuilds from its move log against the
reference's recorded steps, and the JSON the library replays from the log
against the reference's steps with every pool sorted afresh."""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import com_reference as ref
from conftest import CountedSet, run_json, with_preference
from sspwct import cli
from sspwct.choice import completion_choose, sspwct_choose
from sspwct.generator import GeneratorConfig, generate_batch, generate_instance
from sspwct.mechanism import ComState, cumulative_offer, find_blocking_set, holdings
from sspwct.oracles import check_strategy_proofness, misreports

BATCHES = {
    "default": (GeneratorConfig(seed=3000), 100),
    "12x3": (GeneratorConfig(seed=3100, agents=12, branches=3), 40),
    "30x4": (GeneratorConfig(seed=3200, agents=30, branches=4), 15),
}
POLICIES = (("lex", 0), ("random", 1), ("random", 2))


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_traces_match_reference(batch):
    cfg, count = BATCHES[batch]
    steps = 0
    for i, inst in enumerate(generate_batch(cfg, count)):
        for policy, seed in POLICIES:
            got = cumulative_offer(inst, policy=policy, seed=seed)
            want = ref.cumulative_offer(inst, policy=policy, seed=seed)
            assert [tuple(s) for s in want.steps] == [
                (s.t, s.agent, s.contract, s.verdict, {b: frozenset(p) for b, p in s.pools.items()})
                for s in got.steps
            ], (cfg.seed + i, policy, seed)
            assert run_json(got) == ref.trace_to_json(want), (cfg.seed + i, policy, seed)
            steps += len(got.steps)
    assert steps > count  # the batch is not trivially empty


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_seat_ledger_and_holders_match_reference(batch):
    # the ledger on the trace against the seats chosen again from the final
    # pools, and the holder map against the per-agent scan of the outcome
    cfg, count = BATCHES[batch]
    seats = 0
    for i, inst in enumerate(generate_batch(cfg, count)):
        for policy, seed in POLICIES:
            got = cumulative_offer(inst, policy=policy, seed=seed)
            pools = got.steps[-1].pools if got.steps else {b: frozenset() for b in inst.branches}
            assert got.seats == ref.slot_assignments(inst, pools), (cfg.seed + i, policy, seed)
            held = holdings(inst, got.outcome)
            for agent in inst.agents:
                assert held.get(agent) == ref.assigned_contract(inst, got.outcome, agent), (
                    cfg.seed + i, policy, seed, agent)
            seats += len(got.seats)
    assert seats > count  # the batch is not trivially empty


def test_large_market_lex_trace_matches_reference():
    inst = generate_instance(GeneratorConfig(seed=3400, agents=200, branches=10, capacity=(15, 15)))
    got = cumulative_offer(inst)
    assert len(got.steps) > 500
    assert run_json(got) == ref.trace_to_json(ref.cumulative_offer(inst))


#: the forms an offer set may take: the rule reads a set in place and
#: freezes any other iterable, a one-shot iterator included
OFFER_FORMS = (set, frozenset, list, lambda offers: iter(sorted(offers)))


@pytest.mark.parametrize("rule, completion", [(sspwct_choose, False), (completion_choose, True)])
def test_choice_rules_match_reference(rule, completion):
    rng = random.Random(3500)
    configs = [GeneratorConfig(seed=3500, agents=12, branches=3, capacity=(1, 4)),
               GeneratorConfig(seed=3600, agents=6, branches=2, location_policy="adjacent"),
               GeneratorConfig(seed=3650, agents=8, branches=2, capacity=(2, 4), transfer_density=0.0),
               GeneratorConfig(seed=3660, agents=8, branches=2, capacity=(2, 4), transfer_density=1.0)]
    calls = 0
    bits = {}  # transfer density -> the bits its branches have
    for cfg in configs:
        for inst in generate_batch(cfg, 20):
            for b, branch in inst.branches.items():
                bits.setdefault(cfg.transfer_density, set()).update(branch.transfer)
                universe = inst.contracts_of_branch[b]
                for _ in range(8):
                    offers = frozenset(c for c in universe if rng.random() < 0.6)
                    want = ref.choose(branch, offers, inst.contract_index, completion)
                    for form in OFFER_FORMS:
                        got = rule(branch, form(offers), inst.contract_index)
                        assert got.chosen == want.chosen
                        assert list(got.seats.items()) == list(want.seats.items())
                        calls += 1
    assert calls > 2000
    assert bits[0.0] == {0} and bits[1.0] == {1}  # every bit 0, and every bit 1


def _random_feasible_outcome(inst, rng):
    """Each agent holds one of her contracts, acceptable or not, with
    probability 0.7, while her branch has a free seat."""
    free = {b: cfg.n for b, cfg in inst.branches.items()}
    outcome = []
    for agent in inst.agents:
        owned = inst.contracts_of_agent[agent]
        if owned and rng.random() < 0.7:
            cid = rng.choice(owned)
            branch = inst.contract_index[cid].branch
            if free[branch]:
                free[branch] -= 1
                outcome.append(cid)
    return frozenset(outcome)


def test_blocking_search_matches_reference():
    rng = random.Random(3700)
    configs = [GeneratorConfig(seed=3700, agents=5, branches=2, capacity=(1, 3), density=0.7),
               GeneratorConfig(seed=3800, agents=4, branches=1, capacity=(1, 2), contracts_per_pair=(1, 3))]
    checked = blocked = unacceptable = 0
    for cfg in configs:
        for inst in generate_batch(cfg, 150):
            outcomes = [cumulative_offer(inst).outcome]
            outcomes += [_random_feasible_outcome(inst, rng) for _ in range(6)]
            for outcome in outcomes:
                got = find_blocking_set(inst, outcome)
                assert got == ref.find_blocking_set(inst, outcome), (inst, sorted(outcome))
                checked += 1
                blocked += got is not None
                unacceptable += any(
                    not inst.acceptable(inst.contract_index[c].agent, c) for c in outcome
                )
    assert checked >= 2000
    assert 3 * blocked >= checked and checked - blocked >= 200
    assert unacceptable >= 200


def _full_walk_tests(cfg, seats):
    """The membership tests a walk to the end of the plan makes: an active
    seat scans up to its pick, a vacant one its whole ranking."""
    tests = 0
    for slot, paired, ranking in cfg.seat_plan:
        if paired < 0 or cfg.seat_plan[paired][0] not in seats:
            pick = seats.get(slot)
            tests += ranking.index(pick) + 1 if pick is not None else len(ranking)
    return tests


@pytest.mark.parametrize("rule, completion", [(sspwct_choose, False), (completion_choose, True)])
def test_choice_rules_stop_walking_without_changing_the_choice(rule, completion):
    # offer sets smaller than the plan, agents with two or three contracts at
    # one branch (whose offers keep the sspwct walk going), and markets with
    # every bit 0 and every bit 1
    rng = random.Random(3900)
    configs = [GeneratorConfig(seed=3900, agents=6, branches=2, capacity=(3, 5), contracts_per_pair=(2, 3)),
               GeneratorConfig(seed=3910, agents=10, branches=2, capacity=(2, 6), transfer_density=0.0),
               GeneratorConfig(seed=3920, agents=10, branches=2, capacity=(2, 6), transfer_density=1.0)]
    calls = stopped = shared = 0
    bits = {}  # transfer density -> the bits its branches have
    for cfg in configs:
        for inst in generate_batch(cfg, 20):
            for b, branch in inst.branches.items():
                bits.setdefault(cfg.transfer_density, set()).update(branch.transfer)
                universe = inst.contracts_of_branch[b]
                owners = [inst.contract_index[c].agent for c in universe]
                shared += len(set(owners)) < len(owners)
                for _ in range(6):
                    size = rng.randrange(min(len(branch.seat_plan), len(universe) + 1))
                    offers = CountedSet(rng.sample(universe, size))
                    want = ref.choose(branch, offers, inst.contract_index, completion)
                    got = rule(branch, offers, inst.contract_index)
                    assert got.chosen == want.chosen
                    assert list(got.seats.items()) == list(want.seats.items())
                    assert len(got._picks) == len(branch.seat_plan)
                    full = _full_walk_tests(branch, want.seats)
                    assert offers.tests <= full
                    calls += 1
                    stopped += offers.tests < full
    assert calls > 600
    assert bits[0.0] == {0} and bits[1.0] == {1}  # every bit 0, and every bit 1
    assert shared >= 20  # branches where an agent has several contracts
    # the stop cut the walk short on at least half of the calls (374 and 401
    # of 720); a walk to the end of the plan cuts none
    assert 2 * stopped >= calls, (stopped, calls)


def _battery_config(seed: int) -> GeneratorConfig:
    """The generator settings of the benchmark's oracle battery, read from
    its pinned ``sspwct oracle`` flags through the command line's parser."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    argv = ["oracle", "--gen", "--seed", str(seed), *workloads.ORACLE_GENERATOR_FLAGS]
    return cli._generator_config(cli.build_parser().parse_args(argv))


#: acceptance criterion 05's settings, and the oracle battery's
MISREPORT_BATCHES = {
    "criterion-05": (GeneratorConfig(seed=11000, agents=4, branches=2, capacity=(1, 3),
                                     contracts_per_pair=(0, 2), density=0.7, transfer_density=0.5), 100),
    "battery": (_battery_config(7), 100),
}


@pytest.mark.parametrize("batch", sorted(MISREPORT_BATCHES))
def test_forked_runs_match_full_runs_for_every_report(batch):
    # each report, the truthful one included, forked at the agent's first
    # turn of one paused truthful run, against a full run on a fresh instance
    cfg, count = MISREPORT_BATCHES[batch]
    reports = replayed = full = 0
    for i, inst in enumerate(generate_batch(cfg, count)):
        state = ComState(inst)
        for agent in inst.agents:
            state.run(stop=agent)
            for report in misreports(inst.contracts_of_agent.get(agent, ())):
                fork = state.fork(agent, report)
                fork.run()
                want = cumulative_offer(with_preference(inst, agent, report))
                assert fork.outcome == want.outcome, (cfg.seed + i, agent, report)
                assert fork.moves == list(want.moves)
                reports += 1
                replayed += len(fork.moves) - len(state.moves)
                full += len(want.moves)
        assert check_strategy_proofness(inst) == ref.check_strategy_proofness(inst), cfg.seed + i
    assert reports > 20 * count
    assert 0 < replayed < full  # the forks shared a prefix of some runs
