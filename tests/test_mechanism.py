import hashlib
import tracemalloc

import pytest

from sspwct import mechanism
from sspwct.mechanism import (
    ComState,
    ComStep,
    InstanceTooLarge,
    branch_choice,
    cumulative_offer,
    find_blocking_set,
    holdings,
    is_individually_rational,
    stability_report,
)
from sspwct.generator import GeneratorConfig, generate_batch, generate_instance
from sspwct.model import canonical_json

from conftest import branch, make_instance, run_json, with_preference
from test_com_differential import BATCHES, POLICIES


def contested_instance():
    # one seat that accepts only x; the shadow would take y but only when the
    # original stays vacant
    return make_instance(
        [("x", "A", "b"), ("y", "B", "b")],
        {"A": ("x",), "B": ("y",)},
        [branch(n=1, transfer=(1,), original=[("x",)], shadow=[("y", "x")])],
    )


def replay_trace(inst, trace):
    """Re-derive every step's legality from the recorded pools: the proposer
    was not held, proposed her favorite not-yet-rejected contract, which is
    her first not-yet-proposed one, and the verdict matches the branch's
    choice."""
    pools = {b: frozenset() for b in inst.branches}
    rejected = set()
    proposed = dict.fromkeys(inst.agents, 0)
    for step in trace.steps:
        held = {
            inst.contract_index[c].agent
            for b in inst.branches
            for c in branch_choice(inst, b, pools[b]).chosen
        }
        assert step.agent not in held
        favorite = next(
            (c for c in inst.preferences[step.agent] if c not in rejected), None
        )
        assert favorite == step.contract == inst.preferences[step.agent][proposed[step.agent]]
        proposed[step.agent] += 1
        b = inst.contract_index[step.contract].branch
        new_pool = pools[b] | {step.contract}
        chosen = branch_choice(inst, b, new_pool).chosen
        assert step.verdict == ("held" if step.contract in chosen else "rejected")
        for other, pool in step.pools.items():
            assert frozenset(pool) >= pools[other]  # pools only grow
        pools = {other: frozenset(pool) for other, pool in step.pools.items()}
        rejected |= new_pool - chosen
    final = frozenset().union(
        *(branch_choice(inst, b, pools[b]).chosen for b in inst.branches)
    )
    assert final == trace.outcome


class TestCumulativeOffer:
    def test_no_contention_everyone_gets_top_choice(self):
        inst = make_instance(
            [("x", "A", "b1"), ("y", "B", "b2")],
            {"A": ("x",), "B": ("y",)},
            [branch("b1", n=1, original=[("x",)]), branch("b2", n=1, original=[("y",)])],
        )
        trace = cumulative_offer(inst)
        assert trace.outcome == {"x", "y"}
        replay_trace(inst, trace)

    def test_agent_with_empty_ranking_never_proposes(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ()}, [branch(n=1, original=[("x",)])]
        )
        trace = cumulative_offer(inst)
        assert trace.outcome == frozenset()
        assert trace.steps == ()

    def test_contested_seat_same_outcome_under_both_orders(self):
        inst = contested_instance()
        lex = cumulative_offer(inst, policy="lex")
        assert lex.outcome == {"x"}
        # the step log shows B's contract held then bumped under orders where
        # B moves first; the outcome never changes
        for seed in range(10):
            rnd = cumulative_offer(inst, policy="random", seed=seed)
            assert rnd.outcome == {"x"}
            replay_trace(inst, rnd)

    def test_rejected_contract_never_reproposed(self):
        inst = contested_instance()
        for seed in range(5):
            trace = cumulative_offer(inst, policy="random", seed=seed)
            assert len({s.contract for s in trace.steps}) == len(trace.steps)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            cumulative_offer(contested_instance(), policy="fifo")

    def test_traces_replay_on_random_instances(self):
        for seed in range(15):
            inst = generate_instance(GeneratorConfig(seed=seed, agents=4 + seed))
            trace = cumulative_offer(inst, policy="random" if seed % 2 else "lex", seed=seed)
            replay_trace(inst, trace)
            # every step proposes a contract its agent has not proposed before
            assert len(trace.moves) <= sum(len(ranking) for ranking in inst.preferences.values())

    def test_terminates_when_an_agent_ranks_anothers_contract(self, monkeypatch):
        # invalid: A ranks B's x (validate_instance flags it); COM must still
        # stop, after at most one step per ranked contract
        inst = make_instance(
            [("x", "B", "b"), ("y", "A", "b")],
            {"A": ("x", "y"), "B": ("x",)},
            [branch(n=2, location=(2, 2), original=[("x", "y"), ("y", "x")])],
        )
        choose, calls = mechanism.sspwct_choose, []

        def counted(*args):
            calls.append(args)
            if len(calls) > 100:
                raise RuntimeError("COM made more than 100 choice calls")
            return choose(*args)

        monkeypatch.setattr(mechanism, "sspwct_choose", counted)
        trace = cumulative_offer(inst)
        assert [(agent, cid) for agent, cid, *_ in trace.moves] == [("A", "x"), ("A", "y")]
        assert len(calls) == 2

    def test_trace_logs_moves_and_builds_steps_on_read(self, monkeypatch):
        # COM keeps one pool per branch and a move log, so what a run
        # retains does not grow with steps x pool size; steps (and their
        # pools) are built only when read
        inst = generate_instance(GeneratorConfig(seed=3400, agents=200, branches=10, capacity=(15, 15)))
        cumulative_offer(inst)  # warm the instance's cached lookups
        built = []
        monkeypatch.setattr(mechanism, "ComStep", lambda **step: built.append(step) or ComStep(**step))
        tracemalloc.start()
        try:
            trace = cumulative_offer(inst)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000
        assert built == []
        steps = trace.steps
        assert len(steps) == len(trace.moves) == len(built) > 500
        assert steps[-1].pools.keys() == inst.branches.keys()


def snapshot(state):
    """Copies of everything a run or a fork may change."""
    return ({b: set(pool) for b, pool in state.pools.items()}, dict(state.choices), dict(state.proposed),
            dict(state.held), list(state.eligible), list(state.moves), dict(state.preferences))


class TestComState:
    def paused(self):
        """A lex run paused at the turn of the fourth of eight agents."""
        inst = generate_instance(GeneratorConfig(seed=41, agents=8))
        agent = inst.agents[3]
        state = ComState(inst)
        state.run(stop=agent)
        return inst, agent, state

    def test_a_stop_agent_pauses_the_run_before_its_turn(self):
        inst, agent, state = self.paused()
        assert state.moves and all(mover < agent for mover, *_ in state.moves)
        assert state.eligible[0] >= agent
        state.run()  # resuming finishes the run a single call makes
        full = cumulative_offer(inst)
        assert state.moves == full.moves and state.outcome == full.outcome

    def test_views_read_on_a_paused_run_follow_it_when_it_resumes(self):
        inst, agent, state = self.paused()
        assert len(state.steps) == len(state.moves)
        paused_seats = state.seats
        state.run()
        assert len(state.steps) == len(state.moves)
        assert state.seats == cumulative_offer(inst).seats != paused_seats

    def test_cumulative_offer_returns_its_finished_state(self):
        run = cumulative_offer(generate_instance(GeneratorConfig(seed=41, agents=8)))
        assert isinstance(run, ComState) and run.moves and run.eligible == []
        moves = list(run.moves)
        run.run()
        assert run.moves == moves

    def test_running_a_fork_leaves_the_parent_unchanged(self):
        inst, agent, state = self.paused()
        before = snapshot(state)
        report = tuple(reversed(inst.contracts_of_agent[agent]))
        assert report != inst.preferences[agent]
        fork = state.fork(agent, report)
        fork.run()
        assert len(fork.moves) > len(state.moves) and fork.preferences[agent] == report
        assert snapshot(state) == before
        assert fork.outcome == cumulative_offer(with_preference(inst, agent, report)).outcome

    def test_forking_an_agent_who_has_proposed_raises(self):
        inst, agent, state = self.paused()
        mover = state.moves[0][0]
        with pytest.raises(ValueError, match=f"agent {mover} has proposed"):
            state.fork(mover, ())

    def test_a_fork_lists_the_agent_as_her_new_ranking_allows(self):
        inst, agent, state = self.paused()
        assert agent in state.eligible
        assert agent not in state.fork(agent, ()).eligible
        assert agent in state.fork(agent, ()).fork(agent, inst.preferences[agent]).eligible

    def test_a_stop_agent_under_the_random_policy_raises(self):
        state = ComState(contested_instance(), policy="random", seed=1)
        with pytest.raises(ValueError, match="only under the lex policy"):
            state.run(stop="B")
        assert state.moves == []


#: sha256 of every run's moves and trace JSON, per batch of
#: ``test_com_differential``, recorded before COM became a state object
MOVES_DIGESTS = {
    "12x3": "a5a0599315f055e0b7cd01a6b3b4afe9ca8fe577802143670c1a1ec69a75e882",
    "30x4": "82e2fb5a38134e5eaa6ebb6f6debeb61ce6478f5917b681f3c6ee8216f8d2094",
    "default": "58849b1ed268f752d452f1b3bad80be805036bd36287b2a3aa11948c2a4e6a2d",
}


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_cumulative_offer_moves_and_traces_are_unchanged(batch):
    cfg, count = BATCHES[batch]
    digest = hashlib.sha256()
    for inst in generate_batch(cfg, count):
        for policy, seed in POLICIES:
            trace = cumulative_offer(inst, policy=policy, seed=seed)
            digest.update(canonical_json({"moves": trace.moves, "trace": run_json(trace)}).encode())
    assert digest.hexdigest() == MOVES_DIGESTS[batch]


class TestIndividualRationality:
    def test_empty_outcome(self):
        assert is_individually_rational(contested_instance(), frozenset())

    def test_unlisted_contract_fails(self):
        inst = make_instance(
            [("x", "A", "b")], {"A": ()}, [branch(n=1, original=[("x",)])]
        )
        assert not is_individually_rational(inst, frozenset({"x"}))

    def test_branch_must_rechoose_its_assignment(self):
        # y sits at the seat although the branch would pick x from {x, y}
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": ("x",), "B": ("y",)},
            [branch(n=1, original=[("x", "y")])],
        )
        assert is_individually_rational(inst, frozenset({"x"}))
        assert is_individually_rational(inst, frozenset({"y"}))  # alone, y is chosen
        com = cumulative_offer(inst).outcome
        assert is_individually_rational(inst, com)

    def test_com_outcome_rational_on_random_instances(self):
        for seed in range(20):
            inst = generate_instance(GeneratorConfig(seed=100 + seed))
            assert is_individually_rational(inst, cumulative_offer(inst).outcome)


class TestBlocking:
    def test_empty_instance(self):
        inst = make_instance([], {}, [branch(n=1)])
        assert find_blocking_set(inst, frozenset()) is None

    def test_vacant_seat_with_mutual_interest_blocks(self):
        inst = make_instance(
            [("c", "a", "b")], {"a": ("c",)}, [branch(n=1, original=[("c",)])]
        )
        assert find_blocking_set(inst, frozenset()) == ("b", frozenset({"c"}))
        report = stability_report(inst, frozenset())
        assert (report.violations, report.individually_rational) == ((), True)
        assert report.blocking == ("b", frozenset({"c"}))
        assert not report.stable

    def test_com_outcome_never_blocked(self):
        for seed in range(20):
            inst = generate_instance(GeneratorConfig(seed=200 + seed))
            outcome = cumulative_offer(inst).outcome
            assert find_blocking_set(inst, outcome) is None
            assert stability_report(inst, outcome).stable

    def test_enumeration_bound_enforced(self):
        inst = make_instance(
            [("c1", "a", "b"), ("c2", "a2", "b"), ("c3", "a3", "b")],
            {"a": ("c1",), "a2": ("c2",), "a3": ("c3",)},
            [branch(n=1, original=[("c1",)])],
        )
        with pytest.raises(InstanceTooLarge):
            find_blocking_set(inst, frozenset(), bound=2)
        with pytest.raises(InstanceTooLarge):
            stability_report(inst, frozenset(), bound=2)

    def test_infeasible_outcome_not_stable(self):
        inst = make_instance(
            [("c1", "a", "b"), ("c2", "a", "b")],
            {"a": ("c1", "c2")},
            [branch(n=2, location=(2, 2), original=[("c1",), ("c2",)])],
        )
        report = stability_report(inst, frozenset({"c1", "c2"}))  # two contracts, one agent
        assert report.violations == ("outcome: agent a holds 2 contracts",)
        assert (report.individually_rational, report.blocking, report.stable) == (False, None, False)


class TestStabilityReport:
    def test_stable_outcome(self):
        inst = contested_instance()
        report = stability_report(inst, frozenset({"x"}))
        assert (report.violations, report.individually_rational, report.blocking) == ((), True, None)
        assert report.stable

    def test_not_individually_rational_still_reports_blocking_set(self):
        # B holds y although y is unacceptable to her, and A's x blocks
        inst = make_instance(
            [("x", "A", "b"), ("y", "B", "b")],
            {"A": ("x",), "B": ()},
            [branch(n=1, original=[("x", "y")])],
        )
        report = stability_report(inst, frozenset({"y"}))
        assert report.violations == ()
        assert not report.individually_rational
        assert report.blocking == ("b", frozenset({"x"}))
        assert not report.stable


def test_assigned_contract_lookup():
    inst = contested_instance()
    held = holdings(inst, cumulative_offer(inst).outcome)
    assert held.get("A") == "x"
    assert held.get("B") is None


def test_holdings_keeps_the_favorite_of_several_whatever_the_set_order():
    # a faulty choice rule can leave A holding two contracts; x and z are
    # unlisted, so they tie below y and the smaller id wins the tie
    inst = make_instance(
        [("x", "A", "b"), ("y", "A", "b"), ("z", "A", "b")],
        {"A": ("y",)},
        [branch()],
    )
    for outcome, favorite in (({"x", "y", "z"}, "y"), ({"z", "x"}, "x")):
        for order in (sorted(outcome), sorted(outcome, reverse=True)):
            assert holdings(inst, order) == {"A": favorite}
