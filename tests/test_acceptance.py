"""Acceptance battery.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
to see them all) and then asserts.  Every batch is seeded, so failures
reproduce exactly.
"""
import json
import random
import time
from dataclasses import replace

from sspwct.choice import sspwct_choose
from sspwct.cli import main as cli_main
from sspwct.comparative import (
    MODE_BOTTOM,
    MODE_SINGLE_AGENT,
    PARETO_DOMINATES,
    STRICTLY_BETTER,
    STRICTLY_WORSE,
    PreconditionUnmet,
    add_contracts,
    add_original_slot,
    flexibility_compare,
    improvement_chain,
    random_added_contracts,
    random_slot_ranking,
)
from sspwct.generator import GeneratorConfig, generate_instance
from sspwct.mechanism import cumulative_offer, stability_report
from sspwct.model import ORIGINAL, SHADOW, SlotId, parse_instance, validate_instance
from sspwct.oracles import (
    check_completion,
    check_irc,
    check_lad,
    check_order_independence,
    check_respects_improvements,
    check_slot_specific_reduction,
    check_strategy_proofness,
    check_substitutability,
    merge_verdicts,
)

from conftest import branch, make_instance
from test_oracles import no_guard_completion, parity_flipping_rule, stingy_rule


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def instances_with_zero_bit(count, base_seed, **kw):
    """First ``count`` generated instances that have a transfer bit to flip."""
    out = []
    seed = 0
    while len(out) < count:
        inst = generate_instance(GeneratorConfig(seed=base_seed + seed, **kw))
        seed += 1
        for b, cfg in inst.branches.items():
            for k, bit in enumerate(cfg.transfer, start=1):
                if bit == 0:
                    out.append((inst, b, k))
                    break
            else:
                continue
            break
    return out


def test_criterion_01_slot_sequence_fixtures():
    cases = {
        (1, 3, 3): ["o1", "e1", "o2", "o3", "e2", "e3"],
        (1, 2, 3): ["o1", "e1", "o2", "e2", "o3", "e3"],
        (3, 3, 3): ["o1", "o2", "o3", "e1", "e2", "e3"],
    }
    ok = True
    worst = 0.0
    for location, expected in cases.items():
        cfg = branch(n=3, location=location, transfer=(1, 1, 1))
        # slot_order is cached per config, so each timed read is on a fresh copy
        fresh = [replace(cfg) for _ in range(5)]
        assert not any("slot_order" in vars(c) for c in fresh)
        best = min(
            (lambda t0: (c.slot_order, time.perf_counter() - t0))(time.perf_counter())[1]
            for c in fresh
        )
        worst = max(worst, best)
        order = cfg.slot_order
        names = [("o" if s.kind == ORIGINAL else "e") + str(s.index) for s in order]
        ok = ok and names == expected
    ok = ok and worst < 0.001
    assert report(1, "slot-sequence fixtures", ok, f"3 fixtures exact, {worst * 1e6:.0f}us/call")


def test_criterion_02_reduction_to_slot_specific_rule():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    failures = []
    while checked < 100:
        inst = generate_instance(
            GeneratorConfig(
                seed=21000 + seed, agents=3, branches=1, capacity=(1, 3),
                contracts_per_pair=(0, 2), density=0.7, transfer_density=0.0,
            )
        )
        seed += 1
        b = next(iter(inst.branches))
        if len(inst.contracts_of_branch[b]) > 6:
            continue
        verdict = check_slot_specific_reduction(inst, b, bound=6)
        checked += 1
        if not verdict.ok:
            failures.append((21000 + seed - 1, verdict.witness))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10
    assert report(2, "slot-specific reduction", ok, f"{checked} configs, {elapsed:.1f}s") , failures[:1]


def test_criterion_03_completion_substitutability_irc_lad():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    failures = []
    checks = (check_completion, check_substitutability, check_irc, check_lad)
    verdicts = {check: [] for check in checks}
    while checked < 1000:
        inst = generate_instance(
            GeneratorConfig(
                seed=22000 + seed, agents=4, branches=1, capacity=(1, 3),
                contracts_per_pair=(0, 2), density=(0.5, 0.7, 0.9)[seed % 3],
                transfer_density=0.5,
            )
        )
        seed += 1
        b = next(iter(inst.branches))
        if len(inst.contracts_of_branch[b]) > 7:
            continue
        checked += 1
        for check in checks:
            # a config with nothing to check (no contract to reject) is vacuous
            verdict = check(inst, b, bound=7)
            verdicts[check].append(verdict)
            if verdict.status == "fail":
                failures.append((check.__name__, 22000 + seed - 1, verdict.witness))
    merged = {check.__name__: merge_verdicts(check.__name__, verdicts[check]).status for check in checks}
    elapsed = time.perf_counter() - t0
    ok = not failures and set(merged.values()) == {"pass"} and elapsed < 300
    assert report(
        3, "completion/substitutability/irc/lad", ok, f"{checked} configs x 4 oracles, {elapsed:.1f}s"
    ), (failures[:1], merged)


def test_criterion_03_mutation_sensitivity():
    gate = make_instance(
        [("a", "A", "b"), ("c", "C", "b")],
        {"A": ("a",), "C": ("c",)},
        [branch(n=1, transfer=(1,), original=[("a",)], shadow=[("c",)])],
    )
    nonsub = make_instance(
        [("u", "U", "b"), ("v", "W", "b"), ("z", "Z", "b"), ("zp", "W", "b")],
        {"U": ("u",), "W": ("v", "zp"), "Z": ("z",)},
        [branch(n=2, location=(2, 2), original=[("zp", "u"), ("v", "z")])],
    )
    trio = make_instance(
        [("a", "A", "b"), ("c", "C", "b"), ("d", "D", "b")],
        {"A": ("a",), "C": ("c",), "D": ("d",)},
        [branch(n=1, original=[("a", "c", "d")])],
    )
    fired = {
        "completion": not check_completion(gate, "b", completion_rule=no_guard_completion).ok,
        "substitutability": not check_substitutability(nonsub, "b", rule=sspwct_choose).ok,
        "irc": not check_irc(trio, "b", rule=parity_flipping_rule).ok,
        "lad": not check_lad(trio, "b", rule=stingy_rule).ok,
    }
    ok = all(fired.values())
    assert report(3, "mutation sensitivity", ok, f"witness produced by: {sorted(k for k, v in fired.items() if v)}")


def test_criterion_04_stability_of_mechanism_outcomes():
    t0 = time.perf_counter()
    failures = []
    for seed in range(500):
        if seed % 2 == 0:
            cfg = GeneratorConfig(seed=23000 + seed, agents=4, branches=3, capacity=(1, 3),
                                  contracts_per_pair=(0, 1), density=0.8, transfer_density=0.5)
        else:
            cfg = GeneratorConfig(seed=23000 + seed, agents=5, branches=2, capacity=(1, 3),
                                  contracts_per_pair=(0, 1), density=0.8, transfer_density=0.5)
        inst = generate_instance(cfg)
        assert len(inst.contracts) <= 12
        outcome = cumulative_offer(inst).outcome
        if not stability_report(inst, outcome).stable:
            failures.append(23000 + seed)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    assert report(4, "stability of mechanism outcomes", ok, f"500 instances, {elapsed:.1f}s"), failures[:3]


def test_criterion_05_strategy_proofness():
    t0 = time.perf_counter()
    failures = []
    for seed in range(300):
        inst = generate_instance(
            GeneratorConfig(seed=11000 + seed, agents=4, branches=2, capacity=(1, 3),
                            contracts_per_pair=(0, 2), density=0.7, transfer_density=0.5)
        )
        assert all(len(v) <= 4 for v in inst.contracts_of_agent.values())
        verdict = check_strategy_proofness(inst)
        if not verdict.ok:
            failures.append((11000 + seed, verdict.witness))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    assert report(5, "strategy-proofness", ok, f"300 instances, exhaustive misreports, {elapsed:.1f}s"), failures[:1]


def test_criterion_06_respects_improvements():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    failures = []
    for i in range(500):
        inst = generate_instance(
            GeneratorConfig(seed=12000 + i, agents=4, branches=2, capacity=(1, 3),
                            contracts_per_pair=(0, 2), density=0.7, transfer_density=0.4)
        )
        agent = rng.choice(inst.agents)
        verdict = check_respects_improvements(inst, agent, trials=1, seed=rng.randrange(10 ** 6))
        if not verdict.ok:
            failures.append((12000 + i, agent, verdict.witness))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    assert report(6, "respects improvements", ok, f"500 triples, {elapsed:.1f}s"), failures[:1]


def test_criterion_07_order_independence():
    t0 = time.perf_counter()
    failures = []
    for seed in range(200):
        inst = generate_instance(
            GeneratorConfig(seed=13000 + seed, agents=5, branches=3, capacity=(1, 3),
                            contracts_per_pair=(0, 1), density=0.8, transfer_density=0.5)
        )
        verdict = check_order_independence(inst, seeds=list(range(1, 21)))
        if not verdict.ok:
            failures.append((13000 + seed, verdict.witness))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    assert report(7, "order independence", ok, f"20 seeds x 200 instances, {elapsed:.1f}s"), failures[:1]


def test_criterion_08_transfer_flexibility_and_chain():
    t0 = time.perf_counter()
    batch = instances_with_zero_bit(
        300, 4000, agents=4, branches=2, capacity=(1, 3),
        contracts_per_pair=(0, 2), density=0.5, transfer_density=0.3,
    )
    violations, mismatches = [], []
    strict = chains = 0
    for inst, b, k in batch:
        rep = flexibility_compare(inst, b, k)
        if rep.verdict != PARETO_DOMINATES:
            violations.append(rep.to_json())
        if STRICTLY_BETTER in rep.per_agent.values():
            strict += 1
        try:
            chain = improvement_chain(inst, rep, b, k)
        except PreconditionUnmet:
            continue
        chains += 1
        if chain != rep.modified:
            mismatches.append((sorted(chain), sorted(rep.modified)))
    elapsed = time.perf_counter() - t0
    ok = not violations and not mismatches and strict >= 30 and elapsed < 180
    assert report(
        8, "transfer flexibility + improvement chain", ok,
        f"300 instances, {strict} strict, {chains} chains, {elapsed:.1f}s",
    ), (violations[:1], mismatches[:1], strict)


def _entry_batch(base_seed, count=200):
    for seed in range(count):
        yield seed, generate_instance(
            GeneratorConfig(seed=base_seed + seed, agents=4, branches=2, capacity=(1, 3),
                            contracts_per_pair=(0, 2),
                            density=(0.55, 0.7, 0.85)[seed % 3],
                            transfer_density=(0.1, 0.3, 0.5, 0.7)[seed % 4])
        )


def test_criterion_09a_capacity_expansion_never_hurts():
    t0 = time.perf_counter()
    failures = []
    for seed, inst in _entry_batch(8000):
        rng = random.Random(seed)
        b = rng.choice(sorted(inst.branches))
        ranking = random_slot_ranking(inst, b, rng)
        rep = add_original_slot(inst, b, ranking)
        if "strictly_worse" in rep.per_agent.values():
            failures.append((8000 + seed, rep.to_json()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    assert report(9, "added seat never hurts", ok, f"200 instances, {elapsed:.1f}s"), failures[:1]


def _zero_transfers(inst):
    return inst.with_branches({b: replace(cfg, transfer=(0,) * cfg.n) for b, cfg in inst.branches.items()})


def test_criterion_09b_bottom_contract_additions_never_hurt():
    """Bottom additions hurt no agent except through shadow deactivation.

    Under the SSPwCT rule a bottom-listed contract is chosen only at a seat
    that would otherwise stay vacant, and filling a vacant seat changes
    another seat only when it is a transfer-enabled original seat o_k: its
    shadow e_k loses its capacity and whoever held e_k is evicted.  So the
    all-agents guarantee of Kominers & Sönmez (2016) is checked in the form
    the rule satisfies:

    (a) no agent is hurt when no added contract is listed at a
        transfer-enabled original seat;
    (b) no agent is hurt on the transfer-zeroed copy with the same additions;
    (c) every instance where an agent is hurt has a deactivation witness
        (b, k): transfer bit 1, e_k occupied in the baseline seat ledger and
        o_k occupied in the modified one.  The contract on o_k need not be a
        new one: a chain can move an old contract there.
    """
    t0 = time.perf_counter()
    failures, witnessed = [], []
    guarded = controls = 0
    for seed, inst in _entry_batch(8000):
        rng = random.Random(10 ** 6 + seed)
        adds = random_added_contracts(inst, rng, MODE_BOTTOM, count=rng.randint(1, 2))
        rep = add_contracts(inst, adds, MODE_BOTTOM)
        hurt = sorted(a for a, s in rep.per_agent.items() if s == STRICTLY_WORSE)

        at_enabled_original = any(
            slot.kind == ORIGINAL and inst.branches[slot.branch].transfer[slot.index - 1] == 1
            for a in adds for slot in a.slot_positions
        )
        if not at_enabled_original:
            guarded += 1
            if hurt:
                failures.append(f"(a) seed {8000 + seed}: {hurt} hurt with no addition at a "
                                f"transfer-enabled original seat: {rep.to_json()}")

        zeroed = add_contracts(_zero_transfers(inst), adds, MODE_BOTTOM)
        controls += 1
        zero_hurt = sorted(a for a, s in zeroed.per_agent.items() if s == STRICTLY_WORSE)
        if zero_hurt:
            failures.append(f"(b) seed {8000 + seed}: {zero_hurt} hurt with every transfer "
                            f"bit zeroed: {zeroed.to_json()}")

        if hurt:
            # seat -> contract, read off each branch's final choice in the two COM runs
            before, after = rep.baseline_seats, rep.modified_seats
            enabled = [
                (b, k) for b, cfg in sorted(inst.branches.items())
                for k, bit in enumerate(cfg.transfer, start=1) if bit == 1
            ]
            witnesses = [
                (b, k) for b, k in enabled
                if SlotId(b, SHADOW, k) in before and SlotId(b, ORIGINAL, k) in after
            ]
            if witnesses:
                b, k = witnesses[0]
                witnessed.append(f"{8000 + seed} ({b}, {k})")
            else:
                failures.append(
                    f"(c) seed {8000 + seed}: {hurt} hurt but no transfer-enabled (b, k) "
                    f"among {enabled} has e_k held before and o_k held after: "
                    f"baseline ledger {before}, modified ledger {after}"
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and guarded >= 50 and elapsed < 300
    assert report(
        9, "bottom additions hurt only via shadow deactivation", ok,
        f"200 instances, {guarded} with no addition at a transfer-enabled original seat, "
        f"{controls} zeroed controls, {len(witnessed)} violations each with a witness "
        f"seed (b, k): {', '.join(witnessed)}, {elapsed:.1f}s",
    ), (failures[:2], guarded)


def test_criterion_09c_single_agent_additions_never_hurt_owner():
    t0 = time.perf_counter()
    failures = []
    for seed, inst in _entry_batch(8000):
        rng = random.Random(2 * 10 ** 6 + seed)
        adds = random_added_contracts(inst, rng, MODE_SINGLE_AGENT, count=rng.randint(1, 2))
        rep = add_contracts(inst, adds, MODE_SINGLE_AGENT)
        owner = next(iter(rep.protected))
        if rep.per_agent[owner] == "strictly_worse":
            failures.append((8000 + seed, rep.to_json()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    assert report(9, "own additions never hurt owner", ok, f"200 instances, {elapsed:.1f}s"), failures[:1]


def test_criterion_10_cli_pipeline(tmp_path, capsys):
    t0 = time.perf_counter()
    inst_a = tmp_path / "a.json"
    inst_b = tmp_path / "b.json"
    assert cli_main(["gen", "--seed", "17", "--out", str(inst_a)]) == 0
    assert cli_main(["gen", "--seed", "17", "--out", str(inst_b)]) == 0
    identical = inst_a.read_bytes() == inst_b.read_bytes()

    assert cli_main(["run", str(inst_a)]) == 0
    outcome_path = tmp_path / "outcome.json"
    outcome_path.write_text(capsys.readouterr().out)  # verify consumes run's output

    verify_code = cli_main(["verify", str(inst_a), str(outcome_path)])
    capsys.readouterr()
    oracle_code = cli_main(
        ["oracle", "--gen", "--count", "10", "--suite", "all", "--seed", "17", "--trials", "10"]
    )
    doc = json.loads(capsys.readouterr().out)
    all_green = all(v["status"] == "pass" for v in doc["verdicts"])
    parsed = not validate_instance(parse_instance(inst_a.read_bytes()))
    elapsed = time.perf_counter() - t0
    ok = identical and verify_code == 0 and oracle_code == 0 and all_green and parsed
    assert report(10, "cli pipeline round-trip", ok, f"gen/run/verify/oracle, {elapsed:.1f}s")
