"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps sspwct's public functions and rebinds every name through
which the program reaches them: module globals (``oracles`` and ``cli``
import ``cumulative_offer`` by name, ``mechanism`` reaches the choice rule
through its own ``sspwct_choose`` binding) and default arguments
(``oracles`` binds ``sspwct_choose`` and ``completion_choose`` as ``rule=``
defaults when it is imported).  A layer the program stops reaching through
these names reads zero, and the benchmark's own test fails on it.

Spans are inclusive: ``mechanism.com_s`` contains the choice calls COM
makes, and ``mechanism.com_self_s`` subtracts them.  Install the tracer only
in a child process; it is never removed.
"""
from __future__ import annotations

import functools
import gc
import sys
import time
import tracemalloc
import types
from collections import Counter
from collections.abc import Sized

#: per-layer metric -> (unit, better, workloads on which it must be non-zero)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "model.parse_s": ("s", "lower", ("market-run", "market-trace")),
    "model.validate_s": ("s", "lower", ("market-run", "market-trace")),
    "model.serialize_s": ("s", "lower", ("market-run", "market-trace")),
    "choice.calls": ("count", "lower", ("market-run", "market-trace", "oracle-battery")),
    "choice.s": ("s", "lower", ("market-run", "market-trace", "oracle-battery")),
    "choice.mean_offers": ("offers", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.com_calls": ("count", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.com_s": ("s", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.com_self_s": ("s", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.com_steps": ("count", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.held_ratio": ("ratio", "higher", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.trace_pool_entries": ("count", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.com_peak_mb": ("MB", "lower", ("market-run", "market-trace", "oracle-battery")),
    "mechanism.stability_s": ("s", "lower", ("oracle-battery",)),
    "oracles.completion_s": ("s", "lower", ("oracle-battery",)),
    "oracles.substitutability_s": ("s", "lower", ("oracle-battery",)),
    "oracles.irc_s": ("s", "lower", ("oracle-battery",)),
    "oracles.lad_s": ("s", "lower", ("oracle-battery",)),
    "oracles.reduction_s": ("s", "lower", ("oracle-battery",)),
    "oracles.stability_s": ("s", "lower", ("oracle-battery",)),
    "oracles.strategy_proofness_s": ("s", "lower", ("oracle-battery",)),
    "oracles.improvements_s": ("s", "lower", ("oracle-battery",)),
    "oracles.order_independence_s": ("s", "lower", ("oracle-battery",)),
    "oracles.checks": ("count", "higher", ("oracle-battery",)),
    "oracles.com_calls": ("count", "lower", ("oracle-battery",)),
    "comparative.flexibility_s": ("s", "lower", ("market-trace",)),
    "comparative.chain_s": ("s", "lower", ("market-trace",)),
    "comparative.add_contracts_s": ("s", "lower", ("market-trace",)),
    "comparative.com_calls": ("count", "lower", ("market-trace",)),
    "cli.run_s": ("s", "lower", ("market-run",)),
    "cli.run_trace_s": ("s", "lower", ("market-trace",)),
    "cli.experiment_s": ("s", "lower", ("market-trace",)),
    "cli.oracle_s": ("s", "lower", ("oracle-battery",)),
    "cli.stdout_bytes": ("bytes", "lower", ("market-run", "market-trace", "oracle-battery")),
    "gc_s": ("s", "lower", ("market-run", "market-trace", "oracle-battery")),
    "gc.collections": ("count", "lower", ("market-run", "market-trace", "oracle-battery")),
    "tracing_overhead_s": ("s", "lower", ("market-run", "market-trace", "oracle-battery")),
}

#: oracle suite metric -> check function in ``sspwct.oracles``
SUITE_CHECKS = {
    "completion": "check_completion",
    "substitutability": "check_substitutability",
    "irc": "check_irc",
    "lad": "check_lad",
    "reduction": "check_slot_specific_reduction",
    "stability": "check_stability",
    "strategy_proofness": "check_strategy_proofness",
    "improvements": "check_respects_improvements",
    "order_independence": "check_order_independence",
}

_MB = 1024 * 1024


class GcClock:
    """Counts collections and sums their pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def install(self) -> None:
        gc.callbacks.append(self._callback)


class Tracer:
    """Per-layer totals.  With ``memory``, every COM call runs under
    tracemalloc and ``mechanism.com_peak_mb`` records the largest peak of
    memory allocated inside one call; that slows COM, so its times are then
    not representative."""

    def __init__(self, memory: bool = False) -> None:
        self.totals: Counter = Counter()
        self.enabled = True
        self.memory = memory
        self._active: Counter = Counter()

    # -- spans --

    def add(self, metric: str, amount: float) -> None:
        if self.enabled:
            self.totals[metric] += amount

    def _span(self, fn, metric: str, scope: str | None = None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if scope:
                tracer._active[scope] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.totals[metric] += time.perf_counter() - start
                if scope:
                    tracer._active[scope] -= 1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _choice(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(cfg, offers, contracts):
            if not tracer.enabled:
                return fn(cfg, offers, contracts)
            if not isinstance(offers, Sized):
                offers = tuple(offers)
            start = time.perf_counter()
            try:
                return fn(cfg, offers, contracts)
            finally:
                elapsed = time.perf_counter() - start
                tracer.totals["choice.s"] += elapsed
                tracer.totals["choice.calls"] += 1
                tracer.totals["choice.offers"] += len(offers)
                if tracer._active["com"]:
                    tracer.totals["com.choice_s"] += elapsed

        return wrapper

    def _com(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if tracer.memory:
                tracemalloc.start()
            tracer._active["com"] += 1
            start = time.perf_counter()
            try:
                trace = fn(*args, **kwargs)
            finally:
                tracer.totals["mechanism.com_s"] += time.perf_counter() - start
                tracer._active["com"] -= 1
                if tracer.memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.totals["com.peak_bytes"] = max(tracer.totals["com.peak_bytes"], peak)
            totals = tracer.totals
            totals["mechanism.com_calls"] += 1
            totals["oracles.com_calls"] += bool(tracer._active["oracles"])
            totals["comparative.com_calls"] += bool(tracer._active["comparative"])
            totals["mechanism.com_steps"] += len(trace.steps)
            totals["com.held"] += sum(step.verdict == "held" for step in trace.steps)
            totals["mechanism.trace_pool_entries"] += sum(
                len(pool) for step in trace.steps for pool in step.pools.values()
            )
            return trace

        return wrapper

    def _count_checks(self, verdict) -> None:
        self.totals["oracles.checks"] += verdict.instances_checked

    # -- installation --

    def install(self) -> None:
        """Wrap the layer entry points and rebind every reference to them."""
        from sspwct import choice, comparative, mechanism, model, oracles

        targets = [
            (model.parse_instance, self._span(model.parse_instance, "model.parse_s")),
            (model.validate_instance, self._span(model.validate_instance, "model.validate_s")),
            (model.serialize_instance, self._span(model.serialize_instance, "model.serialize_s")),
            (choice.sspwct_choose, self._choice(choice.sspwct_choose)),
            (choice.completion_choose, self._choice(choice.completion_choose)),
            (mechanism.cumulative_offer, self._com(mechanism.cumulative_offer)),
            (mechanism.find_blocking_set,
             self._span(mechanism.find_blocking_set, "mechanism.stability_s")),
            (mechanism.is_individually_rational,
             self._span(mechanism.is_individually_rational, "mechanism.stability_s")),
            (comparative.flexibility_compare,
             self._span(comparative.flexibility_compare, "comparative.flexibility_s", "comparative")),
            (comparative.improvement_chain,
             self._span(comparative.improvement_chain, "comparative.chain_s", "comparative")),
            (comparative.add_contracts,
             self._span(comparative.add_contracts, "comparative.add_contracts_s", "comparative")),
        ]
        for suite, name in SUITE_CHECKS.items():
            check = getattr(oracles, name)
            targets.append(
                (check, self._span(check, f"oracles.{suite}_s", "oracles", self._count_checks))
            )
        _rebind({id(old): (old, new) for old, new in targets})

    def report(self) -> dict[str, float]:
        t = self.totals
        out = {name: t[name] for name in PER_LAYER if not name.startswith(("gc", "tracing_"))}
        out["choice.mean_offers"] = t["choice.offers"] / t["choice.calls"] if t["choice.calls"] else 0.0
        out["mechanism.held_ratio"] = t["com.held"] / t["mechanism.com_steps"] if t["mechanism.com_steps"] else 0.0
        out["mechanism.com_self_s"] = t["mechanism.com_s"] - t["com.choice_s"]
        out["mechanism.com_peak_mb"] = t["com.peak_bytes"] / _MB
        return out


def _rebind(replacements: dict[int, tuple[object, object]]) -> None:
    """Point every sspwct module global and every default argument of a
    sspwct function that refers to a replaced function at its wrapper."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "sspwct" or name.startswith("sspwct.")]
    functions = []
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, types.FunctionType):
                functions.append(value)
            elif isinstance(value, type) and value.__module__.startswith("sspwct"):
                functions += [v for v in vars(value).values() if isinstance(v, types.FunctionType)]

    def swap(value):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for module in modules:
        for name, value in list(vars(module).items()):
            setattr(module, name, swap(value))
    for fn in functions:
        if fn.__defaults__:
            fn.__defaults__ = tuple(swap(d) for d in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: swap(d) for k, d in fn.__kwdefaults__.items()}
