"""sspwct benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload market-run --seed 3 --seconds 40 --trace 0

Run from the root of a checkout.  The benchmark imports sspwct from the
checkout's ``src`` in fresh child processes (``child.py``), one per set-up
and one per pass over the workload's operations, all single-threaded and
one at a time.  It prints every metric by name with its unit, then as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the workload's set-ups and over at least two passes, more while they fit in
``--seconds``.  Times are scaled to a fixed host speed: this process, which
never imports sspwct, times a pure-Python reference loop before the set-ups,
after them and after every pass, and every time is multiplied by
``REFERENCE_S`` over the median of those loop times.

``--trace 1`` reports the per-layer metrics, unscaled: one traced set-up,
one untraced pass timing its GC pauses, one traced pass and one traced pass
with COM under tracemalloc for the memory metric; ``tracing_overhead_s`` is
the traced pass's wall time minus the untraced pass's.

``--smoke`` runs tiny markets (the benchmark's own test uses it) and
``--record`` writes the expected outputs of every variant to
``expected.json``.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
MIN_PASSES = 2
MAX_PASSES = 40
REFERENCE_LOOP_ITERATIONS = 3_000_000
#: The reference loop's time at the host speed that end-to-end times are
#: scaled to, about its time on the machine in README.md when that machine
#: runs fast.  The speed of that shared host drifts by up to 2.7x over
#: minutes, and the loop tracks it; one loop alone is noisy, so a run takes
#: the median of several.
REFERENCE_S = 0.3


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def child(mode: str, workload: str, variant: int, work: Path, smoke: bool, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--variant", str(variant), "--work", str(work), *flags]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} child of {workload} took over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{mode} child of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop that does not touch sspwct."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, list[dict]]:
    """End-to-end metrics: medians over set-ups and passes, times scaled to
    the host speed at which the reference loop takes ``REFERENCE_S``."""
    deadline = time.perf_counter() + args.seconds
    wl = WORKLOADS[args.workload]
    refs = [reference_loop_s()]
    setups = [child("setup", wl.name, args.variant, work, args.smoke)["setup_s"]
              for _ in range(wl.setups)]
    refs.append(reference_loop_s())
    passes, durations = [], []
    while len(passes) < MAX_PASSES:
        start = time.perf_counter()
        passes.append(child("ops", wl.name, args.variant, work, args.smoke))
        refs.append(reference_loop_s())
        durations.append(time.perf_counter() - start)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() + statistics.median(durations) > deadline):
            break
    scale = REFERENCE_S / statistics.median(refs)
    print("reference loop s before the set-ups, after them and after each pass: "
          + " ".join(f"{r:.3f}" for r in refs) + f"; time scale {scale:.3f}")
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": statistics.median(p["wall_s"] for p in passes) * scale,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def trace(args: argparse.Namespace, work: Path) -> tuple[dict, list[dict]]:
    """Per-layer metrics from a traced set-up and three passes: untraced
    with GC pauses timed, traced, and traced with COM under tracemalloc for
    ``mechanism.com_peak_mb`` only, because tracemalloc slows allocation."""
    name = args.workload
    setup_layers = child("setup", name, args.variant, work, args.smoke, "--trace")["layers"]
    untraced = child("ops", name, args.variant, work, args.smoke, "--gc")
    traced = child("ops", name, args.variant, work, args.smoke, "--trace")
    memory = child("ops", name, args.variant, work, args.smoke, "--trace", "--memory")
    metrics = dict(traced["layers"])
    for metric, value in setup_layers.items():
        if PER_LAYER[metric][0] == "s":
            metrics[metric] += value
    metrics["mechanism.com_peak_mb"] = memory["layers"]["mechanism.com_peak_mb"]
    metrics["gc_s"] = untraced["gc_s"]
    metrics["gc.collections"] = untraced["gc.collections"]
    metrics["tracing_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics, [untraced, traced, memory]


def record(args: argparse.Namespace, work: Path) -> None:
    """Record the summarized output of every variant at this version."""
    path = HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    for name in names:
        expected[name] = {}
        for size in ("full", "smoke"):
            expected[name][size] = {}
            for variant in range(VARIANTS):
                child("setup", name, variant, work, size == "smoke")
                result = child("ops", name, variant, work, size == "smoke", "--record")
                if result["failures"]:
                    raise HarnessError(f"{name} {size} variant {variant}: {result['failures']}")
                expected[name][size][str(variant)] = result["summaries"]
                print(f"recorded {name} {size} variant {variant}", file=sys.stderr)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def report(args: argparse.Namespace, metrics: dict, passes: list[dict]) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not measured: {', '.join(missing)}")
    failures = [line for p in passes for line in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} variant {args.variant} "
          f"passes {len(passes)}, unscaled wall_s per pass: "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"ops {attempted} count")
    print(f"failed_ops {len(failures)} count")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny markets, for the benchmark's test")
    parser.add_argument("--record", action="store_true", help="write expected.json and exit")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    args.variant = args.seed % VARIANTS

    if not (ROOT / "src" / "sspwct" / "__init__.py").is_file():
        print(f"no sspwct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            record(args, work)
            return 0
        metrics, passes = (trace if args.trace else measure)(args, work)
        result = report(args, metrics, passes)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
