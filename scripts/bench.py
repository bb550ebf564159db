#!/usr/bin/env python
"""Perf-trajectory benchmark for the engine and the parallel experiment runner.

Times (a) two fixed single-deployment engine workloads -- Hetis, and a
decode-heavy static-TP run that exercises the baselines' execution unit and
its KV block ledger -- (b) a 4-point sweep grid executed serially
(``jobs=1``) and through the process pool (``jobs=4``), (c) a cache-hit rerun
of the same grid plus the clean-path cost of the fault-tolerance layer
(retries armed, journal fsync'd per point, nothing failing), and (d) the
fleet-planner search over the checked-in planner demo (wall-clock plus the
fraction of candidates the greedy pass pruned without simulating), then writes
the measurements -- wall seconds, µs per decoded token, events/sec, parallel
speedup, cache-hit fraction, and the perf-model LRU hit rates -- to
``BENCH_runner.json`` at the repo root.  That file is checked in, so the
repo's perf trajectory is recorded change over change.  Only the large-trace
memory leg runs under tracemalloc; the engine timings do not.

Determinism is the only gate: the parallel and cache-hit rows must be
bit-identical to the serial rows or the script exits non-zero.  The timing
numbers themselves are recorded, never thresholded -- CI machines are too
noisy for that.

    PYTHONPATH=src python scripts/bench.py            # full workload
    PYTHONPATH=src python scripts/bench.py --quick    # CI-sized (< ~30 s)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
try:  # runnable both as `python scripts/bench.py` and with PYTHONPATH=src set
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(ROOT / "src"))

from repro.api import build_cluster, build_system, quick_serve, run_system
from repro.config import DeploymentSpec, MetricsSpec, expand_grid
from repro.experiments.runner import SweepRunner, summary_row
from repro.kvcache.migration import ReplicaMigrationPlanner, plan_head_migration
from repro.models.spec import get_model_spec
from repro.perf.attention_model import DeviceAttentionModel
from repro.perf.commcost import attention_transfer_bytes
from repro.utils.rng import make_rng
from repro.workloads import (
    StreamingTrace,
    diurnal_phases,
    generate_trace,
    generate_trace_stream,
)


def _cache_stats(info) -> dict:
    lookups = info.hits + info.misses
    return {
        "hits": info.hits,
        "misses": info.misses,
        "currsize": info.currsize,
        "maxsize": info.maxsize,
        "hit_rate": round(info.hits / lookups, 4) if lookups else None,
    }


def _engine_row(workload: str, wall: float, result) -> dict:
    tokens = sum(record.output_tokens for record in result.metrics.records)
    return {
        "workload": workload,
        "wall_seconds": round(wall, 4),
        "decoded_tokens": tokens,
        "us_per_decoded_token": round(wall * 1e6 / tokens, 2) if tokens else None,
        "events": result.wall_clock_events,
        "events_per_second": round(result.wall_clock_events / wall, 1) if wall > 0 else None,
        "num_finished": result.summary.num_finished,
    }


def bench_engine(quick: bool) -> tuple[dict, dict]:
    """One fixed Hetis deployment end to end; also collects LRU hit rates."""
    num_requests = 32 if quick else 96
    rate = 6.0
    attention_transfer_bytes.cache_clear()
    DeviceAttentionModel.head_coefficient.cache_clear()
    t0 = time.perf_counter()
    result = quick_serve(
        model="llama-13b",
        system="hetis",
        dataset="sharegpt",
        request_rate=rate,
        num_requests=num_requests,
        seed=0,
    )
    wall = time.perf_counter() - t0
    caches = {
        "attention_transfer_bytes": _cache_stats(attention_transfer_bytes.cache_info()),
        "head_coefficient": _cache_stats(DeviceAttentionModel.head_coefficient.cache_info()),
    }
    engine = _engine_row(f"hetis/llama-13b/sharegpt @ {rate:g} req/s, n={num_requests}", wall, result)
    return engine, caches


def bench_engine_static(quick: bool) -> dict:
    """Static TP on the paper cluster below its knee: big decode batches.

    Every decoded token goes through ``StaticPipelineUnit``'s KV ledger
    checks, so this leg tracks the baselines' per-token cost.  Median wall
    time of three identical runs.
    """
    num_requests = 150 if quick else 600
    rate = 2.75
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = quick_serve(
            model="llama-13b",
            system="static-tp",
            dataset="sharegpt",
            request_rate=rate,
            num_requests=num_requests,
            seed=0,
        )
        walls.append(time.perf_counter() - t0)
    workload = f"static-tp/llama-13b/sharegpt @ {rate:g} req/s, n={num_requests}, median of 3"
    return _engine_row(workload, sorted(walls)[1], result)


def _large_trace_system():
    return build_system("static-tp", build_cluster("small"), "llama-13b", dataset="humaneval")


def bench_large_trace(quick: bool) -> dict:
    """Streaming diurnal replay at production-scale N, plus the parity gate.

    The gate is exactness, not speed: a list ``Trace`` and a
    ``StreamingTrace`` over the same entries must produce bit-identical
    summary rows (lazy arrival feeding cannot perturb event order).  The
    large-N legs then replay a diurnal schedule through the streaming trace
    with bounded-memory metrics, recording events/sec and the tracemalloc
    peak at two sizes -- sub-linear peak growth is recorded, not thresholded.
    """
    parity_n = 512
    trace = generate_trace("humaneval", 40.0, parity_n, seed=0)
    stream = StreamingTrace.from_entries(
        trace.entries, dataset=trace.dataset, request_rate=trace.request_rate
    )
    row_list = summary_row(run_system(_large_trace_system(), trace))
    row_stream = summary_row(run_system(_large_trace_system(), stream))
    parity_ok = row_list == row_stream

    base_rate, peak_rate, period = 20.0, 60.0, 600.0
    # tracemalloc costs ~5-8x engine throughput, so the quick sizes stay small
    # (the sub-linearity signal survives; the full run covers 1e5 requests).
    sizes = (500, 5_000) if quick else (10_000, 100_000)
    runs = []
    for n in sizes:
        # Enough diurnal cycles that the schedule outlasts the request cap.
        cycles = max(1, math.ceil(n / (0.5 * (base_rate + peak_rate) * period)) + 1)
        phases = diurnal_phases(base_rate, peak_rate, period=period, cycles=cycles)
        tracemalloc.start()
        t0 = time.perf_counter()
        strm = generate_trace_stream("humaneval", 40.0, n, seed=0, phases=phases)
        result = run_system(
            _large_trace_system(),
            strm,
            metrics=MetricsSpec(mode="bounded", max_recorder_samples_per_key=4096),
        )
        wall = time.perf_counter() - t0
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        runs.append(
            {
                "num_requests": n,
                "wall_seconds": round(wall, 4),
                "events": result.wall_clock_events,
                "events_per_second": round(result.wall_clock_events / wall, 1) if wall > 0 else None,
                "num_finished": result.summary.num_finished,
                "peak_traced_mb": round(peak_bytes / 1e6, 2),
                "truncated": result.truncated,
            }
        )
    mem_ratio = (
        runs[1]["peak_traced_mb"] / runs[0]["peak_traced_mb"]
        if runs[0]["peak_traced_mb"] > 0
        else None
    )
    n_ratio = sizes[1] / sizes[0]
    return {
        "workload": (
            f"static-tp/llama-13b/humaneval diurnal ({base_rate:g}->{peak_rate:g} req/s), "
            "streaming trace + bounded metrics (tracemalloc peaks include the run only)"
        ),
        "parity_requests": parity_n,
        "streaming_rows_bit_identical": parity_ok,
        "runs": runs,
        "peak_memory_ratio": round(mem_ratio, 3) if mem_ratio is not None else None,
        "request_count_ratio": n_ratio,
        "peak_memory_sublinear": mem_ratio is not None and mem_ratio < n_ratio,
    }


def _migration_workload(model, num_plans: int, seed: int):
    """Deterministic synthetic allocations + replica moves for the planner legs."""
    rng = make_rng(seed)
    r = model.gqa_ratio
    groups = model.num_heads // r
    head_cases = []
    for _ in range(num_plans):
        num_devices = int(rng.integers(2, 7))
        context = int(rng.integers(64, 4096))
        old = {dev: 0 for dev in range(num_devices)}
        new = {dev: 0 for dev in range(num_devices)}
        for _ in range(groups):
            old[int(rng.integers(0, num_devices))] += r
            new[int(rng.integers(0, num_devices))] += r
        head_cases.append((context, old, new))
    replica_moves = [
        (
            i,
            int(rng.integers(64, 4096)),
            int(rng.integers(0, 4)),
            int(rng.integers(4, 8)),
        )
        for i in range(num_plans)
    ]
    return head_cases, replica_moves


def bench_migration(quick: bool) -> dict:
    """Head-wise and replica-level migration planning over synthetic allocations.

    Times ``plan_head_migration`` across seeded random GQA placements and
    ``ReplicaMigrationPlanner.plan`` over a batch of whole-request moves.
    The gate is determinism: two passes over the same seed must price the
    same total byte volume or the script exits non-zero.
    """
    model = get_model_spec("llama-13b")
    num_plans = 500 if quick else 5_000
    planner = ReplicaMigrationPlanner(model, bandwidth_gbps=100.0)

    def one_pass():
        head_cases, replica_moves = _migration_workload(model, num_plans, seed=7)
        t0 = time.perf_counter()
        head_bytes = 0.0
        for seq_id, (context, old, new) in enumerate(head_cases):
            head_bytes += plan_head_migration(model, seq_id, context, old, new).total_bytes
        head_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        replica_plan = planner.plan(replica_moves)
        replica_s = time.perf_counter() - t0
        return head_bytes, head_s, replica_plan.total_bytes, replica_s

    head_bytes_a, head_s, replica_bytes_a, replica_s = one_pass()
    head_bytes_b, _, replica_bytes_b, _ = one_pass()
    return {
        "workload": f"llama-13b, {num_plans} head-wise plans + {num_plans}-request replica batch",
        "num_plans": num_plans,
        "head_plan_seconds": round(head_s, 4),
        "head_plans_per_second": round(num_plans / head_s, 1) if head_s > 0 else None,
        "head_plan_total_gb": round(head_bytes_a / 1e9, 4),
        "replica_plan_seconds": round(replica_s, 4),
        "replica_plan_total_gb": round(replica_bytes_a / 1e9, 4),
        "bytes_bit_identical": head_bytes_a == head_bytes_b
        and replica_bytes_a == replica_bytes_b,
    }


def _sweep_combos(quick: bool):
    num_requests = 16 if quick else 64
    spec = DeploymentSpec.from_dict(
        {
            "model": "llama-13b",
            "system": {"name": "hetis"},
            "cluster": {"kind": "small"},
            "workload": {
                "dataset": "sharegpt",
                "request_rate": 6.0,
                "num_requests": num_requests,
                "seed": 0,
            },
        }
    )
    combos = expand_grid(
        spec, {"workload.request_rate": [4.0, 8.0], "workload.seed": [0, 1]}
    )
    desc = f"hetis/llama-13b/sharegpt on 'small', rate x seed grid, n={num_requests}"
    return combos, desc


def _rows(results) -> list:
    for res in results:
        if res.error is not None:
            raise SystemExit(f"bench sweep point {res.label} failed: {res.error}")
    return [res.row for res in results]


def bench_sweep(quick: bool, parallel_jobs: int) -> dict:
    combos, desc = _sweep_combos(quick)

    t0 = time.perf_counter()
    serial_rows = _rows(SweepRunner(jobs=1).run(combos))
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_rows = _rows(SweepRunner(jobs=parallel_jobs).run(combos))
    parallel_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as cache_dir:
        t0 = time.perf_counter()
        cold_results = SweepRunner(jobs=1, cache_dir=cache_dir).run(combos)
        cold_s = time.perf_counter() - t0
        warm_runner = SweepRunner(jobs=1, cache_dir=cache_dir)
        t0 = time.perf_counter()
        warm_results = warm_runner.run(combos)
        warm_s = time.perf_counter() - t0
        cache_hits, cache_misses = warm_runner.cache.hits, warm_runner.cache.misses
    if not all(r.cached for r in warm_results):
        raise SystemExit("bench: cache-hit rerun unexpectedly re-simulated points")

    # Clean-path cost of the fault-tolerance layer: retries armed and a journal
    # line fsync'd per point, but nothing fails.  Timing is recorded (never
    # thresholded); the bit-identity of the rows is the gate.
    with tempfile.TemporaryDirectory(prefix="bench-sweep-journal-") as journal_dir:
        ft_runner = SweepRunner(
            jobs=1,
            max_retries=2,
            backoff_base=0.5,
            journal=os.path.join(journal_dir, "run.journal"),
        )
        t0 = time.perf_counter()
        ft_results = ft_runner.run(combos)
        ft_s = time.perf_counter() - t0
    if _rows(ft_results) != serial_rows:
        raise SystemExit("bench: journaled fault-tolerant run diverged from serial rows")

    return {
        "workload": desc,
        "points": len(combos),
        "serial_seconds": round(serial_s, 4),
        "parallel_jobs": parallel_jobs,
        "parallel_seconds": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
        "cache_cold_seconds": round(cold_s, 4),
        "cache_warm_seconds": round(warm_s, 4),
        "cache_warm_fraction_of_cold": round(warm_s / cold_s, 4) if cold_s > 0 else None,
        "cache_rerun_hits": cache_hits,
        "cache_rerun_misses": cache_misses,
        "rows_bit_identical": parallel_rows == serial_rows,
        "cache_rows_bit_identical": _rows(cold_results) == serial_rows
        and _rows(warm_results) == serial_rows,
        "fault_tolerant_serial_seconds": round(ft_s, 4),
        "fault_tolerance_overhead_fraction": round(ft_s / serial_s - 1.0, 4)
        if serial_s > 0
        else None,
        "fault_tolerant_rows_bit_identical": _rows(ft_results) == serial_rows,
    }


def bench_planner(quick: bool, parallel_jobs: int) -> dict:
    """Time the fleet-planner search over the checked-in demo study.

    Records search wall-clock and the fraction of candidates the greedy pass
    proved dominated without simulating.  The gate: re-running the search with
    a parallel evaluation pool must produce a bit-identical PlanResult.
    """
    from dataclasses import replace

    from repro.experiments.planner import FleetPlanner, load_planner

    planner = load_planner(ROOT / "examples" / "configs" / "planner_slo.toml")
    if quick:
        planner = replace(
            planner,
            deployment=planner.deployment.with_overrides({"workload.num_requests": 24}),
        )

    t0 = time.perf_counter()
    serial = FleetPlanner(planner, jobs=1).plan()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = FleetPlanner(planner, jobs=parallel_jobs).plan()
    parallel_s = time.perf_counter() - t0

    return {
        "config": "examples/configs/planner_slo.toml",
        "candidates": serial.total_points,
        "evaluated": serial.num_evaluated,
        "pruned": serial.num_pruned,
        "filtered": serial.num_filtered,
        "pruned_fraction": round(serial.num_pruned / serial.total_points, 4)
        if serial.total_points
        else None,
        "search_serial_seconds": round(serial_s, 4),
        "search_parallel_seconds": round(parallel_s, 4),
        "plan": serial.best.label if serial.best is not None else None,
        "plan_cost_per_hour": serial.best.cost_per_hour if serial.best is not None else None,
        "result_bit_identical": serial.to_dict() == parallel.to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument("--jobs", type=int, default=4, help="pool width for the parallel leg")
    parser.add_argument(
        "--out", default=str(ROOT / "BENCH_runner.json"), help="output JSON path"
    )
    args = parser.parse_args(argv)

    print(f"== engine workload ({'quick' if args.quick else 'full'}) ==")
    engine, caches = bench_engine(args.quick)
    engine_static = bench_engine_static(args.quick)
    for leg in (engine, engine_static):
        print(
            f"  {leg['workload']}: {leg['wall_seconds']}s, "
            f"{leg['us_per_decoded_token']} µs/decoded token, "
            f"{leg['events']} events ({leg['events_per_second']}/s)"
        )
    for name, stats in caches.items():
        print(f"  lru {name}: hit rate {stats['hit_rate']}, size {stats['currsize']}/{stats['maxsize']}")

    print(f"== sweep grid: serial vs jobs={args.jobs} vs cache rerun ==")
    sweep = bench_sweep(args.quick, args.jobs)
    print(
        f"  {sweep['points']} points: serial {sweep['serial_seconds']}s, "
        f"parallel {sweep['parallel_seconds']}s (speedup {sweep['parallel_speedup']}x), "
        f"cache rerun {sweep['cache_warm_seconds']}s "
        f"({sweep['cache_warm_fraction_of_cold']} of cold)"
    )
    print(
        f"  fault-tolerance clean path (retries + journal): "
        f"{sweep['fault_tolerant_serial_seconds']}s "
        f"(overhead {sweep['fault_tolerance_overhead_fraction']:+.2%} vs serial)"
    )

    print(f"== fleet-planner search (jobs=1 vs jobs={args.jobs}) ==")
    planner = bench_planner(args.quick, args.jobs)
    print(
        f"  {planner['candidates']} candidates: evaluated {planner['evaluated']}, "
        f"pruned {planner['pruned']} ({planner['pruned_fraction']} of grid), "
        f"search {planner['search_serial_seconds']}s serial / "
        f"{planner['search_parallel_seconds']}s parallel -> {planner['plan']}"
    )

    print("== migration planning (head-wise + replica-level) ==")
    migration = bench_migration(args.quick)
    print(
        f"  {migration['workload']}: head-wise {migration['head_plan_seconds']}s "
        f"({migration['head_plans_per_second']}/s, {migration['head_plan_total_gb']} GB priced), "
        f"replica batch {migration['replica_plan_seconds']}s "
        f"({migration['replica_plan_total_gb']} GB priced)"
    )

    print("== large-trace streaming replay (diurnal, bounded metrics) ==")
    large = bench_large_trace(args.quick)
    print(f"  parity @ n={large['parity_requests']}: "
          f"{'bit-identical' if large['streaming_rows_bit_identical'] else 'DIVERGED'}")
    for run_info in large["runs"]:
        print(
            f"  n={run_info['num_requests']}: {run_info['wall_seconds']}s, "
            f"{run_info['events']} events ({run_info['events_per_second']}/s), "
            f"peak {run_info['peak_traced_mb']} MB"
        )
    print(
        f"  peak memory ratio {large['peak_memory_ratio']}x for "
        f"{large['request_count_ratio']:g}x requests "
        f"({'sub-linear' if large['peak_memory_sublinear'] else 'NOT sub-linear'})"
    )

    payload = {
        "benchmark": "parallel-experiment-runner",
        "quick": args.quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "engine": engine,
        "engine_static_tp": engine_static,
        "lru_caches": caches,
        "sweep": sweep,
        "planner": planner,
        "migration": migration,
        "engine_large_trace": large,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    # Determinism is the gate; wall-clock numbers are recorded, not enforced.
    if not sweep["rows_bit_identical"] or not sweep["cache_rows_bit_identical"]:
        print("bench FAILED: parallel/cached rows diverge from the serial run", file=sys.stderr)
        return 1
    if not large["streaming_rows_bit_identical"]:
        print(
            "bench FAILED: streaming-trace engine run diverges from the list-trace run",
            file=sys.stderr,
        )
        return 1
    if not planner["result_bit_identical"]:
        print(
            "bench FAILED: parallel fleet-planner search diverges from the serial run",
            file=sys.stderr,
        )
        return 1
    if not migration["bytes_bit_identical"]:
        print(
            "bench FAILED: migration planning priced different byte volumes across passes",
            file=sys.stderr,
        )
        return 1
    if sweep["parallel_speedup"] is not None and sweep["parallel_speedup"] < 1.0:
        print(
            f"note: parallel leg slower than serial ({sweep['parallel_speedup']}x) -- "
            f"expected on boxes with few cores (this one reports {os.cpu_count()})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
