"""One measured interpreter of the benchmark; ``run.py`` starts it.

    python3 hetisbench/child.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --out RESULT.json [--chrome-trace SPANS.json]

``setup`` performs only the set-up phase (imports, specs and grid, build,
trace generation, one untimed warm-up) and reports its CPU cost.
``measure`` continues into the timed window: untraced repetitions of the
workload until ``--seconds`` of wall time have passed.  ``trace`` runs one
untraced and one traced repetition and reports the per-layer table.

Host time is process CPU time (``time.process_time``); for the sweep it also
counts the reaped pool workers (``RUSAGE_CHILDREN``).  Every repetition is
checked: request conservation, no truncation, no errored points, and
identical simulated results each time the same input is replayed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import TAIL_SAMPLES_BEYOND, WORKLOADS  # noqa: E402

cpu = time.process_time
wall = time.perf_counter


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reap_children() -> None:
    """Join exited pool workers so ``RUSAGE_CHILDREN`` includes them."""
    for proc in multiprocessing.active_children():
        proc.join()


def tail(values: List[float]) -> float:
    """The order statistic with exactly ``TAIL_SAMPLES_BEYOND`` samples above it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 1 - TAIL_SAMPLES_BEYOND]


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------------ serve workloads


class ServeBench:
    """In-process repetitions of ``build(spec).run()`` over a few traces."""

    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.setup: Dict[str, float] = {}
        self.attempted = 0
        self.first: Dict[int, Dict[str, Any]] = {}  # trace index -> first repetition's results

    def set_up(self) -> None:
        from repro.api import build
        from repro.config import DeploymentSpec

        self.setup["import_s"] = cpu()
        t = cpu()
        self.specs = [DeploymentSpec.from_dict(self.w.spec_dict(s, self.w.requests))
                      for s in self.w.trace_seeds(self.seed)]
        prepared = [build(spec) for spec in self.specs]
        self.setup["build_s"] = cpu() - t
        t = cpu()
        self.offered = [len(p.trace) for p in prepared]
        self.setup["trace_s"] = cpu() - t
        t = cpu()
        warm = DeploymentSpec.from_dict(self.w.spec_dict(self.w.trace_seeds(self.seed)[0], self.w.warmup_requests))
        build(warm).run()
        self.setup["warmup_s"] = cpu() - t
        self.build = build

    def rep(self, i: int) -> Dict[str, Any]:
        """One timed repetition on trace ``i``; checks it and returns its figures."""
        spec = self.specs[i]
        self.attempted += self.offered[i]
        w0, c0 = wall(), cpu()
        result = self.build(spec).run()
        cpu_s, wall_s = cpu() - c0, wall() - w0
        records = result.metrics.records
        summary = result.summary
        slo = spec.slo
        out = {
            "trace": i,
            "cpu_s": cpu_s,
            "wall_s": wall_s,
            "offered": self.offered[i],
            "finished": summary.num_finished,
            "tokens": sum(r.output_tokens for r in records),
            "events": result.wall_clock_events,
            "digest": hashlib.sha256(
                repr(sorted((r.request_id, r.finish_time) for r in records)).encode()
            ).hexdigest(),
            "attained": sum(1 for r in records if slo.attained(r.ttft, r.tpot)),
            "duration": summary.duration,
        }
        check(not result.truncated, f"trace {i}: run truncated ({result.truncation_reason})")
        check(summary.num_finished + summary.num_rejected + result.num_dropped == self.offered[i],
              f"trace {i}: {summary.num_finished} finished + {summary.num_rejected} rejected + "
              f"{result.num_dropped} dropped != {self.offered[i]} offered")
        first = self.first.get(i)
        if first is None:
            self.first[i] = dict(out, ttft=[r.ttft for r in records], tpot=[r.tpot for r in records])
        else:
            check(out["digest"] == first["digest"] and out["events"] == first["events"],
                  f"trace {i}: replay differs from its first run")
        return out

    def timed(self, seconds: float) -> List[Dict[str, Any]]:
        reps: List[Dict[str, Any]] = []
        start = wall()
        while len(reps) < self.w.traces or wall() - start < seconds:
            reps.append(self.rep(len(reps) % self.w.traces))
        return reps

    def sim_metrics(self) -> Dict[str, float]:
        firsts = [self.first[i] for i in sorted(self.first)]
        ttft = [v for f in firsts for v in f["ttft"]]
        tpot = [v for f in firsts for v in f["tpot"]]
        return {
            "sim_served_fraction": sum(f["finished"] for f in firsts) / sum(f["offered"] for f in firsts),
            "sim_goodput_rps": sum(f["attained"] for f in firsts) / sum(f["duration"] for f in firsts),
            "sim_ttft_tail_s": tail(ttft),
            "sim_tpot_tail_s": tail(tpot),
            "tail_samples": len(ttft),
        }

    def digest(self) -> str:
        return hashlib.sha256("".join(self.first[i]["digest"] for i in sorted(self.first)).encode()).hexdigest()

    def traced(self, tracer, spool_dir: str) -> Dict[str, Any]:
        import tracing

        untraced = self.rep(0)
        tracing.install(tracer)
        traced = self.rep(0)
        return {"untraced": untraced, "traced": traced, "dumps": [tracer.dump()], "runner": None}


# ------------------------------------------------------------------ sweep workload


class SweepBench:
    """Repetitions of ``SweepRunner(jobs=...).run(expand_grid(...))``."""

    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.setup: Dict[str, float] = {}
        self.attempted = 0
        self.first_rows: Dict[str, str] = {}
        self.first_results: List[Any] = []

    def set_up(self) -> None:
        from repro.api import build
        from repro.config import DeploymentSpec, expand_grid
        from repro.experiments.runner import SweepRunner

        self.setup["import_s"] = cpu()
        t = cpu()
        base = DeploymentSpec.from_dict(self.w.base_dict(self.seed, self.w.requests))
        self.points = [point for axes in self.w.axes() for point in expand_grid(base, axes)]
        warm = DeploymentSpec.from_dict(self.w.base_dict(self.seed, self.w.warmup_requests))
        prepared = build(warm)
        self.setup["build_s"] = cpu() - t
        t = cpu()
        len(prepared.trace)
        self.setup["trace_s"] = cpu() - t
        t = cpu()
        warm_results = SweepRunner(jobs=1).run([({}, warm)])
        check(warm_results[0].ok, f"warm-up point failed: {warm_results[0].error}")
        self.setup["warmup_s"] = cpu() - t
        self.runner_cls = SweepRunner

    def rep(self) -> Dict[str, Any]:
        self.attempted += len(self.points)
        w0, c0, k0 = wall(), cpu(), children_cpu()
        results = self.runner_cls(jobs=self.w.jobs).run(self.points)
        reap_children()
        wall_s, cpu_s = wall() - w0, cpu() - c0 + children_cpu() - k0
        tokens = finished = offered = events = 0
        errors = sum(1 for res in results if not res.ok)
        retries = sum(res.attempts - 1 for res in results)
        rows: Dict[str, str] = {}
        for res in results:
            offered += self.w.requests
            check(res.ok, f"{res.label}: point errored ({res.error_kind}: {res.error})")
            row = res.row
            check(not row["truncated"], f"{res.label}: run truncated ({row['truncation_reason']})")
            check(row["num_finished"] + row["num_rejected"] + row["num_dropped"] == self.w.requests,
                  f"{res.label}: {row['num_finished']} finished + {row['num_rejected']} rejected + "
                  f"{row['num_dropped']} dropped != {self.w.requests} offered")
            finished += row["num_finished"]
            tokens += round(row["throughput_tokens_per_s"] * row["duration"])
            events += row["wall_clock_events"]
            rows[res.label] = json.dumps(row, sort_keys=True)
        if not self.first_rows:
            self.first_rows = rows
            self.first_results = results
        else:
            check(rows == self.first_rows, "sweep replay differs from its first run")
        return {"cpu_s": cpu_s, "wall_s": wall_s, "points": len(results), "offered": offered,
                "finished": finished, "tokens": tokens, "events": events, "errors": errors, "retries": retries,
                "results": results}

    def timed(self, seconds: float) -> List[Dict[str, Any]]:
        reps: List[Dict[str, Any]] = []
        start = wall()
        while not reps or wall() - start < seconds:
            reps.append(self.rep())
        return reps

    def sim_metrics(self) -> Dict[str, float]:
        """Served fraction over every point, and each system's highest passing rate."""
        finished = offered = 0
        out: Dict[str, float] = {}
        for res in self.first_results:
            row = res.row
            finished += row["num_finished"]
            offered += self.w.requests
            attained = round(row["slo_attainment"] * row["num_finished"])
            key = f"sim_slo_rate_rps.{res.overrides['system.name']}"
            rate = res.overrides["workload.request_rate"]
            if attained / self.w.requests >= self.w.target_attainment and rate > out.get(key, 0.0):
                out[key] = rate
        out["sim_served_fraction"] = finished / offered
        for system in self.w.systems:
            out.setdefault(f"sim_slo_rate_rps.{system}", 0.0)
        return out

    def digest(self) -> str:
        return hashlib.sha256("".join(self.first_rows[k] for k in sorted(self.first_rows)).encode()).hexdigest()

    def traced(self, tracer, spool_dir: str) -> Dict[str, Any]:
        import tracing

        untraced = self.rep()
        tracing.install(tracer)
        record = tracing.install_runner(tracer, spool_dir)
        traced = self.rep()
        dumps = [tracer.dump()]
        for name in sorted(os.listdir(spool_dir)):
            with open(os.path.join(spool_dir, name)) as fh:
                dumps.append(json.load(fh))
        return {"untraced": untraced, "traced": traced, "dumps": dumps, "runner": record}


# ------------------------------------------------------------------ entry point


def trace(bench, workload, out_path: str, chrome_path: str) -> Dict[str, Any]:
    """One untraced and one traced repetition; the per-layer table of the latter.

    The spans are written to ``chrome_path`` as a Chrome trace.
    """
    import tracing

    tracer = tracing.Tracer()
    spool = f"{out_path}.spool"
    os.makedirs(spool, exist_ok=True)
    try:
        runs = bench.traced(tracer, spool)
    finally:
        for name in os.listdir(spool):
            os.remove(os.path.join(spool, name))
        os.rmdir(spool)
    untraced, traced = runs["untraced"], runs["traced"]
    table = tracing.summarize(runs["dumps"], traced["tokens"], runs["runner"],
                              getattr(workload, "jobs", 1), traced["wall_s"])
    table["metrics"]["sim.engine.events"] = traced["events"]
    if workload.kind == "sweep":
        table["metrics"]["experiments.runner.errors"] = traced["errors"]
        table["metrics"]["experiments.runner.retries"] = traced["retries"]
    table["overhead_ratio"] = (traced["cpu_s"] / traced["tokens"]) / (untraced["cpu_s"] / untraced["tokens"])
    tracing.write_chrome_trace(chrome_path, runs["dumps"],
                               {"per_layer": table["metrics"], "overhead_ratio": table["overhead_ratio"]})
    for rep in (untraced, traced):
        rep.pop("results", None)
    table["untraced"], table["traced"] = untraced, traced
    return table


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--chrome-trace", help="where --mode trace writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    bench = ServeBench(workload, args.seed) if workload.kind == "serve" else SweepBench(workload, args.seed)
    out: Dict[str, Any] = {"mode": args.mode, "ok": True, "error": None}
    try:
        bench.set_up()
        out["setup"] = dict(bench.setup, setup_s=cpu())
        if args.mode == "measure":
            reps = bench.timed(args.seconds)
            for rep in reps:
                rep.pop("results", None)
            out["reps"] = reps
        elif args.mode == "trace":
            out["traced"] = trace(bench, workload, args.out, args.chrome_trace)
        if args.mode != "setup":
            out["sim"] = bench.sim_metrics()
            out["digest"] = bench.digest()
    except CheckFailed as exc:
        out["ok"] = False
        out["error"] = str(exc)
    out["attempted"] = bench.attempted
    out["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
