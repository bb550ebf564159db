"""The repository benchmark: one workload, one seed, one line of JSON.

    python3 hetisbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Workloads are defined in ``workloads.py``;
``BENCHMARK.json`` lists the metrics with their units, directions and bounds.

Each workload runs in fresh interpreters (``child.py``): a few that only set
up, so ``setup_s`` is a median, and one that measures.  ``--trace 0`` prints
every end-to-end metric, measured without tracing; ``--trace 1`` runs one
traced repetition and prints every per-layer metric, including the tracing
overhead.  Every run prints every metric of its kind.  A per-layer figure of
a layer the workload never runs reads 0.  An end-to-end metric that only the
other kind of workload produces reads 1.0 and is marked n/a in the table:
``points_per_s`` and ``sim_slo_rate_rps.*`` exist only on the sweep,
``sim_goodput_rps`` and the two latency tails only on the in-process
workloads.

Stdout ends with ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (provenance, host probe, every repetition, result digest) is written
to ``.hetisbench/<workload>-seed<N>-trace<T>.json``; a traced run also writes
its spans as a Chrome trace next to it.  The run exits non-zero when a
correctness check fails or when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import host  # noqa: E402
from workloads import HELD_OUT_SEED, TAIL_SAMPLES_BEYOND, WORKLOADS  # noqa: E402

#: Interpreters that set up per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Every run must end within this many wall seconds.
RUN_BUDGET_S = 170.0
#: The reading of an end-to-end metric that this kind of workload does not produce.
NOT_APPLICABLE = 1.0


class ChildFailed(RuntimeError):
    pass


def run_child(root: str, args, mode: str, stem: str, timeout: float) -> Dict[str, Any]:
    """Run ``child.py`` in its own session; kill the whole group on timeout."""
    out_path = f"{stem}.child-{mode}.json"
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out_path, "--chrome-trace", f"{stem}.trace.json"]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{mode} interpreter exceeded {timeout:.0f}s")
    finally:
        # Pool workers of a crashed child must not outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not os.path.exists(out_path):
        raise ChildFailed(f"{mode} interpreter exited with code {code}")
    with open(out_path) as fh:
        result = json.load(fh)
    os.remove(out_path)
    return result


def end_to_end(result: Dict[str, Any], setup_samples: List[float]) -> Dict[str, float]:
    reps = result["reps"]
    m = {
        "host_us_per_token": statistics.median(r["cpu_s"] / r["tokens"] * 1e6 for r in reps),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if "points" in reps[0]:
        m["points_per_s"] = statistics.median(r["points"] / r["wall_s"] for r in reps)
    m.update((key, value) for key, value in result["sim"].items() if key.startswith("sim_"))
    return m


def per_layer(result: Dict[str, Any]) -> Dict[str, float]:
    table = result["traced"]
    m = dict(table["metrics"])
    for key in ("import_s", "build_s", "trace_s", "warmup_s"):
        m[f"setup.{key}"] = result["setup"][key]
    m["tracing.overhead_ratio"] = table["overhead_ratio"]
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     epilog=f"Seeds 1-10 tune the benchmark; seed {HELD_OUT_SEED} is held out.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")) or not os.path.isfile(spec_path):
        print("hetisbench: run from the root of a repro checkout (src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"hetisbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("hetisbench: --seed must be >= 0", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    outdir = os.path.join(root, ".hetisbench")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    probe: Dict[str, Any] = {"loadavg_before": os.getloadavg(), "reference_loop_cpu_s": [host.reference_loop_cpu_s()]}
    jiffies = host.cpu_jiffies()
    try:
        setup_samples = []
        for _ in range(SETUP_SAMPLES - 1):
            sample = run_child(root, args, "setup", stem, 60.0)
            setup_samples.append(sample["setup"]["setup_s"])
        result = run_child(root, args, "trace" if args.trace else "measure", stem,
                           RUN_BUDGET_S - (time.perf_counter() - started))
    except ChildFailed as exc:
        print(f"hetisbench: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(result["setup"]["setup_s"])
    probe["reference_loop_cpu_s"].append(host.reference_loop_cpu_s())
    probe["steal_fraction"] = host.steal_fraction(jiffies, host.cpu_jiffies())
    probe["loadavg_after"] = os.getloadavg()

    correct = bool(result["ok"])
    metrics: Dict[str, float] = {}
    if correct:
        metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    attempted = max(int(result["attempted"]), 1)
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {},
    }
    lines = [f"hetisbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    for spec in declared:
        name = spec["name"]
        value = metrics.get(name)
        note = ""
        if value is None and correct:
            value = 0.0 if args.trace else NOT_APPLICABLE
            note = "  (layer not run)" if args.trace else "  (n/a on this workload)"
        if value is not None:
            report["metrics"][name] = {"value": value, "unit": spec["unit"]}
            direction = f"  {spec['better']} is better" if "better" in spec else ""
            lines.append(f"  {name:<46} {value:>14.6g} {spec['unit']:<9}{direction}{note}")
    if not correct:
        lines.append(f"  CHECK FAILED: {result['error']}")
    sim = result.get("sim") or {}
    if workload.kind == "serve" and sim and not args.trace:
        lines.append(f"  tails: the order statistic with {TAIL_SAMPLES_BEYOND} of {sim['tail_samples']} "
                     f"samples beyond it (p{100 * (1 - TAIL_SAMPLES_BEYOND / sim['tail_samples']):.2f})")
    lines.append(f"  digest {result.get('digest')}  artifact {os.path.relpath(stem, root)}.json")

    record = {
        "args": vars(args),
        "provenance": host.provenance(root),
        "host_probe": probe,
        "setup_samples_s": setup_samples,
        "report": report,
        "child": result,
        "wall_s": time.perf_counter() - started,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
