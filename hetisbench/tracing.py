"""Span tracing installed from outside the program, by wrapping its layers.

:func:`install` replaces public functions and methods of the simulator's
layers with wrappers that record into a :class:`Tracer`:

* **Spans** (name, start, end, parent) around coarse calls: ``api.build``,
  ``Engine.run``, unit ``next_iteration``/``complete_iteration``, the head
  dispatch solves and compute-balance checks.
* **Folded calls** around hot fine-grained calls (KV block managers, cost
  models, metrics and recorder): each call bumps a counter on its parent span
  and adds its duration to its layer, instead of recording a span of its own.
  A folded call made inside another folded call is counted but not timed
  again, so no interval is attributed twice.

A span's self time is its duration minus the time its child spans and its
folded calls cover.  Everything stays in memory until :meth:`Tracer.dump`.
Layers are named after the ``repro`` modules they wrap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter

# Span record slots.  ARGS holds the span's folded-call counts per layer and
# any labels; it is None until the span needs it.
NAME, START, END, PARENT, CHILD_TIME, ARGS = range(6)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.dumps = 0
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.folded_calls: Dict[str, int] = {}
        self.folded_time: Dict[str, float] = {}
        self.in_folded = False
        self.iterations: Dict[str, List[int]] = {}  # layer -> [iterations, with decode, decode requests]
        self.preemptions: Dict[str, int] = {}
        self.recorder_samples = 0

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def reset(self) -> None:
        """Forget everything recorded so far (lists are cleared in place:
        the installed wrappers hold references to them)."""
        self.pid = os.getpid()
        del self.spans[:]
        del self.stack[:]
        self.folded_calls.clear()
        self.folded_time.clear()
        self.in_folded = False
        self.iterations.clear()
        self.preemptions.clear()
        self.recorder_samples = 0

    def current_layer(self) -> Optional[str]:
        if not self.stack:
            return None
        return self.layers[self.spans[self.stack[-1]][NAME]]

    def dump(self) -> Dict[str, Any]:
        """A JSON-able snapshot of this process's spans and counters."""
        return {
            "pid": self.pid,
            "names": list(self.names),
            "layers": list(self.layers),
            "spans": [list(s) for s in self.spans],
            "folded_calls": dict(self.folded_calls),
            "folded_time": dict(self.folded_time),
            "iterations": {k: list(v) for k, v in self.iterations.items()},
            "preemptions": dict(self.preemptions),
            "recorder_samples": self.recorder_samples,
        }


# ------------------------------------------------------------------ wrappers


def _span(tracer: Tracer, fn: Callable, layer: str, name: str, on_result: Optional[Callable] = None) -> Callable:
    nid = tracer.name_id(f"{layer}.{name}", layer)
    spans, stack = tracer.spans, tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        rec = [nid, clock(), 0.0, parent, 0.0, None]
        stack.append(len(spans))
        spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = rec[END] = clock()
            stack.pop()
            if parent >= 0:
                spans[parent][CHILD_TIME] += end - rec[START]
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _folded(tracer: Tracer, fn: Callable, layer: str, weight: Optional[Callable] = None) -> Callable:
    spans, stack = tracer.spans, tracer.stack
    calls, times = tracer.folded_calls, tracer.folded_time

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[layer] = calls.get(layer, 0) + 1
        if weight is not None:
            weight(args)
        if tracer.in_folded:
            return fn(*args, **kwargs)
        tracer.in_folded = True
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - start
            tracer.in_folded = False
            times[layer] = times.get(layer, 0.0) + dt
            if stack:
                top = spans[stack[-1]]
                top[CHILD_TIME] += dt
                args = top[ARGS]
                if args is None:
                    args = top[ARGS] = {}
                args[layer] = args.get(layer, 0) + 1

    return wrapper


def _patch_function(module, name: str, wrapper: Callable, original: Callable) -> None:
    """Replace ``module.name`` and every ``repro`` module's by-name import of it."""
    setattr(module, name, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _public_methods(cls) -> List[str]:
    names = []
    for attr, value in vars(cls).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        names.append(attr)
    return names


def _fold_class(tracer: Tracer, cls, layer: str, weights: Optional[Dict[str, Callable]] = None) -> None:
    for attr in _public_methods(cls):
        weight = (weights or {}).get(attr)
        setattr(cls, attr, _folded(tracer, getattr(cls, attr), layer, weight))


def _fold_module_functions(tracer: Tracer, module, layer: str) -> None:
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
            continue
        _patch_function(module, attr, _folded(tracer, value, layer), value)


def install(tracer: Tracer) -> None:
    """Wrap the simulator's layers; call before any deployment is built."""
    import repro.api as api
    import repro.core.attention_parallel as attention_parallel
    import repro.core.dispatcher as dispatcher
    import repro.core.hetis_unit as hetis_unit
    import repro.core.redispatch as redispatch
    import repro.kvcache.block_manager as block_manager
    import repro.kvcache.head_block_manager as head_block_manager
    import repro.models.flops as flops
    import repro.perf.attention_model as attention_model
    import repro.perf.commcost as commcost
    import repro.perf.roofline as roofline
    import repro.sim.engine as engine
    import repro.sim.metrics as metrics
    import repro.sim.recorder as recorder
    import repro.sim.request as request
    import repro.sim.units as units
    import repro.solvers.head_dispatch as head_dispatch

    # Top level: construction and the event loop.
    original_build = api.build
    _patch_function(api, "build", _span(tracer, original_build, "api", "build"), original_build)
    api.PreparedRun.run = _span(tracer, api.PreparedRun.run, "api", "PreparedRun.run")
    engine.Engine.run = _span(tracer, engine.Engine.run, "sim.engine", "Engine.run")

    # Execution units: one span per planned and per completed iteration.
    def count_iteration(layer: str) -> Callable:
        def on_result(iteration) -> None:
            if iteration is None:
                return
            counts = tracer.iterations.setdefault(layer, [0, 0, 0])
            counts[0] += 1
            n_decode = len(iteration.decode_requests)
            if n_decode:
                counts[1] += 1
                counts[2] += n_decode

        return on_result

    for cls, layer in ((units.StaticPipelineUnit, "sim.units"), (hetis_unit.HetisInstanceUnit, "core.hetis_unit")):
        name = cls.__name__
        cls.next_iteration = _span(tracer, cls.next_iteration, layer, f"{name}.next_iteration",
                                   count_iteration(layer))
        cls.complete_iteration = _span(tracer, cls.complete_iteration, layer, f"{name}.complete_iteration")

    # Preemptions are booked to the layer of the innermost open span.
    original_preempt = request.Request.preempt

    @functools.wraps(original_preempt)
    def preempt(self):
        layer = tracer.current_layer() or "unknown"
        tracer.preemptions[layer] = tracer.preemptions.get(layer, 0) + 1
        return original_preempt(self)

    request.Request.preempt = preempt

    # Head dispatch: every solve, dispatch and balance check is a span.
    for fn_name in ("solve_lp", "solve_greedy"):
        original = getattr(head_dispatch, fn_name)
        _patch_function(head_dispatch, fn_name,
                        _span(tracer, original, "solvers.head_dispatch", fn_name), original)
    for cls, layer, methods in (
        (dispatcher.Dispatcher, "core.dispatcher",
         ("dispatch_new", "dispatch_single", "ideal_objective", "current_objective")),
        (redispatch.RedispatchPolicy, "core.redispatch", ("check_compute_balance", "handle_cache_exhaustion")),
    ):
        for attr in methods:
            setattr(cls, attr, _span(tracer, getattr(cls, attr), layer, f"{cls.__name__}.{attr}"))

    # Hot calls, folded into counters on their parent span.
    _fold_class(tracer, block_manager.PagedBlockManager, "kvcache")
    _fold_class(tracer, head_block_manager.HeadwiseBlockManager, "kvcache")
    for cls in (roofline.RooflineExecutor, commcost.CommModel, flops.LayerCostModel, flops.ModuleCost,
                attention_model.DeviceAttentionModel, attention_model.AttentionTimeModel,
                attention_model.TransferTimeModel, attention_parallel.HeadSplit):
        _fold_class(tracer, cls, "perf")
    for module in (commcost, attention_parallel):
        _fold_module_functions(tracer, module, "perf")

    def count_sample(args) -> None:
        tracer.recorder_samples += 1

    def count_samples(args) -> None:
        tracer.recorder_samples += len(args[3])

    _fold_class(tracer, metrics.MetricsCollector, "sim.metrics")
    _fold_class(tracer, recorder.TimeSeriesRecorder, "sim.recorder",
                {"record": count_sample, "record_many": count_samples})


def install_runner(tracer: Tracer, spool_dir: str) -> Dict[str, list]:
    """Time the sweep runner's pool from the parent, and each task in its worker.

    Returns the parent-side record: pool creation times and, per submitted
    point, ``(label, submit time, done time)``.  Workers inherit the wrappers
    through ``fork``; each writes its spans to ``spool_dir`` when a task ends.
    ``perf_counter`` is the system-wide monotonic clock on Linux, so parent
    and worker timestamps compare directly.
    """
    from concurrent.futures import ProcessPoolExecutor

    import repro.experiments.runner as runner

    record: Dict[str, list] = {"pools": [], "points": []}
    parent_pid = os.getpid()

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            record["pools"].append(clock())
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args, **kwargs):
            submitted = clock()
            label = next((point_label(a) for a in args if isinstance(a, dict) and "workload" in a), None)
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(lambda _f: record["points"].append((label, submitted, clock())))
            return future

    runner.ProcessPoolExecutor = TimedPool

    task = runner.TASK_KINDS.require("deployment")
    help_text = runner.TASK_KINDS.entry("deployment").help
    nid = tracer.name_id("experiments.runner.task", "experiments.runner")

    @functools.wraps(task)
    def traced_task(payload):
        if tracer.pid != os.getpid():
            tracer.reset()  # first task in a forked worker: drop the parent's spans
        rec = [nid, clock(), 0.0, -1, 0.0, {"point": point_label(payload)}]
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(rec)
        try:
            return task(payload)
        finally:
            rec[END] = clock()
            tracer.stack.pop()
            if os.getpid() != parent_pid:
                tracer.dumps += 1
                path = os.path.join(spool_dir, f"spans-{os.getpid()}-{tracer.dumps}.json")
                with open(path, "w") as fh:
                    json.dump(tracer.dump(), fh)
                tracer.reset()

    runner.TASK_KINDS.register("deployment", traced_task, help=help_text, overwrite=True)
    return record


def point_label(payload: Dict[str, Any]) -> str:
    return f"{payload['system']['name']}@{payload['workload']['request_rate']:g}"


# ------------------------------------------------------------------ analysis

#: Layers whose self time counts toward the head-dispatch figures.
DISPATCH_LAYERS = ("solvers.head_dispatch", "core.dispatcher", "core.redispatch")


def summarize(dumps: List[Dict[str, Any]], tokens: int, runner: Optional[Dict[str, list]] = None,
              jobs: int = 1, sweep_wall_s: float = 0.0) -> Dict[str, Any]:
    """Per-layer counts and self times from the dumps of one traced repetition.

    ``sim.metrics.observations`` counts calls into ``MetricsCollector``;
    ``decode_batch_mean`` averages over iterations that decode at all.
    """
    self_time: Dict[str, float] = {}
    span_count: Dict[str, int] = {}
    span_time: Dict[str, float] = {}
    folded_calls: Dict[str, int] = {}
    iterations: Dict[str, List[int]] = {}
    preemptions: Dict[str, int] = {}
    recorder_samples = 0
    tasks: List[tuple] = []  # (point label, start, end) of in-worker task spans
    for d in dumps:
        names, layers = d["names"], d["layers"]
        for nid, start, end, _parent, child, args in d["spans"]:
            name, layer = names[nid], layers[nid]
            dur = end - start
            self_time[layer] = self_time.get(layer, 0.0) + dur - child
            span_count[name] = span_count.get(name, 0) + 1
            span_time[name] = span_time.get(name, 0.0) + dur
            if name == "experiments.runner.task":
                tasks.append((args["point"], start, end))
        for layer, t in d["folded_time"].items():
            self_time[layer] = self_time.get(layer, 0.0) + t
        for layer, n in d["folded_calls"].items():
            folded_calls[layer] = folded_calls.get(layer, 0) + n
        for layer, counts in d["iterations"].items():
            total = iterations.setdefault(layer, [0, 0, 0])
            for i, n in enumerate(counts):
                total[i] += n
        for layer, n in d["preemptions"].items():
            preemptions[layer] = preemptions.get(layer, 0) + n
        recorder_samples += d["recorder_samples"]

    def per_token(seconds: float) -> float:
        return seconds / tokens * 1e6 if tokens else 0.0

    m: Dict[str, float] = {}
    m["sim.engine.self_us_per_token"] = per_token(self_time.get("sim.engine", 0.0))
    all_iterations = 0
    for layer in ("sim.units", "core.hetis_unit"):
        n_iter, n_decode_iter, n_decode = iterations.get(layer, [0, 0, 0])
        all_iterations += n_iter
        m[f"{layer}.iterations"] = n_iter
        m[f"{layer}.decode_batch_mean"] = n_decode / n_decode_iter if n_decode_iter else 0.0
        m[f"{layer}.preemptions"] = preemptions.get(layer, 0)
        m[f"{layer}.self_us_per_token"] = per_token(self_time.get(layer, 0.0))
    m["kvcache.calls_per_token"] = folded_calls.get("kvcache", 0) / tokens if tokens else 0.0
    m["kvcache.self_us_per_token"] = per_token(self_time.get("kvcache", 0.0))
    lp = span_count.get("solvers.head_dispatch.solve_lp", 0)
    greedy = span_count.get("solvers.head_dispatch.solve_greedy", 0)
    solve_time = span_time.get("solvers.head_dispatch.solve_lp", 0.0) + span_time.get(
        "solvers.head_dispatch.solve_greedy", 0.0)
    m["solvers.head_dispatch.lp_solves"] = lp
    m["solvers.head_dispatch.greedy_solves"] = greedy
    m["solvers.head_dispatch.balance_checks"] = span_count.get(
        "core.redispatch.RedispatchPolicy.check_compute_balance", 0)
    m["solvers.head_dispatch.us_per_solve"] = solve_time / (lp + greedy) * 1e6 if lp + greedy else 0.0
    m["solvers.head_dispatch.self_us_per_token"] = per_token(sum(self_time.get(x, 0.0) for x in DISPATCH_LAYERS))
    m["perf.calls_per_iteration"] = folded_calls.get("perf", 0) / all_iterations if all_iterations else 0.0
    m["perf.self_us_per_token"] = per_token(self_time.get("perf", 0.0))
    m["sim.metrics.observations"] = folded_calls.get("sim.metrics", 0)
    m["sim.metrics.recorder_samples"] = recorder_samples
    m["sim.metrics.self_us_per_token"] = per_token(
        self_time.get("sim.metrics", 0.0) + self_time.get("sim.recorder", 0.0))

    if runner is not None:
        task_time: Dict[str, float] = {}
        for label, start, end in tasks:
            task_time[label] = task_time.get(label, 0.0) + end - start
        point_wall = [done - submitted for _label, submitted, done in runner["points"]]
        overheads = [done - submitted - task_time.get(label, 0.0) for label, submitted, done in runner["points"]]
        m["experiments.runner.pool_start_s"] = (
            min(start for _l, start, _e in tasks) - runner["pools"][0] if tasks and runner["pools"] else 0.0)
        m["experiments.runner.point_wall_s_median"] = statistics.median(point_wall) if point_wall else 0.0
        m["experiments.runner.point_wall_s_max"] = max(point_wall) if point_wall else 0.0
        m["experiments.runner.worker_busy_fraction"] = (
            sum(task_time.values()) / (jobs * sweep_wall_s) if sweep_wall_s else 0.0)
        m["experiments.runner.overhead_ms_per_point"] = sum(overheads) / len(overheads) * 1e3 if overheads else 0.0

    return {"metrics": m, "self_time_s": self_time, "span_count": span_count, "folded_calls": folded_calls}


def write_chrome_trace(path: str, dumps: List[Dict[str, Any]], other: Dict[str, Any]) -> None:
    """Write every span as a Chrome trace-event (``ph: "X"``) record.

    Opens in Perfetto or ``chrome://tracing``.  Folded-call counts and the
    span's self time ride in ``args``; ``args.parent`` indexes the parent
    span within the same ``pid``.  ``other`` (the per-layer table) is stored
    as the trace's ``otherData``.
    """
    origin = min((s[START] for d in dumps for s in d["spans"]), default=0.0)
    with open(path, "w") as fh:
        fh.write('{"traceEvents":[')
        first = True
        for d in dumps:
            names, layers, pid = d["names"], d["layers"], d["pid"]
            for idx, (nid, start, end, parent, child, args) in enumerate(d["spans"]):
                event = {
                    "name": names[nid], "cat": layers[nid], "ph": "X", "pid": pid, "tid": pid,
                    "ts": round((start - origin) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
                    "args": {"span": idx, "parent": parent, "self_us": round((end - start - child) * 1e6, 3),
                             **(args or {})},
                }
                fh.write(("" if first else ",") + json.dumps(event, separators=(",", ":")))
                first = False
        fh.write('],"otherData":' + json.dumps(other) + "}")
