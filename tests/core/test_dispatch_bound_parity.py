"""Decision parity of the head-dispatch lower-bound shortcut.

The Dispatcher and the compute-balance check skip a solve whenever
:func:`repro.solvers.head_dispatch.lower_bound` already decides their
threshold test.  Forcing the bound to ``0.0`` decides nothing, which restores
the always-solve path; both runs must then make the same decisions and
produce the same per-request outputs.  The spec is chosen so that both
re-dispatch branches (compute imbalance and cache exhaustion) fire, so the
comparison cannot pass vacuously.
"""

import sys

import pytest

import repro.core.dispatcher as dispatcher_mod
import repro.core.redispatch as redispatch_mod
import repro.solvers.head_dispatch as head_dispatch
from repro.api import build
from repro.config import ClusterSpec, DeploymentSpec, SystemSpec, WorkloadSpec
from repro.core.redispatch import RedispatchAction


def run_hetis(monkeypatch, solver, bound_enabled):
    decisions = []
    solves = [0]

    def record(patch, method):
        original = getattr(redispatch_mod.RedispatchPolicy, method)

        def wrapper(self, *args, **kwargs):
            decision = original(self, *args, **kwargs)
            split = decision.new_split
            decisions.append((
                method,
                decision.action,
                decision.request_id,
                None if split is None else sorted(split.allocation.items()),
            ))
            return decision

        patch.setattr(redispatch_mod.RedispatchPolicy, method, wrapper)

    def counted(fn):
        def wrapper(problem):
            solves[0] += 1
            return fn(problem)

        return wrapper

    with monkeypatch.context() as patch:
        record(patch, "check_compute_balance")
        record(patch, "handle_cache_exhaustion")
        for name in ("solve_lp", "solve_greedy"):
            patch.setattr(dispatcher_mod, name, counted(getattr(dispatcher_mod, name)))
        if not bound_enabled:
            original = head_dispatch.lower_bound
            patched = set()
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, "lower_bound", None) is original):
                    patch.setattr(module, "lower_bound", lambda problem: 0.0)
                    patched.add(module.__name__)
            assert {dispatcher_mod.__name__, redispatch_mod.__name__} <= patched
        spec = DeploymentSpec(
            model="llama-13b",
            system=SystemSpec(name="hetis", options={"theta": 0.05, "solver": solver}),
            # Two 12 GB P100 Attention workers run out of KV cache under
            # LongBench contexts while the A100/RTX3090 Primary still has room.
            cluster=ClusterSpec(kind="a100:1,rtx3090:1,p100:2"),
            workload=WorkloadSpec(dataset="longbench", request_rate=4.0, num_requests=60, seed=1),
        )
        prepared = build(spec)
        result = prepared.run()
    units = prepared.system.units
    return {
        "finish": sorted((r.request_id, r.finish_time) for r in result.metrics.records),
        "preemptions": result.summary.total_preemptions,
        "redispatches": sum(u.num_redispatches for u in units),
        "cache_redispatches": sum(u.num_cache_redispatches for u in units),
        "decisions": decisions,
        "solves": solves[0],
    }


@pytest.mark.parametrize("solver", ["lp", "greedy"])
def test_bound_shortcut_keeps_every_decision(monkeypatch, solver):
    fast = run_hetis(monkeypatch, solver, bound_enabled=True)
    exact = run_hetis(monkeypatch, solver, bound_enabled=False)

    fired = {(method, action) for method, action, _, _ in exact["decisions"]}
    assert ("check_compute_balance", RedispatchAction.REDISPATCH) in fired
    assert ("handle_cache_exhaustion", RedispatchAction.REDISPATCH) in fired
    assert exact["cache_redispatches"] > 0
    assert exact["preemptions"] > 0

    for key in ("finish", "preemptions", "redispatches", "cache_redispatches", "decisions"):
        assert fast[key] == exact[key], key
    # The shortcut must actually have skipped solves.
    assert fast["solves"] < exact["solves"]
