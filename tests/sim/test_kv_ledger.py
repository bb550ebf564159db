"""Differential test: one shared KV ledger vs. one block manager per device.

``StaticPipelineUnit`` keeps a single ``PagedBlockManager`` sized to its
device with the fewest blocks.  The reference below is the accounting that
ledger must equal: one manager per device, built from the same stage layout,
receiving every allocate/append/free, with a fit check passing only when it
passes on every device.  Both accountings drive a unit through the same
workload in lockstep on asymmetric layouts whose devices hold different KV
shares and capacities, with capacity tight enough that LIFO preemption fires.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import cluster_from_blueprint
from repro.kvcache.block_manager import PagedBlockManager
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import StaticPipelineUnit

MODEL = get_model_spec("llama-13b")


class PerDeviceLedger:
    """One manager per device; checks pass only when every device agrees."""

    def __init__(self, config: InstanceParallelConfig) -> None:
        share: Dict[int, float] = {}
        for stage in config.stages:
            layer_frac = stage.num_layers / config.total_layers
            for dev, frac in zip(stage.devices, stage.fractions()):
                share[dev.device_id] = share.get(dev.device_id, 0.0) + layer_frac * frac
        capacity = config.kv_capacity_per_device(MODEL)
        self.managers = {
            dev.name: PagedBlockManager(
                capacity_bytes=capacity[dev.device_id],
                kv_bytes_per_token=MODEL.kv_bytes_per_token() * share[dev.device_id],
            )
            for dev in config.primary_devices
            if share.get(dev.device_id, 0.0) > 0
        }
        self.block_size = next(iter(self.managers.values())).block_size

    # What the unit reads: the binding (smallest) figure over all devices.
    @property
    def total_blocks(self) -> int:
        return min(m.total_blocks for m in self.managers.values())

    @property
    def free_blocks(self) -> int:
        return min(m.free_blocks for m in self.managers.values())

    def blocks_needed(self, num_tokens: int) -> int:
        return max(m.blocks_needed(num_tokens) for m in self.managers.values())

    def can_allocate(self, num_tokens: int) -> bool:
        return all(m.can_allocate(num_tokens) for m in self.managers.values())

    def can_append(self, seq_id: int) -> bool:
        return all(m.can_append(seq_id) for m in self.managers.values())

    def has_sequence(self, seq_id: int) -> bool:
        return any(m.has_sequence(seq_id) for m in self.managers.values())

    def allocate(self, seq_id: int, num_tokens: int) -> None:
        for m in self.managers.values():
            m.allocate(seq_id, num_tokens)

    def append(self, seq_id: int) -> None:
        for m in self.managers.values():
            m.append(seq_id)

    def free(self, seq_id: int) -> None:
        for m in self.managers.values():
            if m.has_sequence(seq_id):
                m.free(seq_id)

    def utilization(self) -> Dict[str, float]:
        return {name: m.stats().utilization for name, m in self.managers.items()}

    def device_used_blocks(self) -> List[int]:
        return [m.used_blocks for m in self.managers.values()]


def make_config(p100_layers: int, r3090_layers: int, r3090_split: int, p100_split: int):
    cluster = cluster_from_blueprint("a100:1,rtx3090:2,p100:2")
    stages = [
        StageConfig(
            devices=cluster.devices_of_type("a100"),
            num_layers=MODEL.num_layers - r3090_layers - p100_layers,
        ),
        StageConfig(
            devices=cluster.devices_of_type("rtx3090"),
            num_layers=r3090_layers,
            shard_fractions=[r3090_split / 10, 1 - r3090_split / 10],
        ),
        StageConfig(
            devices=cluster.devices_of_type("p100"),
            num_layers=p100_layers,
            shard_fractions=[p100_split / 10, 1 - p100_split / 10],
        ),
    ]
    return InstanceParallelConfig(stages=stages), cluster


def make_requests(specs, mode: str) -> List[Request]:
    requests = []
    for i, (arrival, prompt, output) in enumerate(specs):
        req = Request(request_id=i, arrival_time=arrival, prompt_tokens=prompt, output_tokens=output)
        if mode == "decode":
            # A Splitwise hand-off: prefilled elsewhere, cache migrated in.
            req.start_prefill()
            req.begin_migration()
            req.end_migration()
        requests.append(req)
    return requests


def drive(unit: StaticPipelineUnit, requests: List[Request]):
    """Feed arrivals, then plan and complete iterations; yield after each one."""
    pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    now = 0.0
    while True:
        while pending and pending[0].arrival_time <= now:
            req = pending.pop(0)
            if unit.mode == "decode":
                unit.enqueue_prefilled(req, now)
            else:
                unit.enqueue(req, now)
        shed = len(unit.dropped)
        iteration = unit.next_iteration(now)
        if iteration is None:
            if len(unit.dropped) > shed:
                continue  # shed a request that can never fit; look again
            if not pending:
                return
            now = pending[0].arrival_time
            continue
        now += iteration.duration
        unit.complete_iteration(iteration, now)
        yield iteration


def run_lockstep(layout, mode: str, chunk: Optional[int], specs) -> int:
    """Run ledger and reference units side by side; returns total preemptions."""
    config, cluster = make_config(*layout)
    limits = SchedulerLimits(prefill_chunk_tokens=chunk)
    unit = StaticPipelineUnit("ledger", config, MODEL, cluster, limits=limits, mode=mode)
    reference = StaticPipelineUnit("reference", config, MODEL, cluster, limits=limits, mode=mode)
    per_device = PerDeviceLedger(config)
    reference._ledger = per_device  # the seam: swap in per-device accounting
    ours, theirs = make_requests(specs, mode), make_requests(specs, mode)

    steps = itertools.zip_longest(drive(unit, ours), drive(reference, theirs))
    for n, (it_a, it_b) in enumerate(steps):
        assert n < 20_000, "unit failed to drain"
        assert it_a is not None and it_b is not None, "one accounting ran longer"
        assert it_a.duration == it_b.duration
        assert unit.kv_utilization() == per_device.utilization()
        assert len(set(per_device.device_used_blocks())) == 1

    assert [r.finish_time for r in ours] == [r.finish_time for r in theirs]
    assert [r.num_preemptions for r in ours] == [r.num_preemptions for r in theirs]
    assert [r.request_id for r in unit.dropped] == [r.request_id for r in reference.dropped]
    assert all(r.is_finished for r in ours if r not in unit.dropped)
    assert set(per_device.device_used_blocks()) == {0}
    return sum(r.num_preemptions for r in ours)


# The P100 pair is the tight end: its heavier shard holds 1.5k-23k tokens.
layouts = st.tuples(
    st.integers(16, 20),  # P100 stage layers
    st.integers(4, 12),  # RTX 3090 stage layers (the A100 takes the rest)
    st.integers(2, 8),  # RTX 3090 TP split, tenths to the first GPU
    st.integers(6, 8),  # P100 TP split
)
workloads = st.lists(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),  # arrival time (s)
        st.integers(200, 3000),  # prompt tokens
        st.integers(16, 512),  # output tokens
    ),
    min_size=4,
    max_size=16,
)


class TestSharedLedgerMatchesPerDeviceManagers:
    @pytest.mark.slow
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        layout=layouts,
        mode=st.sampled_from(["both", "decode"]),
        chunk=st.sampled_from([None, 512]),
        specs=workloads,
    )
    def test_lockstep(self, layout, mode, chunk, specs):
        run_lockstep(layout, mode, chunk, specs)

    @pytest.mark.parametrize("mode", ["both", "decode"])
    @pytest.mark.parametrize("chunk", [None, 512])
    def test_tight_capacity_preempts(self, mode, chunk):
        # The ledger is a P100 shard holding 5088 tokens: two 2400-token
        # requests fit, but not once each has decoded ~150 more tokens.
        specs = [(0.0, 2400, 200)] * 6
        assert run_lockstep((18, 8, 2, 8), mode, chunk, specs) > 0
