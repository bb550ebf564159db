"""Tests for the static pipeline execution unit."""

import pytest

from repro.hardware.cluster import simple_cluster
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.sim.request import Request, RequestStatus
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import StaticPipelineUnit


def make_unit(model_name="llama-13b", mode="both", limits=None, cluster=None):
    cluster = cluster or simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    model = get_model_spec(model_name)
    a100 = cluster.devices_of_type("a100")
    r3090 = cluster.devices_of_type("rtx3090")
    stages = [
        StageConfig(devices=a100, num_layers=30),
        StageConfig(devices=r3090, num_layers=model.num_layers - 30),
    ]
    config = InstanceParallelConfig(stages=stages)
    return StaticPipelineUnit("unit-0", config, model, cluster, limits=limits, mode=mode)


def make_request(req_id=0, prompt=200, output=4, arrival=0.0):
    return Request(request_id=req_id, arrival_time=arrival, prompt_tokens=prompt, output_tokens=output)


class TestConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_unit(mode="hybrid")

    def test_layer_count_checked(self):
        cluster = simple_cluster("a100", "rtx3090")
        model = get_model_spec("llama-13b")
        config = InstanceParallelConfig(
            stages=[StageConfig(devices=cluster.devices_of_type("a100"), num_layers=10)]
        )
        with pytest.raises(ValueError):
            StaticPipelineUnit("bad", config, model, cluster)

    def test_kv_capacity_positive(self):
        unit = make_unit()
        assert unit.available_kv_bytes() > 0
        assert all(0.0 <= u <= 1.0 for u in unit.kv_utilization().values())


class TestIterationLoop:
    def test_idle_unit_returns_none(self):
        unit = make_unit()
        assert not unit.has_work()
        assert unit.next_iteration(0.0) is None

    def test_prefill_then_decode_until_finished(self):
        unit = make_unit()
        req = make_request(output=3)
        unit.enqueue(req, 0.0)
        assert unit.has_work()

        now = 0.0
        it = unit.next_iteration(now)
        assert it is not None and it.prefill_requests == [req]
        assert it.duration > 0
        now += it.duration
        outcome = unit.complete_iteration(it, now)
        assert outcome.finished == []
        assert req.status == RequestStatus.DECODING
        assert req.ttft is not None

        finished = []
        for _ in range(10):
            it = unit.next_iteration(now)
            if it is None:
                break
            now += it.duration
            finished += unit.complete_iteration(it, now).finished
        assert req in finished
        assert req.generated_tokens == 3
        assert unit.num_running == 0
        # All cache released once the request retires.
        assert all(u == 0.0 for u in unit.kv_utilization().values())

    def test_decode_iteration_module_times_present(self):
        unit = make_unit()
        req = make_request(output=3)
        unit.enqueue(req, 0.0)
        it = unit.next_iteration(0.0)
        unit.complete_iteration(it, it.duration)
        decode_it = unit.next_iteration(it.duration)
        assert decode_it.has_decode
        assert decode_it.module_times["mlp"] > 0
        assert decode_it.module_times["attention"] > 0
        assert decode_it.module_times["iteration"] >= decode_it.module_times["mlp"]

    def test_batched_prefill_admission(self):
        unit = make_unit()
        reqs = [make_request(i, prompt=100, output=2) for i in range(4)]
        for r in reqs:
            unit.enqueue(r, 0.0)
        it = unit.next_iteration(0.0)
        assert len(it.prefill_requests) == 4

    def test_prefill_time_longer_for_longer_prompts(self):
        unit = make_unit()
        short = make_request(0, prompt=128, output=2)
        unit.enqueue(short, 0.0)
        it_short = unit.next_iteration(0.0)
        unit.complete_iteration(it_short, 1.0)

        unit2 = make_unit()
        long = make_request(1, prompt=2048, output=2)
        unit2.enqueue(long, 0.0)
        it_long = unit2.next_iteration(0.0)
        assert it_long.duration > it_short.duration


class TestModes:
    def test_prefill_mode_emits_handoff(self):
        unit = make_unit(mode="prefill")
        req = make_request(output=5)
        unit.enqueue(req, 0.0)
        it = unit.next_iteration(0.0)
        outcome = unit.complete_iteration(it, it.duration)
        assert len(outcome.handoffs) == 1
        handoff = outcome.handoffs[0]
        assert handoff.request is req
        assert handoff.kv_bytes > 0
        assert req.status == RequestStatus.MIGRATING
        # The prefill copy's cache is released at hand-off.
        assert all(u == 0.0 for u in unit.kv_utilization().values())

    def test_decode_mode_rejects_fresh_requests(self):
        unit = make_unit(mode="decode")
        with pytest.raises(RuntimeError):
            unit.enqueue(make_request(), 0.0)

    def test_decode_mode_serves_prefilled_request(self):
        unit = make_unit(mode="decode")
        req = make_request(output=3)
        req.start_prefill()
        req.begin_migration()
        req.end_migration()
        unit.enqueue_prefilled(req, 0.0)
        now = 0.0
        finished = []
        for _ in range(8):
            it = unit.next_iteration(now)
            if it is None:
                break
            now += it.duration
            finished += unit.complete_iteration(it, now).finished
        assert req in finished
        assert req.ttft is not None  # first token produced on the decode unit

    def test_prefill_mode_rejects_prefilled(self):
        unit = make_unit(mode="prefill")
        with pytest.raises(RuntimeError):
            unit.enqueue_prefilled(make_request(), 0.0)


class TestPreemption:
    def test_lifo_preemption_under_memory_pressure(self):
        # A single P100 holding opt-2.7b leaves little KV room: long-running
        # requests must preempt the most recent one rather than deadlock.
        from repro.hardware.cluster import ClusterBuilder

        cluster = ClusterBuilder().add_host("p100", 1).build()
        model = get_model_spec("opt-2.7b")
        config = InstanceParallelConfig(
            stages=[StageConfig(devices=cluster.devices, num_layers=model.num_layers)]
        )
        unit = StaticPipelineUnit(
            "tiny", config, model, cluster, limits=SchedulerLimits(max_running_requests=64)
        )
        reqs = [make_request(i, prompt=1200, output=300) for i in range(8)]
        for r in reqs:
            unit.enqueue(r, 0.0)
        now, finished = 0.0, []
        for _ in range(600):
            it = unit.next_iteration(now)
            if it is None:
                break
            now += it.duration
            finished += unit.complete_iteration(it, now).finished
        # Either everything eventually finishes (with preemptions) or some are
        # still queued, but the unit must never deadlock or over-commit memory.
        assert len(finished) + unit.num_waiting + unit.num_running + len(unit.dropped) == 8
        assert len(finished) >= 1


class TestChunkedPrefill:
    def chunked_limits(self, chunk=1024, budget=1024):
        return SchedulerLimits(
            max_prefill_tokens_per_iteration=budget, prefill_chunk_tokens=chunk
        )

    def run_until_idle(self, unit, now=0.0, max_iters=200):
        iterations, finished = [], []
        for _ in range(max_iters):
            it = unit.next_iteration(now)
            if it is None:
                break
            iterations.append(it)
            now += it.duration
            finished += unit.complete_iteration(it, now).finished
        return iterations, finished, now

    def test_long_prompt_split_across_iterations(self):
        unit = make_unit(limits=self.chunked_limits(chunk=1024))
        req = make_request(prompt=3000, output=2)
        unit.enqueue(req, 0.0)
        iterations, finished, _ = self.run_until_idle(unit)
        assert req in finished
        # 1024 + 1024 + 952 (final chunk) prefill iterations, then decode.
        chunk_sizes = []
        for it in iterations:
            chunk_sizes += [c.new_tokens for c in it.partial_prefills]
        assert chunk_sizes == [1024, 1024]
        assert req.prefilled_tokens == 3000

    def test_ttft_stamped_at_last_chunk(self):
        unit = make_unit(limits=self.chunked_limits(chunk=1024))
        req = make_request(prompt=3000, output=2)
        unit.enqueue(req, 0.0)
        partial_end = 0.0
        now = 0.0
        for _ in range(10):
            it = unit.next_iteration(now)
            if it is None:
                break
            now += it.duration
            unit.complete_iteration(it, now)
            if it.partial_prefills:
                partial_end = now
                assert req.prefill_completion_time is None  # no token yet
        assert req.prefill_completion_time is not None
        assert req.prefill_completion_time > partial_end

    def test_decode_interleaves_with_prefill_chunks(self):
        unit = make_unit(limits=self.chunked_limits(chunk=512))
        short = make_request(0, prompt=100, output=20)
        unit.enqueue(short, 0.0)
        # Let the short request prefill and start decoding.
        it = unit.next_iteration(0.0)
        now = it.duration
        unit.complete_iteration(it, now)
        long = make_request(1, prompt=4000, output=2)
        unit.enqueue(long, now)
        mixed = 0
        for _ in range(40):
            it = unit.next_iteration(now)
            if it is None:
                break
            if it.partial_prefills and short in it.decode_requests:
                mixed += 1
            now += it.duration
            unit.complete_iteration(it, now)
        # Decode is not starved: it rides along with every prefill chunk.
        assert mixed >= 4
        assert short.is_finished and long.is_finished

    def test_preempted_chunked_request_restarts_from_scratch(self):
        unit = make_unit(limits=self.chunked_limits(chunk=512))
        req = make_request(prompt=1500, output=2)
        unit.enqueue(req, 0.0)
        it = unit.next_iteration(0.0)
        unit.complete_iteration(it, it.duration)
        assert req.prefilled_tokens == 512
        unit._preempt(req)
        assert req.prefilled_tokens == 0
        iterations, finished, _ = self.run_until_idle(unit, now=it.duration)
        assert req in finished

    def test_chunking_off_is_monolithic(self):
        unit = make_unit(limits=SchedulerLimits())
        req = make_request(prompt=3000, output=2)
        unit.enqueue(req, 0.0)
        it = unit.next_iteration(0.0)
        assert it.partial_prefills == []
        assert it.prefill_requests == [req]


class TestHandoffShed:
    def hostable_tokens(self, unit):
        # Tokens an empty cache on the unit can hold (its bottleneck device's).
        return round(unit.available_kv_bytes() / unit.model.kv_bytes_per_token())

    def oversized(self, req_id, unit):
        # A context no empty cache on this unit could ever hold.
        max_tokens = self.hostable_tokens(unit)
        return make_request(req_id, prompt=max_tokens + 1024, output=4)

    def prefilled(self, req):
        req.start_prefill()
        req.begin_migration()
        req.end_migration()
        return req

    def test_impossible_handoffs_shed_not_deadlocked(self):
        # Regression: two queued hand-offs that can never fit used to make the
        # decode unit spin forever (the old escape hatch only fired for a
        # single queued request).
        unit = make_unit(mode="decode")
        doomed = [self.prefilled(self.oversized(i, unit)) for i in range(2)]
        ok = self.prefilled(make_request(7, prompt=200, output=2))
        for req in doomed:
            unit.enqueue_prefilled(req, 0.0)
        unit.enqueue_prefilled(ok, 0.0)
        it = unit.next_iteration(0.0)
        assert unit.dropped == doomed
        # The request queued behind the doomed ones is admitted and decodes.
        assert it is not None and ok in it.decode_requests
        now = it.duration
        finished = unit.complete_iteration(it, now).finished
        while not ok.is_finished:
            it = unit.next_iteration(now)
            assert it is not None
            now += it.duration
            finished += unit.complete_iteration(it, now).finished
        assert ok in finished

    def test_blocked_but_feasible_handoff_waits(self):
        unit = make_unit(mode="decode")
        # Fill the unit with a running request, then queue a hand-off that fits
        # an empty cache but not the current one: it must wait, not shed.
        max_tokens = self.hostable_tokens(unit)
        hog = self.prefilled(make_request(0, prompt=int(max_tokens * 0.9), output=50))
        unit.enqueue_prefilled(hog, 0.0)
        it = unit.next_iteration(0.0)
        assert hog in it.decode_requests
        blocked = self.prefilled(make_request(1, prompt=int(max_tokens * 0.5), output=4))
        unit.enqueue_prefilled(blocked, 0.0)
        it2 = unit.next_iteration(1.0)
        assert blocked not in unit.dropped
        assert blocked in unit.pending_prefilled
