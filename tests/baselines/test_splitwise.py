"""Tests for the Splitwise baseline."""

import pytest

from repro.api import build_cluster, build_system, run_system
from repro.baselines.splitwise import build_splitwise_system
from repro.hardware.cluster import ClusterBuilder, paper_cluster
from repro.models.spec import get_model_spec
from repro.sim.engine import Engine
from repro.workloads.trace import generate_trace


class TestDeployment:
    def test_prefill_on_fastest_gpus(self):
        system = build_splitwise_system(paper_cluster(), get_model_spec("llama-13b"))
        prefill_types = {d.spec.name for d in system.prefill_unit.config.primary_devices}
        assert prefill_types == {"a100"}

    def test_decode_on_low_end_gpus_for_small_model(self):
        system = build_splitwise_system(paper_cluster(), get_model_spec("llama-13b"))
        decode_types = {d.spec.name for d in system.decode_unit.config.primary_devices}
        assert decode_types == {"rtx3090", "p100"}

    def test_large_model_borrows_high_end_gpus_for_decode(self):
        """Llama-70B cannot fit a second copy on 3090s+P100s alone."""
        system = build_splitwise_system(paper_cluster(), get_model_spec("llama-70b"))
        decode_types = {d.spec.name for d in system.decode_unit.config.primary_devices}
        assert "a100" in decode_types
        # Prefill still keeps at least one A100.
        assert len(system.prefill_unit.config.primary_devices) >= 1

    def test_both_copies_fit_in_memory(self):
        model = get_model_spec("opt-30b")
        system = build_splitwise_system(paper_cluster(), model)
        assert system.prefill_unit.config.fits_in_memory(model)
        assert system.decode_unit.config.fits_in_memory(model)

    def test_single_device_cluster_rejected(self):
        tiny = ClusterBuilder().add_host("a100", 1).build()
        with pytest.raises(ValueError):
            build_splitwise_system(tiny, get_model_spec("llama-13b"))

    def test_cache_metric_counts_decode_side_only(self):
        system = build_splitwise_system(paper_cluster(), get_model_spec("llama-13b"))
        assert system.available_cache_bytes() == pytest.approx(
            system.decode_unit.available_kv_bytes()
        )


class TestServing:
    def test_end_to_end_with_migrations(self):
        system = build_splitwise_system(paper_cluster(), get_model_spec("llama-13b"))
        result = Engine(system).run(generate_trace("sharegpt", 5.0, 15, seed=0))
        assert result.summary.num_finished == 15
        assert system.num_migrations == 15
        assert system.total_migrated_bytes > 0

    def test_migration_delay_adds_to_ttft(self):
        """TTFT of a disaggregated system includes the cache migration hop."""
        model = get_model_spec("llama-13b")
        system = build_splitwise_system(paper_cluster(), model)
        trace = generate_trace("sharegpt", 0.2, 5, seed=1)  # light load: no queueing
        result = Engine(system).run(trace)
        # Every TTFT must exceed the pure network transfer time of its cache.
        lan_bw = 12.5e9
        for record in result.metrics.records:
            migration_floor = record.prompt_tokens * model.kv_bytes_per_token() / lan_bw
            assert record.ttft > migration_floor

    def test_decode_unit_recomputes_its_preempted_requests(self):
        """Regression: the decode-only unit used to park preempted requests on
        a waiting queue it never served, so they neither finished nor dropped."""
        system = build_system("splitwise", build_cluster("paper"), "llama-13b", prefill_chunk_tokens=512)
        result = run_system(system, generate_trace("longbench", 2.0, 60, seed=1))
        summary = result.summary
        assert not result.truncated
        assert summary.num_finished + summary.num_rejected + result.num_dropped == 60
        assert summary.total_preemptions >= 1
        assert not system.decode_unit.has_work()
