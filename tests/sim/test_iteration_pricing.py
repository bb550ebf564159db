"""Differential tests: iteration pricing vs. the per-request pricing it replaced.

The execution units price an iteration from batch aggregates: token-count-only
terms come from a per-unit memo, and decode Attention from four integer sums
(``LayerCostModel.decode_attention_cost_from_sums``).  The references below
are the direct computation those aggregates must equal bit for bit: every
term rebuilt on every call, and decode Attention summed request by request.
Each real deployment is run with a spy on the unit's pricing call that checks
every planned iteration against the reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build
from repro.config import ClusterSpec, DeploymentSpec, SystemSpec, WorkloadSpec
from repro.core.hetis_unit import PRIMARY_TARGET_ID, HetisInstanceUnit
from repro.hardware.cluster import cluster_from_blueprint
from repro.models.flops import ZERO_COST, BatchProfile, LayerCostModel, ModuleCost
from repro.models.spec import ModelSpec, get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.perf.commcost import CommModel, attention_transfer_bytes
from repro.perf.roofline import RooflineExecutor
from repro.sim.request import Request
from repro.sim.units import StaticPipelineUnit

Pricing = Tuple[float, Dict[str, float]]


def reference_decode_attention_cost(
    model: ModelSpec, contexts: Sequence[int], heads_per_request: Optional[Sequence[int]] = None
) -> ModuleCost:
    """Decode Attention over a batch, accumulated request by request."""
    flops = 0.0
    act_bytes = 0.0
    kernels = 0
    for idx, ctx in enumerate(contexts):
        heads = model.num_heads if heads_per_request is None else heads_per_request[idx]
        if heads <= 0 or ctx == 0:
            continue
        flops += heads * ctx * (4.0 * model.head_dim + 1.0)
        kv_head_groups = -(-heads // model.gqa_ratio)
        act_bytes += (
            2.0 * ctx * kv_head_groups * model.head_dim * model.dtype_bytes
            + 2.0 * heads * model.head_dim * model.dtype_bytes
        )
        kernels += 1
    if kernels == 0:
        return ZERO_COST
    return ModuleCost(flops, 0.0, act_bytes, kernels=1)


class ReferencePricing:
    """Iteration pricing with nothing memoized and no batch aggregates."""

    def __init__(self, unit) -> None:
        self.unit = unit
        self.model = unit.model
        self.cost_model = LayerCostModel(unit.model)
        self.executor = RooflineExecutor(unit.model)
        self.comm = CommModel(unit.cluster, unit.model)

    def shards(self, stage):
        for spec, frac in stage.unique_shards():
            yield spec, frac, max(self.model.gqa_ratio, int(round(self.model.num_heads * frac)))

    def tail(self, tokens: int) -> Tuple[float, float]:
        stages = self.unit.config.stages
        last = stages[-1]
        lm_head = self.executor.lm_head_time(last.devices[0].spec, tokens, tp_degree=last.tp_degree)
        handoff = 0.0
        for prev, nxt in zip(stages[:-1], stages[1:]):
            handoff += self.comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)
        return lm_head, handoff

    def comm_time(self, stage, tokens: int) -> float:
        if stage.tp_degree > 1:
            return 2.0 * self.comm.tp_allreduce_time(stage.devices, tokens)
        return 0.0

    def static(self, batch: BatchProfile) -> Pricing:
        tokens = batch.total_tokens
        n_decode = len(batch.decode_contexts)
        ex, cm = self.executor, self.cost_model
        stage_totals: List[float] = []
        max_mlp = max_attn = 0.0
        for stage in self.unit.config.stages:
            dense_t = mlp_t = attn_t = 0.0
            for spec, frac, heads in self.shards(stage):
                dense_t = max(dense_t, ex.module_time(cm.dense_cost(batch).scaled(frac), spec, tokens))
                mlp_t = max(mlp_t, ex.module_time(cm.mlp_cost(tokens).scaled(frac), spec, tokens))
                pre_attn = cm.prefill_attention_batch_cost(batch, heads)
                dec_attn = reference_decode_attention_cost(self.model, batch.decode_contexts, [heads] * n_decode)
                attn_t = max(
                    attn_t, ex.attention_module_time(pre_attn, spec) + ex.attention_module_time(dec_attn, spec)
                )
            stage_totals.append(stage.num_layers * (dense_t + attn_t + self.comm_time(stage, tokens)))
            max_mlp = max(max_mlp, stage.num_layers * mlp_t)
            max_attn = max(max_attn, stage.num_layers * attn_t)
        lm_head, handoff = self.tail(tokens)
        duration = sum(stage_totals) + lm_head + handoff
        n_stages = len(self.unit.config.stages)
        return duration, {"mlp": max_mlp * n_stages, "attention": max_attn * n_stages, "iteration": duration}

    def hetis(self, batch: BatchProfile, decode_requests: Sequence[Request]) -> Pricing:
        tokens = batch.total_tokens
        ex, cm = self.executor, self.cost_model
        stage_totals: List[float] = []
        max_mlp = 0.0
        for stage in self.unit.config.stages:
            dense_t = mlp_t = pre_t = 0.0
            for spec, frac, heads in self.shards(stage):
                dense_t = max(dense_t, ex.module_time(cm.dense_cost(batch).scaled(frac), spec, tokens))
                mlp_t = max(mlp_t, ex.module_time(cm.mlp_cost(tokens).scaled(frac), spec, tokens))
                pre_t = max(pre_t, ex.attention_module_time(cm.prefill_attention_batch_cost(batch, heads), spec))
            stage_totals.append(stage.num_layers * (dense_t + pre_t + self.comm_time(stage, tokens)))
            max_mlp = max(max_mlp, stage.num_layers * mlp_t)
        lm_head, handoff = self.tail(tokens)
        decode_attn = self.hetis_decode_attention(decode_requests)
        duration = sum(stage_totals) + lm_head + handoff + decode_attn
        n_stages = len(self.unit.config.stages)
        return duration, {"mlp": max_mlp * n_stages, "attention": decode_attn, "iteration": duration}

    def primary_attention(self, contexts: Sequence[int], heads: Sequence[int]) -> float:
        if not contexts or sum(heads) == 0:
            return 0.0
        total = 0.0
        for stage in self.unit.config.stages:
            per_layer = 0.0
            for spec, frac in stage.unique_shards():
                dev_heads = [max(0, int(round(h * frac))) for h in heads]
                cost = reference_decode_attention_cost(self.model, contexts, dev_heads)
                per_layer = max(per_layer, self.executor.attention_module_time(cost, spec))
            total += stage.num_layers * per_layer
        return total

    def worker_attention(self, worker, contexts: Sequence[int], heads: Sequence[int]) -> float:
        if not contexts or sum(heads) == 0:
            return 0.0
        cost = reference_decode_attention_cost(self.model, contexts, heads)
        return self.executor.attention_module_time(cost, worker.spec) * self.model.num_layers

    def hetis_decode_attention(self, decode_requests: Sequence[Request]) -> float:
        if not decode_requests:
            return 0.0
        unit = self.unit
        contexts = [r.context_length for r in decode_requests]
        splits = [unit._splits[r.request_id] for r in decode_requests]
        times = [self.primary_attention(contexts, [s.heads_on(PRIMARY_TARGET_ID) for s in splits])]
        for worker in unit.config.attention_workers:
            heads = [s.heads_on(worker.device_id) for s in splits]
            if sum(heads) == 0:
                continue
            transfer = self.model.num_layers * unit.cluster.p2p_time(
                attention_transfer_bytes(self.model, float(sum(heads)), per_layer=True),
                unit._primary_front,
                worker,
            )
            times.append(self.worker_attention(worker, contexts, heads) + transfer)
        return max(times)


def spy_on_pricing(unit, log: List[dict]) -> None:
    """Check every pricing call of ``unit`` against the reference, and log it."""
    reference = ReferencePricing(unit)
    priced = unit._iteration_time

    if isinstance(unit, HetisInstanceUnit):
        def checked(batch, decode_requests):
            expected = reference.hetis(batch, decode_requests)
            workers = {
                t for r in decode_requests for t in unit._splits[r.request_id].targets() if t != PRIMARY_TARGET_ID
            }
            log.append({"batch": batch, "workers": len(workers)})
            actual = priced(batch, decode_requests)
            assert actual == expected
            return actual
    else:
        def checked(batch):
            expected = reference.static(batch)
            log.append({"batch": batch})
            actual = priced(batch)
            assert actual == expected
            return actual

    unit._iteration_time = checked


def run_checked(system: str, chunk: Optional[int], cluster: str, options: Optional[dict] = None):
    spec = DeploymentSpec(
        model="llama-13b",
        system=SystemSpec(name=system, prefill_chunk_tokens=chunk, options=options or {}),
        cluster=ClusterSpec(kind=cluster),
        workload=WorkloadSpec(dataset="longbench", request_rate=4.0, num_requests=60, seed=1),
    )
    prepared = build(spec)
    log: List[dict] = []
    for unit in prepared.system.units:
        spy_on_pricing(unit, log)
    result = prepared.run()
    return prepared, result, log


class TestStaticUnitPricing:
    @pytest.mark.parametrize("chunk", [None, 512])
    @pytest.mark.parametrize("system", ["static-tp", "hexgen", "splitwise"])
    def test_every_iteration_matches_reference(self, system, chunk):
        prepared, result, log = run_checked(system, chunk, "paper")
        units = prepared.system.units
        assert all(isinstance(u, StaticPipelineUnit) for u in units)
        # Multi-stage pipelines, so the hand-off and per-stage terms matter.
        assert max(len(u.config.stages) for u in units) > 1
        assert result.summary.num_finished > 0
        batches = [entry["batch"] for entry in log]
        assert any(b.decode_contexts and b.prefill_lengths for b in batches)
        if chunk is not None:
            assert any(b.prefill_cached for b in batches)


class TestHetisUnitPricing:
    @pytest.mark.parametrize("chunk", [None, 512])
    @pytest.mark.parametrize(
        "cluster",
        [
            # 4-way TP Primary stages: shards run round(h / 4) of h heads.
            "paper",
            # Two P100 Attention workers run out of KV cache under LongBench
            # contexts: cache re-dispatches and preemptions fire.
            "a100:1,rtx3090:1,p100:2",
        ],
    )
    def test_every_iteration_matches_reference(self, cluster, chunk):
        prepared, result, log = run_checked("hetis", chunk, cluster, {"theta": 0.05})
        units = prepared.system.units
        assert sum(u.num_redispatches for u in units) > 0
        assert max(entry["workers"] for entry in log) >= 2
        assert result.summary.num_finished > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        batch=st.lists(
            st.tuples(st.integers(1, 8192), st.integers(0, 40)),  # (context, heads on target)
            min_size=1,
            max_size=64,
        )
    )
    def test_target_attention_matches_reference(self, asymmetric_hetis_unit, batch):
        # Primary heads h run as round(h * 0.6) and round(h * 0.4) on the
        # RTX 3090 shards.  The fitted device models also come from these
        # functions, on batches of identical requests.
        unit, reference = asymmetric_hetis_unit
        contexts = [ctx for ctx, _ in batch]
        heads = [h for _, h in batch]
        by_heads: Dict[int, List[int]] = {}
        for ctx, h in batch:
            if h > 0:
                entry = by_heads.setdefault(h, [0, 0])
                entry[0] += ctx
                entry[1] += 1
        assert unit._primary_attention_time(by_heads) == reference.primary_attention(contexts, heads)
        for worker in unit.config.attention_workers:
            actual = unit._worker_attention_time(worker, unit._head_sums(by_heads)) if by_heads else 0.0
            assert actual == reference.worker_attention(worker, contexts, heads)


@pytest.fixture(scope="module")
def asymmetric_hetis_unit():
    model = get_model_spec("llama-13b")
    cluster = cluster_from_blueprint("a100:1,rtx3090:2,p100:2")
    config = InstanceParallelConfig(
        stages=[
            StageConfig(devices=cluster.devices_of_type("a100"), num_layers=28),
            StageConfig(
                devices=cluster.devices_of_type("rtx3090"), num_layers=12, shard_fractions=[0.6, 0.4]
            ),
        ],
        attention_workers=cluster.devices_of_type("p100"),
    )
    unit = HetisInstanceUnit("asymmetric", config, model, cluster)
    return unit, ReferencePricing(unit)


MODELS = {name: get_model_spec(name) for name in ("llama-13b", "llama-70b")}


@st.composite
def decode_batches(draw):
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    n = draw(st.integers(0, 256))
    contexts = draw(st.lists(st.integers(1, 131072), min_size=n, max_size=n))
    heads = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, model.num_heads), min_size=n, max_size=n),
        )
    )
    return model, contexts, heads


class TestClosedFormDecodeAttention:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=decode_batches())
    def test_matches_per_request_sum(self, case):
        model, contexts, heads = case
        expected = reference_decode_attention_cost(model, contexts, heads)
        cost_model = LayerCostModel(model)
        per_request = heads if heads is not None else [model.num_heads] * len(contexts)
        working = [(h, c) for h, c in zip(per_request, contexts) if h > 0]
        from_sums = cost_model.decode_attention_cost_from_sums(
            sum(h * c for h, c in working),
            sum(-(-h // model.gqa_ratio) * c for h, c in working),
            sum(h for h, _ in working),
            len(working),
        )
        for actual in (cost_model.decode_attention_batch_cost(contexts, heads), from_sums):
            assert actual.flops == expected.flops
            assert actual.activation_bytes == expected.activation_bytes
            assert actual.weight_bytes == expected.weight_bytes
            assert actual.kernels == expected.kernels

    def test_gqa_model_covered(self):
        assert MODELS["llama-13b"].gqa_ratio == 1
        assert MODELS["llama-70b"].gqa_ratio == 8
