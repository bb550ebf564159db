"""Execution units: the per-replica iteration loops of a serving system.

An :class:`ExecutionUnit` owns a waiting queue, a running batch, and the KV
cache of one model replica (or one phase-specific replica for Splitwise), and
turns batches into timed :class:`~repro.sim.iteration.Iteration` objects.
:class:`StaticPipelineUnit` implements the conventional execution model used
by the baselines and by Hetis' Primary workers for dense computation: a
pipeline of (possibly asymmetric) tensor-parallel stages with token-granular
paged KV caches and vLLM-style LIFO preemption.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.hardware.cluster import Cluster
from repro.kvcache.block_manager import PagedBlockManager
from repro.models.flops import BatchProfile, LayerCostModel
from repro.models.spec import ModelSpec
from repro.parallel.config import InstanceParallelConfig
from repro.perf.commcost import CommModel
from repro.perf.roofline import RooflineExecutor
from repro.sim.iteration import Handoff, Iteration, IterationOutcome
from repro.sim.request import Request, RequestStatus
from repro.sim.scheduler import ContinuousBatchingPolicy, PrefillChunk, SchedulerLimits


class ExecutionUnit(abc.ABC):
    """One independently clocked iteration loop of a serving system."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Failure injection: while ``now < paused_until`` the engine will not
        # start iterations on this unit (the replica is down); queued work
        # stays put and resumes after recovery.  0.0 = never paused.
        self.paused_until: float = 0.0

    # -- request ingress ---------------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, request: Request, now: float) -> None:
        """Accept a fresh request that still needs its prefill."""

    def enqueue_prefilled(self, request: Request, now: float) -> None:
        """Accept a request whose prefill ran elsewhere (Splitwise hand-off)."""
        raise NotImplementedError(f"{self.name} does not accept prefilled requests")

    # -- request egress (drains / failures) ---------------------------------------

    def evict_queued(self, now: float) -> List[Request]:
        """Remove and return requests that can move to another unit.

        Only requests with no live KV on this unit -- freshly queued or
        preempted (recompute-on-preempt drops their cache) -- are movable;
        requests mid-prefill hold blocks and stay.  The base implementation
        moves nothing, so units without an eviction story (e.g. Hetis
        instance units with head-sliced placements) simply keep their work.
        """
        return []

    def preempt_running(self, now: float) -> List[Request]:
        """Preempt every in-flight request (failure injection).

        Preempted requests lose their KV cache and land back in the waiting
        queue with recompute-on-restart semantics; the returned list is what
        was preempted.  Base implementation: nothing to preempt.
        """
        return []

    # -- iteration protocol --------------------------------------------------------

    @abc.abstractmethod
    def has_work(self) -> bool:
        """Whether the unit could make progress if stepped now."""

    @abc.abstractmethod
    def next_iteration(self, now: float) -> Optional[Iteration]:
        """Plan the next iteration (batch selection + timing), or ``None`` if idle."""

    @abc.abstractmethod
    def complete_iteration(self, iteration: Iteration, now: float) -> IterationOutcome:
        """Apply the effects of a finished iteration at time ``now``."""

    # -- introspection ---------------------------------------------------------------

    @abc.abstractmethod
    def kv_utilization(self) -> Dict[str, float]:
        """Per-device KV-cache utilization in [0, 1]."""

    @abc.abstractmethod
    def available_kv_bytes(self) -> float:
        """Total KV-cache bytes this unit can ever host (capacity, not free space)."""

    @property
    @abc.abstractmethod
    def num_waiting(self) -> int:
        ...

    @property
    @abc.abstractmethod
    def num_running(self) -> int:
        ...

    @property
    def load(self) -> int:
        """Routing heuristic: requests currently owned by this unit."""
        return self.num_waiting + self.num_running


StageTerms = Tuple[int, float, float]
"""One stage's ``(num_layers, dense, comm)``: per-layer seconds, max over shards."""

TokenTerms = Tuple[Tuple[StageTerms, ...], float, float, float]
"""``(per-stage terms, MLP module time, LM head, pipeline hand-offs)``."""


class TokenCountPricing:
    """Memo of the iteration-time terms that depend only on the token count.

    Dense and MLP module times of each stage (max over its distinct
    ``(GPU spec, shard fraction)`` pairs, see ``StageConfig.unique_shards``),
    the per-layer tensor-parallel all-reduces, the LM head and the pipeline
    hand-offs are pure functions of the fixed stage layout and
    ``batch.total_tokens``.  Decode batches repeat token counts every
    iteration, so each distinct count is priced once; the memo is bounded by
    the number of distinct token counts the scheduler limits allow.

    ``shard_heads`` lists, per stage, each distinct shard's GPU spec, its
    fraction and the query heads it computes in Attention, for the callers'
    batch-dependent Attention terms.
    """

    def __init__(
        self,
        config: InstanceParallelConfig,
        model: ModelSpec,
        executor: RooflineExecutor,
        cost_model: LayerCostModel,
        comm: CommModel,
    ) -> None:
        self.config = config
        self.executor = executor
        self.cost_model = cost_model
        self.comm = comm
        self.shard_heads = [
            [
                (spec, frac, max(model.gqa_ratio, int(round(model.num_heads * frac))))
                for spec, frac in stage.unique_shards()
            ]
            for stage in config.stages
        ]
        self._memo: Dict[int, TokenTerms] = {}

    def terms(self, batch: BatchProfile) -> TokenTerms:
        """``(per-stage terms, MLP module time, LM head, pipeline hand-offs)``.

        The MLP module time follows the paper's module-latency definition:
        the slowest stage's MLP time times the number of stages.
        """
        tokens = batch.total_tokens
        terms = self._memo.get(tokens)
        if terms is None:
            terms = self._memo[tokens] = self._price(batch, tokens)
        return terms

    def _price(self, batch: BatchProfile, tokens: int) -> TokenTerms:
        executor = self.executor
        stages: List[StageTerms] = []
        max_mlp = 0.0
        for stage, shards in zip(self.config.stages, self.shard_heads):
            dense_t = mlp_t = 0.0
            for spec, frac, _heads in shards:
                dense_cost = self.cost_model.dense_cost(batch).scaled(frac)
                mlp_cost = self.cost_model.mlp_cost(tokens).scaled(frac)
                dense_t = max(dense_t, executor.module_time(dense_cost, spec, tokens))
                mlp_t = max(mlp_t, executor.module_time(mlp_cost, spec, tokens))
            comm_t = 0.0
            if stage.tp_degree > 1:
                comm_t = 2.0 * self.comm.tp_allreduce_time(stage.devices, tokens)
            stages.append((stage.num_layers, dense_t, comm_t))
            max_mlp = max(max_mlp, stage.num_layers * mlp_t)
        last_stage = self.config.stages[-1]
        lm_head = executor.lm_head_time(
            last_stage.devices[0].spec, tokens, tp_degree=last_stage.tp_degree
        )
        handoff = 0.0
        for prev, nxt in zip(self.config.stages[:-1], self.config.stages[1:]):
            handoff += self.comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)
        return tuple(stages), max_mlp * len(self.config.stages), lm_head, handoff


class StaticPipelineUnit(ExecutionUnit):
    """Pipeline-parallel, (asymmetric) tensor-parallel execution unit.

    Parameters
    ----------
    config:
        The instance's stage layout.  ``attention_workers`` in the config are
        ignored by this unit (they are a Hetis concept).
    mode:
        ``"both"`` runs prefill and decode (HexGen, plain TP); ``"prefill"``
        only prefills and hands requests off; ``"decode"`` only accepts
        prefilled requests (and recomputes the prefill of those it preempts).
    """

    def __init__(
        self,
        name: str,
        config: InstanceParallelConfig,
        model: ModelSpec,
        cluster: Cluster,
        limits: SchedulerLimits | None = None,
        mode: str = "both",
    ) -> None:
        super().__init__(name)
        if mode not in ("both", "prefill", "decode"):
            raise ValueError(f"invalid mode {mode!r}")
        config.validate_layer_count(model)
        self.config = config
        self.model = model
        self.cluster = cluster
        self.mode = mode
        self.executor = RooflineExecutor(model)
        self.cost_model = LayerCostModel(model)
        self.comm = CommModel(cluster, model)
        self.policy = ContinuousBatchingPolicy(limits)

        # Per-device KV share: fraction of a request's total KV bytes stored on
        # each device = (layers on the device / all layers) * its shard fraction.
        total_layers = config.total_layers
        share: Dict[int, float] = {}
        for stage in config.stages:
            layer_frac = stage.num_layers / total_layers
            for dev, frac in zip(stage.devices, stage.fractions()):
                share[dev.device_id] = share.get(dev.device_id, 0.0) + layer_frac * frac
        # Every device gets the same allocate/append/free calls with the same
        # block size, so per-sequence block counts and used blocks are equal
        # on all of them at all times: a fit check passes everywhere iff it
        # passes on the device with the fewest blocks.  That device's manager
        # is the one ledger; the others only lend their block totals to
        # ``kv_utilization``.
        kv_capacity = config.kv_capacity_per_device(model)
        managers = [
            (dev.name, PagedBlockManager(
                capacity_bytes=kv_capacity[dev.device_id],
                kv_bytes_per_token=model.kv_bytes_per_token() * share[dev.device_id],
            ))
            for dev in config.primary_devices
            if share.get(dev.device_id, 0.0) > 0
        ]
        self._device_blocks = [(name, m.total_blocks) for name, m in managers]
        self._ledger = min((m for _, m in managers), key=lambda m: m.total_blocks)

        self._pricing = TokenCountPricing(config, model, self.executor, self.cost_model, self.comm)

        self.waiting: Deque[Request] = deque()
        self.pending_prefilled: Deque[Request] = deque()
        # Insertion-ordered set (admission order): O(1) membership and removal.
        self.running: Dict[Request, None] = {}
        self.dropped: List[Request] = []

    # -- ingress -----------------------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        if self.mode == "decode":
            raise RuntimeError(f"{self.name} is decode-only and cannot prefill")
        self.waiting.append(request)

    def enqueue_prefilled(self, request: Request, now: float) -> None:
        if self.mode == "prefill":
            raise RuntimeError(f"{self.name} is prefill-only and cannot decode")
        self.pending_prefilled.append(request)

    # -- egress (drains / failures) ------------------------------------------------

    def evict_queued(self, now: float) -> List[Request]:
        movable = [
            r
            for r in self.waiting
            if r.status in (RequestStatus.QUEUED, RequestStatus.PREEMPTED)
        ]
        for req in movable:
            self.waiting.remove(req)
        return movable

    def preempt_running(self, now: float) -> List[Request]:
        victims = [r for r in self.running if not r.is_finished]
        # Partially-prefilled requests sit in the waiting queue but hold KV
        # blocks for their full prefill target; a failure drops those too.
        victims += [r for r in self.waiting if r.status == RequestStatus.PREFILLING]
        for req in victims:
            self._preempt(req)
        return victims

    # -- cache helpers -------------------------------------------------------------------

    def _batch_admit_checker(self):
        """A ``can_admit`` callable that accounts for the batch it approves.

        The selectors check candidates one by one, but every approved request
        allocates its full context only after selection finishes -- so a
        per-candidate fit check lets two requests through that each fit alone
        yet not together, and the second allocation blows up.  The returned
        checker keeps a running block reservation; sums of per-request block
        needs equal the blocks the later allocations take, so single-candidate
        decisions are unchanged.
        """
        ledger = self._ledger
        reserved = 0

        def can_admit(request: Request) -> bool:
            nonlocal reserved
            need = ledger.blocks_needed(request.context_length)
            if reserved + need > ledger.free_blocks:
                return False
            reserved += need
            return True

        return can_admit

    def _free(self, request: Request) -> None:
        if self._ledger.has_sequence(request.request_id):
            self._ledger.free(request.request_id)

    def _preempt(self, victim: Request) -> None:
        """Drop the victim's cache and send it back for re-prefill (LIFO policy)."""
        self._free(victim)
        victim.preempt()
        self.running.pop(victim, None)
        if victim not in self.waiting:
            # A partially-prefilled victim is still sitting in the waiting
            # queue; do not enqueue it a second time.
            self.waiting.appendleft(victim)

    def _ensure_appendable(self, request: Request) -> bool:
        """Make room for one more token of ``request``, preempting LIFO if needed.

        Returns False when the request itself had to be preempted.
        """
        while not self._ledger.can_append(request.request_id):
            # The most recently admitted decoding request other than
            # ``request`` is the victim; ``request`` itself only when alone.
            victims = (r for r in reversed(self.running) if r.status == RequestStatus.DECODING)
            victim = next(victims, None)
            if victim is None:
                return False
            if victim is request:
                victim = next(victims, None)
                if victim is None:
                    self._preempt(request)
                    return False
            self._preempt(victim)
        return True

    # -- iteration planning ---------------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self.running or self.waiting or self.pending_prefilled)

    def next_iteration(self, now: float) -> Optional[Iteration]:
        ledger = self._ledger
        # 1. Decode step for every running request that still fits.
        decode_requests: List[Request] = []
        for req in list(self.running):
            if req.status != RequestStatus.DECODING:
                continue
            if self._ensure_appendable(req):
                decode_requests.append(req)
        decode_requests = [r for r in decode_requests if r in self.running]

        # 2. Admit prefilled hand-offs (decode / both modes).
        while self.pending_prefilled:
            candidate = self.pending_prefilled[0]
            if len(self.running) >= self.policy.limits.max_running_requests:
                break
            if not ledger.can_allocate(candidate.context_length):
                # A preempted victim can sit ahead of an in-flight partial
                # prefill, so scan the queue for block holders, not just the head.
                holds_blocks = any(
                    r.status == RequestStatus.PREFILLING for r in self.waiting
                )
                if candidate.context_length > ledger.total_blocks * ledger.block_size or (
                    not self.running and not holds_blocks
                ):
                    # Shed instead of deadlocking: the hand-off exceeds the
                    # unit's total capacity, or nothing is running (and no
                    # chunked prefill holds blocks) so no block will ever be
                    # freed.  Keep scanning -- requests queued behind a doomed
                    # hand-off may still fit.
                    self.pending_prefilled.popleft()
                    self.dropped.append(candidate)
                    continue
                break
            self.pending_prefilled.popleft()
            ledger.allocate(candidate.request_id, candidate.context_length)
            candidate.status = RequestStatus.DECODING
            self.running[candidate] = None
            decode_requests.append(candidate)

        # 3. Admit new prefill work -- whole prefills, or chunks of them when
        #    chunked prefill is enabled (a partially-prefilled request stays at
        #    the head of the waiting queue between chunks).  A decode-only unit
        #    gets no fresh requests, but recomputes its own preempted ones
        #    here through the same path.
        prefill_requests: List[Request] = []
        partial_prefills: List[PrefillChunk] = []
        prefill_chunks: List[PrefillChunk] = []
        if self.mode in ("both", "prefill") or self.waiting:
            prefill_chunks = self.policy.select_prefill_chunks(
                self.waiting,
                num_running=len(self.running),
                can_admit=self._batch_admit_checker(),
            )
            for chunk in prefill_chunks:
                req = chunk.request
                if chunk.is_first:
                    # The full-context KV allocation happens with the first
                    # chunk; later chunks fill blocks already reserved.
                    ledger.allocate(req.request_id, req.prefill_target)
                    req.start_prefill()
                if chunk.completes_prefill:
                    self.running[req] = None
                    prefill_requests.append(req)
                else:
                    partial_prefills.append(chunk)
            if (
                not prefill_chunks
                and not decode_requests
                and self.waiting
                and not self.running
                and self.waiting[0].prefilled_tokens == 0
                and not ledger.can_allocate(self.waiting[0].context_length)
            ):
                # A request that can never fit alone would deadlock the unit.
                self.dropped.append(self.waiting.popleft())

        if not prefill_chunks and not decode_requests:
            return None

        batch = BatchProfile(
            prefill_lengths=[c.new_tokens for c in prefill_chunks],
            decode_contexts=[r.context_length for r in decode_requests],
            prefill_cached=[c.cached_tokens for c in prefill_chunks]
            if any(c.cached_tokens for c in prefill_chunks)
            else (),
        )
        duration, module_times = self._iteration_time(batch)
        return Iteration(
            duration=duration,
            prefill_requests=prefill_requests,
            decode_requests=decode_requests,
            partial_prefills=partial_prefills,
            module_times=module_times,
        )

    # -- timing -----------------------------------------------------------------------------

    def _iteration_time(self, batch: BatchProfile) -> tuple[float, Dict[str, float]]:
        """Total iteration duration plus the module-latency metrics.

        The duration is the latency of the batch traversing the full pipeline
        (sum of stage times plus hidden-state hand-offs); the module metrics
        follow the paper's definition (max per-stage module time multiplied by
        the number of stages, reflecting pipeline bubbles).  Each stage's
        Attention time is the max over its distinct TP shards; decode
        Attention is priced from the batch's context sum, taken once.
        """
        stages, mlp_time, lm_head, handoff = self._pricing.terms(batch)
        executor = self.executor
        cost_model = self.cost_model
        has_prefill = bool(batch.prefill_lengths)
        # BatchProfile rejects non-positive contexts, so every decode request
        # does work on every shard (each computes at least ``gqa_ratio`` heads).
        n_decode = len(batch.decode_contexts)
        ctx_sum = sum(batch.decode_contexts)
        gqa = self.model.gqa_ratio
        total = 0.0
        max_attn = 0.0
        for (num_layers, dense_t, comm_t), shards in zip(stages, self._pricing.shard_heads):
            attn_t = 0.0
            for spec, _frac, heads in shards:
                dec_attn = cost_model.decode_attention_cost_from_sums(
                    heads * ctx_sum, -(-heads // gqa) * ctx_sum, heads * n_decode, n_decode
                )
                shard_t = executor.attention_module_time(dec_attn, spec)
                if has_prefill:
                    pre_attn = cost_model.prefill_attention_batch_cost(batch, heads)
                    shard_t += executor.attention_module_time(pre_attn, spec)
                attn_t = max(attn_t, shard_t)
            total += num_layers * (dense_t + attn_t + comm_t)
            max_attn = max(max_attn, num_layers * attn_t)
        duration = total + lm_head + handoff
        module_times = {
            "mlp": mlp_time,
            "attention": max_attn * len(stages),
            "iteration": duration,
        }
        return duration, module_times

    # -- iteration completion ----------------------------------------------------------------

    def complete_iteration(self, iteration: Iteration, now: float) -> IterationOutcome:
        outcome = IterationOutcome()
        for req in iteration.decode_requests:
            if req not in self.running or req.status != RequestStatus.DECODING:
                continue  # got preempted after planning (should not happen, defensive)
            # Appends of earlier requests in this very iteration may have taken
            # the last free blocks; re-establish appendability (possibly by
            # preempting LIFO victims) before committing this request's token.
            if not self._ensure_appendable(req) or req not in self.running:
                continue
            self._ledger.append(req.request_id)
            if req.prefill_completion_time is None:
                # Disaggregated hand-off: the first token is only produced once
                # the migrated cache lands on the decode workers, so the
                # migration delay is part of TTFT (the effect the paper
                # attributes Splitwise's prefill-latency penalty to).
                req.status = RequestStatus.PREFILLING
                req.complete_prefill(now)
            else:
                req.add_decode_token(now)
            if req.is_finished:
                self._free(req)
                del self.running[req]
                outcome.finished.append(req)
        for chunk in iteration.partial_prefills:
            # A non-final chunk only advances prefill progress; the request is
            # still at the head of the waiting queue and produces no token.
            # (TTFT and the Splitwise hand-off both wait for the last chunk.)
            if chunk.request.status == RequestStatus.PREFILLING:
                chunk.request.advance_prefill(chunk.new_tokens)
        for req in iteration.prefill_requests:
            if req not in self.running:
                continue
            if self.mode == "prefill":
                kv_bytes = req.context_length * self.model.kv_bytes_per_token()
                self._free(req)
                del self.running[req]
                req.begin_migration()
                outcome.handoffs.append(Handoff(request=req, kv_bytes=kv_bytes))
                continue
            req.complete_prefill(now)
            if req.is_finished:
                self._free(req)
                del self.running[req]
                outcome.finished.append(req)
        return outcome

    # -- introspection ---------------------------------------------------------------------------

    def kv_utilization(self) -> Dict[str, float]:
        used = self._ledger.used_blocks
        return {name: used / total if total else 0.0 for name, total in self._device_blocks}

    def available_kv_bytes(self) -> float:
        """Effective KV capacity: what the bottleneck device lets the unit host.

        Every admitted request consumes cache on *all* devices in proportion to
        their layer/shard share, so the number of tokens the unit can hold is
        limited by the device whose per-token share exhausts first -- this is
        the computation/memory-imbalance waste the paper illustrates in
        Fig. 1(b) and measures in Fig. 11.  The value reported here is that
        hostable token count (the ledger's) priced at the full per-token KV
        footprint.
        """
        hostable_tokens = self._ledger.total_blocks * self._ledger.block_size
        return float(hostable_tokens * self.model.kv_bytes_per_token())

    @property
    def num_waiting(self) -> int:
        return len(self.waiting) + len(self.pending_prefilled)

    @property
    def num_running(self) -> int:
        return len(self.running)
