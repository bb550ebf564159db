"""The online Dispatcher: head-wise load dispatching (paper Sec. 5.2).

For every batch of newly admitted requests the Dispatcher solves the min--max
linear program of Eq. (7) over the dispatch targets of a serving instance --
the aggregate Primary worker plus each pooled Attention worker -- using the
profiled linear Attention-time and transfer models, and returns an integral
:class:`~repro.core.attention_parallel.HeadSplit` per request.

Two practical behaviours from the paper are implemented on top of the raw LP:

* **Light-load locality.**  Offloading has a fixed activation cost (the
  transfer latency ``beta``) that a linear program cannot represent; under
  light load the Dispatcher therefore keeps requests entirely on the Primary
  when doing so is within ``local_preference`` of the LP optimum.  This is
  what produces the delayed ramp-up of Attention-worker usage visible in the
  paper's Fig. 14.
* **Greedy fallback.**  When the LP is infeasible or the solver fails, a
  water-filling heuristic is used instead, so dispatching never blocks the
  serving loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.attention_parallel import HeadSplit
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import ModelSpec
from repro.perf.attention_model import DeviceAttentionModel
from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    HeadDispatchSolution,
    lower_bound,
    solve_greedy,
    solve_lp,
)


@dataclass
class DispatchTarget:
    """One destination the Dispatcher can place heads on."""

    target_id: int
    name: str
    device_model: DeviceAttentionModel
    manager: HeadwiseBlockManager
    is_primary: bool = False

    @property
    def resident_heads(self) -> float:
        """Current h_i: query heads of all resident requests."""
        return float(self.manager.total_query_heads())

    @property
    def resident_token_heads(self) -> float:
        """Current g_i: token-heads of all resident requests."""
        return self.manager.total_token_heads()

    @property
    def free_token_heads(self) -> float:
        """Remaining cache budget in token-heads (RHS of Eq. 7b minus g_i)."""
        return float(self.manager.free_blocks * self.manager.block_size * self.manager.model.gqa_ratio)

    @property
    def total_token_heads_capacity(self) -> float:
        return float(self.manager.total_blocks * self.manager.block_size * self.manager.model.gqa_ratio)


@dataclass
class DispatchDecision:
    """Result of one dispatching round."""

    splits: Dict[int, HeadSplit] = field(default_factory=dict)
    objective: float = 0.0
    method: str = "none"
    feasible: bool = True

    @property
    def num_requests(self) -> int:
        return len(self.splits)


class Dispatcher:
    """Dispatches Attention heads of incoming requests across targets."""

    def __init__(
        self,
        model: ModelSpec,
        targets: Sequence[DispatchTarget],
        solver: str = "lp",
        local_preference: float = 0.15,
    ) -> None:
        if not targets:
            raise ValueError("need at least one dispatch target")
        if solver not in ("lp", "greedy"):
            raise ValueError("solver must be 'lp' or 'greedy'")
        if local_preference < 0:
            raise ValueError("local_preference must be >= 0")
        self.model = model
        self.targets = list(targets)
        self.solver = solver
        self.local_preference = local_preference
        primaries = [t for t in self.targets if t.is_primary]
        if len(primaries) != 1:
            raise ValueError("exactly one target must be marked is_primary")
        self.primary = primaries[0]
        # The marginal head/cache coefficients are pure functions of the frozen
        # device models, so hoist them out of the per-dispatch problem build.
        self._head_cost = np.array(
            [t.device_model.head_coefficient(self.model) for t in self.targets]
        )
        self._cache_cost = np.array([t.device_model.cache_coefficient() for t in self.targets])

    # -- problem construction ----------------------------------------------------------

    def _build_problem(
        self,
        contexts: Sequence[int],
        capacities: Optional[np.ndarray] = None,
        base_heads: Optional[np.ndarray] = None,
        base_cache: Optional[np.ndarray] = None,
    ) -> HeadDispatchProblem:
        head_cost = self._head_cost
        cache_cost = self._cache_cost
        h = base_heads if base_heads is not None else np.array([t.resident_heads for t in self.targets])
        g = base_cache if base_cache is not None else np.array([t.resident_token_heads for t in self.targets])
        base = np.array(
            [t.device_model.attention_time(self.model, h[i], g[i]) for i, t in enumerate(self.targets)]
        )
        cap = capacities if capacities is not None else np.array([t.free_token_heads for t in self.targets])
        return HeadDispatchProblem(
            head_cost=head_cost,
            cache_cost=cache_cost,
            base_cost=base,
            capacity=cap,
            contexts=np.asarray(contexts, dtype=float),
            total_heads=self.model.num_heads,
            group_size=self.model.gqa_ratio,
        )

    def _solve(self, problem: HeadDispatchProblem) -> HeadDispatchSolution:
        if self.solver == "lp":
            return solve_lp(problem)
        return solve_greedy(problem)

    # -- dispatching ----------------------------------------------------------------------

    def dispatch_new(self, requests: Sequence[Tuple[int, int]]) -> DispatchDecision:
        """Dispatch a batch of new requests given as (request_id, context_length).

        Already-dispatched requests are never re-parallelized here (that is the
        re-dispatcher's job), matching the paper's design for fast decisions.
        """
        if not requests:
            return DispatchDecision()
        contexts = [ctx for _, ctx in requests]
        problem = self._build_problem(contexts)

        # Light-load locality: the LP is linear and therefore blind to the fixed
        # activation cost (c_i + beta_i) of waking an idle Attention worker, so
        # under light load it over-eagerly offloads.  Compare the LP allocation
        # against the keep-everything-local allocation using an objective that
        # charges that activation cost, and prefer local when it is within
        # ``local_preference`` of the distributed optimum.  Activation costs are
        # >= 0, so the solver's corrected objective is at least the problem's
        # lower bound: when local is within ``local_preference`` of the bound it
        # wins without solving.
        local = self._local_only_solution(problem)
        threshold = 1.0 + self.local_preference
        if local is None:
            solution = self._solve(problem)
        else:
            local_cost = self._activation_corrected_objective(problem, local.allocation)
            if local_cost <= lower_bound(problem) * threshold:
                solution = local
            else:
                solution = self._solve(problem)
                if not solution.feasible or local_cost <= (
                    self._activation_corrected_objective(problem, solution.allocation) * threshold
                ):
                    solution = local

        if not solution.feasible:
            return DispatchDecision(method=solution.method, feasible=False, objective=float("inf"))

        splits: Dict[int, HeadSplit] = {}
        for j, (req_id, _ctx) in enumerate(requests):
            allocation = {
                self.targets[i].target_id: int(solution.allocation[i, j])
                for i in range(len(self.targets))
                if solution.allocation[i, j] > 0
            }
            splits[req_id] = HeadSplit(
                request_id=req_id,
                total_heads=self.model.num_heads,
                group_size=self.model.gqa_ratio,
                allocation=allocation,
            )
        return DispatchDecision(
            splits=splits,
            objective=solution.objective,
            method=solution.method,
            feasible=True,
        )

    def _activation_corrected_objective(
        self, problem: HeadDispatchProblem, allocation: np.ndarray
    ) -> float:
        """The min--max objective plus fixed activation costs for newly woken targets."""
        loads = (
            problem.base_cost
            + problem.head_cost * allocation.sum(axis=1)
            + problem.cache_cost * (allocation * problem.contexts[None, :]).sum(axis=1)
        )
        for i, target in enumerate(self.targets):
            if target.resident_heads == 0 and allocation[i].sum() > 0:
                loads[i] += target.device_model.fixed_cost()
        return float(loads.max())

    def _local_only_solution(self, problem: HeadDispatchProblem) -> Optional[HeadDispatchSolution]:
        """Allocation that keeps every new request entirely on the Primary."""
        primary_idx = self.targets.index(self.primary)
        demand = float(np.sum(problem.contexts) * problem.total_heads)
        if demand > problem.capacity[primary_idx] + 1e-9:
            return None
        allocation = np.zeros((problem.n_devices, problem.n_requests))
        allocation[primary_idx, :] = problem.total_heads
        return HeadDispatchSolution(
            allocation=allocation,
            objective=problem.objective(allocation),
            method="local",
            feasible=True,
        )

    # -- re-dispatching support -----------------------------------------------------------------

    def dispatch_single(self, request_id: int, context_length: int) -> DispatchDecision:
        """Dispatch (or re-dispatch) one request against the current state."""
        return self.dispatch_new([(request_id, context_length)])

    def ideal_problem(self, all_requests: Sequence[Tuple[int, int]]) -> HeadDispatchProblem:
        """The problem behind f*: every request dispatched onto empty targets,
        subject only to total cluster capacity."""
        n = len(self.targets)
        return self._build_problem(
            [ctx for _, ctx in all_requests],
            capacities=np.array([t.total_token_heads_capacity for t in self.targets]),
            base_heads=np.zeros(n),
            base_cache=np.zeros(n),
        )

    def ideal_objective(
        self,
        all_requests: Sequence[Tuple[int, int]],
        problem: Optional[HeadDispatchProblem] = None,
    ) -> float:
        """The paper's f*: the min--max Attention time if *all* requests were
        re-dispatched from scratch, subject only to total cluster capacity.

        ``problem``, when given, is :meth:`ideal_problem` of ``all_requests``
        already built by the caller.
        """
        if not all_requests:
            return 0.0
        solution = self._solve(problem if problem is not None else self.ideal_problem(all_requests))
        if not solution.feasible:
            return float("inf")
        return solution.objective

    def current_objective(self) -> float:
        """Max per-target Attention time implied by the current placements."""
        return max(
            t.device_model.attention_time(self.model, t.resident_heads, t.resident_token_heads)
            for t in self.targets
        )

    def target_by_id(self, target_id: int) -> DispatchTarget:
        for t in self.targets:
            if t.target_id == target_id:
                return t
        raise KeyError(f"no dispatch target with id {target_id}")
