"""Min--max head-dispatching solvers (paper Sec. 5.2.2).

Problem
-------
For a batch of newly arrived requests ``j = 1..J`` with context lengths
``l_j``, choose how many query heads ``x_ij`` of each request to place on each
device ``i`` so as to minimize the maximum per-device Attention time

    f_i(x) = base_i + head_cost_i * sum_j x_ij + cache_cost_i * sum_j l_j x_ij

subject to the per-device cache budget (Eq. 7b) and head-level integrity
``sum_i x_ij = H`` (Eq. 7c), with ``x_ij`` an integral multiple of the KV-head
group size ``r``.

``base_i`` folds in the device's existing load (a_i h_i + b_i g_i + c_i plus
any transfer latency constant), ``head_cost_i`` the marginal per-head cost
(including the per-head transfer term for remote workers), and ``cache_cost_i``
the marginal per-token-head cost.

Lower bound
-----------
Callers that only compare a solved objective against a threshold can often
decide the comparison without solving.  Write ``c_ij = head_cost_i +
cache_cost_i * l_j``.  For any weights ``mu`` on the simplex (``mu_i >= 0``,
``sum_i mu_i = 1``) and any ``x >= 0`` with ``sum_i x_ij = H`` (Eq. 7c),

    max_i f_i(x) >= sum_i mu_i f_i(x)
                  = sum_i mu_i base_i + sum_j sum_i mu_i c_ij x_ij
                 >= sum_i mu_i base_i + H * sum_j min_i mu_i c_ij,

which is weak duality for the LP with the capacity rows (Eq. 7b) dropped.
Since every coefficient is non-negative, ``max_i f_i(x) >= max_i base_i``
too.  :func:`lower_bound` returns the larger of the two, so no feasible
allocation -- fractional or integral, from either solver -- beats it.  It
uses ``mu_i`` proportional to ``1 / (head_cost_i + cache_cost_i * mean(l))``,
the weights that make every device equally attractive for an average
request; the bound is exact when all devices are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from repro.utils.validation import check_positive


@dataclass
class HeadDispatchProblem:
    """Inputs of one dispatching round.

    All per-device arrays have length ``n_devices``; ``contexts`` has length
    ``n_requests``.  ``capacity`` is the *remaining* cache budget of each
    device expressed in token-heads (tokens x query heads), i.e. the right-hand
    side of Eq. (7b) minus the already-resident ``g_i``.
    """

    head_cost: np.ndarray
    cache_cost: np.ndarray
    base_cost: np.ndarray
    capacity: np.ndarray
    contexts: np.ndarray
    total_heads: int
    group_size: int = 1

    def __post_init__(self) -> None:
        self.head_cost = np.asarray(self.head_cost, dtype=float)
        self.cache_cost = np.asarray(self.cache_cost, dtype=float)
        self.base_cost = np.asarray(self.base_cost, dtype=float)
        self.capacity = np.asarray(self.capacity, dtype=float)
        self.contexts = np.asarray(self.contexts, dtype=float)
        n = self.head_cost.shape[0]
        for name, arr in (
            ("cache_cost", self.cache_cost),
            ("base_cost", self.base_cost),
            ("capacity", self.capacity),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} must have the same length as head_cost")
        check_positive("total_heads", self.total_heads)
        check_positive("group_size", self.group_size)
        if self.total_heads % self.group_size != 0:
            raise ValueError("total_heads must be a multiple of group_size")
        if np.any(self.contexts <= 0):
            raise ValueError("contexts must be positive")
        if np.any(self.capacity < 0):
            raise ValueError("capacity must be >= 0")

    @property
    def n_devices(self) -> int:
        return int(self.head_cost.shape[0])

    @property
    def n_requests(self) -> int:
        return int(self.contexts.shape[0])

    def objective(self, x: np.ndarray) -> float:
        """The min--max objective value for an allocation matrix ``x`` (dev x req)."""
        x = np.asarray(x, dtype=float)
        loads = (
            self.base_cost
            + self.head_cost * x.sum(axis=1)
            + self.cache_cost * (x * self.contexts[None, :]).sum(axis=1)
        )
        return float(loads.max())

    def is_feasible(self, x: np.ndarray, atol: float = 1e-6) -> bool:
        """Check integrity and capacity constraints for an allocation matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_devices, self.n_requests):
            return False
        if np.any(x < -atol):
            return False
        if not np.allclose(x.sum(axis=0), self.total_heads, atol=atol):
            return False
        used = (x * self.contexts[None, :]).sum(axis=1)
        return bool(np.all(used <= self.capacity + atol))

    def total_capacity_sufficient(self) -> bool:
        """Whether the cluster as a whole can absorb the new requests' caches."""
        demand = float(self.contexts.sum()) * self.total_heads
        return demand <= float(self.capacity.sum()) + 1e-9


@dataclass
class HeadDispatchSolution:
    """Result of a dispatching round.

    ``allocation`` is the integral (device x request) head matrix;
    ``objective`` the resulting max per-device Attention time; ``method``
    records which solver produced it.  ``feasible`` is False when the cluster
    lacked cache capacity and the caller must queue or preempt instead.
    """

    allocation: np.ndarray
    objective: float
    method: str
    feasible: bool = True
    lp_objective: Optional[float] = None

    def heads_for_request(self, j: int) -> np.ndarray:
        return self.allocation[:, j]


def lower_bound(problem: HeadDispatchProblem) -> float:
    """A value no allocation satisfying Eq. (7c) can beat (see module docstring).

    Assumes non-negative costs, as every fitted device model guarantees.  The
    result is lowered by a relative 1e-9 so that float rounding cannot lift it
    above an objective it ties with.
    """
    per_head = problem.head_cost[:, None] + problem.cache_cost[:, None] * problem.contexts[None, :]
    mean_cost = problem.head_cost + problem.cache_cost * float(problem.contexts.mean())
    if np.all(mean_cost > 0):
        mu = 1.0 / mean_cost
        mu /= mu.sum()
    else:
        mu = np.full(problem.n_devices, 1.0 / problem.n_devices)
    weighted = float(mu @ problem.base_cost) + problem.total_heads * float(
        (mu[:, None] * per_head).min(axis=0).sum()
    )
    bound = max(float(problem.base_cost.max()), weighted)
    return bound - 1e-9 * abs(bound)


def solve_lp(problem: HeadDispatchProblem) -> HeadDispatchSolution:
    """Solve the LP relaxation with HiGHS and round to integral head groups.

    Falls back to the greedy solver when the LP is infeasible or the solver
    fails (which can legitimately happen when per-device capacity cannot hold
    any complete split, e.g. one huge request and tiny devices).
    """
    if not problem.total_capacity_sufficient():
        empty = np.zeros((problem.n_devices, problem.n_requests))
        return HeadDispatchSolution(empty, float("inf"), method="lp", feasible=False)

    n_dev, n_req = problem.n_devices, problem.n_requests
    n_x = n_dev * n_req
    # Variable vector: [x_11..x_1J, x_21.., ..., x_NJ, t]
    c = np.zeros(n_x + 1)
    c[-1] = 1.0

    # f_i(x) <= t   ->   head/cache terms - t <= -base_i
    a_ub = np.zeros((n_dev * 2, n_x + 1))
    b_ub = np.zeros(n_dev * 2)
    for i in range(n_dev):
        cols = slice(i * n_req, (i + 1) * n_req)
        a_ub[i, cols] = problem.head_cost[i] + problem.cache_cost[i] * problem.contexts
        a_ub[i, -1] = -1.0
        b_ub[i] = -problem.base_cost[i]
        # capacity: sum_j l_j x_ij <= capacity_i
        a_ub[n_dev + i, cols] = problem.contexts
        b_ub[n_dev + i] = problem.capacity[i]

    # integrity: sum_i x_ij = H
    a_eq = np.zeros((n_req, n_x + 1))
    for j in range(n_req):
        a_eq[j, j::n_req] = 1.0
    b_eq = np.full(n_req, float(problem.total_heads))

    bounds = [(0.0, float(problem.total_heads))] * n_x + [(None, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not result.success:
        return solve_greedy(problem)

    frac = result.x[:n_x].reshape(n_dev, n_req)
    lp_obj = float(result.x[-1])
    rounded = round_to_groups(problem, frac)
    if rounded is None:
        return solve_greedy(problem)
    lp_solution = HeadDispatchSolution(
        allocation=rounded,
        objective=problem.objective(rounded),
        method="lp",
        feasible=True,
        lp_objective=lp_obj,
    )
    # Rounding to whole head groups can cost a little optimality; the greedy
    # water-filling heuristic is integral by construction, so keep whichever
    # integral solution is better.
    greedy = solve_greedy(problem)
    if greedy.feasible and greedy.objective < lp_solution.objective:
        return HeadDispatchSolution(
            allocation=greedy.allocation,
            objective=greedy.objective,
            method="lp+greedy",
            feasible=True,
            lp_objective=lp_obj,
        )
    return lp_solution


def round_to_groups(problem: HeadDispatchProblem, fractional: np.ndarray) -> Optional[np.ndarray]:
    """Round a fractional allocation to whole KV-head groups per request.

    Largest-remainder rounding in units of ``group_size`` preserves
    ``sum_i x_ij = H`` exactly; a repair pass then fixes any capacity overruns
    by moving groups to the least-loaded feasible device.  Returns ``None``
    when no feasible integral allocation could be constructed.
    """
    r = problem.group_size
    n_dev, n_req = problem.n_devices, problem.n_requests
    groups_total = problem.total_heads // r
    allocation = np.zeros((n_dev, n_req), dtype=float)

    for j in range(n_req):
        ideal_groups = fractional[:, j] / r
        floors = np.floor(ideal_groups + 1e-9).astype(int)
        floors = np.minimum(floors, groups_total)
        remainder = groups_total - int(floors.sum())
        if remainder < 0:
            # Numerical overshoot: trim from the smallest fractional parts.
            order = np.argsort(ideal_groups - floors)
            for idx in order:
                take = min(floors[idx], -remainder)
                floors[idx] -= take
                remainder += take
                if remainder == 0:
                    break
        if remainder > 0:
            order = np.argsort(-(ideal_groups - floors))
            for idx in order[:remainder]:
                floors[idx] += 1
        allocation[:, j] = floors * r

    # Capacity repair: move whole groups of the offending requests away from
    # over-committed devices.
    used = (allocation * problem.contexts[None, :]).sum(axis=1)
    for i in np.argsort(-used):
        guard = 0
        while used[i] > problem.capacity[i] + 1e-6:
            guard += 1
            if guard > 10 * groups_total * n_req:
                return None
            # Pick the request contributing the most load on device i.
            contrib = allocation[i, :] * problem.contexts
            j = int(np.argmax(contrib))
            if allocation[i, j] < r:
                return None
            # Receiver: feasible device with the lowest projected load.
            slack = problem.capacity - used
            candidates = [
                k for k in range(n_dev) if k != i and slack[k] >= problem.contexts[j] * r - 1e-9
            ]
            if not candidates:
                return None
            proj = (
                problem.base_cost
                + problem.head_cost * allocation.sum(axis=1)
                + problem.cache_cost * used
            )
            k = min(candidates, key=lambda d: proj[d])
            allocation[i, j] -= r
            allocation[k, j] += r
            used[i] -= problem.contexts[j] * r
            used[k] += problem.contexts[j] * r
    if not problem.is_feasible(allocation):
        return None
    return allocation


def solve_greedy(problem: HeadDispatchProblem) -> HeadDispatchSolution:
    """Water-filling heuristic: place one head group at a time on the device
    whose projected Attention time stays lowest.

    Requests are processed longest-context first so the hardest placements see
    the most free capacity.  Complexity is O(J * H/r * N).
    """
    if not problem.total_capacity_sufficient():
        empty = np.zeros((problem.n_devices, problem.n_requests))
        return HeadDispatchSolution(empty, float("inf"), method="greedy", feasible=False)

    r = problem.group_size
    n_dev, n_req = problem.n_devices, problem.n_requests
    groups_total = problem.total_heads // r
    allocation = np.zeros((n_dev, n_req), dtype=float)
    order = np.argsort(-problem.contexts)

    # The water-filling inner loop runs J * H/r times over a handful of
    # devices; plain-float scalar arithmetic is an order of magnitude faster
    # than elementwise numpy on arrays this small and is bit-identical (all
    # quantities are IEEE doubles either way).  First-minimum tie-breaking
    # matches ``np.argmin``.
    base_cost = problem.base_cost.tolist()
    head_cost = problem.head_cost.tolist()
    cache_cost = problem.cache_cost.tolist()
    capacity = problem.capacity.tolist()
    heads_on = [0.0] * n_dev
    cache_on = [0.0] * n_dev

    for j in order:
        ctx = float(problem.contexts[j])
        ctx_r = ctx * r
        need = ctx_r - 1e-9
        j_alloc = allocation[:, j]
        for _ in range(groups_total):
            best_i = -1
            best_load = float("inf")
            for i in range(n_dev):
                if capacity[i] - cache_on[i] < need:
                    continue
                load = (
                    base_cost[i]
                    + head_cost[i] * (heads_on[i] + r)
                    + cache_cost[i] * (cache_on[i] + ctx_r)
                )
                if load < best_load:
                    best_load = load
                    best_i = i
            if best_i < 0:
                empty = np.zeros((n_dev, n_req))
                return HeadDispatchSolution(empty, float("inf"), method="greedy", feasible=False)
            j_alloc[best_i] += r
            heads_on[best_i] += r
            cache_on[best_i] += ctx_r
    return HeadDispatchSolution(
        allocation=allocation,
        objective=problem.objective(allocation),
        method="greedy",
        feasible=True,
    )
