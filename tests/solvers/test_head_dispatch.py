"""Tests for the min-max head-dispatching solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    lower_bound,
    round_to_groups,
    solve_greedy,
    solve_lp,
)


def make_problem(
    n_devices=3,
    n_requests=4,
    total_heads=64,
    group_size=8,
    capacity_scale=1e6,
    head_cost=None,
    contexts=None,
):
    head_cost = np.array(head_cost if head_cost is not None else [1e-5, 3e-5, 3e-5])[:n_devices]
    return HeadDispatchProblem(
        head_cost=head_cost,
        cache_cost=np.full(n_devices, 1e-9),
        base_cost=np.zeros(n_devices),
        capacity=np.full(n_devices, capacity_scale),
        contexts=np.array(contexts if contexts is not None else [500, 1000, 1500, 2000])[:n_requests],
        total_heads=total_heads,
        group_size=group_size,
    )


class TestProblem:
    def test_objective_computes_max_load(self):
        p = make_problem(n_devices=2, n_requests=1, head_cost=[1.0, 2.0], contexts=[100])
        x = np.array([[32.0], [32.0]])
        # device0: 32, device1: 64 (+ tiny cache term)
        assert p.objective(x) == pytest.approx(64.0, rel=0.01)

    def test_is_feasible_checks_integrity(self):
        p = make_problem()
        x = np.zeros((3, 4))
        assert not p.is_feasible(x)
        x[0, :] = 64
        assert p.is_feasible(x)

    def test_is_feasible_checks_capacity(self):
        p = make_problem(capacity_scale=100.0)
        x = np.zeros((3, 4))
        x[0, :] = 64
        assert not p.is_feasible(x)

    def test_total_capacity_check(self):
        assert make_problem().total_capacity_sufficient()
        assert not make_problem(capacity_scale=10.0).total_capacity_sufficient()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(total_heads=65, group_size=8)
        with pytest.raises(ValueError):
            HeadDispatchProblem(
                head_cost=np.ones(2),
                cache_cost=np.ones(3),
                base_cost=np.zeros(2),
                capacity=np.ones(2),
                contexts=np.ones(1),
                total_heads=8,
            )


class TestLPSolver:
    def test_solution_feasible_and_integral(self):
        p = make_problem()
        sol = solve_lp(p)
        assert sol.feasible
        assert p.is_feasible(sol.allocation)
        assert np.all(sol.allocation % p.group_size == 0)

    def test_prefers_cheap_device_under_light_load(self):
        p = make_problem(n_requests=1, contexts=[100], head_cost=[1e-6, 1e-3, 1e-3])
        sol = solve_lp(p)
        assert sol.allocation[0, 0] == p.total_heads

    def test_balances_under_heavy_load(self):
        # Equal devices, many long requests: no single device should take everything.
        p = HeadDispatchProblem(
            head_cost=np.full(3, 1e-5),
            cache_cost=np.full(3, 1e-9),
            base_cost=np.zeros(3),
            capacity=np.full(3, 1e7),
            contexts=np.full(12, 2000.0),
            total_heads=64,
            group_size=8,
        )
        sol = solve_lp(p)
        per_device = sol.allocation.sum(axis=1)
        assert per_device.max() < 64 * 12  # not all on one device
        assert sol.objective <= solve_greedy(p).objective * 1.05

    def test_infeasible_when_no_capacity(self):
        p = make_problem(capacity_scale=10.0)
        sol = solve_lp(p)
        assert not sol.feasible

    def test_respects_per_device_capacity(self):
        # Device 0 is cheap but tiny; overflow must land elsewhere.
        p = HeadDispatchProblem(
            head_cost=np.array([1e-6, 1e-4]),
            cache_cost=np.array([1e-9, 1e-9]),
            base_cost=np.zeros(2),
            capacity=np.array([64 * 500.0, 1e9]),
            contexts=np.array([500.0, 500.0]),
            total_heads=64,
            group_size=8,
        )
        sol = solve_lp(p)
        assert sol.feasible
        used0 = float((sol.allocation[0] * p.contexts).sum())
        assert used0 <= p.capacity[0] + 1e-6

    def test_lp_objective_reported(self):
        sol = solve_lp(make_problem())
        assert sol.lp_objective is not None
        assert sol.objective >= sol.lp_objective - 1e-9


class TestGreedySolver:
    def test_feasible_and_integral(self):
        p = make_problem()
        sol = solve_greedy(p)
        assert sol.feasible
        assert p.is_feasible(sol.allocation)
        assert np.all(sol.allocation % p.group_size == 0)

    def test_infeasible_without_capacity(self):
        assert not solve_greedy(make_problem(capacity_scale=1.0)).feasible

    def test_greedy_close_to_lp(self):
        p = make_problem(n_requests=4)
        lp = solve_lp(p)
        greedy = solve_greedy(p)
        assert greedy.objective <= lp.objective * 2.0 + 1e-9


class TestRounding:
    def test_round_preserves_totals(self):
        p = make_problem()
        frac = np.full((3, 4), p.total_heads / 3.0)
        rounded = round_to_groups(p, frac)
        assert rounded is not None
        assert np.allclose(rounded.sum(axis=0), p.total_heads)

    def test_round_handles_exact_input(self):
        p = make_problem(n_devices=2, n_requests=1, head_cost=[1.0, 1.0], contexts=[10])
        frac = np.array([[32.0], [32.0]])
        rounded = round_to_groups(p, frac)
        assert np.allclose(rounded, frac)


# HiGHS meets constraints to its default primal feasibility tolerance, so its
# reported optimum may undercut the true LP optimum by about that much.
HIGHS_TOLERANCE = 1e-7


def lp_objective_floor(problem, bound):
    """What ``solve_lp``'s reported LP optimum ``t`` is guaranteed to reach.

    ``solve_lp``'s integrity row of request 0 also covers the ``t`` column
    (``a_eq[0, j::n_req]`` runs onto index ``n_x``), so HiGHS solves a problem
    in which request 0 needs only ``H - t`` heads.  Dropping ``t`` heads of
    request 0 lowers the weighted bound by at most ``t * max_i c_i0``, hence
    ``t * (1 + max_i c_i0) >= bound``.
    """
    return bound / (1.0 + float((problem.head_cost + problem.cache_cost * problem.contexts[0]).max()))


@st.composite
def dispatch_problems(draw):
    n_dev = draw(st.integers(1, 5))
    n_req = draw(st.integers(1, 6))
    group_size = draw(st.sampled_from([1, 2, 4, 8]))
    total_heads = group_size * draw(st.integers(1, 8))
    costs = st.one_of(st.just(0.0), st.floats(1e-7, 1e-3))
    head_cost = np.array(draw(st.lists(costs, min_size=n_dev, max_size=n_dev)))
    cache_cost = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-10, 1e-6)), min_size=n_dev, max_size=n_dev))
    )
    if draw(st.booleans()):
        base_cost = np.zeros(n_dev)
    else:
        base_cost = np.array(draw(st.lists(st.floats(0.0, 0.05), min_size=n_dev, max_size=n_dev)))
    contexts = np.array(draw(st.lists(st.integers(1, 4000), min_size=n_req, max_size=n_req)), dtype=float)
    demand = float(contexts.sum()) * total_heads
    if draw(st.booleans()):
        capacity = np.full(n_dev, 2.0 * demand)
    else:
        shares = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n_dev, max_size=n_dev)))
        capacity = demand * draw(st.floats(0.8, 1.5)) * shares / shares.sum()
    return HeadDispatchProblem(
        head_cost=head_cost,
        cache_cost=cache_cost,
        base_cost=base_cost,
        capacity=capacity,
        contexts=contexts,
        total_heads=total_heads,
        group_size=group_size,
    )


class TestLowerBound:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(problem=dispatch_problems())
    def test_bound_never_exceeds_any_solution(self, problem):
        bound = lower_bound(problem)
        assert np.isfinite(bound)
        lp = solve_lp(problem)
        if lp.feasible:
            assert bound <= lp.objective
            if lp.lp_objective is not None:
                assert lp_objective_floor(problem, bound) <= lp.lp_objective + HIGHS_TOLERANCE
                assert lp.lp_objective <= lp.objective + HIGHS_TOLERANCE
        greedy = solve_greedy(problem)
        if greedy.feasible:
            assert bound <= greedy.objective

    def test_zero_cost_device_uses_uniform_weights(self):
        p = HeadDispatchProblem(
            head_cost=np.array([0.0, 2e-5]),
            cache_cost=np.array([0.0, 1e-9]),
            base_cost=np.array([0.0, 3e-3]),
            capacity=np.full(2, 1e9),
            contexts=np.array([100.0, 900.0]),
            total_heads=64,
            group_size=8,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = lower_bound(p)
        assert np.isfinite(bound)
        assert bound == pytest.approx(3e-3)
        assert bound <= solve_lp(p).objective
        assert bound <= solve_greedy(p).objective

    def test_tight_on_identical_devices(self):
        # Identical devices split every request evenly (two groups each) at
        # the optimum, which is exactly the weighted bound.
        p = HeadDispatchProblem(
            head_cost=np.full(4, 1e-5),
            cache_cost=np.full(4, 1e-9),
            base_cost=np.zeros(4),
            capacity=np.full(4, 1e9),
            contexts=np.array([500.0, 1000.0, 1500.0, 2000.0]),
            total_heads=64,
            group_size=8,
        )
        assert lower_bound(p) == pytest.approx(solve_lp(p).objective, rel=1e-6)
