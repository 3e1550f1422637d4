import dataclasses
import math

import numpy as np
import pytest

from barrier_rl import optbench
from barrier_rl.barriers import _shifted_grad
from barrier_rl.optbench import (
    BENCH_COLUMNS,
    PROBLEMS,
    bench_to_csv,
    kkt_residual,
    run_bench,
    solve_smoothed_barrier,
    verify_bound,
)


def count_barrier_slopes(monkeypatch) -> list:
    """Record the arguments of each ``_shifted_grad`` call that optbench makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _shifted_grad(*args)

    monkeypatch.setattr(optbench, "_shifted_grad", counted)
    return calls


def analytic_p1_solution(mu):
    """Stationary point of x^2 + barrier(1 - x): 1/sqrt(2 mu) on the middle
    branch, 0.5 when mu = 1 (middle branch empty, slope saturates at mu)."""
    if mu == 1.0:
        return 0.5
    x = 1.0 / math.sqrt(2.0 * mu)
    z = 1.0 - x
    assert 0 < z <= 1.0 - 1.0 / mu**2, "stationary point must sit on the log branch"
    return x


class TestSolve:
    def test_inactive_constraint_recovers_optimum(self):
        x = solve_smoothed_barrier(PROBLEMS["p2"], mu=2.0)
        assert x[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("mu", [1.5, 2.0])
    def test_active_constraint_analytic(self, mu):
        x = solve_smoothed_barrier(PROBLEMS["p1"], mu=mu)
        assert x[0] == pytest.approx(analytic_p1_solution(mu), abs=1e-6)

    @pytest.mark.parametrize("name", ["p1", "p3"])
    def test_returns_float64_array(self, name):
        x = solve_smoothed_barrier(PROBLEMS[name], mu=2.0, iters=10)
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        assert x.shape == (PROBLEMS[name].dim,)

    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_divergence_raises(self, monkeypatch, name):
        # a non-finite barrier slope makes the gradient non-finite at the first step
        for slope in (math.inf, math.nan):
            monkeypatch.setattr(optbench, "_shifted_grad", lambda x, mu, limit: slope)
            with pytest.raises(FloatingPointError, match=f"non-finite iterate in {name}"):
                solve_smoothed_barrier(PROBLEMS[name], mu=2.0)

    def test_overflowing_square_is_not_divergence(self):
        # (2e160)**2 overflows, but the gradient itself is finite, so descent goes on
        far = dataclasses.replace(PROBLEMS["p1"], x0=(1e160,))
        assert np.isfinite(solve_smoothed_barrier(far, mu=2.0, iters=3)).all()

    def test_mu_below_one_rejected(self):
        with pytest.raises(ValueError):
            solve_smoothed_barrier(PROBLEMS["p1"], mu=0.5)

    def test_one_barrier_slope_per_bound_per_iteration(self, monkeypatch):
        # perfbench's optbench.grad_evals counts these calls through the module global;
        # p3 at mu=2 is still far from its solution after 3 iterations
        calls = count_barrier_slopes(monkeypatch)
        for iters in (1, 2, 3):
            calls.clear()
            solve_smoothed_barrier(PROBLEMS["p3"], mu=2.0, iters=iters)
            assert len(calls) == 2 * iters

    def test_bracket_stops_newton_cycling(self):
        # unguarded, Newton from x=3 alternates between 0 (linear branch) and
        # 1.5 (dead zone), as neither branch's curvature sees the kink at 1
        x = solve_smoothed_barrier(PROBLEMS["p1"], mu=3.0)
        assert x[0] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-8)

    # p3: a coordinate whose Newton step rounds to nothing must stay put while
    # the other one converges; bisecting it instead sends p3 at mu=1 to inf
    @pytest.mark.parametrize("mu", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_converges_within_25_iterations(self, monkeypatch, name, mu):
        # gradient descent at step 1e-2 took ~750 per cell of the CLI grid
        calls = count_barrier_slopes(monkeypatch)
        problem = PROBLEMS[name]
        x = solve_smoothed_barrier(problem, mu)
        assert len(calls) <= 25 * problem.m
        assert kkt_residual(problem, x, mu) < 1e-8


@pytest.mark.parametrize("name,x", [("p1", [1.0, 2.0]), ("p3", [1.0]), ("p3", [[1.0, 2.0]])])
def test_point_of_wrong_length_rejected(name, x):
    # a loop over zip would silently cut a long point short
    problem = PROBLEMS[name]
    with pytest.raises(ValueError, match=f"length {problem.dim}"):
        problem.f(x)
    with pytest.raises(ValueError, match=f"length {problem.dim}"):
        problem.g(x)
    with pytest.raises(ValueError, match=f"length {problem.dim}"):
        kkt_residual(problem, np.array(x), 2.0)
    with pytest.raises(ValueError, match=f"length {problem.dim}"):
        verify_bound(problem, np.array(x), 2.0)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_non_finite_mu_rejected(mu):
    problem = PROBLEMS["p1"]
    with pytest.raises(ValueError, match="mu must be finite"):
        solve_smoothed_barrier(problem, mu)
    with pytest.raises(ValueError, match="mu must be finite"):
        kkt_residual(problem, np.array([0.5]), mu)
    with pytest.raises(ValueError, match="mu must be finite"):
        run_bench([2.0, mu], ["p1"])


class TestKkt:
    def test_interior_stationary_point(self):
        assert kkt_residual(PROBLEMS["p2"], np.array([2.0]), mu=2.0) == 0.0

    def test_converged_solve(self):
        x = solve_smoothed_barrier(PROBLEMS["p1"], mu=2.0)
        assert kkt_residual(PROBLEMS["p1"], x, mu=2.0) <= 1e-4

    def test_non_stationary_point_arithmetic(self):
        # x = 0: grad f = 0, g = 1 > 0.75 so slope mu = 2, grad g = -1
        assert kkt_residual(PROBLEMS["p1"], np.array([0.0]), mu=2.0) == pytest.approx(2.0)


class TestVerifyBound:
    def test_active_case(self):
        gap, bound, ok = verify_bound(PROBLEMS["p1"], np.array([0.5]), mu=2.0)
        assert gap == pytest.approx(-0.75)
        assert bound == pytest.approx(1.5)
        assert ok

    def test_exact_optimum(self):
        gap, bound, ok = verify_bound(PROBLEMS["p2"], np.array([2.0]), mu=3.0)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert ok

    def test_mu_one_zero_bound(self):
        x = solve_smoothed_barrier(PROBLEMS["p1"], mu=1.0)
        assert x[0] == pytest.approx(0.5, abs=1e-6)
        gap, bound, ok = verify_bound(PROBLEMS["p1"], x, mu=1.0)
        assert bound == 0.0
        assert gap == pytest.approx(-0.75, abs=1e-5)
        assert ok


class TestBenchGrid:
    def test_all_cells(self):
        results = run_bench([1.5, 2.0, 3.0, 5.0])
        for r in results:
            assert r["ok"], r
            assert r["kkt_residual"] <= 1e-4, r

    def test_feasible_optimum_recovered_for_every_mu(self):
        for mu in [1.5, 2.0, 3.0, 5.0]:
            x = solve_smoothed_barrier(PROBLEMS["p2"], mu=mu)
            assert PROBLEMS["p2"].f(x) == pytest.approx(0.0, abs=1e-6)

    def test_violation_monotone_in_mu(self):
        # on P1's log branch the stationary point is 1/sqrt(2 mu), so the
        # penetration 1 - x grows with mu (the bound grows correspondingly)
        p1 = PROBLEMS["p1"]
        violations = [p1.g(solve_smoothed_barrier(p1, mu=mu))[0] for mu in [1.5, 2.0, 3.0, 5.0]]
        assert all(v > 0 for v in violations)
        assert violations == sorted(violations)

    def test_csv_shape(self):
        results = run_bench([2.0], ["p1", "p3"])
        csv_text = bench_to_csv(results)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "problem,mu,m,x0,x1,f_value,p_star,gap,violation,bound,kkt_residual,ok"
        assert len(lines) == 3
        # p3 is 2-D: its x1 cell is filled
        assert lines[2].split(",")[4] != ""
        # every column but x0/x1 (read from x_tilde) is a key of each cell
        for r in results:
            assert set(BENCH_COLUMNS) - {"x0", "x1"} <= r.keys()
        # a cell missing a column is an error, not an empty cell
        with pytest.raises(KeyError, match="gap"):
            bench_to_csv([{k: v for k, v in results[0].items() if k != "gap"}])

    def test_violation_is_the_largest_constraint_value(self):
        p1, p2 = run_bench([3.0], ["p1", "p2"])
        assert p2["violation"] == -1.0  # x~ = 2 against x <= 3
        assert p1["violation"] == 1.0 - p1["x_tilde"][0] > 0  # the penalized x~ sits past x >= 1

    def test_empty_problem_list_gives_no_cells(self):
        assert run_bench([2.0], []) == []
        assert {r["problem"] for r in run_bench([2.0])} == set(PROBLEMS)
