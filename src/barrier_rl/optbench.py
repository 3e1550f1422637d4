"""Convex test problems verifying the barrier optimality-gap bound.

Each bundled problem has an analytic constrained optimum.  Gradient descent
on ``f(x) + sum_i barrier(g_i(x))`` yields the penalized solution; the bench
then checks stationarity (with the barrier slope as the implied multiplier)
and the objective gap against ``|1 - mu^2| * m / mu``.

The cost limit is fixed at 0 here, and ``mu = 1`` is allowed: the middle
(log) branch of the dead-zone barrier is then empty, so the penalty is
purely linear with slope 1 past the boundary.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from barrier_rl.barriers import _shifted_grad, performance_bound

__all__ = [
    "ConvexProblem",
    "PROBLEMS",
    "solve_smoothed_barrier",
    "kkt_residual",
    "verify_bound",
    "run_bench",
    "bench_to_csv",
    "BENCH_COLUMNS",
]

BENCH_COLUMNS = [
    "problem",
    "mu",
    "m",
    "x0",
    "x1",
    "f_value",
    "p_star",
    "gap",
    "bound",
    "kkt_residual",
    "ok",
]


@dataclass(frozen=True)
class ConvexProblem:
    name: str
    dim: int
    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    constraints: tuple  # of (g_i, grad_g_i) pairs; feasible iff g_i <= 0
    p_star: float
    x0: np.ndarray
    minimizer: np.ndarray | None = None

    @property
    def m(self) -> int:
        return len(self.constraints)


def _p1() -> ConvexProblem:
    # active single constraint: min x^2 s.t. 1 - x <= 0, p* = 1 at x = 1
    return ConvexProblem(
        name="p1",
        dim=1,
        f=lambda x: float(x[0] ** 2),
        grad_f=lambda x: np.array([2.0 * x[0]]),
        constraints=(
            (lambda x: float(1.0 - x[0]), lambda x: np.array([-1.0])),
        ),
        p_star=1.0,
        x0=np.array([3.0]),
        minimizer=np.array([1.0]),
    )


def _p2() -> ConvexProblem:
    # inactive constraint: min (x-2)^2 s.t. x - 3 <= 0, p* = 0 at x = 2
    return ConvexProblem(
        name="p2",
        dim=1,
        f=lambda x: float((x[0] - 2.0) ** 2),
        grad_f=lambda x: np.array([2.0 * (x[0] - 2.0)]),
        constraints=(
            (lambda x: float(x[0] - 3.0), lambda x: np.array([1.0])),
        ),
        p_star=0.0,
        x0=np.array([0.0]),
        minimizer=np.array([2.0]),
    )


def _p3() -> ConvexProblem:
    # two active constraints: min |x|^2 s.t. 1 - x_i <= 0, p* = 2 at (1, 1)
    return ConvexProblem(
        name="p3",
        dim=2,
        f=lambda x: float(x @ x),
        grad_f=lambda x: 2.0 * x,
        constraints=(
            (lambda x: float(1.0 - x[0]), lambda x: np.array([-1.0, 0.0])),
            (lambda x: float(1.0 - x[1]), lambda x: np.array([0.0, -1.0])),
        ),
        p_star=2.0,
        x0=np.array([3.0, -2.0]),
        minimizer=np.array([1.0, 1.0]),
    )


PROBLEMS = {"p1": _p1(), "p2": _p2(), "p3": _p3()}


def solve_smoothed_barrier(
    problem: ConvexProblem,
    mu: float,
    lr: float = 1e-2,
    iters: int = 100_000,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Plain gradient descent on the barrier-penalized objective.

    Stops at ``iters`` or when the penalized gradient norm falls below 1e-8.
    ``mu >= 1`` is accepted; at exactly 1 the penalty is linear past the
    boundary.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if lr <= 0:
        raise ValueError("lr must be positive")
    x = np.array(problem.x0 if x0 is None else x0, dtype=np.float64)
    for _ in range(iters):
        grad = problem.grad_f(x).astype(np.float64).copy()
        for g, grad_g in problem.constraints:
            grad += _shifted_grad(g(x), mu, 0.0) * grad_g(x)
        if not np.all(np.isfinite(grad)) or not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite iterate in {problem.name} at mu={mu}: x={x}")
        if float(np.linalg.norm(grad)) < 1e-8:
            break
        x -= lr * grad
    return x


def kkt_residual(problem: ConvexProblem, x_tilde: np.ndarray, mu: float) -> float:
    """Stationarity residual with the barrier slope as implied multiplier."""
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    x = np.asarray(x_tilde, dtype=np.float64)
    r = problem.grad_f(x).astype(np.float64).copy()
    for g, grad_g in problem.constraints:
        r += _shifted_grad(g(x), mu, 0.0) * grad_g(x)
    return float(np.linalg.norm(r))


def verify_bound(problem: ConvexProblem, x_tilde: np.ndarray, mu: float):
    """Objective gap vs the analytic bound; one-sided (gap may be negative
    when the penalized solution is infeasible)."""
    x = np.asarray(x_tilde, dtype=np.float64)
    gap = problem.f(x) - problem.p_star
    bound = performance_bound(mu, problem.m)
    ok = gap <= bound + 1e-6
    return gap, bound, ok


def run_bench(mus, problem_names=None, lr: float = 1e-2, iters: int = 100_000):
    """Solve every (problem, mu) cell; returns one result dict per cell."""
    names = list(problem_names or PROBLEMS)
    results = []
    for name in names:
        problem = PROBLEMS[name]
        for mu in mus:
            x_tilde = solve_smoothed_barrier(problem, mu, lr=lr, iters=iters)
            gap, bound, ok = verify_bound(problem, x_tilde, mu)
            results.append(
                {
                    "problem": name,
                    "mu": float(mu),
                    "m": problem.m,
                    "x_tilde": x_tilde,
                    "f_value": problem.f(x_tilde),
                    "p_star": problem.p_star,
                    "gap": gap,
                    "bound": bound,
                    "kkt_residual": kkt_residual(problem, x_tilde, mu),
                    "ok": ok,
                    "violations": [g(x_tilde) for g, _ in problem.constraints],
                }
            )
    return results


def bench_to_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for r in results:
        x = np.atleast_1d(r["x_tilde"])
        writer.writerow(
            [
                r["problem"],
                repr(r["mu"]),
                r["m"],
                repr(float(x[0])),
                repr(float(x[1])) if x.size > 1 else "",
                repr(float(r["f_value"])),
                repr(float(r["p_star"])),
                repr(float(r["gap"])),
                repr(float(r["bound"])),
                repr(float(r["kkt_residual"])),
                int(r["ok"]),
            ]
        )
    return buf.getvalue()


def write_bench(results, path) -> None:
    Path(path).write_text(bench_to_csv(results))
