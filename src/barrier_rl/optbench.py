"""Convex test problems verifying the barrier optimality-gap bound.

Each bundled problem has an analytic constrained optimum ``p*``.  Gradient
descent on ``f(x) + sum_i barrier(g_i(x))``, with the shifted (dead-zone)
barrier at cost limit 0, yields the penalized solution ``x~``; the bench
then checks stationarity (with the barrier slope as the implied multiplier)
and the one-sided gap ``f(x~) - p*`` against ``|1 - mu^2| * m / mu``.  That
gap is <= 0 at an exact minimizer of any penalty that is >= 0 and 0 on the
feasible set, so ``ok`` checks that the descent converged, not the bound.

``mu = 1`` is allowed: the middle (log) branch of the dead-zone barrier is
then empty, so the penalty is purely linear with slope 1 past the boundary.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

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
    """``min sum_j (x_j - center[j])**2`` s.t. ``sign * (x_j - edge) <= 0`` for
    each ``(sign, edge)`` in ``bounds[j]``, with analytic optimum ``p_star``;
    :meth:`g` lists the constraint values coordinate by coordinate."""

    name: str
    center: tuple
    bounds: tuple  # per coordinate, a tuple of (sign, edge) pairs
    p_star: float
    x0: tuple

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def m(self) -> int:
        return sum(map(len, self.bounds))

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"{self.name} takes a point of length {self.dim}, not {x.shape}")
        return x

    def f(self, x) -> float:
        d = self._point(x) - self.center
        return float(d @ d)

    def g(self, x) -> np.ndarray:
        x = self._point(x).tolist()
        return np.array([s * (xj - e) for xj, pairs in zip(x, self.bounds) for s, e in pairs])


PROBLEMS = {
    # active single constraint: min x^2 s.t. 1 - x <= 0, p* = 1 at x = 1
    "p1": ConvexProblem("p1", (0.0,), (((-1.0, 1.0),),), p_star=1.0, x0=(3.0,)),
    # inactive constraint: min (x-2)^2 s.t. x - 3 <= 0, p* = 0 at x = 2
    "p2": ConvexProblem("p2", (2.0,), (((1.0, 3.0),),), p_star=0.0, x0=(0.0,)),
    # two active constraints: min |x|^2 s.t. 1 - x_i <= 0, p* = 2 at (1, 1)
    "p3": ConvexProblem(
        "p3", (0.0, 0.0), (((-1.0, 1.0),), ((-1.0, 1.0),)), p_star=2.0, x0=(3.0, -2.0)
    ),
}


def _check_mu(mu: float) -> None:
    if not 1 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 1, got {mu}")


def _descent_step(problem: ConvexProblem, x: list, mu: float, lr: float):
    """The penalized gradient at ``x``, its sum of squares and ``x - lr * grad``.

    Python floats, not arrays: numpy's per-call cost dwarfs 1-2 element math.
    A bound on coordinate j adds its slope to ``grad[j]`` alone.  A dense
    constraint gradient would also add ``slope * 0.0`` to every other
    coordinate; that changes no bit unless the component is -0.0 (no iterate
    from these starts is), and an inf or NaN slope makes the gradient
    non-finite at the same step either way.  The squares are summed left to
    right from 0.0, as ``sum`` does.
    """
    grad, x_next, sq = [], [], 0.0
    for xj, cj, pairs in zip(x, problem.center, problem.bounds):
        gj = 2.0 * (xj - cj)
        for sign, edge in pairs:
            gj += _shifted_grad(sign * (xj - edge), mu, 0.0) * sign
        grad.append(gj)
        x_next.append(xj - lr * gj)
        sq += gj * gj
    return grad, sq, x_next


def solve_smoothed_barrier(
    problem: ConvexProblem,
    mu: float,
    lr: float = 1e-2,
    iters: int = 100_000,
) -> np.ndarray:
    """Plain gradient descent on the barrier-penalized objective.

    Stops at ``iters`` or when the penalized gradient norm falls below 1e-8.
    ``mu >= 1`` is accepted; at exactly 1 the penalty is linear past the
    boundary.
    """
    _check_mu(mu)
    if lr <= 0:
        raise ValueError("lr must be positive")
    x = list(problem.x0)
    for _ in range(iters):
        grad, sq, x_next = _descent_step(problem, x, mu, lr)
        # a non-finite x makes its gradient non-finite, and so the sum; the
        # scan tells that apart from a square that overflowed on its own
        if not math.isfinite(sq) and not all(map(math.isfinite, grad)):
            raise FloatingPointError(
                f"non-finite iterate in {problem.name} at mu={mu}: x={np.array(x)}"
            )
        if math.sqrt(sq) < 1e-8:
            break
        x = x_next
    return np.array(x, dtype=np.float64)


def kkt_residual(problem: ConvexProblem, x_tilde: np.ndarray, mu: float) -> float:
    """Stationarity residual with the barrier slope as implied multiplier."""
    _check_mu(mu)
    grad, _, _ = _descent_step(problem, problem._point(x_tilde).tolist(), mu, 0.0)
    # BLAS's dot, as the bench CSV's column has it; the step's sum can round apart
    return float(np.linalg.norm(grad))


def verify_bound(problem: ConvexProblem, x_tilde: np.ndarray, mu: float):
    """Objective gap vs the analytic bound; one-sided (gap may be negative
    when the penalized solution is infeasible)."""
    gap = problem.f(x_tilde) - problem.p_star
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
                }
            )
    return results


def bench_to_csv(results) -> str:
    """One row per cell, in ``BENCH_COLUMNS`` order: a float as its ``repr``,
    ``ok`` as 0/1, ``x0``/``x1`` from ``x_tilde`` (``x1`` empty in 1-D)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for r in results:
        x = np.atleast_1d(r["x_tilde"]).tolist()
        row = {**r, "x0": x[0], "x1": x[1] if len(x) > 1 else "", "ok": int(r["ok"])}
        cells = [row[name] for name in BENCH_COLUMNS]
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in cells])
    return buf.getvalue()


def write_bench(results, path) -> None:
    Path(path).write_text(bench_to_csv(results))
