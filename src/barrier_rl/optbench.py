"""Convex test problems verifying the barrier optimality-gap bound.

Each bundled problem has an analytic constrained optimum ``p*``.  Newton's
method on each coordinate of ``f(x) + sum_i barrier(g_i(x))``, with the
shifted (dead-zone) barrier at cost limit 0 and a bisection bracket as its
safeguard, yields the penalized solution ``x~`` in at most ``iters``
iterations, stopping once the penalized gradient norm is below 1e-8.  The
bench then reports the stationarity residual (with the barrier slope as
the implied multiplier), compares the one-sided gap ``f(x~) - p*`` with
``|1 - mu^2| * m / mu``, and reports the largest constraint value
``max_i g_i(x~)`` as ``violation``.  ``ok`` is only ``gap <= bound + 1e-6``.
The gap is <= 0 at an exact minimizer of any penalty that is >= 0 and 0 on
the feasible set, so ``ok`` does not test the bound; nor does it test
convergence, which ``kkt_residual`` reports: a solve that uses up ``iters``
far from stationarity still reads ``ok`` when its gap is within the bound.

``mu = 1`` is allowed: the middle (log) branch of the dead-zone barrier is
then empty, so the penalty is purely linear with slope 1 past the boundary.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from barrier_rl.barriers import _shifted_curvature, _shifted_grad, performance_bound

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
    "violation",
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
    # once mu**2 overflows, the knot -1/mu**2 is -0.0 and the log branch takes z = 1, its pole
    if not (1 <= mu and mu * mu < math.inf):
        raise ValueError(f"mu must be finite, >= 1 and below ~1.34e154 (a finite square), got {mu}")


def _newton_step(problem: ConvexProblem, x: list, mu: float):
    """The penalized gradient at ``x``, its sum of squares and the Newton point.

    The objective is separable, so coordinate j's Newton point is
    ``x_j - grad[j] / curv[j]``, with ``curv[j] = 2`` plus the barrier
    curvature of each of its bounds (>= 2, so the division is safe).
    Python floats, not arrays: numpy's per-call cost dwarfs 1-2 element math.
    A bound on coordinate j adds its slope to ``grad[j]`` alone; the squares
    are summed left to right from 0.0, as ``sum`` does.
    """
    grad, x_newton, sq = [], [], 0.0
    for xj, cj, pairs in zip(x, problem.center, problem.bounds):
        gj, hj = 2.0 * (xj - cj), 2.0
        for sign, edge in pairs:
            z = sign * (xj - edge)
            gj += _shifted_grad(z, mu, 0.0) * sign
            hj += _shifted_curvature(z, mu, 0.0)
        grad.append(gj)
        x_newton.append(xj - gj / hj)
        sq += gj * gj
    return grad, sq, x_newton


def solve_smoothed_barrier(problem: ConvexProblem, mu: float, iters: int = 100_000) -> np.ndarray:
    """Newton's method per coordinate on the barrier-penalized objective,
    safeguarded by a bisection bracket.

    The objective is separable and convex, so the sign of a coordinate's
    derivative says which side of its root the coordinate is on, and each
    iterate tightens that coordinate's bracket.  A Newton point outside the
    open bracket is replaced by the bracket's midpoint: unguarded, Newton can
    cycle between the dead zone and the linear branch, whose curvatures miss
    the kink at the boundary (P1 at mu = 3 from x = 3 alternates between 0
    and 1.5).  The Newton point lies on the root's side of the iterate, so it
    leaves the bracket only across an end that is already finite.  Runs at
    most ``iters`` iterations, one gradient each, and stops when the
    penalized gradient norm falls below 1e-8.  ``mu >= 1`` is accepted; at
    exactly 1 the penalty is linear past the boundary.
    """
    _check_mu(mu)
    x = list(problem.x0)
    lo, hi = [-math.inf] * len(x), [math.inf] * len(x)
    for _ in range(iters):
        grad, sq, x_newton = _newton_step(problem, x, mu)
        # a non-finite x makes its gradient non-finite, and so the sum; the
        # scan tells that apart from a square that overflowed on its own
        if not math.isfinite(sq) and not all(map(math.isfinite, grad)):
            raise FloatingPointError(
                f"non-finite iterate in {problem.name} at mu={mu}: x={np.array(x)}"
            )
        if math.sqrt(sq) < 1e-8:
            break
        for j, (xj, gj, xn) in enumerate(zip(x, grad, x_newton)):
            if gj > 0:
                hi[j] = xj
            else:
                lo[j] = xj
            # xn == xj: the step rounds to nothing, so bisecting would only
            # move a coordinate that is at its root off it
            if not lo[j] < xn < hi[j] and xn != xj:
                xn = 0.5 * (lo[j] + hi[j])
            x[j] = xn
    return np.array(x, dtype=np.float64)


def kkt_residual(problem: ConvexProblem, x_tilde: np.ndarray, mu: float) -> float:
    """Stationarity residual with the barrier slope as implied multiplier."""
    _check_mu(mu)
    grad, _, _ = _newton_step(problem, problem._point(x_tilde).tolist(), mu)
    # BLAS's dot, as the bench CSV's column has it; the step's sum can round apart
    return float(np.linalg.norm(grad))


def verify_bound(problem: ConvexProblem, x_tilde: np.ndarray, mu: float):
    """Objective gap vs the analytic bound; one-sided (gap may be negative
    when the penalized solution is infeasible)."""
    gap = problem.f(x_tilde) - problem.p_star
    bound = performance_bound(mu, problem.m)
    ok = gap <= bound + 1e-6
    return gap, bound, ok


def run_bench(mus, problem_names=None, iters: int = 100_000):
    """Solve every (problem, mu) cell; returns one result dict per cell.
    ``problem_names=None`` means every problem in ``PROBLEMS``."""
    names = list(PROBLEMS if problem_names is None else problem_names)
    results = []
    for name in names:
        problem = PROBLEMS[name]
        for mu in mus:
            x_tilde = solve_smoothed_barrier(problem, mu, iters=iters)
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
                    "violation": float(problem.g(x_tilde).max()),
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
