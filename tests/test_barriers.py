import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from barrier_rl.barriers import (
    BarrierConfig,
    _shifted_curvature,
    _shifted_grad,
    log_barrier,
    performance_bound,
    shifted_barrier,
    shifted_barrier_grad,
    smoothed_log_barrier,
    smoothed_log_barrier_grad,
)

MUS = [1.1, 1.5, 2.0, 3.0, 10.0]
MU_SQUARE_MAX = math.sqrt(sys.float_info.max)  # the largest float whose square is finite
QUIET = dict(divide="raise", over="raise", invalid="raise")


class TestLogBarrier:
    def test_ln_one_is_zero(self):
        assert log_barrier(-1.0, 2.0) == 0.0

    def test_closed_form(self):
        assert log_barrier(-0.25, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_barrier(0.1, 2.0)
        with pytest.raises(ValueError):
            log_barrier(0.0, 2.0)
        with pytest.raises(ValueError):
            log_barrier(-1.0, 0.0)


class TestSmoothedLogBarrier:
    def test_left_branch(self):
        assert smoothed_log_barrier(-1.0, 2.0) == 0.0

    def test_knot_continuity_both_branches(self):
        mu = 2.0
        knot = -1.0 / mu**2
        left = -math.log(-knot) / mu
        right = mu * knot - math.log(1.0 / mu**2) / mu + 1.0 / mu
        assert left == pytest.approx(math.log(2.0), abs=1e-12)
        assert right == pytest.approx(math.log(2.0), abs=1e-12)
        assert smoothed_log_barrier(knot, mu) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_linear_branch_at_zero(self):
        assert smoothed_log_barrier(0.0, 2.0) == pytest.approx(math.log(2.0) + 0.5, abs=1e-12)

    @pytest.mark.parametrize("mu", MUS)
    def test_continuity_at_knot(self, mu):
        # both branch formulas, evaluated at the knot, agree in value and slope
        knot = -1.0 / mu**2
        left_val = -math.log(-knot) / mu
        right_val = mu * knot - math.log(1.0 / mu**2) / mu + 1.0 / mu
        assert abs(left_val - right_val) < 1e-9
        left_slope = -1.0 / (mu * knot)
        assert abs(left_slope - mu) < 1e-9
        # limit check: gap shrinks linearly with the probe distance
        eps = 1e-12
        assert abs(
            smoothed_log_barrier(knot - eps, mu) - smoothed_log_barrier(knot + eps, mu)
        ) <= 4.0 * mu * eps + 1e-15

    @pytest.mark.parametrize("mu", MUS)
    def test_matches_log_barrier_below_knot(self, mu):
        # dominance: identical to the plain barrier strictly left of the knot
        for x in np.linspace(-5.0, -1.0 / mu**2 - 1e-9, 50):
            assert smoothed_log_barrier(x, mu) == pytest.approx(
                log_barrier(x, mu), abs=1e-12
            )

    @given(
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
        st.sampled_from(MUS),
    )
    def test_monotone_nondecreasing(self, a, b, mu):
        lo, hi = min(a, b), max(a, b)
        assert smoothed_log_barrier(lo, mu) <= smoothed_log_barrier(hi, mu) + 1e-12


class TestSmoothedLogBarrierGrad:
    def test_left_branch(self):
        assert smoothed_log_barrier_grad(-1.0, 2.0) == 0.5

    def test_knot_from_both_branches(self):
        mu = 2.0
        knot = -1.0 / mu**2
        assert -1.0 / (mu * knot) == pytest.approx(mu, abs=1e-12)
        assert smoothed_log_barrier_grad(knot, mu) == pytest.approx(mu, abs=1e-12)

    def test_linear_slope(self):
        assert smoothed_log_barrier_grad(5.0, 2.0) == 2.0

    @pytest.mark.parametrize("mu", MUS)
    def test_finite_differences(self, mu):
        rng = np.random.default_rng(42)
        knot = -1.0 / mu**2
        h = 1e-6
        checked = 0
        while checked < 100:
            x = rng.uniform(-5.0, 5.0)
            if abs(x - knot) < 1e-6 + h:
                continue
            fd = (smoothed_log_barrier(x + h, mu) - smoothed_log_barrier(x - h, mu)) / (2 * h)
            g = smoothed_log_barrier_grad(x, mu)
            assert abs(fd - g) <= 1e-5 * max(1.0, abs(g))
            checked += 1


class TestShiftedBarrier:
    def test_dead_zone(self):
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        assert shifted_barrier(-3.0, cfg) == 0.0
        assert shifted_barrier_grad(-3.0, cfg) == 0.0

    def test_log_branch(self):
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        assert shifted_barrier(0.5, cfg) == pytest.approx(-0.5 * math.log(0.5), abs=1e-12)

    def test_shift_invariance(self):
        a = shifted_barrier(0.5, BarrierConfig(mu=2.0, cost_limit=0.0))
        b = shifted_barrier(1.5, BarrierConfig(mu=2.0, cost_limit=1.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_linear_branch(self):
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        assert shifted_barrier(2.0, cfg) == pytest.approx(2.0 + math.log(2.0) + 0.5, abs=1e-12)

    def test_mu_guard(self):
        # the shifted barrier's mu rule lives in BarrierConfig alone
        with pytest.raises(ValueError, match="mu must exceed 1"):
            BarrierConfig(mu=1.0, cost_limit=0.0)

    def test_grad_cases(self):
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        assert shifted_barrier_grad(-1.0, cfg) == 0.0
        # middle interval: 1/(mu*(1-z)) at z = 0.5
        assert shifted_barrier_grad(0.5, cfg) == pytest.approx(1.0, abs=1e-12)
        # past 1 - 1/mu^2 = 0.75 the slope saturates at mu
        assert shifted_barrier_grad(0.9, cfg) == pytest.approx(2.0, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        h = 1e-6
        for x in [0.2, 0.5, 0.7, 0.8, 0.9, 1.3, 2.5]:
            fd = (shifted_barrier(x + h, cfg) - shifted_barrier(x - h, cfg)) / (2 * h)
            assert shifted_barrier_grad(x, cfg) == pytest.approx(fd, rel=1e-5)

    def test_rectifier_corner_gradient_is_zero(self):
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        assert shifted_barrier_grad(0.0, cfg) == 0.0

    def test_larger_mu_pushes_less_just_past_the_limit(self):
        # the slope just past d is 1/(mu(1 - z)), about 1/mu; it reaches mu only
        # for z >= 1 - 1/mu^2, so a larger mu penalizes a small violation less
        d, z = 0.5, 1e-3
        slopes = [shifted_barrier_grad(d + z, BarrierConfig(mu, d)) for mu in (1.5, 3.0, 10.0)]
        for mu, slope in zip((1.5, 3.0, 10.0), slopes):
            assert slope == pytest.approx(1 / (mu * (1 - z)), rel=1e-9)
        assert slopes[0] > slopes[1] > slopes[2]

    @given(
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.sampled_from([1.1, 1.5, 2.0, 3.0]),
        st.floats(-2.0, 2.0),
    )
    def test_monotone(self, a, b, mu, d):
        cfg = BarrierConfig(mu=mu, cost_limit=d)
        lo, hi = min(a, b), max(a, b)
        assert shifted_barrier(lo, cfg) <= shifted_barrier(hi, cfg) + 1e-12

    def test_grid_dead_zone(self):
        cfg = BarrierConfig(mu=3.0, cost_limit=0.5)
        xs = np.linspace(-50.0, 0.5, 1000)
        assert np.all(shifted_barrier(xs, cfg) == 0.0)
        assert np.all(shifted_barrier_grad(xs, cfg) == 0.0)


def composed_slope(z, mu):
    """The shifted barrier's slope as :func:`shifted_barrier_grad` composes it
    for mu > 1: 0 in the dead zone, else the smoothed slope at z - 1."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z <= 0, 0.0, smoothed_log_barrier_grad(z - 1.0, mu))


class TestShiftedGradScalarBranch:
    """The float slope must give the bits of the composed array slope."""

    @staticmethod
    def inputs(mu, cost_limit):
        mid_hi = 1.0 - 1.0 / (mu * mu)
        rng = np.random.default_rng(7)
        special = [
            math.nan,
            math.inf,
            -math.inf,
            0.0,
            -0.0,
            cost_limit,  # z = 0
            cost_limit + mid_hi,  # z = 1 - 1/mu^2 when cost_limit is 0
            cost_limit + 1.0,
            np.nextafter(cost_limit, math.inf),
            np.nextafter(cost_limit + mid_hi, math.inf),
        ]
        dead = cost_limit - rng.exponential(2.0, 50)
        log = cost_limit + rng.uniform(0.0, mid_hi, 50)
        linear = cost_limit + mid_hi + rng.exponential(2.0, 50)
        return [float(v) for v in [*special, *dead, *log, *linear]]

    # 1e9: 1 - 1/mu^2 rounds to 1, yet z = 1 is on the value's linear branch
    @pytest.mark.parametrize("mu", [1.0, 1.01, 1.5, 3.0, 10.0, 1e9])
    @pytest.mark.parametrize("cost_limit", [0.0, 0.5])
    @pytest.mark.parametrize("as_type", [float, np.float64])
    def test_bytes_equal_array_branch(self, mu, cost_limit, as_type):
        xs = self.inputs(mu, cost_limit)
        expected = composed_slope(np.array(xs) - cost_limit, mu)
        got = [_shifted_grad(as_type(x), mu, cost_limit) for x in xs]
        assert all(isinstance(v, float) for v in got)
        assert struct.pack(f"<{len(got)}d", *got) == expected.astype("<f8").tobytes()
        if mu > 1:
            cfg = BarrierConfig(mu=mu, cost_limit=cost_limit)
            assert shifted_barrier_grad(np.array(xs), cfg).tobytes() == expected.tobytes()

    def test_every_branch_is_reached(self):
        out = [_shifted_grad(x, 3.0, 0.0) for x in self.inputs(3.0, 0.0)]
        assert 0.0 in out and 3.0 in out
        assert any(0.0 < v < 3.0 for v in out)
        assert _shifted_grad(1.0, 1e9, 0.0) == 1e9

    @pytest.mark.parametrize("mu", [1.01, 1.5, 3.0, 10.0, 2.0**27, 1e9, 1e10])
    def test_knot_and_pole_split_where_the_value_does(self, mu):
        # 8 ulps either side of the knot z = 1 - 1/mu^2, and z = 1, where the
        # test z <= 1 - 1/mu^2 once disagreed with the value's for mu >= 2^27
        knot = 1.0 - 1.0 / (mu * mu)
        below, above = [knot], [knot]
        for _ in range(8):
            below.append(math.nextafter(below[-1], -math.inf))
            above.append(math.nextafter(above[-1], math.inf))
        zs = [*below, *above[1:], 1.0]
        got = [_shifted_grad(z, mu, 0.0) for z in zs]
        assert struct.pack(f"<{len(zs)}d", *got) == composed_slope(zs, mu).astype("<f8").tobytes()


class TestShiftedCurvature:
    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("cost_limit", [0.0, 0.5])
    def test_central_difference_of_the_slope_in_each_branch(self, mu, cost_limit):
        mid_hi = 1.0 - 1.0 / (mu * mu)
        h = 1e-6
        rng = np.random.default_rng(11)
        branches = {
            "dead": -rng.uniform(2 * h, 3.0, 20),
            "log": rng.uniform(2 * h, mid_hi - 2 * h, 20),
            "linear": mid_hi + rng.uniform(2 * h, 3.0, 20),
        }
        for branch, zs in branches.items():
            for z in zs.tolist():
                x = cost_limit + z
                slopes = [_shifted_grad(x + d, mu, cost_limit) for d in (h, -h)]
                fd = (slopes[0] - slopes[1]) / (2 * h)
                curv = _shifted_curvature(x, mu, cost_limit)
                assert curv == pytest.approx(fd, rel=1e-5, abs=1e-6), (branch, z)
                if branch != "log":
                    assert curv == 0.0

    def test_zero_at_the_branch_ends_and_on_nan(self):
        assert _shifted_curvature(0.0, 3.0, 0.0) == 0.0  # the corner is in the dead zone
        # the log branch's last point, 1/mu^2 from z = 1, has curvature mu^3
        assert _shifted_curvature(1.0 - 1.0 / 9.0, 3.0, 0.0) == pytest.approx(27.0)
        assert _shifted_curvature(np.nextafter(1.0 - 1.0 / 9.0, 2.0), 3.0, 0.0) == 0.0
        assert _shifted_curvature(math.nan, 3.0, 0.0) == 0.0  # slope mu, the linear branch

    def test_z_of_one_at_huge_mu_is_on_the_linear_branch(self):
        # 1 - 1/mu^2 rounds to 1, but arg = z - 1 = 0 is past the knot -1/mu^2,
        # so z = 1 takes the value's linear branch: slope mu, curvature 0
        assert _shifted_curvature(1.0, 1e9, 0.0) == 0.0
        assert _shifted_grad(1.0, 1e9, 0.0) == 1e9


class TestPerformanceBound:
    def test_mu_one_closes_the_gap(self):
        assert performance_bound(1.0, 5) == 0.0

    def test_values(self):
        assert performance_bound(2.0, 1) == pytest.approx(1.5)
        assert performance_bound(3.0, 2) == pytest.approx(16.0 / 3.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            performance_bound(0.0, 1)
        with pytest.raises(ValueError):
            performance_bound(2.0, 0)

    @pytest.mark.parametrize("mu", [1.3e154, 1e200, 1e300])
    def test_finite_where_the_first_form_overflows(self, mu):
        assert math.isinf(abs(1.0 - mu * mu) * 3 / mu)
        assert performance_bound(mu, 3) == pytest.approx(3 * mu, rel=1e-15)

    def test_first_form_kept_wherever_finite(self):
        for mu in [0.5, 1.01, 3.0, 1e3, 1e150, 1e153]:
            assert performance_bound(mu, 3) == abs(1.0 - mu * mu) * 3 / mu

    @given(st.floats(0.1, 10.0), st.integers(1, 20))
    def test_linear_in_m(self, mu, m):
        assert performance_bound(mu, m) == pytest.approx(m * performance_bound(mu, 1), rel=1e-12)


class TestBarrierConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            BarrierConfig(mu=-1.0)
        with pytest.raises(ValueError):
            BarrierConfig(mu=2.0, cost_limit=math.inf)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteMuRejected:
    @pytest.mark.parametrize("mu", NON_FINITE)
    def test_config(self, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            BarrierConfig(mu=mu)

    @pytest.mark.parametrize("mu", NON_FINITE)
    def test_bound_and_barriers(self, mu):
        for call in (
            lambda: performance_bound(mu, 1),
            lambda: log_barrier(-0.5, mu),
            lambda: smoothed_log_barrier(0.5, mu),
            lambda: smoothed_log_barrier_grad(0.5, mu),
        ):
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                call()


class TestBarrierConfigMuRule:
    @given(st.floats())
    @example(1.0)
    @example(math.nextafter(1.0, 2.0))
    @example(MU_SQUARE_MAX)
    @example(math.nextafter(MU_SQUARE_MAX, math.inf))
    def test_accepts_mu_iff_above_one_with_a_finite_square(self, mu):
        try:
            BarrierConfig(mu=mu)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (1 < mu and mu * mu < math.inf)

    def test_square_edge(self):
        above = math.nextafter(MU_SQUARE_MAX, math.inf)
        assert MU_SQUARE_MAX * MU_SQUARE_MAX < math.inf and above * above == math.inf

    # log-uniform on (1, 1.34e154); exp of a tiny draw rounds to 1, which the rule rejects
    @given(st.floats(0.0, math.log(1.34e154), exclude_min=True).map(math.exp), st.floats(-1e3, 1e3))
    @example(math.nextafter(1.0, 2.0), 0.5)
    @example(2.0**27, 0.5)
    @example(MU_SQUARE_MAX, 0.5)
    def test_shifted_barrier_finite_without_warnings(self, mu, x):
        assume(mu > 1)
        cfg = BarrierConfig(mu=mu)
        knot = 1.0 - 1.0 / (mu * mu)  # z where the log branch ends
        special = [0.0, 1.0, knot, math.nextafter(knot, -math.inf), math.nextafter(knot, math.inf)]
        xs = np.array([x, *np.linspace(-1e3, 1e3, 201), *special])
        with np.errstate(**QUIET):
            for arg in (xs, *special, x):
                assert np.isfinite(shifted_barrier(arg, cfg)).all()
                assert np.isfinite(shifted_barrier_grad(arg, cfg)).all()


class TestSquareOverflowMuRejected:
    def test_smoothed_barriers(self):
        # 1e200 once gave a bare "math domain error" and a -inf slope with a divide warning
        for call in (
            lambda: smoothed_log_barrier(0.5, 1e200),
            lambda: smoothed_log_barrier_grad(0.0, 1e200),
            lambda: smoothed_log_barrier(0.5, math.nextafter(MU_SQUARE_MAX, math.inf)),
        ):
            with pytest.raises(ValueError, match="mu must be positive and finite, with a finite"):
                call()
        with np.errstate(**QUIET):
            assert math.isfinite(smoothed_log_barrier(0.5, MU_SQUARE_MAX))
            assert math.isfinite(smoothed_log_barrier_grad(0.0, MU_SQUARE_MAX))

    def test_plain_barrier_takes_it(self):
        # as performance_bound does (test_finite_where_the_first_form_overflows)
        assert log_barrier(-0.5, 1e200) == pytest.approx(math.log(2.0) / 1e200)
