"""Tests for the fractional predictor-corrector and the LTI quadrature route.

The linear Caputo problem D^a x = l x, x(0) = x0 has the exact solution
E_a(l t^a) x0, so the Mittag-Leffler routines double as an oracle for the
marcher.  The a = 1 limit is checked against a hand-coded classical
trapezoid PECE marcher written directly from the integral form.  The
blocked FFT memory sum of solve_caputo is checked against a direct-sum
PECE kept here as the reference, and the PECE weights against mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from frachill import integrator
from frachill.errors import DomainError, NonFiniteStateError
from frachill.history import (
    Constant,
    ExpGrowth,
    FloquetForm,
    ForcingEvaluator,
    PiecewiseConstantRamp,
    TruncatedSinusoid,
    forcing_grid,
)
from frachill.integrator import (
    IvpProblem,
    Trajectory,
    _grid,
    _pece_weights,
    solve_caputo,
    solve_liouville_weyl,
    voc_solution_scalar,
)
from frachill.specfun import mittag_leffler, reciprocal_gamma
from frachill.system import FractionalOrder, make_system


def classical_pece(rhs, x0, t0, t_end, dt):
    """Second-order Adams-Bashforth-Moulton reference (Euler predictor,
    trapezoid corrector) for ordinary initial value problems."""
    n = int(round((t_end - t0) / dt))
    xs = [np.asarray(x0, dtype=float)]
    t = t0
    for _ in range(n):
        fm = rhs(t, xs[-1])
        xp = xs[-1] + dt * fm
        xs.append(xs[-1] + 0.5 * dt * (fm + rhs(t + dt, xp)))
        t += dt
    return np.array(xs)


BLOCK = integrator._BLOCK


def direct_pece(p):
    """solve_caputo with O(n^2) direct memory sums: the reference for the
    blocked FFT convolution.  Same weights, the step arithmetic in the
    textbook order."""
    alpha = p.alpha
    times = _grid(p.t0, p.t_end, p.dt)
    steps = times.shape[0] - 1
    h = p.dt
    n = p.initial.shape[0]
    if p.forcing is not None:
        fvals = forcing_grid(p.forcing, times)
    else:
        fvals = np.zeros((steps + 1, n))
    probe = np.asarray(p.rhs(times[0], p.initial))
    dtype = np.result_type(probe.dtype, p.initial.dtype, fvals.dtype)
    if not np.issubdtype(dtype, np.complexfloating):
        dtype = np.float64

    def f0(j, x):
        return np.asarray(p.rhs(times[j], x)) - fvals[j]

    b, w, a0 = _pece_weights(alpha, steps + 1)
    c_pred = h**alpha * reciprocal_gamma(alpha + 1.0)
    c_corr = h**alpha * reciprocal_gamma(alpha + 2.0)
    xs = np.zeros((steps + 1, n), dtype=dtype)
    fs = np.zeros((steps + 1, n), dtype=dtype)
    xs[0] = p.initial
    fs[0] = f0(0, xs[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            x_pred = xs[0] + c_pred * (b[m::-1] @ fs[: m + 1])
            mem_corr = a0[m] * fs[0]
            if m >= 1:
                mem_corr = mem_corr + w[m - 1 :: -1] @ fs[1 : m + 1]
            x_new = xs[0] + c_corr * (mem_corr + f0(m + 1, x_pred))
            if not np.all(np.isfinite(x_new)):
                raise NonFiniteStateError(
                    "state diverged", last_valid_time=float(times[m])
                )
            xs[m + 1] = x_new
            fs[m + 1] = f0(m + 1, x_new)
    return Trajectory(times=times, values=xs, scheme="direct", dt=h)


def direct_liouville_weyl(monkeypatch, *args, **kwargs):
    """solve_liouville_weyl marched by direct_pece."""
    with monkeypatch.context() as mp:
        mp.setattr(integrator, "solve_caputo", direct_pece)
        return solve_liouville_weyl(*args, **kwargs)


def max_rel_gap(got, ref):
    return np.max(np.abs(got.values - ref.values)) / np.max(np.abs(ref.values))


def linear_problem(alpha, lam=-1.0, dt=1e-3, t_end=1.0):
    return IvpProblem(
        order=FractionalOrder(alpha),
        rhs=lambda t, x: lam * x,
        initial=[1.0],
        t0=0.0,
        t_end=t_end,
        dt=dt,
    )


def example_system(b):
    # scalar J(t) = -1 + b sin t, so J_1 = -i b / 2
    return make_system(0.5, 1.0, {0: [[-1.0]], 1: [[-0.5j * b]]})


class TestIvpProblemValidation:
    def test_t_end_must_exceed_t0(self):
        with pytest.raises(DomainError):
            IvpProblem(
                order=FractionalOrder(0.5),
                rhs=lambda t, x: -x,
                initial=[1.0],
                t0=1.0,
                t_end=1.0,
                dt=0.1,
            )

    def test_dt_range(self):
        for dt in (0.0, -0.1, 2.5):
            with pytest.raises(DomainError):
                IvpProblem(
                    order=FractionalOrder(0.5),
                    rhs=lambda t, x: -x,
                    initial=[1.0],
                    t0=0.0,
                    t_end=2.0,
                    dt=dt,
                )

    @pytest.mark.parametrize(
        "t_end, dt",
        [(math.nan, 0.1), (2.0, math.nan), (2.0, 0.0), (-1.0, 0.1), (math.inf, 0.1)],
    )
    def test_bad_span_is_checked_before_the_grid(self, t_end, dt):
        # solve_liouville_weyl builds J on the time grid before any
        # IvpProblem exists, so the grid itself must refuse a bad span
        spec = make_system(0.5, 1.0, {0: [[-1.0]]})
        with pytest.raises(DomainError):
            solve_liouville_weyl(spec, Constant(values=[1.0]), t_end, dt)

    def test_float_order_coerced(self):
        p = IvpProblem(
            order=0.4,
            rhs=lambda t, x: -x,
            initial=[1.0],
            t0=0.0,
            t_end=1.0,
            dt=0.1,
        )
        assert p.alpha == 0.4

    def test_forcing_order_mismatch(self):
        fe = ForcingEvaluator(ExpGrowth(rate=1.0, coefficient=[1.0]), 0.3)
        with pytest.raises(DomainError):
            IvpProblem(
                order=FractionalOrder(0.5),
                rhs=lambda t, x: -x,
                initial=[1.0],
                t0=0.0,
                t_end=1.0,
                dt=0.1,
                forcing=fe,
            )


class TestSolveCaputo:
    def test_classical_limit_exponential(self):
        tr = solve_caputo(linear_problem(1.0))
        assert abs(tr.final[0] - math.exp(-1.0)) < 1e-3

    def test_mittag_leffler_solution(self):
        tr = solve_caputo(linear_problem(0.5))
        exact = mittag_leffler(0.5, 1.0, -1.0).real
        assert abs(tr.final[0] - exact) < 5e-3

    def test_zero_rhs_constant_trajectory(self):
        p = IvpProblem(
            order=FractionalOrder(0.5),
            rhs=lambda t, x: np.zeros_like(x),
            initial=[0.7, -1.2],
            t0=0.0,
            t_end=1.0,
            dt=0.05,
        )
        tr = solve_caputo(p)
        assert np.all(tr.values == np.array([0.7, -1.2]))

    def test_initial_node_exact(self):
        tr = solve_caputo(linear_problem(0.5, dt=0.25))
        assert tr.values[0, 0] == 1.0
        assert tr.times[0] == 0.0

    def test_grid_uniform(self):
        tr = solve_caputo(linear_problem(0.7, dt=0.125))
        steps = np.diff(tr.times)
        assert np.all(np.abs(steps - 0.125) < 1e-12)
        assert tr.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_system_decouples(self):
        p = IvpProblem(
            order=FractionalOrder(0.6),
            rhs=lambda t, x: np.array([-1.0, -2.0]) * x,
            initial=[1.0, 1.0],
            t0=0.0,
            t_end=2.0,
            dt=0.01,
        )
        tr = solve_caputo(p)
        for i, lam in enumerate((-1.0, -2.0)):
            ps = IvpProblem(
                order=FractionalOrder(0.6),
                rhs=lambda t, x, lam=lam: lam * x,
                initial=[1.0],
                t0=0.0,
                t_end=2.0,
                dt=0.01,
            )
            trs = solve_caputo(ps)
            np.testing.assert_array_equal(tr.values[:, i], trs.values[:, 0])

    def test_complex_rotation(self):
        p = IvpProblem(
            order=FractionalOrder(1.0),
            rhs=lambda t, x: 1j * x,
            initial=[1.0],
            t0=0.0,
            t_end=1.0,
            dt=1e-3,
        )
        tr = solve_caputo(p)
        assert abs(tr.final[0] - np.exp(1j)) < 1e-5

    def test_divergence_reports_last_valid_time(self):
        p = IvpProblem(
            order=FractionalOrder(0.5),
            rhs=lambda t, x: x**3,
            initial=[5.0],
            t0=0.0,
            t_end=5.0,
            dt=1e-3,
        )
        with pytest.raises(NonFiniteStateError) as exc:
            solve_caputo(p)
        assert exc.value.last_valid_time is not None
        assert 0.0 <= exc.value.last_valid_time < 5.0

    def test_trajectory_read_only(self):
        tr = solve_caputo(linear_problem(0.5, dt=0.5))
        with pytest.raises(ValueError):
            tr.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            tr.times[0] = 99.0

    def test_scheme_id(self):
        tr = solve_caputo(linear_problem(0.5, dt=0.5))
        assert tr.scheme == "fracpece"


class TestConvergenceOrder:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_halving_dt_reduces_error(self, alpha):
        # E_a(-t^a) has an unbounded derivative at t = 0, so the scheme's
        # nominal order min(2, 1+a) shows past the initial layer; the error
        # is therefore measured on t >= 0.1
        errs = {}
        for dt in (1e-2, 5e-3):
            tr = solve_caputo(linear_problem(alpha, dt=dt))
            exact = np.array(
                [mittag_leffler(alpha, 1.0, -t**alpha).real for t in tr.times]
            )
            layer = tr.times >= 0.1
            errs[dt] = np.max(np.abs(tr.values[:, 0] - exact)[layer])
        ratio = errs[1e-2] / errs[5e-3]
        assert ratio >= 2.0 ** (min(2.0, 1.0 + alpha) - 0.3)


class TestClassicalConsistency:
    def test_matches_reference_second_order_marcher(self):
        rhs = lambda t, x: -x + np.sin(t)
        p = IvpProblem(
            order=FractionalOrder(1.0),
            rhs=rhs,
            initial=[0.5],
            t0=0.0,
            t_end=1.0,
            dt=1e-3,
        )
        tr = solve_caputo(p)
        ref = classical_pece(rhs, [0.5], 0.0, 1.0, 1e-3)
        assert np.max(np.abs(tr.values - ref)) <= 1e-6


class TestSolveLiouvilleWeyl:
    def test_stable_periodic_system_decays(self):
        tr = solve_liouville_weyl(
            example_system(1.0), Constant(values=[1.0]), 50.0, 0.01
        )
        assert abs(tr.final[0]) < 0.1

    def test_unstable_periodic_system_grows(self):
        tr = solve_liouville_weyl(
            example_system(2.5), Constant(values=[1.0]), 50.0, 0.01
        )
        assert abs(tr.final[0]) > 10.0

    def test_constant_history_zero_rhs_stays_constant(self):
        tr = solve_liouville_weyl(
            lambda t, x: np.zeros_like(x),
            Constant(values=[0.3]),
            2.0,
            0.1,
            alpha=0.5,
        )
        assert np.all(tr.values == 0.3)

    def test_initial_value_from_history(self):
        h = ExpGrowth(rate=2.0, coefficient=[1.5])
        tr = solve_liouville_weyl(lambda t, x: -x, h, 1.0, 0.1, alpha=0.5)
        assert tr.values[0, 0] == 1.5

    def test_callable_requires_alpha(self):
        with pytest.raises(DomainError):
            solve_liouville_weyl(
                lambda t, x: -x, Constant(values=[1.0]), 1.0, 0.1
            )


class TestVocSolutionScalar:
    def test_t_zero_returns_initial(self):
        h = TruncatedSinusoid(amplitude=[1.0], phase=0.4)
        assert voc_solution_scalar(-1.0, 0.5, h, 0.0) == pytest.approx(
            math.sin(0.4), abs=1e-15
        )

    def test_constant_history_is_pure_mittag_leffler(self):
        h = Constant(values=[0.7])
        for t in (0.5, 3.0, 40.0):
            got = voc_solution_scalar(-2.0, 0.6, h, t)
            exact = mittag_leffler(0.6, 1.0, -2.0 * t**0.6).real * 0.7
            assert got == pytest.approx(exact, abs=1e-13)

    def test_validation(self):
        h = Constant(values=[1.0])
        with pytest.raises(DomainError):
            voc_solution_scalar(0.5, 0.5, h, 1.0)
        with pytest.raises(DomainError):
            voc_solution_scalar(-1.0, 1.0, h, 1.0)
        with pytest.raises(DomainError):
            voc_solution_scalar(-1.0, 0.5, h, -1.0)
        with pytest.raises(DomainError):
            voc_solution_scalar(-1.0, 0.5, Constant(values=[1.0, 2.0]), 1.0)
        with pytest.raises(DomainError):
            voc_solution_scalar(
                -1.0, 0.5, Constant(values=[1.0], t0=3.0), 1.0
            )

    def test_complex_history_rejected(self):
        # the formula is real; dropping the imaginary part of the history
        # would answer a different problem
        h = FloquetForm(lam=0.1, omega=1.0, coeffs={1: [1.0]})
        with pytest.raises(DomainError):
            voc_solution_scalar(-1.0, 0.5, h, 1.0)

    def test_agrees_with_stepping(self):
        # quadrature of the variation-of-constants formula against the
        # marcher, two fully independent routes
        h = TruncatedSinusoid(amplitude=[1.0])
        v = voc_solution_scalar(-1.0, 0.5, h, 100.0)
        tr = solve_liouville_weyl(lambda t, x: -x, h, 100.0, 0.01, alpha=0.5)
        assert abs(v - tr.final[0]) < 1e-3

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_decay_slope(self, alpha):
        # a sinusoid with period far beyond the fit window keeps the
        # t^{-a} envelope of the homogeneous term visible on the window;
        # see test_fast_sinusoid_decays_faster for the opposite regime
        h = TruncatedSinusoid(
            amplitude=[1.0], phase=math.pi / 4, frequency=1e-9
        )
        ts = np.logspace(2, 4, 9)
        us = np.array([voc_solution_scalar(-1.0, alpha, h, t) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(np.abs(us)), 1)[0]
        assert abs(slope + alpha) <= 0.1

    def test_fast_sinusoid_decays_faster(self):
        # when the history mixes on an O(1) time scale the forcing
        # convolution cancels the t^{-a} tail of the homogeneous term
        # exactly and the solution decays one power faster, ~ t^{-1-a};
        # the cancellation was confirmed against the stepping route
        h = TruncatedSinusoid(amplitude=[1.0], phase=math.pi / 4)
        ts = np.logspace(2, 4, 9)
        us = np.array([voc_solution_scalar(-1.0, 0.5, h, t) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(np.abs(us)), 1)[0]
        assert -1.7 < slope < -1.3

    def test_ramp_history_attains_envelope(self):
        # a history with nonzero far-field mass realizes the t^{-a} rate
        # without any tuning
        h = PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0)
        for alpha in (0.3, 0.5, 0.7):
            ts = np.logspace(2, 4, 9)
            us = np.array(
                [voc_solution_scalar(-1.0, alpha, h, t) for t in ts]
            )
            slope = np.polyfit(np.log(ts), np.log(np.abs(us)), 1)[0]
            assert abs(slope + alpha) <= 0.1

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_kernel_array_call_at_large_x(self, alpha):
        # the kernel E_{a,a}(-x) is one array call of mittag_leffler, out
        # to its |z| <= 1e6; the reference is the large-x expansion
        # -sum_{k>=2} (-x)^-k / Gamma(a - a k), whose terms past k = 12 lie
        # below 1e-40 of the sum there
        xs = np.array([1.5e5, 1e6])
        got = mittag_leffler(alpha, alpha, -xs).real
        a = mpmath.mpf(alpha)
        for x, value in zip(xs, got):
            with mpmath.workdps(40):
                ref = -sum(
                    (-mpmath.mpf(x)) ** -k * mpmath.rgamma(a - a * k)
                    for k in range(2, 13)
                )
            assert abs(value - float(ref)) <= 1e-13 * abs(float(ref))

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
    def test_march_converges_to_it(self, alpha):
        # the PECE march is an independent route: halving its step halves
        # its distance to the quadrature, which at dt = 0.005 is a few
        # 1e-6 at t = 20 for histories whose forcing has a kink at t = 0
        histories = (
            TruncatedSinusoid(amplitude=[1.0], phase=math.pi / 4),
            TruncatedSinusoid(amplitude=[1.0], phase=0.3, frequency=2.0),
            PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0),
        )
        for h in histories:
            v = voc_solution_scalar(-1.0, alpha, h, 20.0)
            gaps = []
            for dt in (0.01, 0.005):
                tr = solve_liouville_weyl(lambda t, x: -x, h, 20.0, dt, alpha=alpha)
                gaps.append(abs(tr.final[0] - v))
            assert gaps[1] <= 0.7 * gaps[0], (h, gaps)
            assert gaps[1] <= 2e-6, (h, gaps)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
    def test_matches_adaptive_quadrature(self, alpha):
        # scipy's adaptive quad of the same integral, on 20 pieces of
        # [0, t] with s^(alpha - 1) taken as the first piece's weight; the
        # forcing's (t - s)^(1 - alpha) kink at s = t sits at the end of
        # the last piece
        A, t = -1.0, 10.0
        histories = (
            TruncatedSinusoid(amplitude=[1.0], phase=math.pi / 4),
            TruncatedSinusoid(amplitude=[1.0], phase=0.3, frequency=2.0),
            PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0),
        )
        for h in histories:
            fe = ForcingEvaluator(h, alpha)

            def integrand(s):
                kernel = mittag_leffler(alpha, alpha, A * s**alpha).real
                return kernel * forcing_grid(fe, np.array([t - s]))[0, 0]

            edges = np.linspace(0.0, t, 21)
            conv = quad(
                integrand, 0.0, edges[1], weight="alg", wvar=(alpha - 1.0, 0.0),
                epsabs=1e-14, epsrel=1e-13, limit=200,
            )[0]
            for lo, hi in zip(edges[1:-1], edges[2:]):
                conv += quad(
                    lambda s: s ** (alpha - 1.0) * integrand(s), lo, hi,
                    epsabs=1e-14, epsrel=1e-13, limit=200,
                )[0]
            u0 = h.value(0.0)[0]
            ref = mittag_leffler(alpha, 1.0, A * t**alpha).real * u0 - conv
            assert abs(voc_solution_scalar(A, alpha, h, t) - ref) <= 1e-10, h


class TestBoundedness:
    def test_random_histories_stay_within_three_norms(self):
        rng = np.random.default_rng(42)
        for i in range(20):
            a_coef = -float(rng.uniform(0.1, 3.0))
            alpha = float(rng.uniform(0.2, 0.9))
            kind = i % 4
            if kind == 0:
                h = Constant(values=[float(rng.uniform(-2.0, 2.0))])
            elif kind == 1:
                h = TruncatedSinusoid(
                    amplitude=[float(rng.uniform(0.5, 2.0))],
                    phase=float(rng.uniform(0.0, 6.0)),
                    frequency=float(rng.uniform(0.3, 3.0)),
                )
            elif kind == 2:
                h = ExpGrowth(
                    rate=float(rng.uniform(0.2, 2.0)),
                    coefficient=[float(rng.uniform(-2.0, 2.0))],
                )
            else:
                h = PiecewiseConstantRamp(
                    far_value=[float(rng.uniform(-2.0, 2.0))],
                    ramp_start=-float(rng.uniform(0.5, 3.0)),
                )
            tr = solve_liouville_weyl(
                lambda t, x: a_coef * x, h, 100.0, 0.05, alpha=alpha
            )
            bound = 3.0 * h.norm_inf() + 1e-3
            assert np.max(np.abs(tr.values)) <= bound


class TestPeceWeights:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_against_mpmath(self, alpha):
        # the closed forms cancel to r^(a-1) from terms of size r^(a+1);
        # at r = 1e6 they lose about 12 digits
        rs = np.unique(
            np.concatenate(
                (np.arange(40), np.logspace(1.6, 6.0, 45).astype(int))
            )
        )
        b, w, a0 = _pece_weights(alpha, int(rs[-1]) + 1)
        a = mpmath.mpf(alpha)
        for r in rs:
            rr = mpmath.mpf(int(r))
            with mpmath.workdps(40):
                exact = (
                    (rr + 1) ** a - rr**a,
                    (rr + 2) ** (a + 1) + rr ** (a + 1) - 2 * (rr + 1) ** (a + 1),
                    rr ** (a + 1) - (rr - a) * (rr + 1) ** a,
                )
            for got, ref in zip((b[r], w[r], a0[r]), exact):
                assert abs(got - float(ref)) <= 1e-13 * abs(float(ref)), (r, got)


class TestBlockedConvolution:
    """solve_caputo against the direct-sum reference, to 1e-12 relative."""

    def test_long_constant_history(self, monkeypatch):
        spec = make_system(0.5, 1.0, {0: [[-1.0]]})
        args = (spec, Constant(values=[1.0]), 400.0, 0.01)
        got = solve_liouville_weyl(*args)
        ref = direct_liouville_weyl(monkeypatch, *args)
        assert got.times.shape[0] == 40_001
        assert max_rel_gap(got, ref) <= 1e-12

    def test_complex_floquet_history(self, monkeypatch):
        spec = example_system(2.2)
        h = FloquetForm(
            lam=0.3 + 0.1j, omega=1.0, coeffs={0: [1.0], 1: [0.3j], -1: [0.1]}
        )
        args = (spec, h, 4.0 * math.pi, 1e-3)
        got = solve_liouville_weyl(*args)
        ref = direct_liouville_weyl(monkeypatch, *args)
        assert np.iscomplexobj(got.values)
        assert max_rel_gap(got, ref) <= 1e-12

    def test_mathieu_system(self, monkeypatch):
        # companion form of D^a y + (1 + 2 sin 2t) y = 0, a state of two
        spec = make_system(
            0.7, 2.0, {0: [[0.0, 1.0], [-1.0, 0.0]], 1: [[0.0, 0.0], [-1.0j, 0.0]]}
        )
        args = (spec, Constant(values=[1.0, 0.0]), 50.0, 0.01)
        got = solve_liouville_weyl(*args)
        ref = direct_liouville_weyl(monkeypatch, *args)
        assert max_rel_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize(
        "steps",
        [1, BLOCK - 1, BLOCK, BLOCK + 1]
        + [BLOCK * 2**k + d for k in (1, 2, 3, 4) for d in (-1, 1)],
    )
    def test_step_counts_around_the_blocks(self, steps):
        p = IvpProblem(
            order=FractionalOrder(0.4),
            rhs=lambda t, x: -x + 0.5 * np.sin(3.0 * t) * x**2,
            initial=[0.8],
            t0=0.0,
            t_end=steps * 0.01,
            dt=0.01,
            forcing=ForcingEvaluator(TruncatedSinusoid(amplitude=[1.0]), 0.4),
        )
        got = solve_caputo(p)
        ref = direct_pece(p)
        assert got.times.shape[0] == steps + 1
        assert max_rel_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize("x0", [5.0, 0.5])
    def test_divergence_time_matches_reference(self, x0):
        # x0 = 5 blows up inside the first block, x0 = 0.5 after 865 steps
        p = IvpProblem(
            order=FractionalOrder(0.5),
            rhs=lambda t, x: x**3,
            initial=[x0],
            t0=0.0,
            t_end=5.0,
            dt=1e-3,
        )
        with pytest.raises(NonFiniteStateError) as got:
            solve_caputo(p)
        with pytest.raises(NonFiniteStateError) as ref:
            direct_pece(p)
        assert got.value.last_valid_time == ref.value.last_valid_time
