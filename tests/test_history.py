"""Tests for initial histories and the forcing term evaluator."""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from frachill.errors import (
    DomainError,
    SchemaError,
    SingularForcingError,
    UnboundedHistoryError,
)
from frachill.history import (
    _CHUNK,
    Constant,
    ExpGrowth,
    FloquetForm,
    ForcingEvaluator,
    HistoryFunction,
    PiecewiseConstantRamp,
    Sampled,
    TruncatedSinusoid,
    eval_history,
    eval_history_derivative,
    forcing_bound_constant,
    forcing_grid,
    parse_history,
)
from frachill.specfun import gamma, mittag_leffler, upper_incomplete_gamma

# forcing of sin(t) history (t0 = 0), computed once with an oscillatory
# high-precision quadrature oracle and frozen
SIN_FORCING = {
    (0.3, 0.0): 0.45399049973954677602,
    (0.3, 1.0): 0.12083936946182322186,
    (0.3, 5.5): 0.023353280943745944626,
    (0.5, 0.0): 0.70710678118654749929,
    (0.5, 1.0): 0.1310044771753227606,
    (0.5, 5.5): 0.019916239549164081723,
    (0.7, 0.0): 0.89100652408927413059,
    (0.7, 1.0): 0.096358334989245618724,
    (0.7, 5.5): 0.011527653360081012259,
}

# amplitude 2, frequency 3, phase 0.7, t0 = -0.5, alpha = 0.6
SIN_FORCING_GENERAL = {
    -0.5: 0.5490091519571485373,
    0.8: -0.45847026551174206282,
    4.1: -0.24693226986449434367,
}

# lam = 0.2 + 0.3i, p0 = 1, p1 = 0.5, omega = 1, alpha = 0.5, t0 = 0
FLOQUET_FORCING = {
    0.0: 0.9646271650510255684053 + 0.6567118925163433397803j,
    1.5: 0.517920412900428992269 + 0.1080521356047360625618j,
}


@dataclass(frozen=True, kw_only=True)
class _NoClosedForm(HistoryFunction):
    """A history kind that declares no closed-form forcing."""

    @property
    def dim(self) -> int:
        return 1

    def value(self, t):
        return np.ones(1)

    def derivative(self, t):
        return np.zeros(1)


def sampled_sine(n=60, left=-8.0, dim=1):
    g = np.linspace(left, 0.0, n)
    vals = np.sin(g)
    if dim > 1:
        vals = np.column_stack([np.sin(g)] * dim)
    return Sampled(grid=g, samples=vals, tail_value=[math.sin(left)] * dim)


class TestHistoryEvaluation:
    def test_constant(self):
        h = Constant(values=[1.0])
        np.testing.assert_allclose(eval_history(h, -7.0), [1.0])
        np.testing.assert_allclose(eval_history_derivative(h, -3.0), [0.0])

    def test_exp_growth(self):
        h = ExpGrowth(rate=1.0, coefficient=[1.0])
        np.testing.assert_allclose(eval_history(h, -1.0), [math.exp(-1.0)])
        np.testing.assert_allclose(
            eval_history_derivative(h, -1.0), [math.exp(-1.0)]
        )

    def test_floquet_value(self):
        h = FloquetForm(lam=0.2, omega=1.0, coeffs={0: [1.0], 1: [0.5]})
        np.testing.assert_allclose(eval_history(h, 0.0), [1.5], atol=1e-15)

    def test_ramp_derivative(self):
        h = PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0)
        np.testing.assert_allclose(eval_history_derivative(h, -0.5), [-1.0])
        np.testing.assert_allclose(eval_history(h, -0.25), [0.25])
        np.testing.assert_allclose(eval_history(h, -3.0), [1.0])

    def test_sinusoid_derivative(self):
        h = TruncatedSinusoid(amplitude=[1.0])
        np.testing.assert_allclose(eval_history_derivative(h, 0.0), [1.0])

    def test_domain_checks(self):
        h = Constant(values=[1.0], t0=2.0)
        with pytest.raises(DomainError):
            eval_history(h, 2.5)
        with pytest.raises(DomainError):
            eval_history_derivative(h, 2.5)

    def test_kink_error(self):
        h = PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0)
        with pytest.raises(DomainError):
            eval_history_derivative(h, -1.0)

    def test_sampled_interpolation(self):
        h = sampled_sine(n=400)
        for t in (-5.3, -0.2, -9.5):
            np.testing.assert_allclose(
                eval_history(h, t), [math.sin(max(t, -8.0))], atol=1e-4
            )
        np.testing.assert_allclose(
            eval_history_derivative(h, -2.0), [math.cos(-2.0)], atol=1e-2
        )


class TestRejections:
    def test_decaying_exponential(self):
        with pytest.raises(UnboundedHistoryError):
            ExpGrowth(rate=-1.0, coefficient=[1.0])

    def test_floquet_decaying_envelope(self):
        with pytest.raises(UnboundedHistoryError):
            FloquetForm(lam=-0.1, omega=1.0, coeffs={0: [1.0]})

    def test_cusp_history(self):
        # |t|^alpha-type samples: the slope blows up toward t0 and the
        # forcing would not exist there
        g = np.concatenate([[-2.0], -np.logspace(0, -12, 25), [0.0]])
        v = np.abs(g) ** 0.5
        v[0] = 1.0
        with pytest.raises(SingularForcingError):
            Sampled(grid=g, samples=v, tail_value=[1.0])

    def test_discontinuous_tail(self):
        g = np.linspace(-2.0, 0.0, 10)
        with pytest.raises(DomainError):
            Sampled(grid=g, samples=np.ones(10), tail_value=[0.0])

    def test_nonfinite_samples(self):
        g = np.linspace(-2.0, 0.0, 10)
        v = np.ones(10)
        v[4] = np.nan
        with pytest.raises(UnboundedHistoryError):
            Sampled(grid=g, samples=v, tail_value=[1.0])

    def test_ml_trajectory_history_is_accepted(self):
        # trajectory of a finite-lower-bound relaxation: constant 1 for
        # t < -1, then E_alpha(-(t+1)^alpha); the derivative is singular
        # at the interior kink but bounded near t0, so it is admissible
        # with eta < 1
        alpha = 0.5
        g = np.concatenate(
            [[-1.0 + 1e-8], -1.0 + np.logspace(-7, 0, 120)]
        )
        g[-1] = 0.0
        v = np.array([mittag_leffler(alpha, 1.0, -((t + 1.0) ** alpha)) for t in g])
        h = Sampled(grid=g, samples=v.real, tail_value=[float(v[0].real)], eta=0.5)
        fe = ForcingEvaluator(h, alpha)
        out = fe.forcing(0.0)
        assert np.all(np.isfinite(out))


class TestClosedForms:
    def test_constant_forcing_vanishes(self):
        fe = ForcingEvaluator(Constant(values=[1.0, 2.0]), 0.5)
        for t in (0.0, 1.0, 17.3):
            np.testing.assert_allclose(fe.forcing(t), [0.0, 0.0])

    def test_ramp_value(self):
        fe = ForcingEvaluator(
            PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0), 0.5
        )
        expected = (1.0 - math.sqrt(2.0)) / gamma(1.5)
        np.testing.assert_allclose(fe.forcing(1.0), [expected], atol=1e-12)

    def test_exp_growth_value(self):
        fe = ForcingEvaluator(ExpGrowth(rate=1.0, coefficient=[1.0]), 0.5)
        expected = (
            math.exp(2.0)
            * upper_incomplete_gamma(0.5, 2.0).real
            / gamma(0.5)
        )
        np.testing.assert_allclose(fe.forcing(2.0), [expected], atol=1e-12)
        assert expected == pytest.approx(0.33620400244634121285, abs=1e-12)

    def test_sinusoid_frozen_values(self):
        h = TruncatedSinusoid(amplitude=[1.0])
        for (alpha, t), ref in SIN_FORCING.items():
            fe = ForcingEvaluator(h, alpha)
            np.testing.assert_allclose(fe.forcing(t), [ref], atol=1e-8)

    def test_sinusoid_general_frozen_values(self):
        h = TruncatedSinusoid(amplitude=[2.0], phase=0.7, frequency=3.0, t0=-0.5)
        fe = ForcingEvaluator(h, 0.6)
        for t, ref in SIN_FORCING_GENERAL.items():
            np.testing.assert_allclose(fe.forcing(t), [ref], atol=1e-8)

    def test_floquet_frozen_values(self):
        h = FloquetForm(lam=0.2 + 0.3j, omega=1.0, coeffs={0: [1.0], 1: [0.5]})
        fe = ForcingEvaluator(h, 0.5)
        for t, ref in FLOQUET_FORCING.items():
            got = fe.forcing(t)
            assert abs(got[0] - ref) < 1e-9

    def test_classical_limit_forcing_vanishes(self):
        fe = ForcingEvaluator(TruncatedSinusoid(amplitude=[1.0]), 1.0)
        np.testing.assert_allclose(fe.forcing(2.0), [0.0])


class TestQuadratureRoute:
    """Closed form against the split-quadrature path (independent routes)."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_exp_growth_agreement(self, alpha):
        h = ExpGrowth(rate=1.0, coefficient=[1.0])
        closed = ForcingEvaluator(h, alpha, method="closed")
        quadr = ForcingEvaluator(h, alpha, method="quadrature")
        for t in np.linspace(0.0, 20.0, 21):
            np.testing.assert_allclose(
                quadr.forcing(t), closed.forcing(t), atol=1e-7
            )

    def test_exp_growth_with_explicit_tail_split(self):
        h = ExpGrowth(rate=0.7, coefficient=[2.0])
        closed = ForcingEvaluator(h, 0.5, method="closed")
        quadr = ForcingEvaluator(h, 0.5, method="quadrature", tail_split=-6.0)
        for t in (0.0, 1.0, 8.0):
            np.testing.assert_allclose(
                quadr.forcing(t), closed.forcing(t), atol=1e-8
            )

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_ramp_agreement(self, alpha):
        h = PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0)
        closed = ForcingEvaluator(h, alpha, method="closed")
        quadr = ForcingEvaluator(h, alpha, method="quadrature")
        for t in np.linspace(0.0, 20.0, 21):
            np.testing.assert_allclose(
                quadr.forcing(t), closed.forcing(t), atol=1e-7
            )

    def test_floquet_agreement(self):
        h = FloquetForm(lam=0.2 + 0.3j, omega=1.0, coeffs={0: [1.0], 1: [0.5]})
        closed = ForcingEvaluator(h, 0.5, method="closed")
        quadr = ForcingEvaluator(h, 0.5, method="quadrature")
        for t in (0.0, 0.7, 3.0):
            np.testing.assert_allclose(
                quadr.forcing(t), closed.forcing(t), atol=1e-8
            )

    def test_sampled_agreement(self):
        h = sampled_sine(n=60)
        closed = ForcingEvaluator(h, 0.5)
        quadr = ForcingEvaluator(h, 0.5, method="quadrature")
        for t in (0.0, 1.0, 5.0):
            np.testing.assert_allclose(
                quadr.forcing(t), closed.forcing(t), atol=1e-7
            )

    def test_sampled_against_brute_force(self):
        # independent oracle: adaptive quadrature of the interpolant
        h = sampled_sine(n=40)
        fe = ForcingEvaluator(h, 0.5)
        t = 1.0
        val = 0.0
        slopes = np.diff(h.samples[:, 0]) / np.diff(h.grid)
        for (lo, hi), s in zip(zip(h.grid[:-1], h.grid[1:]), slopes):
            part, _ = quad(lambda tau: (t - tau) ** -0.5 * s, lo, hi)
            val += part
        val /= gamma(0.5)
        np.testing.assert_allclose(fe.forcing(t), [val], atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_sinusoid_agreement(self, alpha, monkeypatch):
        h = TruncatedSinusoid(amplitude=[2.0], phase=0.7, frequency=3.0, t0=-0.5)
        closed = ForcingEvaluator(h, alpha, method="closed")
        quadr = ForcingEvaluator(h, alpha, method="quadrature", tail_split=-6.0)
        ts = np.linspace(-0.5, 10.0, 8)
        expect = forcing_grid(closed, ts)
        for t, ref in zip(ts, expect):
            np.testing.assert_allclose(closed.forcing(t), ref, atol=1e-12)
        # the quadrature route must really integrate, also on a grid
        calls = []
        integrate = ForcingEvaluator._forcing_quadrature
        monkeypatch.setattr(
            ForcingEvaluator,
            "_forcing_quadrature",
            lambda fe, t: calls.append(t) or integrate(fe, t),
        )
        np.testing.assert_allclose(forcing_grid(quadr, ts), expect, atol=1e-7)
        assert len(calls) == len(ts)

    def test_no_closed_form_error(self):
        with pytest.raises(DomainError):
            ForcingEvaluator(_NoClosedForm(), 0.5, method="closed").forcing(1.0)


# one history of each kind, all of dimension 2
TWO_DIM_KINDS = {
    "constant": Constant(values=[1.0, -2.0]),
    "sinusoid": TruncatedSinusoid(amplitude=[1.0, 0.5], frequency=2.0),
    "exp": ExpGrowth(rate=0.5, coefficient=[1.0, 2.0]),
    "ramp": PiecewiseConstantRamp(far_value=[1.0, -1.0], ramp_start=-2.0),
    "floquet": FloquetForm(
        lam=0.2 + 0.3j, omega=1.0, coeffs={0: [1.0, 0.0], 1: [0.5, 1.0j]}
    ),
    "sampled": sampled_sine(n=20, dim=2),
}


class TestForcingGrid:
    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("kind", sorted(TWO_DIM_KINDS))
    def test_shapes(self, kind, method):
        fe = ForcingEvaluator(TWO_DIM_KINDS[kind], 0.5, method=method)
        assert forcing_grid(fe, []).shape == (0, 2)
        assert forcing_grid(fe, np.array([1.5])).shape == (1, 2)
        assert fe.forcing(1.5).shape == (2,)

    def test_chunk_boundaries(self):
        # a grid longer than two chunks matches its points evaluated alone
        fe = ForcingEvaluator(TWO_DIM_KINDS["floquet"], 0.5)
        ts = np.linspace(0.0, 30.0, 2 * _CHUNK + 5)
        grid = forcing_grid(fe, ts)
        for i in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK, ts.shape[0] - 1):
            np.testing.assert_allclose(grid[i], fe.forcing(ts[i]), rtol=0, atol=1e-15)

    def test_classical_limit_keeps_the_dtype(self):
        fe = ForcingEvaluator(TWO_DIM_KINDS["floquet"], 1.0)
        out = forcing_grid(fe, np.array([0.0, 1.0]))
        assert out.dtype == complex and not out.any()


class TestLongHorizonOracle:
    """Closed forms against mpmath where e^{mu t} alone overflows."""

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_exp_growth(self, alpha):
        # F(t) = c rho^alpha e^{rho t} Gamma(1 - alpha, rho t) / Gamma(1 - alpha);
        # at rho t = 1e4 the factor e^{rho t} is far beyond double range, so
        # only the scaled incomplete gamma keeps this finite
        rho = 0.5
        fe = ForcingEvaluator(ExpGrowth(rate=rho, coefficient=[1.5]), alpha)
        ts = np.array([0.0, 1.0, 90.0, 1500.0, 2e4])
        got = forcing_grid(fe, ts)[:, 0]
        with mp.workdps(30):
            a = 1 - mp.mpf(alpha)
            for g, t in zip(got, ts):
                x = mp.mpf(rho) * mp.mpf(t)
                ref = 1.5 * mp.mpf(rho) ** alpha * mp.exp(x) * mp.gammainc(a, x) / mp.gamma(a)
                assert abs(g - ref) <= 1e-12 * abs(ref), t

    def test_floquet(self):
        # sum_k p_k mu_k^alpha e^{z_k} Gamma(1 - alpha, z_k) / Gamma(1 - alpha),
        # z_k = mu_k t, with Re z_k up to 800
        h = FloquetForm(lam=0.8 + 0.1j, omega=1.5, coeffs={-2: [0.3], 0: [1.0], 3: [0.5j]})
        fe = ForcingEvaluator(h, 0.4)
        ts = np.array([0.0, 2.5, 40.0, 1000.0])
        got = forcing_grid(fe, ts)[:, 0]
        with mp.workdps(30):
            a = 1 - mp.mpf(0.4)
            for g, t in zip(got, ts):
                ref = 0
                for k, (p,) in h.coeffs.items():
                    mu = mp.mpc(0.8, 0.1 + 1.5 * k)
                    z = mu * mp.mpf(t)
                    ref += mp.mpc(complex(p)) * mu ** mp.mpf(0.4) * mp.exp(z) * mp.gammainc(a, z)
                ref /= mp.gamma(a)
                assert abs(mp.mpc(complex(g)) - ref) <= 1e-12 * abs(ref), t


class TestBounds:
    def test_bound_constant_examples(self):
        C, eta = forcing_bound_constant(
            ForcingEvaluator(Constant(values=[1.0]), 0.5)
        )
        assert C == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
        assert eta == 1.0
        C, _ = forcing_bound_constant(
            ForcingEvaluator(
                PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0), 0.5
            )
        )
        assert C == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-12)
        C, _ = forcing_bound_constant(
            ForcingEvaluator(Constant(values=[0.0]), 0.5)
        )
        assert C == 0.0

    @pytest.mark.parametrize(
        "hist",
        [
            TruncatedSinusoid(amplitude=[1.0]),
            ExpGrowth(rate=1.0, coefficient=[1.0]),
            PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0),
            sampled_sine(),
        ],
        ids=["sinusoid", "exp", "ramp", "sampled"],
    )
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_algebraic_decay_bound(self, hist, alpha):
        fe = ForcingEvaluator(hist, alpha)
        C, eta = forcing_bound_constant(fe)
        for t in np.arange(0.0, 50.01, 0.5):
            norm = np.linalg.norm(fe.forcing(t))
            assert norm <= C * (t - hist.t0 + eta) ** (-alpha) + 1e-8

    @pytest.mark.parametrize(
        "hist",
        [
            TruncatedSinusoid(amplitude=[1.0]),
            PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0),
            sampled_sine(),
        ],
        ids=["sinusoid", "ramp", "sampled"],
    )
    def test_simple_bound(self, hist):
        # bounded histories also satisfy ||F(t)|| <= 2||x0||/Gamma(1-a) t^-a
        alpha = 0.5
        fe = ForcingEvaluator(hist, alpha)
        cap = 2.0 * hist.norm_inf() / gamma(1.0 - alpha)
        for t in np.arange(0.5, 50.01, 0.5):
            norm = np.linalg.norm(fe.forcing(t))
            assert norm <= cap * t ** (-alpha) + 1e-8

    def test_continuity(self):
        fe = ForcingEvaluator(TruncatedSinusoid(amplitude=[1.0]), 0.5)
        for t in (0.0, 1.3):
            diffs = [
                abs(fe.forcing(t + h)[0] - fe.forcing(t)[0])
                for h in (1e-2, 1e-3, 1e-4)
            ]
            assert diffs[0] > diffs[1] > diffs[2]


class TestParseHistory:
    def test_all_kinds(self):
        docs = [
            {"kind": "constant", "value": [1.0], "t0": 0.0},
            {
                "kind": "sinusoid",
                "amplitude": [2.0],
                "phase": 0.7,
                "frequency": 3.0,
                "t0": -0.5,
            },
            {"kind": "exp_growth", "rate": 1.0, "coefficient": [1.0]},
            {"kind": "ramp", "far_value": [1.0], "ramp_start": -1.0},
            {
                "kind": "floquet",
                "lambda": {"re": 0.2, "im": 0.0},
                "omega": 1.0,
                "coeffs": [{"k": 0, "re": [1.0], "im": [0.0]}],
                "t0": 0.0,
            },
            {
                "kind": "sampled",
                "grid": [-2.0, -1.0, 0.0],
                "samples": [[1.0], [0.5], [0.0]],
                "tail_value": [1.0],
            },
        ]
        kinds = [
            Constant,
            TruncatedSinusoid,
            ExpGrowth,
            PiecewiseConstantRamp,
            FloquetForm,
            Sampled,
        ]
        for doc, kind in zip(docs, kinds):
            h = parse_history(doc)
            assert isinstance(h, kind)

    def test_parsed_sinusoid_matches_direct(self):
        doc = {
            "kind": "sinusoid",
            "amplitude": [2.0],
            "phase": 0.7,
            "frequency": 3.0,
            "t0": -0.5,
        }
        h = parse_history(doc)
        fe = ForcingEvaluator(h, 0.6)
        np.testing.assert_allclose(
            fe.forcing(0.8), [SIN_FORCING_GENERAL[0.8]], atol=1e-8
        )

    def test_schema_errors(self):
        for doc in [
            {},
            {"kind": "nope"},
            {"kind": "constant"},
            {"kind": "exp_growth", "rate": "x", "coefficient": [1.0]},
            {"kind": "floquet", "lambda": {"re": 0.2}, "omega": 1.0},
        ]:
            with pytest.raises(SchemaError):
                parse_history(doc)

    def test_semantic_errors_pass_through(self):
        with pytest.raises(UnboundedHistoryError):
            parse_history(
                {"kind": "exp_growth", "rate": -1.0, "coefficient": [1.0]}
            )


class TestEvaluatorConfig:
    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            ForcingEvaluator(Constant(values=[1.0]), 0.0)
        with pytest.raises(DomainError):
            ForcingEvaluator(Constant(values=[1.0]), 1.2)

    def test_method_validation(self):
        with pytest.raises(DomainError):
            ForcingEvaluator(Constant(values=[1.0]), 0.5, method="magic")

    def test_tail_split_validation(self):
        h = TruncatedSinusoid(amplitude=[1.0])
        with pytest.raises(DomainError):
            ForcingEvaluator(h, 0.5, tail_split=-0.2)

    def test_pre_t0_rejected(self):
        fe = ForcingEvaluator(Constant(values=[1.0]), 0.5)
        with pytest.raises(DomainError):
            fe.forcing(-0.5)
