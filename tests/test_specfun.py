"""Tests for gamma, incomplete gamma and Mittag-Leffler evaluation.

Reference values were frozen from independent oracles: mpmath gamma /
gammainc at 30 significant digits, and a compensated extended-precision
power series for the Mittag-Leffler function whose gamma arguments are
formed in working precision (so that heavy cancellation cannot leak
double-rounding noise into the reference).
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

import frachill
from frachill.errors import DomainError, NotDiagonalizableError, PoleError
from frachill.specfun import (
    _ML_CHUNK,
    _ML_NODES,
    _upper_gamma_scaled,
    gamma,
    ml_matrix,
    mittag_leffler,
    reciprocal_gamma,
    upper_incomplete_gamma,
)

SQRT_PI = 1.7724538509055160


def test_gamma_known_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
    assert gamma(1.5) == pytest.approx(0.5 * SQRT_PI, rel=1e-13)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma(7.7) == pytest.approx(2769.8303623273137, rel=1e-12)


def test_gamma_negative_non_integer():
    assert gamma(-2.3) == pytest.approx(-1.4471073942559173, rel=1e-12)


def test_gamma_recurrence_sweep():
    # Gamma(x+1) = x Gamma(x) across the supported range
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.05, 49.0, size=200):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)


def test_gamma_pole_rejected():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma(x)


def test_reciprocal_gamma_zero_at_poles():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(2.5) == pytest.approx(1.0 / gamma(2.5), rel=1e-13)


def test_upper_incomplete_gamma_known_values():
    assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(SQRT_PI, rel=1e-12)
    assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )
    assert upper_incomplete_gamma(0.5, 1.0) == pytest.approx(
        0.27880558528066198, rel=1e-11
    )
    assert upper_incomplete_gamma(1.3, 4.2) == pytest.approx(
        0.024508113326821152, rel=1e-11
    )


def test_upper_incomplete_gamma_complex_arguments():
    got = upper_incomplete_gamma(0.7, 2j)
    want = -0.54899362878195504 - 0.54865957595853374j
    assert abs(got - want) <= 1e-10 * abs(want)
    got = upper_incomplete_gamma(0.5, 3 - 4j)
    want = -0.0063920760517665408 - 0.019956068593141613j
    assert abs(got - want) <= 1e-10


def _mp_upper_gamma(a, z):
    with mp.workdps(30):
        return mp.gammainc(mp.mpf(a), mp.mpc(z.real, z.imag))


def _rel_err(got, ref):
    return float(abs(mp.mpc(complex(got)) - ref) / abs(ref))


def test_upper_incomplete_gamma_vectorized_matches_scalar():
    # an array argument is evaluated elementwise, against the mpmath oracle
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 20.0, size=64) + 1j * rng.uniform(-20.0, 20.0, size=64)
    for a in (0.3, 0.5, 1.0, 1.9):
        vec = upper_incomplete_gamma(a, x)
        assert vec.shape == x.shape
        worst = max(_rel_err(v, _mp_upper_gamma(a, xi)) for v, xi in zip(vec, x))
        assert worst <= 1e-12


def test_upper_incomplete_gamma_scalar_and_real_in_out():
    assert isinstance(upper_incomplete_gamma(0.5, 2.0), float)
    assert isinstance(upper_incomplete_gamma(0.5, 2.0 + 1.0j), complex)
    assert upper_incomplete_gamma(0.5, np.array([0.0, 2.0])).dtype == np.float64
    assert upper_incomplete_gamma(0.5, np.zeros((0,), dtype=complex)).shape == (0,)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.5, np.array([1.0, -1.0 + 1.0j]))
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.0, 1.0)


# rays of the closed right half plane and radii up to 1e4
_GAMMA_RAYS = (0.0, 0.7, 1.2, math.pi / 2, -1.5, -math.pi / 2)
_GAMMA_RADII = np.concatenate([[0.0, 0.3], np.linspace(1.0, 7.0, 9), np.logspace(1, 4, 7)])


@pytest.mark.parametrize("a", [0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
def test_upper_incomplete_gamma_against_mpmath(a):
    # at a = 0.01 the series branch cancels Gamma(a) ~ 100 against the lower
    # function just below the switch to the continued fraction (|z| ~ 2.5),
    # which costs about one digit there (measured 9.6e-13); the bound is
    # loosened for that one value, not hidden
    tol = 5e-12 if a < 0.05 else 1e-12
    zs = np.array([r * cmath.exp(1j * th) for th in _GAMMA_RAYS for r in _GAMMA_RADII])
    zs = np.where(zs.real < 0.0, 1j * zs.imag, zs)  # cos(pi/2) rounding
    got = upper_incomplete_gamma(a, zs)
    scaled = _upper_gamma_scaled(a, zs)
    for g, s, z in zip(got, scaled, zs):
        ref = _mp_upper_gamma(a, z)
        # e^z Gamma(a, z) is the form the forcing terms use; it stays
        # finite and accurate where Gamma itself underflows
        with mp.workdps(30):
            ref_scaled = mp.exp(mp.mpc(z.real, z.imag)) * ref
        assert _rel_err(s, ref_scaled) <= tol, z
        if abs(ref) > 1e-290:
            assert _rel_err(g, ref) <= tol, z


def test_ml_at_zero():
    assert mittag_leffler(0.5, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert mittag_leffler(0.5, 0.5, 0.0) == pytest.approx(
        1.0 / SQRT_PI, rel=1e-13
    )


def test_ml_reduces_to_exp():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-20.0, 20.0, size=(40, 2))
    for re, im in pts:
        z = complex(re, im * 0.6)
        want = cmath.exp(z)
        got = mittag_leffler(1.0, 1.0, z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# frozen extended-precision series oracle: |z| from 1.5 to 30, alpha from
# 0.3 to 1, inside and outside the sector |arg z| < alpha pi
ML_ORACLE = {
    (0.5, 1.0, -3.0 + 0.0j): 0.17900115118138995 + 0.0j,
    (0.3, 1.0, 3.0j): 0.051918367383206693 + 0.25171686755542566j,
    (0.5, 0.5, 1.5 + 0.0j): 28.545018967941857 + 0.0j,
    (0.7, 1.7, 7.0j): 0.0067701991052598402 + 0.14364789639387852j,
    (0.5, 1.0, 7.0j): 5.2428856633634639e-22 + 0.081447508065002968j,
    (0.3, 0.3, 4.9j): -0.0094306001217677809 + 0.0023669689950999277j,
    (0.95, 2.5, -8.0 + 2.0j): 0.12326420965431093 + 0.028066001822958964j,
    (0.5, 1.0, -30.0 + 0.0j): 0.018795888861416751 + 0.0j,
    (1.0, 3.5, -13.0 + 0.0j): 0.051456933884291955 + 0.0j,
    (0.7, 1.0, 11.0 + 0.0j): 31997312058434.254 + 0.0j,
}


@pytest.mark.parametrize("key", sorted(ML_ORACLE, key=repr))
def test_ml_against_frozen_oracle(key):
    alpha, beta, z = key
    want = ML_ORACLE[key]
    got = mittag_leffler(alpha, beta, z)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_ml_half_alpha_matches_faddeeva():
    # E_{1/2,1}(z) = exp(z^2) erfc(-z) = wofz(-iz)
    rng = np.random.default_rng(19)
    pts = rng.uniform(-2.5, 2.5, size=(50, 2))
    for re, im in pts:
        z = complex(re, im)
        want = wofz(-1j * z)
        got = mittag_leffler(0.5, 1.0, z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _mp_ml(alpha, beta, z):
    """E_{alpha,beta}(z) by its power series in enough digits to absorb the
    cancellation, about |z|^(1/alpha) / ln 10 of them.  alpha and beta enter
    as mpf, so alpha * k is formed exactly: the float product would carry
    its rounding into the cancelling terms."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    digits = int(abs(z) ** (1.0 / alpha) / math.log(10.0)) + 30
    with mp.workdps(digits):
        zz = mp.mpc(z.real, z.imag)
        total, power, k = mp.mpf(0), mp.mpf(1), 0
        floor = mp.mpf(10) ** (-25)
        while True:
            term = power * mp.rgamma(a * k + b)
            total += term
            if a * k > abs(zz) ** (1 / a) + 10 and abs(term) < floor:
                return mp.mpc(total)
            power *= zz
            k += 1


def _ml_close(got, ref):
    return abs(mp.mpc(got) - ref) <= 1e-9 * max(1, abs(ref))


def _mp_ml_oracle(alpha, beta, z):
    """E_{alpha,beta}(z) in extended precision at any |z| <= 1e6: the
    series while |z|^(1/alpha) <= 150, else the large-|z| expansion

        [z^((1-beta)/alpha) exp(z^(1/alpha)) / alpha if |arg z| < alpha pi]
        - sum_{k>=1} z^-k / Gamma(beta - alpha k),

    whose truncation error is then far below double precision.  The sum
    stops once |1/Gamma(x)| <= Gamma(1-x) / pi, x = beta - alpha k < 0,
    bounds the next term below 1e-35 of the total."""
    if abs(z) ** (1.0 / alpha) <= 150.0:
        return _mp_ml(alpha, beta, complex(z))
    a, b = mp.mpf(alpha), mp.mpf(beta)
    with mp.workdps(40):
        zz = mp.mpc(z.real, z.imag)
        total = mp.mpc(0)
        if abs(mp.arg(zz)) < a * mp.pi:
            root = zz ** (1 / a)
            total += root ** (1 - b) * mp.exp(root) / a
        k = 0
        while True:
            k += 1
            total -= zz ** (-k) * mp.rgamma(b - a * k)
            bound = mp.gamma(1 - b + a * (k + 1)) / mp.pi / abs(zz) ** (k + 1)
            if a * k > b and bound <= mp.mpf(10) ** -35 * max(1, abs(total)):
                return total


def _ml_error(got, ref):
    """Absolute error where |E| <= 1, relative above; an inf result is
    exact when the true value is beyond double precision."""
    if abs(ref) > np.finfo(float).max:
        return 0.0 if got == complex(math.inf, 0.0) else math.inf
    return float(abs(mp.mpc(got) - ref) / max(1, abs(ref)))


@pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
def test_ml_against_mpmath_series(alpha):
    # out to |z| = 11, inside and outside the sector |arg z| < alpha pi and
    # on its boundary
    for beta in (0.6, 1.0, 2.5):
        for r in (3.0, 7.0, 11.0):
            for theta in (0.0, 1.0, alpha * math.pi, -alpha * math.pi, math.pi):
                z = r * cmath.exp(1j * theta)
                got = mittag_leffler(alpha, beta, z)
                assert _ml_close(got, _mp_ml(alpha, beta, z)), (beta, z, got)


def test_ml_small_alpha_against_mpmath_series():
    # alpha = 0.3 cancels about |z|^(10/3) / ln 10 digits in the series, so
    # the oracle stays at |z| <= 5.5; further out inside the sector the
    # value overflows (test_ml_overflow_returns_inf)
    for beta, z in (
        (1.0, -5.5),
        (1.0, 5.2j),
        (1.0, 4.0 * cmath.exp(0.3j * math.pi)),
        (0.5, 4.0 * cmath.exp(-0.3j * math.pi)),
        (0.5, 3.0),
        (2.0, -2.0 + 2.0j),
    ):
        got = mittag_leffler(0.3, beta, z)
        assert _ml_close(got, _mp_ml(0.3, beta, complex(z))), (beta, z, got)


def test_ml_half_alpha_against_mpmath_erfc():
    # E_{1/2,1}(z) = exp(z^2) erfc(-z), out to |z| = 11 and across the
    # sector boundary arg z = pi/2
    for r in (0.5, 3.0, 4.0, 6.0, 11.0):
        for theta in (0.0, 0.9, math.pi / 2, -math.pi / 2, 2.5, math.pi):
            z = r * cmath.exp(1j * theta)
            with mp.workdps(40):
                zz = mp.mpc(z.real, z.imag)
                ref = mp.exp(zz * zz) * mp.erfc(-zz)
            assert _ml_close(mittag_leffler(0.5, 1.0, z), ref), z


@pytest.mark.parametrize(
    "alpha,beta,z",
    [pytest.param(0.3, 1.0, z, id=str(z)) for z in (8.0, 10.0, 11.9, 13.0)]
    + [(0.5, 0.1, 26.6), (0.7, 0.2, 100.0 + 1.0j), (1.0, 0.05, 708.5)],
)
def test_ml_overflow_returns_inf(alpha, beta, z):
    # E_{0.3,1}(z) ~ exp(z^(10/3)) / 0.3 is beyond double precision from
    # z ~ 7.2; every overflowing value is reported as inf with a zero
    # imaginary part, like the alpha = 1 exponential
    assert mittag_leffler(alpha, beta, z) == complex(math.inf, 0.0)


def test_ml_near_overflow_stays_finite():
    # E_{1,2}(z) = (e^z - 1) / z: the pole term e^z overflows on its own,
    # but the value 2.33e305 is representable
    want = (mp.exp(mp.mpf(709.7)) - 1) / mp.mpf(709.7)
    got = mittag_leffler(1.0, 2.0, 709.7)
    assert got.imag == 0.0
    assert abs(mp.mpf(got.real) / want - 1) <= 1e-12


def test_ml_conjugate_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(60):
        alpha = rng.uniform(0.25, 1.0)
        beta = rng.uniform(0.3, 3.0)
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        a = mittag_leffler(alpha, beta, z)
        b = mittag_leffler(alpha, beta, z.conjugate())
        assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))


def test_ml_recurrence_in_beta():
    # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        alpha = rng.uniform(0.3, 1.0)
        beta = rng.uniform(0.2, 2.5)
        if alpha + beta > 5.0:
            continue
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        lhs = mittag_leffler(alpha, beta, z)
        rhs = z * mittag_leffler(alpha, alpha + beta, z) + reciprocal_gamma(beta)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        checked += 1


def test_ml_decreasing_on_negative_axis():
    ts = np.arange(0.0, 10.0 + 1e-12, 0.1)
    for alpha in (0.3, 0.5, 0.8):
        vals = [mittag_leffler(alpha, alpha, -t).real for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 0.0 for v in vals)


def test_ml_sweep_against_mpmath():
    # seeded points over the whole domain: alpha in [0.1, 1] with 0.5 and 1
    # itself, beta in (0, 5], |z| from 1e-8 to 1e6, arg z random or on the
    # real axes and the sector boundary |arg z| = alpha pi
    rng = np.random.default_rng(41)
    for i in range(99):
        alpha = (0.5, 1.0, rng.uniform(0.1, 1.0))[i % 3]
        beta = 5.0 - rng.uniform(0.0, 5.0)
        r = 10.0 ** rng.uniform(-8.0, 6.0)
        theta = rng.choice(
            [rng.uniform(-math.pi, math.pi), 0.0, alpha * math.pi,
             -alpha * math.pi, math.pi]
        )
        z = r * cmath.exp(1j * theta)
        got = mittag_leffler(alpha, beta, z)
        err = _ml_error(got, _mp_ml_oracle(alpha, beta, z))
        assert err <= 1e-10, (alpha, beta, z, got, err)


def test_ml_alpha_one_against_hypergeometric():
    # E_{1,beta}(z) = 1F1(1; beta; z) / Gamma(beta), inside |z| < 12
    rng = np.random.default_rng(43)
    for beta in (0.05, 0.5, 1.7, 2.5, 4.2):
        for _ in range(6):
            z = 12.0 * math.sqrt(rng.uniform()) * cmath.exp(
                1j * rng.uniform(-math.pi, math.pi)
            )
            with mp.workdps(30):
                zz = mp.mpc(z.real, z.imag)
                ref = mp.hyp1f1(1, beta, zz) * mp.rgamma(beta)
            got = mittag_leffler(1.0, beta, z)
            assert _ml_error(got, ref) <= 1e-10, (beta, z, got)


def _poles_at_nodes(node_set, alpha):
    """z whose pole z^(1/alpha) lies on a node of one interlaced set, and
    1e-9 away from it, where the subtracted residue cancels the most."""
    nodes = _ML_NODES[node_set][0]
    return [
        cmath.exp(alpha * cmath.log(complex(nodes[k]) + shift))
        for k in (0, 4, 10, -3)
        for shift in (0.0, 1e-9, 1e-9j)
    ]


@pytest.mark.parametrize("node_set", [0, 1])
def test_ml_pole_on_and_next_to_quadrature_nodes(node_set):
    for alpha, beta in ((0.5, 1.0), (0.8, 2.5), (1.0, 0.5)):
        for z in _poles_at_nodes(node_set, alpha):
            got = mittag_leffler(alpha, beta, z)
            err = _ml_error(got, _mp_ml_oracle(alpha, beta, z))
            assert err <= 1e-10, (alpha, beta, z, got, err)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_ml_negative_axis_relative_accuracy(alpha):
    # the variation-of-constants kernel E_{alpha,alpha}(-x) decays like
    # x^-2, so it needs relative, not absolute, accuracy; from x = 100 on
    # the leading algebraic terms are exact and it keeps 1e-12
    for x in np.logspace(-3.0, 5.0, 41):
        ref = _mp_ml_oracle(alpha, alpha, complex(-x))
        got = mittag_leffler(alpha, alpha, -x)
        err = float(abs(mp.mpc(got) - ref) / abs(ref))
        assert err <= (1e-12 if x >= 100.0 else 1e-9), (x, got, err)



@pytest.mark.parametrize(
    "alpha,x", [(0.5, 15.8), (0.7, 35.0), (0.9, 89.0), (0.99, 126.0)]
)
def test_ml_negative_axis_below_the_whole_contour_threshold(alpha, x):
    # |z| here lies below 2 max|s|^alpha over the whole contour (max|s| is
    # about 68) but above it over the nodes that carry weight, Re s >= 0
    # (|s| <= 14.5): the algebraic terms come out, which keeps the
    # relative accuracy of these small values (4e-11 to 9e-9 with them in)
    ref = _mp_ml_oracle(alpha, alpha, complex(-x))
    got = mittag_leffler(alpha, alpha, -x)
    assert float(abs(mp.mpc(got) - ref) / abs(ref)) <= 1e-12, got

def test_ml_domain_errors():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 6.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0, 2e6)


def _assert_array_matches_scalar_calls(alpha, beta, z):
    got = mittag_leffler(alpha, beta, z)
    want = np.array([mittag_leffler(alpha, beta, zk) for zk in z])
    assert got.shape == z.shape and got.dtype == complex
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite]) / np.abs(want[finite])
    assert err.max() <= 1e-15, z[finite][np.argmax(err)]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_ml_array_matches_scalar_calls_on_negative_axis(alpha):
    # the variation-of-constants kernel E_{alpha,alpha}(-x), out to 8e5
    x = np.concatenate(([0.0], np.logspace(-12.0, math.log10(8e5), 800)))
    _assert_array_matches_scalar_calls(alpha, alpha, -x)


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.3, 1.0), (0.5, 1.0), (0.8, 2.5), (0.95, 0.4), (1.0, 0.5), (1.0, 1.0)],
)
def test_ml_array_matches_scalar_calls_in_the_plane(alpha, beta):
    # with and without a pole and the algebraic terms, z = 0, poles on and
    # next to the nodes of each set, and the overflowing pole s* = 800
    rng = np.random.default_rng(int(100 * alpha + 10 * beta))
    r = 10.0 ** rng.uniform(-3.0, 3.0, 600)
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 600))
    poles = _poles_at_nodes(0, alpha) + _poles_at_nodes(1, alpha)
    z = np.concatenate((z, [0.0, 800.0**alpha], poles))
    _assert_array_matches_scalar_calls(alpha, beta, z)
    assert mittag_leffler(alpha, beta, z)[601] == complex(math.inf, 0.0)


def test_ml_array_across_chunks_matches_scalar_calls():
    rng = np.random.default_rng(7)
    n = _ML_CHUNK + 40
    z = rng.uniform(-40.0, 12.0, n) + 1j * rng.uniform(-20.0, 20.0, n)
    _assert_array_matches_scalar_calls(0.7, 1.2, z)


def test_ml_keeps_shapes():
    assert type(mittag_leffler(0.5, 1.0, -1.0)) is complex
    assert type(mittag_leffler(0.5, 1.0, np.float64(-1.0))) is complex
    assert type(mittag_leffler(0.5, 1.0, 0.5 + 1.0j)) is complex
    z = np.array([[-1.0, 0.0, 2.0], [1.0j, -3.0 - 1.0j, 50.0]])
    got = mittag_leffler(0.5, 1.0, z)
    assert got.shape == (2, 3) and got.dtype == complex
    want = mittag_leffler(0.5, 1.0, -3.0 - 1.0j)
    assert got[1, 1] == pytest.approx(want, rel=1e-15)
    zero_d = mittag_leffler(0.5, 1.0, np.array(-1.0))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d == pytest.approx(mittag_leffler(0.5, 1.0, -1.0), rel=1e-15)
    for shape in ((0,), (3, 0)):
        empty = mittag_leffler(0.5, 1.0, np.zeros(shape))
        assert empty.shape == shape and empty.dtype == complex


@pytest.mark.parametrize(
    "bad", [math.nan, complex(1.0, math.nan), math.inf, 2e6, -1.5e6j]
)
def test_ml_one_bad_element_fails_the_call(bad):
    z = np.full(5, -1.0, dtype=complex)
    z[3] = bad
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0, z)


def test_import_loads_no_scipy():
    # scipy serves the tests as a reference only; the package runs on numpy
    code = (
        "import sys, frachill; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(frachill.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_ml_matrix_scalar_consistency():
    a = np.array([[-1.0]])
    got = ml_matrix(0.5, 1.0, a, 4.0)
    want = mittag_leffler(0.5, 1.0, -4.0).real
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(want, rel=1e-12)


def test_ml_matrix_rotation_at_alpha_one():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    got = ml_matrix(1.0, 1.0, a, math.pi)
    want = np.array([[-1.0, 0.0], [0.0, -1.0]])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_ml_matrix_against_series():
    # independent route: matrix power series, valid for small norm
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(-0.6, 0.6, size=(3, 3))
        alpha, beta = 0.6, 1.0
        got = ml_matrix(alpha, beta, a, 1.0)
        acc = np.zeros((3, 3))
        p = np.eye(3)
        for k in range(60):
            acc = acc + p * reciprocal_gamma(alpha * k + beta)
            p = p @ a
        assert np.max(np.abs(got - acc)) <= 1e-10


def test_ml_matrix_rejects_defective():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotDiagonalizableError):
        ml_matrix(0.5, 1.0, jordan, 1.0)
