"""Tests for gamma, incomplete gamma and Mittag-Leffler evaluation.

Reference values were frozen from independent oracles: mpmath gamma /
gammainc at 30 significant digits, and a compensated extended-precision
power series for the Mittag-Leffler function whose gamma arguments are
formed in working precision (so that heavy cancellation cannot leak
double-rounding noise into the reference).
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

from frachill.errors import DomainError, NotDiagonalizableError, PoleError
from frachill.specfun import (
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


# frozen extended-precision series oracle, one point per evaluation regime
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


@pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
def test_ml_against_mpmath_series(alpha):
    # every regime up to |z| = 11: series, branch-cut integral (also on the
    # sector boundary |arg z| = alpha pi) and asymptotic expansion
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
    # sector boundary arg z = pi/2, where at |z| = 4 a quadrature node used
    # to land exactly on the pole chi = 16
    for r in (0.5, 3.0, 4.0, 6.0, 11.0):
        for theta in (0.0, 0.9, math.pi / 2, -math.pi / 2, 2.5, math.pi):
            z = r * cmath.exp(1j * theta)
            with mp.workdps(40):
                zz = mp.mpc(z.real, z.imag)
                ref = mp.exp(zz * zz) * mp.erfc(-zz)
            assert _ml_close(mittag_leffler(0.5, 1.0, z), ref), z


@pytest.mark.parametrize("z", [8.0, 10.0, 11.9, 13.0])
def test_ml_overflow_returns_inf(z):
    # E_{0.3,1}(z) ~ exp(z^(10/3)) / 0.3 is beyond double precision from
    # z ~ 7.2; the integral (|z| < 12) and asymptotic branches both report it
    # as inf, like the alpha = 1 exponential
    assert mittag_leffler(0.3, 1.0, z) == complex(math.inf, 0.0)


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


def test_ml_domain_errors():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 6.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0, 2e6)


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
