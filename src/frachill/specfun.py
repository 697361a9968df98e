"""Special functions used throughout the package.

Everything here is double precision.  The three central objects are

* ``gamma`` -- Euler's gamma function on the real line, via a Lanczos-type
  approximation with the reflection formula below 1/2,
* ``upper_incomplete_gamma`` -- Gamma(a, x) for real a > 0 and complex x
  with Re x >= 0, scalar or array, via the lower-gamma power series for
  small ``|x|`` and a modified Lentz continued fraction otherwise; both
  run in one vectorised kernel for the scaled e^x Gamma(a, x) that the
  history forcing terms use directly,
* ``mittag_leffler`` -- the two-parameter function

      E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta),

  evaluated by power series for ``|z| <= 5``, by an asymptotic expansion
  with a sector-dependent exponential term for ``|z| >= 12``, and by a
  branch-cut (collapsed Hankel contour) integral representation in between.

The integral representation used in the intermediate regime: for
0 < alpha <= 1 one deforms the Hankel contour of 1/Gamma onto the negative
real axis, which gives

    E_{alpha,beta}(z) = [residue term if |Arg z| <= alpha*pi]
        + (1/pi) int_0^inf e^{-chi} chi^{alpha-beta}
          * (chi^alpha sin(pi(1-beta)) - z sin(pi(1-beta+alpha)))
            / (chi^{2 alpha} - 2 chi^alpha z cos(alpha pi) + z^2) dchi,

with residue term z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha.  When
beta >= 1 + alpha the integrand is not integrable at chi = 0 and a small
circle around the origin is kept.  Near the sector boundary
``|Arg z| = alpha*pi`` the denominator has a root close to the integration
path; its residue is subtracted analytically so adaptive quadrature only
ever sees a smooth integrand.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad

from .errors import (
    AccuracyError,
    DomainError,
    NotDiagonalizableError,
    PoleError,
)

__all__ = [
    "gamma",
    "reciprocal_gamma",
    "upper_incomplete_gamma",
    "mittag_leffler",
    "ml_matrix",
]


# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy of the
# resulting gamma is around 1e-14 on [0.05, 50], well inside the 1e-12
# contract.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _lanczos_sum(x: float) -> float:
    s = _LANCZOS_C[0]
    for i in range(1, 9):
        s += _LANCZOS_C[i] / (x + i)
    return s


def gamma(x: float) -> float:
    """Gamma function for real ``x``, poles rejected.

    Raises :class:`PoleError` at 0, -1, -2, ...  Overflows to ``inf``
    for ``x`` beyond about 171.6.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    try:
        return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(z)
    except OverflowError:
        return math.inf


def reciprocal_gamma(x: float) -> float:
    """1 / Gamma(x) for real ``x``; returns 0.0 at the poles of Gamma.

    The zero return at non-positive integers is what makes truncated
    asymptotic series with coefficients 1/Gamma(beta - alpha k) work
    without special-casing.
    """
    x = float(x)
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        return 0.0
    if x < 0.5:
        return math.sin(math.pi * x) * gamma(1.0 - x) / math.pi
    g = gamma(x)
    return 0.0 if math.isinf(g) else 1.0 / g


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------

def _upper_gamma_scaled(a: float, x: np.ndarray) -> np.ndarray:
    """e^x Gamma(a, x) elementwise, for a > 0 and complex x with Re x >= 0.

    For |x| < a + 2.5, Gamma(a) minus the lower function, whose series
    is x^a e^{-x} sum_n x^n / (a (a+1)...(a+n)).  Otherwise the modified
    Lentz evaluation of the continued fraction
        Gamma(a,x) = e^{-x} x^a / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(...))),
    which gives x^a h with no exponential at all, so the scaled value
    stays finite where e^x overflows.  Each point leaves the Lentz loop
    as soon as it has converged.
    """
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    flat = x.ravel()
    res = out.reshape(-1)
    small = np.abs(flat) < a + 2.5

    xs = flat[small]
    term = np.full(xs.shape, 1.0 / a, dtype=complex)
    total = term.copy()
    for n in range(1, 400):
        term = term * xs / (a + n)
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    else:
        raise AccuracyError("incomplete gamma series did not converge")
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(xs == 0, 0.0, np.exp(a * np.log(xs)))
    res[small] = np.exp(xs) * gamma(a) - power * total

    idx = np.flatnonzero(~small)
    xl = flat[idx]
    tiny = 1e-300
    b = xl + 1.0 - a
    c = np.full(xl.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while idx.size:
        i += 1
        if i == 800:
            raise AccuracyError("incomplete gamma continued fraction did not converge")
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        c = b + an / c
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            res[idx[done]] = np.exp(a * np.log(xl[done])) * h[done]
            keep = ~done
            idx, xl, b, c, d, h = idx[keep], xl[keep], b[keep], c[keep], d[keep], h[keep]
    return out


def upper_incomplete_gamma(a: float, x):
    """Upper incomplete gamma Gamma(a, x) = int_x^inf s^{a-1} e^{-s} ds.

    ``a`` must be a positive real; ``x`` (a scalar or an array) may be
    real nonnegative or complex with Re x >= 0 (the contour is rotated
    onto the ray through ``x``, which is admissible in the closed right
    half plane).  A scalar gives a scalar, and real input a real result.
    """
    a = float(a)
    if not (a > 0.0):
        raise DomainError(f"upper_incomplete_gamma requires a > 0, got {a}")
    xa = np.asarray(x)
    xc = xa.astype(complex)
    if np.any(xc.real < 0.0):
        raise DomainError(
            f"upper_incomplete_gamma requires Re x >= 0, got {x!r}"
        )
    out = np.exp(-xc) * _upper_gamma_scaled(a, xc)
    if not np.iscomplexobj(xa):
        out = out.real
    return out[()]


# alias kept only for the benchmark tracer, which times this name:
# bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_it
# asserts that every traced name exists
upper_incomplete_gamma_vec = upper_incomplete_gamma


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

_ML_TOL = 1e-9
_SERIES_RADIUS = 5.0
_ASYMPTOTIC_RADIUS = 12.0
_SERIES_MAX_TERMS = 200


def _ml_series(alpha: float, beta: float, z: complex):
    """Kahan-compensated power series; returns (value, converged)."""
    total = complex(reciprocal_gamma(beta))
    comp = 0.0 + 0.0j
    power = 1.0 + 0.0j
    prev = abs(total)
    peak = prev
    for k in range(1, _SERIES_MAX_TERMS + 1):
        power *= z
        term = power * reciprocal_gamma(alpha * k + beta)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag <= 1e-16 * abs(total) and mag <= prev:
            # cancellation leaves roundoff of order peak * eps in the sum;
            # reject the result when that exceeds the accuracy target
            if peak * 1e-14 > _ML_TOL * max(1.0, abs(total)):
                return total, False
            return total, True
        prev = mag
    return total, False


def _ml_exponential_term(alpha: float, beta: float, z: complex) -> complex:
    """z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha, or complex(inf, 0) once
    it overflows double precision."""
    log_z = cmath.log(z)
    try:
        return (
            cmath.exp(cmath.exp(log_z / alpha))
            * cmath.exp((1.0 - beta) / alpha * log_z)
            / alpha
        )
    except OverflowError:
        return complex(math.inf, 0.0)


def _ml_asymptotic(alpha: float, beta: float, z: complex):
    """Large-|z| expansion; returns (value, error_estimate).

    The algebraic part is - sum_{k>=1} z^{-k} / Gamma(beta - alpha k),
    summed to its smallest term.  The exponential term
    z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha is present exactly when
    |Arg z| <= alpha*pi, i.e. when the pole of the Hankel integrand lies
    on the principal sheet.
    """
    theta = abs(cmath.phase(z))
    total = 0.0 + 0.0j
    inv = 1.0 / z
    power = 1.0 + 0.0j
    prev = math.inf
    smallest = math.inf
    zero_run = 0
    for k in range(1, 300):
        power *= inv
        term = power * reciprocal_gamma(beta - alpha * k)
        mag = abs(term)
        if mag == 0.0:
            # 1/Gamma pole: the term vanishes but says nothing about the
            # size of later terms, so it must not act as a running minimum
            zero_run += 1
            if zero_run >= 8:
                smallest = 0.0
                break
            continue
        zero_run = 0
        if mag > prev:
            smallest = prev
            break
        total -= term
        prev = mag
        smallest = min(smallest, mag)
        if mag <= 1e-17:
            break
    value = total
    if theta <= alpha * math.pi + 1e-14:
        value = value + _ml_exponential_term(alpha, beta, z)
    return value, smallest


def _ml_integral(alpha: float, beta: float, z: complex) -> complex:
    """Branch-cut integral representation (see module docstring)."""
    a, b = alpha, beta
    theta = cmath.phase(z)
    delta = abs(theta) - a * math.pi
    if abs(delta) <= 1e-13:
        # exactly on the sector boundary: treat as just inside, which is the
        # two-sided limit of the continuous function
        delta = -1e-13
    inside = delta < 0.0

    s1 = math.sin(math.pi * (1.0 - b))
    s2 = math.sin(math.pi * (1.0 - b + a))
    c1 = math.cos(a * math.pi)

    def ray(chi: float) -> complex:
        ca = chi ** a
        num = ca * s1 - z * s2
        den = ca * ca - 2.0 * ca * z * c1 + z * z
        return math.exp(-chi) * chi ** (a - b) * num / (math.pi * den)

    def quad_c(f, lo, hi, **kw) -> complex:
        re = quad(lambda t: f(t).real, lo, hi, epsabs=1e-13, epsrel=1e-11,
                  limit=400, **kw)[0]
        if z.imag == 0.0 and abs(delta) > 1e-10:
            return complex(re, 0.0)
        im = quad(lambda t: f(t).imag, lo, hi, epsabs=1e-13, epsrel=1e-11,
                  limit=400, **kw)[0]
        return complex(re, im)

    result = 0.0 + 0.0j
    if inside:
        result = _ml_exponential_term(a, b, z)
        if cmath.isinf(result):
            return result

    # small circle around the origin, needed only when chi^{a-b} is not
    # integrable at 0
    eps = 0.0
    if b >= 1.0 + a - 1e-12:
        eps = 0.5

        def circle(phi: float) -> complex:
            u = eps * cmath.exp(1j * phi)
            return (
                eps ** (1.0 + a - b)
                * cmath.exp(u)
                * cmath.exp(1j * phi * (1.0 + a - b))
                / (2.0 * math.pi * (eps ** a * cmath.exp(1j * a * phi) - z))
            )

        result += quad_c(circle, -math.pi, math.pi)

    chi_star = abs(z) ** (1.0 / a)
    cutoff = max(50.0, min(chi_star, 1e8) + 40.0) if chi_star < 700.0 else 60.0

    # the denominator roots sit at chi^a = z e^{+-i a pi}; when either root
    # comes close to the integration path, subtract its simple pole there and
    # integrate the subtracted part analytically.  Near the sector boundary
    # |theta| ~ a pi one root is close; near the negative axis with a close
    # to 1 both conjugate roots are.
    poles = []
    if chi_star < 45.0:
        for sign in (1.0, -1.0):
            d = theta + sign * a * math.pi
            d = math.remainder(d, 2.0 * math.pi)
            if abs(d) <= 1e-13:
                # root exactly on the path: move it to the side consistent
                # with the residue bookkeeping above (two-sided limit)
                d = -1e-13 if theta >= 0.0 else 1e-13
            if abs(d) < 0.05:
                chi_p = chi_star * cmath.exp(1j * d / a)
                ca_p = chi_p ** a
                dden = (
                    2.0 * a * chi_p ** (2.0 * a - 1.0)
                    - 2.0 * a * chi_p ** (a - 1.0) * z * c1
                )
                res_p = (
                    cmath.exp(-chi_p)
                    * chi_p ** (a - b)
                    * (ca_p * s1 - z * s2)
                    / (math.pi * dden)
                )
                poles.append((chi_p, res_p))

    def mapped(v: float, m: int) -> complex:
        # substitution chi = v^m; the powers chi^{a-b} (near-singular) and
        # v^{m-1} (Jacobian) combine into one positive power of v, which
        # avoids overflow when chi underflows toward zero
        chi = v ** m
        ca = chi ** a
        num = ca * s1 - z * s2
        den = ca * ca - 2.0 * ca * z * c1 + z * z
        w = v ** (m * (1.0 + a - b) - 1.0)
        return math.exp(-chi) * m * w * num / (math.pi * den)

    if not poles:
        lo = eps
        if b < 1.0 + a - 1e-12 and a - b < 0.0:
            # endpoint singularity chi^{a-b} with -1 < a-b < 0: map it away
            m = max(2, math.ceil(2.0 / (1.0 + a - b)))
            result += quad_c(lambda v: mapped(v, m), 0.0, 1.0)
            lo = 1.0
        pts = [chi_star] if lo < chi_star < cutoff else None
        result += quad_c(ray, lo, cutoff, points=pts)
    else:
        # keep the window start strictly positive so the endpoint treatment
        # below still owns the chi -> 0 singularity when chi_star < 1.  The
        # window is lopsided because the 21-point rule has a node at its
        # midpoint, and on the sector boundary the pole sits at chi_star.
        w1 = max(eps, chi_star - 1.0, 0.25 * chi_star)
        w2 = chi_star + 1.5

        def smooth(chi: float) -> complex:
            out = ray(chi)
            for chi_p, res_p in poles:
                out -= res_p / (chi - chi_p)
            return out

        lo = eps
        if b < 1.0 + a - 1e-12 and a - b < 0.0:
            m = max(2, math.ceil(2.0 / (1.0 + a - b)))
            hi_v = min(1.0, w1) ** (1.0 / m)
            result += quad_c(lambda v: mapped(v, m), 0.0, hi_v)
            lo = min(1.0, w1)
        if w1 > lo:
            result += quad_c(ray, lo, w1)
        result += quad_c(smooth, w1, w2)
        for chi_p, res_p in poles:
            result += res_p * cmath.log((w2 - chi_p) / (w1 - chi_p))
        if cutoff > w2:
            result += quad_c(ray, w2, cutoff)

    return result


def _e1b_integral(beta: float, z: complex) -> complex:
    """E_{1,beta}(z) by quadrature, for moderate |z| where neither the
    series (cancellation) nor the algebraic expansion (floor above target)
    reaches the accuracy goal.

    Uses int_0^1 e^{z(1-t)} t^{beta-2} dt = Gamma(beta-1) E_{1,beta}(z),
    substituting u = t^{beta-1} to absorb the endpoint singularity; for
    beta <= 1 the result is lifted with E_{1,b}(z) = z E_{1,b+1}(z) + 1/G(b).
    """
    if beta <= 1.0:
        return z * _e1b_integral(beta + 1.0, z) + complex(reciprocal_gamma(beta))

    if beta >= 2.0:
        # t^{beta-2} is already bounded
        def f(t: float) -> complex:
            return cmath.exp(z * (1.0 - t)) * t ** (beta - 2.0)

        scale = complex(reciprocal_gamma(beta - 1.0))
        brk = 0.5
    else:
        p = 1.0 / (beta - 1.0)

        def f(u: float) -> complex:
            return cmath.exp(z * (1.0 - u ** p))

        scale = complex(reciprocal_gamma(beta))
        brk = math.exp(-1.0 / p)
    re = quad(lambda t: f(t).real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11,
              limit=400, points=[brk])[0]
    im = quad(lambda t: f(t).imag, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11,
              limit=400, points=[brk])[0]
    return complex(re, im) * scale


def _ml_classical(beta: float, z: complex) -> complex:
    """E_{1,beta}(z), where the branch-cut integral degenerates.

    For Re z < 0 the direct series cancels badly, so use the confluent
    identity E_{1,b}(z) = e^z M(b-1, b, -z) / Gamma(b), whose series has
    no growing-then-cancelling terms on that half plane.
    """
    if beta == 1.0:
        try:
            return cmath.exp(z)
        except OverflowError:
            return complex(math.inf, 0.0)

    if abs(z) >= _ASYMPTOTIC_RADIUS:
        value, err = _ml_asymptotic(1.0, beta, z)
        scale = max(1.0, abs(value)) if np.isfinite(abs(value)) else math.inf
        # the smallest-term estimate can understate truncation error by a
        # small factor, so demand an order of magnitude of headroom
        if err <= 0.1 * _ML_TOL * scale or abs(z.real) > 700.0:
            return value
        return _e1b_integral(beta, z)

    if z.real >= 0.0:
        total = complex(reciprocal_gamma(beta))
        comp = 0.0 + 0.0j
        power = 1.0 + 0.0j
        for k in range(1, 400):
            power *= z
            term = power * reciprocal_gamma(k + beta)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if abs(term) <= 1e-17 * abs(total):
                break
        return total

    w = -z
    c = 1.0 + 0.0j
    m_total = c
    for k in range(400):
        c *= w * (beta - 1.0 + k) / ((beta + k) * (k + 1.0))
        m_total += c
        if abs(c) <= 1e-17 * abs(m_total):
            break
    return cmath.exp(z) * m_total * reciprocal_gamma(beta)


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Requires 0 < alpha <= 1, 0 < beta <= 5 and a finite z with
    |z| <= 1e6.  Target absolute-or-relative accuracy is 1e-9;
    :class:`AccuracyError` is raised if no evaluation regime can reach it.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler requires 0 < alpha <= 1, got {alpha}")
    if not (0.0 < beta <= 5.0):
        raise DomainError(f"mittag_leffler requires 0 < beta <= 5, got {beta}")
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise DomainError(f"mittag_leffler requires a finite z, got {zc}")
    az = abs(zc)
    if az > 1e6:
        raise DomainError(f"mittag_leffler requires |z| <= 1e6, got {az:g}")

    if az == 0.0:
        return complex(reciprocal_gamma(beta))

    if alpha >= 1.0 - 1e-12:
        return _ml_classical(beta, zc)

    if az <= _SERIES_RADIUS:
        value, ok = _ml_series(alpha, beta, zc)
        if ok:
            return value
        # small alpha near |z| = 5: the 200-term cap is not enough, but the
        # integral representation covers this region as well
        if az >= 0.9:
            return _ml_integral(alpha, beta, zc)
        raise AccuracyError(
            f"Mittag-Leffler series did not converge for alpha={alpha}, "
            f"beta={beta}, |z|={az:g}"
        )

    if az >= _ASYMPTOTIC_RADIUS:
        value, err = _ml_asymptotic(alpha, beta, zc)
        scale = max(1.0, abs(value)) if np.isfinite(abs(value)) else math.inf
        if err <= 0.1 * _ML_TOL * scale:
            return value
        if abs(zc) ** (1.0 / alpha) > 700.0:
            # the exponential term overflows double precision; the asymptotic
            # value (possibly inf) is the best representable answer
            return value
        return _ml_integral(alpha, beta, zc)

    return _ml_integral(alpha, beta, zc)


def ml_matrix(
    alpha: float, beta: float, a: np.ndarray, scalar: float = 1.0
) -> np.ndarray:
    """Matrix Mittag-Leffler E_{alpha,beta}(A * scalar) via eigendecomposition.

    Raises :class:`NotDiagonalizableError` when the eigenvector matrix has
    condition number above 1e8, since the spectral formula is then
    untrustworthy in double precision.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"ml_matrix expects a square matrix, got {a.shape}")
    w, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond >= 1e8:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition {cond:.3g} too large for the "
            "spectral Mittag-Leffler formula"
        )
    e = np.array([mittag_leffler(alpha, beta, wi * scalar) for wi in w])
    out = v @ np.diag(e) @ np.linalg.inv(v)
    if np.isrealobj(a) and np.max(np.abs(out.imag)) <= 1e-9 * max(
        1.0, np.max(np.abs(out.real))
    ):
        return out.real.copy()
    return out
