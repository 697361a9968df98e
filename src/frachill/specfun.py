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

  scalar or array, on one path for every z: the inverse Laplace transform
  at t = 1 of s^{alpha-beta} / (s^alpha - z) by the trapezoidal rule on a
  fixed hyperbola around the branch cut of s^alpha, with the pole
  z^{1/alpha} and, at large |z|, the leading algebraic terms taken out
  exactly; an array runs through the rule in fixed-size blocks.
"""

from __future__ import annotations

import math

import numpy as np

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

# Weideman-Trefethen parameters of the hyperbola s(u) = mu (1 + sin(iu - delta))
# for the inverse Laplace transform at the single time t = 1.  At N = 20
# nodes a side the discretisation error is already below rounding, and a
# larger N only adds rounding through the factor e^{mu (1 - sin delta)}
# that the nodes near u = 0 carry.
_ML_N = 20
_ML_H = 1.0818 / _ML_N
_ML_MU = 4.4921 * _ML_N
_ML_DELTA = 1.1721
# algebraic terms taken out of the integrand once |z| > 2 |s|^alpha on every
# node that carries weight (Re s >= 0, where |e^s| >= 1)
_ML_TERMS = 4


def _hyperbola(offset: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s, log s and weights e^s h s'(u) / (2 pi i) of the trapezoidal
    rule on the hyperbola at u = +-(k + offset) h, k = 0..N.

    The nodes with u < 0 are the conjugates of those with u > 0 and fill
    the second half of each array; a node at u = 0, which this lists
    twice, carries half its weight each time.
    """
    u = _ML_H * (np.arange(_ML_N + 1) + offset)
    sd, cd = math.sin(_ML_DELTA), math.cos(_ML_DELTA)
    s = _ML_MU * ((1.0 - sd * np.cosh(u)) + 1j * cd * np.sinh(u))
    w = _ML_H * _ML_MU / (2.0 * math.pi) * (cd * np.cosh(u) + 1j * sd * np.sinh(u))
    w[u == 0.0] *= 0.5
    s = np.concatenate([s, s.conj()])
    w = np.concatenate([w, w.conj()]) * np.exp(s)
    return s, np.log(s), w


# two interlaced node sets; a pole on or next to a node of one set is half a
# step from the nodes of the other
_ML_NODES = (_hyperbola(0.0), _hyperbola(0.5))
_ML_S_WEIGHTED = max(float(np.max(np.abs(s[s.real >= 0.0]))) for s, _, _ in _ML_NODES)
# elements per block of an array call: a block's node terms, 42 complex
# numbers an element, stay a few megabytes
_ML_CHUNK = 4096


def mittag_leffler(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function

        E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta).

    ``z`` is a scalar or an array: a scalar gives a Python complex, an
    array a complex array of the same shape.  Requires 0 < alpha <= 1,
    0 < beta <= 5 and every z finite with |z| <= 1e6; one element
    outside that raises :class:`DomainError` for the whole call.  The
    value is the inverse Laplace transform at t = 1 of
    F(s) = s^{alpha-beta} / (s^alpha - z), by the trapezoidal rule on a
    fixed hyperbola around the branch cut of s^alpha (Weideman and
    Trefethen 2007; Garrappa 2015).  Each element runs the same rule;
    two terms are taken out of F exactly:

    * the pole s* = z^{1/alpha}, present when |Arg z| < alpha pi, with
      residue term R e^{s*}, R = s*^{1-beta} / alpha, when |s*| >= 1
      (closer to the origin the subtraction itself would cancel);
    * the algebraic terms -sum_{k=1}^{4} z^{-k} / Gamma(beta - alpha k)
      when |z| exceeds twice the largest |s|^alpha over the nodes that
      carry weight (Re s >= 0, where |e^s| >= 1), which leaves
      (s^alpha / z)^4 F and keeps the relative accuracy of the
      algebraically decaying values.

    Against mpmath the error is at most about 1.3e-12, absolute where
    |E| <= 1 and relative above, except that a large value whose pole
    s* is far out loses about |s*| * 1e-15 relative (E is that badly
    conditioned there: a relative change eps in z moves it by
    |s*| eps / alpha).  A value beyond double precision is
    ``complex(inf, 0)``.  No :class:`AccuracyError` is raised.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler requires 0 < alpha <= 1, got {alpha}")
    if not (0.0 < beta <= 5.0):
        raise DomainError(f"mittag_leffler requires 0 < beta <= 5, got {beta}")
    zc = np.asarray(z, dtype=complex)
    bad = zc[~(np.abs(zc) <= 1e6)]
    if bad.size:
        raise DomainError(f"mittag_leffler requires finite z, |z| <= 1e6, got {bad[0]}")

    # per node, hoisted out of the per-element work: s^alpha, and s^(alpha-beta) w
    # for F, or that times s^(4 alpha) for (s^alpha / z)^4 F less its 1 / z^4
    rule = []
    for nodes, log_s, weights in _ML_NODES:
        s_alpha = np.exp(alpha * log_s)
        numer = np.exp((alpha - beta) * log_s) * weights
        rule.append((nodes, weights, s_alpha, (numer, numer * s_alpha**_ML_TERMS)))
    # 1 / Gamma(beta - alpha k) for k = _ML_TERMS, ..., 1, in Horner order
    algebraic = [reciprocal_gamma(beta - alpha * k) for k in range(_ML_TERMS, 0, -1)]
    out = np.empty(zc.shape, dtype=complex)
    flat, res = zc.ravel(), out.reshape(-1)
    for lo in range(0, flat.size, _ML_CHUNK):
        block = slice(lo, lo + _ML_CHUNK)
        res[block] = _ml_chunk(alpha, beta, flat[block], rule, algebraic)
    res[flat == 0.0] = reciprocal_gamma(beta)
    return out if out.ndim or isinstance(z, np.ndarray) else complex(out)


def _ml_chunk(
    alpha: float, beta: float, z: np.ndarray, rule: list, algebraic: list
) -> np.ndarray:
    """E_{alpha,beta} on a 1-d array z, with the node factors and algebraic
    coefficients that :func:`mittag_leffler` hoists; a zero z is replaced
    by the caller."""
    # the pole s* = z^(1/alpha), with residue R = s*^(1-beta) / alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_z = np.log(z)
        s_star = np.exp(log_z / alpha)
        log_r = (1.0 - beta) / alpha * log_z - math.log(alpha)
        pole = (np.abs(log_z.imag) < alpha * math.pi) & (np.abs(s_star) >= 1.0)
        # R e^{s*}; one beyond double precision makes the value inf below
        value = np.exp(np.where(pole, s_star + log_r, -np.inf))
    pole &= np.isfinite(value)
    # group 2 * (node set) + (algebraic terms out); an element with a pole
    # takes the node set farther from it
    group = (np.abs(z) > 2.0 * _ML_S_WEIGHTED**alpha).astype(np.intp)
    if pole.any():
        far = [np.min(np.abs(nodes - s_star[pole, None]), axis=1) for nodes, *_ in rule]
        group[pole] += 2 * (far[1] > far[0])
    for g in np.flatnonzero(np.bincount(group, minlength=4)):
        nodes, weights, s_alpha, numer = rule[g >> 1]
        idx = np.flatnonzero(group == g)
        zi = z[idx, None]
        terms = numer[g & 1] / (s_alpha - zi)
        if g & 1:
            inv = 1.0 / zi
            tail = 0.0
            for c in algebraic:
                tail = (tail + c) * inv
            value[idx] -= tail[:, 0]
            # out of place: numpy squares a short complex array in place without
            # its fused loop, which ties an element's last bit to the chunk length
            inv = inv * inv
            terms = terms * (inv * inv)
        poled = pole[idx]
        if poled.any():
            p = idx[poled, None]
            terms[poled] -= weights * (np.exp(log_r[p]) / (nodes - s_star[p]))
        # pair each node with its mirror image, so that conjugate z give
        # conjugate sums
        value[idx] += np.sum(terms[:, :_ML_N + 1] + terms[:, _ML_N + 1 :], axis=1)
    value[~np.isfinite(value)] = complex(math.inf, 0.0)
    return value


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
    e = mittag_leffler(alpha, beta, w * scalar)
    out = v @ np.diag(e) @ np.linalg.inv(v)
    if np.isrealobj(a) and np.max(np.abs(out.imag)) <= 1e-9 * max(
        1.0, np.max(np.abs(out.real))
    ):
        return out.real.copy()
    return out
