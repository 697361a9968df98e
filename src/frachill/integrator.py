"""Time integration of fractional initial value problems.

Caputo problems D^alpha x = f(t, x), x(t0) = x0 are stepped with the
fractional Adams-Bashforth-Moulton predictor-corrector (one correction
per step).  Its memory sums over the whole past run through a blocked
FFT convolution in O(N log^2 N) for N steps.  Infinite-history problems
are reduced to Caputo form by moving the forcing term of the initial
condition to the right-hand side.  Scalar LTI problems also have a
variation-of-constants quadrature, whose kernel is an array call of
:func:`frachill.specfun.mittag_leffler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    NonFiniteStateError,
    QuadratureError,
)
from .history import ForcingEvaluator, HistoryFunction, TruncatedSinusoid, forcing_grid
from .specfun import mittag_leffler, reciprocal_gamma
from .system import FractionalOrder, SystemSpec, eval_J

SCHEME_ID = "fracpece"


@dataclass(frozen=True)
class IvpProblem:
    """Caputo initial value problem on [t0, t_end] with uniform step dt.

    The optional forcing evaluator is subtracted from the right-hand
    side, turning an infinite-history problem into a plain Caputo one.
    """

    order: FractionalOrder
    rhs: Callable[[float, np.ndarray], np.ndarray]
    initial: np.ndarray
    t0: float
    t_end: float
    dt: float
    forcing: Optional[ForcingEvaluator] = None

    def __post_init__(self):
        if isinstance(self.order, (int, float)):
            object.__setattr__(self, "order", FractionalOrder(float(self.order)))
        init = np.atleast_1d(np.asarray(self.initial))
        if not np.issubdtype(init.dtype, np.complexfloating):
            init = init.astype(float)
        object.__setattr__(self, "initial", init)
        _check_span(self.t0, self.t_end, self.dt)
        if self.forcing is not None and abs(
            self.forcing.alpha - self.order.alpha
        ) > 1e-12:
            raise DomainError("forcing evaluator order differs from problem order")

    @property
    def alpha(self) -> float:
        return self.order.alpha


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray
    scheme: str
    dt: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def _check_span(t0: float, t_end: float, dt: float) -> None:
    """DomainError unless -inf < t0 < t_end < inf and 0 < dt <= t_end - t0 (NaN fails)."""
    if not -math.inf < t0 < t_end < math.inf:
        raise DomainError(f"need finite t0 < t_end, got t0 = {t0}, t_end = {t_end}")
    if not 0.0 < dt <= t_end - t0:
        raise DomainError(f"dt must lie in (0, t_end - t0], got {dt}")


def _grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    _check_span(t0, t_end, dt)
    steps = int(math.floor((t_end - t0) / dt + 1e-9))
    return t0 + dt * np.arange(steps + 1)


# Base block of the PECE memory sum (see solve_caputo): a row sums the
# columns of its own block directly and gets every older column from an
# FFT square.  64 balances the per-step direct product against the
# per-block transforms.
_BLOCK = 64
# Binomial-series terms for the PECE weights.  The series ratio is at
# most 1/4 (w) or 1/2 (a0) at r = 1, so 64 terms reach far below an ulp.
_SERIES_TERMS = 64


def _horner(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k c[k] y^k."""
    acc = np.full_like(y, c[-1])
    for ck in c[-2::-1]:
        acc *= y
        acc += ck
    return acc


def _pece_weights(
    alpha: float, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PECE weights b_r, w_r, a0_r for r = 0, ..., count - 1.

        b_r  = (r+1)^a - r^a
        w_r  = (r+2)^(a+1) + r^(a+1) - 2 (r+1)^(a+1)
        a0_r = r^(a+1) - (r-a) (r+1)^a

    Each closed form subtracts numbers of size r^(a+1) to get a result
    of size r^(a-1), which loses about 2 log10(r) digits.  Instead, with
    u = r + 1:

        b_r  = r^a expm1(a log1p(1/r))
        w_r  = u^(a+1) sum_{k>=1} 2 C(a+1, 2k) u^(-2k)
        a0_r = r^(a+1) a (a+1) sum_{k>=0} (a+2)_k / (k! (k+2)) u^(-k-2)

    All series terms are positive for 0 < a <= 1; the a0 series is the
    integral a (a+1) int_0^{1/u} s (1-s)^(-a-2) ds expanded in s.  All
    three stay within 1e-14 relative of the exact values for every r.
    """
    beta = alpha + 1.0
    r = np.arange(count, dtype=float)
    u = r + 1.0
    j = np.arange(1.0, 2 * _SERIES_TERMS + 1)
    # C(a+1, i) for i = 0, ..., 2K and (a+2)_k / k! for k = 0, ..., 2K
    binom = np.concatenate(([1.0], np.cumprod((alpha - (j - 2.0)) / j)))
    rising = np.concatenate(([1.0], np.cumprod((beta + j) / j)))

    b = np.ones(count)
    b[1:] = r[1:] ** alpha * np.expm1(alpha * np.log1p(1.0 / r[1:]))
    y = 1.0 / (u * u)
    w = u ** beta * y * _horner(2.0 * binom[2::2], y)
    q = 1.0 / u
    k = np.arange(_SERIES_TERMS)
    a0 = r ** beta * q * q * _horner(alpha * beta * rising[k] / (k + 2.0), q)
    w[0] = 2.0 * math.expm1(alpha * math.log(2.0))
    a0[0] = alpha
    return b, w, a0


def solve_caputo(p: IvpProblem) -> Trajectory:
    """Fractional Adams-Bashforth-Moulton (PECE) marching.

    Predictor: product-rectangle weights b_r = (r+1)^a - r^a.
    Corrector: product-trapezoid weights w_r with the classical closed
    form a0_m for the oldest node; exactly one correction per step,
    after which the right-hand side is re-evaluated at the corrected
    point.  Weights come from :func:`_pece_weights`.

    Both memory sums run through one relaxed blocked convolution
    (Hairer, Lubich & Schlichte 1985).  The lower triangle of (row m,
    column j) pairs is tiled into squares: square (c0, s), s = B 2^k,
    c0 a multiple of 2s, covers columns [c0, c0+s) and rows
    [c0+s, c0+2s).  Once f[0:c0+s] is known, one forward FFT of those
    s columns and one inverse FFT against the cached kernel transforms
    add the square to an accumulator for its rows.  Only the columns of
    a row's own base block (B = ``_BLOCK``) are summed directly.  The
    corrector's oldest-node weight enters as the rank-1 correction
    (a0_m - w_m) f_0.  N steps cost O(N log^2 N), and the summation
    order depends on N alone, not on the machine's BLAS threads.
    """
    alpha = p.alpha
    times = _grid(p.t0, p.t_end, p.dt)
    steps = times.shape[0] - 1
    h = p.dt
    n = p.initial.shape[0]

    if p.forcing is not None:
        fvals = forcing_grid(p.forcing, times)
    else:
        fvals = np.zeros((steps + 1, n))

    probe = np.asarray(p.rhs(times.item(0), p.initial))
    dtype = np.result_type(probe.dtype, p.initial.dtype, fvals.dtype)
    if np.issubdtype(dtype, np.complexfloating):
        fwd, inv = np.fft.fft, np.fft.ifft
    else:
        dtype = np.float64
        fwd, inv = np.fft.rfft, np.fft.irfft

    # row m reaches back m steps; a march shorter than one block still
    # builds a full block of local kernel
    b, w, a0 = _pece_weights(alpha, max(steps, _BLOCK))
    c_pred = h ** alpha * reciprocal_gamma(alpha + 1.0)
    c_corr = h ** alpha * reciprocal_gamma(alpha + 2.0)
    kern = np.stack([c_pred * b, c_corr * w])
    # column i of the local kernel weighs the node _BLOCK - 1 - i steps back
    local = np.ascontiguousarray(kern[:, _BLOCK - 1 :: -1])
    spectra = {}

    xs = np.zeros((steps + 1, n), dtype=dtype)
    xs[0] = p.initial
    # f is stored as one column vector per component, so the local
    # product is one (2, k) @ (k, 1) product per component: a component's
    # sums then do not depend on how many components there are
    fs = np.zeros((n, steps + 1, 1), dtype=dtype)
    fs[:, 0, 0] = probe - fvals[0]
    # acc[m, :, 0] is x_pred at row m less its local sum; acc[m, :, 1] is
    # x_new less its local sum and the right-hand side at x_pred
    acc = np.empty((steps, n, 2, 1), dtype=dtype)
    acc[:, :, 0, 0] = xs[0]
    acc[:, :, 1, 0] = (
        xs[0]
        + (c_corr * (a0[:steps] - w[:steps]))[:, None] * fs[:, 0, 0]
        - c_corr * fvals[1:]
    )

    def fire(m: int) -> None:
        """Add the square whose rows start at block boundary m."""
        q = m // _BLOCK
        s = _BLOCK * (q & -q)
        if s not in spectra:
            spectra[s] = fwd(kern[:, : 2 * s], n=2 * s, axis=1)[:, None, :]
        cols = fwd(fs[:, m - s : m, 0], n=2 * s, axis=1)
        rows = inv(cols[:, None, None, :] * spectra[s], n=2 * s, axis=-1)
        end = min(m + s, steps)
        acc[m:end] += np.moveaxis(rows[..., s : s + end - m], -1, 0)

    rhs = p.rhs
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            lo = m - m % _BLOCK
            if lo == m and m:
                fire(m)
            mem = acc[m] + local[:, _BLOCK - 1 - m + lo :] @ fs[:, lo : m + 1]
            t = times.item(m + 1)
            x_new = mem[:, 1, 0] + np.multiply(c_corr, rhs(t, mem[:, 0, 0]))
            if not np.isfinite(x_new).all():
                last = times.item(m)
                raise NonFiniteStateError(
                    f"state diverged between t = {last} and t = {t}",
                    last_valid_time=last,
                )
            xs[m + 1] = x_new
            fs[:, m + 1, 0] = rhs(t, x_new) - fvals[m + 1]

    return Trajectory(times=times, values=xs, scheme=SCHEME_ID, dt=h)


def solve_liouville_weyl(
    system: Union[SystemSpec, Callable[[float, np.ndarray], np.ndarray]],
    history: HistoryFunction,
    t_end: float,
    dt: float,
    *,
    alpha: Optional[float] = None,
) -> Trajectory:
    """Infinite-lower-bound problem via its Caputo reformulation.

    The solution equals the Caputo solution started from x0(t0) with the
    forcing term of the initial condition subtracted from the right-hand
    side.  A SystemSpec argument selects the linear time-periodic
    right-hand side J(t) x; a callable is used as the right-hand side
    directly and then alpha must be given.
    """
    if isinstance(system, SystemSpec):
        alpha = system.alpha
        t0 = float(history.t0)
        js = eval_J(system, _grid(t0, t_end, dt))

        def rhs(t: float, x: np.ndarray) -> np.ndarray:
            return js[round((t - t0) / dt)] @ x

    else:
        if alpha is None:
            raise DomainError("alpha is required when the system is a callable")
        rhs = system

    fe = ForcingEvaluator(history, alpha)
    problem = IvpProblem(
        order=FractionalOrder(alpha),
        rhs=rhs,
        initial=history.value(history.t0),
        t0=history.t0,
        t_end=t_end,
        dt=dt,
        forcing=fe,
    )
    return solve_caputo(problem)


def _history_time_scale(history: HistoryFunction) -> float:
    if isinstance(history, TruncatedSinusoid):
        return history.frequency
    return 1.0


def voc_solution_scalar(
    A: float, alpha: float, history: HistoryFunction, t: float
) -> float:
    """Scalar LTI solution by the variation-of-constants formula.

    u(t) = E_alpha(A t^alpha) u0(0)
           - int_0^t s^(alpha-1) E_{alpha,alpha}(A s^alpha) F u0(t-s) ds

    evaluated by direct quadrature (substitution near the weak
    singularity s -> 0, oscillation-resolving Gauss panels elsewhere,
    graded geometrically toward the forcing's kink at s = t), with the
    kernel E_{alpha,alpha}(A s^alpha) from :func:`mittag_leffler` on all
    quadrature nodes at once.  The tests hold it to 1e-13 of the closed
    form for a constant history and, for sinusoid and ramp histories, to
    1e-10 of an adaptive quadrature at t = 10; a PECE march converges to
    it and comes within 2e-6 at t = 20 with dt = 0.005.
    Intended for long-horizon decay studies where time stepping is too
    slow.
    """
    if not A < 0.0:
        raise DomainError("voc_solution_scalar requires A < 0")
    if not 0.0 < alpha < 1.0:
        raise DomainError("voc_solution_scalar requires alpha in (0, 1)")
    if history.dim != 1:
        raise DomainError("voc_solution_scalar requires a scalar history")
    if history.complex_valued:
        raise DomainError("voc_solution_scalar requires a real-valued history")
    if abs(history.t0) > 1e-12:
        raise DomainError("voc_solution_scalar assumes t0 = 0")
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    u0 = float(np.real(history.value(0.0)[0]))
    if t == 0.0:
        return u0

    fe = ForcingEvaluator(history, alpha)
    hom = mittag_leffler(alpha, 1.0, A * t ** alpha).real * u0

    nodes, weights = np.polynomial.legendre.leggauss(10)

    def kernel_sum(edges: np.ndarray, integrand) -> float:
        lo = edges[:-1][:, None]
        hi = edges[1:][:, None]
        s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes[None, :]
        w = (0.5 * (hi - lo) * weights[None, :]).ravel()
        vals = integrand(s.ravel())
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("variation-of-constants integrand not finite")
        return float(w @ vals)

    delta = min(1.0, 0.5 * t)
    # s in [0, delta] with u = s^alpha: the integrand becomes smooth
    u_edges = np.linspace(0.0, delta ** alpha, 9)
    part_small = kernel_sum(
        u_edges,
        lambda u: mittag_leffler(alpha, alpha, A * u).real
        * forcing_grid(fe, t - u ** (1.0 / alpha))[:, 0]
        / alpha,
    )

    part_main = 0.0
    if t > delta:
        scale = _history_time_scale(history)
        width = min(1.0, 2.0 * math.pi / scale / 6.0)
        count = int(math.ceil((t - delta) / width))
        edges = np.linspace(delta, t, count + 1)
        # F u0(t - s) has a (t - s)^(1 - alpha) kink at s = t: the last
        # panel is graded geometrically toward it
        last = t - edges[-2]
        edges = np.concatenate(
            (edges[:-1], t - last * 0.5 ** np.arange(1, 40), [t])
        )
        part_main = kernel_sum(
            edges,
            lambda s: s ** (alpha - 1.0)
            * mittag_leffler(alpha, alpha, A * s ** alpha).real
            * forcing_grid(fe, t - s)[:, 0],
        )

    return hom - (part_small + part_main)
