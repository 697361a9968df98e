"""Time integration of fractional initial value problems.

Caputo problems D^alpha x = f(t, x), x(t0) = x0 are stepped with the
fractional Adams-Bashforth-Moulton predictor-corrector (one correction
per step, full-memory convolution sums).  Infinite-history problems are
reduced to Caputo form by moving the forcing term of the initial
condition to the right-hand side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import (
    DomainError,
    NonFiniteStateError,
    QuadratureError,
)
from .history import ForcingEvaluator, HistoryFunction, forcing_grid
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


def solve_caputo(p: IvpProblem) -> Trajectory:
    """Fractional Adams-Bashforth-Moulton (PECE) marching.

    Predictor: product-rectangle weights b_r = (r+1)^a - r^a.
    Corrector: product-trapezoid weights with the classical closed form
    for the oldest node; exactly one correction per step, after which
    the right-hand side is re-evaluated at the corrected point.
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

    probe = np.asarray(p.rhs(times[0], p.initial))
    dtype = np.result_type(probe.dtype, p.initial.dtype, fvals.dtype)
    if not np.issubdtype(dtype, np.complexfloating):
        dtype = np.float64

    def f0(j: int, x: np.ndarray) -> np.ndarray:
        return np.asarray(p.rhs(times[j], x)) - fvals[j]

    r = np.arange(steps + 1, dtype=float)
    b = (r + 1.0) ** alpha - r ** alpha
    w = (r + 2.0) ** (alpha + 1.0) + r ** (alpha + 1.0) - 2.0 * (
        r + 1.0
    ) ** (alpha + 1.0)
    c_pred = h ** alpha * reciprocal_gamma(alpha + 1.0)
    c_corr = h ** alpha * reciprocal_gamma(alpha + 2.0)

    xs = np.zeros((steps + 1, n), dtype=dtype)
    fs = np.zeros((steps + 1, n), dtype=dtype)
    xs[0] = p.initial
    fs[0] = f0(0, xs[0])
    x0 = xs[0]

    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            mem_pred = b[m::-1] @ fs[: m + 1]
            x_pred = x0 + c_pred * mem_pred
            a0 = m ** (alpha + 1.0) - (m - alpha) * (m + 1.0) ** alpha
            mem_corr = a0 * fs[0]
            if m >= 1:
                mem_corr = mem_corr + w[m - 1 :: -1] @ fs[1 : m + 1]
            x_new = x0 + c_corr * (mem_corr + f0(m + 1, x_pred))
            if not np.all(np.isfinite(x_new)):
                raise NonFiniteStateError(
                    f"state diverged between t = {times[m]} and t = {times[m + 1]}",
                    last_valid_time=float(times[m]),
                )
            xs[m + 1] = x_new
            fs[m + 1] = f0(m + 1, x_new)

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
        grid = _grid(history.t0, t_end, dt)
        js = eval_J(system, grid)

        def rhs(t: float, x: np.ndarray) -> np.ndarray:
            j = int(round((t - history.t0) / dt))
            return js[j] @ x

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


@functools.lru_cache(maxsize=16)
def _ml_neg_kernel_table(alpha: float) -> PchipInterpolator:
    """log-log interpolant of x -> E_{alpha,alpha}(-x) on [1e-12, 1e5].

    The function is positive and completely monotone for 0 < alpha < 1,
    so the log-log graph is smooth and gently sloped.  Beyond the table
    the asymptotic series takes over.
    """
    xg = np.logspace(-12.0, 5.0, 1021)
    vals = np.array(
        [mittag_leffler(alpha, alpha, -x).real for x in xg]
    )
    if np.any(vals <= 0.0):
        raise QuadratureError("kernel table values must stay positive")
    return PchipInterpolator(np.log(xg), np.log(vals), extrapolate=False)


def _ml_neg_kernel(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,alpha}(-x) for x >= 0, vectorized via the cached table."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-12
    large = x > 1e5
    mid = ~(small | large)
    out[small] = reciprocal_gamma(alpha) - x[small] * reciprocal_gamma(2.0 * alpha)
    if np.any(mid):
        table = _ml_neg_kernel_table(alpha)
        out[mid] = np.exp(table(np.log(x[mid])))
    if np.any(large):
        xl = x[large]
        acc = np.zeros_like(xl)
        for k in range(2, 7):
            acc -= (-1.0) ** k * xl ** (-float(k)) * reciprocal_gamma(
                alpha - alpha * k
            )
        out[large] = acc
    return out


def _history_time_scale(history: HistoryFunction) -> float:
    from .history import FloquetForm, TruncatedSinusoid

    if isinstance(history, TruncatedSinusoid):
        return history.frequency
    if isinstance(history, FloquetForm):
        kmax = max(abs(k) for k in history.coeffs.keys())
        return abs(history.lam) + kmax * history.omega
    return 1.0


def voc_solution_scalar(
    A: float, alpha: float, history: HistoryFunction, t: float
) -> float:
    """Scalar LTI solution by the variation-of-constants formula.

    u(t) = E_alpha(A t^alpha) u0(0)
           - int_0^t s^(alpha-1) E_{alpha,alpha}(A s^alpha) F u0(t-s) ds

    evaluated by direct quadrature (substitution near the weak
    singularity s -> 0, oscillation-resolving Gauss panels elsewhere).
    Accurate to about 1e-6; intended for long-horizon decay studies
    where time stepping is too slow.
    """
    if not A < 0.0:
        raise DomainError("voc_solution_scalar requires A < 0")
    if not 0.0 < alpha < 1.0:
        raise DomainError("voc_solution_scalar requires alpha in (0, 1)")
    if history.dim != 1:
        raise DomainError("voc_solution_scalar requires a scalar history")
    if abs(history.t0) > 1e-12:
        raise DomainError("voc_solution_scalar assumes t0 = 0")
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    u0 = float(np.real(history.value(0.0)[0]))
    if t == 0.0:
        return u0

    fe = ForcingEvaluator(history, alpha)
    hom = mittag_leffler(alpha, 1.0, A * t ** alpha).real * u0

    aabs = -A
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
        lambda u: _ml_neg_kernel(alpha, aabs * u)
        * forcing_grid(fe, t - u ** (1.0 / alpha))[:, 0]
        / alpha,
    )

    part_main = 0.0
    if t > delta:
        scale = _history_time_scale(history)
        width = min(1.0, 2.0 * math.pi / scale / 6.0)
        count = int(math.ceil((t - delta) / width))
        edges = np.linspace(delta, t, count + 1)
        part_main = kernel_sum(
            edges,
            lambda s: s ** (alpha - 1.0)
            * _ml_neg_kernel(alpha, aabs * s ** alpha)
            * forcing_grid(fe, t - s)[:, 0],
        )

    return hom - (part_small + part_main)
