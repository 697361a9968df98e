"""Initial functions on (-inf, t0] and the forcing term they induce.

A history x0 must be continuous and bounded on (-inf, t0] with a bounded
derivative on [t0 - eta, t0]; the forcing term

    F x0(t) = (1 / Gamma(1 - alpha)) *
              integral_{-inf}^{t0} (t - tau)^(-alpha) x0'(tau) dtau

is then defined and continuous for t >= t0 and decays like
C (t - t0 + eta)^(-alpha).  Histories that break these requirements
(backward-unbounded exponentials, derivative blow-up at t0) are refused.

Every kind gives the integral above, Gamma(1 - alpha) F x0, in closed
form as :meth:`HistoryFunction.tail_integral`: one array-valued
expression over a whole time array.  :func:`forcing_grid` is the single
entry point that evaluates the forcing.  The exponential, sinusoid and
Floquet kinds reduce to scaled incomplete gammas e^z Gamma(1 - alpha, z),
z = mu (t - t0), which stay finite for large Re z where e^z alone
overflows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .errors import (
    DomainError,
    FracHillError,
    SchemaError,
    SingularForcingError,
    UnboundedHistoryError,
)
from .specfun import _upper_gamma_scaled, reciprocal_gamma
from .system import principal_power

_T_TOL = 1e-12

# times per analytic evaluation: bounds the (times x harmonics) and
# (times x samples) work arrays of one chunk to a few MB
_CHUNK = 2048


def _vec(x) -> np.ndarray:
    out = np.atleast_1d(np.asarray(x, dtype=float))
    if out.ndim != 1:
        raise DomainError(f"history values must be vectors, got shape {out.shape}")
    out.setflags(write=False)
    return out


def _cvec(x) -> np.ndarray:
    out = np.atleast_1d(np.asarray(x, dtype=complex))
    if out.ndim != 1:
        raise DomainError(f"history values must be vectors, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, kw_only=True)
class HistoryFunction:
    """Base class for admissible initial functions.

    t0 is the right end of the history domain; eta > 0 is the length of
    the interval left of t0 on which the derivative is bounded.
    """

    t0: float = 0.0
    eta: float = 1.0

    # whether x0, and so its forcing, takes complex values
    complex_valued: ClassVar[bool] = False

    def __post_init__(self):
        if not self.eta > 0.0:
            raise DomainError(f"eta must be positive, got {self.eta}")

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def norm_inf(self) -> float:
        """sup of ||x0(t)|| over (-inf, t0] (upper bound for some kinds)."""
        raise NotImplementedError

    def sup_derivative(self) -> float:
        """sup of ||x0'(t)|| over [t0 - eta, t0] (upper bound for some kinds)."""
        raise NotImplementedError

    def tail_integral(self, ts: np.ndarray, alpha: float) -> np.ndarray:
        """integral_{-inf}^{t0} (t - tau)^(-alpha) x0'(tau) dtau, analytic,
        at each time of ts >= t0, shape (len(ts), dim)."""
        raise DomainError(
            f"history kind {type(self).__name__} has no analytic tail integral"
        )


@dataclass(frozen=True, kw_only=True)
class Constant(HistoryFunction):
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "values", _vec(self.values))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def value(self, t: float) -> np.ndarray:
        return self.values.copy()

    def norm_inf(self) -> float:
        return float(np.linalg.norm(self.values))

    def sup_derivative(self) -> float:
        return 0.0

    def tail_integral(self, ts, alpha):
        return np.zeros((len(ts), self.dim))


@dataclass(frozen=True, kw_only=True)
class TruncatedSinusoid(HistoryFunction):
    """x0(t) = amplitude * sin(frequency * t + phase), cut off at t0."""

    amplitude: np.ndarray
    phase: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "amplitude", _vec(self.amplitude))
        if not self.frequency > 0.0:
            raise DomainError(f"frequency must be positive, got {self.frequency}")

    @property
    def dim(self) -> int:
        return self.amplitude.shape[0]

    def value(self, t: float) -> np.ndarray:
        return self.amplitude * math.sin(self.frequency * t + self.phase)

    def norm_inf(self) -> float:
        return float(np.linalg.norm(self.amplitude))

    def sup_derivative(self) -> float:
        return self.frequency * float(np.linalg.norm(self.amplitude))

    def tail_integral(self, ts, alpha):
        # x0' = amp * om * Re e^{i(om tau + phase)}; rotating the ray of
        # integration gives e^{i(om t + phase)} Gamma(1 - alpha, z) with
        # z = i om (t - t0), which is e^{i(om t0 + phase)} e^z Gamma
        om = self.frequency
        z = 1j * om * (np.asarray(ts, dtype=float) - self.t0)
        rot = om ** (alpha - 1.0) * cmath.exp(
            1j * (om * self.t0 + self.phase + 0.5 * math.pi * (alpha - 1.0))
        )
        factor = (rot * _upper_gamma_scaled(1.0 - alpha, z)).real
        return np.outer(factor, self.amplitude * om)


@dataclass(frozen=True, kw_only=True)
class ExpGrowth(HistoryFunction):
    """x0(t) = coefficient * exp(rate * (t - t0)) with rate > 0.

    Decaying exponentials grow unboundedly in negative time and admit no
    forcing term, so rate <= 0 is refused.
    """

    rate: float
    coefficient: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "coefficient", _vec(self.coefficient))
        if not self.rate > 0.0:
            raise UnboundedHistoryError(
                f"exponential history requires rate > 0, got {self.rate}"
            )

    @property
    def dim(self) -> int:
        return self.coefficient.shape[0]

    def value(self, t: float) -> np.ndarray:
        return self.coefficient * math.exp(self.rate * (t - self.t0))

    def norm_inf(self) -> float:
        return float(np.linalg.norm(self.coefficient))

    def sup_derivative(self) -> float:
        return self.rate * float(np.linalg.norm(self.coefficient))

    def tail_integral(self, ts, alpha):
        rho = self.rate
        z = rho * (np.asarray(ts, dtype=float) - self.t0)
        factor = rho ** alpha * _upper_gamma_scaled(1.0 - alpha, z).real
        return np.outer(factor, self.coefficient)


@dataclass(frozen=True, kw_only=True)
class PiecewiseConstantRamp(HistoryFunction):
    """Constant far value for t <= ramp_start, linear down to 0 at t0."""

    far_value: np.ndarray
    ramp_start: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "far_value", _vec(self.far_value))
        if not self.ramp_start < self.t0:
            raise DomainError("ramp_start must lie strictly left of t0")

    @property
    def dim(self) -> int:
        return self.far_value.shape[0]

    @property
    def slope(self) -> np.ndarray:
        return -self.far_value / (self.t0 - self.ramp_start)

    def value(self, t: float) -> np.ndarray:
        if t <= self.ramp_start:
            return self.far_value.copy()
        return self.far_value * (self.t0 - t) / (self.t0 - self.ramp_start)

    def norm_inf(self) -> float:
        return float(np.linalg.norm(self.far_value))

    def sup_derivative(self) -> float:
        return float(np.linalg.norm(self.slope))

    def tail_integral(self, ts, alpha):
        ts = np.asarray(ts, dtype=float)
        dr = ts - self.ramp_start
        dc = ts - self.t0
        factor = (dr ** (1.0 - alpha) - dc ** (1.0 - alpha)) / (1.0 - alpha)
        return np.outer(factor, self.slope)


@dataclass(frozen=True, kw_only=True)
class FloquetForm(HistoryFunction):
    """x0(t) = exp(lam t) * sum_k p_k exp(i k omega t), Re lam >= 0.

    Complex-valued histories are admitted; they arise as candidate
    Floquet solutions whose time marching is cross-checked against the
    spectral prediction.
    """

    lam: complex
    omega: float
    coeffs: Mapping[int, np.ndarray]

    complex_valued: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if complex(self.lam).real < 0.0:
            raise UnboundedHistoryError(
                "Floquet-form history requires Re lam >= 0; a decaying "
                "envelope grows unboundedly in negative time"
            )
        if not self.omega > 0.0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if not self.coeffs:
            raise DomainError("Floquet-form history needs at least one harmonic")
        table = {}
        dim = None
        for k, v in self.coeffs.items():
            vv = _cvec(v)
            if dim is None:
                dim = vv.shape[0]
            elif vv.shape[0] != dim:
                raise DomainError("harmonic vectors must share one dimension")
            table[int(k)] = vv
        object.__setattr__(self, "coeffs", table)
        object.__setattr__(self, "lam", complex(self.lam))

    @property
    def dim(self) -> int:
        return next(iter(self.coeffs.values())).shape[0]

    def _mu(self, k: int) -> complex:
        return self.lam + 1j * k * self.omega

    def value(self, t: float) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for k, p in self.coeffs.items():
            out += p * cmath.exp(self._mu(k) * t)
        return out

    def norm_inf(self) -> float:
        env = math.exp(self.lam.real * self.t0)
        return env * float(sum(np.linalg.norm(p) for p in self.coeffs.values()))

    def sup_derivative(self) -> float:
        env = math.exp(self.lam.real * self.t0)
        return env * float(
            sum(
                np.linalg.norm(p) * abs(self._mu(k))
                for k, p in self.coeffs.items()
            )
        )

    def tail_integral(self, ts, alpha):
        # harmonic k contributes p_k mu_k^alpha e^{mu_k t0} e^z Gamma(1 - alpha, z)
        # with z = mu_k (t - t0): one (len(ts), K) array of z against the
        # (K, dim) coefficient matrix; a harmonic with mu_k = 0 is constant
        # and contributes nothing
        mu = self.lam + 1j * self.omega * np.fromiter(self.coeffs, dtype=float)
        p = np.array(list(self.coeffs.values()))
        live = mu != 0.0
        mu, p = mu[live], p[live]
        z = (np.asarray(ts, dtype=float) - self.t0)[:, None] * mu[None, :]
        weight = principal_power(mu, alpha) * np.exp(mu * self.t0)
        return (_upper_gamma_scaled(1.0 - alpha, z) * weight) @ p


@dataclass(frozen=True, kw_only=True)
class Sampled(HistoryFunction):
    """Piecewise-linear history through samples, constant left of the grid.

    The grid must end at t0 and join continuously onto the constant tail.
    Sample slopes that blow up toward t0 indicate a derivative
    singularity (the |t|^alpha cusp pattern) and are refused.
    """

    grid: np.ndarray
    samples: np.ndarray
    tail_value: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.samples, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        tail = _vec(self.tail_value)
        if g.ndim != 1 or g.shape[0] < 2:
            raise DomainError("sampled history needs at least two grid points")
        if v.shape != (g.shape[0], tail.shape[0]):
            raise DomainError(
                f"samples shape {v.shape} does not match grid "
                f"({g.shape[0]}) and dimension ({tail.shape[0]})"
            )
        if np.any(np.diff(g) <= 0.0):
            raise DomainError("sample grid must be strictly increasing")
        if abs(g[-1] - self.t0) > 1e-9 * max(1.0, abs(self.t0)):
            raise DomainError("sample grid must end at t0")
        if not np.all(np.isfinite(v)):
            raise UnboundedHistoryError("sampled history contains non-finite values")
        scale = max(1.0, float(np.linalg.norm(tail)))
        if np.linalg.norm(v[0] - tail) > 1e-8 * scale:
            raise DomainError(
                "sampled history must join its constant tail continuously"
            )
        g = g.copy()
        g[-1] = self.t0
        slopes = np.diff(v, axis=0) / np.diff(g)[:, None]
        self._reject_cusp(g, slopes)
        g.setflags(write=False)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "samples", v)
        object.__setattr__(self, "tail_value", tail)

    def _reject_cusp(self, g: np.ndarray, slopes: np.ndarray) -> None:
        # monotone slope blow-up over the final intervals before t0;
        # only the window [t0 - eta, t0] matters for membership in the
        # history space
        norms = np.linalg.norm(slopes, axis=1)
        mask = g[1:] > self.t0 - self.eta
        tail_norms = norms[mask][-10:]
        if tail_norms.shape[0] < 5:
            return
        increasing = np.all(np.diff(tail_norms) > 0.0)
        scale = max(float(np.median(norms)), 1e-300)
        if (
            increasing
            and tail_norms[-1] > 25.0 * max(tail_norms[0], 1e-300)
            and tail_norms[-1] > 5.0 * scale
        ):
            raise SingularForcingError(
                "sample slopes grow unboundedly toward t0; the derivative "
                "appears singular and the forcing term would not exist"
            )

    @property
    def dim(self) -> int:
        return self.tail_value.shape[0]

    def value(self, t: float) -> np.ndarray:
        if t <= self.grid[0]:
            return self.tail_value.copy()
        return np.array(
            [np.interp(t, self.grid, self.samples[:, i]) for i in range(self.dim)]
        )

    def norm_inf(self) -> float:
        sup = float(np.max(np.linalg.norm(self.samples, axis=1)))
        return max(sup, float(np.linalg.norm(self.tail_value)))

    def sup_derivative(self) -> float:
        slopes = np.diff(self.samples, axis=0) / np.diff(self.grid)[:, None]
        mask = self.grid[1:] > self.t0 - self.eta
        if not np.any(mask):
            return 0.0
        return float(np.max(np.linalg.norm(slopes[mask], axis=1)))

    def tail_integral(self, ts, alpha):
        # piecewise-linear histories integrate exactly: each interval
        # contributes slope * [(t-lo)^(1-a) - (t-hi)^(1-a)]/(1-a); left of
        # the grid the history is constant and contributes nothing
        g = self.grid
        ts = np.asarray(ts, dtype=float)[:, None]
        slopes = np.diff(self.samples, axis=0) / np.diff(g)[:, None]
        lo = np.maximum(ts - g[:-1], 0.0)
        hi = np.maximum(ts - g[1:], 0.0)
        weights = lo ** (1.0 - alpha) - hi ** (1.0 - alpha)
        return (weights @ slopes) / (1.0 - alpha)


@dataclass(frozen=True)
class ForcingEvaluator:
    """Numerical evaluator of the forcing term of the initial condition.

    Evaluation runs through :func:`forcing_grid`, the history's analytic
    tail integral up to t0; ``forcing(t)`` is a grid of one time.
    """

    history: HistoryFunction
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")

    def forcing(self, t: float) -> np.ndarray:
        return forcing_grid(self, [t])[0]


def forcing_grid(fe: ForcingEvaluator, ts) -> np.ndarray:
    """F x0 at every time of the 1-D array ts, shape (len(ts), dim).

    This is the only forcing path.  Times a rounding error left of t0
    are clamped onto it, and in the classical limit alpha = 1 the
    forcing vanishes.  Otherwise the grid is taken in chunks of at most
    _CHUNK times, each one call of the history's analytic tail integral
    up to t0, divided by Gamma(1 - alpha).  A kind with no analytic tail
    integral is a DomainError.
    """
    h = fe.history
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < h.t0 - _T_TOL * max(1.0, abs(h.t0))):
        raise DomainError(f"forcing is defined for t >= t0 = {h.t0}, got {ts.min()}")
    ts = np.maximum(ts, h.t0)
    out = np.zeros((ts.shape[0], h.dim), dtype=complex if h.complex_valued else float)
    if fe.alpha >= 1.0 - 1e-12:
        # classical limit: 1/Gamma(1 - alpha) -> 0 and the forcing vanishes
        return out
    for lo in range(0, ts.shape[0], _CHUNK):
        chunk = ts[lo : lo + _CHUNK]
        vals = h.tail_integral(chunk, fe.alpha) * reciprocal_gamma(1.0 - fe.alpha)
        out[lo : lo + chunk.shape[0]] = vals
    return out


def parse_history(doc: Mapping) -> HistoryFunction:
    """Build a history from a parsed JSON document.

    Every kind takes "t0" (default 0) and "eta" (default 1); the
    remaining fields mirror the constructor of the kind.
    """
    if not isinstance(doc, Mapping) or "kind" not in doc:
        raise SchemaError("history document must be an object with a 'kind'")
    kind = doc.get("kind")
    common = {}
    try:
        if "t0" in doc:
            common["t0"] = float(doc["t0"])
        if "eta" in doc:
            common["eta"] = float(doc["eta"])
        if kind == "constant":
            return Constant(values=doc["value"], **common)
        if kind == "sinusoid":
            return TruncatedSinusoid(
                amplitude=doc["amplitude"],
                phase=float(doc.get("phase", 0.0)),
                frequency=float(doc.get("frequency", 1.0)),
                **common,
            )
        if kind == "exp_growth":
            return ExpGrowth(
                rate=float(doc["rate"]), coefficient=doc["coefficient"], **common
            )
        if kind == "ramp":
            return PiecewiseConstantRamp(
                far_value=doc["far_value"],
                ramp_start=float(doc["ramp_start"]),
                **common,
            )
        if kind == "floquet":
            lam = doc["lambda"]
            coeffs = {
                int(c["k"]): np.asarray(c["re"], dtype=float)
                + 1j * np.asarray(c.get("im", np.zeros_like(c["re"])), dtype=float)
                for c in doc["coeffs"]
            }
            return FloquetForm(
                lam=complex(float(lam["re"]), float(lam.get("im", 0.0))),
                omega=float(doc["omega"]),
                coeffs=coeffs,
                **common,
            )
        if kind == "sampled":
            return Sampled(
                grid=doc["grid"],
                samples=doc["samples"],
                tail_value=doc["tail_value"],
                **common,
            )
    except KeyError as exc:
        raise SchemaError(f"history document missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        if isinstance(exc, FracHillError):
            raise
        raise SchemaError(f"malformed history document: {exc}") from None
    raise SchemaError(f"unknown history kind '{kind}'")


def forcing_bound_constant(fe: ForcingEvaluator) -> tuple[float, float]:
    """Constant C and window eta of the algebraic decay bound.

    ||F x0(t)|| <= C (t - t0 + eta)^(-alpha) with
    C = (2 ||x0||_inf + eta/(1-alpha) sup||x0'||) / Gamma(1-alpha).
    """
    h = fe.history
    alpha = fe.alpha
    if alpha >= 1.0 - 1e-12:
        return 0.0, h.eta
    C = (
        2.0 * h.norm_inf() + h.eta / (1.0 - alpha) * h.sup_derivative()
    ) * reciprocal_gamma(1.0 - alpha)
    return C, h.eta
