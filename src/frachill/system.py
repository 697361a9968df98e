"""Description of a linear time-periodic fractional-order system.

The coefficient matrix J(t) = sum_k J_k exp(i omega k t) is held as a
sparse map from integer harmonic index to complex matrix, with the
realness symmetry J_{-k} = conj(J_k) enforced at construction, so that
J(t) is a real matrix for every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, SchemaError

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class FractionalOrder:
    """Order of the fractional derivative, alpha in (0, 1].

    alpha = 1 is admitted as the classical degenerate case.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 < a <= 1.0:
            raise DomainError(f"fractional order must lie in (0, 1], got {a}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class FourierCoefficients:
    """Harmonics of the periodic matrix, keyed by integer index.

    The map carries both signs of k; negative entries are the complex
    conjugates of their positive partners.  Out-of-range indices mean a
    zero matrix (see coeff).
    """

    dim: int
    harmonics: Mapping[int, np.ndarray]
    k_max: int

    def coeff(self, k: int) -> np.ndarray:
        got = self.harmonics.get(k)
        if got is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return got


@dataclass(frozen=True)
class SystemSpec:
    order: FractionalOrder
    omega: float
    period: float
    coeffs: FourierCoefficients

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if abs(self.period * self.omega - 2.0 * math.pi) > 1e-12:
            raise DomainError("period * omega must equal 2*pi")

    @property
    def alpha(self) -> float:
        return self.order.alpha

    @property
    def dim(self) -> int:
        return self.coeffs.dim


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def make_system(
    alpha: float, omega: float, harmonics: Mapping[int, np.ndarray]
) -> SystemSpec:
    """Build a SystemSpec from harmonics given for k >= 0 only.

    Negative-k coefficients are generated by conjugation.  J_0 must be
    present and real.
    """
    if not harmonics:
        raise SchemaError("at least the k=0 harmonic is required")
    table: dict[int, np.ndarray] = {}
    dim = None
    for k, mat in harmonics.items():
        k = int(k)
        if k < 0:
            raise SchemaError(
                "harmonics are specified for k >= 0; negative indices "
                "follow by conjugation"
            )
        arr = np.atleast_2d(np.asarray(mat, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise SchemaError(f"harmonic {k} is not a square matrix: {arr.shape}")
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise SchemaError(
                f"harmonic {k} has dimension {arr.shape[0]}, expected {dim}"
            )
        table[k] = arr
    if 0 not in table:
        raise SchemaError("the constant harmonic J_0 is required")
    if np.max(np.abs(table[0].imag)) > _SYM_TOL:
        raise SchemaError("J_0 must be a real matrix")
    table[0] = table[0].real.astype(complex)
    full = {}
    for k, arr in table.items():
        full[k] = _freeze(arr)
        if k > 0:
            full[-k] = _freeze(np.conj(arr))
    coeffs = FourierCoefficients(
        dim=dim, harmonics=full, k_max=max(abs(k) for k in full)
    )
    order = FractionalOrder(alpha)
    omega = float(omega)
    if not omega > 0.0:
        raise SchemaError(f"omega must be positive, got {omega}")
    return SystemSpec(
        order=order, omega=omega, period=2.0 * math.pi / omega, coeffs=coeffs
    )


def eval_J(spec: SystemSpec, t) -> np.ndarray:
    """The periodic matrix J(t) = sum_k J_k exp(i omega k t), as a real array.

    Realness is exact by summing J_0 + 2 Re(J_k e^{i omega k t}) over k > 0.
    ``t`` may be a scalar, which gives a (dim, dim) matrix, or an array
    of any shape, which gives one matrix per time: shape t.shape + (dim, dim).
    """
    coeffs = spec.coeffs
    wt = spec.omega * np.asarray(t, dtype=float)
    out = np.broadcast_to(coeffs.coeff(0).real, wt.shape + (spec.dim,) * 2).copy()
    for k in range(1, coeffs.k_max + 1):
        jk = coeffs.harmonics.get(k)
        if jk is None:
            continue
        phase = np.exp(1j * k * wt)[..., None, None]
        out += 2.0 * (jk * phase).real
    return out


def principal_power(w, alpha: float):
    """Principal fractional power |w|^alpha exp(i alpha Arg w), elementwise.

    Arg is taken in (-pi, pi] and 0^alpha := 0, so the image of the map
    is the closed-upper sector arg in (-alpha pi, alpha pi].  ``w`` may be
    a scalar, which gives a scalar, or an array of any shape.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"principal_power requires alpha in (0, 1], got {alpha}")
    # adding +0.0 turns a -0.0 imaginary part into +0.0, so the negative
    # real axis lands on arg = +pi
    v = np.asarray(w, dtype=complex) + 0.0
    if alpha != 1.0:
        v = np.abs(v) ** alpha * np.exp(1j * alpha * np.angle(v))
    return v[()]


# alias kept only for the benchmark tracer, which times this name:
# bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_it
# asserts that every traced name exists
principal_power_grid = principal_power


def parse_system(doc: Mapping) -> SystemSpec:
    """Build a SystemSpec from a parsed JSON document.

    Schema: {"alpha": a, "omega": w, "dim": n, "harmonics": [{"k": k,
    "re": [[...]], "im": [[...]]}, ...]} with k >= 0.  A negative k entry
    is tolerated only when it exactly conjugate-matches its positive
    partner; anything else is a schema error.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError("system document must be a JSON object")
    for key in ("alpha", "omega", "dim", "harmonics"):
        if key not in doc:
            raise SchemaError(f"system document missing required key '{key}'")
    try:
        alpha = float(doc["alpha"])
        omega = float(doc["omega"])
        dim = int(doc["dim"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed scalar field: {exc}") from None
    if dim < 1:
        raise SchemaError(f"dim must be a positive integer, got {dim}")
    entries = doc["harmonics"]
    if not isinstance(entries, (list, tuple)) or not entries:
        raise SchemaError("harmonics must be a non-empty array")

    def read_matrix(entry, name):
        re_part = entry.get("re")
        im_part = entry.get("im")
        if re_part is None:
            raise SchemaError(f"harmonic {name} missing 're'")
        try:
            re_arr = np.asarray(re_part, dtype=float)
            im_arr = (
                np.zeros_like(re_arr)
                if im_part is None
                else np.asarray(im_part, dtype=float)
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"harmonic {name}: {exc}") from None
        if re_arr.shape != (dim, dim) or im_arr.shape != (dim, dim):
            raise SchemaError(
                f"harmonic {name} must be {dim}x{dim}, got re {re_arr.shape}, "
                f"im {im_arr.shape}"
            )
        return re_arr + 1j * im_arr

    positive: dict[int, np.ndarray] = {}
    negative: dict[int, np.ndarray] = {}
    for entry in entries:
        if not isinstance(entry, Mapping) or "k" not in entry:
            raise SchemaError("each harmonic entry needs an integer 'k'")
        try:
            k = int(entry["k"])
        except (TypeError, ValueError):
            raise SchemaError(f"harmonic index {entry['k']!r} is not an integer")
        target = positive if k >= 0 else negative
        if k in target:
            raise SchemaError(f"duplicate harmonic k={k}")
        target[k] = read_matrix(entry, str(k))

    for k, mat in negative.items():
        partner = positive.get(-k, np.zeros((dim, dim), dtype=complex))
        if np.max(np.abs(mat - np.conj(partner))) > _SYM_TOL:
            raise SchemaError(
                f"harmonic k={k} contradicts the conjugate of k={-k}; "
                "negative harmonics are implied and may be omitted"
            )

    try:
        return make_system(alpha, omega, positive)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None
