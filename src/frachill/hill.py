"""Truncated fractional Hill matrices and their linear-algebra services.

The matrix H_N(lambda) is block Toeplitz in the Fourier coefficients J_k
of the periodic system matrix, with block row r carrying the diagonal
shift (lambda + i r omega)^alpha for r = -N..N.  Roots of its
determinant in lambda are the Floquet exponent candidates; the search
itself lives in the spectral module: it counts roots with the phase of
the determinant and accepts them on the smallest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from frachill.errors import DomainError, IterationError
from frachill.system import SystemSpec, principal_power

__all__ = [
    "HillMatrix",
    "HillEvaluation",
    "assemble",
    "log_abs_det",
    "sigma_min_and_nullvector",
    "sigma_min_grid",
    "det_phase_and_log_derivative",
    "evaluate_grid",
]


@dataclass(frozen=True)
class HillMatrix:
    """Assembled H_N(lambda) for one value of lambda."""

    spec: SystemSpec
    N: int
    lam: complex
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class HillEvaluation:
    """Determinant and conditioning summary of one assembled matrix.

    log_abs_det is -inf and det_phase is 0 when the determinant vanishes
    exactly; otherwise det_phase is the unit complex number det/|det|.
    """

    lam: complex
    log_abs_det: float
    det_phase: complex
    sigma_min: float


def _toeplitz_part(spec: SystemSpec, N: int) -> np.ndarray:
    """The lambda-independent part: block (r, c) = J_{r-c}."""
    n = spec.dim
    m = n * (2 * N + 1)
    out = np.zeros((m, m), dtype=complex)
    kmax = spec.coeffs.k_max
    for d in range(-min(kmax, 2 * N), min(kmax, 2 * N) + 1):
        block = spec.coeffs.coeff(d)
        if not block.any():
            continue
        for r in range(max(-N, -N + d), min(N, N + d) + 1):
            c = r - d
            out[
                (r + N) * n : (r + N + 1) * n,
                (c + N) * n : (c + N + 1) * n,
            ] = block
    return out


def _shifts(spec: SystemSpec, N: int, lams: np.ndarray) -> np.ndarray:
    """Per-entry diagonal shifts, shape (len(lams), n(2N+1))."""
    rs = np.arange(-N, N + 1)
    args = np.asarray(lams, dtype=complex)[:, None] + 1j * spec.omega * rs[None, :]
    pp = principal_power(args, spec.alpha)
    return np.repeat(pp, spec.dim, axis=1)


def assemble(spec: SystemSpec, N: int, lam: complex) -> HillMatrix:
    """Build H_N(lambda) = blocks J_{r-c} minus the shifted diagonal.

    Assembly is defined for every complex lambda; the Floquet validity
    restriction Re(lambda) >= 0 belongs to the eigenvalue search, not
    here.
    """
    if int(N) != N or N < 0:
        raise DomainError(f"truncation order must be an integer >= 0, got {N}")
    N = int(N)
    lam = complex(lam)
    matrix = _toeplitz_part(spec, N)
    diag = np.arange(matrix.shape[0])
    matrix[diag, diag] -= _shifts(spec, N, np.array([lam]))[0]
    matrix.setflags(write=False)
    return HillMatrix(spec=spec, N=N, lam=lam, matrix=matrix)


def log_abs_det(hm: HillMatrix) -> HillEvaluation:
    """Evaluate log|det|, determinant phase, and sigma_min at hm.lam.

    The determinant is taken from an LU factorization with partial
    pivoting (log|det| = sum log|u_ii| with the phase tracked
    separately) so that huge and tiny determinants never overflow.
    """
    phase, logdet = np.linalg.slogdet(hm.matrix)
    sigma, _ = sigma_min_and_nullvector(hm)
    if phase == 0.0:
        logdet = -np.inf
    return HillEvaluation(
        lam=hm.lam,
        log_abs_det=float(logdet),
        det_phase=complex(phase),
        sigma_min=sigma,
    )


def sigma_min_and_nullvector(hm: HillMatrix) -> tuple[float, np.ndarray]:
    """Smallest singular value and its right singular vector.

    The vector is normalized so its largest-magnitude entry is real and
    positive, which makes golden tests deterministic.
    """
    try:
        _, s, vh = np.linalg.svd(hm.matrix)
    except np.linalg.LinAlgError as exc:
        raise IterationError(f"singular value decomposition failed: {exc}")
    v = np.conj(vh[-1, :])
    j = int(np.argmax(np.abs(v)))
    v = v * (np.conj(v[j]) / abs(v[j]))
    v.setflags(write=False)
    return float(s[-1]), v


def _stacks(spec: SystemSpec, N: int, lams: np.ndarray, chunk_size):
    base = _toeplitz_part(spec, N)
    m = base.shape[0]
    if chunk_size is None:
        # about 64 MB of stacked matrices per chunk
        chunk_size = max(1, 4_000_000 // (m * m))
    for lo in range(0, len(lams), chunk_size):
        chunk = np.asarray(lams[lo : lo + chunk_size], dtype=complex)
        stack = np.broadcast_to(base, (len(chunk), m, m)).copy()
        diag = np.arange(m)
        stack[:, diag, diag] -= _shifts(spec, N, chunk)
        yield stack


def sigma_min_grid(
    spec: SystemSpec, N: int, lams, chunk_size: int | None = None
) -> np.ndarray:
    """sigma_min of H_N over a whole array of lambda values.

    Stacked SVDs factor many small matrices per LAPACK call, which is
    what makes dense grid sweeps cheap.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    out = []
    for stack in _stacks(spec, N, lams, chunk_size):
        out.append(np.linalg.svd(stack, compute_uv=False)[:, -1])
    return np.concatenate(out) if out else np.zeros(0)


def det_phase_and_log_derivative(
    spec: SystemSpec, N: int, lams
) -> tuple[np.ndarray, np.ndarray]:
    """det/|det| of H_N and d/dlam log det H_N over lambda values.

    Only the diagonal shifts depend on lambda, so
    H' = -alpha diag((lambda + i r omega)^(alpha - 1)) and the
    logarithmic derivative is tr(H^-1 H').  Where det vanishes exactly
    the phase is 0 and the derivative infinite.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    rs = np.arange(-N, N + 1)
    phases, slopes = [], []
    lo = 0
    for stack in _stacks(spec, N, lams, None):
        w = lams[lo : lo + len(stack), None] + 1j * spec.omega * rs[None, :]
        lo += len(stack)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift_slope = spec.alpha * principal_power(w, spec.alpha) / w
        phase = np.linalg.slogdet(stack)[0]
        slope = np.full(len(stack), complex(np.inf, 0.0))
        ok = phase != 0.0
        inv_diag = np.diagonal(np.linalg.inv(stack[ok]), axis1=1, axis2=2)
        slope[ok] = -np.sum(inv_diag * np.repeat(shift_slope[ok], spec.dim, axis=1), axis=1)
        phases.append(phase)
        slopes.append(slope)
    if not phases:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    return np.concatenate(phases), np.concatenate(slopes)


def evaluate_grid(
    spec: SystemSpec, N: int, lams, chunk_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(log_abs_det, sigma_min) arrays over a lambda grid.

    Exact singularities carry the -inf sentinel, matching
    log_abs_det().
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    logs, sigmas = [], []
    for stack in _stacks(spec, N, lams, chunk_size):
        phase, logdet = np.linalg.slogdet(stack)
        logdet = np.where(phase == 0.0, -np.inf, logdet)
        logs.append(logdet)
        sigmas.append(np.linalg.svd(stack, compute_uv=False)[:, -1])
    if not logs:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(logs), np.concatenate(sigmas)
