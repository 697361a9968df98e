"""Truncated fractional Hill matrices and their linear-algebra services.

The matrix H_N(lambda) is block Toeplitz in the Fourier coefficients J_k
of the periodic system matrix, with block row r carrying the diagonal
shift (lambda + i r omega)^alpha for r = -N..N.  Roots of its
determinant in lambda are the Floquet exponent candidates; the search
itself lives in the spectral module: it counts roots with the phase of
the determinant and accepts them on the smallest singular value.

The grid services (sigma_min_grid, det_phase_and_log_derivative,
evaluate_grid) factor stacks of H_N with batched LAPACK calls, which
release the interpreter lock.  evaluate_grid takes one SVD per matrix
and reads both of its values from it: sigma_min, and log|det| as the
sum of log sigma_i, -inf where a singular value is 0.  A call that
needs more than one stack builds and factors its stacks on a thread
pool with one thread per core in the process's affinity mask; the pool
starts on first use and is never configured.  Each matrix is factored
on its own, so results do not depend on how the lambdas are split into
stacks or on the number of cores.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from frachill.errors import DomainError, IterationError
from frachill.system import SystemSpec, principal_power

__all__ = [
    "HillMatrix",
    "assemble",
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


# matrix entries in flight across all workers: about 64 MB of complex
# matrices, whatever the matrix order or the core count; each stack
# (one batched LAPACK call) holds at most _STACK_ENTRIES // _workers()
_STACK_ENTRIES = 4_000_000


def _workers() -> int:
    """Cores this process may run on; all of them factor stacks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(workers: int, pid: int) -> ThreadPoolExecutor:
    # keyed by process id: a forked child has none of its parent's threads
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="frachill-hill")


def _truncation_order(N) -> int:
    """N as an int; a DomainError unless it is an integer >= 0."""
    try:
        n = int(N)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != N or n < 0:
        raise DomainError(f"truncation order must be an integer >= 0, got {N}")
    return n


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
    N = _truncation_order(N)
    lam = complex(lam)
    matrix = _toeplitz_part(spec, N)
    diag = np.arange(matrix.shape[0])
    matrix[diag, diag] -= _shifts(spec, N, np.array([lam]))[0]
    matrix.setflags(write=False)
    return HillMatrix(spec=spec, N=N, lam=lam, matrix=matrix)


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


def _map_stacks(spec: SystemSpec, N: int, lams, factor) -> list:
    """factor(stack, chunk) for each stack of H_N over consecutive lams.

    Each stack is built and factored by the worker that runs it, so at
    most _STACK_ENTRIES matrix entries are in flight.  Results come back
    in chunk order.  A call that fits in one stack, or a machine with
    one core, runs inline without the pool.
    """
    base = _toeplitz_part(spec, N)
    m = base.shape[0]
    workers = _workers()
    per_stack = max(1, _STACK_ENTRIES // workers // (m * m))
    starts = range(0, len(lams), per_stack)

    def job(lo: int):
        chunk = lams[lo : lo + per_stack]
        stack = np.broadcast_to(base, (len(chunk), m, m)).copy()
        diag = np.arange(m)
        stack[:, diag, diag] -= _shifts(spec, N, chunk)
        return factor(stack, chunk)

    if workers == 1 or len(starts) <= 1:
        return [job(lo) for lo in starts]
    return list(_pool(workers, os.getpid()).map(job, starts))


def sigma_min_grid(spec: SystemSpec, N: int, lams) -> np.ndarray:
    """sigma_min of H_N over a whole array of lambda values.

    Stacked SVDs factor many small matrices per LAPACK call, which is
    what makes dense grid sweeps cheap.
    """
    N = _truncation_order(N)
    lams = np.asarray(lams, dtype=complex).ravel()
    out = _map_stacks(
        spec, N, lams, lambda stack, _: np.linalg.svd(stack, compute_uv=False)[:, -1]
    )
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
    N = _truncation_order(N)
    lams = np.asarray(lams, dtype=complex).ravel()
    rs = np.arange(-N, N + 1)

    def factor(stack, chunk):
        w = chunk[:, None] + 1j * spec.omega * rs[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            shift_slope = spec.alpha * principal_power(w, spec.alpha) / w
        phase = np.linalg.slogdet(stack)[0]
        slope = np.full(len(stack), complex(np.inf, 0.0))
        ok = phase != 0.0
        if ok.all():
            # a basic slice is a view: no copy of the whole stack
            ok = slice(None)
        inv_diag = np.diagonal(np.linalg.inv(stack[ok]), axis1=1, axis2=2)
        slope[ok] = -np.sum(inv_diag * np.repeat(shift_slope[ok], spec.dim, axis=1), axis=1)
        return phase, slope

    parts = _map_stacks(spec, N, lams, factor)
    if not parts:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    phases, slopes = zip(*parts)
    return np.concatenate(phases), np.concatenate(slopes)


def evaluate_grid(spec: SystemSpec, N: int, lams) -> tuple[np.ndarray, np.ndarray]:
    """(log|det H_N|, sigma_min) arrays over a lambda grid.

    One SVD per node gives both: |det H| is the product of the singular
    values, so log|det| = sum log sigma_i, which never overflows for
    huge or tiny determinants.  A zero singular value, an exact
    singularity, gives the -inf sentinel.
    """
    N = _truncation_order(N)
    lams = np.asarray(lams, dtype=complex).ravel()

    def factor(stack, _):
        s = np.linalg.svd(stack, compute_uv=False)
        with np.errstate(divide="ignore"):
            return np.sum(np.log(s), axis=1), s[:, -1]

    parts = _map_stacks(spec, N, lams, factor)
    if not parts:
        return np.zeros(0), np.zeros(0)
    logs, sigmas = zip(*parts)
    return np.concatenate(logs), np.concatenate(sigmas)
