"""Truncated fractional Hill matrices and their linear-algebra services.

The matrix H_N(lambda) is block Toeplitz in the Fourier coefficients J_k
of the periodic system matrix, with block row r carrying the diagonal
shift (lambda + i r omega)^alpha for r = -N..N.  Roots of its
determinant in lambda are the Floquet exponent candidates; the search
itself lives in the spectral module: it counts roots with the phase of
the determinant and accepts them on the smallest singular value.

Every H_N is built by _Band, which holds the lambda-independent part
and is the one place that computes the shifts.  evaluate_grid factors
stacks of whole H_N with batched LAPACK SVDs and reads both of its
values from one SVD per matrix: sigma_min, and log|det| as the sum of
log sigma_i, -inf where a singular value is 0; sigma_min_grid is its
sigma_min column.  det_phase_and_log_derivative, which the root search
calls as _band_det on one _Band per search, never factors a whole H_N:
H_N is block banded, and the outer block rows, which the growing shifts
make diagonally dominant, are eliminated from both ends by a matrix
continued fraction, so that only a small dense core around r = 0 is
factored, in the calling thread.

A grid that needs more than one stack is factored on a thread pool with
one thread per core in the process's affinity mask; the SVDs release
the interpreter lock, and the pool starts on first use and is never
configured.  Each matrix, and each lambda's elimination and core, is
computed on its own, so results do not depend on how the lambdas are
split into stacks or on the number of cores.
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


def assemble(spec: SystemSpec, N: int, lam: complex) -> HillMatrix:
    """Build H_N(lambda) = blocks J_{r-c} minus the shifted diagonal.

    Assembly is defined for every complex lambda; the Floquet validity
    restriction Re(lambda) >= 0 belongs to the eigenvalue search, not
    here.
    """
    N = _truncation_order(N)
    lam = complex(lam)
    band = _Band(spec, N)
    matrix = band.stack(band.diagonals(np.array([lam]))[0], 0, band.m)[0]
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


def _map_chunks(lams, m: int, job) -> list:
    """job(chunk) for each chunk of consecutive lams, on every core.

    A chunk holds as many lambdas as matrices of order m fit in
    _STACK_ENTRIES // _workers() entries, so at most _STACK_ENTRIES
    matrix entries are in flight.  Results come back in chunk order.
    A call that fits in one chunk, or a machine with one core, runs
    inline without the pool.
    """
    workers = _workers()
    per_stack = max(1, _STACK_ENTRIES // workers // (m * m))
    chunks = [lams[lo : lo + per_stack] for lo in range(0, len(lams), per_stack)]
    if workers == 1 or len(chunks) <= 1:
        return [job(chunk) for chunk in chunks]
    return list(_pool(workers, os.getpid()).map(job, chunks))


def sigma_min_grid(spec: SystemSpec, N: int, lams) -> np.ndarray:
    """sigma_min of H_N over a whole array of lambda values: evaluate_grid's."""
    return evaluate_grid(spec, N, lams)[1]


class _Band:
    """H_N as a block-tridiagonal matrix, and its lambda-dependent diagonal.

    Block (r, c) of H_N is J_{r-c}, zero for |r - c| > k_max, so
    grouping g = max(k_max, 1) harmonics per block (at most 2N + 1)
    leaves blocks of order s = dim * g on three block diagonals.  The
    last group is padded with identity rows and columns, which change
    neither det H nor its derivative.  base is the padded
    lambda-independent part, of order B * s, whose leading m = dim (2N + 1)
    rows and columns are H_N without its shifts; blocks are its diagonal
    blocks, upper and lower the blocks (b, b+1) and (b+1, b), off each
    scalar row's off-diagonal absolute sum and mid the block that holds
    the harmonic r = 0.
    """

    def __init__(self, spec: SystemSpec, N: int):
        self.spec, self.N = spec, N
        kmax = spec.coeffs.k_max
        g = max(1, min(kmax, 2 * N + 1))
        self.s = s = spec.dim * g
        self.B = B = -(-(2 * N + 1) // g)
        self.mid = N // g
        self.order = B * s
        self.m = m = spec.dim * (2 * N + 1)
        d = np.subtract.outer(np.arange(2 * N + 1), np.arange(2 * N + 1))
        table = np.stack([spec.coeffs.coeff(k) for k in range(-kmax, kmax + 2)])
        # harmonics beyond k_max index the zero block at the end of table
        d = np.where(np.abs(d) <= kmax, d + kmax, 2 * kmax + 1)
        self.base = np.eye(self.order, dtype=complex)
        self.base[:m, :m] = table[d].transpose(0, 2, 1, 3).reshape(m, m)
        self.base_diag = np.diagonal(self.base)
        absolute = np.abs(self.base)
        np.fill_diagonal(absolute, 0.0)
        self.off = absolute.sum(axis=1)
        grid = self.base.reshape(B, s, B, s)
        b = np.arange(B)
        self.blocks = grid[b, :, b, :]
        self.upper = grid[b[:-1], :, b[1:], :]
        self.lower = grid[b[1:], :, b[:-1], :]

    def diagonals(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What lambda adds to the diagonal of base, and its derivative.

        -(lambda + i r omega)^alpha and -alpha (lambda + i r omega)^(alpha-1)
        per scalar row, 0 on the padding; shape (len(lams), B * s) each.
        """
        spec, m = self.spec, self.m
        w = lams[:, None] + 1j * spec.omega * np.arange(-self.N, self.N + 1)
        power = principal_power(w, spec.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            power_slope = spec.alpha * power / w
        diag = np.zeros((len(lams), self.order), dtype=complex)
        slope = np.zeros_like(diag)
        diag[:, :m] = -np.repeat(power, spec.dim, axis=1)
        slope[:, :m] = -np.repeat(power_slope, spec.dim, axis=1)
        return diag, slope

    def stack(self, diag: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """base[r0:r1, r0:r1] plus each row of diag[:, r0:r1] on its diagonal.

        r0 = 0, r1 = m gives the stack of whole H_N over the rows' lambdas.
        """
        c = r1 - r0
        stack = np.broadcast_to(self.base[r0:r1, r0:r1], (len(diag), c, c)).copy()
        stack[:, range(c), range(c)] += diag[:, r0:r1]
        return stack


def _gauss_jordan(aug: np.ndarray, pivots: np.ndarray) -> None:
    """Reduce a stack [A | R] of augmented matrices to [I | A^-1 R] in place.

    No pivoting: every A here is strictly row dominant, which each
    elimination step preserves, so no pivot is zero.  pivots receives
    them; their product is det A.
    """
    rows = range(aug.shape[1])
    for j in rows:
        pivots[:, j] = aug[:, j, j]
        aug[:, j] /= pivots[:, j, None]
        for i in rows:
            if i != j:
                aug[:, i] -= aug[:, i, j, None] * aug[:, j]


def _eliminate(band: _Band, diag: np.ndarray, diag_slope: np.ndarray):
    """Each node's core, and H_N eliminated from both ends up to it.

    diag and diag_slope are the nodes' lambda-dependent diagonals (see
    _Band.diagonals).  A scalar row is dominant when
    |H_ii| > sum_{j != i} |H_ij|, a block row when all its rows are; the
    core [lo, hi] is the smallest range of block rows that holds mid and
    every block row that is not.  End 0 eliminates blocks 0..lo-1
    downward, end 1 blocks B-1..hi+1 upward, as end 0 of the
    block-reversed matrix: S_0 = D_0 and S_{t+1} = D_{t+1} - C_t with
    the correction C_t = L_t S_t^-1 U_t and
    S'_{t+1} = D'_{t+1} + C'_t, C'_t = L_t S_t^-1 S'_t S_t^-1 U_t, a
    matrix continued fraction.  Each pivot S_t is a diagonal block of a
    Schur complement of strictly row-dominant rows, so it is strictly
    row dominant too.

    Returns per node lo, hi, the product of the pivots' det phases,
    sum tr(S_t^-1 S'_t), and per end the last C and C', which the core's
    corner block takes (zero when nothing is eliminated), shape
    (n, 2, s, s) each.
    """
    n, B, s = len(diag), band.B, band.s
    dominant = np.abs(band.base_diag + diag) > band.off
    weak = ~dominant.reshape(n, B, s).all(axis=2)
    weak[:, band.mid] = True
    lo = np.argmax(weak, axis=1)
    hi = B - 1 - np.argmax(weak[:, ::-1], axis=1)

    # pair i is end i // n of node i % n, in its own elimination order;
    # pairs sorted by cut, longest first, so that each step's pairs are
    # a prefix
    eye = np.eye(s)
    D = band.blocks + diag.reshape(n, B, s)[..., None] * eye
    Dp = diag_slope.reshape(n, B, s)[..., None] * eye
    cut = np.concatenate([lo, B - 1 - hi])
    order = np.argsort(-cut, kind="stable")
    cut = cut[order]
    ends = order // n
    D = np.concatenate([D, D[:, ::-1]])[order]
    Dp = np.concatenate([Dp, Dp[:, ::-1]])[order]
    U = np.stack([band.upper, band.lower[::-1]])[ends]
    L = np.stack([band.lower, band.upper[::-1]])[ends]
    steps = int(cut[0])
    pivots = np.ones((2 * n, steps, s), dtype=complex)
    slope = np.zeros(2 * n, dtype=complex)
    corr = np.zeros((2 * n, s, s), dtype=complex)
    corr_slope = np.zeros_like(corr)
    for t, a in enumerate(np.searchsorted(-cut, -np.arange(steps)).tolist()):
        # [S_t | U_t | S'_t] -> [I | S_t^-1 U_t | S_t^-1 S'_t]
        aug = np.concatenate(
            (D[:a, t] - corr[:a], U[:a, t], Dp[:a, t] + corr_slope[:a]), axis=2
        )
        _gauss_jordan(aug, pivots[:a, t])
        x, z = aug[..., s : 2 * s], aug[..., 2 * s :]
        slope[:a] += z.trace(axis1=1, axis2=2)
        np.matmul(L[:a, t], x, out=corr[:a])
        np.matmul(L[:a, t] @ z, x, out=corr_slope[:a])
    back = np.empty_like(order)
    back[order] = np.arange(2 * n)
    phase = np.prod(pivots / np.abs(pivots), axis=(1, 2))[back]
    slope = slope[back]
    return (
        lo,
        hi,
        phase[:n] * phase[n:],
        slope[:n] + slope[n:],
        corr[back].reshape(2, n, s, s).swapaxes(0, 1),
        corr_slope[back].reshape(2, n, s, s).swapaxes(0, 1),
    )


def det_phase_and_log_derivative(
    spec: SystemSpec, N: int, lams
) -> tuple[np.ndarray, np.ndarray]:
    """det/|det| of H_N and d/dlam log det H_N over lambda values.

    Only the diagonal shifts depend on lambda, so
    H' = -alpha diag((lambda + i r omega)^(alpha - 1)).  Where det
    vanishes exactly the phase is 0 and the derivative infinite.

    Nothing of size (dim (2N + 1))^3 is spent on the rows that the
    shifts make diagonally dominant.  H_N is block tridiagonal in groups
    of k_max harmonics (see _Band).  For each lambda, a block row is
    dominant when every scalar row in it has |H_ii| > sum_{j != i} |H_ij|,
    and the core is the smallest range of block rows that holds r = 0
    and every block row that is not dominant.  The block rows outside
    the core are eliminated from both ends toward it without pivoting,
    S_r = D_r - U S_{r+-1}^-1 L, a matrix continued fraction (Risken,
    The Fokker-Planck Equation, ch. 9): the Schur complements of
    strictly row-dominant rows stay strictly row dominant, so the
    elimination is stable and no pivot is singular.  The core's corner
    blocks take the two Schur corrections.  Then log det H is the sum of
    log det over the pivots plus log det of the core, and d log det is
    the sum of tr(S^-1 S') over the pivots plus tr(C^-1 C') over the
    core C, which is factored densely with partial pivoting and carries
    the near-singularity of a root.  When no row is dominant the core
    is the whole matrix.

    Each lambda's core, elimination and core factorization are computed
    on their own, and lambdas that share a core are factored in one
    batched call in the calling thread, so no result depends on how the
    lambdas are split or on the number of cores.
    """
    return _band_det(_Band(spec, _truncation_order(N)), lams)


def _band_det(band: _Band, lams) -> tuple[np.ndarray, np.ndarray]:
    """det_phase_and_log_derivative on a band built once by the caller.

    A root search makes many small calls on one H_N; building its _Band
    once saves the lambda-independent set-up on each of them.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if not len(lams):
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    B, s = band.B, band.s
    diag, diag_slope = band.diagonals(lams)
    # the elimination holds about 12 B s^2 entries per lambda
    per_pass = max(1, _STACK_ENTRIES // (12 * band.order * s))
    passes = [
        _eliminate(band, diag[i : i + per_pass], diag_slope[i : i + per_pass])
        for i in range(0, len(lams), per_pass)
    ]
    lo, hi, phase, slope, corr, corr_slope = (np.concatenate(x) for x in zip(*passes))

    key = lo * B + hi
    for group in np.unique(key):
        sel = np.flatnonzero(key == group)
        r0, r1 = lo[sel[0]] * s, (hi[sel[0]] + 1) * s
        core = band.stack(diag[sel], r0, r1)
        core[:, :s, :s] -= corr[sel, 0]
        core[:, -s:, -s:] -= corr[sel, 1]
        sign = np.linalg.slogdet(core)[0]
        # not *=: numpy multiplies one complex element in place without
        # the fused loop, which would make its last bit depend on the group
        phase[sel] = phase[sel] * sign
        ok = sign != 0.0
        if ok.all():
            # a basic slice is a view: no copy of the whole stack
            ok = slice(None)
        inv = np.linalg.inv(core[ok])
        node = sel[ok]
        top, bottom = corr_slope[node, 0], corr_slope[node, 1]
        # tr(C^-1 C'): C' is diagonal but for the two corner blocks
        slope[node] += (
            np.sum(inv.diagonal(0, 1, 2) * diag_slope[node, r0:r1], axis=1)
            + np.sum(inv[:, :s, :s] * top.swapaxes(1, 2), axis=(1, 2))
            + np.sum(inv[:, -s:, -s:] * bottom.swapaxes(1, 2), axis=(1, 2))
        )
        slope[sel[sign == 0.0]] = complex(np.inf, 0.0)
    return phase, slope


def evaluate_grid(spec: SystemSpec, N: int, lams) -> tuple[np.ndarray, np.ndarray]:
    """(log|det H_N|, sigma_min) arrays over a lambda grid.

    One SVD per node gives both: |det H| is the product of the singular
    values, so log|det| = sum log sigma_i, which never overflows for
    huge or tiny determinants.  A zero singular value, an exact
    singularity, gives the -inf sentinel.
    """
    N = _truncation_order(N)
    lams = np.asarray(lams, dtype=complex).ravel()
    band = _Band(spec, N)

    def factor(chunk):
        # each stack is built and factored by the worker that runs it
        stack = band.stack(band.diagonals(chunk)[0], 0, band.m)
        s = np.linalg.svd(stack, compute_uv=False)
        with np.errstate(divide="ignore"):
            return np.sum(np.log(s), axis=1), s[:, -1]

    parts = _map_chunks(lams, band.m, factor)
    if not parts:
        return np.zeros(0), np.zeros(0)
    logs, sigmas = zip(*parts)
    return np.concatenate(logs), np.concatenate(sigmas)
