"""Eigenvalue machinery around the fractional Hill problem.

Four services: Gershgorin localization of the nonlinear eigenvalues,
the eigenvalue search itself, classification of LTI characteristic
roots by the principal-power sector, and reconstruction plus
simulation cross-checks of Floquet-form solutions y = e^{lt} p(t).

The search counts the zeros of det H_N in a strip with the argument
principle (Delves & Lyness 1967) and refines each with Newton's trace
iteration (Guettel & Tisseur 2017, Acta Numerica, section 4).  On any
strip clear of the branch cuts, which includes every strip with
Re >= 0 and so the default one, the roots returned are all the zeros
of det H_N there: an empty list certifies that none exist.  Strips
that cross a cut fall back on a sigma_min grid scan for seeds, and
their roots are not certified.  FRACHILL_LOG=info logs one line per
search: route, zeros counted, roots returned, Newton iterations per
root and the seeds rejected by tol, strip and dedupe.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from frachill.errors import DomainError, IterationError
from frachill.hill import (
    assemble,
    det_phase_and_log_derivative,
    sigma_min_and_nullvector,
    sigma_min_grid,
)
from frachill.history import FloquetForm
from frachill.integrator import Trajectory, solve_liouville_weyl
from frachill.system import SystemSpec

__all__ = [
    "VALID_FLOQUET",
    "INVALID_NEGATIVE_RE",
    "GershgorinRegion",
    "Eigenpair",
    "LtiEigenvalue",
    "LtiClassification",
    "gershgorin",
    "find_eigenvalues",
    "classify_lti",
    "reconstruct_floquet",
    "floquet_real_combination",
    "verify_floquet",
]

VALID_FLOQUET = "valid-floquet"
INVALID_NEGATIVE_RE = "invalid-negative-re"

log = logging.getLogger(__name__)

# eigenvalues, seeds, and duplicates are told apart at these scales
_DEDUPE_RADIUS = 1e-6
_STRIP_SLACK = 1e-6
# a strip from Re >= 0 is counted from here: the branch points of the
# shifts (lam + i r omega)^alpha lie on Re = 0
_BRANCH_GAP = _STRIP_SLACK
# a contour step whose det phase turns by more than this is bisected
_MAX_PHASE_STEP = 0.25 * math.pi
# cells split off centre, so that symmetric roots miss the cut
_SPLITS = (0.4637, 0.5419, 0.3812)
_NEWTON_MAXITER = 50
_NEWTON_STEP_TOL = 1e-14


@dataclass(frozen=True)
class GershgorinRegion:
    """Union of balls |lam - i k omega| <= radii[k] containing all roots."""

    omega: float
    alpha: float
    centers: np.ndarray
    radii: np.ndarray

    @property
    def re_max(self) -> float:
        """Largest possible real part of any root (centers are imaginary)."""
        return float(np.max(self.radii)) if self.radii.size else 0.0

    def distance(self, lam: complex) -> float:
        """Signed distance to the region; <= 0 means inside some ball."""
        return float(np.min(np.abs(lam - self.centers) - self.radii))

    def covers(self, lam: complex, slack: float = 0.0) -> bool:
        return self.distance(lam) <= slack


def gershgorin(spec: SystemSpec, N: int) -> GershgorinRegion:
    """Localization balls for the truncated problem of order N.

    Block row r carries the shift (lam + i r omega)^alpha on its
    diagonal, so a row-sum bound on the rest of the row gives
    |lam + i r omega|^alpha <= r_row, a ball of radius r_row^(1/alpha)
    centered at -i r omega.  For n > 1 the row sum uses the max-row-sum
    norm of each block, a conservative superset of the scalar bound.
    The J_0 block contributes: only the shift itself is split out.
    """
    if int(N) != N or N < 0:
        raise DomainError(f"truncation order must be an integer >= 0, got {N}")
    N = int(N)
    norms = {}
    for d in range(-spec.coeffs.k_max, spec.coeffs.k_max + 1):
        block = spec.coeffs.coeff(d)
        norms[d] = float(np.max(np.sum(np.abs(block), axis=1)))
    centers = 1j * spec.omega * np.arange(-N, N + 1)
    radii = np.empty(2 * N + 1)
    for k in range(-N, N + 1):
        # center i k omega comes from block row r = -k
        row_sum = sum(
            norms.get(-k - c, 0.0) for c in range(-N, N + 1)
        )
        radii[k + N] = row_sum ** (1.0 / spec.alpha) if row_sum > 0.0 else 0.0
    centers.setflags(write=False)
    radii.setflags(write=False)
    return GershgorinRegion(
        omega=spec.omega, alpha=spec.alpha, centers=centers, radii=radii
    )


@dataclass(frozen=True)
class Eigenpair:
    """A root of det H_N(lam) = 0 with its Fourier null vector.

    p stacks the blocks p_{-N}..p_{N}; it has unit norm and its largest
    entry is real positive.  classification is valid-floquet for
    Re(lam) >= 0 and invalid-negative-re otherwise (the Liouville-Weyl
    derivative of e^{lt} does not exist for decaying exponentials).
    """

    lam: complex
    residual: float
    p: np.ndarray
    N: int
    classification: str

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        if p.ndim != 1 or abs(np.linalg.norm(p) - 1.0) > 1e-8:
            raise DomainError("eigenpair null vector must be a unit vector")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", complex(self.lam))
        if self.classification not in (VALID_FLOQUET, INVALID_NEGATIVE_RE):
            raise DomainError(
                f"unknown classification {self.classification!r}"
            )


def _local_minima(sig: np.ndarray) -> np.ndarray:
    """Boolean mask of 8-neighborhood local minima, edges included."""
    padded = np.pad(sig, 1, constant_values=np.inf)
    best = np.ones_like(sig, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[
                1 + di : 1 + di + sig.shape[0],
                1 + dj : 1 + dj + sig.shape[1],
            ]
            best &= sig <= shifted
    return best


def _inside(lam: complex, box) -> bool:
    x0, x1, y0, y1 = box
    return x0 <= lam.real <= x1 and y0 <= lam.imag <= y1


def _newton(spec: SystemSpec, N: int, lam: complex, mult: int, box):
    """Newton's trace iteration lam <- lam - mult / tr(H^-1 H').

    tr(H^-1 H') is the logarithmic derivative of det H_N; mult > 1 keeps
    the convergence quadratic at a root of that multiplicity.  Iterates
    stop when the step falls to _NEWTON_STEP_TOL relative, or once a
    step below 1e-10 relative no longer halves: that is the rounding
    floor of an ill-conditioned H.  Returns (lam, iterations), or None
    once an iterate leaves box or the step is not finite.  An exactly
    singular H means the iterate is a root.
    """
    last = math.inf
    for it in range(1, _NEWTON_MAXITER + 1):
        phase, slope = det_phase_and_log_derivative(spec, N, [lam])
        if phase[0] == 0.0:
            return lam, it
        step = complex(mult / slope[0])
        if not cmath.isfinite(step):
            return None
        lam -= step
        if not _inside(lam, box):
            return None
        size = abs(step) / max(1.0, abs(lam))
        if size <= _NEWTON_STEP_TOL or (size <= 1e-10 and size > 0.5 * last):
            return lam, it
        last = size
    return lam, _NEWTON_MAXITER


@dataclass
class _Search:
    """Bookkeeping of one find_eigenvalues call, logged when it ends."""

    spec: SystemSpec
    N: int
    tol: float
    iterations: list = field(default_factory=list)
    rejected: dict = field(
        default_factory=lambda: {"tol": 0, "strip": 0, "dedupe": 0}
    )

    def refine(self, lam: complex, mult: int, box, target=None):
        """Newton from lam; (lam, sigma_min, null vector) if accepted.

        Accepted means sigma_min < tol and, when a target cell is given,
        a converged point inside it.
        """
        hit = _newton(self.spec, self.N, lam, mult, box)
        if hit is not None and (target is None or _inside(hit[0], target)):
            sigma, v = sigma_min_and_nullvector(assemble(self.spec, self.N, hit[0]))
            if sigma < self.tol:
                self.iterations.append(hit[1])
                return hit[0], sigma, v
        self.rejected["tol"] += 1
        return None


class _PhaseWalk:
    """Winding numbers of det H_N around rectangles, phases cached.

    A rectangle's edges start with the corners and every node of the
    starting lattice (origin, spacing h) that lies on them, so that a
    cell shares the nodes, and the bisections, of its parent's edges.
    A step is bisected while the det phase turns by more than
    _MAX_PHASE_STEP across it, or while it is longer than the distance
    to the nearest zero that 1/|d log det/d lam| estimates at either
    end; the second test catches zeros that lie close to a long step,
    whose turns a coarse phase sample would alias.  All steps of one
    sweep are evaluated in one stacked call.
    """

    def __init__(self, spec: SystemSpec, N: int, origin: complex, h: complex, min_step: float):
        self.spec, self.N = spec, N
        self.origin, self.h = origin, h
        self.min_step = min_step
        self._cache: dict[complex, tuple[complex, complex]] = {}

    @staticmethod
    def _axis(lo: float, hi: float, origin: float, h: float) -> np.ndarray:
        """lo, the lattice lines origin + i h strictly inside (lo, hi), hi."""
        i = np.arange(math.floor((lo - origin) / h), math.ceil((hi - origin) / h) + 1)
        inner = i * h + origin
        inner = inner[(inner > lo + 1e-9 * h) & (inner < hi - 1e-9 * h)]
        return np.concatenate([[lo], inner, [hi]])

    def nodes(self, rect) -> np.ndarray:
        """Counter-clockwise boundary nodes, first corner (x0, y0)."""
        x0, x1, y0, y1 = rect
        xs = self._axis(x0, x1, self.origin.real, self.h.real)
        ys = self._axis(y0, y1, self.origin.imag, self.h.imag)
        return np.concatenate(
            [
                xs[:-1] + 1j * y0,
                x1 + 1j * ys[:-1],
                xs[:0:-1] + 1j * y1,
                x0 + 1j * ys[:0:-1],
            ]
        )

    def _values(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phases and logarithmic derivatives of det H_N at zs."""
        keys = zs.tolist()
        new = [z for z in dict.fromkeys(keys) if z not in self._cache]
        if new:
            phase, slope = det_phase_and_log_derivative(self.spec, self.N, new)
            self._cache.update(zip(new, zip(phase.tolist(), slope.tolist())))
        phase, slope = zip(*(self._cache[z] for z in keys))
        return np.array(phase), np.array(slope)

    def winding(self, rect) -> int:
        """Zeros of det H_N inside rect, with multiplicity."""
        a = self.nodes(rect)
        b = np.roll(a, -1)
        total = 0.0
        while a.size:
            (pa, ga), (pb, gb) = self._values(a), self._values(b)
            if np.any(pa == 0.0) or np.any(pb == 0.0):
                raise IterationError("det H_N vanishes exactly on a search contour")
            turn = np.angle(pb / pa)
            resolved = (np.abs(turn) <= _MAX_PHASE_STEP) & (
                np.abs(b - a) * np.maximum(np.abs(ga), np.abs(gb)) <= 1.0
            )
            total += float(np.sum(turn[resolved]))
            a, b = a[~resolved], b[~resolved]
            short = np.abs(b - a) < self.min_step
            if np.any(short):
                raise IterationError(
                    "det H_N has a zero within "
                    f"{self.min_step:.1e} of a search contour near "
                    f"{complex(a[short][0]):.6g}"
                )
            mid = 0.5 * (a + b)
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        return round(total / (2.0 * math.pi))

    def split(self, cell, m: int):
        """Halve cell across its longer side (in lattice steps).

        Returns the two halves with their zero counts.  The cut sits off
        centre, and moves when it runs through a zero, so that the
        roots of real systems on Im = 0 or mid-strip never lie on it.
        """
        x0, x1, y0, y1 = cell
        across_re = (x1 - x0) / self.h.real >= (y1 - y0) / self.h.imag
        for frac in _SPLITS:
            if across_re:
                xm = x0 + frac * (x1 - x0)
                low, high = (x0, xm, y0, y1), (xm, x1, y0, y1)
            else:
                ym = y0 + frac * (y1 - y0)
                low, high = (x0, x1, y0, ym), (x0, x1, ym, y1)
            try:
                k = self.winding(low)
            except IterationError:
                continue
            if not 0 <= k <= m:
                raise IterationError(
                    f"zero counts do not add up: {k} of {m} in one half of a cell"
                )
            return (low, k), (high, m - k)
        raise IterationError(f"no cut of the cell {cell} avoids the zeros of det H_N")


def _contour_rect(spec: SystemSpec, N: int, strip, n_re: int, n_im: int):
    """The rectangle the zeros are counted in, or None when a cut crosses it.

    det H_N is analytic off the branch cuts Re lam <= 0, Im lam = k omega
    (|k| <= N).  The rectangle extends the strip by half a lattice step
    on every side, so that roots on the strip's own edges lie inside it.
    A strip that starts at Re >= 0 is counted from Re = _BRANCH_GAP,
    clear of the branch points i k omega on Re = 0.
    """
    re0, re1, im0, im1 = strip
    pad_re = 0.5 * (re1 - re0) / (n_re - 1)
    pad_im = 0.5 * (im1 - im0) / (n_im - 1)
    y0, y1 = im0 - pad_im, im1 + pad_im
    if re0 >= 0.0:
        x0 = max(re0 - pad_re, _BRANCH_GAP)
        return (x0, max(re1 + pad_re, 2.0 * x0), y0, y1)
    k_lo = max(-N, math.ceil(y0 / spec.omega))
    k_hi = min(N, math.floor(y1 / spec.omega))
    if k_lo <= k_hi:
        return None
    return (re0 - pad_re, re1 + pad_re, y0, y1)


def _contour_route(search: _Search, rect, n_re: int, n_im: int, re0: float):
    """Count the zeros in rect, then refine them one cell each.

    Returns (count, roots): the roots before the strip filter, plus any
    exact root on a branch point that the contour steps around.  Raises
    IterationError when the refinement cannot account for every zero
    counted, so the roots returned are all the zeros in rect.
    """
    spec, N = search.spec, search.N
    x0, x1, y0, y1 = rect
    walk = _PhaseWalk(
        spec,
        N,
        complex(x0, y0),
        complex((x1 - x0) / (n_re - 1), (y1 - y0) / (n_im - 1)),
        1e-13 * max(1.0, x1 - x0, y1 - y0),
    )
    nodes = walk.nodes(rect)
    branch = np.zeros(0, dtype=complex)
    if re0 <= 0.0 < x0:
        ks = np.arange(-N, N + 1)
        branch = 1j * spec.omega * ks[(y0 <= ks * spec.omega) & (ks * spec.omega <= y1)]
    sigma = sigma_min_grid(spec, N, np.concatenate([nodes, branch]))
    if np.any(sigma[: nodes.size] < search.tol):
        at = complex(nodes[int(np.argmin(sigma[: nodes.size]))])
        raise IterationError(
            f"det H_N has a zero on the search contour near {at:.6g}; move the strip"
        )
    count = walk.winding(rect)
    roots = []
    found = 0
    cells = [(rect, count)] if count else []
    while cells:
        cell, m = cells.pop()
        cx0, cx1, cy0, cy1 = cell
        tiny = max(cx1 - cx0, cy1 - cy0) < _DEDUPE_RADIUS
        if m == 1 or tiny:
            wide = (
                cx0 - 0.5 * (cx1 - cx0),
                cx1 + 0.5 * (cx1 - cx0),
                cy0 - 0.5 * (cy1 - cy0),
                cy1 + 0.5 * (cy1 - cy0),
            )
            centre = complex(0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1))
            hit = search.refine(centre, m, wide, target=cell)
            if hit is not None:
                roots.append(hit)
                found += m
                continue
            if tiny:
                continue
        cells.extend(half for half in walk.split(cell, m) if half[1])
    if found != count:
        raise IterationError(
            f"counted {count} zeros of det H_N in {rect} but refined {found}"
        )
    # the marginal case: a root exactly at a branch point on Re = 0
    for lam, s in zip(branch, sigma[nodes.size :]):
        if s < search.tol:
            _, v = sigma_min_and_nullvector(assemble(spec, N, lam))
            roots.append((complex(lam), float(s), v))
    return count, roots


def _scan_route(search: _Search, strip, n_re: int, n_im: int):
    """Newton from every low local minimum of sigma_min on the lattice.

    The route for strips crossed by a branch cut, where the phase of
    det H_N jumps and counts nothing; its roots are not certified.
    """
    spec, N = search.spec, search.N
    re0, re1, im0, im1 = strip
    res = np.linspace(re0, re1, n_re)
    ims = np.linspace(im0, im1, n_im)
    lams = res[None, :] + 1j * ims[:, None]
    sig = sigma_min_grid(spec, N, lams.ravel()).reshape(lams.shape)
    coarse = 0.5 * float(np.max(sig))
    seeds = np.argwhere(_local_minima(sig) & (sig <= coarse))
    order = np.argsort(sig[seeds[:, 0], seeds[:, 1]], kind="stable")
    h_re, h_im = res[1] - res[0], ims[1] - ims[0]
    box = (re0 - h_re, re1 + h_re, im0 - h_im, im1 + h_im)
    roots = []
    for i, j in seeds[order]:
        hit = search.refine(complex(lams[i, j]), 1, box)
        if hit is not None:
            roots.append(hit)
    return roots


def find_eigenvalues(
    spec: SystemSpec,
    N: int,
    strip: Optional[tuple[float, float, float, float]] = None,
    tol: float = 1e-9,
    grid_shape: tuple[int, int] = (101, 101),
) -> list[Eigenpair]:
    """Roots of det H_N(lam) = 0 inside a rectangle of the lam plane.

    The default strip is Re in [0, Gershgorin re_max], Im in
    (-omega/2, omega/2], one representative per group lam + i k omega.
    Every strip treats its imaginary interval as half-open, (im0, im1].

    Strips clear of the branch cuts {Re lam < 0, Im lam = k omega,
    |k| <= N} are certified; every strip with re0 >= 0 is one.  The
    zeros of det H_N in the strip, padded by half a lattice step, are
    counted as the winding of its phase around the edge; cells are
    bisected until each holds one zero, and Newton's trace iteration
    refines each from its cell centre.  A zero the refinement misses
    raises IterationError, so an empty list from such a strip means
    det H_N has no zero there.  A strip from Re = 0 is counted from
    Re = 1e-6, clear of the branch points i k omega on Re = 0; a root
    exactly on a branch point is still reported, as the marginal case.

    Strips that cross a cut are scanned instead: Newton runs from each
    low local minimum of sigma_min on a lattice, and an empty list
    means only that nothing was found there.

    grid_shape (n_re, n_im) sets the starting nodes: n_re along each
    side of the contour parallel to the real axis and n_im along each
    side parallel to the imaginary one, or the scan lattice on a strip
    that crosses a cut.  Either way roots are accepted on
    sigma_min < tol; det itself over- and underflows with N.
    """
    if strip is None:
        region = gershgorin(spec, N)
        re_hi = max(region.re_max, 10.0 * _DEDUPE_RADIUS)
        strip = (0.0, re_hi, -0.5 * spec.omega, 0.5 * spec.omega)
    re0, re1, im0, im1 = strip = tuple(map(float, strip))
    if not (re1 > re0 and im1 > im0):
        raise DomainError(f"search strip is empty: {strip}")
    n_re, n_im = (int(n) for n in grid_shape)
    if n_re < 2 or n_im < 2:
        raise DomainError(f"grid_shape needs at least 2 x 2 nodes, got {grid_shape}")
    search = _Search(spec=spec, N=int(N), tol=tol)
    rect = _contour_rect(spec, int(N), strip, n_re, n_im)
    if rect is None:
        route, count = "scan", None
        roots = _scan_route(search, strip, n_re, n_im)
    else:
        route = "contour"
        count, roots = _contour_route(search, rect, n_re, n_im, re0)

    # the imaginary interval is half-open (im0, im1]: a root on the
    # lower edge is the group partner of one on the upper edge and
    # must not be reported twice from a one-period strip
    inside = [
        root
        for root in roots
        if re0 - _STRIP_SLACK <= root[0].real <= re1 + _STRIP_SLACK
        and im0 + _STRIP_SLACK < root[0].imag <= im1 + _STRIP_SLACK
    ]
    search.rejected["strip"] = len(roots) - len(inside)

    # deterministic order, then collapse duplicates onto the best member
    inside.sort(key=lambda root: (root[0].real, root[0].imag))
    accepted: list = []
    for root in inside:
        for idx, kept in enumerate(accepted):
            if abs(root[0] - kept[0]) <= _DEDUPE_RADIUS:
                if root[1] < kept[1]:
                    accepted[idx] = root
                search.rejected["dedupe"] += 1
                break
        else:
            accepted.append(root)

    log.info(
        "find_eigenvalues route=%s N=%d strip=%s counted=%s returned=%d "
        "newton_iterations=%s rejected_tol=%d rejected_strip=%d rejected_dedupe=%d",
        route,
        search.N,
        ":".join(f"{x:.6g}" for x in strip),
        "-" if count is None else count,
        len(accepted),
        ",".join(map(str, search.iterations)) or "-",
        search.rejected["tol"],
        search.rejected["strip"],
        search.rejected["dedupe"],
    )
    return [
        Eigenpair(
            lam=lam,
            residual=sigma,
            p=v,
            N=search.N,
            classification=VALID_FLOQUET if lam.real >= 0.0 else INVALID_NEGATIVE_RE,
        )
        for lam, sigma, v in accepted
    ]


@dataclass(frozen=True)
class LtiEigenvalue:
    """One characteristic root mu of the LTI problem and its verdict.

    case a: |arg mu| < alpha pi/2, exponential solution with
    s = mu^(1/alpha), Re s > 0 (instability).  case b: the preimage
    exists but Re s < 0, so the exponential ansatz is invalid.  case c:
    no preimage under the principal power.  boundary: |arg mu| within
    1e-10 of alpha pi/2, the non-hyperbolic case, left unclassified.
    """

    mu: complex
    case: str
    s: Optional[complex]


@dataclass(frozen=True)
class LtiClassification:
    alpha: float
    entries: tuple[LtiEigenvalue, ...]

    @property
    def cases(self) -> tuple[str, ...]:
        return tuple(e.case for e in self.entries)


_BOUNDARY_TOL = 1e-10


def _inverse_principal(mu: complex, alpha: float) -> complex:
    """The unique s with s^alpha = mu, defined for |arg mu| <= alpha pi."""
    return abs(mu) ** (1.0 / alpha) * complex(
        math.cos(np.angle(mu) / alpha), math.sin(np.angle(mu) / alpha)
    )


def classify_lti(A, alpha: float) -> LtiClassification:
    """Sort the eigenvalues of a real matrix A by the sector test.

    The characteristic roots mu of D^a u = A u admit an exponential
    solution e^{st} with s^alpha = mu only when |arg mu| < alpha pi/2;
    the sector alpha pi/2 < |arg mu| <= alpha pi has a preimage with
    negative real part (invalid ansatz) and beyond alpha pi there is no
    preimage at all.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"classify_lti requires alpha in (0, 1), got {alpha}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"matrix must be square, got shape {A.shape}")
    entries = []
    for mu in np.linalg.eigvals(A):
        mu = complex(mu)
        theta = abs(np.angle(mu))
        if mu == 0.0 or abs(theta - 0.5 * alpha * math.pi) < _BOUNDARY_TOL:
            entries.append(LtiEigenvalue(mu=mu, case="boundary", s=None))
        elif theta < 0.5 * alpha * math.pi:
            entries.append(
                LtiEigenvalue(mu=mu, case="a", s=_inverse_principal(mu, alpha))
            )
        elif theta <= alpha * math.pi:
            entries.append(
                LtiEigenvalue(mu=mu, case="b", s=_inverse_principal(mu, alpha))
            )
        else:
            entries.append(LtiEigenvalue(mu=mu, case="c", s=None))
    return LtiClassification(alpha=float(alpha), entries=tuple(entries))


def _fourier_blocks(ep: Eigenpair, dim: int) -> np.ndarray:
    """p reshaped to (2N+1, dim): row j holds p_{j-N}."""
    expect = dim * (2 * ep.N + 1)
    if ep.p.shape != (expect,):
        raise DomainError(
            f"null vector has {ep.p.shape} entries, expected ({expect},)"
        )
    return ep.p.reshape(2 * ep.N + 1, dim)


def reconstruct_floquet(
    ep: Eigenpair, spec: SystemSpec, times
) -> Trajectory:
    """The complex trajectory y(t) = e^{lam t} sum_k p_k e^{i k omega t}.

    A single eigenpair yields a complex solution; form 2 Re(y) via
    floquet_real_combination when its conjugate partner is also a root.
    """
    if ep.classification != VALID_FLOQUET:
        raise DomainError(
            "reconstruction requires a valid-floquet eigenpair, got "
            f"{ep.classification}"
        )
    times = np.asarray(times, dtype=float)
    blocks = _fourier_blocks(ep, spec.dim)
    ks = np.arange(-ep.N, ep.N + 1)
    phases = np.exp(
        (ep.lam + 1j * spec.omega * ks)[None, :] * times[:, None]
    )
    values = phases @ blocks
    dt = float(times[1] - times[0]) if times.size > 1 else 0.0
    return Trajectory(
        times=times, values=values, scheme="floquet-form", dt=dt
    )


def floquet_real_combination(
    ep: Eigenpair, spec: SystemSpec, times
) -> Trajectory:
    """2 Re(y), the real solution carried by a conjugate eigenpair."""
    tr = reconstruct_floquet(ep, spec, times)
    return Trajectory(
        times=tr.times,
        values=2.0 * tr.values.real,
        scheme=tr.scheme,
        dt=tr.dt,
    )


def compare_floquet(
    ep: Eigenpair,
    spec: SystemSpec,
    t_end: float,
    dt: float,
    forcing_method: str = "auto",
) -> tuple[Trajectory, Trajectory, float]:
    """The marched and the reconstructed trajectory, and their max relative gap.

    The reconstructed solution on t <= 0 becomes the history of a
    Liouville-Weyl initial value problem; its trajectory is then
    marched independently and compared against e^{lam t} p(t) on the
    shared grid.  Relative error uses max(1, |y_Hill|) per node.
    """
    if ep.classification != VALID_FLOQUET:
        raise DomainError(
            "verification requires a valid-floquet eigenpair, got "
            f"{ep.classification}"
        )
    blocks = _fourier_blocks(ep, spec.dim)
    coeffs = {
        int(k): blocks[j]
        for j, k in enumerate(range(-ep.N, ep.N + 1))
        if np.any(blocks[j] != 0.0)
    }
    history = FloquetForm(lam=ep.lam, omega=spec.omega, coeffs=coeffs)
    sim = solve_liouville_weyl(
        spec, history, t_end, dt, forcing_method=forcing_method
    )
    hill = reconstruct_floquet(ep, spec, sim.times)
    diff = np.linalg.norm(sim.values - hill.values, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(hill.values, axis=1))
    return sim, hill, float(np.max(diff / scale))


def verify_floquet(
    ep: Eigenpair,
    spec: SystemSpec,
    t_end: float,
    dt: float,
    forcing_method: str = "auto",
) -> float:
    """Max relative gap between the Floquet form and a simulated run
    (see :func:`compare_floquet`)."""
    return compare_floquet(ep, spec, t_end, dt, forcing_method)[2]
