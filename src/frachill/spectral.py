"""Eigenvalue machinery around the fractional Hill problem.

Four services: Gershgorin localization of the nonlinear eigenvalues,
the eigenvalue search itself, classification of LTI characteristic
roots by the principal-power sector, and reconstruction plus
simulation cross-checks of Floquet-form solutions y = e^{lt} p(t).

The search counts the zeros of det H_N in a strip with the argument
principle (Delves & Lyness 1967) and refines each with Newton's trace
iteration (Guettel & Tisseur 2017, Acta Numerica, section 4), started
from the same contour's moment (1/2 pi i) contour integral of
lam d log det, which for a cell with one zero is that zero.  A contour
step too coarse for the det phase, or for the distance to the nearest
zero, is cut in one round into as many equal pieces as its two ends
ask for, 2 to _MAX_PIECES.  One _Band serves every det call of a
search.  det H_N is analytic off the branch cuts
{Re <= 0, Im = k omega}, so a strip that a cut crosses is counted in
cut-free rectangles: one right of Re = 0 and bands between
consecutive cuts left of it.  Every strip is
certified except the slivers |Re| < 1e-6, and |Im - k omega| < 1e-6
where Re < 0: the roots returned are all the zeros of det H_N in the
strip outside them, so an empty list certifies that none exist there.
A zero within 1e-13 times the rectangle scale of a counting contour
raises IterationError instead.  FRACHILL_LOG=info logs one line per
search: route, rectangles counted, sliver half-width, zeros counted,
roots returned, Newton iterations per root, the seeds rejected by
tol, strip and dedupe, and the det calls with the lambdas they took.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from frachill.errors import DomainError, IterationError
from frachill.hill import (
    _Band,
    _band_det,
    _truncation_order,
    assemble,
    det_phase_and_log_derivative,
    sigma_min_and_nullvector,
    sigma_min_grid,  # unused here; the bench tracer asserts this binding
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
# counting rectangles keep this far from Re = 0, where the branch points
# of the shifts (lam + i r omega)^alpha lie, and, where Re < 0, from the
# branch cuts Im = k omega
_BRANCH_GAP = _STRIP_SLACK
# a contour step whose det phase turns by more than this is subdivided
_MAX_PHASE_STEP = 0.25 * math.pi
# an unresolved contour step is cut into 2.._MAX_PIECES equal pieces
_MAX_PIECES = 8
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
    N = _truncation_order(N)
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


def _inside(lam: complex, box) -> bool:
    x0, x1, y0, y1 = box
    return x0 <= lam.real <= x1 and y0 <= lam.imag <= y1


def _newton(spec: SystemSpec, N: int, lam: complex, mult: int, box, det=None):
    """Newton's trace iteration lam <- lam - mult / tr(H^-1 H').

    tr(H^-1 H') is the logarithmic derivative of det H_N; mult > 1 keeps
    the convergence quadratic at a root of that multiplicity.  Iterates
    stop when the step falls to _NEWTON_STEP_TOL relative, or once a
    step below 1e-10 relative no longer halves: that is the rounding
    floor of an ill-conditioned H.  Returns (lam, iterations), or None
    once an iterate leaves box or the step is not finite.  An exactly
    singular H means the iterate is a root.  det(lams) gives the det
    phases and log derivatives, det_phase_and_log_derivative of spec
    and N by default; a search passes its own _Search.det.
    """
    if det is None:
        det = functools.partial(det_phase_and_log_derivative, spec, N)
    last = math.inf
    for it in range(1, _NEWTON_MAXITER + 1):
        phase, slope = det([lam])
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
    det_calls: int = 0
    det_nodes: int = 0
    band: _Band = field(init=False, repr=False)

    def __post_init__(self):
        self.band = _Band(self.spec, self.N)

    def det(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """det_phase_and_log_derivative on the search's one _Band, counted."""
        self.det_calls += 1
        self.det_nodes += len(lams)
        return _band_det(self.band, lams)

    def refine(self, lam: complex, mult: int, box, target=None):
        """Newton from lam; (lam, sigma_min, null vector) if accepted.

        lam is the cell's contour moment where it lies in the cell, else
        the cell centre (see _contour_route).  Accepted means
        sigma_min < tol and, when a target cell is given, a converged
        point inside it.
        """
        hit = _newton(self.spec, self.N, lam, mult, box, self.det)
        if hit is not None and (target is None or _inside(hit[0], target)):
            sigma, v = sigma_min_and_nullvector(assemble(self.spec, self.N, hit[0]))
            if sigma < self.tol:
                self.iterations.append(hit[1])
                return hit[0], sigma, v
        self.rejected["tol"] += 1
        return None


class _PhaseWalk:
    """Winding numbers and root moments of det H_N around rectangles.

    A rectangle's edges start with the corners and every node of the
    starting lattice (origin, spacing h) that lies on them, so that a
    cell shares the nodes, and the subdivisions, of its parent's edges.
    A step is subdivided while the det phase turns by more than
    _MAX_PHASE_STEP across it, or while it is longer than the distance
    to the nearest zero that 1/|g| estimates at either end, g = d log
    det/d lam; the second test catches zeros that lie close to a long
    step, whose turns a coarse phase sample would alias.  An unresolved
    step is cut into as many equal pieces as its own turn and reach ask
    for, 2 to _MAX_PIECES, so that a child cell walks its parent's steps
    again from the cache.  All steps of one sweep are evaluated in one
    stacked call, through the search's det.
    """

    def __init__(self, search: _Search, origin: complex, h: complex, min_step: float):
        self.det = search.det
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
            phase, slope = self.det(new)
            self._cache.update(zip(new, zip(phase.tolist(), slope.tolist())))
        phase, slope = zip(*(self._cache[z] for z in keys))
        return np.array(phase), np.array(slope)

    @staticmethod
    def _pieces(a: np.ndarray, b: np.ndarray, k: np.ndarray):
        """Step (a, b) cut into k equal pieces; the last one ends on b exactly."""
        first = np.cumsum(k) - k
        step = np.repeat(np.arange(len(k)), k)
        j = np.arange(len(step)) - first[step]
        starts = a[step] + (b - a)[step] * (j / k[step])
        ends = np.roll(starts, -1)
        ends[first + k - 1] = b
        return starts, ends

    def winding(self, rect) -> tuple[int, complex]:
        """Zeros of det H_N inside rect, with multiplicity, and their sum.

        The sum is the moment (1/2 pi i) contour integral of lam g dlam
        (Delves & Lyness 1967), taken by the trapezoid rule over the
        resolved steps: for one zero it is that zero, to the accuracy of
        the steps that resolve its phase.
        """
        a = self.nodes(rect)
        b = np.roll(a, -1)
        total, moment = 0.0, 0j
        while a.size:
            (pa, ga), (pb, gb) = self._values(a), self._values(b)
            if np.any(pa == 0.0) or np.any(pb == 0.0):
                raise IterationError("det H_N vanishes exactly on a search contour")
            turn = np.angle(pb / pa)
            reach = np.abs(b - a) * np.maximum(np.abs(ga), np.abs(gb))
            resolved = (np.abs(turn) <= _MAX_PHASE_STEP) & (reach <= 1.0)
            total += float(np.sum(turn[resolved]))
            moment += complex(
                np.sum((0.5 * (b - a) * (a * ga + b * gb))[resolved])
            )
            a, b = a[~resolved], b[~resolved]
            short = np.abs(b - a) < self.min_step
            if np.any(short):
                raise IterationError(
                    "det H_N has a zero within "
                    f"{self.min_step:.1e} of a search contour near "
                    f"{complex(a[short][0]):.6g}"
                )
            # fmax/fmin read a NaN estimate as the fewest pieces
            want = np.ceil(np.maximum(np.abs(turn) / _MAX_PHASE_STEP, reach))
            want = want[~resolved]
            k = np.fmin(np.fmax(want, 2.0), _MAX_PIECES).astype(int)
            a, b = self._pieces(a, b, k)
        return round(total / (2.0 * math.pi)), moment / (2j * math.pi)

    def split(self, cell, m: int, moment: complex):
        """Halve cell across its longer side (in lattice steps).

        Returns the two halves with their zero counts and moments (see
        winding).  Only the low half is walked: counts and moments add
        up over the halves, so the high half gets what the low half
        leaves of the cell's.  The cut sits off centre, and moves when it
        runs through a zero, so that the roots of real systems on Im = 0
        or mid-strip never lie on it.
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
                k, low_moment = self.winding(low)
            except IterationError:
                continue
            if not 0 <= k <= m:
                raise IterationError(
                    f"zero counts do not add up: {k} of {m} in one half of a cell"
                )
            return (low, k, low_moment), (high, m - k, moment - low_moment)
        raise IterationError(f"no cut of the cell {cell} avoids the zeros of det H_N")


def _rectangles(spec: SystemSpec, N: int, box, re0: float):
    """Cut-free rectangles covering box, and the half-width of what they leave out.

    det H_N is analytic off the branch cuts Re lam <= 0, Im lam = k omega
    (|k| <= N).  A box that starts at Re >= 0 is one rectangle from
    Re = _BRANCH_GAP, clear of the branch points i k omega on Re = 0;
    a box that no cut crosses is one rectangle.  A box that a cut
    crosses splits into a rectangle right of Re = _BRANCH_GAP and bands
    left of Re = -_BRANCH_GAP between consecutive cuts, each
    _BRANCH_GAP clear of them.  The sliver half-width is 0 when the
    rectangles cover the whole box.
    """
    x0, x1, y0, y1 = box
    gap = _BRANCH_GAP
    if re0 >= 0.0:
        left = max(x0, gap)
        return [(left, max(x1, 2.0 * left), y0, y1)], (gap if left > x0 else 0.0)
    k_lo = max(-N, math.ceil(y0 / spec.omega))
    k_hi = min(N, math.floor(y1 / spec.omega))
    if k_lo > k_hi:
        return [box], 0.0
    cuts = [k * spec.omega for k in range(k_lo, k_hi + 1)]
    lows = [y0] + [cut + gap for cut in cuts]
    highs = [cut - gap for cut in cuts] + [y1]
    rects = [(gap, x1, y0, y1)]
    rects += [(x0, min(x1, -gap), lo, hi) for lo, hi in zip(lows, highs)]
    return [r for r in rects if r[0] < r[1] and r[2] < r[3]], gap


def _contour_route(search: _Search, walk: _PhaseWalk, rect):
    """Count the zeros in rect, then refine them one cell each.

    Each cell carries its count m and moment M (see _PhaseWalk.winding);
    Newton starts from M / m, the mean of the cell's zeros, when that
    lies in the cell, and from the cell centre otherwise.  Returns
    (count, roots), the roots before the strip filter.  Raises
    IterationError when the refinement cannot account for every zero
    counted, so the roots returned are all the zeros in rect.
    """
    count, moment = walk.winding(rect)
    roots = []
    found = 0
    cells = [(rect, count, moment)] if count else []
    while cells:
        cell, m, moment = cells.pop()
        cx0, cx1, cy0, cy1 = cell
        tiny = max(cx1 - cx0, cy1 - cy0) < _DEDUPE_RADIUS
        if m == 1 or tiny:
            wide = (
                cx0 - 0.5 * (cx1 - cx0),
                cx1 + 0.5 * (cx1 - cx0),
                cy0 - 0.5 * (cy1 - cy0),
                cy1 + 0.5 * (cy1 - cy0),
            )
            start = moment / m
            if not (cmath.isfinite(start) and _inside(start, cell)):
                start = complex(0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1))
            hit = search.refine(start, m, wide, target=cell)
            if hit is not None:
                roots.append(hit)
                found += m
                continue
            if tiny:
                continue
        cells.extend(half for half in walk.split(cell, m, moment) if half[1])
    if found != count:
        raise IterationError(
            f"counted {count} zeros of det H_N in {rect} but refined {found}"
        )
    return count, roots


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

    The zeros of det H_N in the strip, padded by half a lattice step,
    are counted as the winding of its phase around the edge of each
    rectangle that no branch cut {Re lam <= 0, Im lam = k omega,
    |k| <= N} crosses: the whole padded strip when no cut crosses it,
    else one rectangle right of Re = 1e-6 and bands left of Re = -1e-6
    between consecutive cuts, 1e-6 clear of them.  Cells are bisected
    until each holds one zero, and Newton's trace iteration refines
    each from its cell's contour moment, or from the cell centre when
    the moment falls outside the cell.  A zero the refinement misses,
    or one within 1e-13 times the rectangle scale of a contour, raises
    IterationError.  So every strip is certified except the slivers
    |Re lam| < 1e-6, and |Im lam - k omega| < 1e-6 where Re lam < 0: an
    empty list means det H_N has no zero in the strip outside them.  A
    root exactly on a branch point i k omega is still reported, as the
    marginal case.

    grid_shape (n_re, n_im) sets the starting lattice of the contours,
    n_re by n_im nodes spanning the one rectangle, or the padded strip
    when it is split; each edge starts from the lattice nodes on it.
    Roots are accepted on
    sigma_min < tol, 0 < tol < inf; det itself over- and underflows
    with N.  The strip must be finite.  Roots come back sorted by real
    part rounded to 1e-10, then by imaginary part, so that a change in
    the last bits of a root moves its digits, not its row.
    """
    N = _truncation_order(N)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if strip is None:
        region = gershgorin(spec, N)
        re_hi = max(region.re_max, 10.0 * _DEDUPE_RADIUS)
        strip = (0.0, re_hi, -0.5 * spec.omega, 0.5 * spec.omega)
    re0, re1, im0, im1 = strip = tuple(map(float, strip))
    if not (-math.inf < re0 < re1 < math.inf and -math.inf < im0 < im1 < math.inf):
        raise DomainError(f"search strip must be finite and non-empty: {strip}")
    n_re, n_im = (int(n) for n in grid_shape)
    if n_re < 2 or n_im < 2:
        raise DomainError(f"grid_shape needs at least 2 x 2 nodes, got {grid_shape}")
    search = _Search(spec=spec, N=N, tol=tol)
    pad_re = 0.5 * (re1 - re0) / (n_re - 1)
    pad_im = 0.5 * (im1 - im0) / (n_im - 1)
    box = (re0 - pad_re, re1 + pad_re, im0 - pad_im, im1 + pad_im)
    rects, sliver = _rectangles(spec, N, box, re0)
    # one starting lattice, over the rectangle or over the padded strip
    # that the rectangles split, so that narrow bands get few nodes
    x0, x1, y0, y1 = rects[0] if len(rects) == 1 else box
    walk = _PhaseWalk(
        search,
        complex(x0, y0),
        complex((x1 - x0) / (n_re - 1), (y1 - y0) / (n_im - 1)),
        1e-13 * max(1.0, x1 - x0, y1 - y0),
    )
    count, roots = 0, []
    for rect in rects:
        found, hits = _contour_route(search, walk, rect)
        count += found
        roots += hits
    # the marginal case: a root exactly at a branch point on Re = 0,
    # which the rectangles step around
    if sliver and re0 <= 0.0 <= box[1]:
        for k in range(-N, N + 1):
            lam = 1j * spec.omega * k
            if box[2] <= lam.imag <= box[3]:
                matrix = assemble(spec, N, lam)
                try:
                    sigma = np.linalg.svd(matrix.matrix, compute_uv=False)[-1]
                except np.linalg.LinAlgError as exc:
                    raise IterationError(f"singular value decomposition failed: {exc}")
                # the null vector only for a root: sigma_min alone is cheaper
                if sigma < tol:
                    sigma, v = sigma_min_and_nullvector(matrix)
                    if sigma < tol:
                        roots.append((lam, sigma, v))

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

    # deterministic order, then collapse duplicates onto the best member;
    # group partners lam + i k omega share Re lam up to rounding, which
    # must not decide their order
    inside.sort(key=lambda root: (round(root[0].real, 10), root[0].imag))
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
        "find_eigenvalues route=contour N=%d strip=%s rects=%d sliver=%.3g "
        "counted=%d returned=%d newton_iterations=%s rejected_tol=%d "
        "rejected_strip=%d rejected_dedupe=%d det_calls=%d:%d",
        search.N,
        ":".join(f"{x:.6g}" for x in strip),
        len(rects),
        sliver,
        count,
        len(accepted),
        ",".join(map(str, search.iterations)) or "-",
        search.rejected["tol"],
        search.rejected["strip"],
        search.rejected["dedupe"],
        search.det_calls,
        search.det_nodes,
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
    ep: Eigenpair, spec: SystemSpec, t_end: float, dt: float
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
    sim = solve_liouville_weyl(spec, history, t_end, dt)
    hill = reconstruct_floquet(ep, spec, sim.times)
    diff = np.linalg.norm(sim.values - hill.values, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(hill.values, axis=1))
    return sim, hill, float(np.max(diff / scale))


def verify_floquet(ep: Eigenpair, spec: SystemSpec, t_end: float, dt: float) -> float:
    """Max relative gap between the Floquet form and a simulated run
    (see :func:`compare_floquet`)."""
    return compare_floquet(ep, spec, t_end, dt)[2]
