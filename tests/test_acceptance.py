"""Release gate for the assembled package.

One test per shipped guarantee, in the order the guarantees are listed
in the README. Every test prints a single PASS or FAIL line carrying
the measured quantities (run with ``pytest -s`` to see them inline),
then asserts. Tolerances are the frozen contract values; loosening any
of them is a release decision, not a test fix.
"""

import cmath
import math
import time

import numpy as np
import scipy.special as sp

from frachill.cli import reproduce_figures
from frachill.errors import SingularForcingError, UnboundedHistoryError
from frachill.history import (
    Constant,
    ExpGrowth,
    ForcingEvaluator,
    PiecewiseConstantRamp,
    Sampled,
    TruncatedSinusoid,
    forcing_bound_constant,
)
from frachill.hill import assemble, sigma_min_and_nullvector, sigma_min_grid
from frachill.integrator import (
    IvpProblem,
    solve_caputo,
    solve_liouville_weyl,
    voc_solution_scalar,
)
from frachill.specfun import mittag_leffler, reciprocal_gamma
from frachill.spectral import (
    INVALID_NEGATIVE_RE,
    VALID_FLOQUET,
    classify_lti,
    find_eigenvalues,
    gershgorin,
    verify_floquet,
)
from frachill.system import FractionalOrder, make_system


def _report(index: int, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} [{index}/9] {label}: {detail}"
    print(line)
    assert ok, line


def scalar_system(b: float, alpha: float = 0.5):
    """J(t) = -1 + b sin t as exponential Fourier coefficients."""
    return make_system(alpha, 1.0, {0: [[-1.0]], 1: [[-0.5j * b]]})


def test_stable_unstable_dichotomy():
    conds, parts = [], []
    for b, expect_unstable in ((1.0, False), (2.5, True)):
        start = time.perf_counter()
        spec = scalar_system(b)
        pairs = find_eigenvalues(spec, 20)
        tr = solve_liouville_weyl(spec, Constant(values=[1.0]), 50.0, 0.01)
        final = float(np.max(np.abs(tr.final)))
        elapsed = time.perf_counter() - start
        if expect_unstable:
            growing = [
                ep
                for ep in pairs
                if ep.lam.real > 0.0 and ep.residual < 1e-9
            ]
            conds += [len(growing) >= 1, final > 10.0, elapsed < 60.0]
            parts.append(
                f"b={b}: {len(growing)} growing root(s), "
                f"|y(50)|={final:.4g}, {elapsed:.1f}s"
            )
        else:
            nonneg = [ep for ep in pairs if ep.lam.real >= 0.0]
            conds += [len(nonneg) == 0, final < 0.1, elapsed < 60.0]
            parts.append(
                f"b={b}: no right-half-plane roots, "
                f"|y(50)|={final:.4g}, {elapsed:.1f}s"
            )
    _report(1, "stable-unstable dichotomy", all(conds), "; ".join(parts))


def test_hill_reconstruction_matches_time_stepping():
    spec = scalar_system(2.2)
    pairs = [
        ep
        for ep in find_eigenvalues(spec, 10)
        if ep.classification == VALID_FLOQUET
    ]
    err = math.inf
    if pairs:
        err = verify_floquet(pairs[0], spec, 4.0 * math.pi, 1e-3)
    _report(
        2,
        "Hill reconstruction vs time stepping",
        bool(pairs) and err <= 0.05,
        f"max rel err {err:.3e} over two periods at dt=1e-3",
    )


def test_constant_coefficient_exactness_and_negative_branch():
    # a > 0 constant scalar: lambda = a^{1/alpha} is an exact root at
    # every truncation order
    spec = make_system(0.5, 1.0, {0: [[2.0]]})
    sigmas = {
        N: sigma_min_and_nullvector(assemble(spec, N, 4.0))[0]
        for N in (0, 5, 20)
    }
    exact_ok = all(s <= 1e-12 for s in sigmas.values())

    # rho R(theta) with alpha pi/2 < theta <= alpha pi: the preimage
    # exists but has negative real part, so the exponent is reported
    # and flagged as an invalid ansatz
    rho, theta = 0.9, 3.0 * math.pi / 8.0
    A = [
        [rho * math.cos(theta), -rho * math.sin(theta)],
        [rho * math.sin(theta), rho * math.cos(theta)],
    ]
    case_b = all(e.case == "b" for e in classify_lti(np.array(A), 0.5).entries)
    spec2 = make_system(0.5, 1.0, {0: A})
    pairs = find_eigenvalues(spec2, 5, strip=(-1.0, 0.0, 0.4, 0.7))
    s = rho**2 * cmath.exp(2j * theta)
    neg_ok = (
        len(pairs) >= 1
        and all(
            ep.lam.real < 0.0 and ep.classification == INVALID_NEGATIVE_RE
            for ep in pairs
        )
        and min(abs(ep.lam - s) for ep in pairs) <= 1e-9
    )
    _report(
        3,
        "constant-coefficient exactness",
        exact_ok and case_b and neg_ok,
        f"sigma_min(N=0,5,20)={max(sigmas.values()):.2e} max; "
        f"negative-exponent root within "
        f"{min(abs(ep.lam - s) for ep in pairs) if pairs else math.inf:.1e} "
        f"of {s:.4f}",
    )


def test_equilibrium_classifier_worked_cases():
    c = math.cos(math.pi / 4.0)
    matrices = [
        np.array([[1.0]]),
        np.array([[-1.0]]),
        np.array([[c, -c], [c, c]]),
    ]
    runs = [
        [
            [(e.mu, e.case, e.s) for e in classify_lti(A, 0.5).entries]
            for A in matrices
        ]
        for _ in range(2)
    ]
    pos, neg, rot = runs[0]
    conds = [
        pos[0][1] == "a" and abs(pos[0][2] - 1.0) <= 1e-12,
        neg[0][1] == "c" and neg[0][2] is None,
        all(case == "boundary" and s is None for _, case, s in rot),
        runs[0] == runs[1],
    ]
    _report(
        4,
        "equilibrium classifier worked cases",
        all(conds),
        f"cases {pos[0][1]}/{neg[0][1]}/"
        f"{rot[0][1]},{rot[1][1]}; two runs identical: {runs[0] == runs[1]}",
    )


def test_forcing_closed_forms_bounds_and_rejections():
    alpha = 0.5
    grid = np.linspace(0.0, 20.0, 41)
    ramp = PiecewiseConstantRamp(far_value=[1.0], ramp_start=-1.0)
    expo = ExpGrowth(rate=1.0, coefficient=[1.0])

    # quadrature route against the closed expressions written out
    # through an independent special-function library
    quad_r = ForcingEvaluator(ramp, alpha, method="quadrature")
    g2 = math.gamma(2.0 - alpha)
    worst_ramp = max(
        abs(
            quad_r.forcing(t)[0]
            - (t ** (1.0 - alpha) - (t + 1.0) ** (1.0 - alpha)) / g2
        )
        for t in grid
    )
    quad_e = ForcingEvaluator(expo, alpha, method="quadrature")
    worst_expo = max(
        abs(
            quad_e.forcing(t)[0]
            - math.exp(t) * float(sp.gammaincc(1.0 - alpha, t))
        )
        for t in grid
    )
    forms_ok = worst_ramp <= 1e-7 and worst_expo <= 1e-7

    bounds_ok = True
    for h in (ramp, expo):
        fe = ForcingEvaluator(h, alpha)
        C, eta = forcing_bound_constant(fe)
        cap = 2.0 * h.norm_inf() / math.gamma(1.0 - alpha)
        for t in grid:
            norm = float(np.linalg.norm(fe.forcing(t)))
            bounds_ok &= norm <= C * (t + eta) ** (-alpha) + 1e-8
            if t > 0.0:
                bounds_ok &= norm <= cap * t ** (-alpha) + 1e-8

    try:
        ExpGrowth(rate=-1.0, coefficient=[1.0])
        reject_expo = False
    except UnboundedHistoryError:
        reject_expo = True
    g = np.concatenate([[-2.0], -np.logspace(0, -12, 25), [0.0]])
    v = np.abs(g) ** 0.5
    v[0] = 1.0
    try:
        Sampled(grid=g, samples=v, tail_value=[1.0])
        reject_cusp = False
    except SingularForcingError:
        reject_cusp = True

    _report(
        5,
        "forcing closed forms, bounds, rejections",
        forms_ok and bounds_ok and reject_expo and reject_cusp,
        f"ramp dev {worst_ramp:.2e}, exp dev {worst_expo:.2e}, "
        f"bounds hold: {bounds_ok}, rejections: "
        f"{reject_expo and reject_cusp}",
    )


def test_algebraic_decay_exponent():
    start = time.perf_counter()
    h = TruncatedSinusoid(amplitude=[1.0], phase=math.pi / 4.0, frequency=1e-9)
    ts = np.logspace(2, 4, 9)
    slopes = {}
    for alpha in (0.3, 0.5, 0.7):
        us = np.array([voc_solution_scalar(-1.0, alpha, h, t) for t in ts])
        slopes[alpha] = float(
            np.polyfit(np.log(ts), np.log(np.abs(us)), 1)[0]
        )
    elapsed = time.perf_counter() - start
    ok = (
        all(abs(slopes[a] + a) <= 0.1 for a in slopes) and elapsed < 300.0
    )
    _report(
        6,
        "algebraic decay exponent",
        ok,
        "slopes "
        + ", ".join(f"{s:.3f} (target {-a})" for a, s in slopes.items())
        + f"; {elapsed:.1f}s",
    )


def test_solutions_bounded_by_three_history_norms():
    rng = np.random.default_rng(42)
    worst_ratio = 0.0
    ok = True
    for i in range(20):
        kind = i % 4
        if kind == 0:
            h = Constant(values=[float(rng.uniform(-2.0, 2.0))])
        elif kind == 1:
            h = TruncatedSinusoid(
                amplitude=[float(rng.uniform(0.5, 2.0))],
                phase=float(rng.uniform(0.0, 6.0)),
                frequency=float(rng.uniform(0.3, 3.0)),
            )
        elif kind == 2:
            h = ExpGrowth(
                rate=float(rng.uniform(0.2, 2.0)),
                coefficient=[float(rng.uniform(-2.0, 2.0))],
            )
        else:
            h = PiecewiseConstantRamp(
                far_value=[float(rng.uniform(-2.0, 2.0))],
                ramp_start=-float(rng.uniform(0.5, 3.0)),
            )
        tr = solve_liouville_weyl(lambda t, x: -x, h, 100.0, 0.05, alpha=0.5)
        peak = float(np.max(np.abs(tr.values)))
        bound = 3.0 * h.norm_inf() + 1e-3
        ok &= peak <= bound
        worst_ratio = max(worst_ratio, peak / bound)
    _report(
        7,
        "boundedness by three history norms",
        ok,
        f"20 random histories, worst peak/bound ratio {worst_ratio:.3f}",
    )


def test_property_suites():
    conds = []

    # special-function identities
    rng = np.random.default_rng(3)
    for re, im in rng.uniform(-20.0, 20.0, size=(40, 2)):
        z = complex(re, im * 0.6)
        conds.append(
            abs(mittag_leffler(1.0, 1.0, z) - cmath.exp(z))
            <= 1e-9 * max(1.0, abs(cmath.exp(z)))
        )
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        alpha = rng.uniform(0.3, 1.0)
        beta = rng.uniform(0.2, 2.5)
        if alpha + beta > 5.0:
            continue
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        lhs = mittag_leffler(alpha, beta, z)
        rhs = z * mittag_leffler(alpha, alpha + beta, z) + reciprocal_gamma(
            beta
        )
        conds.append(abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)))
        checked += 1
    for alpha in (0.3, 0.5, 0.8):
        vals = [
            mittag_leffler(alpha, alpha, -t).real
            for t in np.arange(0.0, 10.0 + 1e-12, 0.1)
        ]
        conds.append(all(b < a for a, b in zip(vals, vals[1:])))
        conds.append(all(v > 0.0 for v in vals))

    # Hill matrix structure
    spec = scalar_system(2.5)
    rng = np.random.default_rng(23)
    lams = rng.normal(size=100) + 1j * rng.normal(size=100)
    conds.append(
        bool(
            np.all(
                np.abs(
                    sigma_min_grid(spec, 6, lams)
                    - sigma_min_grid(spec, 6, np.conj(lams))
                )
                <= 1e-10
            )
        )
    )
    lam = 0.3 + 0.1j
    big = assemble(spec, 3, lam).matrix
    small = assemble(spec, 2, lam).matrix
    conds.append(bool(np.array_equal(big[1:-1, 1:-1], small)))

    # localization and group shift of found roots
    pairs = find_eigenvalues(spec, 20)
    region = gershgorin(spec, 20)
    conds.append(len(pairs) >= 1)
    conds.append(all(region.distance(ep.lam) <= 1e-8 for ep in pairs))
    shift_resid = max(
        sigma_min_and_nullvector(assemble(spec, 20, ep.lam + 1j))[0]
        for ep in pairs
    )
    conds.append(shift_resid <= 1e-7)

    # stepping scheme order on the relaxation oracle, measured past the
    # initial layer where the nominal rate min(2, 1+alpha) applies
    orders = {}
    for alpha in (0.3, 0.5, 0.7):
        errs = {}
        for dt in (1e-2, 5e-3):
            p = IvpProblem(
                order=FractionalOrder(alpha),
                rhs=lambda t, x: -x,
                initial=[1.0],
                t0=0.0,
                t_end=1.0,
                dt=dt,
            )
            tr = solve_caputo(p)
            exact = np.array(
                [
                    mittag_leffler(alpha, 1.0, -t**alpha).real
                    for t in tr.times
                ]
            )
            layer = tr.times >= 0.1
            errs[dt] = np.max(np.abs(tr.values[:, 0] - exact)[layer])
        orders[alpha] = math.log2(errs[1e-2] / errs[5e-3])
        conds.append(orders[alpha] >= min(2.0, 1.0 + alpha) - 0.3)

    _report(
        8,
        "property suites",
        all(conds),
        f"{sum(conds)}/{len(conds)} checks; shift residual "
        f"{shift_resid:.1e}; observed orders "
        + ", ".join(f"{o:.2f}" for o in orders.values()),
    )


def test_figure_pipeline_byte_identical(tmp_path):
    first = tmp_path / "run_a"
    second = tmp_path / "run_b"
    report_a = reproduce_figures(str(first))
    report_b = reproduce_figures(str(second))
    names_a = sorted(p.name for p in first.glob("*.csv"))
    names_b = sorted(p.name for p in second.glob("*.csv"))
    same_files = bool(names_a) and names_a == names_b
    same_bytes = same_files and all(
        (first / n).read_bytes() == (second / n).read_bytes()
        for n in names_a
    )
    same_report = report_a == report_b
    _report(
        9,
        "figure pipeline determinism",
        same_bytes and same_report,
        f"{len(names_a)} csv files byte-identical across two runs; "
        f"reports equal: {same_report}",
    )
