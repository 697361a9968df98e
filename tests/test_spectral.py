"""Tests for eigenvalue search, localization, classification, Floquet forms."""

import cmath
import logging
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as Gamma

from frachill import spectral
from frachill.errors import DomainError, IterationError
from frachill.hill import assemble, sigma_min_and_nullvector
from frachill.spectral import (
    INVALID_NEGATIVE_RE,
    VALID_FLOQUET,
    Eigenpair,
    classify_lti,
    find_eigenvalues,
    floquet_real_combination,
    gershgorin,
    reconstruct_floquet,
    verify_floquet,
)
from frachill.system import make_system, principal_power


def periodic_spec(b, alpha=0.5):
    """Scalar J(t) = -1 + b sin(t) as exponential coefficients."""
    return make_system(alpha, 1.0, {0: [[-1.0]], 1: [[-0.5j * b]]})


def constant_spec(a, alpha=0.5):
    return make_system(alpha, 1.0, {0: [[a]]})


def rotation_block(rho, theta):
    """rho times a rotation; eigenvalues rho e^{+-i theta}."""
    c, s = rho * math.cos(theta), rho * math.sin(theta)
    return [[c, s], [-s, c]]


# regression values frozen after the first converged runs of the solver
UNSTABLE_LAM = 0.108241373276464  # b=2.5, N=20
VERIFY_LAM = 0.013376542581224  # b=2.2, N=10
# the reproduce fig5_eigs_mathieu.csv roots as the sigma_min scan found them
MATHIEU_LAMS = [
    complex(-0.32010657663554826, 1.5000000000000002),
    complex(-0.32010657663554809, -1.5000000000000002),
    complex(-0.32010657663554809, 2.5),
    complex(-0.32010657663554798, -0.50000000000000022),
    complex(-0.32010657663554781, 0.49999999999999989),
    complex(0.5564274968070263, -0.50000000000000022),
    complex(0.55642749680702641, 0.50000000000000022),
    complex(0.55642749680702686, 1.4999999999999998),
    complex(0.55642749680702697, -1.5000000000000007),
    complex(0.55642749680702774, 2.4999999999999996),
]

# the reproduce fig5_eigs_scalar.csv roots (b = 2.5, N = 20, strip
# 0:4:-2.5:2.5) as the centre-started Newton refinement found them
FIG5_SCALAR_LAMS = [
    complex(0.10824137327646058, -2.0),
    complex(0.1082413732764603, -0.99999999999999989),
    complex(0.10824137327646048, -2.3526289759910901e-16),
    complex(0.10824137327646056, 1.0),
    complex(0.10824137327646038, 2.0),
]


class TestGershgorin:
    def test_center_row_radius(self):
        # row sum 1 + 0.5 + 0.5 = 2, ball radius 2^(1/alpha) = 4
        region = gershgorin(periodic_spec(1.0), 20)
        assert region.re_max == pytest.approx(4.0, abs=1e-14)
        assert region.radii[20] == pytest.approx(4.0, abs=1e-14)

    def test_edge_rows_smaller(self):
        # the extreme rows miss one sideband: (1 + 0.5)^2 = 2.25
        region = gershgorin(periodic_spec(1.0), 20)
        assert region.radii[0] == pytest.approx(2.25, abs=1e-14)
        assert region.radii[-1] == pytest.approx(2.25, abs=1e-14)

    def test_zero_system(self):
        region = gershgorin(make_system(0.5, 1.0, {0: [[0.0]]}), 3)
        assert np.all(region.radii == 0.0)
        assert region.re_max == 0.0

    def test_constant_scalar_uniform_radii(self):
        a, alpha = -1.5, 0.4
        region = gershgorin(constant_spec(a, alpha), 4)
        expected = abs(a) ** (1.0 / alpha)
        assert np.allclose(region.radii, expected, rtol=1e-14)
        assert np.array_equal(region.centers, 1j * np.arange(-4, 5))

    def test_radii_symmetric(self):
        region = gershgorin(periodic_spec(2.5), 7)
        assert np.allclose(region.radii, region.radii[::-1], rtol=1e-14)

    def test_distance_and_covers(self):
        region = gershgorin(periodic_spec(1.0), 5)
        assert region.covers(0.0 + 0.0j)
        assert region.covers(3.9 + 0.1j)
        assert not region.covers(10.0 + 0.0j)
        assert region.distance(5.0 + 0.0j) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_truncation_order(self):
        with pytest.raises(DomainError):
            gershgorin(periodic_spec(1.0), -2)


class TestFindEigenvalues:
    def test_stable_example_empty(self):
        assert find_eigenvalues(periodic_spec(1.0), 20) == []

    def test_unstable_example_root(self):
        pairs = find_eigenvalues(periodic_spec(2.5), 20)
        assert len(pairs) == 1
        ep = pairs[0]
        assert ep.lam.real == pytest.approx(UNSTABLE_LAM, abs=1e-9)
        assert abs(ep.lam.imag) < 1e-9
        assert ep.residual < 1e-9
        assert ep.classification == VALID_FLOQUET
        assert np.linalg.norm(ep.p) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_convergence(self):
        lam10 = find_eigenvalues(periodic_spec(2.5), 10)[0].lam
        lam20 = find_eigenvalues(periodic_spec(2.5), 20)[0].lam
        assert abs(lam10 - lam20) < 1e-6

    def test_constant_block_exact_root(self):
        # a - lam^alpha = 0 at lam = a^2; the center block is singular
        spec = constant_spec(2.0)
        pairs = find_eigenvalues(spec, 5, strip=(0.0, 5.0, -0.5, 0.5))
        assert len(pairs) == 1
        ep = pairs[0]
        assert abs(ep.lam - 4.0) < 1e-10
        assert ep.residual <= 1e-12
        j = int(np.argmax(np.abs(ep.p)))
        assert j == 5 * spec.dim
        assert ep.p[j] == pytest.approx(1.0 + 0.0j, abs=1e-10)
        assert np.linalg.norm(np.delete(ep.p, j)) < 1e-10

    def test_conjugate_pair_in_strip(self):
        # eigenvalues mu = 1.1 e^{+-i pi/8} map to mu^2, whose group
        # representatives mu^2 -+ i omega fall inside the default strip
        spec = make_system(0.5, 1.0, {0: rotation_block(1.1, math.pi / 8)})
        pairs = find_eigenvalues(spec, 8)
        assert len(pairs) == 2
        mu = 1.1 * cmath.exp(1j * math.pi / 8)
        expected = sorted(
            [mu * mu - 1j, (mu * mu).conjugate() + 1j], key=lambda z: z.imag
        )
        got = sorted([ep.lam for ep in pairs], key=lambda z: z.imag)
        for lam, ref in zip(got, expected):
            assert abs(lam - ref) < 1e-9
        assert all(ep.classification == VALID_FLOQUET for ep in pairs)

    def test_negative_re_roots_classified(self):
        # mu in the sector alpha pi/2 < |arg mu| <= alpha pi has a
        # preimage with negative real part; the search must label it
        spec = make_system(0.5, 1.0, {0: rotation_block(0.9, 3 * math.pi / 8)})
        pairs = find_eigenvalues(spec, 8, strip=(-1.0, 0.0, 0.4, 0.7))
        assert len(pairs) >= 1
        mu = 0.9 * cmath.exp(3j * math.pi / 8)
        assert any(abs(ep.lam - mu * mu) < 1e-9 for ep in pairs)
        for ep in pairs:
            assert ep.lam.real < 0.0
            assert ep.classification == INVALID_NEGATIVE_RE

    def test_results_sorted(self):
        # by Re rounded to 1e-10, then Im: the real parts of this conjugate
        # pair differ in the last bit, which must not decide the order
        spec = make_system(0.5, 1.0, {0: rotation_block(1.1, math.pi / 8)})
        pairs = find_eigenvalues(spec, 8)
        keys = [(round(ep.lam.real, 10), ep.lam.imag) for ep in pairs]
        assert keys == sorted(keys)
        assert [ep.lam.imag > 0.0 for ep in pairs] == [False, True]

    def test_empty_strip_raises(self):
        with pytest.raises(DomainError):
            find_eigenvalues(periodic_spec(1.0), 5, strip=(1.0, 1.0, -0.5, 0.5))

    @pytest.mark.parametrize("strip", [(0.0, math.inf, -0.5, 0.5), (0.0, 1.0, -0.5, math.inf)])
    def test_non_finite_strip_raises(self, strip):
        with pytest.raises(DomainError):
            find_eigenvalues(periodic_spec(1.0), 5, strip=strip)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_tol_raises(self, tol):
        # tol = inf would accept the branch point 0 as a marginal root
        with pytest.raises(DomainError):
            find_eigenvalues(periodic_spec(2.5), 5, tol=tol)

    def test_null_vector_must_be_unit(self):
        with pytest.raises(DomainError):
            Eigenpair(
                lam=1.0,
                residual=0.0,
                p=np.zeros(3, dtype=complex),
                N=1,
                classification=VALID_FLOQUET,
            )

    def test_unknown_classification_rejected(self):
        with pytest.raises(DomainError):
            Eigenpair(
                lam=1.0,
                residual=0.0,
                p=np.array([0.0, 1.0, 0.0], dtype=complex),
                N=1,
                classification="maybe",
            )


def search_log(caplog) -> dict:
    """Fields of the last find_eigenvalues log line."""
    line = [r.getMessage() for r in caplog.records if r.name == "frachill.spectral"][-1]
    return dict(f.split("=", 1) for f in line.split()[1:])


class TestCertifiedSearch:
    """Pitfalls of counting zeros on a contour and refining with Newton."""

    @pytest.fixture(autouse=True)
    def _info(self, caplog):
        caplog.set_level(logging.INFO, logger="frachill.spectral")

    def test_root_on_right_edge(self, caplog):
        # a^(1/alpha) is exactly the Gershgorin re_max, the strip's right edge
        spec = constant_spec(2.0)
        assert gershgorin(spec, 5).re_max == 4.0
        pairs = find_eigenvalues(spec, 5)
        assert len(pairs) == 1
        assert abs(pairs[0].lam - 4.0) < 1e-12
        fields = search_log(caplog)
        assert fields["route"] == "contour"
        assert fields["counted"] == "1" and fields["returned"] == "1"

    def test_roots_on_both_imaginary_edges(self, caplog):
        # real coefficients put partner roots on Im = -1/2 and Im = +1/2;
        # the padded contour counts both, the half-open strip keeps one
        spec = make_system(
            0.9,
            1.0,
            {0: [[0.0, 1.0], [0.787278, 0.0]], 1: [[0.0, 0.0], [-0.5j * 1.67977, 0.0]]},
        )
        pairs = find_eigenvalues(spec, 10)
        assert len(pairs) == 1
        lam = pairs[0].lam
        assert lam.real == pytest.approx(0.35776, abs=1e-4)
        assert lam.imag == pytest.approx(0.5, abs=1e-10)
        partner, _ = sigma_min_and_nullvector(assemble(spec, 10, lam - 1j))
        assert partner < 1e-9
        fields = search_log(caplog)
        assert fields["counted"] == "2"
        assert fields["returned"] == "1"
        assert fields["rejected_strip"] == "1"

    def test_root_next_to_branch_point(self):
        # lam = 0 is a branch point on the left edge of the default strip
        pairs = find_eigenvalues(periodic_spec(2.06727, alpha=0.3), 10)
        assert len(pairs) == 1
        assert pairs[0].lam.real == pytest.approx(0.0077424, abs=1e-7)
        assert abs(pairs[0].lam.imag) < 1e-12
        assert pairs[0].residual < 1e-9

    def test_root_on_branch_point_is_marginal(self, caplog):
        # J = 0: det H_N vanishes only at the branch points i k omega
        pairs = find_eigenvalues(make_system(0.5, 1.0, {0: [[0.0]]}), 3)
        assert [ep.lam for ep in pairs] == [0.0]
        assert pairs[0].classification == VALID_FLOQUET
        assert search_log(caplog)["counted"] == "0"

    def test_root_just_inside_the_counting_contour(self, caplog):
        # lam = a^2 = 1.000001e-6 lies 1e-12 right of the contour's left
        # edge Re = 1e-6; only the phase walk judges zeros near it
        pairs = find_eigenvalues(constant_spec(math.sqrt(1e-6 + 1e-12)), 5)
        assert len(pairs) == 1
        assert abs(pairs[0].lam - 1.000001e-6) < 1e-15
        assert search_log(caplog)["counted"] == "1"

    @pytest.mark.parametrize("offset", [0.0, 1e-14])
    def test_root_on_the_counting_contour_raises(self, offset):
        # a zero on the contour, or closer to it than 1e-13 times the
        # strip scale, cannot be counted
        with pytest.raises(IterationError):
            find_eigenvalues(constant_spec(math.sqrt(1e-6 + offset)), 5)

    def test_contour_route_scans_no_sigma_min(self, monkeypatch, caplog):
        def no_scan(*args):
            raise AssertionError("the contour route must not scan sigma_min")

        monkeypatch.setattr(spectral, "sigma_min_grid", no_scan)
        pairs = find_eigenvalues(periodic_spec(2.5), 20)
        assert len(pairs) == 1
        assert pairs[0].lam.real == pytest.approx(UNSTABLE_LAM, abs=1e-9)
        assert search_log(caplog)["route"] == "contour"

    def test_exactly_singular_newton_iterate(self):
        # H_5(4) has an exact zero pivot for a = 2, alpha = 1/2
        spec = constant_spec(2.0)
        box = (3.0, 5.0, -0.5, 0.5)
        assert spectral._newton(spec, 5, 4.0 + 0.0j, 1, box) == (4.0, 1)
        # the strip is centred on the root, so the search starts there
        pairs = find_eigenvalues(spec, 5, strip=box)
        assert [ep.lam for ep in pairs] == [4.0]

    def test_zeros_close_to_a_long_step(self, caplog):
        # alpha = 0.2 stretches the default strip to Re ~ 684, so the
        # starting nodes lie ~7 apart; the phase turns of the zeros that
        # pass close under one step cancel unless steps are also kept
        # shorter than the distance to the nearest zero
        c, d = 0.5634983870786718, 2.6896215711480025
        spec = make_system(
            0.2, 1.0, {0: [[0.0, 1.0], [c, 0.0]], 1: [[0.0, 0.0], [-0.5j * d, 0.0]]}
        )
        pairs = find_eigenvalues(spec, 10)
        assert search_log(caplog)["counted"] == "5"
        lams = [ep.lam for ep in pairs]
        expected = [
            1.8520676396869 - 0.2418897674658j,
            1.8520676396869 + 0.2418897674658j,
            4.8238477742163,
            7.8329355053472,
            10.835693331690,
        ]
        assert len(lams) == len(expected)
        for ref in expected:
            assert min(abs(lam - ref) for lam in lams) < 1e-9

    def test_double_root_counts_twice(self, caplog):
        # a Jordan block puts a zero of multiplicity 2 at a^(1/alpha)
        spec = make_system(0.5, 1.0, {0: [[2.0, 1.0], [0.0, 2.0]]})
        pairs = find_eigenvalues(spec, 5)
        assert len(pairs) == 1
        assert abs(pairs[0].lam - 4.0) < 1e-10
        fields = search_log(caplog)
        assert fields["counted"] == "2" and fields["returned"] == "1"

    def test_count_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_newton", lambda *args: None)
        with pytest.raises(IterationError):
            find_eigenvalues(periodic_spec(2.5), 20)

    def test_empty_list_is_a_count(self, caplog):
        assert find_eigenvalues(periodic_spec(1.0), 20) == []
        fields = search_log(caplog)
        assert fields["route"] == "contour" and fields["counted"] == "0"

    def test_route_follows_the_cuts(self, caplog):
        spec = make_system(0.5, 1.0, {0: rotation_block(0.9, 3 * math.pi / 8)})
        # Re < 0 between the cuts on Im = 0 and Im = 1: one rectangle
        between = find_eigenvalues(spec, 8, strip=(-1.0, 0.0, 0.4, 0.7))
        fields = search_log(caplog)
        assert fields["route"] == "contour" and fields["counted"] == "2"
        assert fields["rects"] == "1" and fields["sliver"] == "0"
        # the cut on Im = 0 crosses this strip: counted right of Re = 0
        # and in the bands below and above the cut
        across = find_eigenvalues(
            spec, 8, strip=(-1.0, 0.0, -0.3, 0.7), grid_shape=(21, 21)
        )
        fields = search_log(caplog)
        assert fields["route"] == "contour" and fields["counted"] == "2"
        assert fields["rects"] == "3" and fields["sliver"] == "1e-06"
        assert len(across) == len(between) == 2
        for ep, ref in zip(across, between):
            assert abs(ep.lam - ref.lam) < 1e-12

    def test_cut_crossing_strip_is_counted(self, monkeypatch, caplog):
        # the reproduce fig5 Mathieu strip crosses the cuts Im = -2..2
        def no_scan(*args):
            raise AssertionError("no strip scans sigma_min")

        monkeypatch.setattr(spectral, "sigma_min_grid", no_scan)
        spec = make_system(
            0.9, 1.0, {0: [[0.0, 1.0], [1.0, 0.0]], 1: [[0.0, 0.0], [-1.0j, 0.0]]}
        )
        pairs = find_eigenvalues(spec, 10, strip=(-3.0, 3.0, -2.5, 2.5))
        fields = search_log(caplog)
        assert fields["rects"] == "7" and fields["sliver"] == "1e-06"
        assert fields["counted"] == "12" and fields["returned"] == "10"
        assert len(pairs) == len(MATHIEU_LAMS)
        for ref in MATHIEU_LAMS:
            assert min(abs(ep.lam - ref) for ep in pairs) <= 1e-12

    def test_root_in_a_sliver_is_not_returned(self, caplog):
        # lam = (1e-4)^2 = 1e-8 is a root within 1e-6 of Re = 0 on a strip
        # that the cut Im = 0 crosses: no rectangle holds it
        spec = constant_spec(1e-4)
        sigma, _ = sigma_min_and_nullvector(assemble(spec, 5, 1e-8))
        assert sigma < 1e-9
        assert find_eigenvalues(spec, 5, strip=(-1.0, 1.0, -0.5, 0.5)) == []
        fields = search_log(caplog)
        assert fields["rects"] == "3" and fields["sliver"] == "1e-06"
        assert fields["counted"] == "0"

    def test_grid_shape_validation(self):
        with pytest.raises(DomainError):
            find_eigenvalues(periodic_spec(1.0), 5, grid_shape=(1, 9))


class TestContourMoments:
    """Newton starts from each cell's contour moment; steps split k ways."""

    @pytest.fixture(autouse=True)
    def _info(self, caplog):
        caplog.set_level(logging.INFO, logger="frachill.spectral")

    def test_root_next_to_branch_point_takes_one_newton_run(self, caplog):
        # the root lam ~ 0.00774 is far from the centre of the default
        # strip [0, ~22]; from the centre, Newton runs were rejected 18
        # times before the cells got small enough
        spec = periodic_spec(2.06727, alpha=0.3)
        pairs = find_eigenvalues(spec, 10)
        fields = search_log(caplog)
        assert fields["counted"] == "1" and fields["returned"] == "1"
        assert fields["rejected_tol"] == "0"
        assert "," not in fields["newton_iterations"]
        calls, nodes = map(int, fields["det_calls"].split(":"))
        assert 0 < calls <= nodes
        box = (0.005, 0.01, -0.0025, 0.0025)
        hit = spectral._newton(spec, 10, 0.0075 + 0.0j, 1, box)
        assert hit is not None
        assert abs(pairs[0].lam - hit[0]) <= 1e-12

    @pytest.fixture
    def starts(self, monkeypatch):
        """(start, target cell) of every Newton run the search makes."""
        seen = []
        refine = spectral._Search.refine

        def spy(self, lam, mult, box, target=None):
            seen.append((lam, target))
            return refine(self, lam, mult, box, target)

        monkeypatch.setattr(spectral._Search, "refine", spy)
        return seen

    def test_moment_outside_its_cell_falls_back_to_the_centre(self, starts, monkeypatch):
        winding = spectral._PhaseWalk.winding
        monkeypatch.setattr(
            spectral._PhaseWalk,
            "winding",
            lambda self, rect: (winding(self, rect)[0], complex(1e6, 1e6)),
        )
        pairs = find_eigenvalues(periodic_spec(2.5), 20)
        assert len(pairs) == 1
        assert pairs[0].lam.real == pytest.approx(UNSTABLE_LAM, abs=1e-9)
        assert starts
        for lam, (x0, x1, y0, y1) in starts:
            assert lam == complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))

    def test_moment_inside_its_cell_is_the_start(self, starts):
        pairs = find_eigenvalues(periodic_spec(2.5), 20)
        assert len(starts) == 1
        lam, cell = starts[0]
        assert spectral._inside(lam, cell)
        assert abs(lam - pairs[0].lam) < 1e-3

    def test_subdivided_steps_end_exactly_on_b(self):
        a = np.array([0.1 + 0.3j, 1.0 / 3.0 - 0.7j, 2.0 + 1.0j / 7.0, -0.9 + 0.0j])
        b = np.array([0.7 + 0.3j, 1.0 / 3.0 + 0.1j, 1.0 / 11.0 + 1.0j / 7.0, 0.3 - 0.4j])
        k = np.array([2, 3, 7, 8])
        starts, ends = spectral._PhaseWalk._pieces(a, b, k)
        assert len(starts) == len(ends) == k.sum()
        first = np.cumsum(k) - k
        last = first + k - 1
        np.testing.assert_array_equal(starts[first], a)
        np.testing.assert_array_equal(ends[last], b)
        inner = np.setdiff1d(np.arange(k.sum()), last)
        np.testing.assert_array_equal(ends[inner], starts[inner + 1])
        # equal pieces, each a k-th of its step
        widths = np.abs(ends - starts)
        np.testing.assert_allclose(widths, np.repeat(np.abs(b - a) / k, k), rtol=1e-12)

    def test_child_cell_reuses_its_parents_edges(self, monkeypatch):
        spec, N = periodic_spec(2.5), 20
        search = spectral._Search(spec=spec, N=N, tol=1e-9)
        origin, h = complex(0.01, -0.5), complex(0.099, 0.1)
        walk = spectral._PhaseWalk(search, origin, h, 1e-13)
        parent = (0.01, 0.01 + 10 * 0.099, -0.5, 0.5)
        assert walk.winding(parent)[0] == 1
        seen = []
        band_det = spectral._band_det

        def record(band, lams):
            seen.extend(lams)
            return band_det(band, lams)

        monkeypatch.setattr(spectral, "_band_det", record)
        # the child's left, top and bottom edges are steps of the
        # parent's; only its new right edge needs det
        x1 = 3 * h.real + origin.real
        count, moment = walk.winding((0.01, x1, -0.5, 0.5))
        assert count == 1
        assert abs(moment - UNSTABLE_LAM) < 1e-3
        assert seen
        assert all(z.real == x1 for z in seen)

    @pytest.mark.parametrize(
        "spec,N,strip,expected",
        [
            (periodic_spec(2.5), 20, (0.0, 4.0, -2.5, 2.5), FIG5_SCALAR_LAMS),
            (
                make_system(
                    0.9, 1.0, {0: [[0.0, 1.0], [1.0, 0.0]], 1: [[0.0, 0.0], [-1.0j, 0.0]]}
                ),
                10,
                (-3.0, 3.0, -2.5, 2.5),
                MATHIEU_LAMS,
            ),
        ],
        ids=["scalar", "mathieu"],
    )
    def test_fig5_roots_unchanged(self, spec, N, strip, expected):
        lams = [ep.lam for ep in find_eigenvalues(spec, N, strip=strip)]
        assert len(lams) == len(expected)
        for ref in expected:
            assert min(abs(lam - ref) for lam in lams) <= 1e-12


class TestClassifyLti:
    def test_positive_real_axis(self):
        cl = classify_lti([[1.0]], 0.5)
        (entry,) = cl.entries
        assert entry.case == "a"
        assert entry.s == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_negative_real_axis_no_preimage(self):
        cl = classify_lti([[-1.0]], 0.5)
        (entry,) = cl.entries
        assert entry.case == "c"
        assert entry.s is None

    def test_rotation_matrix_boundary(self):
        # eigenvalues e^{+-i alpha pi/2} sit exactly on the sector edge
        cl = classify_lti(rotation_block(1.0, math.pi / 4), 0.5)
        assert cl.cases == ("boundary", "boundary")
        assert all(e.s is None for e in cl.entries)

    def test_middle_sector_negative_preimage(self):
        cl = classify_lti(rotation_block(0.9, 3 * math.pi / 8), 0.5)
        assert cl.cases == ("b", "b")
        for entry in cl.entries:
            assert entry.s is not None
            assert entry.s.real < 0.0
            assert abs(principal_power(entry.s, 0.5) - entry.mu) < 1e-12

    def test_zero_eigenvalue_is_boundary(self):
        cl = classify_lti([[0.0]], 0.5)
        assert cl.cases == ("boundary",)

    def test_case_invariants_random(self):
        rng = np.random.default_rng(11)
        alpha = 0.6
        for _ in range(50):
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            for entry in classify_lti(A, alpha).entries:
                theta = abs(np.angle(entry.mu)) if entry.mu != 0 else None
                if entry.case == "a":
                    assert entry.s.real > 0.0
                    assert theta < 0.5 * alpha * math.pi
                elif entry.case == "b":
                    assert entry.s.real < 0.0
                    assert 0.5 * alpha * math.pi < theta <= alpha * math.pi
                elif entry.case == "c":
                    assert entry.s is None
                    assert theta > alpha * math.pi
                if entry.s is not None:
                    rt = principal_power(entry.s, alpha)
                    assert abs(rt - entry.mu) < 1e-10 * max(1.0, abs(entry.mu))

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            classify_lti([[1.0]], 1.0)

    def test_square_validation(self):
        with pytest.raises(DomainError):
            classify_lti([[1.0, 2.0]], 0.5)


class TestReconstructFloquet:
    def test_constant_mode(self):
        ep = Eigenpair(
            lam=0.0,
            residual=0.0,
            p=np.array([0.0, 1.0, 0.0], dtype=complex),
            N=1,
            classification=VALID_FLOQUET,
        )
        spec = constant_spec(0.5)
        tr = reconstruct_floquet(ep, spec, np.linspace(0.0, 3.0, 7))
        assert np.allclose(tr.values, 1.0, atol=1e-15)

    def test_constant_block_pure_exponential(self):
        spec = constant_spec(2.0)
        ep = find_eigenvalues(spec, 5, strip=(0.0, 5.0, -0.5, 0.5))[0]
        # the ansatz satisfies the equation identically: lam^alpha = a
        assert principal_power(ep.lam, spec.alpha) == pytest.approx(
            2.0 + 0.0j, abs=1e-10
        )
        times = np.linspace(0.0, 2.0, 21)
        tr = reconstruct_floquet(ep, spec, times)
        expected = np.exp(ep.lam * times)
        assert np.allclose(tr.values[:, 0], expected, rtol=1e-10)

    def test_verify_example_regression(self):
        spec = periodic_spec(2.2)
        ep = find_eigenvalues(spec, 10)[0]
        assert ep.lam.real == pytest.approx(VERIFY_LAM, abs=1e-9)
        times = np.linspace(0.0, 4.0 * math.pi, 9)
        tr = reconstruct_floquet(ep, spec, times)
        y0 = tr.values[0, 0]
        y1 = tr.values[4, 0]
        assert y0.real == pytest.approx(0.129229749270628, abs=1e-9)
        assert y1.real == pytest.approx(0.140560657018933, abs=1e-9)
        assert abs(y0.imag) < 1e-9 and abs(y1.imag) < 1e-9
        # one period multiplies the envelope by e^{2 pi lam}
        assert y1 / y0 == pytest.approx(
            cmath.exp(2.0 * math.pi * ep.lam), rel=1e-9
        )

    def test_negative_re_rejected(self):
        ep = Eigenpair(
            lam=-0.5 + 0.5j,
            residual=0.0,
            p=np.array([0.0, 1.0, 0.0], dtype=complex),
            N=1,
            classification=INVALID_NEGATIVE_RE,
        )
        with pytest.raises(DomainError):
            reconstruct_floquet(ep, constant_spec(1.0), np.linspace(0, 1, 5))

    def test_wrong_vector_length_rejected(self):
        ep = Eigenpair(
            lam=0.5,
            residual=0.0,
            p=np.array([0.0, 1.0, 0.0], dtype=complex),
            N=1,
            classification=VALID_FLOQUET,
        )
        spec = make_system(0.5, 1.0, {0: rotation_block(1.0, 0.1)})
        with pytest.raises(DomainError):
            reconstruct_floquet(ep, spec, np.linspace(0, 1, 5))

    def test_real_combination_doubles_real_part(self):
        spec = make_system(0.5, 1.0, {0: rotation_block(1.1, math.pi / 8)})
        ep = find_eigenvalues(spec, 8)[0]
        times = np.linspace(0.0, 2.0, 11)
        tr = reconstruct_floquet(ep, spec, times)
        real = floquet_real_combination(ep, spec, times)
        assert np.array_equal(real.values, 2.0 * tr.values.real)


class TestVerifyFloquet:
    def test_constant_block_integrator_error_only(self):
        spec = constant_spec(1.0)
        ep = find_eigenvalues(spec, 5, strip=(0.0, 2.0, -0.5, 0.5))[0]
        err = verify_floquet(ep, spec, 5.0, 1e-3)
        assert err <= 2e-3

    def test_periodic_example_two_periods(self):
        spec = periodic_spec(2.2)
        ep = find_eigenvalues(spec, 10)[0]
        err = verify_floquet(ep, spec, 4.0 * math.pi, 1e-3)
        assert err <= 0.05
        # frozen after the first verified run; measured 1.38e-4
        assert err <= 1e-3

    def test_invalid_pair_rejected(self):
        ep = Eigenpair(
            lam=-0.5,
            residual=0.0,
            p=np.array([0.0, 1.0, 0.0], dtype=complex),
            N=1,
            classification=INVALID_NEGATIVE_RE,
        )
        with pytest.raises(DomainError):
            verify_floquet(ep, constant_spec(1.0), 1.0, 1e-2)


class TestSpectralProperties:
    def test_containment_in_gershgorin_region(self):
        for spec, N in [
            (periodic_spec(2.5), 20),
            (make_system(0.5, 1.0, {0: rotation_block(1.1, math.pi / 8)}), 8),
        ]:
            region = gershgorin(spec, N)
            for ep in find_eigenvalues(spec, N):
                assert region.distance(ep.lam) <= 1e-8

    def test_conjugate_pairing(self):
        spec = make_system(0.5, 1.0, {0: rotation_block(1.1, math.pi / 8)})
        for ep in find_eigenvalues(spec, 8):
            if ep.lam.imag == 0.0:
                continue
            sigma, _ = sigma_min_and_nullvector(
                assemble(spec, 8, ep.lam.conjugate())
            )
            assert sigma <= 1e-8

    def test_group_shift_still_singular(self):
        spec = periodic_spec(2.5)
        ep = find_eigenvalues(spec, 20)[0]
        for k in (-1, 1):
            sigma, _ = sigma_min_and_nullvector(
                assemble(spec, 20, ep.lam + 1j * k * spec.omega)
            )
            assert sigma <= 1e-7

    def test_fundamental_strip_shift(self):
        spec = periodic_spec(2.5)
        base = find_eigenvalues(spec, 20)
        shifted = find_eigenvalues(spec, 20, strip=(0.0, 4.0, 0.5, 1.5))
        assert len(shifted) == len(base)
        for ep, shifted_ep in zip(base, shifted):
            assert abs(shifted_ep.lam - (ep.lam + 1j)) < 1e-6

    def test_ansatz_identity_by_quadrature(self):
        # the infinite-memory derivative of e^{lam t} with Re lam >= 0
        # equals lam^alpha e^{lam t}; check by direct weighted quadrature
        rng = np.random.default_rng(7)
        alpha, t = 0.5, 1.0
        for _ in range(10):
            lam = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
            span = 40.0 / lam.real

            def integrand_re(tau):
                return (lam * cmath.exp(lam * tau)).real

            def integrand_im(tau):
                return (lam * cmath.exp(lam * tau)).imag

            re, _ = quad(
                integrand_re, t - span, t, weight="alg",
                wvar=(0.0, -alpha), limit=400,
            )
            im, _ = quad(
                integrand_im, t - span, t, weight="alg",
                wvar=(0.0, -alpha), limit=400,
            )
            lhs = complex(re, im) / Gamma(1.0 - alpha)
            rhs = principal_power(lam, alpha) * cmath.exp(lam * t)
            assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
