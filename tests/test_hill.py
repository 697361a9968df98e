"""Tests for Hill matrix assembly, determinants, and singular values."""

import math
import multiprocessing

import mpmath as mp
import numpy as np
import pytest

from frachill import hill
from frachill.errors import DomainError
from frachill.hill import (
    assemble,
    det_phase_and_log_derivative,
    evaluate_grid,
    sigma_min_and_nullvector,
    sigma_min_grid,
)
from frachill.spectral import find_eigenvalues, gershgorin
from frachill.system import make_system, principal_power


def constant_spec(a, alpha=0.5, omega=1.0):
    return make_system(alpha, omega, {0: [[a]]})


def periodic_spec(b, alpha=0.5):
    # scalar J(t) = -1 + b sin t
    return make_system(alpha, 1.0, {0: [[-1.0]], 1: [[-0.5j * b]]})


def coupled_k2_spec(alpha=0.7):
    # a 2 x 2 system with harmonics up to k = 2: blocks of order 4, and a
    # padded last block at every N
    return make_system(
        alpha,
        1.0,
        {
            0: [[0.0, 1.0], [-1.0, -0.2]],
            1: [[0.0, 0.0], [-0.5j, 0.0]],
            2: [[0.1j, 0.0], [0.0, -0.3]],
        },
    )


def dense_phase_and_log_derivative(spec, N, lams):
    """The dense reference: slogdet and inv of the whole H_N at each lambda."""
    rs = np.arange(-N, N + 1)
    phases, slopes = [], []
    for lam in lams:
        matrix = assemble(spec, N, lam).matrix
        w = lam + 1j * spec.omega * rs
        shift_slope = spec.alpha * principal_power(w, spec.alpha) / w
        phases.append(np.linalg.slogdet(matrix)[0])
        inv_diag = np.diagonal(np.linalg.inv(matrix))
        slopes.append(-np.sum(inv_diag * np.repeat(shift_slope, spec.dim)))
    return np.array(phases), np.array(slopes)


def mathieu_spec(c=1.0, d=2.0, alpha=1.0, omega=2.0):
    # companion form of y'' + (c + d sin(omega t)) y = 0
    return make_system(
        alpha,
        omega,
        {
            0: [[0.0, 1.0], [-c, 0.0]],
            1: [[0.0, 0.0], [-0.5j * d, 0.0]],
        },
    )


class TestPrincipalPowerGrid:
    def test_matches_scalar(self):
        # an array and each of its entries alone, against mpmath's
        # principal branch exp(alpha log w), 0^alpha = 0
        rng = np.random.default_rng(11)
        ws = rng.normal(size=50) + 1j * rng.normal(size=50)
        ws = np.concatenate(
            [ws, [0.0, -1.0, 4.0, 1j, -1j, complex(-2.0, 0.0)]]
        )
        for alpha in (0.3, 0.5, 0.9, 1.0):
            vec = principal_power(ws, alpha)
            ref = np.array(
                [0.0 if w == 0 else complex(mp.exp(alpha * mp.log(mp.mpc(w)))) for w in ws]
            )
            np.testing.assert_allclose(vec, ref, atol=1e-14)
            one_by_one = [principal_power(w, alpha) for w in ws]
            np.testing.assert_allclose(vec, one_by_one, rtol=0, atol=1e-15)

    def test_negative_real_axis_uses_upper_branch(self):
        out = principal_power(np.array([complex(-1.0, -0.0)]), 0.5)
        assert out[0] == pytest.approx(1j, abs=1e-15)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            principal_power(np.array([1.0 + 0j]), 1.5)


class TestAssemble:
    def test_constant_scalar_n1_is_diagonal(self):
        lam = 0.3 + 0.1j
        hm = assemble(constant_spec(2.0), 1, lam)
        expect = np.diag(
            [
                2.0 - principal_power(lam - 1j, 0.5),
                2.0 - principal_power(lam, 0.5),
                2.0 - principal_power(lam + 1j, 0.5),
            ]
        )
        np.testing.assert_allclose(hm.matrix, expect, atol=1e-14)

    def test_n0_single_block(self):
        spec = mathieu_spec(alpha=0.5)
        lam = 1.0 + 0.5j
        hm = assemble(spec, 0, lam)
        expect = spec.coeffs.coeff(0) - principal_power(lam, 0.5) * np.eye(2)
        np.testing.assert_allclose(hm.matrix, expect, atol=1e-14)

    def test_classical_limit_is_shifted_hill(self):
        spec = mathieu_spec()
        base = assemble(spec, 3, 0.0).matrix
        lam = 0.7 - 0.2j
        shifted = assemble(spec, 3, lam).matrix
        np.testing.assert_array_equal(
            shifted, base - lam * np.eye(base.shape[0])
        )

    def test_block_toeplitz_structure(self):
        spec = mathieu_spec(alpha=0.5)
        hm = assemble(spec, 2, 0.4 + 0.2j)
        n, N = 2, 2
        for r in range(-N, N + 1):
            for c in range(-N, N + 1):
                block = hm.matrix[
                    (r + N) * n : (r + N + 1) * n,
                    (c + N) * n : (c + N + 1) * n,
                ]
                expect = spec.coeffs.coeff(r - c).copy()
                if r == c:
                    expect -= principal_power(
                        0.4 + 0.2j + 1j * r * spec.omega, 0.5
                    ) * np.eye(n)
                np.testing.assert_allclose(block, expect, atol=1e-14)

    def test_truncation_nesting(self):
        spec = mathieu_spec(alpha=0.6)
        lam = 0.3 + 0.1j
        big = assemble(spec, 3, lam).matrix
        small = assemble(spec, 2, lam).matrix
        np.testing.assert_array_equal(big[2:-2, 2:-2], small)

    def test_size(self):
        hm = assemble(mathieu_spec(), 4, 0.0)
        assert hm.size == 2 * (2 * 4 + 1)

    def test_invalid_truncation_order(self):
        with pytest.raises(DomainError):
            assemble(constant_spec(1.0), -1, 0.0)

    @pytest.mark.parametrize("N", [2.5, -1, "3", math.nan])
    def test_every_entry_point_checks_the_order(self, N):
        spec = constant_spec(1.0)
        calls = [
            lambda: assemble(spec, N, 0.5),
            lambda: gershgorin(spec, N),
            lambda: sigma_min_grid(spec, N, [0.5]),
            lambda: evaluate_grid(spec, N, [0.5]),
            lambda: det_phase_and_log_derivative(spec, N, [0.5]),
            lambda: find_eigenvalues(spec, N, strip=(0.0, 2.0, -0.5, 0.5)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="truncation order"):
                call()

    def test_matrix_read_only(self):
        hm = assemble(constant_spec(1.0), 1, 0.0)
        with pytest.raises(ValueError):
            hm.matrix[0, 0] = 5.0


class TestLogAbsDet:
    """log|det| from evaluate_grid, the phase from det_phase_and_log_derivative."""

    def test_diagonal_closed_form(self):
        spec = constant_spec(2.0)
        logdet, _ = evaluate_grid(spec, 5, [0.0])
        closed = sum(
            math.log(abs(2.0 - principal_power(1j * k, 0.5)))
            for k in range(-5, 6)
        )
        assert logdet[0] == pytest.approx(closed, abs=1e-12)

    def test_exact_singularity_sentinel(self):
        # J_0 = 1, lambda = 1: the center diagonal entry is exactly zero
        spec = constant_spec(1.0)
        logdet, sigma = evaluate_grid(spec, 0, [1.0])
        phase, _ = det_phase_and_log_derivative(spec, 0, [1.0])
        assert logdet[0] == -np.inf
        assert phase[0] == 0.0
        assert sigma[0] == 0.0

    def test_classical_scalar(self):
        spec = constant_spec(3.0, alpha=1.0)
        lam = 0.5 + 0.25j
        logdet, _ = evaluate_grid(spec, 0, [lam])
        phase, _ = det_phase_and_log_derivative(spec, 0, [lam])
        assert logdet[0] == pytest.approx(math.log(abs(3.0 - lam)), abs=1e-14)
        assert abs(phase[0]) == pytest.approx(1.0, abs=1e-14)

    def test_phase_matches_determinant(self):
        spec = mathieu_spec(alpha=0.5)
        lam = 0.4 + 0.3j
        logdet, _ = evaluate_grid(spec, 1, [lam])
        phase, _ = det_phase_and_log_derivative(spec, 1, [lam])
        det = np.linalg.det(assemble(spec, 1, lam).matrix)
        np.testing.assert_allclose(phase[0] * math.exp(logdet[0]), det, rtol=1e-10)


class TestLogDerivative:
    def test_phase_matches_log_abs_det(self):
        spec = mathieu_spec(alpha=0.5)
        lams = [0.4 + 0.3j, 1.2 - 0.7j, 0.05 + 2.0j]
        phase, _ = det_phase_and_log_derivative(spec, 3, lams)
        for lam, ph in zip(lams, phase):
            det = np.linalg.det(assemble(spec, 3, lam).matrix)
            assert ph == pytest.approx(det / abs(det), abs=1e-12)

    def test_matches_difference_quotient(self):
        # d/dlam log det H_N against a central difference of log det
        spec = mathieu_spec(alpha=0.7)
        lam, h = 0.3 + 0.2j, 1e-6

        def log_det(z):
            sign, logabs = np.linalg.slogdet(assemble(spec, 4, z).matrix)
            return logabs + 1j * np.angle(sign)

        _, slope = det_phase_and_log_derivative(spec, 4, [lam])
        quotient = (log_det(lam + h) - log_det(lam - h)) / (2.0 * h)
        assert slope[0] == pytest.approx(quotient, rel=1e-7)

    def test_diagonal_closed_form(self):
        # det = prod (a - (lam + i k)^alpha), so the slope sums simple poles
        spec, alpha, lam = constant_spec(2.0), 0.5, 0.7 + 0.1j
        ws = [lam + 1j * k for k in range(-3, 4)]
        expected = sum(
            -alpha * principal_power(w, alpha) / w / (2.0 - principal_power(w, alpha))
            for w in ws
        )
        _, slope = det_phase_and_log_derivative(spec, 3, [lam])
        assert slope[0] == pytest.approx(expected, rel=1e-12)

    def test_exact_singularity(self):
        phase, slope = det_phase_and_log_derivative(constant_spec(1.0), 0, [1.0, 2.0])
        assert phase[0] == 0.0 and np.isinf(slope[0])
        assert abs(phase[1]) == pytest.approx(1.0) and np.isfinite(slope[1])


def _strip_nodes(seed, count, re, im):
    rng = np.random.default_rng(seed)
    return rng.uniform(*re, count) + 1j * rng.uniform(*im, count)


class TestBandedElimination:
    """det_phase_and_log_derivative against the dense slogdet + inv route."""

    @pytest.mark.parametrize(
        "spec,N,lams",
        [
            pytest.param(
                periodic_spec(2.5),
                N,
                _strip_nodes(N, 25, (0.0, 3.0), (-0.5, 0.5)),
                id=f"scalar-N{N}",
            )
            for N in (0, 1, 20, 80)
        ]
        + [
            pytest.param(
                mathieu_spec(alpha=0.5),
                10,
                _strip_nodes(5, 25, (0.0, 3.0), (-1.0, 1.0)),
                id="mathieu",
            ),
            pytest.param(
                coupled_k2_spec(),
                20,
                _strip_nodes(6, 25, (0.0, 3.0), (-0.5, 0.5)),
                id="k_max-2",
            ),
            pytest.param(
                constant_spec(2.0),
                20,
                _strip_nodes(7, 25, (0.0, 3.0), (-0.5, 0.5)),
                id="k_max-0",
            ),
            # Re < 0, one node in each band between the branch cuts
            # Im = k omega
            pytest.param(
                periodic_spec(2.5),
                20,
                _strip_nodes(8, 25, (-2.0, -0.1), (0.1, 0.9)) + 1j * np.arange(-12, 13),
                id="left-of-cuts",
            ),
        ],
    )
    def test_matches_dense_route(self, spec, N, lams):
        phase, slope = det_phase_and_log_derivative(spec, N, lams)
        ref_phase, ref_slope = dense_phase_and_log_derivative(spec, N, lams)
        np.testing.assert_allclose(phase, ref_phase, rtol=0, atol=1e-12)
        np.testing.assert_allclose(slope, ref_slope, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N", [0, 3, 20])
    def test_exact_zero_in_the_core(self, N):
        # J_0 = 1, lambda = 1 zeroes the r = 0 diagonal entry; every other
        # row is dominant and eliminated
        phase, slope = det_phase_and_log_derivative(constant_spec(1.0), N, [1.0, 2.0])
        assert phase[0] == 0.0 and slope[0] == complex(np.inf, 0.0)
        assert abs(phase[1]) == pytest.approx(1.0) and np.isfinite(slope[1])

    def test_core_holds_the_rows_that_are_not_dominant(self):
        # J = -1 + 2.5 sin t, alpha = 0.5, lambda = 0: |-1 - (i r)^0.5| > 2.5
        # from |r| = 3 on, so the core is r = -2..2
        band = hill._Band(periodic_spec(2.5), 20)
        lo, hi = hill._eliminate(band, *band.diagonals(np.array([0j])))[:2]
        assert (lo[0] - band.mid, hi[0] - band.mid) == (-2, 2)
        # every row of the constant J_0 = 2 is dominant: the core is the
        # block of r = 0 alone
        band = hill._Band(constant_spec(2.0), 20)
        lo, hi = hill._eliminate(band, *band.diagonals(np.array([0.3 + 0.1j])))[:2]
        assert lo[0] == hi[0] == band.mid

    def test_no_dominant_row_is_the_dense_route(self):
        # every row of J = -1 + 40 sin t fails the test at N = 3, so the
        # core is the whole matrix and the phase is slogdet's, bit for bit
        spec, lams = periodic_spec(40.0), np.array([0.3 + 0.2j, 1.5 - 0.4j])
        band = hill._Band(spec, 3)
        lo, hi = hill._eliminate(band, *band.diagonals(lams))[:2]
        assert list(lo) == [0, 0] and list(hi) == [band.B - 1] * 2
        phase, _ = det_phase_and_log_derivative(spec, 3, lams)
        for lam, ph in zip(lams, phase):
            assert ph == np.linalg.slogdet(assemble(spec, 3, lam).matrix)[0]

    @pytest.mark.parametrize(
        "spec", [periodic_spec(2.5), coupled_k2_spec()], ids=["scalar", "k_max-2"]
    )
    def test_each_lambda_on_its_own(self, spec, monkeypatch):
        # nodes with different cores, factored together, one at a time,
        # and in elimination passes of 3 nodes
        lams = np.concatenate(
            [
                _strip_nodes(9, 12, (0.0, 6.0), (-0.5, 0.5)),
                _strip_nodes(10, 6, (-2.0, -0.1), (0.1, 0.9)),
            ]
        )
        together = det_phase_and_log_derivative(spec, 20, lams)
        alone = [det_phase_and_log_derivative(spec, 20, [lam]) for lam in lams]
        band = hill._Band(spec, 20)
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 3 * 12 * band.order * band.s)
        passes = det_phase_and_log_derivative(spec, 20, lams)
        for k in range(2):
            np.testing.assert_array_equal(together[k], [one[k][0] for one in alone])
            np.testing.assert_array_equal(together[k], passes[k])

    @pytest.mark.parametrize("offset,bound", [(1e-6, 1e-9), (1e-9, 1e-6)])
    def test_phase_next_to_a_root_against_mpmath(self, offset, bound):
        # the near-singularity sits in the dense core: the phase keeps the
        # accuracy that the conditioning of H allows, like slogdet's
        spec, lam = periodic_spec(2.5), 0.108241373276464 + offset
        matrix = assemble(spec, 20, lam).matrix
        with mp.workdps(40):
            entries = [[mp.mpc(x.real, x.imag) for x in row] for row in matrix]
            det = mp.det(mp.matrix(entries))
            exact = complex(det / abs(det))
        phase, _ = det_phase_and_log_derivative(spec, 20, [lam])
        assert abs(phase[0] - exact) <= bound


class TestSigmaMin:
    def test_singular_center_null_vector(self):
        s, v = sigma_min_and_nullvector(assemble(constant_spec(1.0), 1, 1.0))
        assert s <= 1e-12
        np.testing.assert_allclose(v, [0.0, 1.0, 0.0], atol=1e-14)

    def test_null_vector_phase_fixed(self):
        hm = assemble(periodic_spec(2.5), 4, 0.2 + 0.3j)
        _, v = sigma_min_and_nullvector(hm)
        j = np.argmax(np.abs(v))
        assert v[j].imag == pytest.approx(0.0, abs=1e-15)
        assert v[j].real > 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_sanity_floor_away_from_roots(self):
        s, _ = sigma_min_and_nullvector(assemble(periodic_spec(2.5), 10, 3.0))
        assert s > 0.1

    def test_residual_is_sigma(self):
        hm = assemble(periodic_spec(1.0), 3, 0.1 + 0.4j)
        s, v = sigma_min_and_nullvector(hm)
        assert np.linalg.norm(hm.matrix @ v) == pytest.approx(s, rel=1e-10)


class TestGroupStructure:
    def test_constant_scalar_root_at_every_truncation(self):
        # J_0 = a: lambda* = a^{1/alpha} zeroes the center diagonal entry
        spec = constant_spec(2.0)
        for N in (0, 5, 20):
            s, _ = sigma_min_and_nullvector(assemble(spec, N, 4.0))
            assert s <= 1e-12

    def test_group_shifts_are_roots_too(self):
        spec = constant_spec(2.0)
        for k in (-3, -1, 1, 2):
            hm = assemble(spec, 5, 4.0 + 1j * k)
            s, _ = sigma_min_and_nullvector(hm)
            assert s <= 1e-12
            # the block at row r = -k sees the unshifted root
            j = (-k + 5)
            assert abs(hm.matrix[j, j]) <= 1e-12


class TestProperties:
    def test_conjugate_pair_symmetry(self):
        rng = np.random.default_rng(23)
        lams = rng.normal(size=100) + 1j * rng.normal(size=100)
        spec = periodic_spec(2.5)
        direct = sigma_min_grid(spec, 6, lams)
        mirrored = sigma_min_grid(spec, 6, np.conj(lams))
        np.testing.assert_allclose(direct, mirrored, atol=1e-10)

    def test_alpha_one_matches_dense_eigensolver(self):
        spec = mathieu_spec()
        H = assemble(spec, 3, 0.0).matrix
        for mu in np.linalg.eigvals(H):
            s, _ = sigma_min_and_nullvector(assemble(spec, 3, mu))
            assert s <= 1e-8

    def test_grid_matches_pointwise(self, monkeypatch):
        rng = np.random.default_rng(31)
        lams = rng.normal(size=40) + 1j * rng.normal(size=40)
        spec = mathieu_spec(alpha=0.5)
        # chunks of 7 matrices of order 14
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 7 * 14 * 14)
        grid = sigma_min_grid(spec, 3, lams)
        loop = np.array(
            [
                sigma_min_and_nullvector(assemble(spec, 3, lam))[0]
                for lam in lams
            ]
        )
        np.testing.assert_allclose(grid, loop, atol=1e-12)

    def test_evaluate_grid_matches_pointwise(self, monkeypatch):
        rng = np.random.default_rng(37)
        lams = rng.normal(size=20) + 1j * rng.normal(size=20)
        spec = periodic_spec(1.0)
        # chunks of 6 matrices of order 9
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 6 * 9 * 9)
        logs, sigmas = evaluate_grid(spec, 4, lams)
        for lam, ld, sg in zip(lams, logs, sigmas):
            hm = assemble(spec, 4, lam)
            assert ld == pytest.approx(np.linalg.slogdet(hm.matrix)[1], rel=1e-12)
            assert sg == pytest.approx(sigma_min_and_nullvector(hm)[0], abs=1e-12)

    def test_evaluate_grid_is_one_svd(self):
        # sigma_min and log|det| = sum log sigma_i come from one SVD; the
        # 4 x 4 lattice has a node within 1e-3 of the b = 2.5 root, but
        # none on it, where both log|det| values are rounding noise
        spec, root = periodic_spec(2.5), 0.108241373276464
        offsets = np.linspace(-2e-3, 2e-3, 4)
        lams = (root + offsets[:, None] + 1j * offsets[None, :]).ravel()
        assert np.min(np.abs(lams - root)) < 1e-3
        logs, sigmas = evaluate_grid(spec, 20, lams)
        for lam, ld, sg in zip(lams, logs, sigmas):
            matrix = assemble(spec, 20, lam).matrix
            assert sg == np.linalg.svd(matrix, compute_uv=False)[-1]
            assert ld == pytest.approx(np.linalg.slogdet(matrix)[1], rel=1e-12)


class TestStackMapper:
    """Chunking and worker count change how stacks are factored, not the results."""

    @staticmethod
    def grids(spec, N, lams):
        sigma = sigma_min_grid(spec, N, lams)
        logdet, sigma_eval = evaluate_grid(spec, N, lams)
        phase, slope = det_phase_and_log_derivative(spec, N, lams)
        return sigma, logdet, sigma_eval, phase, slope

    @pytest.mark.parametrize(
        "spec", [mathieu_spec(alpha=0.5), constant_spec(1.0)], ids=["mathieu", "singular"]
    )
    def test_bitwise_equal_to_one_stack(self, spec, monkeypatch):
        rng = np.random.default_rng(43)
        lams = rng.normal(size=40) + 1j * rng.normal(size=40)
        # an exact zero of det for the constant system J_0 = 1, so that
        # its core group takes the masked inverse
        lams[17] = 1.0
        N = 3
        m = spec.dim * (2 * N + 1)
        monkeypatch.setattr(hill, "_workers", lambda: 1)
        reference = self.grids(spec, N, lams)
        pools = []
        real_pool = hill._pool
        monkeypatch.setattr(
            hill, "_pool", lambda w, pid: pools.append(w) or real_pool(w, pid)
        )
        # 14 matrices per stack on one worker, 7 on two: 40 = 14 + 14 + 12
        # and 40 = 5 * 7 + 5, uneven last stacks both times
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 14 * m * m)
        for workers in (1, 2):
            monkeypatch.setattr(hill, "_workers", lambda: workers)
            for got, want in zip(self.grids(spec, N, lams), reference):
                np.testing.assert_array_equal(got, want)
        # sigma_min_grid and evaluate_grid use the pool, the det route never
        assert pools == [2, 2]
        if spec.dim == 1:
            phase, slope = reference[3:]
            assert phase[17] == 0.0 and np.isinf(slope[17])

    def test_one_stack_runs_inline(self, monkeypatch):
        monkeypatch.setattr(hill, "_workers", lambda: 2)
        monkeypatch.setattr(hill, "_pool", lambda w, pid: pytest.fail("pool used"))
        evaluate_grid(periodic_spec(2.5), 20, [0.1 + 0.2j, 0.3])

    def test_det_route_factors_its_cores_inline(self, monkeypatch):
        # one matrix of order 41 per stack on two workers: split into
        # chunks, the 30 cores would fill several stacks
        spec, N = periodic_spec(2.5), 20
        lams = np.linspace(0.0, 3.0, 30) + 0.2j
        reference = det_phase_and_log_derivative(spec, N, lams)
        monkeypatch.setattr(hill, "_workers", lambda: 2)
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 2 * 41 * 41)
        monkeypatch.setattr(hill, "_pool", lambda w, pid: pytest.fail("pool used"))
        for got, want in zip(det_phase_and_log_derivative(spec, N, lams), reference):
            np.testing.assert_array_equal(got, want)

    def test_linalg_error_reaches_caller_unchanged(self, monkeypatch):
        spec = mathieu_spec(alpha=0.5)
        lams = np.linspace(0.1, 2.0, 30) + 0.5j
        # a NaN lambda makes LAPACK's SVD fail: in the second of two
        # stacks inline, in the third of four on two workers
        lams[22] = complex(np.nan, 0.0)
        m = spec.dim * 7
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 16 * m * m)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(hill, "_workers", lambda: workers)
            with pytest.raises(np.linalg.LinAlgError) as info:
                sigma_min_grid(spec, 3, lams)
            errors.append(info.value)
        inline, pooled = errors
        assert type(pooled) is type(inline)
        assert pooled.args == inline.args

    def test_forked_child_gets_its_own_pool(self, monkeypatch):
        # the parent's pool threads do not exist in a forked child, so a
        # child that reused the parent's pool would wait forever
        spec = mathieu_spec(alpha=0.5)
        lams = np.linspace(0.1, 2.0, 30) + 0.5j
        monkeypatch.setattr(hill, "_workers", lambda: 2)
        monkeypatch.setattr(hill, "_STACK_ENTRIES", 16 * 14 * 14)
        sigma_min_grid(spec, 3, lams)
        child = multiprocessing.get_context("fork").Process(
            target=sigma_min_grid, args=(spec, 3, lams)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
