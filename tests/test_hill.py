"""Tests for Hill matrix assembly, determinants, and singular values."""

import math

import mpmath as mp
import numpy as np
import pytest

from frachill.errors import DomainError
from frachill.hill import (
    assemble,
    det_phase_and_log_derivative,
    evaluate_grid,
    log_abs_det,
    sigma_min_and_nullvector,
    sigma_min_grid,
)
from frachill.system import make_system, principal_power


def constant_spec(a, alpha=0.5, omega=1.0):
    return make_system(alpha, omega, {0: [[a]]})


def periodic_spec(b, alpha=0.5):
    # scalar J(t) = -1 + b sin t
    return make_system(alpha, 1.0, {0: [[-1.0]], 1: [[-0.5j * b]]})


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

    def test_matrix_read_only(self):
        hm = assemble(constant_spec(1.0), 1, 0.0)
        with pytest.raises(ValueError):
            hm.matrix[0, 0] = 5.0


class TestLogAbsDet:
    def test_diagonal_closed_form(self):
        spec = constant_spec(2.0)
        ev = log_abs_det(assemble(spec, 5, 0.0))
        closed = sum(
            math.log(abs(2.0 - principal_power(1j * k, 0.5)))
            for k in range(-5, 6)
        )
        assert ev.log_abs_det == pytest.approx(closed, abs=1e-12)

    def test_exact_singularity_sentinel(self):
        # J_0 = 1, lambda = 1: the center diagonal entry is exactly zero
        ev = log_abs_det(assemble(constant_spec(1.0), 0, 1.0))
        assert ev.log_abs_det == -np.inf
        assert ev.det_phase == 0.0
        assert ev.sigma_min == 0.0

    def test_classical_scalar(self):
        spec = constant_spec(3.0, alpha=1.0)
        lam = 0.5 + 0.25j
        ev = log_abs_det(assemble(spec, 0, lam))
        assert ev.log_abs_det == pytest.approx(
            math.log(abs(3.0 - lam)), abs=1e-14
        )
        assert abs(ev.det_phase) == pytest.approx(1.0, abs=1e-14)

    def test_phase_matches_determinant(self):
        spec = mathieu_spec(alpha=0.5)
        hm = assemble(spec, 1, 0.4 + 0.3j)
        ev = log_abs_det(hm)
        det = np.linalg.det(hm.matrix)
        np.testing.assert_allclose(
            ev.det_phase * math.exp(ev.log_abs_det), det, rtol=1e-10
        )


class TestLogDerivative:
    def test_phase_matches_log_abs_det(self):
        spec = mathieu_spec(alpha=0.5)
        lams = [0.4 + 0.3j, 1.2 - 0.7j, 0.05 + 2.0j]
        phase, _ = det_phase_and_log_derivative(spec, 3, lams)
        for lam, ph in zip(lams, phase):
            assert ph == pytest.approx(log_abs_det(assemble(spec, 3, lam)).det_phase, abs=1e-12)

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

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(31)
        lams = rng.normal(size=40) + 1j * rng.normal(size=40)
        spec = mathieu_spec(alpha=0.5)
        grid = sigma_min_grid(spec, 3, lams, chunk_size=7)
        loop = np.array(
            [
                sigma_min_and_nullvector(assemble(spec, 3, lam))[0]
                for lam in lams
            ]
        )
        np.testing.assert_allclose(grid, loop, atol=1e-12)

    def test_evaluate_grid_matches_pointwise(self):
        rng = np.random.default_rng(37)
        lams = rng.normal(size=20) + 1j * rng.normal(size=20)
        spec = periodic_spec(1.0)
        logs, sigmas = evaluate_grid(spec, 4, lams, chunk_size=6)
        for lam, ld, sg in zip(lams, logs, sigmas):
            ev = log_abs_det(assemble(spec, 4, lam))
            assert ld == pytest.approx(ev.log_abs_det, rel=1e-12)
            assert sg == pytest.approx(ev.sigma_min, abs=1e-12)
