"""Tests for the periodic-system description layer."""

import cmath
import math

import numpy as np
import pytest

from frachill.errors import DomainError, SchemaError
from frachill.system import (
    FractionalOrder,
    eval_J,
    make_system,
    parse_system,
    principal_power,
)


def scalar_sin_system(a=-1.0, b=1.0, alpha=0.5, omega=1.0):
    # J(t) = a + b sin(omega t): J_0 = a, J_1 = -i b / 2
    return make_system(alpha, omega, {0: [[a]], 1: [[-0.5j * b]]})


def mathieu_system(c=1.0, d=2.0, alpha=0.5, omega=1.0):
    # x'' + excitation: first-order form with J(t) = [[0, 1], [c + d sin t, 0]]
    return make_system(
        alpha, omega, {0: [[0.0, 1.0], [c, 0.0]], 1: [[0.0, 0.0], [-0.5j * d, 0.0]]}
    )


class TestEvalJ:
    def test_scalar_vanishes_at_quarter_period(self):
        spec = scalar_sin_system(a=-1.0, b=1.0)
        np.testing.assert_allclose(eval_J(spec, math.pi / 2), [[0.0]], atol=1e-15)

    def test_scalar_matches_closed_form(self):
        spec = scalar_sin_system(a=-1.0, b=2.5)
        for t in np.linspace(-7.0, 7.0, 41):
            np.testing.assert_allclose(
                eval_J(spec, t), [[-1.0 + 2.5 * math.sin(t)]], atol=1e-14
            )

    def test_mathieu_value(self):
        spec = mathieu_system(c=1.0, d=2.0)
        np.testing.assert_allclose(
            eval_J(spec, math.pi / 6), [[0.0, 1.0], [2.0, 0.0]], atol=1e-14
        )

    def test_periodicity(self):
        spec = mathieu_system(omega=2.0)
        assert abs(spec.period - math.pi) < 1e-15
        rng = np.random.default_rng(42)
        for t in rng.uniform(-10.0, 10.0, 50):
            np.testing.assert_allclose(
                eval_J(spec, t), eval_J(spec, t + spec.period), atol=1e-12
            )

    def test_real_output_at_random_times(self):
        rng = np.random.default_rng(1234)
        mats = {
            0: rng.standard_normal((3, 3)),
            1: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            4: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        }
        spec = make_system(0.7, 1.3, mats)
        for t in rng.uniform(-100.0, 100.0, 1000):
            val = eval_J(spec, t)
            assert val.dtype == np.float64
            assert np.all(np.isfinite(val))

    def test_direct_exponential_sum_agrees(self):
        # independent evaluation over all k of the two-sided sum
        rng = np.random.default_rng(7)
        mats = {
            0: rng.standard_normal((2, 2)),
            2: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        }
        spec = make_system(0.5, 0.9, mats)
        for t in rng.uniform(-5.0, 5.0, 20):
            ref = np.zeros((2, 2), dtype=complex)
            for k in (-2, 0, 2):
                ref += spec.coeffs.coeff(k) * cmath.exp(1j * spec.omega * k * t)
            assert np.max(np.abs(ref.imag)) < 1e-13
            np.testing.assert_allclose(eval_J(spec, t), ref.real, atol=1e-13)


    def test_time_array_is_bitwise_equal_to_per_node_calls(self):
        # harmonics up to k = 4 with a gap at k = 3, on a march-sized grid
        rng = np.random.default_rng(99)
        mats = {
            0: rng.standard_normal((3, 3)),
            1: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            2: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            4: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        }
        spec = make_system(0.7, 1.3, mats)
        assert spec.coeffs.k_max == 4
        ts = -3.0 + 1e-3 * np.arange(5000)
        grid = eval_J(spec, ts)
        assert grid.shape == (5000, 3, 3) and grid.dtype == np.float64
        np.testing.assert_array_equal(grid, [eval_J(spec, t) for t in ts])
        assert eval_J(spec, ts.reshape(50, 100)).shape == (50, 100, 3, 3)
        assert eval_J(spec, 0.25).shape == (3, 3)

class TestPrincipalPower:
    def test_known_values(self):
        assert principal_power(4.0, 0.5) == pytest.approx(2.0)
        np.testing.assert_allclose(
            principal_power(1j, 0.5), cmath.exp(1j * math.pi / 4), atol=1e-15
        )
        np.testing.assert_allclose(principal_power(-1.0, 0.5), 1j, atol=1e-15)

    def test_zero_maps_to_zero(self):
        assert principal_power(0.0, 0.5) == 0.0

    def test_negative_axis_uses_arg_pi(self):
        # both signed-zero representations of -1 must agree
        a = principal_power(complex(-1.0, 0.0), 0.3)
        b = principal_power(complex(-1.0, -0.0), 0.3)
        assert a == b
        assert a.imag > 0.0

    def test_alpha_one_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = complex(*rng.standard_normal(2))
            assert principal_power(w, 1.0) == w

    def test_modulus(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            w = complex(*rng.uniform(-10, 10, 2))
            alpha = rng.uniform(0.05, 1.0)
            assert abs(abs(principal_power(w, alpha)) - abs(w) ** alpha) < 1e-13

    def test_conjugation_commutes_off_the_cut(self):
        # p(conj w) = conj(p(w)) except on the negative real axis, where
        # Arg w = pi is its own conjugate image only through arg = -pi
        rng = np.random.default_rng(29)
        count = 0
        for _ in range(300):
            w = complex(*rng.uniform(-10, 10, 2))
            if w.imag == 0.0:
                continue
            alpha = rng.uniform(0.05, 0.999)
            lhs = principal_power(np.conj(w), alpha)
            rhs = np.conj(principal_power(w, alpha))
            assert abs(lhs - rhs) < 1e-13
            count += 1
        assert count > 250
        # documented exception on the cut itself
        alpha = 0.5
        on_cut = principal_power(-4.0, alpha)
        assert abs(on_cut - np.conj(on_cut)) > 1.0

    def test_image_sector(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            w = complex(*rng.uniform(-3, 3, 2))
            if w == 0.0:
                continue
            alpha = rng.uniform(0.05, 1.0)
            ang = cmath.phase(principal_power(w, alpha))
            assert -alpha * math.pi - 1e-12 < ang <= alpha * math.pi + 1e-12

    def test_order_validation(self):
        with pytest.raises(DomainError):
            principal_power(1.0, 0.0)
        with pytest.raises(DomainError):
            principal_power(1.0, 1.5)


class TestConstruction:
    def test_order_range(self):
        FractionalOrder(0.5)
        FractionalOrder(1.0)
        with pytest.raises(DomainError):
            FractionalOrder(0.0)
        with pytest.raises(DomainError):
            FractionalOrder(1.0000001)

    def test_conjugate_fill(self):
        spec = scalar_sin_system(b=2.5)
        np.testing.assert_allclose(spec.coeffs.coeff(1), [[-1.25j]])
        np.testing.assert_allclose(spec.coeffs.coeff(-1), [[1.25j]])
        np.testing.assert_allclose(spec.coeffs.coeff(3), [[0.0]])
        assert spec.coeffs.k_max == 1

    def test_rejects_negative_index(self):
        with pytest.raises(SchemaError):
            make_system(0.5, 1.0, {0: [[1.0]], -1: [[1j]]})

    def test_rejects_complex_J0(self):
        with pytest.raises(SchemaError):
            make_system(0.5, 1.0, {0: [[1.0 + 1j]]})

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(SchemaError):
            make_system(0.5, 1.0, {0: [[1.0]], 1: np.eye(2) * 1j})

    def test_coefficients_are_readonly(self):
        spec = scalar_sin_system()
        with pytest.raises(ValueError):
            spec.coeffs.coeff(0)[0, 0] = 5.0


class TestParseSystem:
    DOC = {
        "alpha": 0.5,
        "omega": 1.0,
        "dim": 1,
        "harmonics": [
            {"k": 0, "re": [[-1.0]], "im": [[0.0]]},
            {"k": 1, "re": [[0.0]], "im": [[-1.25]]},
        ],
    }

    def test_basic_document(self):
        spec = parse_system(self.DOC)
        assert spec.alpha == 0.5
        assert spec.omega == 1.0
        assert spec.dim == 1
        np.testing.assert_allclose(spec.coeffs.coeff(1), [[-1.25j]])
        np.testing.assert_allclose(spec.coeffs.coeff(-1), [[1.25j]])
        for t in np.linspace(0.0, 2 * math.pi, 9):
            np.testing.assert_allclose(
                eval_J(spec, t), [[-1.0 + 2.5 * math.sin(t)]], atol=1e-14
            )

    def test_im_defaults_to_zero(self):
        doc = {
            "alpha": 0.5,
            "omega": 2.0,
            "dim": 1,
            "harmonics": [{"k": 0, "re": [[3.0]]}],
        }
        spec = parse_system(doc)
        np.testing.assert_allclose(eval_J(spec, 0.77), [[3.0]])

    def test_redundant_consistent_negative_ok(self):
        doc = dict(self.DOC)
        doc["harmonics"] = list(self.DOC["harmonics"]) + [
            {"k": -1, "re": [[0.0]], "im": [[1.25]]}
        ]
        spec = parse_system(doc)
        np.testing.assert_allclose(spec.coeffs.coeff(-1), [[1.25j]])

    def test_contradictory_negative_rejected(self):
        doc = dict(self.DOC)
        doc["harmonics"] = list(self.DOC["harmonics"]) + [
            {"k": -1, "re": [[0.0]], "im": [[-1.25]]}
        ]
        with pytest.raises(SchemaError):
            parse_system(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("alpha"),
            lambda d: d.pop("harmonics"),
            lambda d: d.update(harmonics=[]),
            lambda d: d.update(dim=2),
            lambda d: d.update(alpha=1.5),
            lambda d: d.update(omega=-1.0),
            lambda d: d.update(
                harmonics=[{"k": 1, "re": [[0.0]], "im": [[-1.25]]}]
            ),
            lambda d: d.update(
                harmonics=[{"k": 0, "re": [[0.0]], "im": [[1.0]]}]
            ),
            lambda d: d.update(harmonics=[{"k": "x", "re": [[0.0]]}]),
            lambda d: d.update(harmonics=[{"re": [[0.0]]}]),
        ],
    )
    def test_schema_errors(self, mutate):
        doc = {k: (list(v) if isinstance(v, list) else v) for k, v in self.DOC.items()}
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_system(doc)

    def test_duplicate_index_rejected(self):
        doc = dict(self.DOC)
        doc["harmonics"] = list(self.DOC["harmonics"]) + [
            {"k": 1, "re": [[0.0]], "im": [[-1.25]]}
        ]
        with pytest.raises(SchemaError):
            parse_system(doc)

    def test_mathieu_document(self):
        doc = {
            "alpha": 0.5,
            "omega": 1.0,
            "dim": 2,
            "harmonics": [
                {"k": 0, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0] * 2] * 2},
                {
                    "k": 1,
                    "re": [[0.0, 0.0], [0.0, 0.0]],
                    "im": [[0.0, 0.0], [-1.0, 0.0]],
                },
            ],
        }
        spec = parse_system(doc)
        np.testing.assert_allclose(
            eval_J(spec, math.pi / 6), [[0.0, 1.0], [2.0, 0.0]], atol=1e-14
        )
