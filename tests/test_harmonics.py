"""Complex spherical harmonics: values, rotation behaviour, Jacobians."""

import math

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.errors import ZeroVector
from spinfusion.features import taped_distances, taped_edge_harmonics
from spinfusion.harmonics import sph_jacobian, sph_values, spherical_harmonics
from spinfusion.irreps import IrrepVector
from spinfusion.rotations import haar_rotation, rotation_matrix
from spinfusion.spins import Spin
from spinfusion.wigner import wigner_D

Z = np.array([0.0, 0.0, 1.0])


class TestValues:
    def test_monopole_is_constant(self):
        expected = 1.0 / math.sqrt(4.0 * math.pi)
        for x in (Z, np.array([1.0, -2.0, 0.5]), np.array([-3.0, 0.0, 0.0])):
            assert sph_values(x, 0)[0] == pytest.approx(expected, abs=1e-15)

    def test_monopole_is_one_over_two_root_pi_everywhere(self):
        # the interaction layer folds this constant into its mixing
        directions = np.random.default_rng(12).normal(size=(50, 3))
        assert np.all(sph_values(directions, 0) == 1.0 / (2.0 * math.sqrt(math.pi)))

    def test_j1_at_north_pole(self):
        # Ascending m = (-1, 0, +1); only m = 0 survives on the z axis.
        values = sph_values(Z, 2)
        assert values[0] == pytest.approx(0.0, abs=1e-15)
        assert values[1] == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)), abs=1e-14)
        assert values[2] == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        x = np.array([0.4, -1.1, 0.3])
        for two_j in (0, 2, 4, 6):
            assert np.allclose(
                sph_values(x, two_j), sph_values(2.5 * x, two_j), atol=1e-13
            )

    def test_south_pole_finite(self):
        values = sph_values(-Z, 4)
        assert np.all(np.isfinite(values))
        # Only m = 0 is nonzero on the axis; Y_2^0(-z) = Y_2^0(z).
        assert values[2] == pytest.approx(
            float(np.real(sph_values(Z, 4)[2])), abs=1e-14
        )

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            sph_values(np.zeros(3), 2)

    def test_conjugation_symmetry(self):
        # Y_j^{-m} = (-1)^m conj(Y_j^m)
        x = np.array([0.7, 0.2, -0.5])
        for two_j in (2, 4):
            values = sph_values(x, two_j)
            n = two_j // 2
            for k in range(two_j + 1):
                m = k - n
                assert values[n - m] == pytest.approx(
                    (-1) ** m * np.conj(values[n + m]), abs=1e-13
                )

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(5, 3))
        batch = sph_values(xs, 4)
        assert batch.shape == (5, 5)
        for row, x in zip(batch, xs):
            assert np.allclose(row, sph_values(x, 4), atol=1e-14)


class TestScipyCrossCheck:
    def test_matches_scipy(self):
        try:
            from scipy.special import sph_harm_y
        except ImportError:
            pytest.skip("scipy not installed")
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=3)
            r = np.linalg.norm(x)
            theta = math.acos(x[2] / r)
            phi = math.atan2(x[1], x[0])
            for j in (0, 1, 2, 3):
                ours = sph_values(x, 2 * j)
                for k, m in enumerate(range(-j, j + 1)):
                    reference = complex(sph_harm_y(j, m, theta, phi))
                    assert ours[k] == pytest.approx(reference, abs=1e-12)


class TestRotation:
    @pytest.mark.parametrize("two_j", [0, 2, 4, 6])
    def test_equivariance(self, two_j):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        for seed in range(5):
            g = haar_rotation(seed)
            rotated_point = sph_values(rotation_matrix(g) @ x, two_j)
            rotated_vector = wigner_D(Spin(two_j), g).matrix @ sph_values(x, two_j)
            assert np.max(np.abs(rotated_point - rotated_vector)) < 1e-12


class TestSphericalHarmonicsList:
    def test_returns_irrep_vectors_up_to_j_max(self):
        vectors = spherical_harmonics(np.array([0.3, 0.1, 0.9]), Spin(4))
        assert [v.spin.twice_j for v in vectors] == [0, 2, 4]
        assert all(isinstance(v, IrrepVector) for v in vectors)
        assert all(v.channels == 1 for v in vectors)


class TestJacobian:
    @pytest.mark.parametrize("two_j", [2, 4, 6])
    def test_matches_central_differences(self, two_j):
        rng = np.random.default_rng(5)
        x = rng.normal(size=3) + np.array([0.0, 0.0, 0.2])
        jac = sph_jacobian(x, two_j)
        step = 1e-6
        for axis in range(3):
            bump = np.zeros(3)
            bump[axis] = step
            fd = (sph_values(x + bump, two_j) - sph_values(x - bump, two_j)) / (
                2.0 * step
            )
            assert np.max(np.abs(jac[:, axis] - fd)) < 1e-8

    def test_near_pole_matches_central_differences(self):
        # The parametrization must stay differentiable close to the z axis.
        x = np.array([1e-7, -2e-7, 1.3])
        jac = sph_jacobian(x, 4)
        step = 1e-8
        for axis in range(3):
            bump = np.zeros(3)
            bump[axis] = step
            fd = (sph_values(x + bump, 4) - sph_values(x - bump, 4)) / (2.0 * step)
            assert np.max(np.abs(jac[:, axis] - fd)) < 1e-5

    def test_batched_shape(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(4, 3))
        jac = sph_jacobian(xs, 4)
        assert jac.shape == (4, 5, 3)
        for row, x in zip(jac, xs):
            assert np.allclose(row, sph_jacobian(x, 4), atol=1e-14)


def _taped(x, j_max):
    """(tape, displacement node, taped harmonics) of the rows of ``x``."""
    tape = ad.Tape()
    disp = tape.variable(np.asarray(x, dtype=float))
    return tape, disp, taped_edge_harmonics(tape, disp, taped_distances(tape, disp), j_max)


def _probe_loss(tape, harmonics, probe):
    """Re sum(probe * Y): a real scalar of the harmonics."""
    return ad.sum_all(tape, ad.real(tape, ad.mul(tape, harmonics, tape.constant(probe))))


# the coordinate axes, both poles among them, at assorted lengths
AXES = np.vstack([np.eye(3), -np.eye(3)]) * np.array([[0.3], [1.0], [2.5], [0.7], [1.9], [4.0]])


class TestTapedChain:
    """The taped harmonics, a fusion chain of Y^1, against the NumPy values."""

    @pytest.mark.parametrize("two_j", [0, 2, 4, 6, 8])
    def test_matches_sph_values(self, two_j):
        rng = np.random.default_rng(two_j)
        directions = rng.normal(size=(64, 3)) * rng.uniform(0.2, 3.0, size=(64, 1))
        x = np.vstack([directions, AXES, [[1e-7, -2e-7, 1.3]]])
        _, _, harmonics = _taped(x, two_j // 2)
        assert sorted(harmonics) == list(range(0, two_j + 1, 2))
        assert np.max(np.abs(harmonics[two_j].value - sph_values(x, two_j))) <= 1e-14

    @pytest.mark.parametrize("two_j", [2, 4, 6])
    def test_gradient_is_the_analytic_jacobian(self, two_j):
        rng = np.random.default_rng(two_j + 1)
        x = np.vstack([rng.normal(size=(4, 3)), AXES])
        probe = rng.normal(size=(len(x), two_j + 1)) + 1j * rng.normal(size=(len(x), two_j + 1))
        tape, disp, harmonics = _taped(x, two_j // 2)
        loss = _probe_loss(tape, harmonics[two_j], probe)
        grad = ad.backward(tape, loss, wrt=[disp])[disp.id].value
        want = np.real(np.einsum("em,emk->ek", probe, sph_jacobian(x, two_j)))
        assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("two_j", [2, 4, 6])
    def test_second_derivatives_match_central_differences(self, two_j):
        # the gradient is recorded, so its own gradient is the Hessian of
        # the loss times a direction
        rng = np.random.default_rng(two_j + 2)
        x = np.vstack([rng.normal(size=(3, 3)), [[1e-3, -2e-3, 1.3]]])
        probe = rng.normal(size=(len(x), two_j + 1)) + 1j * rng.normal(size=(len(x), two_j + 1))
        direction = rng.normal(size=x.shape)

        def directional_gradient(values):
            tape, disp, harmonics = _taped(values, two_j // 2)
            grad = ad.backward(tape, _probe_loss(tape, harmonics[two_j], probe), wrt=[disp])
            along = ad.sum_all(tape, ad.mul(tape, grad[disp.id], tape.constant(direction)))
            return float(along.value), ad.backward(tape, along, wrt=[disp])[disp.id].value

        report = ad.gradcheck(directional_gradient, x)
        assert report.passed, f"max rel error {report.max_rel_error} at {report.worst_index}"
        assert np.max(np.abs(report.analytic)) > 1e-3
