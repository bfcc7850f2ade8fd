"""Wigner rotation matrices and the SU(2)/SO(3) plumbing around them."""

import math

import numpy as np
import pytest

from spinfusion.rotations import (
    Rotation,
    compose,
    haar_rotation,
    inverse,
    rotation_matrix,
)
from spinfusion.spins import Spin, dim
from spinfusion.wigner import wigner_D


def small_d(j, beta):
    """d^j(beta): D^j of the rotation by beta about y."""
    return wigner_D(j, Rotation((math.cos(beta / 2), 0.0, math.sin(beta / 2), 0.0))).matrix


class TestSmallD:
    def test_spin_zero_is_trivial(self):
        assert small_d(Spin(0), 1.234).tolist() == [[1.0]]

    def test_spin_half_values(self):
        # Ascending m ordering (-1/2, +1/2):
        #   d = [[cos(b/2), sin(b/2)], [-sin(b/2), cos(b/2)]]
        beta = 0.7
        expected = np.array(
            [
                [math.cos(beta / 2), math.sin(beta / 2)],
                [-math.sin(beta / 2), math.cos(beta / 2)],
            ]
        )
        assert np.max(np.abs(small_d(Spin(1), beta) - expected)) < 1e-15

    def test_spin_half_at_pi(self):
        assert np.allclose(
            small_d(Spin(1), math.pi), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15
        )

    def test_spin_one_center_element_is_cos_beta(self):
        # d^1_{00}(beta) = cos(beta)
        for beta in (0.0, math.pi / 3, 1.1, 2.7):
            assert small_d(Spin(2), beta)[1, 1] == pytest.approx(
                math.cos(beta), abs=1e-14
            )

    def test_orthogonality(self):
        for two_j in (1, 2, 3, 4):
            d = small_d(Spin(two_j), 0.9)
            assert np.max(np.abs(d @ d.T - np.eye(dim(two_j)))) < 1e-13

    def test_beta_zero_is_identity(self):
        for two_j in (1, 2, 5):
            assert np.max(np.abs(small_d(Spin(two_j), 0.0) - np.eye(dim(two_j)))) < 1e-15


class TestWignerD:
    def test_identity_rotation(self):
        for two_j in (0, 1, 2, 4):
            d = wigner_D(Spin(two_j), Rotation((1.0, 0.0, 0.0, 0.0))).matrix
            assert np.max(np.abs(d - np.eye(dim(two_j)))) < 1e-14

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_unitary(self, two_j):
        for seed in range(4):
            d = wigner_D(Spin(two_j), haar_rotation(seed)).matrix
            assert np.max(np.abs(d.conj().T @ d - np.eye(dim(two_j)))) < 1e-13

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_composition_homomorphism(self, two_j):
        g1, g2 = haar_rotation(10), haar_rotation(11)
        left = wigner_D(Spin(two_j), compose(g1, g2)).matrix
        right = wigner_D(Spin(two_j), g1).matrix @ wigner_D(Spin(two_j), g2).matrix
        # exact for half-integer spins too: compose is the SU(2) product
        assert np.max(np.abs(left - right)) < 1e-13

    @pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4])
    def test_negated_quaternion_flips_half_integer_spins(self, two_j):
        # q and -q are one rotation; D^j(-q) = (-1)^{2j} D^j(q)
        g = haar_rotation(12)
        minus = Rotation(tuple(-c for c in g.quaternion))
        d, d_minus = wigner_D(Spin(two_j), g).matrix, wigner_D(Spin(two_j), minus).matrix
        assert np.max(np.abs(d_minus - (-1) ** two_j * d)) < 1e-13

    def test_inverse_is_conjugate_transpose(self):
        g = haar_rotation(3)
        d = wigner_D(Spin(4), g).matrix
        d_inv = wigner_D(Spin(4), inverse(g)).matrix
        assert np.max(np.abs(d_inv - d.conj().T)) < 1e-13

    def test_accepts_plain_twice_integer(self):
        g = haar_rotation(5)
        assert np.array_equal(
            wigner_D(2, g).matrix, wigner_D(Spin(2), g).matrix
        )


class TestRotationMatrix:
    def test_identity(self):
        assert np.max(np.abs(rotation_matrix(Rotation((1.0, 0.0, 0.0, 0.0))) - np.eye(3))) < 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_proper_orthogonal(self, seed):
        r = rotation_matrix(haar_rotation(seed))
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-13
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)

    def test_real_valued(self):
        r = rotation_matrix(haar_rotation(9))
        assert r.dtype == np.float64

    def test_cyclic_quaternion(self):
        # The quaternion (1,1,1,1)/2 rotates x->y->z->x.
        r = rotation_matrix(Rotation((0.5, 0.5, 0.5, 0.5)))
        expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.max(np.abs(r - expected)) < 1e-14

    def test_composition_matches_matrix_product(self):
        g1, g2 = haar_rotation(20), haar_rotation(21)
        left = rotation_matrix(compose(g1, g2))
        right = rotation_matrix(g1) @ rotation_matrix(g2)
        assert np.max(np.abs(left - right)) < 1e-13

    def test_z_axis_rotation(self):
        # q = (cos t/2, 0, 0, sin t/2) rotates by t about z; t = -0.4 is a
        # clockwise rotation
        g = Rotation((math.cos(-0.2), 0.0, 0.0, math.sin(-0.2)))
        r = rotation_matrix(g)
        c, s = math.cos(0.4), math.sin(0.4)
        expected = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(r - expected)) < 1e-14


class TestHaar:
    def test_deterministic_per_seed(self):
        a, b = haar_rotation(42), haar_rotation(42)
        assert a.quaternion is not None
        assert np.array_equal(a.quaternion, b.quaternion)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            haar_rotation(1).quaternion, haar_rotation(2).quaternion
        )

    def test_unit_quaternion(self):
        q = haar_rotation(7).quaternion
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_divided_by_its_plain_norm(self, seed):
        # a Haar draw never overflows, so it keeps the plain-norm path, bit
        # for bit: no rescale by its largest component
        raw = np.random.default_rng(seed).standard_normal(4)
        norm = math.sqrt(sum(c * c for c in raw))
        assert haar_rotation(seed).quaternion == tuple(c / norm for c in raw)


class TestRotationRejects:
    @pytest.mark.parametrize(
        "q",
        [
            (0.0, 0.0, 0.0, 0.0),
            (math.nan, 0.0, 0.0, 1.0),
            (1.0, math.inf, 0.0, 0.0),
            (1.0, 0.0, 0.0),
        ],
        ids=str,
    )
    def test_degenerate_quaternion(self, q):
        with pytest.raises(ValueError):
            Rotation(q)

    @pytest.mark.parametrize(
        "q, unit",
        [
            ((1e200, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((1e200, -1e200, 1e200, 1e200), (0.5, -0.5, 0.5, 0.5)),
            ((3e300, 0.0, -4e300, 0.0), (0.6, 0.0, -0.8, 0.0)),
        ],
        ids=str,
    )
    def test_huge_finite_quaternion_normalizes(self, q, unit):
        # the sum of squares overflows, so the components are rescaled by
        # the largest before the norm is taken
        assert np.max(np.abs(np.array(Rotation(q).quaternion) - unit)) <= 1e-16
