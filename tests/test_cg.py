"""Clebsch-Gordan coefficients against closed-form oracles and group properties.

Value oracles below are frozen from Racah's closed form evaluated by hand
(exact square roots of rationals); the implementation must reproduce them to
float precision, not merely be self-consistent.
"""

import math

import numpy as np
import pytest

from spinfusion.cg import cg_coefficient, cg_tensor
from spinfusion.errors import InadmissibleTriple
from spinfusion.rotations import haar_rotation
from spinfusion.spins import Spin, admissible, allowed_couplings, dim
from spinfusion.wigner import wigner_D


class TestFrozenValues:
    """Hand-evaluated coefficients (twice-integer arguments: 2j, 2m)."""

    def test_half_half_to_singlet(self):
        # <1/2 1/2; 1/2 -1/2 | 0 0> = +1/sqrt(2)
        assert cg_coefficient(1, 1, 1, -1, 0, 0) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15
        )
        assert cg_coefficient(1, -1, 1, 1, 0, 0) == pytest.approx(
            -1 / math.sqrt(2), abs=1e-15
        )

    def test_half_half_to_triplet(self):
        # <1/2 1/2; 1/2 1/2 | 1 1> = 1 (stretched state)
        assert cg_coefficient(1, 1, 1, 1, 2, 2) == pytest.approx(1.0, abs=1e-15)
        # <1/2 1/2; 1/2 -1/2 | 1 0> = 1/sqrt(2)
        assert cg_coefficient(1, 1, 1, -1, 2, 0) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15
        )

    def test_one_one_to_two(self):
        # <1 1; 1 -1 | 2 0> = 1/sqrt(6)
        assert cg_coefficient(2, 2, 2, -2, 4, 0) == pytest.approx(
            1 / math.sqrt(6), abs=1e-15
        )
        # <1 0; 1 0 | 2 0> = sqrt(2/3)
        assert cg_coefficient(2, 0, 2, 0, 4, 0) == pytest.approx(
            math.sqrt(2 / 3), abs=1e-15
        )

    def test_one_one_to_zero(self):
        # <1 m; 1 -m | 0 0> = (-1)^(1-m)/sqrt(3)
        root3 = 1 / math.sqrt(3)
        assert cg_coefficient(2, 2, 2, -2, 0, 0) == pytest.approx(root3, abs=1e-15)
        assert cg_coefficient(2, 0, 2, 0, 0, 0) == pytest.approx(-root3, abs=1e-15)
        assert cg_coefficient(2, -2, 2, 2, 0, 0) == pytest.approx(root3, abs=1e-15)

    def test_condon_shortley_sign(self):
        # The highest-weight coefficient <ja ja; jb (jc-ja) | jc jc> is positive.
        for two_ja, two_jb in [(1, 1), (2, 2), (2, 4), (3, 1)]:
            for two_jc in allowed_couplings(two_ja, two_jb):
                assert cg_coefficient(
                    two_ja, two_ja, two_jb, two_jc - two_ja, two_jc, two_jc
                ) > 0

    def test_coefficients_are_real_floats(self):
        value = cg_coefficient(4, 2, 2, 0, 4, 2)
        assert isinstance(value, float)


class TestSelectionRules:
    def test_magnetic_mismatch_is_zero(self):
        assert cg_coefficient(2, 2, 2, 2, 4, 0) == 0.0

    def test_inadmissible_triple_is_zero(self):
        assert cg_coefficient(1, 1, 1, -1, 1, 0) == 0.0
        assert cg_coefficient(2, 0, 2, 0, 6, 0) == 0.0

    def test_out_of_range_m_is_zero(self):
        assert cg_coefficient(2, 4, 2, -4, 0, 0) == 0.0


class TestLadderRecursion:
    """Lowering-operator recursion ties neighbouring m columns together:

    C-(jc,mc) <.. | jc mc-1> = C-(ja,ma) <ja ma-1 ..> + C-(jb,mb) <.. jb mb-1 ..>
    with C-(j,m) = sqrt(j(j+1) - m(m-1)).
    """

    @staticmethod
    def _lower(two_j, two_m):
        j, m = two_j / 2, two_m / 2
        return math.sqrt(j * (j + 1) - m * (m - 1))

    @pytest.mark.parametrize("two_ja,two_jb,two_jc", [(2, 2, 2), (2, 4, 4), (3, 1, 4)])
    def test_recursion(self, two_ja, two_jb, two_jc):
        for two_mc in range(two_jc, -two_jc + 1, -2):
            for two_ma in range(-two_ja, two_ja + 1, 2):
                two_mb = two_mc - two_ma
                if abs(two_mb) > two_jb:
                    continue
                left = self._lower(two_jc, two_mc) * cg_coefficient(
                    two_ja, two_ma, two_jb, two_mb, two_jc, two_mc - 2
                )
                right = self._lower(two_ja, two_ma) * cg_coefficient(
                    two_ja, two_ma - 2, two_jb, two_mb, two_jc, two_mc
                ) + self._lower(two_jb, two_mb) * cg_coefficient(
                    two_ja, two_ma, two_jb, two_mb - 2, two_jc, two_mc
                )
                assert left == pytest.approx(right, abs=1e-13)


def _admissible_triples(max_two_j):
    for two_ja in range(max_two_j + 1):
        for two_jb in range(max_two_j + 1):
            for two_jc in allowed_couplings(two_ja, two_jb):
                if two_jc <= max_two_j:
                    yield two_ja, two_jb, two_jc


class TestTensor:
    def test_shape_and_ordering(self):
        t = cg_tensor(2, 2, 4)
        assert t.coeffs.shape == (3, 3, 5)
        # coeffs[ma, mb, mc] ascending: stretched state at the last corner.
        assert t.coeffs[-1, -1, -1] == pytest.approx(1.0, abs=1e-15)

    def test_matches_scalar_coefficients(self):
        t = cg_tensor(2, 4, 2)
        for ia, two_ma in enumerate(range(-2, 3, 2)):
            for ib, two_mb in enumerate(range(-4, 5, 2)):
                for ic, two_mc in enumerate(range(-2, 3, 2)):
                    assert t.coeffs[ia, ib, ic] == pytest.approx(
                        cg_coefficient(2, two_ma, 4, two_mb, 2, two_mc), abs=1e-15
                    )

    def test_inadmissible_triple_raises(self):
        with pytest.raises(InadmissibleTriple):
            cg_tensor(1, 1, 1)

    def test_cache_returns_identical_object(self):
        assert cg_tensor(2, 2, 0) is cg_tensor(2, 2, 0)

    @pytest.mark.parametrize("two_ja,two_jb,two_jc", list(_admissible_triples(4)))
    def test_orthonormal_columns(self, two_ja, two_jb, two_jc):
        matrix = cg_tensor(two_ja, two_jb, two_jc).as_matrix()
        gram = matrix.T @ matrix
        assert np.max(np.abs(gram - np.eye(dim(two_jc)))) < 1e-14

    def test_completeness(self):
        # Summing C C^T over all jc resolves the identity on the product space.
        two_ja, two_jb = 2, 4
        total = np.zeros((dim(two_ja) * dim(two_jb),) * 2)
        for two_jc in allowed_couplings(two_ja, two_jb):
            m = cg_tensor(two_ja, two_jb, two_jc).as_matrix()
            total += m @ m.T
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-13


class TestEquivariance:
    @pytest.mark.parametrize("two_ja,two_jb,two_jc", [(1, 1, 2), (2, 2, 4), (2, 4, 2), (3, 2, 5)])
    def test_intertwines_wigner_matrices(self, two_ja, two_jb, two_jc):
        matrix = cg_tensor(two_ja, two_jb, two_jc).as_matrix()
        for seed in range(5):
            g = haar_rotation(seed)
            da = wigner_D(Spin(two_ja), g).matrix
            db = wigner_D(Spin(two_jb), g).matrix
            dc = wigner_D(Spin(two_jc), g).matrix
            residual = matrix.conj().T @ np.kron(da, db) @ matrix - dc
            assert np.max(np.abs(residual)) < 1e-13


class TestSpinZeroAndExchange:
    """The identities the interaction layer's lowering rests on."""

    @pytest.mark.parametrize("two_ja,two_jb,two_jc", list(_admissible_triples(4)))
    def test_exchange_symmetry(self, two_ja, two_jb, two_jc):
        # C^(jb, ja, jc)[mb, ma, mc] = (-1)^(ja + jb - jc) C^(ja, jb, jc)[ma, mb, mc]
        sign = -1.0 if (two_ja + two_jb - two_jc) // 2 % 2 else 1.0
        swapped = cg_tensor(two_jb, two_ja, two_jc).coeffs.transpose(1, 0, 2)
        assert np.array_equal(swapped, sign * cg_tensor(two_ja, two_jb, two_jc).coeffs)

    @pytest.mark.parametrize("two_j", range(9))
    def test_spin_zero_leg_is_exactly_the_identity(self, two_j):
        # so the gate product, (x ⊗ g)_j with g spin 0, is one broadcast multiply
        identity = np.eye(dim(two_j))
        assert np.array_equal(cg_tensor(two_j, 0, two_j).coeffs[:, 0, :], identity)
        assert np.array_equal(cg_tensor(0, two_j, two_j).coeffs[0], identity)
