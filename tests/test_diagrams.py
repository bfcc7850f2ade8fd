"""Fusion diagrams: validation, enumeration, contraction vs the dense oracle."""

import numpy as np
import pytest

from spinfusion.cg import cg_tensor
from spinfusion.diagrams import (
    FuseNode,
    FusionDiagram,
    LeafNode,
    check_recoupling,
    contract,
    dense_map,
    diagram_from_json,
    diagram_to_json,
    enumerate_internal,
    left_comb,
    recouple,
    validate,
)
from spinfusion.errors import RecouplingError
from spinfusion.irreps import Activation, IrrepVector
from spinfusion.rotations import haar_rotation
from spinfusion.spins import Spin, allowed_couplings, dim
from spinfusion.wigner import wigner_D


def _random_inputs(diagram, channels, rng):
    """One IrrepVector per slot, shaped by the first leaf spin seen there."""
    slot_spins = {}
    for slot, two_j in diagram.leaves:
        slot_spins.setdefault(slot, set()).add(two_j)
    inputs = {}
    for slot, spins in slot_spins.items():
        if len(spins) == 1:
            (two_j,) = spins
            data = rng.normal(size=(dim(two_j), channels)) + 1j * rng.normal(
                size=(dim(two_j), channels)
            )
            inputs[slot] = IrrepVector(Spin(two_j), data)
        else:
            parts = {
                two_j: rng.normal(size=(dim(two_j), channels))
                + 1j * rng.normal(size=(dim(two_j), channels))
                for two_j in spins
            }
            inputs[slot] = Activation(parts)
    return [inputs[slot] for slot in sorted(inputs)]


class TestLeftComb:
    def test_three_leaf_shape(self):
        d = left_comb([2, 2, 2], [2], 2)
        assert d.leaves == ((0, 2), (1, 2), (2, 2))
        assert d.two_J == 2
        assert isinstance(d.tree, FuseNode)
        assert isinstance(d.tree.left, FuseNode)
        assert isinstance(d.tree.right, LeafNode)
        assert d.tree.right.slot == 2

    def test_internal_spins_exclude_root(self):
        d = left_comb([1, 1, 2, 2], [0, 2], 4)
        assert d.internal_spins() == (0, 2)

    def test_two_leaves_have_no_internal_spins(self):
        d = left_comb([2, 2], [], 4)
        assert d.internal_spins() == ()

    def test_wrong_internal_count_rejected(self):
        with pytest.raises(ValueError):
            left_comb([2, 2, 2], [0, 2], 2)

    def test_custom_slots(self):
        d = left_comb([2, 2, 2], [2], 2, slots=[0, 0, 1])
        assert [slot for slot, _ in d.leaves] == [0, 0, 1]

    def test_repeated_slot_with_different_spins_allowed(self):
        d = left_comb([0, 2], [], 2, slots=[0, 0])
        assert validate(d) == []


class TestValidate:
    def test_valid_diagram_has_no_violations(self):
        assert validate(left_comb([2, 2, 2], [2], 2)) == []

    def test_inadmissible_root(self):
        violations = validate(left_comb([2, 2], [], 6))
        assert len(violations) == 1
        assert "cannot fuse" in violations[0]

    def test_inadmissible_internal_vertex(self):
        bad = left_comb([2, 2, 2], [6], 4)  # 1 x 1 cannot reach k = 3
        violations = validate(bad)
        assert violations
        assert any("cannot fuse" in v for v in violations)

    def test_half_integer_mixing_rule(self):
        # 1/2 x 1/2 -> 1 is fine; 1/2 x 1/2 -> 1/2 breaks integrality.
        assert validate(left_comb([1, 1], [], 2)) == []
        assert validate(left_comb([1, 1], [], 1)) != []


class TestEnumerate:
    def test_three_spin_one_leaves_to_one(self):
        assert enumerate_internal([2, 2, 2], 2) == [(0,), (2,), (4,)]

    def test_four_spin_one_leaves_to_zero(self):
        assert enumerate_internal([2, 2, 2, 2], 0) == [(0, 2), (2, 2), (4, 2)]

    def test_impossible_root_is_empty(self):
        assert enumerate_internal([2, 2], 6) == []

    def test_two_leaves_single_empty_assignment(self):
        assert enumerate_internal([2, 4], 6) == [()]

    def test_every_enumerated_assignment_validates(self):
        for ks in enumerate_internal([2, 4, 2, 2], 2):
            assert validate(left_comb([2, 4, 2, 2], list(ks), 2)) == []

    def test_counts_match_direct_product_decomposition(self):
        # Multiplicity of J in 1x1x1 = number of valid k chains.
        for two_J, count in ((0, 1), (2, 3), (4, 2), (6, 1)):
            assert len(enumerate_internal([2, 2, 2], two_J)) == count


class TestDenseMap:
    def test_two_leaf_dense_map_is_cg_matrix(self):
        d = left_comb([2, 2], [], 4)
        expected = cg_tensor(2, 2, 4).as_matrix()
        assert np.allclose(dense_map(d), expected, atol=1e-15)

    def test_columns_orthonormal(self):
        d = left_comb([2, 2, 2], [2], 2)
        m = dense_map(d)
        assert m.shape == (27, 3)
        assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-13

    def test_distinct_internal_spins_give_orthogonal_maps(self):
        maps = [
            dense_map(left_comb([2, 2, 2], [k], 2)) for k in (0, 2, 4)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = maps[i].conj().T @ maps[j]
                assert np.max(np.abs(overlap)) < 1e-13


def _left_family(leaf_two_js, two_J, slots=(0, 1, 2)):
    """Every ((a b)_k c)_J over the given leaves, k ascending."""
    return [
        left_comb(list(leaf_two_js), list(ks), two_J, slots=list(slots))
        for ks in enumerate_internal(leaf_two_js, two_J)
    ]


def _families():
    """Complete left-comb families over leaf spins 0..3/2, half-integers
    included, at every admissible root."""
    spins = (0, 1, 2, 3)
    for a in spins:
        for b in spins:
            for c in spins:
                for two_J in range(0, a + b + c + 1):
                    family = _left_family((a, b, c), two_J)
                    if family:
                        yield family


class TestRecouple:
    def test_every_family_is_reproduced_by_an_orthogonal_map(self):
        n_families = 0
        for family in _families():
            targets, U = recouple(family)
            assert U.dtype == np.float64
            assert U.shape == (len(family), len(family))  # complete families
            assert np.max(np.abs(U.T @ U - np.eye(len(family)))) <= 1e-12
            assert np.max(np.abs(U @ U.T - np.eye(len(family)))) <= 1e-12
            for column, d in enumerate(family):
                rebuilt = sum(U[row, column] * dense_map(t) for row, t in enumerate(targets))
                assert np.max(np.abs(rebuilt - dense_map(d))) <= 1e-12
            n_families += 1
        assert n_families > 50

    def test_targets_are_right_pairs_grouped_by_leaves(self):
        # two families interleaved: targets still come one family at a time,
        # in order of first appearance, each (a (b c)_k')_J with k' ascending
        first, second = _left_family((2, 2, 2), 2), _left_family((4, 4, 2), 2)
        mixed = [first[0], second[0], first[1], second[1], first[2], second[2]]
        targets, U = recouple(mixed)
        leaves = [t.leaves for t in targets]
        n = len(_left_family((2, 2, 2), 2))
        assert leaves == [first[0].leaves] * n + [second[0].leaves] * (len(targets) - n)
        for group in (targets[:n], targets[n:]):
            ks = [t.tree.right.two_k for t in group]
            assert ks == sorted(ks)
            for t in group:
                assert isinstance(t.tree.left, LeafNode) and validate(t) == []
                assert isinstance(t.tree.right.left, LeafNode)
                assert isinstance(t.tree.right.right, LeafNode)
        # no weight between different leaves
        assert np.all(U[n:, [0, 2, 4]] == 0) and np.all(U[:n, [1, 3, 5]] == 0)

    def test_incomplete_family_maps_onto_the_complete_one(self):
        # one internal spin of three: the targets are still the complete
        # family, and U has orthonormal columns
        d = left_comb([2, 2, 2], [4], 2)
        targets, U = recouple([d])
        assert U.shape == (3, 1)
        assert abs(np.linalg.norm(U[:, 0]) - 1.0) <= 1e-12

    def test_other_shapes_come_back_unchanged(self):
        chain = FusionDiagram(
            ((0, 0), (1, 2), (2, 2), (1, 2), (2, 2)),
            FuseNode(
                FuseNode(
                    FuseNode(FuseNode(LeafNode(0), LeafNode(1), 2), LeafNode(2), 2),
                    LeafNode(1), 2,
                ),
                LeafNode(2), 2,
            ),
            2,
        )
        others = [
            left_comb([2, 2, 2, 2], [2, 2], 2, slots=[0, 1, 2, 1]),
            chain,
            left_comb([2, 2], [], 2),
            FusionDiagram(((0, 2),), LeafNode(0), 2),
            FusionDiagram(
                ((0, 2), (1, 2), (2, 2)),
                FuseNode(LeafNode(0), FuseNode(LeafNode(1), LeafNode(2), 2), 2),
                2,
            ),
        ]
        targets, U = recouple(others)
        assert targets == tuple(others)
        assert np.array_equal(U, np.eye(len(others)))

    def test_first_stage_of_a_chain_comes_back_unchanged(self):
        # ((0 1)_2 2)_2 is the chain's first stage, so it stays as built;
        # ((0 1)_0 2)_2 is not, so it is recoupled
        chain = FusionDiagram(
            ((0, 0), (1, 2), (2, 2), (1, 2), (2, 2)),
            FuseNode(
                FuseNode(
                    FuseNode(FuseNode(LeafNode(0), LeafNode(1), 2), LeafNode(2), 2),
                    LeafNode(1), 2,
                ),
                LeafNode(2), 2,
            ),
            2,
        )
        stage = left_comb([0, 2, 2], [2], 2)
        single = left_comb([2, 2, 2], [0], 2)
        targets, U = recouple([stage, chain, single])
        assert targets[:2] == (stage, chain)
        assert np.array_equal(U[:2, :2], np.eye(2))
        assert all(t.leaves == single.leaves for t in targets[2:])
        # alone, the stage is recoupled like any three-leaf diagram
        assert recouple([stage])[0] != (stage,)

    def test_corrupted_map_raises(self):
        family = _left_family((2, 2, 2), 2) + _left_family((0, 2, 2), 2)
        targets, U = recouple(family)
        check_recoupling(family, targets, U)  # the real map passes
        nudged = U.copy()
        nudged[0, 0] += 1e-9
        stray = U.copy()
        stray[-1, 0] = 1e-9  # weight on a target of other leaves
        for corrupt in (nudged, U + 1e-9j, stray, U[:-1]):
            with pytest.raises(RecouplingError):
                check_recoupling(family, targets, corrupt)
        with pytest.raises(RecouplingError):
            check_recoupling(family, targets[::-1], U)


class TestContract:
    @pytest.mark.parametrize(
        "leaves,ks,two_J",
        [
            ([2, 2], [], 0),
            ([2, 2], [], 4),
            ([2, 2, 2], [2], 2),
            ([1, 1, 2], [2], 2),
            ([2, 4, 2, 2], [2, 2], 2),
        ],
    )
    def test_matches_dense_map(self, leaves, ks, two_J):
        rng = np.random.default_rng(42)
        d = left_comb(leaves, ks, two_J)
        channels = 3
        inputs = _random_inputs(d, channels, rng)
        result = contract(d, inputs)
        assert result.spin.twice_j == two_J

        m = dense_map(d)
        for t in range(channels):
            columns = [np.asarray(inputs[slot].data[:, t]) for slot, _ in d.leaves]
            kron = columns[0]
            for col in columns[1:]:
                kron = np.kron(kron, col)
            expected = m.T @ kron
            assert np.max(np.abs(result.data[:, t] - expected)) < 1e-12

    def test_channel_counts_must_agree(self):
        d = left_comb([2, 2], [], 4)
        rng = np.random.default_rng(0)
        a = IrrepVector(Spin(2), rng.normal(size=(3, 2)).astype(complex))
        b = IrrepVector(Spin(2), rng.normal(size=(3, 3)).astype(complex))
        with pytest.raises(Exception):
            contract(d, [a, b])

    def test_equivariance(self):
        rng = np.random.default_rng(7)
        d = left_comb([2, 2, 2], [2], 2)
        inputs = _random_inputs(d, 2, rng)
        for seed in range(5):
            g = haar_rotation(seed)
            rotated_inputs = [
                v.rotate(wigner_D(v.spin, g).matrix) if isinstance(v, IrrepVector)
                else v.rotate(g)
                for v in inputs
            ]
            left = contract(d, rotated_inputs).data
            right = wigner_D(Spin(2), g).matrix @ contract(d, inputs).data
            assert np.max(np.abs(left - right)) < 1e-12

    def test_repeated_slot_uses_same_input_twice(self):
        d = left_comb([2, 2], [], 4, slots=[0, 0])
        rng = np.random.default_rng(3)
        v = IrrepVector(
            Spin(2),
            rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
        )
        result = contract(d, [v])
        m = dense_map(d)
        for t in range(2):
            kron = np.kron(v.data[:, t], v.data[:, t])
            assert np.max(np.abs(result.data[:, t] - m.T @ kron)) < 1e-12

    def test_multi_spin_slot_selects_leaf_spin(self):
        # A slot holding several spins contributes the part each leaf names.
        d = left_comb([0, 2], [], 2, slots=[0, 0])
        rng = np.random.default_rng(4)
        act = Activation(
            {
                0: rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)),
                2: rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
            }
        )
        result = contract(d, [act])
        m = dense_map(d)
        for t in range(2):
            kron = np.kron(act.part(0)[:, t], act.part(2)[:, t])
            assert np.max(np.abs(result.data[:, t] - m.T @ kron)) < 1e-12


class TestRandomizedOracle:
    def test_random_diagrams_contract_equals_dense(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 40:
            n_leaves = int(rng.integers(2, 5))
            leaf_spins = [int(rng.integers(0, 4)) for _ in range(n_leaves)]
            roots = [
                two_J
                for two_J in range(0, 13)
                if enumerate_internal(leaf_spins, two_J)
            ]
            if not roots:
                continue
            two_J = int(roots[rng.integers(0, len(roots))])
            assignments = enumerate_internal(leaf_spins, two_J)
            ks = list(assignments[rng.integers(0, len(assignments))])
            d = left_comb(leaf_spins, ks, two_J)
            inputs = _random_inputs(d, 2, rng)
            result = contract(d, inputs)
            m = dense_map(d)
            for t in range(2):
                kron = np.asarray([1.0 + 0j])
                for slot, two_j in d.leaves:
                    value = inputs[slot]
                    column = (
                        value.part(two_j)[:, t]
                        if isinstance(value, Activation)
                        else value.data[:, t]
                    )
                    kron = np.kron(kron, column)
                assert np.max(np.abs(result.data[:, t] - m.T @ kron)) < 1e-12
            checked += 1


class TestJson:
    def test_round_trip(self):
        d = left_comb([2, 2, 2], [2], 2, slots=[0, 1, 1])
        assert diagram_from_json(diagram_to_json(d)) == d

    def test_json_is_valid_and_structured(self):
        import json

        payload = json.loads(diagram_to_json(left_comb([1, 1], [], 0)))
        assert payload["two_J"] == 0
        assert [leaf["two_j"] for leaf in payload["leaves"]] == [1, 1]

    def test_malformed_json_raises(self):
        with pytest.raises(Exception):
            diagram_from_json("{\"leaves\": []}")
