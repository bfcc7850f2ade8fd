"""Fusion blocks: aggregate over inputs, contract diagrams, concatenate, mix."""

import numpy as np
import pytest

from spinfusion.blocks import (
    AggregationKind,
    FusionBlockConfig,
    apply,
    block_from_json,
    uniform_mixing,
)
from spinfusion.diagrams import contract, left_comb
from spinfusion.errors import ChannelMismatch, EmptyDiagramSet
from spinfusion.irreps import Activation, IrrepVector
from spinfusion.rotations import haar_rotation
from spinfusion.spins import Spin, dim
from spinfusion.wigner import wigner_D


def _vec(two_j, channels, rng):
    return IrrepVector(
        Spin(two_j),
        rng.normal(size=(dim(two_j), channels))
        + 1j * rng.normal(size=(dim(two_j), channels)),
    )


def _three_slot_config(channels=2, identity=False):
    diagrams = tuple(
        left_comb([2, 2, 2], [k], 2, slots=[0, 1, 2]) for k in (0, 2, 4)
    )
    mixing = (
        np.eye(3 * channels)
        if identity
        else uniform_mixing(3 * channels, channels, seed=11)
    )
    return FusionBlockConfig(diagrams, AggregationKind.SUM, mixing)


def _two_and_three_leaf_config(channels=2):
    """A two-leaf diagram over slots (0, 1) next to three-leaf ones over
    (0, 1, 2), as in a fusion block whose edge spin-0 leaf is dropped."""
    diagrams = (
        left_comb([2, 2], [], 2, slots=[0, 1]),
        *(left_comb([2, 2, 4], [k], 2, slots=[0, 1, 2]) for k in (2, 4)),
    )
    return FusionBlockConfig(
        diagrams, AggregationKind.SUM, uniform_mixing(3 * channels, channels, seed=12)
    )


class TestConfig:
    def test_empty_diagram_set_rejected(self):
        with pytest.raises(EmptyDiagramSet):
            FusionBlockConfig((), AggregationKind.SUM, np.eye(1))

    def test_diagrams_must_share_root_spin(self):
        with pytest.raises(ValueError):
            FusionBlockConfig(
                (left_comb([2, 2], [], 2), left_comb([2, 2], [], 4)),
                AggregationKind.SUM,
                np.eye(2),
            )

    def test_slots_are_the_union_of_the_diagrams_slots(self):
        cfg = _two_and_three_leaf_config()
        assert [d.slots for d in cfg.diagrams] == [(0, 1), (0, 1, 2), (0, 1, 2)]
        assert cfg.slots == (0, 1, 2)

    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)], ids=["1d", "3d"])
    def test_mixing_must_be_a_matrix(self, shape):
        diagrams = _three_slot_config().diagrams
        with pytest.raises(ValueError, match="must be a matrix"):
            FusionBlockConfig(diagrams, AggregationKind.SUM, np.ones(shape))

    def test_uniform_mixing_scale(self):
        m = uniform_mixing(16, 4, seed=3)
        assert m.shape == (16, 4)
        assert np.max(np.abs(m)) <= 16 ** -0.5 + 1e-12


class TestApply:
    def test_single_diagram_identity_mix_equals_contract(self):
        rng = np.random.default_rng(0)
        d = left_comb([2, 4], [], 2)
        cfg = FusionBlockConfig((d,), AggregationKind.SUM, np.eye(3))
        inputs = [_vec(2, 3, rng), _vec(4, 3, rng)]
        out = apply(cfg, inputs)
        expected = contract(d, inputs)
        assert np.max(np.abs(out.data - expected.data)) < 1e-14

    def test_concatenation_orders_diagrams(self):
        rng = np.random.default_rng(1)
        cfg = _three_slot_config(channels=2, identity=True)
        inputs = [_vec(2, 2, rng) for _ in range(3)]
        out = apply(cfg, inputs)
        for i, d in enumerate(cfg.diagrams):
            expected = contract(d, inputs)
            assert np.max(np.abs(out.data[:, 2 * i : 2 * i + 2] - expected.data)) < 1e-13

    def test_mixing_applies_to_concatenated_channels(self):
        rng = np.random.default_rng(2)
        cfg = _three_slot_config(channels=2)
        unmixed = _three_slot_config(channels=2, identity=True)
        inputs = [_vec(2, 2, rng) for _ in range(3)]
        mixed = apply(cfg, inputs)
        raw = apply(unmixed, inputs)
        assert np.max(np.abs(mixed.data - raw.data @ cfg.mixing)) < 1e-13

    def test_aggregation_is_sum_over_index_aligned_lists(self):
        rng = np.random.default_rng(3)
        cfg = _three_slot_config(channels=2)
        lists = [[_vec(2, 2, rng) for _ in range(4)] for _ in range(3)]
        zipped = apply(cfg, lists)
        total = np.zeros_like(zipped.data)
        for triple in zip(*lists):
            total += apply(cfg, [[v] for v in triple]).data
        assert np.max(np.abs(zipped.data - total)) < 1e-12

    def test_empty_lists_give_zeros(self):
        cfg = _three_slot_config(channels=2)
        out = apply(cfg, [[], [], []])
        assert out.spin.twice_j == 2
        assert out.data.shape == (3, 2)
        assert np.all(out.data == 0)

    def test_mismatched_list_lengths_rejected(self):
        rng = np.random.default_rng(4)
        cfg = _three_slot_config(channels=2)
        good = [_vec(2, 2, rng) for _ in range(3)]
        with pytest.raises(ChannelMismatch):
            apply(cfg, [good, good[:2], good])

    def test_mixed_scalar_and_list_slots(self):
        # A bare input on one slot is broadcast against a listed slot.
        rng = np.random.default_rng(5)
        cfg = _three_slot_config(channels=2)
        center = _vec(2, 2, rng)
        neighbors = [_vec(2, 2, rng) for _ in range(3)]
        edges = [_vec(2, 2, rng) for _ in range(3)]
        combined = apply(cfg, [center, neighbors, edges])
        total = np.zeros_like(combined.data)
        for n, e in zip(neighbors, edges):
            total += apply(cfg, [center, [n], [e]]).data
        assert np.max(np.abs(combined.data - total)) < 1e-12

    def test_multi_spin_activation_slot(self):
        rng = np.random.default_rng(6)
        diagrams = (
            left_comb([0, 2], [], 2, slots=[0, 1]),
            left_comb([2, 2], [], 2, slots=[0, 1]),
        )
        cfg = FusionBlockConfig(diagrams, AggregationKind.SUM, np.eye(4))
        act = Activation(
            {
                0: rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)),
                2: rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
            }
        )
        partner = _vec(2, 2, rng)
        out = apply(cfg, [act, partner])
        first = contract(diagrams[0], [act, partner])
        second = contract(diagrams[1], [act, partner])
        assert np.max(np.abs(out.data[:, :2] - first.data)) < 1e-13
        assert np.max(np.abs(out.data[:, 2:] - second.data)) < 1e-13


class TestTwoAndThreeLeafBlock:
    """A block whose diagrams read different slot sets: each diagram is
    summed over the index-aligned tuples of the slots it reads."""

    def _inputs(self, rng, n=4):
        return [_vec(2, 2, rng), [_vec(2, 2, rng) for _ in range(n)],
                [_vec(4, 2, rng) for _ in range(n)]]

    def test_equals_the_per_diagram_contract_sums_after_mixing(self):
        rng = np.random.default_rng(10)
        cfg = _two_and_three_leaf_config()
        center, neighbors, edges = self._inputs(rng)
        sums = [
            sum(contract(d, [center, n, e]).data for n, e in zip(neighbors, edges))
            for d in cfg.diagrams
        ]
        expected = np.concatenate(sums, axis=1) @ cfg.mixing
        out = apply(cfg, [center, neighbors, edges])
        assert np.max(np.abs(out.data - expected)) < 1e-13

    def test_rotation_and_permutation_residuals(self):
        # the residuals and tolerance of the acceptance suite's block check
        rng = np.random.default_rng(11)
        cfg = _two_and_three_leaf_config()
        inputs = self._inputs(rng)
        base = apply(cfg, inputs)
        scale = max(float(np.max(np.abs(base.data))), 1e-12)

        def rotate(v, g):
            return v.rotate(wigner_D(v.spin, g).matrix)

        for seed in range(10):
            g = haar_rotation(seed)
            center, neighbors, edges = inputs
            rotated = [rotate(center, g), [rotate(v, g) for v in neighbors],
                       [rotate(v, g) for v in edges]]
            expected = wigner_D(base.spin, g).matrix @ base.data
            residual = np.max(np.abs(apply(cfg, rotated).data - expected)) / scale
            assert residual <= 1e-12
        perm = [2, 0, 3, 1]
        permuted = [inputs[0], *([slot[i] for i in perm] for slot in inputs[1:])]
        assert np.max(np.abs(apply(cfg, permuted).data - base.data)) <= 1e-12


class TestEquivariance:
    def test_rotation_commutes_with_apply(self):
        rng = np.random.default_rng(7)
        cfg = _three_slot_config(channels=2)
        lists = [[_vec(2, 2, rng) for _ in range(3)] for _ in range(3)]
        base = apply(cfg, lists)
        for seed in range(5):
            g = haar_rotation(seed)
            rotated_lists = [
                [v.rotate(wigner_D(v.spin, g).matrix) for v in slot]
                for slot in lists
            ]
            rotated_out = apply(cfg, rotated_lists)
            expected = wigner_D(base.spin, g).matrix @ base.data
            assert np.max(np.abs(rotated_out.data - expected)) < 1e-12

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(8)
        cfg = _three_slot_config(channels=2)
        lists = [[_vec(2, 2, rng) for _ in range(4)] for _ in range(3)]
        base = apply(cfg, lists)
        perm = [2, 0, 3, 1]
        permuted = [[slot[i] for i in perm] for slot in lists]
        out = apply(cfg, permuted)
        assert np.max(np.abs(out.data - base.data)) < 1e-12


# a two-leaf diagram in the block-file format, (h_0 ⊗ h_1)_1
_PAIR_JSON = (
    '{"two_J": 2, "leaves": [{"slot": 0, "two_j": 2}, {"slot": 1, "two_j": 2}], '
    '"tree": {"left": {"slot": 0}, "right": {"slot": 1}}}'
)


class TestJson:
    @pytest.mark.parametrize(
        "mixing, expected",
        [
            ('{"rows": 2, "cols": 3, "init": "uniform", "seed": 11}', uniform_mixing(2, 3, 11)),
            ('{"rows": 2, "cols": 2, "init": "identity", "seed": 0}', np.eye(2)),
        ],
        ids=["uniform", "identity"],
    )
    def test_builds_the_recipes_matrix(self, mixing, expected):
        cfg = block_from_json(
            f'{{"diagrams": [{_PAIR_JSON}], "aggregation": "sum", "mixing": {mixing}}}'
        )
        assert cfg.diagrams == (left_comb([2, 2], [], 2, slots=[0, 1]),)
        assert cfg.aggregation == AggregationKind.SUM
        assert cfg.mixing.dtype == float
        assert np.array_equal(cfg.mixing, expected)
