"""End-to-end energy models: invariances, forces, config round trips."""

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.errors import ShapeMismatch
from spinfusion.model import KINDS, Model, ModelConfig
from spinfusion.rotations import haar_rotation, rotation_matrix


def _small_config(kind, **overrides):
    base = dict(
        kind=kind,
        n_layers=1,
        tau=3,
        j_max=1,
        cutoff=3.0,
        radial_channels=4,
        hidden=8,
        internal_spins=(0, 1, 2),
        n_species=2,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _cloud(n, seed, spread=1.3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) * spread, rng.integers(0, 2, size=n)


class TestConfig:
    def test_json_round_trip(self):
        config = _small_config("three_body", schedule_mode="dense", n_layers=2)
        restored = ModelConfig.from_json(config.to_json())
        assert restored == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ModelConfig.from_json('{"kind": "gated", "learning_rate": 0.1}')

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            ModelConfig(kind="transformer")

    def test_defaults_build(self):
        model = Model(ModelConfig())
        assert model.parameter_count() > 0


class TestInvariances:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rotation_invariance(self, kind):
        model = Model(_small_config(kind))
        positions, species = _cloud(6, seed=10)
        energy = model.plain_energy(positions, species)
        for k in range(5):
            rotation = rotation_matrix(haar_rotation(100 + k))
            rotated = model.plain_energy(positions @ rotation.T, species)
            assert abs(rotated - energy) <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_translation_invariance(self, kind):
        model = Model(_small_config(kind))
        positions, species = _cloud(6, seed=10)
        energy = model.plain_energy(positions, species)
        shifted = model.plain_energy(positions + np.array([5.0, -3.0, 1.0]), species)
        assert abs(shifted - energy) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_permutation_invariance(self, kind):
        model = Model(_small_config(kind))
        positions, species = _cloud(6, seed=10)
        energy = model.plain_energy(positions, species)
        perm = np.array([4, 2, 0, 5, 1, 3])
        permuted = model.plain_energy(positions[perm], species[perm])
        assert abs(permuted - energy) <= 1e-12


class TestForces:
    @pytest.mark.parametrize("kind", KINDS)
    def test_forces_rotate_covariantly(self, kind):
        model = Model(_small_config(kind))
        positions, species = _cloud(6, seed=20)
        _, forces = model.energy_and_forces(positions, species)
        rotation = rotation_matrix(haar_rotation(55))
        _, forces_rot = model.energy_and_forces(positions @ rotation.T, species)
        assert np.max(np.abs(forces_rot - forces @ rotation.T)) <= 1e-8

    @pytest.mark.parametrize("kind", KINDS)
    def test_net_force_is_zero(self, kind):
        model = Model(_small_config(kind))
        positions, species = _cloud(6, seed=20)
        _, forces = model.energy_and_forces(positions, species)
        assert np.max(np.abs(forces.sum(axis=0))) <= 1e-10

    def test_forces_match_energy_finite_differences(self):
        model = Model(_small_config("gated"))
        positions, species = _cloud(5, seed=21)
        _, forces = model.energy_and_forces(positions, species)
        step = 1e-6
        for atom in (0, 3):
            for axis in range(3):
                plus = positions.copy()
                plus[atom, axis] += step
                minus = positions.copy()
                minus[atom, axis] -= step
                derivative = (
                    model.plain_energy(plus, species)
                    - model.plain_energy(minus, species)
                ) / (2 * step)
                assert -derivative == pytest.approx(
                    forces[atom, axis], rel=1e-6, abs=1e-9
                )

    def test_isolated_atoms_feel_no_force(self):
        # far beyond the cutoff every neighborhood is empty
        model = Model(_small_config("gated", cutoff=2.0))
        positions = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        species = np.array([0, 1, 0])
        energy, forces = model.energy_and_forces(positions, species)
        assert np.isfinite(energy)
        assert np.max(np.abs(forces)) <= 1e-14

    def test_isolated_energy_is_sum_of_atomic_terms(self):
        model = Model(_small_config("gated", cutoff=2.0))
        species = np.array([0, 1])
        far = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        together = model.plain_energy(far, species)
        single_0 = model.plain_energy(np.zeros((1, 3)), np.array([0]))
        single_1 = model.plain_energy(np.zeros((1, 3)), np.array([1]))
        assert together == pytest.approx(single_0 + single_1, abs=1e-12)


class TestPlainVsTaped:
    @pytest.mark.parametrize("kind", KINDS)
    def test_energy_paths_agree(self, kind):
        model = Model(_small_config(kind, n_layers=2))
        positions, species = _cloud(6, seed=30)
        plain = model.plain_energy(positions, species)
        tape = ad.Tape()
        node = tape.variable(positions)
        energy = model.taped_forward(tape, node, species, model.parameter_nodes(tape))
        assert energy.value == pytest.approx(plain, abs=1e-12)


class TestParameters:
    def test_set_parameters_round_trip(self):
        model = Model(_small_config("fused"))
        values = model.parameters()
        doubled = {k: 2.0 * v for k, v in values.items()}
        model.set_parameters(doubled)
        after = model.parameters()
        for key, v in doubled.items():
            assert np.array_equal(after[key], v)

    def test_set_parameters_shape_mismatch(self):
        model = Model(_small_config("gated"))
        name = next(iter(model.parameters()))
        with pytest.raises(ShapeMismatch):
            model.set_parameters({name: np.zeros((99, 99))})

    def test_bad_positions_shape_rejected(self):
        model = Model(_small_config("gated"))
        with pytest.raises(ShapeMismatch):
            model.plain_energy(np.zeros((4, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", ["energy_and_forces", "plain_energy"])
    def test_non_finite_positions_rejected(self, path, bad):
        # a NaN atom fails every cutoff test, so without the check it would
        # silently count as isolated: finite energy, zero force
        model = Model(_small_config("fused"))
        positions, species = _cloud(5, seed=4)
        positions[2, 1] = bad
        with pytest.raises(ValueError, match=r"finite; atoms \[2\]"):
            getattr(model, path)(positions, species)

    def test_species_out_of_range_rejected(self):
        model = Model(_small_config("gated", n_species=2))
        with pytest.raises(ValueError):
            model.plain_energy(np.zeros((1, 3)), np.array([5]))

    def test_describe_names_every_group(self):
        model = Model(_small_config("three_body", schedule_mode="sparse"))
        text = model.describe()
        for key in model.parameters():
            assert key in text
        assert str(model.parameter_count()) in text

    def test_deterministic_construction(self):
        a = Model(_small_config("fused")).parameters()
        b = Model(_small_config("fused")).parameters()
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key])
