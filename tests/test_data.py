"""Synthetic labelled datasets and their JSONL serialization."""

import json

import numpy as np
import pytest

from spinfusion import data
from spinfusion.data import (
    MIN_SEPARATION,
    RejectionFailure,
    Sample,
    ShapeMismatch,
    UNITS,
    generate_dataset,
    load_jsonl,
    save_jsonl,
)
from spinfusion.potentials import POTENTIAL_KINDS, potential_energy_forces


class TestPotentials:
    @pytest.mark.parametrize("kind", POTENTIAL_KINDS)
    def test_forces_are_negative_energy_gradient(self, kind):
        rng = np.random.default_rng(17)
        positions = rng.normal(size=(5, 3)) * 1.5
        _, forces = potential_energy_forces(positions, kind)
        step = 1e-6
        for atom in (0, 2, 4):
            for axis in range(3):
                plus = positions.copy()
                plus[atom, axis] += step
                minus = positions.copy()
                minus[atom, axis] -= step
                e_plus, _ = potential_energy_forces(plus, kind)
                e_minus, _ = potential_energy_forces(minus, kind)
                derivative = (e_plus - e_minus) / (2 * step)
                assert -derivative == pytest.approx(
                    forces[atom, axis], rel=1e-6, abs=1e-8
                )

    @pytest.mark.parametrize("kind", POTENTIAL_KINDS)
    def test_net_force_vanishes(self, kind):
        rng = np.random.default_rng(18)
        positions = rng.normal(size=(6, 3)) * 1.5
        _, forces = potential_energy_forces(positions, kind)
        assert np.max(np.abs(forces.sum(axis=0))) <= 1e-10

    def test_angular_term_changes_the_labels(self):
        rng = np.random.default_rng(19)
        positions = rng.normal(size=(4, 3)) * 1.5
        e_pair, _ = potential_energy_forces(positions, "morse")
        e_full, _ = potential_energy_forces(positions, "morse-angular")
        assert e_pair != e_full

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            potential_energy_forces(np.zeros((2, 3)), "lennard-jones")


class TestSample:
    def test_non_integer_species_rejected(self):
        # a cast would truncate [0.2, 1.9] to [0, 1] without a word
        with pytest.raises(ValueError, match="species"):
            Sample(np.eye(2, 3), [0.2, 1.9], 0.0, np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "positions, species, error, message",
        [
            (np.zeros((0, 3)), [], ShapeMismatch, "at least one atom"),
            (np.eye(2), [0, 1], ShapeMismatch, r"positions must be \(N, 3\)"),
            (np.eye(2, 3), [0, 1, 0], ShapeMismatch, "one integer per atom"),
            (np.array([[0.0, np.nan, 0.0], [1.0, 0.0, 0.0]]), [0, 1], ValueError,
             r"finite; atoms \[0\]"),
            (np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]), [0, 1], ValueError,
             r"finite; atoms \[1\]"),
        ],
        ids=["empty", "two_columns", "long_species", "nan", "inf"],
    )
    def test_cloud_is_checked_as_a_point_cloud(self, positions, species, error, message):
        with pytest.raises(error, match=message):
            Sample(positions, species, 0.0, np.zeros(positions.shape))

    def test_forces_of_another_shape_rejected(self):
        with pytest.raises(ShapeMismatch, match="forces shape"):
            Sample(np.eye(2, 3), [0, 1], 0.0, np.zeros((3, 3)))

    def test_integer_valued_species_are_integers(self):
        sample = Sample(np.eye(2, 3), [0.0, 1.0], 0.0, np.zeros((2, 3)))
        assert sample.species.dtype.kind == "i"
        assert np.array_equal(sample.species, [0, 1])


class TestGeneration:
    def test_shapes_and_sizes(self):
        samples = generate_dataset(8, 5, "morse", seed=1)
        assert len(samples) == 8
        for s in samples:
            assert s.positions.shape == (5, 3)
            assert s.species.shape == (5,)
            assert s.forces.shape == (5, 3)
            assert np.isfinite(s.energy)

    def test_minimum_separation_enforced(self):
        samples = generate_dataset(16, 6, "morse", seed=2)
        for s in samples:
            deltas = s.positions[:, None, :] - s.positions[None, :, :]
            distances = np.linalg.norm(deltas, axis=-1)
            np.fill_diagonal(distances, np.inf)
            assert distances.min() >= MIN_SEPARATION

    def test_deterministic_per_seed(self):
        a = generate_dataset(4, 5, "morse-angular", seed=9)
        b = generate_dataset(4, 5, "morse-angular", seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.positions, y.positions)
            assert np.array_equal(x.species, y.species)
            assert x.energy == y.energy
            assert np.array_equal(x.forces, y.forces)

    def test_different_seeds_differ(self):
        a = generate_dataset(2, 5, "morse", seed=0)
        b = generate_dataset(2, 5, "morse", seed=1)
        assert not np.array_equal(a[0].positions, b[0].positions)

    def test_labels_match_generating_potential(self):
        samples = generate_dataset(4, 5, "morse", seed=3)
        for s in samples:
            energy, forces = potential_energy_forces(s.positions, "morse")
            assert s.energy == pytest.approx(energy, abs=1e-12)
            assert np.allclose(s.forces, forces, atol=1e-12)

    def test_impossible_packing_raises(self, monkeypatch):
        # 50 atoms at 5.0 separation cannot fit in the sampling volume
        monkeypatch.setattr(data, "MIN_SEPARATION", 5.0)
        with pytest.raises(RejectionFailure):
            generate_dataset(1, 50, "morse", seed=0)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        samples = generate_dataset(5, 4, "morse-angular", seed=5)
        path = tmp_path / "data.jsonl"
        save_jsonl(samples, str(path))
        restored = load_jsonl(str(path))
        assert len(restored) == len(samples)
        for x, y in zip(samples, restored):
            assert np.allclose(x.positions, y.positions, atol=0)
            assert np.array_equal(x.species, y.species)
            assert x.energy == y.energy
            assert np.allclose(x.forces, y.forces, atol=0)

    def test_records_carry_units(self, tmp_path):
        samples = generate_dataset(2, 3, "morse", seed=6)
        path = tmp_path / "data.jsonl"
        save_jsonl(samples, str(path))
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                assert record["units"] == UNITS
                for key in ("positions", "species", "energy", "forces"):
                    assert key in record

    def test_full_float_precision_survives(self, tmp_path):
        sample = Sample(
            positions=np.array([[0.1 + 1e-16, 0.0, 0.0], [1.7320508075688772, 0.0, 0.0]]),
            species=np.array([0, 1]),
            energy=-0.12345678901234567,
            forces=np.zeros((2, 3)),
        )
        path = tmp_path / "one.jsonl"
        save_jsonl([sample], str(path))
        restored = load_jsonl(str(path))[0]
        assert restored.energy == sample.energy
        assert np.array_equal(restored.positions, sample.positions)

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        good = json.dumps({"positions": [[0.0, 0.0, 0.0]], "species": [0], "energy": 0.5,
                           "forces": [[0.0, 0.0, 0.0]]})
        path = tmp_path / "gaps.jsonl"
        path.write_text(f"\n{good}\n   \n\n{good}\n\n")
        samples = load_jsonl(str(path))
        assert [sample.energy for sample in samples] == [0.5, 0.5]
        path.write_text(f"\n{good}\n   \n{{not json\n")
        with pytest.raises(ValueError, match=r"gaps\.jsonl:4: invalid JSON"):
            load_jsonl(str(path))

    def test_shape_mismatch_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {
            "positions": [[0.0, 0.0, 0.0]],
            "species": [0, 1],  # two species for one atom
            "energy": 0.0,
            "forces": [[0.0, 0.0, 0.0]],
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ShapeMismatch):
            load_jsonl(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["positions", "energy", "forces"])
    def test_non_finite_values_rejected_on_load(self, tmp_path, field, bad):
        def record():
            return {
                "positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                "species": [0, 1],
                "energy": -0.5,
                "forces": [[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]],
            }

        broken = record()
        if field == "energy":
            broken["energy"] = bad
        else:
            broken[field][1][2] = bad
        path = tmp_path / "bad.jsonl"
        # json.dumps writes NaN / Infinity literals, which json.loads accepts
        path.write_text(json.dumps(record()) + "\n" + json.dumps(broken) + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl:2: non-finite {field}"):
            load_jsonl(str(path))

    @pytest.mark.parametrize("field", ["positions", "forces"])
    def test_rows_of_three_json_numbers_only(self, tmp_path, field):
        # a string or bool entry is not read as a number, and a short row
        # names its record
        good = {"positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "species": [0, 1],
                "energy": -0.5, "forces": [[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]]}
        path = tmp_path / "bad.jsonl"
        for bad, message in (("0", r"\[1\]\[0\] must be a JSON number"),
                             (True, r"\[1\]\[0\] must be a JSON number"),
                             (None, r"\[1\] must hold 3 numbers, got 2")):
            broken = json.loads(json.dumps(good))
            broken[field][1] = [bad, 0.0, 0.0] if bad is not None else [1.0, 0.0]
            path.write_text(json.dumps(good) + "\n" + json.dumps(broken) + "\n")
            with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {field}{message}"):
                load_jsonl(str(path))
