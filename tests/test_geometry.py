"""Cell-list neighbor search against a brute-force all-pairs oracle."""

import tracemalloc

import numpy as np
import pytest

import spinfusion.model as model_module
from spinfusion import autodiff as ad
from spinfusion.errors import ZeroVector
from spinfusion.geometry import PointCloud, build_neighborhood, edge_index
from spinfusion.model import Model, ModelConfig


def all_pairs(positions, cutoff, groups=None):
    """(src, dst, lists) of the dense all-pairs search: i in N(o) iff i != o
    and |x_i - x_o| <= cutoff (and the groups agree), ordered by o then i."""
    pos = np.asarray(positions, dtype=float)
    delta = pos[None, :, :] - pos[:, None, :]
    within = np.sqrt(np.sum(delta * delta, axis=-1)) <= cutoff
    np.fill_diagonal(within, False)
    if groups is not None:
        within &= groups[:, None] == groups[None, :]
    src, dst = np.nonzero(within)
    lists = tuple(tuple(int(i) for i in np.nonzero(row)[0]) for row in within)
    return src.astype(int), dst.astype(int), lists


def assert_matches_all_pairs(positions, cutoff, groups=None):
    nbr = build_neighborhood(PointCloud(positions, np.zeros(len(positions), int)), cutoff, groups)
    want_src, want_dst, want_lists = all_pairs(positions, cutoff, groups)
    src, dst = edge_index(nbr)
    assert src.dtype == want_src.dtype and dst.dtype == want_dst.dtype
    np.testing.assert_array_equal(src, want_src)
    np.testing.assert_array_equal(dst, want_dst)
    assert nbr.lists == want_lists
    return nbr


def _lattice(n, spacing):
    axis = np.arange(n) * spacing
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


class TestAgainstAllPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 5, 9, 20, 80):
            positions = rng.normal(size=(n, 3)) * rng.uniform(0.3, 4.0)
            assert_matches_all_pairs(positions, float(rng.uniform(0.5, 4.0)))

    @pytest.mark.parametrize("seed", range(3))
    def test_clustered_clouds(self, seed):
        rng = np.random.default_rng(100 + seed)
        centers = rng.uniform(-20, 20, size=(5, 3))
        members = rng.integers(0, 5, size=60)
        positions = centers[members] + rng.normal(size=(60, 3)) * rng.uniform(0.05, 1.5, size=(60, 1))
        for cutoff in (0.5, 3.0, 12.0):
            assert_matches_all_pairs(positions, cutoff)

    def test_lattice_pairs_at_exactly_the_cutoff_are_neighbors(self):
        # 4 x 4 x 4 simple cubic lattice; spacing 1.5 makes every axial
        # distance exactly 1.5, so only the 6 axial neighbors lie within it
        positions = _lattice(4, 1.5)
        nbr = assert_matches_all_pairs(positions, 1.5)
        assert nbr.src.size == 2 * 3 * 4 * 4 * 3
        for cutoff in (1.5 * np.sqrt(2), 1.5 * np.sqrt(3), 3.0):
            assert_matches_all_pairs(positions, cutoff)

    def test_lattice_with_rounded_spacing_and_negative_coordinates(self):
        positions = _lattice(5, 0.1) - 7.3
        for cutoff in (0.1, 0.2, np.sqrt(0.02)):
            assert_matches_all_pairs(positions, cutoff)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(7)
        assert_matches_all_pairs(rng.normal(size=(40, 3)) * 2.0 - 1000.0, 3.0)

    def test_single_atom(self):
        nbr = assert_matches_all_pairs(np.array([[0.3, -2.0, 5.0]]), 3.0)
        assert nbr.src.size == 0 and nbr.lists == ((),)

    def test_isolated_atoms(self):
        positions = np.arange(6)[:, None] * np.array([[10.0, -7.0, 3.0]])
        nbr = assert_matches_all_pairs(positions, 3.0)
        assert nbr.lists == ((),) * 6

    def test_infinite_cutoff_joins_every_pair(self):
        rng = np.random.default_rng(3)
        positions = rng.normal(size=(7, 3)) * 100.0
        nbr = assert_matches_all_pairs(positions, float("inf"))
        assert nbr.src.size == 7 * 6

    def test_coincident_distinct_atoms_are_neighbors(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nbr = assert_matches_all_pairs(positions, 3.0)
        assert nbr.lists == ((1, 2), (0, 2), (0, 1))


class TestExtremeExtents:
    @pytest.mark.parametrize("far", [1e15, 1e300])
    def test_far_apart_atoms(self, far):
        # the suite turns RuntimeWarnings into errors, so an overflow fails here
        positions = np.array([[0.0, 0.0, 0.0], [far, 0.0, 0.0], [far, 2.0, 0.0], [-far, 0.0, far]])
        tracemalloc.start()
        try:
            nbr = build_neighborhood(PointCloud(positions, np.zeros(4, int)), 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # no array sized by the extent
        assert nbr.lists == ((), (2,), (1,), ())

    def test_far_apart_atoms_match_all_pairs(self):
        rng = np.random.default_rng(11)
        positions = np.concatenate([rng.normal(size=(10, 3)), rng.normal(size=(10, 3)) + 1e15])
        assert_matches_all_pairs(positions, 3.0)


class TestGroups:
    def test_overlapping_samples_give_the_per_sample_edges(self):
        rng = np.random.default_rng(5)
        counts = [4, 9, 1, 6]
        clouds = [rng.normal(size=(n, 3)) * 1.2 for n in counts]  # all around the origin
        groups = np.repeat(np.arange(len(counts)), counts)
        nbr = assert_matches_all_pairs(np.concatenate(clouds), 3.0, groups)
        assert np.all(groups[nbr.src] == groups[nbr.dst])
        firsts = np.cumsum(counts) - counts
        per_sample = [
            edge_index(build_neighborhood(PointCloud(c, np.zeros(len(c), int)), 3.0))
            for c in clouds
        ]
        np.testing.assert_array_equal(
            nbr.src, np.concatenate([s + a for (s, _), a in zip(per_sample, firsts)])
        )
        np.testing.assert_array_equal(
            nbr.dst, np.concatenate([d + a for (_, d), a in zip(per_sample, firsts)])
        )

    def test_groups_must_be_one_per_atom(self):
        pc = PointCloud(np.zeros((3, 3)), np.zeros(3, int))
        with pytest.raises(ValueError, match="one integer per atom"):
            build_neighborhood(pc, 3.0, np.zeros(2, int))

    def test_non_integer_groups_rejected(self):
        # a cast would truncate [0.5, 0.9, 1.5] to [0, 0, 1] and join two atoms
        pc = PointCloud(np.eye(3), np.zeros(3, int))
        with pytest.raises(ValueError, match="groups"):
            build_neighborhood(pc, 3.0, [0.5, 0.9, 1.5])
        as_floats = build_neighborhood(pc, 3.0, [0.0, 0.0, 1.0])
        as_ints = build_neighborhood(pc, 3.0, [0, 0, 1])
        assert np.array_equal(as_floats.src, as_ints.src)
        assert np.array_equal(as_floats.dst, as_ints.dst)


class TestSpecies:
    @pytest.mark.parametrize("bad", [[0.2, 1.9, 1.5], [0, 1, np.nan], [True, False, True]])
    def test_non_integer_species_rejected(self, bad):
        # a cast would truncate [0.2, 1.9, 1.5] to [0, 1, 1] without a word
        with pytest.raises(ValueError, match="species"):
            PointCloud(np.eye(3), bad)

    def test_integer_valued_species_are_integers(self):
        pc = PointCloud(np.eye(3), [0.0, 1.0, 1.0])
        assert pc.species.dtype.kind == "i"
        assert np.array_equal(pc.species, [0, 1, 1])


class TestModelUse:
    def test_coincident_atoms_fail_the_force_call(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for j_max in (0, 1):
            model = Model(ModelConfig(kind="gated", tau=2, j_max=j_max, radial_channels=2, hidden=4))
            with pytest.raises(ZeroVector):
                model.energy_and_forces(positions, np.zeros(3, int))

    def test_one_search_per_batch(self, monkeypatch):
        calls = {"build_neighborhood": 0, "edge_index": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(model_module, name, counted(name, getattr(model_module, name)))
        model = Model(ModelConfig(kind="fused", tau=2, radial_channels=2, hidden=4))
        rng = np.random.default_rng(2)
        counts = [3, 5, 4]
        tape = ad.Tape()
        positions = tape.variable(rng.normal(size=(sum(counts), 3)))
        energies = model.taped_forward(
            tape, positions, np.zeros(sum(counts), int), counts, model.parameter_nodes(tape)
        )
        assert energies.shape == (3,)
        assert calls == {"build_neighborhood": 1, "edge_index": 1}
