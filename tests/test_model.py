"""End-to-end energy models: invariances, forces, config round trips."""

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.errors import ShapeMismatch
from spinfusion.geometry import PointCloud, build_neighborhood
from spinfusion.layers import seeded_uniform
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", 0), ("tau", 2.5), ("n_species", 0), ("hidden", 0), ("radial_channels", 0),
            ("n_layers", 0), ("n_layers", -2), ("j_max", -1), ("cutoff", 0.0),
            ("cutoff", -1.0), ("cutoff", float("nan")), ("cutoff", float("inf")),
            ("internal_spins", (-1,)), ("internal_spins", (0.5,)),
            ("internal_spins", (0, 1, 1)),
            ("schedule_mode", "full"), ("seed", -1),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    def test_three_body_layer_without_spin_zero_output_rejected(self):
        # internal spins [1] leave the first layer no spin-0 part to read out
        config = ModelConfig(kind="three_body", internal_spins=(1,))
        with pytest.raises(ValueError, match="layer 0 produces no spin-0 part"):
            Model(config)

    @pytest.mark.parametrize(
        "kind, field, values",
        [
            ("three_body", "hidden", (8, 16)),
            ("gated", "schedule_mode", ("sparse", "dense")),
            ("fused", "internal_spins", ((0, 1), (0, 2, 3))),
        ],
    )
    def test_fields_a_kind_never_reads_take_their_defaults(self, kind, field, values):
        # so they enter neither the saved config nor a run's hash
        configs = [_small_config(kind, **{field: value}) for value in values]
        assert configs[0] == configs[1]
        assert getattr(configs[0], field) == ModelConfig.__dataclass_fields__[field].default
        assert ModelConfig.from_json(configs[1].to_json()) == configs[0]

    def test_nan_cutoff_rejected_by_neighborhood(self):
        pc = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0]]), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="cutoff must be positive"):
            build_neighborhood(pc, float("nan"))


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
        energy = model.taped_forward(tape, node, species, [6], model.parameter_nodes(tape))
        assert energy.value == pytest.approx(plain, abs=1e-12)


@pytest.mark.parametrize(
    "kind, overrides",
    [("gated", {}), ("fused", {}), ("three_body", {}), ("three_body", {"schedule_mode": "dense"})],
    ids=["gated", "fused", "three_body_sparse", "three_body_dense"],
)
def test_taped_forward_records_only_ancestors_of_the_energy(kind, overrides):
    # the last layer must record only the spins the readout reads (spin 0);
    # outputs of higher spin there would be recorded and never used.  Every
    # node counts, constant leaves included (an edge input that no layer
    # reads would be one); only the parameter and position leaves are
    # exempt, since the last layer's unread weights are parameters too
    model = Model(_small_config(kind, n_layers=2, **overrides))
    positions, species = _cloud(6, seed=5)
    tape = ad.Tape()
    param_nodes = model.parameter_nodes(tape)
    position_node = tape.variable(positions)
    energy = model.taped_forward(tape, position_node, species, [6], param_nodes)
    live: set[int] = set()
    stack = [energy]
    while stack:
        node = stack.pop()
        if node.id not in live:
            live.add(node.id)
            stack.extend(parent for parent, _ in node.parents)
    exempt = {node.id for node in param_nodes.values()} | {position_node.id}
    dead = [node.id for node in tape.nodes if node.id not in live | exempt]
    assert dead == []


def _recorded_forces(model, positions, species):
    """Forces of ``taped_energies_and_forces``, whose backward is recorded."""
    tape = ad.Tape()
    _, forces = model.taped_energies_and_forces(
        tape, tape.variable(positions), species, [len(species)], model.parameter_nodes(tape)
    )
    return forces.value


def _lattice_cloud(shape, spacing, seed):
    """Atoms on a jittered cubic lattice: a large cloud with no close pair."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), -1).reshape(-1, 3)
    positions = spacing * (grid + rng.uniform(-0.15, 0.15, size=grid.shape))
    return positions, rng.integers(0, 2, size=len(grid))


class TestGraphFreeForceBackward:
    """``energy_and_forces`` runs its force backward on a graph-free tape."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind, overrides",
        [("gated", {}), ("fused", {}), ("three_body", {}), ("three_body", {"schedule_mode": "dense"})],
        ids=["gated", "fused", "three_body_sparse", "three_body_dense"],
    )
    def test_forces_equal_the_recording_backward(self, kind, overrides, n_layers):
        model = Model(_small_config(kind, n_layers=n_layers, **overrides))
        positions, species = _cloud(7, seed=n_layers)
        _, forces = model.energy_and_forces(positions, species)
        assert np.array_equal(forces, _recorded_forces(model, positions, species))

    def test_force_call_peaks_lower_than_the_recording_path(self):
        # 80 atoms, about 1k edges, two fused layers: the graph-free force
        # backward keeps only the adjoints it still needs
        import tracemalloc

        model = Model(ModelConfig(kind="fused", n_layers=2, tau=6, j_max=1, seed=81))
        positions, species = _lattice_cloud((5, 4, 4), 1.9, seed=81)

        def peak(call):
            call()  # warm: CG tensors and contraction plans are cached
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        free = peak(lambda: model.energy_and_forces(positions, species))
        recorded = peak(lambda: _recorded_forces(model, positions, species))
        assert free <= 0.7 * recorded


def _hessian_products(model, positions, species, directions):
    """Forces F and the products H u for each u in ``directions``, H the
    position Hessian of the energy, through ``taped_energies_and_forces``:
    the force backward is recorded, so H u = -d(F . u)/dx is one more."""
    tape = ad.Tape()
    pos = tape.variable(positions)
    _, forces = model.taped_energies_and_forces(
        tape, pos, species, [len(species)], model.parameter_nodes(tape)
    )
    products = []
    for u in directions:
        along = ad.sum_all(tape, ad.mul(tape, forces, tape.constant(u)))
        products.append(-ad.backward(ad.Tape(graph=False), along, wrt=[pos])[pos.id].value)
    return forces.value, np.array(products)


HESSIAN_CASES = [
    (kind, j_max, n_layers) for kind in KINDS for j_max in (1, 2) for n_layers in (1, 2)
]


@pytest.mark.parametrize(
    "kind, j_max, n_layers", HESSIAN_CASES, ids=[f"{k}-j{j}-L{n}" for k, j, n in HESSIAN_CASES]
)
class TestPositionHessian:
    """Second position derivatives of the energy: every harmonic's own
    second derivatives reach them (at one layer the j >= 1 harmonics never
    reach the energy, so the two-layer cases are the ones that see them)."""

    def _setup(self, kind, j_max, n_layers):
        model = Model(_small_config(kind, j_max=j_max, n_layers=n_layers))
        positions, species = _cloud(5, seed=31 + j_max + n_layers)
        return model, positions, species

    def test_product_matches_force_differences(self, kind, j_max, n_layers):
        model, positions, species = self._setup(kind, j_max, n_layers)
        u = np.random.default_rng(32).normal(size=positions.shape)
        _, (product,) = _hessian_products(model, positions, species, [u])
        step = 1e-5
        _, up = model.energy_and_forces(positions + step * u, species)
        _, down = model.energy_and_forces(positions - step * u, species)
        numeric = -(up - down) / (2 * step)
        assert np.max(np.abs(product - numeric)) <= 1e-6 * np.max(np.abs(numeric))

    def test_hessian_is_symmetric_and_annihilates_translations(self, kind, j_max, n_layers):
        model, positions, species = self._setup(kind, j_max, n_layers)
        units = np.eye(positions.size).reshape(positions.size, *positions.shape)
        _, rows = _hessian_products(model, positions, species, units)
        hessian = rows.reshape(positions.size, positions.size)
        scale = np.max(np.abs(hessian))
        assert np.max(np.abs(hessian - hessian.T)) <= 1e-10 * scale
        translations = np.tile(np.eye(3), (1, len(positions)))  # (3, 3N)
        assert np.max(np.abs(hessian @ translations.T)) <= 1e-10 * scale

    def test_rotation_generator_identity(self, kind, j_max, n_layers):
        # F(R x) = R F(x) for every rotation R; differentiating along a
        # generator Omega gives H (Omega x) = -Omega F
        model, positions, species = self._setup(kind, j_max, n_layers)
        a = np.random.default_rng(33).normal(size=(3, 3))
        omega = a - a.T
        forces, (product,) = _hessian_products(
            model, positions, species, [positions @ omega.T]
        )
        assert np.max(np.abs(product + forces @ omega.T)) <= 1e-10 * np.max(np.abs(forces))


class TestParameters:
    def test_set_parameters_round_trip(self):
        model = Model(_small_config("fused"))
        values = model.parameters()
        doubled = {k: 2.0 * v for k, v in values.items()}
        model.set_parameters(doubled)
        after = model.parameters()
        for key, v in doubled.items():
            assert np.array_equal(after[key], v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_set_parameters_rejects_non_finite(self, bad):
        model = Model(_small_config("gated"))
        value = np.ones(model.parameters()["readout/w"].shape)
        value[1, 0] = bad
        before = {name: arr.copy() for name, arr in model.parameters().items()}
        with pytest.raises(ValueError, match="parameter readout/w has non-finite"):
            model.set_parameters({"embed": 2.0 * before["embed"], "readout/w": value})
        for name, arr in model.parameters().items():  # nothing was written
            assert np.array_equal(arr, before[name])

    def test_set_parameters_shape_mismatch(self):
        model = Model(_small_config("gated"))
        name = next(iter(model.parameters()))
        with pytest.raises(ShapeMismatch):
            model.set_parameters({name: np.zeros((99, 99))})

    def test_bad_positions_shape_rejected(self):
        model = Model(_small_config("gated"))
        with pytest.raises(ShapeMismatch):
            model.plain_energy(np.zeros((4, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("counts", [[5], [3, 3, 0], [7, -1], [], [[6]]])
    def test_batch_counts_must_cover_the_atoms(self, counts):
        model = Model(_small_config("gated"))
        positions, species = _cloud(6, seed=5)
        tape = ad.Tape()
        with pytest.raises(ShapeMismatch):
            model.taped_forward(
                tape, tape.variable(positions), species, counts, model.parameter_nodes(tape)
            )

    def test_non_integer_counts_rejected(self):
        # a cast would truncate [2.9, 3.2] to [2, 3] and return their energies
        model = Model(_small_config("gated"))
        positions, species = _cloud(5, seed=5)
        tape = ad.Tape()
        params = model.parameter_nodes(tape)
        with pytest.raises(ValueError, match="counts"):
            model.taped_forward(tape, tape.variable(positions), species, [2.9, 3.2], params)
        as_floats, as_ints = (
            model.taped_forward(tape, tape.variable(positions), species, counts, params).value
            for counts in ([2.0, 3.0], [2, 3])
        )
        assert np.array_equal(as_floats, as_ints)

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

    @pytest.mark.parametrize("n_species", [4, 6])
    @pytest.mark.parametrize("path", ["energy_and_forces", "plain_energy"])
    def test_species_of_another_length_rejected(self, path, n_species):
        model = Model(_small_config("gated"))
        positions, _ = _cloud(5, seed=4)
        # the message names both lengths
        message = rf"species must be one integer per atom, got shape \({n_species},\) for 5 atoms"
        with pytest.raises(ShapeMismatch, match=message):
            getattr(model, path)(positions, np.zeros(n_species, dtype=int))

    def test_species_out_of_range_rejected(self):
        model = Model(_small_config("gated", n_species=2))
        with pytest.raises(ValueError):
            model.plain_energy(np.zeros((1, 3)), np.array([5]))

    @pytest.mark.parametrize("path", ["energy_and_forces", "plain_energy"])
    def test_non_integer_species_rejected(self, path):
        # a cast would truncate [0.2, 1.9, 1.5] to [0, 1, 1] and return that
        # cloud's energy; integer-valued floats still name a species
        model = Model(_small_config("gated"))
        positions, _ = _cloud(3, seed=4)
        with pytest.raises(ValueError, match="species"):
            getattr(model, path)(positions, [0.2, 1.9, 1.5])
        as_floats = getattr(model, path)(positions, [0.0, 1.0, 1.0])
        np.testing.assert_equal(as_floats, getattr(model, path)(positions, np.array([0, 1, 1])))

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


def _layer_entries(s, entries):
    return [(f"layer{s}/{key}", shape) for key, shape in entries]


_GATE = [("gate/w_hidden", (11, 4)), ("gate/b_hidden", (4,)),
         ("gate/w_out", (4, 2)), ("gate/b_out", (2,))]
_ENDS = ([("embed", (2, 2))], [("readout/w", (4, 1)), ("readout/b", (1,))])

# Model.parameters() as a saved model file sees it, for one two-layer config
# of each kind (tau 2, j_max 1, 3 radial channels, 4 hidden units, internal
# spins (0, 1)): names in order and their shapes.
CHECKPOINT_TABLES = {
    "gated": [
        *_layer_entries(0, [*_GATE, ("vertex/0/self", (2, 2)), ("vertex/0/pair", (2, 2)),
                            ("vertex/0/gated", (2, 2)), ("vertex/2/gated", (2, 2))]),
        *_layer_entries(1, [*_GATE, ("vertex/0/self", (2, 2)), ("vertex/0/pair", (4, 2)),
                            ("vertex/0/gated", (4, 2)), ("vertex/2/self", (2, 2)),
                            ("vertex/2/pair", (6, 2)), ("vertex/2/gated", (6, 2))]),
    ],
    "fused": [
        *_layer_entries(0, [*_GATE, ("vertex/0/self", (2, 2)), ("vertex/0/pair", (2, 2)),
                            ("vertex/0/gated", (2, 2)), ("fusion_mix/0", (2, 2)),
                            ("vertex/2/gated", (2, 2)), ("fusion_mix/2", (2, 2))]),
        *_layer_entries(1, [*_GATE, ("vertex/0/self", (2, 2)), ("vertex/0/pair", (4, 2)),
                            ("vertex/0/gated", (4, 2)), ("fusion_mix/0", (10, 2)),
                            ("vertex/2/self", (2, 2)), ("vertex/2/pair", (6, 2)),
                            ("vertex/2/gated", (6, 2)), ("fusion_mix/2", (18, 2))]),
    ],
    "sparse": [
        *_layer_entries(0, [("edge_embed/0", (3, 2)), ("edge_embed/2", (3, 2)),
                            ("mixing/0", (2, 2)), ("mixing/2", (2, 2))]),
        *_layer_entries(1, [("edge_embed/0", (3, 2)), ("edge_embed/2", (3, 2)),
                            ("mixing/0", (10, 2)), ("mixing/2", (16, 2))]),
    ],
    "dense": [
        *_layer_entries(0, [("edge_embed/0", (3, 2)), ("edge_embed/2", (3, 2)),
                            ("mixing/0", (2, 2)), ("mixing/2", (2, 2))]),
        *_layer_entries(1, [("edge_embed/0", (3, 2)), ("edge_embed/2", (3, 2)),
                            ("mixing/0", (20, 2)), ("mixing/2", (44, 2))]),
    ],
}


@pytest.mark.parametrize("label", list(CHECKPOINT_TABLES))
def test_parameter_table_is_pinned(label):
    # saved model files are keyed by these names; renaming, reordering or
    # reseeding any of them breaks every stored checkpoint
    kind = "three_body" if label in ("sparse", "dense") else label
    mode = "dense" if label == "dense" else "sparse"
    model = Model(ModelConfig(kind=kind, n_layers=2, tau=2, j_max=1, radial_channels=3,
                              hidden=4, schedule_mode=mode, internal_spins=(0, 1), seed=5))
    params = model.parameters()
    head, tail = _ENDS
    assert [(name, arr.shape) for name, arr in params.items()] == [
        *head, *CHECKPOINT_TABLES[label], *tail
    ]
    for name, arr in params.items():
        if name.endswith(("gate/b_hidden", "gate/b_out")) or name == "readout/b":
            expected = np.zeros(arr.shape)
        else:
            expected = seeded_uniform(arr.shape, 5, name)
        assert np.array_equal(arr, expected), name
