"""Message-passing layers: gated/fused two-body and three-body updates."""

from collections import Counter

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion import layers
from spinfusion.blocks import AggregationKind, FusionBlockConfig, apply
from spinfusion.diagrams import (
    FuseNode,
    FusionDiagram,
    LeafNode,
    check_lowering,
    contract,
    left_comb,
    validate,
)
from spinfusion.errors import EmptySchedule
from spinfusion.features import (
    _Y00,
    radial_basis,
    taped_distances,
    taped_edge_harmonics,
    taped_radial_basis,
)
from spinfusion.geometry import PointCloud, build_neighborhood, edge_index
from spinfusion.harmonics import sph_values
from spinfusion.irreps import Activation
from spinfusion.layers import (
    SpinSchedule,
    init_interaction_layer,
    init_three_body_layer,
    layer_forward,
    seeded_uniform,
    taped_diagrams,
    taped_layer,
    three_body_paths,
)
from spinfusion.model import Model, ModelConfig, edge_features
from spinfusion.rotations import haar_rotation, rotation_matrix
from spinfusion.spins import admissible
from spinfusion.wigner import wigner_D


class TestSeededUniform:
    def test_deterministic(self):
        a = seeded_uniform((3, 4), 7, "layer0/w")
        b = seeded_uniform((3, 4), 7, "layer0/w")
        assert np.array_equal(a, b)

    def test_name_and_seed_sensitivity(self):
        base = seeded_uniform((3, 4), 7, "layer0/w")
        assert not np.array_equal(base, seeded_uniform((3, 4), 7, "layer0/v"))
        assert not np.array_equal(base, seeded_uniform((3, 4), 8, "layer0/w"))

    def test_shape(self):
        assert seeded_uniform((2, 5, 3), 0, "x").shape == (2, 5, 3)


class TestSpinSchedule:
    def test_sparse_tuples_are_singles(self):
        s = SpinSchedule("sparse", (0, 2, 4))
        assert s.tuples == ((0,), (2,), (4,))

    def test_dense_tuples_add_permutations(self):
        d = SpinSchedule("dense", (0, 2, 4))
        singles = {(0,), (2,), (4,)}
        perms = {p for p in d.tuples if len(p) == 3}
        assert set(d.tuples) == singles | perms
        assert len(perms) == 6  # 3! orderings of the full sequence
        # deterministic order: repeat construction gives the same tuple list
        assert d.tuples == SpinSchedule("dense", (0, 2, 4)).tuples

    def test_dense_single_spin_collapses_to_sparse(self):
        assert SpinSchedule("dense", (2,)).tuples == ((2,),)

    def test_empty_schedule_rejected(self):
        with pytest.raises(EmptySchedule):
            SpinSchedule("sparse", ())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SpinSchedule("diagonal", (0,))

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_repeated_spin_rejected(self, mode):
        # a repeated spin only adds linearly dependent copies of its diagrams
        with pytest.raises(ValueError, match="internal_spins lists spin 1 more than once"):
            SpinSchedule(mode, (0, 2, 2))


class TestThreeBodyPaths:
    def test_paths_are_admissible_chains(self):
        # each stage (center, edge, neighbor) couples (carried, edge) -> k
        # then (k, neighbor) -> J; the first stage carries a center input
        # spin, later stages carry J itself
        input_spins, edge_spins, two_J, ks = (0, 2), (0, 2), 2, (0, 2)
        paths = three_body_paths(input_spins, edge_spins, two_J, ks)
        assert paths
        for path in paths:
            assert len(path) == len(ks)
            for t, (center, edge, neighbor) in enumerate(path):
                carried = center if t == 0 else two_J
                assert center == (center if t == 0 else two_J)
                assert center in input_spins if t == 0 else center == two_J
                assert edge in edge_spins and neighbor in input_spins
                assert admissible(carried, edge, ks[t])
                assert admissible(ks[t], neighbor, two_J)

    def test_single_stage_paths_match_brute_force(self):
        input_spins, edge_spins, two_J, two_k = (0, 2), (0, 2), 2, 2
        expected = {
            (center, edge, neighbor)
            for center in input_spins
            for edge in edge_spins
            for neighbor in input_spins
            if admissible(center, edge, two_k) and admissible(two_k, neighbor, two_J)
        }
        paths = three_body_paths(input_spins, edge_spins, two_J, (two_k,))
        assert {p[0] for p in paths} == expected
        assert len(paths) == len(expected)

    def test_impossible_target_gives_no_paths(self):
        # spin-0 inputs and edges can never reach a nonzero total spin
        assert three_body_paths((0,), (0,), 2, (0, 2)) == []


_TERMS = ("self", "pair", "gated", "fusion")


def _terms(layer, two_l):
    """A gated or fused layer's collections at output spin 2l, in table order,
    keyed by the term that each one's weight key names."""
    names = {f"vertex/{two_l}/{term}": term for term in _TERMS[:3]}
    names[f"fusion_mix/{two_l}"] = "fusion"
    return {names[c.weight]: c for c in layer.recoupled[two_l].collections}


class TestInteractionTable:
    @pytest.mark.parametrize("fused", [False, True], ids=["gated", "fused"])
    @pytest.mark.parametrize("input_spins", [(0,), (0, 2)], ids=["in0", "in01"])
    def test_table_shapes(self, fused, input_spins):
        tau = 3
        params = init_interaction_layer(input_spins, 1, tau, 4, 8, fused, 2, "L")
        assert set(params.recoupled) == {0, 2}
        for two_l, spin in params.recoupled.items():
            table = _terms(params, two_l)
            terms = [t for t in _TERMS if t in table]
            assert len(table) == len(spin.collections)  # one weight key per collection
            assert list(table) == terms  # fixed order, no extra terms
            vertex = [key for key in params.weights if key.startswith(f"vertex/{two_l}/")]
            assert vertex == [f"vertex/{two_l}/{term}" for term in terms if term != "fusion"]
            assert ("self" in table) == (two_l in input_spins)
            assert ("fusion" in table) == fused
            for c in spin.collections:
                assert c.diagrams  # no empty term
                for d in c.diagrams:
                    assert validate(d) == []
                    assert d.two_J == two_l
                # every term, the fusion block included, mixes straight to tau
                assert params.weights[c.weight].shape == (len(c.diagrams) * tau, tau)
        assert any(key.startswith("fusion_mix/") for key in params.weights) == fused

    @pytest.mark.parametrize("j_max", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_fused_layer_is_the_gated_layer_plus_its_fusion_blocks(self, n_layers, j_max):
        tau = 3
        models = {
            kind: Model(ModelConfig(kind=kind, n_layers=n_layers, tau=tau, j_max=j_max,
                                    radial_channels=4, hidden=8, seed=2))
            for kind in ("gated", "fused")
        }
        gated, fused = (models[kind].parameters() for kind in ("gated", "fused"))
        extra = [name for name in fused if name not in gated]
        assert set(gated) <= set(fused)
        assert extra and all(name.split("/")[1] == "fusion_mix" for name in extra)
        for name, arr in gated.items():
            assert np.array_equal(fused[name], arr), name
        for s, (plain, layer) in enumerate(zip(*(models[k].layers for k in ("gated", "fused")))):
            assert list(layer.recoupled) == list(plain.recoupled)
            for two_l, spin in layer.recoupled.items():
                # the fused spin's collections are the gated spin's, path
                # weights included, plus its fusion block
                *rest, block = spin.collections
                assert rest == list(plain.recoupled[two_l].collections)
                assert block.weight == f"fusion_mix/{two_l}"
                assert fused[f"layer{s}/{block.weight}"].shape == (len(block.diagrams) * tau, tau)
            # each collection reads its own weight, a key of the layer's table
            keys = [c.weight for spin in layer.recoupled.values() for c in spin.collections]
            assert set(keys) <= set(layer.weights)
            assert len(keys) == len(set(keys))

    def test_layer_calls_build_no_diagram(self, monkeypatch):
        # the fused kind at two layers runs every term at every spin
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=3, radial_channels=4, hidden=8))
        rng = np.random.default_rng(4)
        positions, species = rng.normal(size=(5, 3)) * 1.2, rng.integers(0, 2, size=5)

        def forbidden(*args, **kwargs):
            raise AssertionError("a layer call built a diagram")

        monkeypatch.setattr(layers, "left_comb", forbidden)
        monkeypatch.setattr(layers, "FusionDiagram", forbidden)
        energy, _ = model.energy_and_forces(positions, species)  # taped
        assert model.plain_energy(positions, species) == pytest.approx(energy, abs=1e-12)


def _cloud(n, seed, spread=1.4):
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(n, 3)) * spread
    return PointCloud(positions, np.zeros(n, dtype=int))


def _spin0_acts(n, tau, seed):
    rng = np.random.default_rng(seed)
    return [Activation({0: rng.normal(size=(1, tau)) + 0j}) for _ in range(n)]


def _layer_outputs(layer_fn, params, pc, acts, j_max, radial_channels):
    nbr = build_neighborhood(pc, 3.0)
    feats = edge_features(pc, nbr, j_max, radial_channels)
    return layer_fn(acts, pc, nbr, feats, params)


@pytest.mark.parametrize("j_max", [0, 2])
def test_edge_features_are_the_rows_of_the_edge_index_edges(j_max):
    pc = PointCloud(np.vstack([_cloud(6, seed=8).positions, [[20.0, 0.0, 0.0]]]), np.zeros(7, int))
    nbr = build_neighborhood(pc, 3.0)
    harmonics, basis = edge_features(pc, nbr, j_max, 4)
    src, dst = edge_index(nbr)
    assert sorted(harmonics) == list(range(2, 2 * j_max + 1, 2))
    assert basis.shape == (src.size, 4) and src.size > 0
    for e, (o, i) in enumerate(zip(src, dst)):
        x = pc.positions[i] - pc.positions[o]
        for two_j, rows in harmonics.items():
            assert np.max(np.abs(rows[e] - sph_values(x, two_j))) <= 1e-15
        assert np.max(np.abs(basis[e] - radial_basis(np.linalg.norm(x), 3.0, 4))) <= 1e-15


LAYER_CASES = [
    ("gated", lambda: init_interaction_layer((0,), 1, 3, 4, 8, fused=False, seed=2, name="L")),
    ("fused", lambda: init_interaction_layer((0,), 1, 3, 4, 8, fused=True, seed=2, name="L")),
    (
        "three_body_sparse",
        lambda: init_three_body_layer(
            (0,), 1, 3, 4, SpinSchedule("sparse", (0, 2, 4)), seed=2, name="L"
        ),
    ),
    (
        "three_body_dense",
        lambda: init_three_body_layer(
            (0,), 1, 3, 4, SpinSchedule("dense", (0, 2, 4)), seed=2, name="L"
        ),
    ),
]


class TestLayerEquivariance:
    @pytest.mark.parametrize("name,make", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
    def test_rotation_equivariance(self, name, make):
        params = make()
        pc = _cloud(5, seed=5)
        acts = _spin0_acts(5, 3, seed=6)
        out = _layer_outputs(layer_forward, params, pc, acts, 1, 4)

        g = haar_rotation(9)
        rotated = PointCloud(pc.positions @ rotation_matrix(g).T, pc.species)
        out_rot = _layer_outputs(layer_forward, params, rotated, acts, 1, 4)

        worst = 0.0
        for i in range(5):
            for s in out[i].spins:
                expected = wigner_D(s, g).matrix @ out[i].part(s)
                worst = max(worst, np.max(np.abs(expected - out_rot[i].part(s))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("name,make", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
    def test_translation_invariance(self, name, make):
        params = make()
        pc = _cloud(5, seed=5)
        acts = _spin0_acts(5, 3, seed=6)
        out = _layer_outputs(layer_forward, params, pc, acts, 1, 4)
        shifted = PointCloud(pc.positions + np.array([2.0, -1.0, 0.5]), pc.species)
        out_shift = _layer_outputs(layer_forward, params, shifted, acts, 1, 4)
        worst = max(
            np.max(np.abs(out[i].part(s) - out_shift[i].part(s)))
            for i in range(5)
            for s in out[i].spins
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("name,make", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
    def test_permutation_equivariance(self, name, make):
        params = make()
        pc = _cloud(5, seed=5)
        acts = _spin0_acts(5, 3, seed=6)
        out = _layer_outputs(layer_forward, params, pc, acts, 1, 4)

        perm = np.array([3, 0, 4, 1, 2])
        permuted = PointCloud(pc.positions[perm], pc.species[perm])
        acts_perm = [acts[i] for i in perm]
        out_perm = _layer_outputs(layer_forward, params, permuted, acts_perm, 1, 4)

        worst = max(
            np.max(np.abs(out[perm[i]].part(s) - out_perm[i].part(s)))
            for i in range(5)
            for s in out[0].spins
        )
        assert worst <= 1e-12


def _random_leaves(spins_per_slot, n, tau, seed, channel_less=()):
    """Per-slot {two_j: array}; channel-less slots are (n, 2j+1) like harmonics."""
    rng = np.random.default_rng(seed)
    leaves = []
    for slot, spins in enumerate(spins_per_slot):
        part = {}
        for two_j in spins:
            shape = (n, two_j + 1) if slot in channel_less else (n, two_j + 1, tau)
            part[two_j] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        leaves.append(part)
    return leaves


def _on_tape(tape, leaves):
    return [{two_j: tape.constant(v) for two_j, v in part.items()} for part in leaves]


def _row_activation(part, e, tau):
    """Row e of one slot as an Activation; channel-less rows repeat over tau."""
    return Activation(
        {
            two_j: v[e] if v.ndim == 3 else np.repeat(v[e][:, None], tau, axis=1)
            for two_j, v in part.items()
        }
    )


# slot 3 carries channel-less (harmonic-like) leaves
EXECUTOR_DIAGRAMS = [
    # balanced four-leaf tree, not a left comb; slot 0 feeds two leaves
    FusionDiagram(
        FuseNode(
            FuseNode(LeafNode(0, 2), LeafNode(1, 1), 1),
            FuseNode(LeafNode(2, 1), LeafNode(0, 0), 1),
            2,
        )
    ),
    left_comb([2, 2, 2], [2], 2, slots=[0, 1, 0]),
    left_comb([2, 2], [], 0, slots=[3, 0]),
    left_comb([2, 2], [], 2, slots=[0, 3]),
    # channel-less x channel-less inner coupling, then a channelled leaf
    left_comb([2, 2, 2], [2], 0, slots=[3, 3, 0]),
]


class TestTapedDiagrams:
    def test_matches_contract(self):
        n, tau = 4, 3
        leaves = _random_leaves([(0, 2), (1, 2), (1,), (0, 2)], n, tau, seed=1, channel_less=(3,))
        tape = ad.Tape()
        outs = taped_diagrams(tape, EXECUTOR_DIAGRAMS, _on_tape(tape, leaves), {})
        for d, node in zip(EXECUTOR_DIAGRAMS, outs):
            assert validate(d) == []
            assert node.shape == (n, d.two_J + 1, tau)
            for e in range(n):
                inputs = [_row_activation(part, e, tau) for part in leaves]
                expected = contract(d, inputs).data
                assert np.max(np.abs(node.value[e] - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ["fused", "three_body_dense"])
    def test_matches_block_apply_before_mixing(self, kind):
        n, tau = 5, 3
        if kind == "fused":
            params = init_interaction_layer((0, 2), 1, tau, 4, 8, True, 2, "L")
            collections = [_terms(params, two_l)["fusion"].diagrams for two_l in params.recoupled]
        else:
            schedule = SpinSchedule("dense", (0, 2, 4))
            params = init_three_body_layer((0, 2), 1, tau, 4, schedule, 2, "L")
            collections = [
                c.diagrams for spin in params.recoupled.values() for c in spin.collections
            ]
        # the one slot table: center, neighbor, edge harmonic, gate, embedded edge
        leaves = _random_leaves([(0, 2)] * 5, n, tau, seed=2, channel_less=(2,))
        tape = ad.Tape()
        nodes, memo = _on_tape(tape, leaves), {}
        assert collections
        for diagrams in collections:
            chunks = taped_diagrams(tape, diagrams, nodes, memo)
            got = np.concatenate([c.value for c in chunks], axis=2).sum(axis=0)
            unmixed = FusionBlockConfig(
                diagrams, AggregationKind.SUM, np.eye(len(diagrams) * tau)
            )
            per_slot = [[_row_activation(part, e, tau) for e in range(n)] for part in leaves]
            expected = apply(unmixed, per_slot).data
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_shared_prefix_recorded_once(self):
        # both diagrams open with the same (slot 0, slot 1) -> 1 coupling
        diagrams = [left_comb([0, 2, 2], [2], 0), left_comb([0, 2, 2], [2], 2)]
        leaves = _random_leaves([(0,), (2,), (2,)], 3, 2, seed=3)
        tape = ad.Tape()
        nodes, memo = _on_tape(tape, leaves), {}
        start = len(tape.nodes)
        first = taped_diagrams(tape, diagrams, nodes, memo)
        assert len(tape.nodes) - start == 3  # shared prefix + two roots
        again = taped_diagrams(tape, diagrams, nodes, memo)
        assert len(tape.nodes) - start == 3
        assert all(a is b for a, b in zip(first, again))
        unshared = taped_diagrams(tape, diagrams, nodes, {})
        for a, b in zip(first, unshared):
            assert np.array_equal(a.value, b.value)


TAPED_KINDS = [
    dict(kind="gated"),
    dict(kind="fused"),
    dict(kind="three_body", internal_spins=(0, 1, 2)),
    dict(kind="three_body", schedule_mode="dense", internal_spins=(0, 1, 2)),
]


@pytest.mark.parametrize(
    "extra", TAPED_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
)
def test_taped_layer_records_no_dead_nodes(extra):
    # every node a layer records must reach one of its outputs; an unused
    # gather (say of the source atoms in the gated kind, which only the
    # fusion term reads) would show up here
    config = ModelConfig(
        n_layers=2, tau=3, j_max=1, radial_channels=4, hidden=8, seed=1, **extra
    )
    model = Model(config)
    layer = model.layers[1]  # sees inputs of every spin up to j_max
    pc = _cloud(6, seed=5)
    src, dst = edge_index(build_neighborhood(pc, config.cutoff))
    rng = np.random.default_rng(6)

    tape = ad.Tape()
    positions = tape.constant(pc.positions)
    disp = ad.sub(tape, ad.gather(tape, positions, dst), ad.gather(tape, positions, src))
    dists = taped_distances(tape, disp)
    harmonics = taped_edge_harmonics(tape, disp, dists, config.j_max)
    basis = taped_radial_basis(tape, dists, config.cutoff, config.radial_channels)
    acts = {
        two_j: tape.constant(rng.normal(size=(6, two_j + 1, 3)) + 0j)
        for two_j in model.layer_input_spins[1]
    }
    param_nodes = model.parameter_nodes(tape)
    start = len(tape.nodes)
    out = taped_layer(
        tape, acts, src, dst, harmonics, basis, layer, param_nodes, "layer1", layer.output_spins
    )

    live: set[int] = set()
    stack = list(out.values())
    while stack:
        node = stack.pop()
        if node.id >= start and node.id not in live:
            live.add(node.id)
            stack.extend(parent for parent, _ in node.parents)
    assert len(live) == len(tape.nodes) - start


def _call_key(arg):
    """A primitive argument as the duplicate-work test compares it: a node
    by identity, an array by value, anything else as it is."""
    if isinstance(arg, ad.Node):
        return ("node", arg.id)
    if isinstance(arg, np.ndarray):
        return ("array", arg.shape, arg.dtype.str, arg.tobytes())
    if isinstance(arg, (list, tuple)):
        return tuple(_call_key(a) for a in arg)
    return arg


@pytest.mark.parametrize("j_max", [1, 2])
@pytest.mark.parametrize(
    "extra", TAPED_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
)
def test_forward_repeats_no_work(monkeypatch, extra, j_max):
    # a 3-layer forward records no primitive twice with the same input
    # nodes and equal other arguments: the layer-independent edge inputs
    # are built once per forward, not once per layer
    model = Model(ModelConfig(n_layers=3, tau=3, j_max=j_max, radial_channels=4, hidden=8,
                              seed=1, **extra))
    pc = _cloud(9, seed=5)
    calls = []

    def recording(name, fn):
        def wrapped(tape, *args, **kwargs):
            calls.append((name, _call_key(args), _call_key(tuple(sorted(kwargs.items())))))
            return fn(tape, *args, **kwargs)

        return wrapped

    for name, fn in ad.PRIMITIVES.items():
        monkeypatch.setattr(ad, name, recording(name, fn))
    tape = ad.Tape()
    model.taped_forward(
        tape, tape.variable(pc.positions), pc.species, [9], model.parameter_nodes(tape)
    )
    repeated = [call[0] for call, count in Counter(calls).items() if count > 1]
    assert len(calls) > 50 and not repeated


class TestPlainTapedAgreement:
    @pytest.mark.parametrize("kind", ["gated", "fused", "three_body"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("j_max", [0, 1])
    def test_energy_matches(self, kind, n_layers, j_max):
        config = ModelConfig(
            kind=kind,
            n_layers=n_layers,
            tau=3,
            j_max=j_max,
            cutoff=3.0,
            radial_channels=4,
            hidden=8,
            internal_spins=(0, 1, 2),
            n_species=2,
            seed=3,
        )
        model = Model(config)
        rng = np.random.default_rng(11)
        positions = rng.normal(size=(6, 3)) * 1.3
        species = rng.integers(0, 2, size=6)

        plain = model.plain_energy(positions, species)

        tape = ad.Tape()
        pos_node = tape.variable(positions)
        params = model.parameter_nodes(tape)
        energy_node = model.taped_forward(tape, pos_node, species, [6], params)
        assert energy_node.value == pytest.approx(plain, abs=1e-12)

    def test_dense_schedule_also_agrees(self):
        config = ModelConfig(
            kind="three_body",
            n_layers=1,
            tau=3,
            j_max=1,
            cutoff=3.0,
            radial_channels=4,
            schedule_mode="dense",
            internal_spins=(0, 1, 2),
            n_species=2,
            seed=3,
        )
        model = Model(config)
        rng = np.random.default_rng(12)
        positions = rng.normal(size=(5, 3)) * 1.2
        species = rng.integers(0, 2, size=5)
        plain = model.plain_energy(positions, species)
        tape = ad.Tape()
        pos_node = tape.variable(positions)
        energy = model.taped_forward(tape, pos_node, species, [5], model.parameter_nodes(tape))
        assert energy.value == pytest.approx(plain, abs=1e-12)


class TestRecoupledTape:
    """The taped fused and three-body terms sum each edge's subtree over the
    neighbors, then couple the center once per atom."""

    def _forward_calls(self, monkeypatch, **kind):
        config = ModelConfig(**(kind or {"kind": "fused"}), n_layers=2, tau=6, j_max=1, seed=2)
        model = Model(config)
        rng = np.random.default_rng(9)
        positions = rng.normal(size=(9, 3)) * 1.3
        species = rng.integers(0, 2, size=9)
        src, dst = edge_index(build_neighborhood(PointCloud(positions, species), config.cutoff))
        assert len(src) not in (0, 9)
        gathers, products = [], []
        self.operands = []
        gather, einsum3 = ad.gather, ad.einsum3

        def recording_gather(tape, x, indices):
            node = gather(tape, x, indices)
            gathers.append((x.shape, np.asarray(indices)))
            return node

        def recording_einsum3(tape, tensor, x, y, subscript):
            node = einsum3(tape, tensor, x, y, subscript)
            products.append((np.ndim(tensor), node.shape[0]))
            self.operands.append((x, y, node.shape))
            return node

        monkeypatch.setattr(ad, "gather", recording_gather)
        monkeypatch.setattr(ad, "einsum3", recording_einsum3)
        tape = ad.Tape()
        model.taped_forward(
            tape, tape.variable(positions), species, [9], model.parameter_nodes(tape)
        )
        return src, dst, gathers, products

    def test_center_is_never_gathered_to_the_edges(self, monkeypatch):
        # the one activation gathered at src is the gate's (N, 1, tau)
        # spin-0 input, once per interaction layer; no center part with
        # 2j+1 > 1 goes to the edges
        src, dst, gathers, _ = self._forward_calls(monkeypatch)
        activation_gathers = [(shape, idx) for shape, idx in gathers if len(shape) == 3]
        assert any(shape[1] > 1 for shape, _ in activation_gathers)  # the neighbors still are
        at_src = [shape for shape, idx in activation_gathers if np.array_equal(idx, src)]
        assert at_src == [(9, 1, 6)] * 2
        assert all(
            np.array_equal(idx, dst) for shape, idx in activation_gathers if shape != (9, 1, 6)
        )

    def test_gate_reads_the_gathered_neighbor(self, monkeypatch):
        # a fused force call on the 9-atom cloud records 18 gathers: the
        # positions at src and dst, the embedding, per layer the neighbor
        # slot at dst and the gate's center rows at src, then the VJPs of
        # the sums over neighbors and of the readout.  The gate reads its
        # neighbor rows from the spin-0 neighbor slot, so no spin-0 row is
        # gathered at dst twice (it was 20, with one more per layer).  The
        # forward's (9, 1, 6) gathers are the spin-0 parts, which keep
        # their layout: per layer, the neighbor slot's at dst, then the
        # gate's center rows at src
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=6, j_max=1, seed=2))
        rng = np.random.default_rng(9)
        positions = rng.normal(size=(9, 3)) * 1.3
        species = rng.integers(0, 2, size=9)
        pc = PointCloud(positions, species)
        src, dst = edge_index(build_neighborhood(pc, model.config.cutoff))
        gathers = []
        gather = ad.gather

        def recording_gather(tape, x, indices):
            gathers.append((tape.graph, x.shape, np.asarray(indices)))
            return gather(tape, x, indices)

        monkeypatch.setattr(ad, "gather", recording_gather)
        model.energy_and_forces(positions, species)
        assert len(gathers) == 18
        # the force backward runs on a graph-free tape
        spin0 = [idx for graph, shape, idx in gathers if graph and shape == (9, 1, 6)]
        assert len(spin0) == 4
        assert all(np.array_equal(idx, dst) for idx in spin0[0::2])
        assert all(np.array_equal(idx, src) for idx in spin0[1::2])

    def _edge_row_products(self, monkeypatch, kind):
        """The per-edge products of a 2-layer model's forward with a
        harmonic operand: each must read a neighbor and a spin-1 harmonic,
        once per layer.  Every other per-edge product is one by the gate,
        its left factor."""
        src, _, _, _ = self._forward_calls(monkeypatch, kind=kind)
        pairs = []
        for x, y, shape in self.operands:
            if shape[0] != len(src):
                continue
            if len(y.shape) == 2:  # a channel-less harmonic
                assert len(x.shape) == 3 and y.shape == (len(src), 3)  # neighbor ⊗ Y1
                pairs.append((x.id, y.id, shape[1]))
            else:
                assert x.shape == (len(src), 1, 6)  # the spin-0 gate
        assert len(set(pairs)) == len(pairs)
        return len(pairs)

    def test_edge_row_products(self, monkeypatch):
        # each (neighbor ⊗ harmonic)_k with a spin-1 harmonic, once per
        # layer: (h0 ⊗ Y1)_1 in layer 0; (h0 ⊗ Y1)_1, (h1 ⊗ Y1)_0 and (h1 ⊗
        # Y1)_1 in layer 1.  The gated term shares the fusion term's T and
        # no diagram has a Y^0_0 leaf, so no product reads a spin-0
        # harmonic (it was 2 + 2 gated products and 2 + 5 of T, 11)
        assert self._edge_row_products(monkeypatch, "fused") == 4

    def test_gated_edge_row_products(self, monkeypatch):
        # (h0 ⊗ Y1)_1 in layer 0 and (h1 ⊗ Y1)_0 in layer 1, which reads
        # spin 0 only (it was 2 + 2)
        assert self._edge_row_products(monkeypatch, "gated") == 2

    def test_dense_chains_keep_their_first_stages_per_edge(self, monkeypatch):
        # the last layer's block at J = 0 holds five three-leaf diagrams that
        # are first stages of its five chains, so they stay per edge, where
        # the chains record them anyway: layer 0's two singles are recoupled
        # (2 per-edge products, where they were 4) and layer 1 records the
        # chains' 20, none more.  The edge embedding's (E, 2j+1) x (E, 1,
        # tau) products, whose x is a channel-less harmonic, are not the
        # block's, so they are not counted
        src, _, _, products = self._forward_calls(
            monkeypatch, kind="three_body", schedule_mode="dense", internal_spins=(0, 1)
        )
        rows = [
            rows
            for (ndim, rows), (x, _, _) in zip(products, self.operands)
            if ndim == 3 and len(x.shape) == 3
        ]
        assert rows.count(len(src)) == 22
        assert rows.count(9) == 2

    @pytest.mark.parametrize("kind, count", [("fused", 5), ("three_body", 5)])
    def test_force_call_reshapes(self, monkeypatch, kind, count):
        # every edge input is built once per forward in the shape its
        # consumers read, spin-0 parts keep their (rows, 1, tau) layout and
        # no channel_mix cotangent reshapes, so a 2-layer force call on the
        # 9-atom cloud reshapes only the radial basis column and the
        # energies, each with its VJP in the force backward, and the
        # embedding (it was 13 and 19, and 45 and 37 before that)
        model = Model(ModelConfig(kind=kind, n_layers=2, tau=6, j_max=1, seed=2))
        rng = np.random.default_rng(9)
        positions = rng.normal(size=(9, 3)) * 1.3
        species = rng.integers(0, 2, size=9)
        calls = []
        reshape = ad.reshape

        def recording_reshape(tape, x, shape):
            calls.append(tuple(shape))
            return reshape(tape, x, shape)

        monkeypatch.setattr(ad, "reshape", recording_reshape)
        model.energy_and_forces(positions, species)
        assert len(calls) == count

    @pytest.mark.parametrize(
        "extra", TAPED_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
    )
    @pytest.mark.parametrize(
        "positions",
        [
            [[0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [3.5, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [1.1, 0.3, 0.0], [8.0, 0.0, 0.0]],
        ],
        ids=["single_atom", "pair_beyond_cutoff", "pair_and_isolated_atom"],
    )
    def test_sparse_neighborhoods_match_plain_energy(self, extra, positions):
        model = Model(ModelConfig(n_layers=2, tau=3, j_max=1, radial_channels=4, hidden=8,
                                  seed=4, **extra))
        positions = np.array(positions)
        species = np.arange(len(positions)) % 2
        energy, forces = model.energy_and_forces(positions, species)
        assert energy == pytest.approx(model.plain_energy(positions, species), abs=1e-12)
        assert forces.shape == positions.shape and np.all(np.isfinite(forces))


class TestLowering:
    """Every output spin is lowered at init into center-only, (center ⊗ T)_J
    and per-edge targets and one fixed matrix, which one taped executor
    runs."""

    def test_target_groups_of_the_fused_table(self):
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=3, j_max=1, seed=2))
        for layer, input_spins in zip(model.layers, model.layer_input_spins):
            for two_l, spin in layer.recoupled.items():
                table = layers._term_diagrams(_TERMS, input_spins, (0, 2), two_l)
                lowered = _terms(layer, two_l)
                assert len(lowered) == len(spin.collections)
                assert list(lowered) == list(table)
                for term, c in lowered.items():
                    assert (c.diagrams, c.path_weights) == table[term]
                # the center-only targets are the self and pair diagrams as
                # built, in order, with path weights 1
                center_terms = [lowered[term] for term in ("self", "pair") if term in lowered]
                assert spin.center == sum((c.diagrams for c in center_terms), ())
                assert all(set(c.path_weights) == {1.0} for c in center_terms)
                gated = lowered["gated"]
                # the per-edge targets are the gated diagrams as built, each
                # the gate (slot 3), the root's left leaf, times the rest;
                # the path weights are Y^0_0 where the harmonic spin is 0,
                # else the exchange sign
                assert spin.edge == gated.diagrams
                for d, w in zip(gated.diagrams, gated.path_weights):
                    if len(d.leaves) == 2:  # (g ⊗ h_b)_l
                        assert w == _Y00
                    else:
                        (_, two_jb), (_, two_ja) = d.leaves[1:]
                        assert w == (-1.0) ** ((two_ja + two_jb - two_l) // 2)
                for t in spin.edge:
                    assert t.tree.left == LeafNode(3, 0)
                    assert [slot for slot, _ in t.leaves].count(3) == 1
                # the (center ⊗ T)_l targets are the fusion block's
                fusion = lowered["fusion"]
                assert spin.atom
                for t in spin.atom:
                    assert isinstance(t.tree.left, LeafNode) and t.tree.left.slot == 0
                    # T = (neighbor ⊗ harmonic)_k', or the neighbor alone
                    # where the harmonic spin is 0
                    assert [slot for slot, _ in t.leaves] in ([0, 1, 2], [0, 1])
                for d in gated.diagrams + spin.edge + fusion.diagrams + spin.atom:
                    assert (2, 0) not in d.leaves  # no Y^0_0

    def test_path_weights_make_the_harmonic_first_diagrams(self):
        # each gated and fusion diagram times its path weight is the
        # diagram it stands for, which reads the harmonic first and the
        # constant Y^0_0 as a leaf: (Y_a ⊗ (h_b ⊗ g)_b)_l and ((h_i ⊗
        # h_j)_k ⊗ Y_y)_l, on random inputs
        rng = np.random.default_rng(6)

        def act(spins):
            return Activation({s: rng.normal(size=(s + 1, 2)) + 1j * rng.normal(size=(s + 1, 2))
                               for s in spins})

        harmonics = act((2, 4))
        harmonics = Activation({0: np.full((1, 2), _Y00), **{s: harmonics.part(s) for s in (2, 4)}})
        inputs = [act((0, 2, 4)), act((0, 2, 4)), harmonics, act((0,))]
        seen = set()
        for two_l in (0, 2, 4):
            table = layers._term_diagrams(_TERMS, (0, 2, 4), (0, 2, 4), two_l)
            for term in ("gated", "fusion"):
                for d, w in zip(*table[term]):
                    if term == "gated":
                        two_jb = d.leaves[1][1]
                        two_ja = d.leaves[2][1] if len(d.leaves) == 3 else 0
                        pair = FuseNode(LeafNode(1, two_jb), LeafNode(3, 0), two_jb)
                        old = FusionDiagram(FuseNode(LeafNode(2, two_ja), pair, two_l))
                    else:
                        spins = [two_j for _, two_j in d.leaves] + [0] * (len(d.leaves) == 2)
                        two_k = d.tree.left.two_k if len(d.leaves) == 3 else two_l
                        old = left_comb(spins, [two_k], two_l, slots=[0, 1, 2])
                    want = contract(old, inputs).data
                    assert np.max(np.abs(w * contract(d, inputs).data - want)) < 1e-13
                    seen.add(w)
        assert seen == {1.0, -1.0, _Y00}

    @pytest.mark.parametrize(
        "extra", TAPED_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
    )
    def test_both_executors_bind_one_slot_table(self, monkeypatch, extra):
        # slots 0 center, 1 neighbor, 2 harmonic, 3 gate, 4 embedded edge:
        # every table leaf and every lowered target reads them, the gate
        # only as the spin-0 leaf (3, 0) and only in the gated and fused
        # kinds, the embedded edge only in three_body; the eager and taped
        # layers bind the same five, the gate and the embedded edge only
        # where a diagram reads them
        model = Model(ModelConfig(n_layers=2, tau=3, j_max=2, seed=2, **extra))
        three_body = extra["kind"] == "three_body"
        for layer in model.layers:
            for spin in layer.recoupled.values():
                built = tuple(d for c in spin.collections for d in c.diagrams)
                for d in built + spin.center + spin.atom + spin.edge:
                    assert set(d.slots) <= {0, 1, 2, 3, 4}
                    assert all(two_j == 0 for slot, two_j in d.leaves if slot == 3)
                    assert (3 in d.slots) <= (not three_body)
                    assert (4 in d.slots) <= three_body
            assert layer.slots & {3, 4} == ({4} if three_body else {3})
        bound = []
        apply, taped = layers.apply_collections, layers.taped_collections

        def binding(slots):
            return len(slots), tuple(i for i, slot in enumerate(slots) if slot is not None)

        def eager(collections, inputs, weights):
            gate = {tuple(a.spins) for a in inputs[3] or ()}
            bound.append(("eager", *binding(inputs), gate))
            return apply(collections, inputs, weights)

        def recorded(tape, collections, leaves, *rest):
            bound.append(("taped", *binding(leaves), {tuple(leaves[3] or ())}))
            return taped(tape, collections, leaves, *rest)

        monkeypatch.setattr(layers, "apply_collections", eager)
        monkeypatch.setattr(layers, "taped_collections", recorded)
        pc = _cloud(5, seed=3)
        model.energy_and_forces(pc.positions, pc.species)
        model.plain_energy(pc.positions, pc.species)
        assert {executor for executor, *_ in bound} == {"eager", "taped"}
        per_edge = (0, 1, 2, 4) if three_body else (0, 1, 2, 3)
        assert {(n, slots) for _, n, slots, _ in bound} == {(5, per_edge)}
        gate_spins = set().union(*(spins for *_, spins in bound))
        assert gate_spins == ({()} if three_body else {(0,)})

    @pytest.mark.parametrize("j_max", [1, 2])
    def test_gated_products_are_the_fusion_terms_T(self, j_max):
        # the per-edge products of the gated term (the spin's per-edge
        # targets), the gate's right factor, key the same memo entries as
        # the fusion term's T (its (center ⊗ T)_l targets) at the same
        # output spin, so they run once
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=3, j_max=j_max, seed=2))
        shared = 0
        for layer in model.layers:
            for spin in layer.recoupled.values():
                gated = {t.tree.right for t in spin.edge}
                fusion_T = {t.tree.right for t in spin.atom}
                # products, not a bare neighbor
                products = {t for t in gated if isinstance(t, FuseNode)}
                assert products <= fusion_T
                shared += len(products)
        assert shared

    @pytest.mark.parametrize("j_max", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_tables_are_built_in_the_form_they_run(self, n_layers, j_max):
        # no interaction diagram reads the constant Y^0_0 harmonic, and each
        # output spin has one fixed matrix kron(F, I_tau), F's rows the
        # spin's targets and its columns the collections' diagrams: F with
        # the path weights divided out recouples every diagram (so it is
        # block diagonal), and it is None only where it is the identity
        tau = 2
        for kind in ("gated", "fused", "three_body"):
            config = ModelConfig(kind=kind, n_layers=n_layers, tau=tau, j_max=j_max,
                                 radial_channels=3, hidden=4, seed=2)
            for layer in Model(config).layers:
                for spin in layer.recoupled.values():
                    built = tuple(d for c in spin.collections for d in c.diagrams)
                    targets = spin.center + spin.atom + spin.edge
                    path_weights = np.concatenate([c.path_weights for c in spin.collections])
                    if spin.fixed is None:
                        F = np.eye(len(built))
                    else:
                        F = spin.fixed[::tau, ::tau]
                        assert np.array_equal(spin.fixed, np.kron(F, np.eye(tau)))
                        assert not np.array_equal(F, np.eye(len(built)))
                    assert F.shape == (len(targets), len(built))
                    check_lowering(built, targets, F / path_weights)
                    if kind != "three_body":
                        for d in built + targets:
                            assert (2, 0) not in d.leaves

    def test_dense_chains_and_first_stages_stay_per_edge(self):
        schedule = SpinSchedule("dense", (0, 2))
        params = init_three_body_layer((0, 2), 1, 3, 4, schedule, 2, "L")
        for two_J, spin in params.recoupled.items():
            (block,) = spin.collections
            assert block.weight == f"mixing/{two_J}"
            chains = [d for d in block.diagrams if len(d.leaves) > 3]
            assert chains
            assert set(chains) <= set(spin.edge)
            for chain in chains:
                first_stage = FusionDiagram(chain.tree.left.left)
                assert first_stage in spin.edge  # a single of the schedule as well

    @pytest.mark.parametrize(
        "extra",
        [dict(kind="fused"), dict(kind="gated"), dict(kind="three_body", internal_spins=(0, 1, 2))],
        ids=["fused", "gated", "three_body_sparse"],
    )
    def test_atom_row_channel_mix_products(self, monkeypatch, extra):
        # the collections' weights compose with the spin's fixed matrix in
        # weight space, so each recorded output spin's targets are mixed by
        # one N-row product: spins 0 and 1 in layer 0, spin 0 in layer 1,
        # and the readout is one more
        model = Model(ModelConfig(**extra, n_layers=2, tau=6, j_max=1, seed=2))
        rng = np.random.default_rng(9)
        positions = rng.normal(size=(9, 3)) * 1.3
        species = rng.integers(0, 2, size=9)
        rows = []
        channel_mix = ad.channel_mix

        def recording_channel_mix(tape, x, weights):
            node = channel_mix(tape, x, weights)
            rows.append(node.shape[0])
            return node

        monkeypatch.setattr(ad, "channel_mix", recording_channel_mix)
        tape = ad.Tape()
        model.taped_forward(
            tape, tape.variable(positions), species, [9], model.parameter_nodes(tape)
        )
        assert rows.count(9) == 4


    @pytest.mark.parametrize(
        "extra", TAPED_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
    )
    def test_one_mixing_per_output_spin(self, monkeypatch, extra):
        # per recorded output spin, taped_collections records one data
        # product and, where the spin's fixed matrix is not the identity,
        # one composition of it with the stacked weights; no path weight is
        # a row scale and no collection's output is added to another's
        model = Model(ModelConfig(n_layers=2, tau=3, j_max=2, radial_channels=4, hidden=8,
                                  seed=1, **extra))
        inside, recorded, expected = [], [], Counter()

        def watching(name, fn):
            def wrapped(tape, *args, **kwargs):
                if inside:
                    recorded.append((name, args[0].value.ndim))
                return fn(tape, *args, **kwargs)

            return wrapped

        for name in ("scale", "add", "channel_mix"):
            monkeypatch.setattr(ad, name, watching(name, getattr(ad, name)))
        taped = layers.taped_collections

        def watched(tape, tables, *rest):
            inside.append(True)
            out = taped(tape, tables, *rest)
            inside.pop()
            expected["data"] += len(out)
            expected["fixed"] += sum(tables[two_J].fixed is not None for two_J in out)
            return out

        monkeypatch.setattr(layers, "taped_collections", watched)
        pc = _cloud(6, seed=5)
        tape = ad.Tape()
        model.taped_forward(
            tape, tape.variable(pc.positions), pc.species, [6], model.parameter_nodes(tape)
        )
        assert expected["data"] == 4  # spins 0, 1, 2 of layer 0; spin 0 of layer 1
        assert sorted(recorded) == sorted(
            [("channel_mix", 3)] * expected["data"] + [("channel_mix", 2)] * expected["fixed"]
        )


class TestAblation:
    def test_zeroed_fusion_mixing_reproduces_gated_layer(self):
        common = dict(
            n_layers=2,
            tau=3,
            j_max=1,
            cutoff=3.0,
            radial_channels=4,
            hidden=8,
            n_species=2,
            seed=7,
        )
        gated = Model(ModelConfig(kind="gated", **common))
        fused = Model(ModelConfig(kind="fused", **common))

        values = fused.parameters()
        assert any("fusion_mix" in key for key in values)
        zeroed = {
            key: (np.zeros_like(v) if "fusion_mix" in key else v)
            for key, v in values.items()
        }
        fused.set_parameters(zeroed)

        rng = np.random.default_rng(3)
        positions = rng.normal(size=(6, 3)) * 1.2
        species = rng.integers(0, 2, size=6)

        e_gated, f_gated = gated.energy_and_forces(positions, species)
        e_fused, f_fused = fused.energy_and_forces(positions, species)
        assert e_gated == e_fused  # bit-for-bit
        assert np.array_equal(f_gated, f_fused)

    def test_shared_parameters_identical_across_kinds(self):
        common = dict(n_layers=1, tau=3, j_max=1, n_species=2, seed=7)
        gated = Model(ModelConfig(kind="gated", **common)).parameters()
        fused = Model(ModelConfig(kind="fused", **common)).parameters()
        assert set(gated) <= set(fused)
        for key, value in gated.items():
            assert np.array_equal(value, fused[key])


class TestParameterCounts:
    # two layers so the second layer sees inputs of every spin up to j_max;
    # with spin-0-only inputs every multi-stage coupling tuple is inadmissible
    # and the dense schedule would collapse onto the sparse one
    def _make(self, mode, spins):
        return Model(
            ModelConfig(
                kind="three_body",
                n_layers=2,
                tau=3,
                j_max=1,
                schedule_mode=mode,
                internal_spins=spins,
                n_species=2,
                seed=0,
            )
        )

    def test_sparse_growth_is_final_mixing_only(self):
        # growing the internal-spin list of a sparse schedule adds diagrams,
        # which only widen the final (trainable) mixing matrices
        small = self._make("sparse", (0,))
        large = self._make("sparse", (0, 1, 2))
        total_growth = large.parameter_count() - small.parameter_count()
        mixing_growth = large.mixing_parameter_count() - small.mixing_parameter_count()
        assert total_growth == mixing_growth
        assert total_growth > 0

    def test_dense_has_more_parameters_than_sparse(self):
        dense = self._make("dense", (0, 1, 2))
        sparse = self._make("sparse", (0, 1, 2))
        assert dense.parameter_count() > sparse.parameter_count()

    def test_parameter_count_matches_parameters_dict(self):
        model = Model(ModelConfig(kind="fused", n_layers=1, tau=3, j_max=1, seed=1))
        total = sum(v.size for v in model.parameters().values())
        assert model.parameter_count() == total
