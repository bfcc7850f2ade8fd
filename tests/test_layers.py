"""Message-passing layers: gated/fused two-body and three-body updates."""

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion import layers
from spinfusion.blocks import AggregationKind, FusionBlockConfig, apply, identity_mixing
from spinfusion.diagrams import FuseNode, FusionDiagram, LeafNode, contract, left_comb, validate
from spinfusion.errors import EmptySchedule, RecouplingError
from spinfusion.features import taped_distances, taped_edge_harmonics, taped_radial_basis
from spinfusion.geometry import PointCloud, build_neighborhood, edge_index
from spinfusion.irreps import Activation
from spinfusion.layers import (
    InteractionParams,
    SpinSchedule,
    init_interaction_layer,
    init_three_body_layer,
    interaction_layer,
    seeded_uniform,
    taped_diagrams,
    taped_interaction_layer,
    taped_three_body_layer,
    three_body_forward,
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


class TestInteractionTable:
    @pytest.mark.parametrize("fused", [False, True], ids=["gated", "fused"])
    @pytest.mark.parametrize("input_spins", [(0,), (0, 2)], ids=["in0", "in01"])
    def test_table_shapes(self, fused, input_spins):
        tau = 3
        params = init_interaction_layer(input_spins, 1, tau, 4, 8, fused, 2, "L")
        assert set(params.diagrams) == {0, 2}
        for two_l, table in params.diagrams.items():
            terms = [t for t in ("self", "pair", "gated", "fusion") if t in table]
            assert list(table) == terms  # fixed order, no extra terms
            vertex = [key for key in params.weights if key.startswith(f"vertex/{two_l}/")]
            assert vertex == [f"vertex/{two_l}/{term}" for term in terms]
            assert ("self" in table) == (two_l in input_spins)
            for term, diagrams in table.items():
                assert diagrams  # no empty term
                for d in diagrams:
                    assert validate(d) == []
                    assert d.two_J == two_l
                rows = tau if term == "fusion" else len(diagrams) * tau
                assert params.weights[f"vertex/{two_l}/{term}"].shape == (rows, tau)
            if fused:
                assert params.weights[f"fusion_mix/{two_l}"].shape == (
                    len(table["fusion"]) * tau, tau
                )
        assert any(key.startswith("fusion_mix/") for key in params.weights) == fused

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


def _forward_for(name):
    return three_body_forward if name.startswith("three_body") else interaction_layer


class TestLayerEquivariance:
    @pytest.mark.parametrize("name,make", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
    def test_rotation_equivariance(self, name, make):
        params = make()
        pc = _cloud(5, seed=5)
        acts = _spin0_acts(5, 3, seed=6)
        out = _layer_outputs(_forward_for(name), params, pc, acts, 1, 4)

        g = haar_rotation(9)
        rotated = PointCloud(pc.positions @ rotation_matrix(g).T, pc.species)
        out_rot = _layer_outputs(_forward_for(name), params, rotated, acts, 1, 4)

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
        out = _layer_outputs(_forward_for(name), params, pc, acts, 1, 4)
        shifted = PointCloud(pc.positions + np.array([2.0, -1.0, 0.5]), pc.species)
        out_shift = _layer_outputs(_forward_for(name), params, shifted, acts, 1, 4)
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
        out = _layer_outputs(_forward_for(name), params, pc, acts, 1, 4)

        perm = np.array([3, 0, 4, 1, 2])
        permuted = PointCloud(pc.positions[perm], pc.species[perm])
        acts_perm = [acts[i] for i in perm]
        out_perm = _layer_outputs(_forward_for(name), params, permuted, acts_perm, 1, 4)

        worst = max(
            np.max(np.abs(out[perm[i]].part(s) - out_perm[i].part(s)))
            for i in range(5)
            for s in out[0].spins
        )
        assert worst <= 1e-12


def _subtree_key(node, leaf_iter):
    """The taped executor's memo key of a subtree: its (slot, 2j) leaf, or
    (left key, right key, 2k)."""
    if isinstance(node, LeafNode):
        return next(leaf_iter)
    left = _subtree_key(node.left, leaf_iter)
    return (left, _subtree_key(node.right, leaf_iter), node.two_k)


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
        ((0, 2), (1, 1), (2, 1), (0, 0)),
        FuseNode(FuseNode(LeafNode(0), LeafNode(1), 1), FuseNode(LeafNode(2), LeafNode(0), 1), 2),
        2,
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
            collections = [params.diagrams[two_l]["fusion"] for two_l in params.recoupled]
            channel_less = (2,)  # slots: center, neighbor, edge harmonic
        else:
            schedule = SpinSchedule("dense", (0, 2, 4))
            params = init_three_body_layer((0, 2), 1, tau, 4, schedule, 2, "L")
            collections = list(params.diagrams.values())
            channel_less = ()  # slots: center, embedded edge, neighbor
        leaves = _random_leaves([(0, 2)] * 3, n, tau, seed=2, channel_less=channel_less)
        tape = ad.Tape()
        nodes, memo = _on_tape(tape, leaves), {}
        assert collections
        for diagrams in collections:
            chunks = taped_diagrams(tape, diagrams, nodes, memo)
            got = np.concatenate([c.value for c in chunks], axis=2).sum(axis=0)
            unmixed = FusionBlockConfig(
                diagrams, AggregationKind.SUM, identity_mixing(len(diagrams) * tau)
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
    taped = (
        taped_interaction_layer if isinstance(layer, InteractionParams) else taped_three_body_layer
    )
    start = len(tape.nodes)
    out = taped(
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


class TestPlainTapedAgreement:
    @pytest.mark.parametrize("kind", ["gated", "fused", "three_body"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_energy_matches(self, kind, n_layers):
        config = ModelConfig(
            kind=kind,
            n_layers=n_layers,
            tau=3,
            j_max=1,
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
            gathers.append((len(x.shape), np.asarray(indices)))
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
        src, dst, gathers, _ = self._forward_calls(monkeypatch)
        activation_gathers = [idx for ndim, idx in gathers if ndim == 3]
        assert activation_gathers  # the neighbors still are
        assert all(np.array_equal(idx, dst) for idx in activation_gathers)
        assert not any(np.array_equal(idx, src) for idx in activation_gathers)

    def test_gate_reads_the_gathered_neighbor(self, monkeypatch):
        # a fused force call on the 9-atom cloud records 18 gathers: the
        # positions at src and dst, the embedding, per layer the neighbor
        # slot at dst and the gate's center rows at src, then the VJPs of
        # the sums over neighbors and of the readout.  The gate reads its
        # neighbor rows from the spin-0 neighbor slot, so no spin-0 row is
        # gathered at dst twice (it was 20, with one more per layer)
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=6, j_max=1, seed=2))
        rng = np.random.default_rng(9)
        positions = rng.normal(size=(9, 3)) * 1.3
        species = rng.integers(0, 2, size=9)
        pc = PointCloud(positions, species)
        src, _ = edge_index(build_neighborhood(pc, model.config.cutoff))
        gathers = []
        gather = ad.gather

        def recording_gather(tape, x, indices):
            gathers.append((x.shape, np.asarray(indices)))
            return gather(tape, x, indices)

        monkeypatch.setattr(ad, "gather", recording_gather)
        model.energy_and_forces(positions, species)
        assert len(gathers) == 18
        gate_rows = [idx for shape, idx in gathers if shape == (9, 6)]
        assert len(gate_rows) == 2  # one per layer
        assert all(np.array_equal(idx, src) for idx in gate_rows)

    def _edge_row_products(self, monkeypatch, kind):
        """The per-edge products of a 2-layer model's forward: each must
        read a neighbor and a spin-1 harmonic, once per layer."""
        src, _, _, products = self._forward_calls(monkeypatch, kind=kind)
        edge_rows = [rows for ndim, rows in products if ndim == 3 and rows == len(src)]
        pairs = set()
        for x, y, shape in self.operands:
            if shape[0] == len(src):
                assert len(x.shape) == 3 and y.shape == (len(src), 3)  # neighbor ⊗ Y1
                pairs.add((x.id, y.id, shape[1]))
        assert len(pairs) == len(edge_rows)
        return len(edge_rows)

    def test_edge_row_products(self, monkeypatch):
        # each (neighbor ⊗ harmonic)_k with a spin-1 harmonic, once per
        # layer: (h0 ⊗ Y1)_1 in layer 0; (h0 ⊗ Y1)_1, (h1 ⊗ Y1)_0 and (h1 ⊗
        # Y1)_1 in layer 1.  The gated term shares the fusion term's T,
        # Y^0_0 is folded into the mixing and the gate multiplies the summed
        # outputs, so no product reads a spin-0 harmonic or a gated
        # neighbor (it was 2 + 2 gated products and 2 + 5 of T, 11)
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
        # chains' 20, none more
        src, _, _, products = self._forward_calls(
            monkeypatch, kind="three_body", schedule_mode="dense", internal_spins=(0, 1)
        )
        rows = [rows for ndim, rows in products if ndim == 3]
        assert rows.count(len(src)) == 22
        assert rows.count(9) == 2

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
    """Every collection is lowered at init into center-only, (center ⊗ T)_J
    and per-edge targets, which one taped executor runs."""

    def test_target_groups_of_the_fused_table(self):
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=3, j_max=1, seed=2))
        for layer in model.layers:
            assert set(layer.recoupled) == set(layer.diagrams)
            for two_l, table in layer.diagrams.items():
                lowered = dict(zip(table, layer.recoupled[two_l]))
                assert len(lowered) == len(layer.recoupled[two_l])
                for term, c in lowered.items():
                    assert c.diagrams == table[term]
                    keys = (f"vertex/{two_l}/{term}",)
                    if term == "fusion":
                        keys = (f"fusion_mix/{two_l}",) + keys
                    assert c.weights == keys
                for term in ("self", "pair"):
                    if term in lowered:
                        c = lowered[term]
                        assert (c.center, c.atom, c.edge) == (c.diagrams, (), ())
                        assert c.mixing is None
                gated = lowered["gated"]
                # one per-edge target per diagram, times the gate (slot 4)
                assert (gated.center, gated.atom) == ((), ())
                assert len(gated.edge) == len(gated.diagrams) and gated.gate == 4
                fusion = lowered["fusion"]
                assert fusion.atom and not fusion.center and not fusion.edge
                assert fusion.gate is None
                for t in fusion.atom:
                    assert t.tree.left == LeafNode(0)
                    # T = (neighbor ⊗ harmonic)_k', or the neighbor alone
                    # where the harmonic was the constant Y^0_0
                    assert [slot for slot, _ in t.leaves] in ([0, 1, 2], [0, 1])
                for t in gated.edge + fusion.atom:  # no gated neighbor, no Y^0_0
                    assert all(slot != 3 and (slot, two_j) != (2, 0) for slot, two_j in t.leaves)

    @pytest.mark.parametrize("j_max", [1, 2])
    def test_gated_products_are_the_fusion_terms_T(self, j_max):
        # the gated term's per-edge products key the same memo entries as
        # the fusion term's T at the same output spin, so they run once
        model = Model(ModelConfig(kind="fused", n_layers=2, tau=3, j_max=j_max, seed=2))
        shared = 0
        for layer in model.layers:
            for two_l, table in layer.diagrams.items():
                lowered = dict(zip(table, layer.recoupled[two_l]))
                gated = {_subtree_key(t.tree, iter(t.leaves)) for t in lowered["gated"].edge}
                fusion_T = {
                    _subtree_key(t.tree.right, iter(t.leaves[1:])) for t in lowered["fusion"].atom
                }
                products = {key for key in gated if len(key) == 3}  # not a bare neighbor
                assert products <= fusion_T
                shared += len(products)
        assert shared

    @pytest.mark.parametrize("factor", [1 + 1e-9, -1.0], ids=["off_by_1e-9", "sign"])
    def test_build_time_check_catches_a_perturbed_rewrite(self, monkeypatch, factor):
        # one U entry, that of the first gated diagram at spin 1, off: the
        # lowering's check against the tables' dense maps rejects the layer
        rewrite = layers._rewrite_legs
        gated_tree = FuseNode(LeafNode(2), LeafNode(3), 2)
        perturbed_once = []

        def perturbed(node, leaf_iter):
            tree, leaves, two_j, weight = rewrite(node, leaf_iter)
            if node == gated_tree and not perturbed_once:
                perturbed_once.append(node)
                weight *= factor
            return tree, leaves, two_j, weight

        init_interaction_layer((0, 2), 1, 3, 4, 8, True, 2, "L")  # as built, it passes
        monkeypatch.setattr(layers, "_rewrite_legs", perturbed)
        with pytest.raises(RecouplingError):
            init_interaction_layer((0, 2), 1, 3, 4, 8, True, 2, "L")

    def test_dense_chains_and_first_stages_stay_per_edge(self):
        schedule = SpinSchedule("dense", (0, 2))
        params = init_three_body_layer((0, 2), 1, 3, 4, schedule, 2, "L")
        for two_J, (block,) in params.recoupled.items():
            assert block.weights == (f"mixing/{two_J}",)
            chains = [d for d in block.diagrams if len(d.leaves) > 3]
            assert chains
            assert set(chains) <= set(block.edge)
            for chain in chains:
                first_stage = FusionDiagram(chain.leaves[:3], chain.tree.left.left, two_J)
                assert first_stage in block.edge  # a single of the schedule as well

    @pytest.mark.parametrize(
        "extra, count",
        [
            (dict(kind="fused"), 11),
            (dict(kind="gated"), 8),
            (dict(kind="three_body", internal_spins=(0, 1, 2)), 4),
        ],
        ids=["fused", "gated", "three_body_sparse"],
    )
    def test_atom_row_channel_mix_products(self, monkeypatch, extra, count):
        # each collection's mixings compose in weight space, so its targets
        # are mixed by one N-row product (the readout is one more)
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
        assert rows.count(9) == count


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
