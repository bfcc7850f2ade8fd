"""Equivariant message-passing layers built from fusion diagrams.

Two layer families:

* the interaction layer — per-atom update combining a self term, a
  channel-wise CG self-product (``pair``), a gated two-body message sum
  (``gated``), and (in the "fused" kind) a three-leaf fusion-block term per
  output spin.  Every term is a fusion-diagram collection (the self term a
  one-leaf diagram); the term groups are mixed by per-spin vertex matrices
  (one weight block per term, summed in fixed order so that zeroing the
  fusion mixing reproduces the gated layer bit for bit).

* the three-body update — for every output spin J, a fusion block whose
  three slots are (center activation, edge feature, neighbor activation) is
  summed over neighbors; diagram collections come from an internal-spin
  schedule, either sparse (one internal spin per coupling) or dense (staged
  ordered tuples of internal spins, every stage pinned to the output spin so
  no reshaping layer is needed), followed by one trainable mixing over the
  concatenated channel axis.

Each layer is a ``LayerParams``: a diagram table keyed by output spin and
one weight table, ``weights``, keyed by the parameter's name within the
layer (``gate/w_hidden``, ``vertex/2/pair``, ``mixing/0``, ...), both
built once at init.  A model lists the weight tables under the layer's
name; that is all it knows of them.

Both layers have two executors over the same tables.  The taped forms,
vectorized over atoms and edges for training, run every CG product through
``taped_diagrams``, which records a subtree shared between diagrams once;
a taped layer records only the output spins its caller asks for, the spins
its consumer reads (spin 0 alone in a model's last layer).  The per-atom
forms (``interaction_layer``, ``three_body_forward``) are the eager oracle,
built on ``blocks.apply``; they compute every output spin.  No layer call
builds a diagram.

The taped fusion term and three-body blocks do not run their diagrams as
built.  At init, ``diagrams.recouple`` rewrites each three-leaf diagram
((center ⊗ a)_k ⊗ b)_J as a combination, with the real matrix U, of
(center ⊗ T)_J, T = (a ⊗ b)_k' the subtree of per-edge leaves (an F-move,
which spans the same space).  ``taped_recoupled`` then runs three stages:

* edge stage: each distinct T, once per edge (E rows);
* ``index_add`` of each T over the edges' source atoms;
* atom stage: one CG product of the center with each summed T (N rows).

The center is not gathered to the edges, and the mixing,
``kron(U, I_tau) @ W`` recorded from the stored weights, runs on N rows.
Multi-stage chains (the dense schedule's diagrams with five or more
leaves), and the three-leaf diagrams that are their first stages, keep the
per-edge lowering: the chains record those stages per edge anyway.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import AggregationKind, FusionBlockConfig, MixingMatrix, apply as block_apply
from .cg import cg_tensor
from .diagrams import FuseNode, FusionDiagram, LeafNode, left_comb, recouple
from .errors import EmptySchedule
from .features import EdgeFeature
from .geometry import Neighborhood, PointCloud
from .irreps import Activation
from .spins import admissible

__all__ = [
    "SpinSchedule",
    "LayerParams",
    "InteractionParams",
    "ThreeBodyParams",
    "invariant_gate",
    "init_interaction_layer",
    "interaction_layer",
    "init_three_body_layer",
    "three_body_forward",
    "seeded_uniform",
]

def seeded_uniform(shape: tuple[int, ...], seed: int, name: str) -> np.ndarray:
    """Deterministic per-name init: uniform [-s, s], s = fan_in ** -0.5.

    The stream depends on (seed, name) only, so architectures sharing a
    parameter name draw identical values for it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    scale = shape[0] ** -0.5
    return rng.uniform(-scale, scale, size=shape)


# ---------------------------------------------------------------------------
# internal-spin schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinSchedule:
    """Internal-spin selection for three-body couplings.

    ``internal_two_ks`` lists the schedule's internal spins (as 2k).  Sparse
    mode couples through one internal spin at a time; dense mode evaluates
    ordered tuples: every single spin plus every permutation of the full
    sequence (deduplicated, deterministic order).
    """

    mode: str
    internal_two_ks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("sparse", "dense"):
            raise ValueError(f"schedule mode must be sparse or dense, got {self.mode!r}")
        if not self.internal_two_ks:
            raise EmptySchedule("an internal-spin schedule needs at least one spin")
        object.__setattr__(self, "internal_two_ks", tuple(int(k) for k in self.internal_two_ks))

    @property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """Coupling tuples in evaluation order."""
        singles = [(k,) for k in self.internal_two_ks]
        if self.mode == "sparse":
            return tuple(singles)
        seen = list(singles)
        for perm in sorted(itertools.permutations(self.internal_two_ks)):
            if perm not in seen:
                seen.append(perm)
        return tuple(seen)


# ---------------------------------------------------------------------------
# invariant gate
# ---------------------------------------------------------------------------


def _gate_features(center: Activation, neighbor: Activation, basis: np.ndarray) -> np.ndarray:
    """Invariant inputs: Re/Im of both j=0 parts plus the radial basis row."""
    c0 = center.part(0)[0]
    n0 = neighbor.part(0)[0]
    return np.concatenate([c0.real, c0.imag, n0.real, n0.imag, np.asarray(basis, dtype=float)])


def invariant_gate(
    center: Activation, neighbor: Activation, edge: EdgeFeature, weights: dict[str, np.ndarray]
) -> np.ndarray:
    """Rotation-invariant per-channel gate value for one edge: a two-layer
    perceptron on invariant inputs, read from a layer's ``gate/*`` weights."""
    x = _gate_features(center, neighbor, edge.basis)
    hidden = np.tanh(x @ weights["gate/w_hidden"] + weights["gate/b_hidden"])
    return hidden @ weights["gate/w_out"] + weights["gate/b_out"]


def taped_gate(
    tape: ad.Tape,
    acts: dict[int, ad.Node],
    src: np.ndarray,
    dst: np.ndarray,
    basis: ad.Node,
    weights: dict[str, ad.Node],
) -> ad.Node:
    """Vectorized gate over all edges -> (E, tau) real node."""
    n_atoms, _, tau = acts[0].shape
    flat0 = ad.reshape(tape, acts[0], (n_atoms, tau))
    rows = []
    for idx in (src, dst):
        part = ad.gather(tape, flat0, idx)
        rows.append(ad.real(tape, part))
        rows.append(ad.imag(tape, part))
    rows.append(basis)
    x = ad.concat(tape, rows, axis=1)
    hidden = ad.tanh(
        tape,
        ad.add(tape, ad.channel_mix(tape, x, weights["gate/w_hidden"]), weights["gate/b_hidden"]),
    )
    return ad.add(tape, ad.channel_mix(tape, hidden, weights["gate/w_out"]), weights["gate/b_out"])


# ---------------------------------------------------------------------------
# taped diagram executor
# ---------------------------------------------------------------------------


def taped_diagrams(
    tape: ad.Tape,
    diagrams,
    leaves: list[dict[int, ad.Node]],
    memo: dict[tuple, ad.Node],
) -> list[ad.Node]:
    """Contract each diagram on the tape, batched over the leading axis.

    ``leaves[slot][two_j]`` is the node a (slot, 2j) leaf consumes.  Every
    ``FuseNode`` records one ``einsum3`` with its CG tensor, memoized under
    the structural key (left key, right key, 2k), with (slot, 2j) at the
    leaves, so every key ends in its subtree's spin.  A subtree shared
    between diagrams, or between calls that pass the same ``memo`` and
    ``leaves``, is recorded once.  Returns one node per diagram, in order.
    """
    return [_emit_diagram(tape, d.tree, iter(d.leaves), leaves, memo)[1] for d in diagrams]


def _emit_diagram(tape, node, leaf_iter, leaves, memo) -> tuple[tuple, ad.Node]:
    """(structural key, node) of one subtree; see ``taped_diagrams``.

    A module-level function rather than a recursive closure, which would be
    a reference cycle holding the tape."""
    if isinstance(node, LeafNode):
        slot, two_j = key = next(leaf_iter)
        return key, leaves[slot][two_j]
    left_key, left = _emit_diagram(tape, node.left, leaf_iter, leaves, memo)
    right_key, right = _emit_diagram(tape, node.right, leaf_iter, leaves, memo)
    key = (left_key, right_key, node.two_k)
    value = memo.get(key)
    if value is None:
        # activations are (E|N, 2j+1, tau); edge harmonics are (E, 2j+1)
        left_t, right_t = ("t" if len(n.shape) == 3 else "" for n in (left, right))
        value = memo[key] = ad.einsum3(
            tape,
            cg_tensor(left_key[-1], right_key[-1], node.two_k).coeffs,
            left,
            right,
            f"abc,ea{left_t},eb{right_t}->ec{left_t or right_t}",
        )
    return key, value


@dataclass(frozen=True)
class RecoupledCollection:
    """A diagram collection recoupled for ``taped_recoupled``, built at init.

    ``atom`` are the (center ⊗ T)_J targets ``diagrams.recouple`` made from
    the three-leaf diagrams; ``edge`` are the diagrams it passed through
    (the dense schedule's multi-stage chains and their first stages).
    ``mixing`` is kron(U, I_tau) with U's rows in ``atom + edge`` order: it
    maps the targets' concatenated outputs onto the collection's, diagram
    by diagram.
    """

    atom: tuple[FusionDiagram, ...]
    edge: tuple[FusionDiagram, ...]
    mixing: np.ndarray


def recoupled_collection(diagrams, tau: int) -> RecoupledCollection:
    """``diagrams.recouple`` on a collection, split into its atom and edge
    targets; a target that is one of the inputs was passed through."""
    targets, U = recouple(diagrams)
    inputs = set(diagrams)
    atom_rows = [row for row, t in enumerate(targets) if t not in inputs]
    edge_rows = [row for row, t in enumerate(targets) if t in inputs]
    return RecoupledCollection(
        tuple(targets[row] for row in atom_rows),
        tuple(targets[row] for row in edge_rows),
        np.kron(U[atom_rows + edge_rows], np.eye(tau)),
    )


def taped_recoupled(
    tape: ad.Tape,
    collections: dict[int, RecoupledCollection],
    center: dict[int, ad.Node],
    edge_leaves: list[dict[int, ad.Node]],
    src: np.ndarray,
    weights: dict[int, ad.Node],
) -> dict[int, ad.Node]:
    """Diagram collections summed over each atom's edges, then mixed.

    ``collections[two_J]`` is a collection over slots 0 = center atom
    (N rows) and 1, 2 = per-edge leaves, ``edge_leaves[slot - 1]`` (E
    rows); ``weights[two_J]`` mixes the collection's concatenated diagram
    outputs.  Three stages:

    * edge stage: the per-edge subtree T of each (center ⊗ T)_J atom
      target, through ``taped_diagrams``' memo, so a T shared between
      targets or output spins is recorded once;
    * ``index_add`` of each distinct T over ``src``;
    * atom stage: one CG product (center ⊗ sum of T)_J per target, at N rows.

    The edge targets run per edge, with the center gathered to the edges,
    and are summed after.  The mixing is ``collection.mixing @ weights``,
    recorded from the weight node, so the result equals summing the
    original collection over edges and mixing.
    """
    n_atoms = center[0].shape[0]
    leaves = [None, *edge_leaves]
    if any(collection.edge for collection in collections.values()):
        leaves[0] = {two_j: ad.gather(tape, node, src) for two_j, node in center.items()}
    memo: dict[tuple, ad.Node] = {}
    summed: dict[tuple, ad.Node] = {}
    out: dict[int, ad.Node] = {}
    for two_J, collection in collections.items():
        chunks = []
        for d in collection.atom:
            key, subtree = _emit_diagram(tape, d.tree.right, iter(d.leaves[1:]), leaves, memo)
            if key not in summed:
                summed[key] = ad.index_add(tape, subtree, src, n_atoms)
            two_j = d.leaves[0][1]
            chunks.append(ad.einsum3(
                tape, cg_tensor(two_j, key[-1], two_J).coeffs, center[two_j], summed[key],
                "abc,eat,ebt->ect",
            ))
        if collection.edge:
            per_edge = taped_diagrams(tape, collection.edge, leaves, memo)
            chunks.append(ad.index_add(tape, ad.concat(tape, per_edge, axis=2), src, n_atoms))
        mixing = ad.channel_mix(tape, tape.constant(collection.mixing), weights[two_J])
        out[two_J] = ad.channel_mix(tape, ad.concat(tape, chunks, axis=2), mixing)
    return out


# ---------------------------------------------------------------------------
# layer tables
# ---------------------------------------------------------------------------


@dataclass
class LayerParams:
    """One layer's diagram table and weight table, both built at init.

    ``diagrams`` is keyed by output spin; ``recoupled`` holds the
    collections the taped executor runs recoupled.  ``weights`` maps each
    parameter's name within the layer (``gate/w_hidden``, ``vertex/2/pair``,
    ``mixing/0``, ...) to its array, in checkpoint order; a model lists it
    under ``{layer name}/{key}``, which is also the name the array was
    seeded under.  The eager oracle reads the arrays, the taped layer their
    nodes (``weight_nodes``).
    """

    tau: int
    diagrams: dict = field(default_factory=dict)
    recoupled: dict[int, RecoupledCollection] = field(default_factory=dict)
    weights: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def output_spins(self) -> tuple[int, ...]:
        return tuple(sorted(self.diagrams))

    def add_seeded(self, key: str, shape: tuple[int, int], seed: int, name: str) -> None:
        """Add weight ``key`` of the layer called ``name``, ``seeded_uniform``."""
        self.weights[key] = seeded_uniform(shape, seed, f"{name}/{key}")

    def weight_nodes(self, param_nodes: dict[str, ad.Node], name: str) -> dict[str, ad.Node]:
        """The table's nodes among a model's, keyed as in ``weights``."""
        return {key: param_nodes[f"{name}/{key}"] for key in self.weights}


# ---------------------------------------------------------------------------
# pairwise interaction layer (gated / fused kinds)
# ---------------------------------------------------------------------------


class InteractionParams(LayerParams):
    """Tables of one interaction layer.

    ``diagrams[two_l][term]`` is the fusion-diagram collection of one term
    at output spin 2l; the terms present at a spin appear in the fixed order
    self, pair, gated, fusion, and none is empty.  Slots per term: self (0 =
    center), pair (0, 1 = center), gated (0 = edge harmonic, 1 = gated
    neighbor), fusion (0 = center, 1 = neighbor, 2 = edge harmonic).
    Weights: ``gate/*`` (``invariant_gate``); ``vertex/{2l}/{term}`` mixes a
    term's concatenated diagram outputs to tau channels, except in the fused
    kind's fusion term, whose ``fusion_mix/{2l}`` does that and whose vertex
    block is square.  The mixed terms are summed in table order, so zeroing
    the fusion mixing reproduces the gated layer bit for bit.
    ``recoupled[two_l]`` holds the fusion term recoupled to (center ⊗
    (neighbor ⊗ harmonic)_k')_l.
    """


def _term_diagrams(input_spins, edge_spins, two_l: int, fused: bool):
    """The non-empty terms' diagram collections at one output spin.

    Two-leaf terms list their (2ja, 2jb) leaf pairs lexicographically; the
    fusion term couples (center, neighbor) through k, then (k, edge
    harmonic) into the output spin, lexicographic in (2ji, 2jj, 2k, 2jy).
    """

    def pairs(spins_a, spins_b):
        return tuple(
            left_comb([two_ja, two_jb], [], two_l)
            for two_ja in spins_a
            for two_jb in spins_b
            if admissible(two_ja, two_jb, two_l)
        )

    terms = {
        "self": (
            (FusionDiagram(((0, two_l),), LeafNode(0), two_l),)
            if two_l in input_spins
            else ()
        ),
        "pair": pairs(input_spins, input_spins),
        "gated": pairs(edge_spins, input_spins),
        "fusion": tuple(
            left_comb([two_ji, two_jj, two_jy], [two_k], two_l, slots=[0, 1, 2])
            for two_ji in input_spins
            for two_jj in input_spins
            for two_k in range(abs(two_ji - two_jj), two_ji + two_jj + 2, 2)
            for two_jy in edge_spins
            if fused and admissible(two_k, two_jy, two_l)
        ),
    }
    return {term: diagrams for term, diagrams in terms.items() if diagrams}


def init_interaction_layer(
    input_spins,
    j_max: int,
    tau: int,
    radial_channels: int,
    hidden: int,
    fused: bool,
    seed: int,
    name: str,
) -> InteractionParams:
    input_spins = tuple(sorted(input_spins))
    edge_spins = tuple(2 * j for j in range(j_max + 1))
    params = InteractionParams(tau=tau)
    params.add_seeded("gate/w_hidden", (4 * tau + radial_channels, hidden), seed, name)
    params.weights["gate/b_hidden"] = np.zeros(hidden)
    params.add_seeded("gate/w_out", (hidden, tau), seed, name)
    params.weights["gate/b_out"] = np.zeros(tau)
    for two_l in edge_spins:
        table = params.diagrams[two_l] = _term_diagrams(input_spins, edge_spins, two_l, fused)
        for term, diagrams in table.items():
            rows = (1 if term == "fusion" else len(diagrams)) * tau
            params.add_seeded(f"vertex/{two_l}/{term}", (rows, tau), seed, name)
    for two_l, table in params.diagrams.items():
        if "fusion" in table:
            params.add_seeded(f"fusion_mix/{two_l}", (len(table["fusion"]) * tau, tau), seed, name)
            params.recoupled[two_l] = recoupled_collection(table["fusion"], tau)
    return params


def _broadcast_harmonics(edge: EdgeFeature, tau: int) -> Activation:
    """Single-channel harmonics repeated across tau channels."""
    return Activation(
        {two_j: np.repeat(edge.harmonics.part(two_j), tau, axis=1)
         for two_j in edge.harmonics.spins}
    )


def interaction_layer(
    acts: list[Activation],
    pc: PointCloud,
    nbr: Neighborhood,
    feats: dict[tuple[int, int], EdgeFeature],
    params: InteractionParams,
) -> list[Activation]:
    """Plain per-atom interaction layer (reference implementation).

    Runs each term's diagrams through ``blocks.apply``, with the per-edge
    slots listed over the atom's neighbors and the term's vertex block (the
    fusion term: its ``fusion_mix``, then its vertex block) as the mixing.
    """
    tau = params.tau
    out: list[Activation] = []
    for o in range(pc.n_atoms):
        center = acts[o]
        neighbors = nbr.neighbors(o)
        harmonics = [_broadcast_harmonics(feats[(o, i)], tau) for i in neighbors]
        gated = []
        for i in neighbors:
            gate = invariant_gate(center, acts[i], feats[(o, i)], params.weights)
            gated.append(
                Activation({two_j: acts[i].part(two_j) * gate[None, :] for two_j in acts[i].spins})
            )
        inputs = {
            "self": [center],
            "pair": [center, center],
            "gated": [harmonics, gated],
            "fusion": [center, [acts[i] for i in neighbors], harmonics],
        }

        parts: dict[int, np.ndarray] = {}
        for two_l, table in params.diagrams.items():
            total = np.zeros((two_l + 1, tau), dtype=complex)
            for term, diagrams in table.items():
                vertex = params.weights[f"vertex/{two_l}/{term}"]
                mixing = params.weights[f"fusion_mix/{two_l}"] if term == "fusion" else vertex
                block = FusionBlockConfig(diagrams, AggregationKind.SUM, MixingMatrix(mixing))
                value = block_apply(block, inputs[term]).data
                if term == "fusion":
                    value = value @ vertex
                total = total + value
            parts[two_l] = total
        out.append(Activation(parts))
    return out


def taped_interaction_layer(
    tape: ad.Tape,
    acts: dict[int, ad.Node],
    src: np.ndarray,
    dst: np.ndarray,
    harmonics: dict[int, ad.Node],
    basis: ad.Node,
    params: InteractionParams,
    param_nodes: dict[str, ad.Node],
    name: str,
    output_spins: tuple[int, ...],
) -> dict[int, ad.Node]:
    """Vectorized interaction layer on the tape; mirrors interaction_layer.

    Runs the same diagram table through ``taped_diagrams``; the gated term
    is summed onto its source atoms before the vertex mixing.  The fusion
    term runs recoupled (``taped_recoupled``): its per-edge subtree is
    summed over each atom's neighbors, and the center is coupled once per
    atom.  Records only the outputs whose spin is in ``output_spins``, the
    spins its consumer reads.
    """
    tau = params.tau
    n_atoms = acts[0].shape[0]
    weights = params.weight_nodes(param_nodes, name)
    gate = taped_gate(tape, acts, src, dst, basis, weights)
    n_edges = len(src)
    gate_col = ad.reshape(tape, gate, (n_edges, 1, tau))

    gathered_dst = {two_j: ad.gather(tape, acts[two_j], dst) for two_j in acts}
    leaves = {
        "self": [acts],
        "pair": [acts, acts],
        "gated": [
            harmonics,
            {two_j: ad.mul(tape, node, gate_col) for two_j, node in gathered_dst.items()},
        ],
    }
    memos: dict[str, dict[tuple, ad.Node]] = {term: {} for term in leaves}
    fused = taped_recoupled(
        tape,
        {two_l: c for two_l, c in params.recoupled.items() if two_l in output_spins},
        acts,
        [gathered_dst, harmonics],
        src,
        {two_l: weights[f"fusion_mix/{two_l}"] for two_l in params.recoupled},
    )

    out: dict[int, ad.Node] = {}
    for two_l, table in params.diagrams.items():
        if two_l not in output_spins:
            continue
        total = None
        for term, diagrams in table.items():
            if term == "fusion":
                value = fused[two_l]
            else:
                chunks = taped_diagrams(tape, diagrams, leaves[term], memos[term])
                value = ad.concat(tape, chunks, axis=2)
            if term == "gated":
                value = ad.index_add(tape, value, src, n_atoms)
            term_out = ad.channel_mix(tape, value, weights[f"vertex/{two_l}/{term}"])
            total = term_out if total is None else ad.add(tape, total, term_out)
        out[two_l] = total
    return out


# ---------------------------------------------------------------------------
# three-body neighborhood update (sparse / dense schedules)
# ---------------------------------------------------------------------------


def _stage_options(input_spins, edge_spins, carried: int, two_k: int, two_J: int, first: bool):
    """Admissible leaf spins for one coupling stage, lexicographic.

    Stage structure: (carried, edge)->k then (k, neighbor)->J.  The first
    stage carries a center-activation spin (enumerated); later stages carry
    the output spin J.
    """
    options = []
    centers = sorted(input_spins) if first else [carried]
    for two_jo in centers:
        for two_je in sorted(edge_spins):
            if not admissible(two_jo, two_je, two_k):
                continue
            for two_ji in sorted(input_spins):
                if admissible(two_k, two_ji, two_J):
                    options.append((two_jo, two_je, two_ji))
    return options


def three_body_paths(input_spins, edge_spins, two_J: int, ks: tuple[int, ...]):
    """All admissible leaf-spin paths for one coupling tuple, in order.

    A path lists one (center/carried, edge, neighbor) spin triple per stage;
    stages after the first carry the output spin J.
    """
    paths: list[tuple[tuple[int, int, int], ...]] = [()]
    for t, two_k in enumerate(ks):
        extended = []
        for path in paths:
            options = _stage_options(
                input_spins, edge_spins, two_J, two_k, two_J, first=(t == 0)
            )
            for option in options:
                extended.append(path + (option,))
        paths = extended
    return paths


def _path_diagram(two_J: int, ks: tuple[int, ...], path) -> FusionDiagram:
    """Unroll a staged coupling into one diagram over slots (0, 1, 2)."""
    leaves = [(0, path[0][0])]
    node = LeafNode(0)
    for t, two_k in enumerate(ks):
        _, two_je, two_ji = path[t]
        leaves.append((1, two_je))
        leaves.append((2, two_ji))
        node = FuseNode(FuseNode(node, LeafNode(1), two_k), LeafNode(2), two_J)
    return FusionDiagram(tuple(leaves), node, two_J)


class ThreeBodyParams(LayerParams):
    """Tables of one three-body update layer.

    ``diagrams[two_J]`` is the fusion block's diagram collection (slots: 0 =
    center, 1 = edge, 2 = neighbor), non-empty.  Weights:
    ``edge_embed/{2j}`` maps radial channels to feature channels per edge
    spin; ``mixing/{2J}`` is the block's trainable final mixing over the
    concatenated diagram axis.  ``recoupled[two_J]`` holds the collection
    recoupled: every three-leaf diagram becomes (center ⊗ (edge ⊗
    neighbor)_k')_J, except in a dense block, whose multi-stage chains and
    their three-leaf first stages stay as they are.
    """


def init_three_body_layer(
    input_spins,
    j_max: int,
    tau: int,
    radial_channels: int,
    schedule: SpinSchedule,
    seed: int,
    name: str,
) -> ThreeBodyParams:
    input_spins = tuple(sorted(input_spins))
    edge_spins = tuple(2 * j for j in range(j_max + 1))
    params = ThreeBodyParams(tau=tau)
    for two_j in edge_spins:
        params.add_seeded(f"edge_embed/{two_j}", (radial_channels, tau), seed, name)
    for two_J in edge_spins:
        diagrams = tuple(
            _path_diagram(two_J, ks, path)
            for ks in schedule.tuples
            for path in three_body_paths(input_spins, edge_spins, two_J, ks)
        )
        if not diagrams:
            continue
        params.diagrams[two_J] = diagrams
        params.add_seeded(f"mixing/{two_J}", (len(diagrams) * tau, tau), seed, name)
        params.recoupled[two_J] = recoupled_collection(diagrams, tau)
    return params


def embed_edge(edge: EdgeFeature, params: ThreeBodyParams) -> Activation:
    """Radial-channel edge feature mapped to tau feature channels per spin."""
    return Activation(
        {
            two_j: edge.activation.part(two_j) @ params.weights[f"edge_embed/{two_j}"]
            for two_j in edge.activation.spins
        }
    )


def three_body_forward(
    acts: list[Activation],
    pc: PointCloud,
    nbr: Neighborhood,
    feats: dict[tuple[int, int], EdgeFeature],
    params: ThreeBodyParams,
) -> list[Activation]:
    """Plain per-atom three-body update (reference implementation).

    Slots: 0 = center activation, 1 = embedded edge feature, 2 = neighbor
    activation; listed slots aggregate over the index-aligned neighbor list.
    """
    blocks = {
        two_J: FusionBlockConfig(
            diagrams, AggregationKind.SUM, MixingMatrix(params.weights[f"mixing/{two_J}"])
        )
        for two_J, diagrams in params.diagrams.items()
    }
    out = []
    for o in range(pc.n_atoms):
        neighbors = nbr.neighbors(o)
        inputs = [
            acts[o],
            [embed_edge(feats[(o, i)], params) for i in neighbors],
            [acts[i] for i in neighbors],
        ]
        out.append(
            Activation(
                {two_J: block_apply(block, inputs).data for two_J, block in blocks.items()}
            )
        )
    return out


def taped_three_body_layer(
    tape: ad.Tape,
    acts: dict[int, ad.Node],
    src: np.ndarray,
    dst: np.ndarray,
    harmonics: dict[int, ad.Node],
    basis: ad.Node,
    params: ThreeBodyParams,
    param_nodes: dict[str, ad.Node],
    name: str,
    output_spins: tuple[int, ...],
) -> dict[int, ad.Node]:
    """Vectorized three-body update; mirrors three_body_forward.

    Runs the recoupled blocks through ``taped_recoupled``.  Records only the
    outputs whose spin is in ``output_spins``.
    """
    n_edges = len(src)
    weights = params.weight_nodes(param_nodes, name)
    basis_rows = ad.reshape(tape, basis, (n_edges, 1, basis.shape[1]))

    edge_feats: dict[int, ad.Node] = {}
    for two_j, harm in harmonics.items():
        harm = ad.reshape(tape, harm, (n_edges, two_j + 1, 1))
        scaled = ad.mul(tape, harm, basis_rows)
        edge_feats[two_j] = ad.channel_mix(tape, scaled, weights[f"edge_embed/{two_j}"])

    return taped_recoupled(
        tape,
        {two_J: c for two_J, c in params.recoupled.items() if two_J in output_spins},
        acts,
        [edge_feats, {two_j: ad.gather(tape, acts[two_j], dst) for two_j in acts}],
        src,
        {two_J: weights[f"mixing/{two_J}"] for two_J in params.recoupled},
    )
