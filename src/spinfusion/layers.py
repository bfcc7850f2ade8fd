"""Equivariant message-passing layers built from fusion diagrams.

Two layer families:

* the interaction layer — per-atom update combining a self term, a
  channel-wise CG self-product (``pair``), a gated two-body message sum
  (``gated``), and (in the "fused" kind) a three-leaf fusion-block term per
  output spin; the term groups are mixed by per-spin vertex matrices (one
  weight block per term, summed in fixed order so that zeroing the fusion
  mixing reproduces the gated layer bit for bit).

* the three-body update — for every output spin J, a fusion block whose
  three slots are (center activation, edge feature, neighbor activation) is
  summed over neighbors; diagram collections come from an internal-spin
  schedule, either sparse (one internal spin per coupling) or dense (staged
  ordered tuples of internal spins, every stage pinned to the output spin so
  no reshaping layer is needed), followed by one trainable mixing over the
  concatenated channel axis.

The taped forms, vectorized over atoms and edges for training, run every
CG product through one executor, ``taped_diagrams``: pair and gated terms
are two-leaf diagrams, the fusion term and the three-body update run their
blocks' diagram collections, and a subtree shared between diagrams is
recorded once.  The per-atom forms (``interaction_layer``,
``three_body_forward``) are the eager oracle, built on ``cg_nonlinearity``
and ``blocks.apply``; both forms follow identical term and diagram orders.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import AggregationKind, FusionBlockConfig, MixingMatrix, apply as block_apply
from .cg import cg_tensor
from .diagrams import FuseNode, FusionDiagram, LeafNode, left_comb
from .errors import ChannelMismatch, EmptySchedule
from .features import EdgeFeature
from .geometry import Neighborhood, PointCloud
from .irreps import Activation
from .spins import admissible

__all__ = [
    "SpinSchedule",
    "GateParams",
    "InteractionParams",
    "ThreeBodyParams",
    "init_gate",
    "invariant_gate",
    "cg_nonlinearity",
    "init_interaction_layer",
    "interaction_layer",
    "init_three_body_layer",
    "three_body_update",
    "three_body_forward",
    "seeded_uniform",
]

VERTEX_TERMS = ("self", "pair", "gated", "fusion")


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


@dataclass
class GateParams:
    """Two-layer perceptron on invariant inputs; one gate per channel."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def n_inputs(self) -> int:
        return self.w_hidden.shape[0]


def init_gate(tau: int, radial_channels: int, hidden: int, seed: int, name: str) -> GateParams:
    n_inputs = 4 * tau + radial_channels
    return GateParams(
        w_hidden=seeded_uniform((n_inputs, hidden), seed, f"{name}/w_hidden"),
        b_hidden=np.zeros(hidden),
        w_out=seeded_uniform((hidden, tau), seed, f"{name}/w_out"),
        b_out=np.zeros(tau),
    )


def _gate_features(center: Activation, neighbor: Activation, basis: np.ndarray) -> np.ndarray:
    """Invariant inputs: Re/Im of both j=0 parts plus the radial basis row."""
    c0 = center.part(0)[0]
    n0 = neighbor.part(0)[0]
    return np.concatenate([c0.real, c0.imag, n0.real, n0.imag, np.asarray(basis, dtype=float)])


def invariant_gate(
    center: Activation, neighbor: Activation, edge: EdgeFeature, params: GateParams
) -> np.ndarray:
    """Rotation-invariant per-channel gate value for one edge."""
    x = _gate_features(center, neighbor, edge.basis)
    hidden = np.tanh(x @ params.w_hidden + params.b_hidden)
    return hidden @ params.w_out + params.b_out


def taped_gate(
    tape: ad.Tape,
    acts: dict[int, ad.Node],
    src: np.ndarray,
    dst: np.ndarray,
    basis: ad.Node,
    params: dict[str, ad.Node],
    prefix: str,
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
        ad.add(tape, ad.channel_mix(tape, x, params[f"{prefix}/w_hidden"]),
               params[f"{prefix}/b_hidden"]),
    )
    return ad.add(tape, ad.channel_mix(tape, hidden, params[f"{prefix}/w_out"]),
                  params[f"{prefix}/b_out"])


# ---------------------------------------------------------------------------
# channel-wise CG nonlinearity
# ---------------------------------------------------------------------------


def _cg_pairs(spins_a, spins_b, two_l: int):
    """(two_ja, two_jb) pairs admissible with two_l, in lexicographic order."""
    return [
        (two_ja, two_jb)
        for two_ja in sorted(spins_a)
        for two_jb in sorted(spins_b)
        if admissible(two_ja, two_jb, two_l)
    ]


def cg_nonlinearity(left: Activation, right: Activation, j_max: int) -> Activation:
    """Channel-wise CG products for every admissible spin pair.

    Outputs for the same spin concatenate along channels in (ja, jb, jc)
    lexicographic order.
    """
    if left.channels != right.channels:
        raise ChannelMismatch(
            f"channel counts differ: {left.channels} vs {right.channels}"
        )
    parts: dict[int, list[np.ndarray]] = {}
    for two_jc in range(0, 2 * j_max + 1):
        for two_ja, two_jb in _cg_pairs(left.spins, right.spins, two_jc):
            coeffs = cg_tensor(two_ja, two_jb, two_jc).coeffs
            product = np.einsum(
                "abc,at,bt->ct", coeffs, left.part(two_ja), right.part(two_jb)
            )
            parts.setdefault(two_jc, []).append(product)
    return Activation({two_jc: np.concatenate(v, axis=1) for two_jc, v in parts.items()})


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

    def emit(node, leaf_iter) -> tuple[tuple, ad.Node]:
        if isinstance(node, LeafNode):
            slot, two_j = key = next(leaf_iter)
            return key, leaves[slot][two_j]
        left_key, left = emit(node.left, leaf_iter)
        right_key, right = emit(node.right, leaf_iter)
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

    return [emit(d.tree, iter(d.leaves))[1] for d in diagrams]


# ---------------------------------------------------------------------------
# pairwise interaction layer (gated / fused kinds)
# ---------------------------------------------------------------------------


def _fusion_leaf_combos(input_spins, edge_spins, two_l: int):
    """(two_ji, two_jj, two_k, two_jy) admissible combos, lexicographic.

    The three-leaf diagram couples (center, neighbor) through k, then
    (k, edge harmonic) into the output spin.
    """
    combos = []
    for two_ji in sorted(input_spins):
        for two_jj in sorted(input_spins):
            for two_k in range(abs(two_ji - two_jj), two_ji + two_jj + 2, 2):
                for two_jy in sorted(edge_spins):
                    if admissible(two_k, two_jy, two_l):
                        combos.append((two_ji, two_jj, two_k, two_jy))
    return combos


@dataclass
class InteractionParams:
    """Parameters of one interaction layer.

    ``vertex[two_l][term]`` are the per-spin per-term weight blocks; the
    blocks act after concatenation, equivalently as a sum of per-term
    products (fixed order: self, pair, gated, fusion).  ``fusion_blocks``
    maps output spins to block configs in the fused kind (empty when gated).
    """

    input_spins: tuple[int, ...]
    j_max: int
    tau: int
    radial_channels: int
    gate: GateParams = None  # type: ignore[assignment]
    vertex: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    fusion_blocks: dict[int, FusionBlockConfig] = field(default_factory=dict)

    @property
    def output_spins(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertex))


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
    params = InteractionParams(
        input_spins=input_spins,
        j_max=j_max,
        tau=tau,
        radial_channels=radial_channels,
        gate=init_gate(tau, radial_channels, hidden, seed, f"{name}/gate"),
    )
    for two_l in edge_spins:
        blocks_for_l: dict[str, np.ndarray] = {}
        if two_l in input_spins:
            blocks_for_l["self"] = seeded_uniform((tau, tau), seed, f"{name}/vertex/{two_l}/self")
        n_pair = len(_cg_pairs(input_spins, input_spins, two_l))
        if n_pair:
            blocks_for_l["pair"] = seeded_uniform(
                (n_pair * tau, tau), seed, f"{name}/vertex/{two_l}/pair"
            )
        n_gated = len(_cg_pairs(edge_spins, input_spins, two_l))
        if n_gated:
            blocks_for_l["gated"] = seeded_uniform(
                (n_gated * tau, tau), seed, f"{name}/vertex/{two_l}/gated"
            )
        if fused:
            combos = _fusion_leaf_combos(input_spins, edge_spins, two_l)
            if combos:
                diagrams = tuple(
                    left_comb([ji, jj, jy], [k], two_l, slots=[0, 1, 2])
                    for ji, jj, k, jy in combos
                )
                mixing = MixingMatrix(
                    seeded_uniform(
                        (len(diagrams) * tau, tau), seed, f"{name}/fusion_mix/{two_l}"
                    )
                )
                params.fusion_blocks[two_l] = FusionBlockConfig(
                    diagrams, AggregationKind.SUM, mixing
                )
                blocks_for_l["fusion"] = seeded_uniform(
                    (tau, tau), seed, f"{name}/vertex/{two_l}/fusion"
                )
        params.vertex[two_l] = blocks_for_l
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
    """Plain per-atom interaction layer (reference implementation)."""
    tau = params.tau
    out: list[Activation] = []
    for o in range(pc.n_atoms):
        center = acts[o]
        neighbors = nbr.neighbors(o)
        pair_product = cg_nonlinearity(center, center, params.j_max)

        gated_sum: dict[int, np.ndarray] = {}
        for i in neighbors:
            edge = feats[(o, i)]
            gate = invariant_gate(center, acts[i], edge, params.gate)
            gated_neighbor = Activation(
                {two_j: acts[i].part(two_j) * gate[None, :] for two_j in acts[i].spins}
            )
            message = cg_nonlinearity(
                _broadcast_harmonics(edge, tau), gated_neighbor, params.j_max
            )
            for two_l in message.spins:
                part = message.part(two_l)
                gated_sum[two_l] = gated_sum.get(two_l, 0.0) + part

        parts: dict[int, np.ndarray] = {}
        for two_l, blocks_for_l in params.vertex.items():
            dim_l = two_l + 1
            total = np.zeros((dim_l, tau), dtype=complex)
            for term in VERTEX_TERMS:
                weights = blocks_for_l.get(term)
                if weights is None:
                    continue
                if term == "self":
                    value = center.part(two_l)
                elif term == "pair":
                    value = pair_product.part(two_l)
                elif term == "gated":
                    value = gated_sum.get(two_l)
                    if value is None:
                        value = np.zeros((dim_l, weights.shape[0]), dtype=complex)
                else:  # fusion
                    block = params.fusion_blocks[two_l]
                    value = block_apply(
                        block,
                        [
                            center,
                            [acts[i] for i in neighbors],
                            [_broadcast_harmonics(feats[(o, i)], tau) for i in neighbors],
                        ],
                    ).data
                total = total + value @ weights
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
) -> dict[int, ad.Node]:
    """Vectorized interaction layer on the tape; mirrors interaction_layer."""
    tau = params.tau
    n_atoms = acts[0].shape[0]
    gate = taped_gate(tape, acts, src, dst, basis, param_nodes, f"{name}/gate")
    n_edges = len(src)
    gate_col = ad.reshape(tape, gate, (n_edges, 1, tau))

    gathered_dst = {two_j: ad.gather(tape, acts[two_j], dst) for two_j in acts}
    gated_dst = {
        two_j: ad.mul(tape, node, gate_col) for two_j, node in gathered_dst.items()
    }
    if params.fusion_blocks:  # only the fusion term reads the source atoms
        fusion_leaves = [
            {two_j: ad.gather(tape, acts[two_j], src) for two_j in acts},
            gathered_dst,
            harmonics,
        ]
    fusion_memo: dict[tuple, ad.Node] = {}

    out: dict[int, ad.Node] = {}
    for two_l, blocks_for_l in params.vertex.items():
        dim_l = two_l + 1
        total = None
        for term in VERTEX_TERMS:
            if term not in blocks_for_l:
                continue
            weights = param_nodes[f"{name}/vertex/{two_l}/{term}"]
            if term == "self":
                value = acts[two_l]
            elif term == "pair":
                pairs = [left_comb(p, [], two_l) for p in _cg_pairs(acts, acts, two_l)]
                chunks = taped_diagrams(tape, pairs, [acts, acts], {})
                value = ad.concat(tape, chunks, axis=2)
            elif term == "gated":
                pairs = [left_comb(p, [], two_l) for p in _cg_pairs(harmonics, acts, two_l)]
                chunks = taped_diagrams(tape, pairs, [harmonics, gated_dst], {})
                per_edge = ad.concat(tape, chunks, axis=2)
                value = ad.index_add(tape, per_edge, src, n_atoms)
            else:  # fusion
                chunks = taped_diagrams(
                    tape, params.fusion_blocks[two_l].diagrams, fusion_leaves, fusion_memo
                )
                concatenated = ad.concat(tape, chunks, axis=2)
                mixed = ad.channel_mix(
                    tape, concatenated, param_nodes[f"{name}/fusion_mix/{two_l}"]
                )
                value = ad.index_add(tape, mixed, src, n_atoms)
            term_out = ad.channel_mix(tape, value, weights)
            total = term_out if total is None else ad.add(tape, total, term_out)
        if total is None:
            total = tape.constant(np.zeros((n_atoms, dim_l, tau), dtype=complex))
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


@dataclass
class ThreeBodyParams:
    """Parameters of one three-body update layer.

    ``blocks[two_J]`` hold the full diagram collections (slots: 0 = center,
    1 = edge, 2 = neighbor) with the trainable final mixing over the
    concatenated diagram axis; ``edge_embed[two_j]`` map radial channels to
    feature channels per edge spin.
    """

    input_spins: tuple[int, ...]
    j_max: int
    tau: int
    radial_channels: int
    schedule: SpinSchedule = None  # type: ignore[assignment]
    edge_embed: dict[int, np.ndarray] = field(default_factory=dict)
    blocks: dict[int, FusionBlockConfig] = field(default_factory=dict)

    @property
    def output_spins(self) -> tuple[int, ...]:
        return tuple(sorted(self.blocks))


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
    params = ThreeBodyParams(
        input_spins=input_spins,
        j_max=j_max,
        tau=tau,
        radial_channels=radial_channels,
        schedule=schedule,
    )
    for two_j in edge_spins:
        params.edge_embed[two_j] = seeded_uniform(
            (radial_channels, tau), seed, f"{name}/edge_embed/{two_j}"
        )
    for two_J in edge_spins:
        diagrams = [
            _path_diagram(two_J, ks, path)
            for ks in schedule.tuples
            for path in three_body_paths(input_spins, edge_spins, two_J, ks)
        ]
        if not diagrams:
            continue
        mixing = MixingMatrix(
            seeded_uniform((len(diagrams) * tau, tau), seed, f"{name}/mixing/{two_J}")
        )
        params.blocks[two_J] = FusionBlockConfig(
            tuple(diagrams), AggregationKind.SUM, mixing
        )
    return params


def embed_edge(edge: EdgeFeature, params: ThreeBodyParams) -> Activation:
    """Radial-channel edge feature mapped to tau feature channels per spin."""
    return Activation(
        {
            two_j: edge.activation.part(two_j) @ params.edge_embed[two_j]
            for two_j in sorted(params.edge_embed)
        }
    )


def three_body_update(
    center: Activation,
    neighbor_acts: list[Activation],
    edges: list[EdgeFeature],
    params: ThreeBodyParams,
) -> Activation:
    """Plain single-atom three-body update (reference implementation).

    Slots: 0 = center activation, 1 = embedded edge feature, 2 = neighbor
    activation; listed slots aggregate over the index-aligned neighbor list.
    """
    embedded = [embed_edge(edge, params) for edge in edges]
    parts = {}
    for two_J, block in params.blocks.items():
        parts[two_J] = block_apply(block, [center, embedded, neighbor_acts]).data
    return Activation(parts)


def three_body_forward(
    acts: list[Activation],
    pc: PointCloud,
    nbr: Neighborhood,
    feats: dict[tuple[int, int], EdgeFeature],
    params: ThreeBodyParams,
) -> list[Activation]:
    """Plain full-cloud three-body update."""
    out = []
    for o in range(pc.n_atoms):
        neighbors = nbr.neighbors(o)
        out.append(
            three_body_update(
                acts[o],
                [acts[i] for i in neighbors],
                [feats[(o, i)] for i in neighbors],
                params,
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
) -> dict[int, ad.Node]:
    """Vectorized three-body update; mirrors three_body_forward."""
    tau = params.tau
    n_atoms = acts[0].shape[0] if acts else 0
    n_edges = len(src)
    basis_rows = ad.reshape(tape, basis, (n_edges, 1, params.radial_channels))

    edge_feats: dict[int, ad.Node] = {}
    for two_j in sorted(params.edge_embed):
        dim_j = two_j + 1
        harm = ad.reshape(tape, harmonics[two_j], (n_edges, dim_j, 1))
        scaled = ad.mul(tape, harm, basis_rows)
        edge_feats[two_j] = ad.channel_mix(
            tape, scaled, param_nodes[f"{name}/edge_embed/{two_j}"]
        )

    leaves = [
        {two_j: ad.gather(tape, acts[two_j], src) for two_j in acts},
        edge_feats,
        {two_j: ad.gather(tape, acts[two_j], dst) for two_j in acts},
    ]
    memo: dict[tuple, ad.Node] = {}

    out: dict[int, ad.Node] = {}
    for two_J, block in params.blocks.items():
        chunks = taped_diagrams(tape, block.diagrams, leaves, memo)
        concatenated = ad.concat(tape, chunks, axis=2)
        aggregated = ad.index_add(tape, concatenated, src, n_atoms)
        out[two_J] = ad.channel_mix(
            tape, aggregated, param_nodes[f"{name}/mixing/{two_J}"]
        )
    return out
