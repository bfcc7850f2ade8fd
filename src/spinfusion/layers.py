"""Equivariant message-passing layers built from fusion diagrams.

One layer family: a layer is a list of terms, each a collection of fusion
diagrams per output spin mixed to tau channels by its own weight, and the
mixed terms are summed.  The terms:

* ``self``: the center's own part, a one-leaf diagram;
* ``pair``: channel-wise CG products of two center parts;
* ``gated``: the two-body message (g ⊗ (h_b ⊗ Y_a)_l)_l, g an invariant
  gate, summed over neighbors;
* ``fusion``: a fusion block of three-leaf diagrams ((center ⊗ neighbor)_k
  ⊗ Y)_l, summed over neighbors;
* ``three_body``: a fusion block of staged couplings of (center, embedded
  edge, neighbor), summed over neighbors, whose diagrams come from an
  internal-spin schedule, either sparse (one internal spin per coupling)
  or dense (staged ordered tuples of internal spins, every stage pinned to
  the output spin so no reshaping layer is needed).

Each model kind names its term set in ``KIND_TERMS``: gated is self, pair
and gated; fused adds fusion, so zeroing the fusion blocks' mixings
reproduces the gated layer; three_body is three_body alone.

Every diagram reads one slot table: slot 0 is the center atom (N rows),
and per edge (E rows) slot 1 is the neighbor, 2 the edge harmonic, 3 the
gate (a spin-0 leaf) and 4 the embedded edge (Y^j ⊗ R_j)_j, the harmonic
times the spin-0 radial leaf R_j.  Both executors bind the same table.  A
layer binds the gate, and owns its ``gate/*`` weights, only where a
diagram reads slot 3, and the embedded edge, with its ``edge_embed/{2j}``
weights, only where one reads slot 4: a gated layer records no R_j and a
three-body layer no gate.

Each layer is a ``LayerParams``: one ``SpinTable`` per output spin (its
diagram collections, each naming the one weight that mixes it, and their
one lowering), and one weight table, ``weights``, keyed by the parameter's
name within the layer (``gate/w_hidden``, ``vertex/2/pair``, ``mixing/0``,
...), all built once at init by ``init_layer``.  A model lists the weight
tables under the layer's name; that is all it knows of them.

Both executors run the same collections and weights.  The per-atom one
(``layer_forward``), the eager oracle, binds the slots once per atom, its
edges one range of the ``edge_features`` rows, and runs each collection
as built through ``blocks.apply``, its weight the block's mixing matrix.
The taped one (``taped_layer``, through ``taped_collections``),
vectorized over atoms and edges, runs each output spin as lowered at init:
``recouple`` F-moves each three-leaf diagram ((center ⊗ a)_k ⊗ b)_J into
(center ⊗ T)_J, T = (a ⊗ b)_k' (same span, real matrix U), and every
target falls in one of three groups by its tree:

* center-only: every leaf is slot 0, contracted at N rows;
* (center ⊗ T)_J, T over edge slots only: T per edge, summed over each
  atom's edges with ``index_add``, then coupled with the center at N rows;
* everything else (the gated term, the dense schedule's multi-stage chains
  and their three-leaf first stages): per edge, then summed.

The tables are built in the form they run, so ``recouple`` is the only
lowering: the gate is the root's left leaf of each gated diagram, (g ⊗
(h_b ⊗ Y_a)_l)_l, whose (neighbor ⊗ harmonic) pair is the fusion term's T,
and no diagram reads the constant Y^0_0 harmonic; that constant and the
exchange sign are the diagrams' fixed path weights.  Each (neighbor,
harmonic, k) product runs once per edge and layer.

So each edge's contribution is summed over the neighborhood as early as
the tree allows, and the center is gathered to the edges only for a target
of the last group that reads it.  One fixed matrix per spin, path weights
included, maps all its targets onto all its diagrams, so the spin's
collections are mixed by one product.  The taped executor records each
distinct subtree once per layer, and only the output spins its caller asks
for, the spins its consumer reads (spin 0 alone in a model's last layer).
No layer call builds a diagram.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import FusionBlockConfig, apply as block_apply
from .cg import cg_tensor
from .diagrams import FuseNode, FusionDiagram, LeafNode, left_comb, node_spin, recouple
from .errors import EmptySchedule, check_integers
from .features import _Y00
from .geometry import Neighborhood, PointCloud
from .irreps import Activation
from .spins import admissible, format_spin

__all__ = [
    "SpinSchedule",
    "LayerParams",
    "KIND_TERMS",
    "invariant_gate",
    "init_layer",
    "init_interaction_layer",
    "init_three_body_layer",
    "layer_forward",
    "taped_layer",
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
    """Internal-spin selection for three-body couplings, and the one check
    of a schedule.

    ``internal_two_ks`` lists the schedule's distinct internal spins (as 2k),
    non-negative integers; a repeated spin would only add linearly
    dependent copies of the same diagrams, so it is rejected.  Sparse
    mode couples through one internal spin at a time; dense mode evaluates
    ordered tuples: every single spin plus every permutation of the full
    sequence (deduplicated, deterministic order).  Messages name the
    fields as ``ModelConfig`` does, which hands its schedule here.
    """

    mode: str
    internal_two_ks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("sparse", "dense"):
            raise ValueError(f"schedule_mode must be sparse or dense, got {self.mode!r}")
        if not self.internal_two_ks:
            raise EmptySchedule("internal_spins must list at least one spin")
        two_ks = tuple(check_integers(self.internal_two_ks, "internal_spins (as 2k)").tolist())
        if min(two_ks) < 0:
            shown = ", ".join(map(format_spin, two_ks))
            raise ValueError(f"internal_spins must be spins >= 0, got [{shown}]")
        for i, k in enumerate(two_ks):
            if k in two_ks[:i]:
                raise ValueError(f"internal_spins lists spin {format_spin(k)} more than once")
        object.__setattr__(self, "internal_two_ks", two_ks)

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


def invariant_gate(
    center: Activation, neighbor: Activation, basis: np.ndarray, weights: dict[str, np.ndarray]
) -> np.ndarray:
    """Rotation-invariant per-channel gate value for one edge: a two-layer
    perceptron, read from a layer's ``gate/*`` weights, on invariant inputs,
    Re/Im of both spin-0 parts and the edge's radial basis row."""
    c0, n0 = center.part(0)[0], neighbor.part(0)[0]
    x = np.concatenate([c0.real, c0.imag, n0.real, n0.imag, basis])
    hidden = np.tanh(x @ weights["gate/w_hidden"] + weights["gate/b_hidden"])
    return hidden @ weights["gate/w_out"] + weights["gate/b_out"]


def taped_gate(
    tape: ad.Tape,
    acts: dict[int, ad.Node],
    src: np.ndarray,
    neighbor0: ad.Node,
    basis: ad.Node,
    weights: dict[str, ad.Node],
) -> ad.Node:
    """Vectorized gate over all edges -> (E, 1, tau) real node, the
    spin-0 leaf of slot 3.

    ``neighbor0`` is the neighbor's spin-0 part, (E, 1, tau), which the
    layer has already gathered at ``dst``; the center's (N, 1, tau) part is
    gathered at ``src``, and the (E, 1, R) basis joins them as it is.
    """
    center0 = ad.gather(tape, acts[0], src)
    rows = []
    for part in (center0, neighbor0):
        rows.append(ad.real(tape, part))
        rows.append(ad.imag(tape, part))
    x = ad.concat(tape, rows + [basis], axis=2)
    hidden = ad.tanh(
        tape,
        ad.add(tape, ad.channel_mix(tape, x, weights["gate/w_hidden"]), weights["gate/b_hidden"]),
    )
    return ad.add(tape, ad.channel_mix(tape, hidden, weights["gate/w_out"]), weights["gate/b_out"])


# ---------------------------------------------------------------------------
# lowered diagram collections and their two executors
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
    the subtree itself (nodes are tuples, so equal subtrees are one key).
    A subtree shared between diagrams, or between calls that pass the same
    ``memo`` and ``leaves``, is recorded once.  Returns one node per
    diagram, in order.
    """
    return [_emit_diagram(tape, d.tree, leaves, memo) for d in diagrams]


def _emit_diagram(tape, node, leaves, memo) -> ad.Node:
    """The value of one subtree; see ``taped_diagrams``.

    A module-level function rather than a recursive closure, which would be
    a reference cycle holding the tape."""
    if isinstance(node, LeafNode):
        return leaves[node.slot][node.two_j]
    value = memo.get(node)
    if value is None:
        left = _emit_diagram(tape, node.left, leaves, memo)
        right = _emit_diagram(tape, node.right, leaves, memo)
        value = _fuse(tape, node, left, right, memo)
    return value


def _fuse(tape, node: FuseNode, left: ad.Node, right: ad.Node, memo) -> ad.Node:
    """The CG product of ``node``'s operand values into its 2k, recorded in
    ``memo`` under ``node``."""
    # activations are (E|N, 2j+1, tau); edge harmonics are (E, 2j+1)
    left_t, right_t = ("t" if len(n.shape) == 3 else "" for n in (left, right))
    value = memo[node] = ad.einsum3(
        tape,
        cg_tensor(node_spin(node.left), node_spin(node.right), node.two_k).coeffs,
        left,
        right,
        f"abc,ea{left_t},eb{right_t}->ec{left_t or right_t}",
    )
    return value


@dataclass(frozen=True)
class Collection:
    """One diagram collection of a layer, as built: ``weight`` keys the one
    matrix that mixes the diagrams' concatenated outputs to tau channels,
    and ``path_weights``, one per diagram, are fixed factors of its rows
    (see ``_term_diagrams``)."""

    diagrams: tuple[FusionDiagram, ...]
    weight: str
    path_weights: tuple[float, ...]


@dataclass(frozen=True)
class SpinTable:
    """One output spin of a layer: its collections, summed in order, which
    the eager executor runs as built, and one lowering of them all.

    ``diagrams.recouple`` rewrites each collection into targets that the
    taped executor runs, each in one group, decided by its tree:

    * ``center``: every leaf is slot 0; contracted at N rows;
    * ``atom``: (center ⊗ T)_J with T over edge slots only; T runs per edge
      and is summed over each atom's edges, then coupled with the center;
    * ``edge``: every other target; it runs per edge and is then summed.

    Each group lists its targets collection by collection.  ``fixed`` is
    kron(blockdiag_c(U_c diag f_c), I_tau), f_c a collection's path
    weights, its rows the targets in ``center + atom + edge`` order and its
    columns the diagrams in collection order: it maps the targets'
    concatenated outputs onto the diagrams', path weights included.  It
    is ``None`` where it is the identity.
    """

    collections: tuple[Collection, ...]
    center: tuple[FusionDiagram, ...]
    atom: tuple[FusionDiagram, ...]
    edge: tuple[FusionDiagram, ...]
    fixed: np.ndarray | None


def _target_group(target: FusionDiagram) -> int:
    """0 = center-only, 1 = (center ⊗ T)_J with T over edge slots, 2 = other."""
    slots = [leaf.slot for leaf in target.leaves]
    if not any(slots):
        return 0
    tree = target.tree
    center_first = isinstance(tree, FuseNode) and isinstance(tree.left, LeafNode)
    if center_first and slots[0] == 0 and 0 not in slots[1:]:
        return 1
    return 2


def lower_spin(collections, tau: int) -> SpinTable:
    """The ``SpinTable`` of one output spin's collections."""
    collections = tuple(collections)
    ends = np.cumsum([len(c.diagrams) for c in collections])
    groups: tuple[list, list, list] = ([], [], [])  # (target, row of fixed)
    for c, end in zip(collections, ends):
        targets, U = recouple(c.diagrams)
        for target, row in zip(targets, U * np.array(c.path_weights)):
            row = np.pad(row, (end - len(row), ends[-1] - end))
            groups[_target_group(target)].append((target, row))
    fixed = np.array([row for group in groups for _, row in group])
    return SpinTable(
        collections,
        *(tuple(target for target, _ in group) for group in groups),
        None if np.array_equal(fixed, np.eye(ends[-1])) else np.kron(fixed, np.eye(tau)),
    )


def apply_collections(
    tables: dict[int, SpinTable],
    inputs: list,
    weights: dict[str, np.ndarray],
) -> Activation:
    """Eager executor: per output spin, the sum of its collections, each
    run as built through ``blocks.apply`` with its weight, rows scaled by
    its path weights, as the block's mixing.  ``inputs`` binds the layer's
    slots for one atom (see ``blocks.apply``)."""
    parts: dict[int, np.ndarray] = {}
    for two_J, table in tables.items():
        for c in table.collections:
            weight = weights[c.weight]
            rows = np.repeat(c.path_weights, len(weight) // len(c.diagrams))[:, None]
            block = FusionBlockConfig(c.diagrams, mixing=rows * weight)
            value = block_apply(block, inputs).data
            parts[two_J] = value if two_J not in parts else parts[two_J] + value
    return Activation(parts)


def taped_collections(
    tape: ad.Tape,
    tables: dict[int, SpinTable],
    leaves: list[dict[int, ad.Node]],
    src: np.ndarray,
    weights: dict[str, ad.Node],
    output_spins: tuple[int, ...],
) -> dict[int, ad.Node]:
    """Taped executor: each output spin in ``output_spins`` as lowered (see
    ``SpinTable``), its targets mixed by one product.

    ``leaves[slot][two_j]`` are the layer's slots, the same table that the
    eager executor binds: slot 0 the center atom (N rows), the others per
    edge (E rows), ``src`` each edge's atom.  One memo per row count, so
    each distinct subtree is recorded once per layer: the center-only
    targets and the atom stages at N rows, next to each distinct T summed
    over ``src``; the per-edge subtrees at E rows, summed by one
    ``index_add`` per spin.  The center is gathered to the edges only when
    an edge target reads it.  Both memos are keyed by subtree: an atom
    target ``d`` keys its summed T by ``d.tree.right`` and its product by
    ``d.tree``.  The collections' weights are stacked and composed with
    ``fixed`` in weight space, so each spin's concatenated targets are
    mixed by one product.
    """
    center = leaves[0]
    n_atoms = center[0].shape[0]
    wanted = {two_J: table for two_J, table in tables.items() if two_J in output_spins}
    edge_leaves = [None, *leaves[1:]]
    if any(0 in d.slots for table in wanted.values() for d in table.edge):
        edge_leaves[0] = {two_j: ad.gather(tape, node, src) for two_j, node in center.items()}
    atom_memo: dict[tuple, ad.Node] = {}
    edge_memo: dict[tuple, ad.Node] = {}
    out: dict[int, ad.Node] = {}
    for two_J, table in wanted.items():
        chunks = taped_diagrams(tape, table.center, leaves, atom_memo)
        for d in table.atom:
            leaf, t = d.tree.left, d.tree.right
            if t not in atom_memo:  # T has no slot 0, so no center subtree equals it
                summed = _emit_diagram(tape, t, edge_leaves, edge_memo)
                atom_memo[t] = ad.index_add(tape, summed, src, n_atoms)
            if d.tree not in atom_memo:
                _fuse(tape, d.tree, center[leaf.two_j], atom_memo[t], atom_memo)
            chunks.append(atom_memo[d.tree])
        if table.edge:
            per_edge = ad.concat(
                tape, taped_diagrams(tape, table.edge, edge_leaves, edge_memo), axis=2
            )
            chunks.append(ad.index_add(tape, per_edge, src, n_atoms))
        mixing = ad.concat(tape, [weights[c.weight] for c in table.collections], axis=0)
        if table.fixed is not None:
            mixing = ad.channel_mix(tape, tape.constant(table.fixed), mixing)
        out[two_J] = ad.channel_mix(tape, ad.concat(tape, chunks, axis=2), mixing)
    return out


# ---------------------------------------------------------------------------
# layers: terms over one slot table
# ---------------------------------------------------------------------------


# The per-edge slots of every layer's table, as both executors bind them;
# slot 0 is the center atom.
_NEIGHBOR, _HARMONIC, _GATE, _EDGE = 1, 2, 3, 4


@dataclass
class LayerParams:
    """One layer's diagram table and weight table, both built at init.

    ``recoupled[two_J]`` is the ``SpinTable`` of output spin 2J: one
    collection per non-empty term, each with its weight key, in the order
    their mixed outputs are summed, and their one lowering; its keys are
    the layer's output spins.
    ``weights`` maps each parameter's name within the layer
    (``gate/w_hidden``, ``vertex/2/pair``, ``mixing/0``, ...) to its array,
    in checkpoint order; a model lists it under ``{layer name}/{key}``,
    which is also the name the array was seeded under.  The eager oracle
    reads the arrays, the taped layer their nodes (``weight_nodes``).
    """

    tau: int
    recoupled: dict[int, SpinTable] = field(default_factory=dict)
    weights: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def output_spins(self) -> tuple[int, ...]:
        return tuple(sorted(self.recoupled))

    @property
    def slots(self) -> frozenset[int]:
        """The slots that the layer's diagrams read."""
        return frozenset(
            slot
            for table in self.recoupled.values()
            for c in table.collections
            for d in c.diagrams
            for slot in d.slots
        )

    def add_seeded(self, key: str, shape: tuple[int, int], seed: int, name: str) -> None:
        """Add weight ``key`` of the layer called ``name``, ``seeded_uniform``."""
        self.weights[key] = seeded_uniform(shape, seed, f"{name}/{key}")

    def weight_nodes(self, param_nodes: dict[str, ad.Node], name: str) -> dict[str, ad.Node]:
        """The table's nodes among a model's, keyed as in ``weights``."""
        return {key: param_nodes[f"{name}/{key}"] for key in self.weights}


def three_body_paths(input_spins, edge_spins, two_J: int, ks: tuple[int, ...]):
    """All admissible leaf-spin paths for one coupling tuple, in
    lexicographic order.

    A path lists one (carried, edge, neighbor) spin triple per stage, the
    stage coupling (carried ⊗ edge)_k, then (k ⊗ neighbor)_J.  The first
    stage carries a center-activation spin, every later one the output spin
    J.
    """
    input_spins, edge_spins = sorted(input_spins), sorted(edge_spins)
    stages = [
        [
            (two_jo, two_je, two_ji)
            for two_jo in (input_spins if t == 0 else [two_J])
            for two_je in edge_spins
            if admissible(two_jo, two_je, two_k)
            for two_ji in input_spins
            if admissible(two_k, two_ji, two_J)
        ]
        for t, two_k in enumerate(ks)
    ]
    return list(itertools.product(*stages))


def _path_diagram(two_J: int, ks: tuple[int, ...], path) -> FusionDiagram:
    """Unroll a staged coupling into one diagram over slots (0, 4, 1):
    center, then per stage the embedded edge and the neighbor."""
    node = LeafNode(0, path[0][0])
    for two_k, (_, two_je, two_ji) in zip(ks, path):
        edge, neighbor = LeafNode(_EDGE, two_je), LeafNode(_NEIGHBOR, two_ji)
        node = FuseNode(FuseNode(node, edge, two_k), neighbor, two_J)
    return FusionDiagram(node)


def _term_diagrams(terms, input_spins, edge_spins, two_l: int, schedule=None):
    """The non-empty collections of ``terms`` at one output spin, in order.

    The pair and gated terms list their (2ja, 2jb) spins lexicographically:
    the pair term couples two center parts, the gated one the spin-0 gate g
    with the neighbor-harmonic pair, (g ⊗ (h_b ⊗ Y_a)_l)_l.  The fusion
    term couples (center, neighbor) through k, then (k, edge harmonic) into
    the output spin, lexicographic in (2ji, 2jj, 2k, 2jy).  No diagram has
    a Y^0_0 leaf, a constant: where a = 0 or y = 0 the diagram is the
    two-leaf (g ⊗ h_b)_l or (h_i ⊗ h_j)_l.  The three_body term unrolls
    each coupling tuple of ``schedule`` along each of its paths
    (``three_body_paths``).

    Each term is (diagrams, path weights): a diagram's path weight is the
    fixed factor that makes it the harmonic-first diagram it stands for,
    (Y_a ⊗ (h_b ⊗ g)_b)_l or ((h_i ⊗ h_j)_k ⊗ Y_y)_l.  That is Y^0_0 where
    a = 0 or y = 0 (a spin-0 CG vertex is the identity), the exchange sign
    (-1)^(ja+jb-l) of (Y_a ⊗ h_b)_l = ± (h_b ⊗ Y_a)_l for the other gated
    diagrams, and 1 for the rest.
    """

    def gated(two_ja, two_jb):
        if two_ja == 0:
            return left_comb([0, two_jb], [], two_l, slots=[_GATE, _NEIGHBOR]), _Y00
        pair = FuseNode(LeafNode(_NEIGHBOR, two_jb), LeafNode(_HARMONIC, two_ja), two_l)
        sign = -1.0 if (two_ja + two_jb - two_l) // 2 % 2 else 1.0
        return FusionDiagram(FuseNode(LeafNode(_GATE, 0), pair, two_l)), sign

    def fusion(two_ji, two_jj, two_k, two_jy):
        if two_jy == 0:  # then k = l
            return left_comb([two_ji, two_jj], [], two_l, slots=[0, _NEIGHBOR]), _Y00
        spins = [two_ji, two_jj, two_jy]
        return left_comb(spins, [two_k], two_l, slots=[0, _NEIGHBOR, _HARMONIC]), 1.0

    paths = {
        "self": lambda: (
            ((FusionDiagram(LeafNode(0, two_l)), 1.0),)
            if two_l in input_spins
            else ()
        ),
        "pair": lambda: (
            (left_comb([two_ja, two_jb], [], two_l, slots=[0, 0]), 1.0)
            for two_ja in input_spins
            for two_jb in input_spins
            if admissible(two_ja, two_jb, two_l)
        ),
        "gated": lambda: (
            gated(two_ja, two_jb)
            for two_ja in edge_spins
            for two_jb in input_spins
            if admissible(two_ja, two_jb, two_l)
        ),
        "fusion": lambda: (
            fusion(two_ji, two_jj, two_k, two_jy)
            for two_ji in input_spins
            for two_jj in input_spins
            for two_k in range(abs(two_ji - two_jj), two_ji + two_jj + 2, 2)
            for two_jy in edge_spins
            if admissible(two_k, two_jy, two_l)
        ),
        "three_body": lambda: (
            (_path_diagram(two_l, ks, path), 1.0)
            for ks in schedule.tuples
            for path in three_body_paths(input_spins, edge_spins, two_l, ks)
        ),
    }
    collections = {term: tuple(zip(*paths[term]())) for term in terms}
    return {term: c for term, c in collections.items() if c}


# each model kind's term set, in the order the mixed terms are summed
KIND_TERMS = {
    "gated": ("self", "pair", "gated"),
    "fused": ("self", "pair", "gated", "fusion"),
    "three_body": ("three_body",),
}


def _weight_key(term: str, two_l: int) -> str:
    """The key of the weight that mixes one term's collection at spin 2l."""
    return {"fusion": f"fusion_mix/{two_l}", "three_body": f"mixing/{two_l}"}.get(
        term, f"vertex/{two_l}/{term}"
    )


def init_layer(
    input_spins,
    terms,
    j_max: int,
    tau: int,
    radial_channels: int,
    seed: int,
    name: str,
    hidden: int | None = None,
    schedule: SpinSchedule | None = None,
) -> LayerParams:
    """A layer of ``terms`` (``self``, ``pair``, ``gated``, ``fusion``,
    ``three_body``) at every output spin up to ``j_max`` that one of them
    reaches.  ``hidden`` sizes the gate, ``schedule`` the three_body term.

    The weights come in checkpoint order: first those of the slots the
    diagrams read, ``gate/*`` (``invariant_gate``) for slot 3 and
    ``edge_embed/{2j}`` (``embed_edge``) for slot 4, then each output
    spin's term weights, each mixing its collection to tau channels:
    ``vertex/{2l}/{term}``, ``fusion_mix/{2l}`` or ``mixing/{2l}``.
    """
    input_spins = tuple(sorted(input_spins))
    edge_spins = tuple(2 * j for j in range(j_max + 1))
    params = LayerParams(tau=tau)
    for two_l in edge_spins:
        collections = [
            Collection(diagrams, _weight_key(term, two_l), path_weights)
            for term, (diagrams, path_weights) in _term_diagrams(
                terms, input_spins, edge_spins, two_l, schedule
            ).items()
        ]
        if collections:
            params.recoupled[two_l] = lower_spin(collections, tau)
    if _GATE in params.slots:
        params.add_seeded("gate/w_hidden", (4 * tau + radial_channels, hidden), seed, name)
        params.weights["gate/b_hidden"] = np.zeros(hidden)
        params.add_seeded("gate/w_out", (hidden, tau), seed, name)
        params.weights["gate/b_out"] = np.zeros(tau)
    if _EDGE in params.slots:
        for two_j in edge_spins:
            params.add_seeded(f"edge_embed/{two_j}", (radial_channels, tau), seed, name)
    for table in params.recoupled.values():
        for c in table.collections:
            params.add_seeded(c.weight, (len(c.diagrams) * tau, tau), seed, name)
    return params


# read by tests/test_acceptance.py, criterion 4
def init_interaction_layer(
    input_spins,
    j_max: int,
    tau: int,
    radial_channels: int,
    hidden: int,
    fused: bool,
    seed: int,
    name: str,
) -> LayerParams:
    """A gated layer or, if ``fused``, a fused one (``KIND_TERMS``)."""
    terms = KIND_TERMS["fused" if fused else "gated"]
    return init_layer(input_spins, terms, j_max, tau, radial_channels, seed, name, hidden=hidden)


# read by tests/test_acceptance.py, criterion 4
def init_three_body_layer(
    input_spins,
    j_max: int,
    tau: int,
    radial_channels: int,
    schedule: SpinSchedule,
    seed: int,
    name: str,
) -> LayerParams:
    """A three-body layer (``KIND_TERMS``) over ``schedule``."""
    return init_layer(
        input_spins, KIND_TERMS["three_body"], j_max, tau, radial_channels, seed, name,
        schedule=schedule,
    )


def embed_edge(
    harmonics: dict[int, np.ndarray], basis: np.ndarray, params: LayerParams
) -> Activation:
    """The embedded edge, slot 4, of one edge, from its harmonic rows (2j ->
    (2j+1,)) and its radial basis row: per spin j, Y^j (at j = 0 the
    constant Y^0_0) times the spin-0 radial weight R_j = basis @
    ``edge_embed/{2j}``, one per feature channel."""
    return Activation(
        {
            two_j: harmonic[:, None] * (basis @ params.weights[f"edge_embed/{two_j}"])
            for two_j, harmonic in [(0, np.array([_Y00])), *harmonics.items()]
        }
    )


def taped_embed_edge(
    tape: ad.Tape, harmonics: dict[int, ad.Node], basis: ad.Node, weights: dict[str, ad.Node]
) -> dict[int, ad.Node]:
    """Slot 4 on the tape, per edge spin (Y^j ⊗ R_j)_j: the (E, 2j+1)
    harmonic times its (E, 1, tau) spin-0 radial leaf R_j (one ``einsum3``
    whose identity CG block leaves it an elementwise product), and at spin
    0 R_0 scaled by the constant Y^0_0."""
    radial = {
        two_j: ad.channel_mix(tape, basis, weights[f"edge_embed/{two_j}"])
        for two_j in [0, *harmonics]
    }
    edge = {0: ad.scale(tape, radial[0], complex(_Y00))}
    for two_j, harm in harmonics.items():
        edge[two_j] = ad.einsum3(
            tape, cg_tensor(two_j, 0, two_j).coeffs, harm, radial[two_j], "abc,ea,ebt->ect"
        )
    return edge


def layer_forward(
    acts: list[Activation],
    pc: PointCloud,
    nbr: Neighborhood,
    feats: tuple[dict[int, np.ndarray], np.ndarray],
    params: LayerParams,
) -> list[Activation]:
    """Plain per-atom layer (reference implementation).

    ``feats`` is ``edge_features``' (harmonics, basis), one row per edge of
    ``nbr``; the edges are ordered by atom, so each atom's are one range of
    rows, their neighbors read from ``nbr.dst``.  Binds the slot table for
    each atom, the per-edge slots listed over its edges (the gate and the
    embedded edge only where a diagram reads them), and runs every term
    through ``apply_collections``.
    """
    harmonics, basis = feats
    bounds = np.searchsorted(nbr.src, np.arange(pc.n_atoms + 1))
    reads = params.slots
    out: list[Activation] = []
    for o in range(pc.n_atoms):
        center, edges = acts[o], range(bounds[o], bounds[o + 1])
        neighbors = [acts[i] for i in nbr.dst[edges]]
        rows = [{two_j: h[e] for two_j, h in harmonics.items()} for e in edges]
        inputs = [
            center,
            neighbors,
            [
                Activation({two_j: np.tile(y[:, None], params.tau) for two_j, y in row.items()})
                for row in rows
            ],
            [
                Activation({0: invariant_gate(center, neighbor, basis[e], params.weights)[None]})
                for neighbor, e in zip(neighbors, edges)
            ]
            if _GATE in reads
            else None,
            [embed_edge(row, basis[e], params) for row, e in zip(rows, edges)]
            if _EDGE in reads
            else None,
        ]
        out.append(apply_collections(params.recoupled, inputs, params.weights))
    return out


def taped_layer(
    tape: ad.Tape,
    acts: dict[int, ad.Node],
    src: np.ndarray,
    dst: np.ndarray,
    harmonics: dict[int, ad.Node],
    basis: ad.Node,
    params: LayerParams,
    param_nodes: dict[str, ad.Node],
    name: str,
    output_spins: tuple[int, ...],
) -> dict[int, ad.Node]:
    """Vectorized layer on the tape; mirrors ``layer_forward``.

    Records the embedded edge where a diagram reads slot 4, the neighbor
    gather, and the gate where a diagram reads slot 3, then runs the
    layer's collections through ``taped_collections`` at the spins in
    ``output_spins``.
    """
    weights = params.weight_nodes(param_nodes, name)
    reads = params.slots
    edge = taped_embed_edge(tape, harmonics, basis, weights) if _EDGE in reads else None
    neighbor = {two_j: ad.gather(tape, node, dst) for two_j, node in acts.items()}
    gate = {0: taped_gate(tape, acts, src, neighbor[0], basis, weights)} if _GATE in reads else None
    slots = [acts, neighbor, harmonics, gate, edge]
    return taped_collections(tape, params.recoupled, slots, src, weights, output_spins)


# read by tests/test_acceptance.py, criterion 4
interaction_layer = layer_forward
# read by tests/test_acceptance.py, criterion 4
three_body_forward = layer_forward
# read by perfbench/spans.py, LAYERS
taped_interaction_layer = taped_layer
# read by perfbench/spans.py, LAYERS
taped_three_body_layer = taped_layer
