"""Fusion diagrams: rooted binary trees of Clebsch-Gordan couplings.

A diagram is its tree.  It fuses input irreps (the leaves) into one output
irrep of spin J (the root).  Each internal node couples its two children
through a CG tensor; the spin carried away from a node is an internal spin,
except at the root where it is the diagram's output spin.  Contraction is
channel-wise: no mixing across the channel axis ever happens inside a
diagram.

Each leaf carries (slot, 2j): the slot says which input the leaf consumes,
2j which spin of it.  The same slot may feed several leaves (e.g. staged
three-body couplings that reuse the same neighbor features), and repeated
slots may carry different spins when the input is a multi-spin Activation.
Nodes are tuples, so equal subtrees hash and compare equal.

A collection of diagrams may be lowered to other diagrams (targets) and a
real matrix U that maps the targets' outputs onto the collection's:
``recouple`` does it by F-moves, and ``check_lowering`` checks the
lowering against the diagrams' dense maps.  Every leaf is an input: a
constant factor of a diagram belongs to the weight that mixes it, not to
a leaf.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .cg import cg_tensor
from .errors import (
    ChannelMismatch, RecouplingError, SpinMismatch, check_json, check_json_number, json_field
)
from .irreps import Activation, IrrepVector
from .spins import Spin, admissible, allowed_couplings, dim

__all__ = [
    "LeafNode",
    "FuseNode",
    "FusionDiagram",
    "node_spin",
    "left_comb",
    "validate",
    "enumerate_internal",
    "contract",
    "dense_map",
    "recouple",
    "check_lowering",
    "diagram_to_json",
    "diagram_from_json",
]


class LeafNode(NamedTuple):
    """Tree leaf: input ``slot`` read at spin ``two_j`` (2j)."""

    slot: int
    two_j: int


class FuseNode(NamedTuple):
    """Internal node fusing two children into spin ``two_k`` (2k)."""

    left: "TreeNode"
    right: "TreeNode"
    two_k: int


TreeNode = Union[LeafNode, FuseNode]


def node_spin(node: TreeNode) -> int:
    """The spin a node carries, as 2j: a leaf's 2j or a fuse node's 2k."""
    return node[-1]


def _leaves(node: TreeNode) -> tuple[LeafNode, ...]:
    if isinstance(node, LeafNode):
        return (node,)
    return _leaves(node.left) + _leaves(node.right)


@dataclass(frozen=True)
class FusionDiagram:
    """A diagram is its tree, whose leaves carry (slot, 2j); everything
    else is read off the tree.

    Spin admissibility is checked by :func:`validate`, not on construction,
    so that inadmissible diagrams can be built and reported.
    """

    tree: TreeNode

    @cached_property
    def leaves(self) -> tuple[LeafNode, ...]:
        """The (slot, 2j) leaves in left-to-right tree order."""
        return _leaves(self.tree)

    @property
    def two_J(self) -> int:
        """The root spin 2J."""
        return node_spin(self.tree)

    @property
    def arity(self) -> int:
        """Number of leaves (repeated slots counted once per leaf)."""
        return len(self.leaves)

    @cached_property
    def slots(self) -> tuple[int, ...]:
        """Distinct slots consumed, ascending."""
        return tuple(sorted({leaf.slot for leaf in self.leaves}))


def left_comb(
    leaf_two_js: list[int] | tuple[int, ...],
    internal_two_ks: list[int] | tuple[int, ...],
    two_J: int,
    slots: list[int] | None = None,
) -> FusionDiagram:
    """Left-comb diagram: ((leaf0 leaf1)k1 leaf2)k2 ... root J.

    ``internal_two_ks`` has length n-2 for n leaves (empty for two leaves).
    """
    n = len(leaf_two_js)
    if n < 2:
        raise ValueError("a fusion diagram needs at least two leaves")
    if len(internal_two_ks) != n - 2:
        raise ValueError(f"{n} leaves need {n - 2} internal spins, got {len(internal_two_ks)}")
    slots = list(range(n)) if slots is None else list(slots)
    node: TreeNode = LeafNode(slots[0], leaf_two_js[0])
    for i in range(1, n):
        out = two_J if i == n - 1 else internal_two_ks[i - 1]
        node = FuseNode(node, LeafNode(slots[i], leaf_two_js[i]), out)
    return FusionDiagram(node)


def validate(d: FusionDiagram) -> list[str]:
    """Empty list when admissible; otherwise one message per violating node."""
    violations: list[str] = []

    def walk(node: TreeNode, path: str) -> None:
        if isinstance(node, LeafNode):
            return
        walk(node.left, path + ".left")
        walk(node.right, path + ".right")
        a, b = node_spin(node.left), node_spin(node.right)
        if not admissible(a, b, node.two_k):
            violations.append(
                f"{path}: ({Spin(a)}, {Spin(b)}) cannot fuse to {Spin(node.two_k)} "
                "(triangle/integrality rule)"
            )

    walk(d.tree, "root")
    return violations


def enumerate_internal(
    leaf_spins: list[int] | tuple[int, ...], root: int
) -> list[tuple[int, ...]]:
    """All admissible internal-spin assignments of the left comb, lexicographic
    in 2k.

    Leaf spins are given per slot; the assignment tuples list internal-edge
    spins fuse-by-fuse, left to right.  The empty tuple is the unique
    assignment for two leaves.
    """
    # (spin fused so far, internal spins so far), one fuse at a time
    partial = [(leaf_spins[0], ())]
    last = len(leaf_spins) - 1
    for i in range(1, len(leaf_spins)):
        partial = [
            (two_c, assignment if i == last else assignment + (two_c,))
            for two_a, assignment in partial
            for two_c in allowed_couplings(two_a, leaf_spins[i])
            if i < last or two_c == root
        ]
    return sorted({assignment for _, assignment in partial})


def _resolve_leaf(entry, two_j: int, slot: int) -> np.ndarray:
    """Pick the spin-``two_j`` data out of a per-slot input."""
    if isinstance(entry, Activation):
        if two_j not in entry:
            raise SpinMismatch(
                f"slot {slot}: activation lacks the spin-{Spin(two_j)} part"
            )
        return entry.part(two_j)
    if isinstance(entry, IrrepVector):
        if entry.spin.twice_j != two_j:
            raise SpinMismatch(f"slot {slot} expects spin {Spin(two_j)}, got {entry.spin}")
        return entry.data
    raise TypeError(f"slot {slot}: expected IrrepVector or Activation, got {type(entry)!r}")


def contract(d: FusionDiagram, inputs) -> IrrepVector:
    """Channel-wise contraction of the diagram against per-slot inputs.

    ``inputs`` holds one IrrepVector (or multi-spin Activation) per slot
    index.  All inputs must share a channel count; the output is an
    IrrepVector of the root spin with the same channel count.
    """
    channels = {inputs[slot].channels for slot in d.slots}
    if len(channels) != 1:
        raise ChannelMismatch(f"inputs disagree on channel count: {sorted(channels)}")

    def value(node: TreeNode) -> np.ndarray:
        if isinstance(node, LeafNode):
            return _resolve_leaf(inputs[node.slot], node.two_j, node.slot)
        left, right = value(node.left), value(node.right)
        coeffs = cg_tensor(node_spin(node.left), node_spin(node.right), node.two_k).coeffs
        return np.einsum("abc,at,bt->ct", coeffs, left, right)

    return IrrepVector(Spin(d.two_J), value(d.tree))


def dense_map(d: FusionDiagram) -> np.ndarray:
    """The diagram as one matrix of shape (prod leaf dims) x (2J+1).

    Rows are indexed by the Kronecker product of per-leaf components in
    left-to-right tree order, so ``contract(d, inputs)`` equals
    ``dense_map(d).T @ flatten(kron of leaf inputs)`` channel by channel.
    Columns are orthonormal.
    """

    def build(node: TreeNode) -> np.ndarray:
        if isinstance(node, LeafNode):
            return np.eye(dim(node.two_j), dtype=complex)
        left_map, right_map = build(node.left), build(node.right)
        coupling = cg_tensor(node_spin(node.left), node_spin(node.right), node.two_k).as_matrix()
        # np.kron(left_map, right_map), as one broadcast product
        rows = left_map.shape[0] * right_map.shape[0]
        product = left_map[:, None, :, None] * right_map[None, :, None, :]
        return product.reshape(rows, coupling.shape[0]) @ coupling

    return build(d.tree)


# bound on U's imaginary part, cross-leaf weights and reconstruction residual
_RECOUPLING_TOLERANCE = 1e-12


def _left_pair(d: FusionDiagram) -> bool:
    """True for the three-leaf shape ((a b)_k c)_J."""
    tree = d.tree
    return (
        isinstance(tree, FuseNode)
        and isinstance(tree.left, FuseNode)
        and isinstance(tree.left.left, LeafNode)
        and isinstance(tree.left.right, LeafNode)
        and isinstance(tree.right, LeafNode)
    )


def _subtrees(node: TreeNode, out: set) -> None:
    """Add every ``FuseNode`` under ``node``, ``node`` included, to ``out``."""
    if isinstance(node, FuseNode):
        out.add(node)
        _subtrees(node.left, out)
        _subtrees(node.right, out)


def recouple(diagrams) -> tuple[tuple[FusionDiagram, ...], np.ndarray]:
    """F-move each three-leaf diagram ((a b)_k c)_J into (a (b c)_k')_J.

    Returns ``(targets, U)`` with ``dense_map(d) == sum_t U[t, d] *
    dense_map(targets[t])`` for every input diagram ``d``, so contracting
    the targets and mixing their outputs with ``U`` reproduces the inputs'
    outputs.  The targets of one (leaves, J) are the complete family over
    k', ascending, listed once, in order of the leaves' first appearance;
    they span the space the inputs' family spans, whatever k the inputs
    use.  Any other diagram (fewer or more leaves, another tree shape) is
    its own target with weight 1, and so is a three-leaf diagram that is a
    subtree of a longer diagram in the collection (the first stage of a
    multi-stage chain): contracting the longer one records it anyway, so
    as built it costs nothing, where its targets would.

    ``U[t, d] = Re <dense_map(t), dense_map(d)> / (2J+1)``, nonzero only
    between diagrams with the same leaves: each dense map has orthonormal
    columns, and by Schur's lemma the overlap of two of them is a multiple
    of the identity (a 6j symbol times dimension factors), so no closed-form
    6j code is needed.  ``check_lowering`` verifies the result.
    """
    diagrams = tuple(diagrams)
    inner: set[FuseNode] = set()
    for d in diagrams:
        if len(d.leaves) > 3:
            _subtrees(d.tree, inner)
    moved = {d for d in diagrams if _left_pair(d) and d.tree not in inner}
    groups: dict[object, list[FusionDiagram]] = {}
    for d in diagrams:
        if d not in moved:
            groups.setdefault(d, [d])
            continue
        key = (d.leaves, d.two_J)
        if key not in groups:
            a, b, c = d.leaves
            groups[key] = [
                FusionDiagram(FuseNode(a, FuseNode(b, c, two_k), d.two_J))
                for two_k in allowed_couplings(b.two_j, c.two_j)
                if admissible(a.two_j, two_k, d.two_J)
            ]
    targets = tuple(t for family in groups.values() for t in family)
    row = {t: i for i, t in enumerate(targets)}
    overlaps = np.zeros((len(targets), len(diagrams)), dtype=complex)
    for column, d in enumerate(diagrams):
        if d not in moved:
            overlaps[row[d], column] = 1.0
            continue
        for t in groups[(d.leaves, d.two_J)]:
            overlaps[row[t], column] = np.vdot(_dense(t), _dense(d)) / dim(d.two_J)
    check_lowering(diagrams, targets, overlaps)
    return targets, overlaps.real.copy()


def check_lowering(diagrams, targets, U: np.ndarray) -> None:
    """Raise ``RecouplingError`` unless U is real and ``sum_t U[t, d] *
    dense_map(t) == dense_map(d)`` to within 1e-12 for every diagram d,
    where t runs over the targets with d's leaves and root spin, and U
    gives no weight to any other target."""
    diagrams, targets, U = tuple(diagrams), tuple(targets), np.asarray(U)
    if U.shape != (len(targets), len(diagrams)):
        raise RecouplingError(
            f"U has shape {U.shape}; {len(targets)} targets and {len(diagrams)} diagrams need "
            f"({len(targets)}, {len(diagrams)})"
        )
    imaginary = float(np.max(np.abs(U.imag), initial=0.0))
    if imaginary > _RECOUPLING_TOLERANCE:
        raise RecouplingError(f"U has an imaginary part of {imaginary:.3g}")
    for column, d in enumerate(diagrams):
        weights = [(targets[row], w.real) for row, w in enumerate(U[:, column]) if w != 0]
        if weights == [(d, 1)]:
            continue  # its own target, exactly
        want, got, stray = _dense(d), 0.0, 0.0
        for t, w in weights:
            if (t.leaves, t.two_J) == (d.leaves, d.two_J):
                got = got + w * _dense(t)
            else:
                stray = max(stray, abs(w))
        if stray > _RECOUPLING_TOLERANCE:
            raise RecouplingError(f"U weighs diagram {column} with a target of other inputs")
        error = float(np.max(np.abs(want - got), initial=0.0))
        if error > _RECOUPLING_TOLERANCE:
            raise RecouplingError(
                f"targets reproduce diagram {column} only to {error:.3g} "
                f"(tolerance {_RECOUPLING_TOLERANCE:g})"
            )


# dense maps of the diagrams recoupled or checked so far, read-only
_dense_maps: dict[FusionDiagram, np.ndarray] = {}


def _dense(d: FusionDiagram) -> np.ndarray:
    """``dense_map(d)``, memoized for the process (``recouple`` and the
    checks read the same maps, and layers share diagrams)."""
    matrix = _dense_maps.get(d)
    if matrix is None:
        matrix = dense_map(d)
        matrix.setflags(write=False)
        matrix = _dense_maps.setdefault(d, matrix)
    return matrix


def diagram_to_json(d: FusionDiagram) -> str:
    """Serialize to the stable JSON schema."""

    def node_dict(node: TreeNode):
        if isinstance(node, LeafNode):
            return {"slot": node.slot}
        return {"left": node_dict(node.left), "right": node_dict(node.right), "two_k": node.two_k}

    payload = {
        "leaves": [{"slot": leaf.slot, "two_j": leaf.two_j} for leaf in d.leaves],
        "tree": node_dict(d.tree),
        "two_J": d.two_J,
    }
    return json.dumps(payload, indent=2)


def diagram_from_json(text: str) -> FusionDiagram:
    """Parse the JSON schema; the root node's two_k may be omitted.  The
    one place that pairs the file's ``leaves`` list (each leaf's 2j) with
    its tree's leaves: slots agree in order, and the root spin is two_J."""
    payload = check_json(json.loads(text), dict, "a diagram")

    def integer_field(node, key: str, what: str) -> int:
        return check_json_number(json_field(node, key, what), key, integer=True)

    two_J = integer_field(payload, "two_J", "a diagram")

    def parse_leaf(leaf) -> LeafNode:
        leaf = check_json(leaf, dict, "a leaf")
        return LeafNode(*(integer_field(leaf, key, "a leaf") for key in ("slot", "two_j")))

    leaves = check_json(json_field(payload, "leaves", "a diagram"), list, "leaves")
    leaves = tuple(map(parse_leaf, leaves))
    listed = iter(leaves)

    def parse(node, is_root: bool) -> TreeNode:
        if "slot" in check_json(node, dict, "a tree node") and "left" not in node:
            slot = integer_field(node, "slot", "a tree node")
            leaf = next(listed, None)
            # an unpaired leaf has no spin; the check below reports it
            return leaf if leaf is not None and leaf.slot == slot else LeafNode(slot, None)
        if is_root and "two_k" not in node:
            two_k = two_J
        else:
            two_k = integer_field(node, "two_k", "a tree node")
        left, right = (json_field(node, key, "a tree node") for key in ("left", "right"))
        return FuseNode(parse(left, False), parse(right, False), two_k)

    diagram = FusionDiagram(parse(json_field(payload, "tree", "a diagram"), True))
    if diagram.leaves != leaves:
        raise ValueError("tree leaf order does not match the leaves list")
    if diagram.two_J != two_J:
        raise ValueError(f"root node spin {diagram.two_J} != diagram root spin {two_J}")
    return diagram
