"""Fusion diagrams: rooted binary trees of Clebsch-Gordan couplings.

A diagram fuses input irreps (the leaves) into one output irrep of spin J
(the root).  Each internal node couples its two children through a CG tensor;
the spin carried away from a node is an internal spin, except at the root
where it is the diagram's output spin.  Contraction is channel-wise: no
mixing across the channel axis ever happens inside a diagram.

Leaves are listed in left-to-right tree order as (slot, 2j) pairs.  The slot
says which input the leaf consumes; the same slot may feed several leaves
(e.g. staged three-body couplings that reuse the same neighbor features), and
repeated slots may carry different spins when the input is a multi-spin
Activation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .cg import cg_tensor
from .errors import ChannelMismatch, RecouplingError, SpinMismatch
from .irreps import Activation, IrrepVector
from .spins import Spin, admissible, allowed_couplings, dim

__all__ = [
    "LeafNode",
    "FuseNode",
    "FusionDiagram",
    "left_comb",
    "validate",
    "enumerate_internal",
    "contract",
    "dense_map",
    "recouple",
    "check_recoupling",
    "diagram_to_json",
    "diagram_from_json",
]


@dataclass(frozen=True)
class LeafNode:
    """Tree leaf referencing one input slot."""

    slot: int


@dataclass(frozen=True)
class FuseNode:
    """Internal node fusing two children into spin ``two_k`` (2k)."""

    left: "TreeNode"
    right: "TreeNode"
    two_k: int


TreeNode = Union[LeafNode, FuseNode]


def _tree_slots(node: TreeNode) -> list[int]:
    """Leaf slots in left-to-right tree order."""
    if isinstance(node, LeafNode):
        return [node.slot]
    return _tree_slots(node.left) + _tree_slots(node.right)


@dataclass(frozen=True)
class FusionDiagram:
    """leaves: (slot, 2j) pairs in left-to-right tree order; root spin 2J.

    Construction checks structure only (the leaves list matches the tree);
    spin admissibility is checked by :func:`validate` so that inadmissible
    diagrams can be built and reported.
    """

    leaves: tuple[tuple[int, int], ...]
    tree: TreeNode
    two_J: int

    def __post_init__(self) -> None:
        if _tree_slots(self.tree) != [slot for slot, _ in self.leaves]:
            raise ValueError("tree leaf order does not match the leaves list")
        if isinstance(self.tree, FuseNode) and self.tree.two_k != self.two_J:
            raise ValueError(
                f"root node spin {self.tree.two_k} != diagram root spin {self.two_J}"
            )

    @property
    def arity(self) -> int:
        """Number of leaves (repeated slots counted once per leaf)."""
        return len(self.leaves)

    @property
    def slots(self) -> tuple[int, ...]:
        """Distinct slots consumed, ascending."""
        return tuple(sorted({slot for slot, _ in self.leaves}))

    def internal_spins(self) -> tuple[int, ...]:
        """Internal-edge spins in post-order (excludes the root edge)."""
        spins: list[int] = []

        def walk(node: TreeNode, is_root: bool) -> None:
            if isinstance(node, LeafNode):
                return
            walk(node.left, False)
            walk(node.right, False)
            if not is_root:
                spins.append(node.two_k)

        walk(self.tree, True)
        return tuple(spins)


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
    node: TreeNode = LeafNode(slots[0])
    for i in range(1, n):
        out = two_J if i == n - 1 else internal_two_ks[i - 1]
        node = FuseNode(node, LeafNode(slots[i]), out)
    leaves = tuple((slots[i], leaf_two_js[i]) for i in range(n))
    return FusionDiagram(leaves, node, two_J)


def validate(d: FusionDiagram) -> list[str]:
    """Empty list when admissible; otherwise one message per violating node."""
    violations: list[str] = []
    leaf_spins = iter(two_j for _, two_j in d.leaves)

    def walk(node: TreeNode, path: str) -> int:
        if isinstance(node, LeafNode):
            return next(leaf_spins)
        a = walk(node.left, path + ".left")
        b = walk(node.right, path + ".right")
        if not admissible(a, b, node.two_k):
            violations.append(
                f"{path}: ({Spin(a)}, {Spin(b)}) cannot fuse to {Spin(node.two_k)} "
                "(triangle/integrality rule)"
            )
        return node.two_k

    walk(d.tree, "root")
    return violations


def _shape_tree(n_leaves: int, tree_shape) -> TreeNode:
    if isinstance(tree_shape, (LeafNode, FuseNode)):
        return tree_shape
    if tree_shape == "left-comb":
        node: TreeNode = LeafNode(0)
        for i in range(1, n_leaves):
            node = FuseNode(node, LeafNode(i), -1)
        return node
    raise ValueError(f"unknown tree shape {tree_shape!r}")


def enumerate_internal(
    leaf_spins: list[int] | tuple[int, ...],
    root: int,
    tree_shape="left-comb",
) -> list[tuple[int, ...]]:
    """All admissible internal-spin assignments, lexicographic in 2k.

    Leaf spins are given per slot; the assignment tuples list internal-edge
    spins in post-order (for the left-comb shape: fuse-by-fuse, left to
    right).  The empty tuple is the unique assignment for two-leaf shapes.
    """
    shape = _shape_tree(len(leaf_spins), tree_shape)

    def options(node: TreeNode, is_root: bool) -> list[tuple[int, tuple[int, ...]]]:
        if isinstance(node, LeafNode):
            return [(leaf_spins[node.slot], ())]
        combos: list[tuple[int, tuple[int, ...]]] = []
        for left_spin, left_asgn in options(node.left, False):
            for right_spin, right_asgn in options(node.right, False):
                for two_c in allowed_couplings(left_spin, right_spin):
                    if is_root:
                        if two_c == root:
                            combos.append((two_c, left_asgn + right_asgn))
                    else:
                        combos.append((two_c, left_asgn + right_asgn + (two_c,)))
        return combos

    assignments = {asgn for _, asgn in options(shape, True)}
    return sorted(assignments)


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
    used = {slot for slot, _ in d.leaves}
    channels = {inputs[slot].channels for slot in used}
    if len(channels) != 1:
        raise ChannelMismatch(f"inputs disagree on channel count: {sorted(channels)}")
    leaf_iter = iter(d.leaves)

    def value(node: TreeNode) -> tuple[int, np.ndarray]:
        if isinstance(node, LeafNode):
            slot, two_j = next(leaf_iter)
            return two_j, _resolve_leaf(inputs[slot], two_j, slot)
        two_a, left_val = value(node.left)
        two_b, right_val = value(node.right)
        coeffs = cg_tensor(two_a, two_b, node.two_k).coeffs
        return node.two_k, np.einsum("abc,at,bt->ct", coeffs, left_val, right_val)

    _, data = value(d.tree)
    return IrrepVector(Spin(d.two_J), data)


def dense_map(d: FusionDiagram) -> np.ndarray:
    """The diagram as one matrix of shape (prod leaf dims) x (2J+1).

    Rows are indexed by the Kronecker product of per-leaf components in
    left-to-right tree order, so ``contract(d, inputs)`` equals
    ``dense_map(d).T @ flatten(kron of leaf inputs)`` channel by channel.
    Columns are orthonormal.
    """
    leaf_iter = iter(d.leaves)

    def build(node: TreeNode) -> tuple[int, np.ndarray]:
        if isinstance(node, LeafNode):
            _, two_j = next(leaf_iter)
            return two_j, np.eye(dim(two_j), dtype=complex)
        two_a, left_map = build(node.left)
        two_b, right_map = build(node.right)
        coupling = cg_tensor(two_a, two_b, node.two_k).as_matrix()
        return node.two_k, np.kron(left_map, right_map) @ coupling

    _, matrix = build(d.tree)
    return matrix


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


def _subtrees(node, leaf_iter, out: set) -> tuple:
    """Add (leaves, subtree) for every ``FuseNode`` under ``node`` to
    ``out``, with ``leaf_iter`` yielding the (slot, 2j) leaves in order;
    returns the leaves under ``node``."""
    if isinstance(node, LeafNode):
        return (next(leaf_iter),)
    leaves = _subtrees(node.left, leaf_iter, out) + _subtrees(node.right, leaf_iter, out)
    out.add((leaves, node))
    return leaves


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
    6j code is needed.  ``check_recoupling`` verifies the result.
    """
    diagrams = tuple(diagrams)
    inner: set[tuple] = set()
    for d in diagrams:
        if len(d.leaves) > 3:
            _subtrees(d.tree, iter(d.leaves), inner)
    moved = {d for d in diagrams if _left_pair(d) and (d.leaves, d.tree) not in inner}
    groups: dict[object, list[FusionDiagram]] = {}
    for d in diagrams:
        if d not in moved:
            groups.setdefault(d, [d])
            continue
        key = (d.leaves, d.two_J)
        if key not in groups:
            (_, two_a), (slot_b, two_b), (slot_c, two_c) = d.leaves
            groups[key] = [
                FusionDiagram(
                    d.leaves,
                    FuseNode(
                        d.tree.left.left,
                        FuseNode(LeafNode(slot_b), LeafNode(slot_c), two_k),
                        d.two_J,
                    ),
                    d.two_J,
                )
                for two_k in allowed_couplings(two_b, two_c)
                if admissible(two_a, two_k, d.two_J)
            ]
    targets = tuple(t for family in groups.values() for t in family)
    row = {t: i for i, t in enumerate(targets)}
    maps: dict[FusionDiagram, np.ndarray] = {}
    overlaps = np.zeros((len(targets), len(diagrams)), dtype=complex)
    for column, d in enumerate(diagrams):
        if d not in moved:
            overlaps[row[d], column] = 1.0
            continue
        for t in groups[(d.leaves, d.two_J)]:
            overlaps[row[t], column] = np.vdot(_dense(t, maps), _dense(d, maps)) / dim(d.two_J)
    _verify(diagrams, targets, overlaps, maps)
    return targets, overlaps.real.copy()


def check_recoupling(diagrams, targets, U: np.ndarray) -> None:
    """Raise ``RecouplingError`` unless U is real and maps the targets'
    dense maps onto the diagrams' (see ``recouple``) to within 1e-12, with
    no weight between diagrams of different leaves."""
    _verify(tuple(diagrams), tuple(targets), np.asarray(U), {})


def _dense(d: FusionDiagram, maps: dict) -> np.ndarray:
    """``dense_map(d)``, memoized in ``maps``."""
    if d not in maps:
        maps[d] = dense_map(d)
    return maps[d]


def _verify(diagrams, targets, U: np.ndarray, maps: dict) -> None:
    if U.shape != (len(targets), len(diagrams)):
        raise RecouplingError(
            f"U has shape {U.shape}; {len(targets)} targets and {len(diagrams)} diagrams need "
            f"({len(targets)}, {len(diagrams)})"
        )
    imaginary = float(np.max(np.abs(U.imag), initial=0.0))
    if imaginary > _RECOUPLING_TOLERANCE:
        raise RecouplingError(f"U has an imaginary part of {imaginary:.3g}")
    for column, d in enumerate(diagrams):
        same, stray = [], 0.0
        for t, w in zip(targets, U[:, column]):
            if (t.leaves, t.two_J) == (d.leaves, d.two_J):
                same.append((t, w))
            else:
                stray = max(stray, abs(w))
        if stray > _RECOUPLING_TOLERANCE:
            raise RecouplingError(f"U weighs diagram {column} with a target of other leaves")
        if [(t, w) for t, w in same if w != 0] == [(d, 1)]:
            continue  # its own target, exactly
        residual = _dense(d, maps) - sum(w * _dense(t, maps) for t, w in same)
        error = float(np.max(np.abs(residual), initial=0.0))
        if error > _RECOUPLING_TOLERANCE:
            raise RecouplingError(
                f"targets reproduce diagram {column} only to {error:.3g} "
                f"(tolerance {_RECOUPLING_TOLERANCE:g})"
            )


def diagram_to_json(d: FusionDiagram) -> str:
    """Serialize to the stable JSON schema."""

    def node_dict(node: TreeNode):
        if isinstance(node, LeafNode):
            return {"slot": node.slot}
        return {"left": node_dict(node.left), "right": node_dict(node.right), "two_k": node.two_k}

    payload = {
        "leaves": [{"slot": slot, "two_j": two_j} for slot, two_j in d.leaves],
        "tree": node_dict(d.tree),
        "two_J": d.two_J,
    }
    return json.dumps(payload, indent=2)


def diagram_from_json(text: str) -> FusionDiagram:
    """Parse the JSON schema; the root node's two_k may be omitted."""
    payload = json.loads(text)
    two_J = int(payload["two_J"])

    def parse(node, is_root: bool) -> TreeNode:
        if "slot" in node and "left" not in node:
            return LeafNode(int(node["slot"]))
        two_k = int(node.get("two_k", two_J)) if is_root else int(node["two_k"])
        return FuseNode(parse(node["left"], False), parse(node["right"], False), two_k)

    leaves = tuple((int(leaf["slot"]), int(leaf["two_j"])) for leaf in payload["leaves"])
    return FusionDiagram(leaves, parse(payload["tree"], True), two_J)
