"""Minimal tape-based reverse-mode differentiation.

A :class:`Tape` records every operation of one forward evaluation as a
:class:`Node`.  ``backward`` seeds a real scalar node and accumulates
vector-Jacobian products in strictly decreasing node-id order.  The adjoint
arithmetic is itself recorded on the same tape, so an adjoint (for example a
force, the negative position gradient of an energy) is an ordinary node and
can appear in a later loss whose own backward pass then reaches the
parameters.  This works because every VJP closure is composed of registered
primitives only.

Complex data follows the conjugate (Wirtinger) cotangent convention: the
adjoint of a complex node is w = dL/dRe + i dL/dIm.  Linear maps pull
cotangents back through the conjugated matrix, bilinear products conjugate
the other factor, and real parameters receive Re(x^H w), so real-parameter
gradients come out real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonScalarSeed

__all__ = ["Tape", "Node", "backward", "gradcheck", "GradCheckReport", "PRIMITIVES"]


class Node:
    """One recorded value: array, parent links, and VJP closures."""

    __slots__ = ("value", "parents", "id", "tape")

    def __init__(self, value, parents, node_id, tape):
        self.value = value
        self.parents = parents  # tuple of (Node, vjp: cotangent Node -> Node)
        self.id = node_id
        self.tape = tape

    @property
    def shape(self):
        return np.shape(self.value)


class Tape:
    """Ordered node list for one forward (plus backward) evaluation."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def _emit(self, value, parents) -> Node:
        node = Node(value, tuple(parents), len(self.nodes), self)
        self.nodes.append(node)
        return node

    def constant(self, value) -> Node:
        """Leaf that never receives an adjoint (weights frozen, references)."""
        return self._emit(np.asarray(value), ())

    def variable(self, value) -> Node:
        """Leaf that participates in differentiation."""
        return self._emit(np.asarray(value), ())


# Every primitive by name, so tools can enumerate (and wrap) them.
PRIMITIVES: dict[str, Callable] = {}


def _primitive(name: str):
    def wrap(fn):
        PRIMITIVES[name] = fn
        fn.__primitive_name__ = name
        return fn

    return wrap


def _as_node(tape: Tape, x) -> Node:
    return x if isinstance(x, Node) else tape.constant(x)


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------


@_primitive("add")
def add(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)
    value = x.value + y.value
    return tape._emit(
        value,
        (
            (x, lambda w: reduce_to_shape(tape, w, x.shape)),
            (y, lambda w: reduce_to_shape(tape, w, y.shape)),
        ),
    )


@_primitive("sub")
def sub(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)
    value = x.value - y.value
    return tape._emit(
        value,
        (
            (x, lambda w: reduce_to_shape(tape, w, x.shape)),
            (y, lambda w: scale(tape, reduce_to_shape(tape, w, y.shape), -1.0)),
        ),
    )


@_primitive("mul")
def mul(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)
    value = x.value * y.value
    return tape._emit(
        value,
        (
            (x, lambda w: reduce_to_shape(tape, mul(tape, w, conj(tape, y)), x.shape)),
            (y, lambda w: reduce_to_shape(tape, mul(tape, w, conj(tape, x)), y.shape)),
        ),
    )


@_primitive("div")
def div(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)
    value = x.value / y.value
    out = tape._emit(value, ())

    def vjp_x(w):
        return reduce_to_shape(tape, div(tape, w, conj(tape, y)), x.shape)

    def vjp_y(w):
        # d(x/y)/dy = -x/y^2 = -out/y
        ratio = div(tape, out, y)
        return reduce_to_shape(
            tape, scale(tape, mul(tape, w, conj(tape, ratio)), -1.0), y.shape
        )

    out.parents = ((x, vjp_x), (y, vjp_y))
    return out


@_primitive("scale")
def scale(tape: Tape, x: Node, factor) -> Node:
    x = _as_node(tape, x)
    return tape._emit(x.value * factor, ((x, lambda w: scale(tape, w, np.conj(factor))),))


@_primitive("conj")
def conj(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.conj(x.value), ((x, lambda w: conj(tape, w)),))


@_primitive("real")
def real(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.real(x.value), ((x, lambda w: complex_cast(tape, w)),))


@_primitive("imag")
def imag(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(
        np.imag(x.value), ((x, lambda w: scale(tape, complex_cast(tape, w), 1j)),)
    )


@_primitive("complex_cast")
def complex_cast(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.asarray(x.value, dtype=complex), ((x, lambda w: real(tape, w)),))


@_primitive("exp")
def exp(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    out = tape._emit(np.exp(x.value), ())
    out.parents = ((x, lambda w: mul(tape, w, conj(tape, out))),)
    return out


@_primitive("sqrt")
def sqrt(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    out = tape._emit(np.sqrt(x.value), ())
    out.parents = ((x, lambda w: div(tape, w, conj(tape, scale(tape, out, 2.0)))),)
    return out


@_primitive("sin")
def sin(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.sin(x.value), ((x, lambda w: mul(tape, w, conj(tape, cos(tape, x)))),))


@_primitive("cos")
def cos(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(
        np.cos(x.value),
        ((x, lambda w: scale(tape, mul(tape, w, conj(tape, sin(tape, x))), -1.0)),),
    )


@_primitive("tanh")
def tanh(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    out = tape._emit(np.tanh(x.value), ())

    def vjp(w):
        sq = mul(tape, out, out)
        return sub(tape, w, mul(tape, w, sq))  # w * (1 - tanh^2)

    out.parents = ((x, vjp),)
    return out


@_primitive("reshape")
def reshape(tape: Tape, x: Node, shape) -> Node:
    x = _as_node(tape, x)
    shape = tuple(shape)
    old = x.shape
    return tape._emit(
        np.reshape(x.value, shape), ((x, lambda w: reshape(tape, w, old)),)
    )


@_primitive("broadcast_to")
def broadcast_to(tape: Tape, x: Node, shape) -> Node:
    x = _as_node(tape, x)
    shape = tuple(shape)
    old = x.shape
    return tape._emit(
        np.broadcast_to(x.value, shape).copy(),
        ((x, lambda w: reduce_to_shape(tape, w, old)),),
    )


def _reduce_value(value: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = value.ndim - len(shape)
    if extra > 0:
        value = value.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and value.shape[i] != 1)
    if axes:
        value = value.sum(axis=axes, keepdims=True)
    return value


@_primitive("reduce_to_shape")
def reduce_to_shape(tape: Tape, x: Node, shape) -> Node:
    """Sum over broadcast axes so the result has exactly ``shape``."""
    x = _as_node(tape, x)
    shape = tuple(shape)
    if x.shape == shape:
        return x
    old = x.shape
    return tape._emit(
        _reduce_value(np.asarray(x.value), shape),
        ((x, lambda w: broadcast_to(tape, w, old)),),
    )


@_primitive("sum_all")
def sum_all(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    old = x.shape
    return tape._emit(
        np.asarray(np.sum(x.value)), ((x, lambda w: broadcast_to(tape, w, old)),)
    )


@_primitive("concat")
def concat(tape: Tape, xs, axis: int) -> Node:
    xs = [_as_node(tape, x) for x in xs]
    value = np.concatenate([x.value for x in xs], axis=axis)
    parents = []
    offset = 0
    for x in xs:
        width = x.shape[axis]
        start = offset

        def vjp(w, start=start, stop=offset + width):
            return slice_axis(tape, w, axis=axis, start=start, stop=stop)

        parents.append((x, vjp))
        offset += width
    return tape._emit(value, tuple(parents))


@_primitive("slice_axis")
def slice_axis(tape: Tape, x: Node, axis: int, start: int, stop: int) -> Node:
    x = _as_node(tape, x)
    index = [slice(None)] * np.ndim(x.value)
    index[axis] = slice(start, stop)
    before, after = start, x.shape[axis] - stop
    return tape._emit(
        np.ascontiguousarray(x.value[tuple(index)]),
        ((x, lambda w: pad_axis(tape, w, axis=axis, before=before, after=after)),),
    )


@_primitive("pad_axis")
def pad_axis(tape: Tape, x: Node, axis: int, before: int, after: int) -> Node:
    x = _as_node(tape, x)
    pad = [(0, 0)] * np.ndim(x.value)
    pad[axis] = (before, after)
    n = x.shape[axis]
    return tape._emit(
        np.pad(x.value, pad),
        ((x, lambda w: slice_axis(tape, w, axis=axis, start=before, stop=before + n)),),
    )


@_primitive("gather")
def gather(tape: Tape, x: Node, indices) -> Node:
    """Rows x[indices] along axis 0."""
    x = _as_node(tape, x)
    indices = np.asarray(indices, dtype=int)
    n = x.shape[0]
    return tape._emit(
        x.value[indices], ((x, lambda w: index_add(tape, w, indices, n)),)
    )


@_primitive("index_add")
def index_add(tape: Tape, x: Node, indices, n_rows: int) -> Node:
    """Scatter-add rows of x into n_rows bins (segment sum along axis 0)."""
    x = _as_node(tape, x)
    indices = np.asarray(indices, dtype=int)
    value = np.zeros((n_rows,) + x.shape[1:], dtype=np.asarray(x.value).dtype)
    np.add.at(value, indices, x.value)
    return tape._emit(value, ((x, lambda w: gather(tape, w, indices)),))


# ---------------------------------------------------------------------------
# contractions and parameterized maps
# ---------------------------------------------------------------------------


def _split_subscript(subscript: str) -> tuple[str, str, str, str]:
    lhs, out = subscript.split("->")
    parts = lhs.split(",")
    if len(parts) == 2:
        return parts[0], parts[1], "", out
    return parts[0], parts[1], parts[2], out


@_primitive("einsum2")
def einsum2(tape: Tape, tensor: np.ndarray, x: Node, subscript: str) -> Node:
    """Linear contraction with a constant tensor: einsum(subscript, T, x)."""
    x = _as_node(tape, x)
    t_sub, x_sub, _, out_sub = _split_subscript(subscript)
    value = np.einsum(subscript, tensor, x.value)
    back = f"{t_sub},{out_sub}->{x_sub}"
    t_conj = np.conj(tensor)
    return tape._emit(value, ((x, lambda w: einsum2(tape, t_conj, w, back)),))


@_primitive("einsum3")
def einsum3(tape: Tape, tensor: np.ndarray, x: Node, y: Node, subscript: str) -> Node:
    """Bilinear contraction with a constant tensor: einsum(subscript, T, x, y).

    Used for channel-wise CG products; the cotangent of one factor contracts
    the constant tensor with the conjugate of the other factor.
    """
    x, y = _as_node(tape, x), _as_node(tape, y)
    t_sub, x_sub, y_sub, out_sub = _split_subscript(subscript)
    value = np.einsum(subscript, tensor, x.value, y.value)
    back_x = f"{t_sub},{y_sub},{out_sub}->{x_sub}"
    back_y = f"{t_sub},{x_sub},{out_sub}->{y_sub}"
    t_conj = np.conj(tensor)
    return tape._emit(
        value,
        (
            (x, lambda w: einsum3(tape, t_conj, conj(tape, y), w, back_x)),
            (y, lambda w: einsum3(tape, t_conj, conj(tape, x), w, back_y)),
        ),
    )


@_primitive("channel_mix")
def channel_mix(tape: Tape, x: Node, weights: Node) -> Node:
    """x @ W on the trailing channel axis; W is a real parameter matrix.

    The weight cotangent is Re(x^H w) accumulated over all leading axes, so
    real parameters receive real gradients from complex data.
    """
    x, weights = _as_node(tape, x), _as_node(tape, weights)
    value = x.value @ weights.value

    def vjp_x(w):
        # Contract with the weights *node*, not its current value: the data
        # cotangent must stay differentiable with respect to the weights so
        # that losses built from gradients (e.g. force errors) see the mixed
        # second-derivative term.
        rows = int(np.prod(x.shape[:-1], dtype=int))
        w_flat = reshape(tape, w, (rows, weights.shape[-1]))
        adjoint = einsum3(tape, np.array(1.0), w_flat, weights, ",rj,ij->ri")
        return reshape(tape, adjoint, x.shape)

    def vjp_w(w):
        rows = int(np.prod(x.shape[:-1], dtype=int))
        x_flat = reshape(tape, x, (rows, x.shape[-1]))
        w_flat = reshape(tape, w, (rows, weights.shape[-1]))
        prod = einsum3(
            tape, np.array(1.0), conj(tape, x_flat), w_flat, ",ri,rj->ij"
        )
        return real(tape, prod)

    return tape._emit(value, ((x, vjp_x), (weights, vjp_w)))


@_primitive("spherical")
def spherical(tape: Tape, x: Node, two_j: int) -> Node:
    """Spherical-harmonic values of row vectors x (..., 3) at integer spin.

    The cotangent uses the analytic position Jacobian, captured at forward
    time; only first derivatives of the harmonics are ever required because
    positions are data, not trained parameters.
    """
    from .harmonics import sph_jacobian, sph_values

    x = _as_node(tape, x)
    value = sph_values(x.value, two_j)
    jac_conj = np.conj(sph_jacobian(x.value, two_j))  # (..., 2j+1, 3)

    def vjp(w):
        return real(tape, einsum2(tape, jac_conj, w, "...mk,...m->...k"))

    return tape._emit(value, ((x, vjp),))


# ---------------------------------------------------------------------------
# backward pass and finite-difference checking
# ---------------------------------------------------------------------------


def backward(tape: Tape, seed: Node, wrt: Optional[list[Node]] = None) -> dict[int, Node]:
    """Reverse accumulation from a real scalar seed.

    Returns a map from node id to the adjoint *node* (its ``.value`` is the
    gradient array).  Adjoint arithmetic is recorded on the tape, so adjoints
    can feed later losses.  When ``wrt`` is given, propagation is pruned to
    ancestors of those nodes.
    """
    value = np.asarray(seed.value)
    if value.ndim != 0 or np.iscomplexobj(value):
        raise NonScalarSeed(f"seed must be a real scalar, got shape {value.shape} "
                            f"dtype {value.dtype}")

    needed: Optional[set[int]] = None
    if wrt is not None:
        needed = set()
        targets = {n.id for n in wrt}
        for node in tape.nodes:  # increasing id: parents precede children
            if node.id in targets or any(p.id in needed for p, _ in node.parents):
                needed.add(node.id)
        if seed.id not in needed:
            return {n.id: tape.constant(np.zeros_like(np.asarray(n.value))) for n in wrt}

    adjoints: dict[int, Node] = {seed.id: tape.constant(np.ones_like(value))}
    # Snapshot: adjoint arithmetic appends nodes, which must not be revisited
    # within this backward pass (their adjoints belong to a later one).
    order = tape.nodes[: seed.id + 1]
    for node in reversed(order):
        w = adjoints.get(node.id)
        if w is None:
            continue
        for parent, vjp in node.parents:
            if needed is not None and parent.id not in needed:
                continue
            contribution = vjp(w)
            # The cotangent of a real-valued node is d(loss)/d(node), a real
            # quantity.  A complex consumer's vjp may hand back a complex
            # array whose imaginary part is meaningless for this node; drop
            # it here so it cannot re-enter complex arithmetic further back.
            if not np.iscomplexobj(parent.value) and np.iscomplexobj(contribution.value):
                contribution = real(tape, contribution)
            previous = adjoints.get(parent.id)
            adjoints[parent.id] = (
                contribution if previous is None else add(tape, previous, contribution)
            )
    return adjoints


@dataclass
class GradCheckReport:
    """Outcome of a central-difference gradient comparison."""

    max_rel_error: float
    worst_index: tuple[int, ...]
    passed: bool
    analytic: np.ndarray = field(repr=False, default=None)
    numeric: np.ndarray = field(repr=False, default=None)


def gradcheck(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    step: float = 1e-5,
    tolerance: float = 1e-6,
    abs_floor: float = 1e-9,
) -> GradCheckReport:
    """Compare f's reported gradient to central differences, per coordinate.

    ``f`` maps a real array to (real scalar value, gradient array of the same
    shape).  The relative error uses an absolute floor so exact zeros agree.
    """
    point = np.asarray(point, dtype=float)
    _, analytic = f(point)
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.zeros_like(point)
    flat = point.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        up, _ = f(bumped.reshape(point.shape))
        bumped[i] = flat[i] - step
        down, _ = f(bumped.reshape(point.shape))
        numeric.reshape(-1)[i] = (up - down) / (2.0 * step)
    err = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), abs_floor)
    # Differences below the absolute floor pass outright (finite-difference
    # noise near exact zeros would otherwise dominate the ratio).
    rel = np.where(err <= abs_floor, 0.0, err / denom)
    worst = int(np.argmax(rel))
    worst_index = np.unravel_index(worst, point.shape)
    max_rel = float(rel.reshape(-1)[worst])
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_index=tuple(int(i) for i in worst_index),
        passed=bool(max_rel <= tolerance),
        analytic=analytic,
        numeric=numeric,
    )
