"""Minimal tape-based reverse-mode differentiation.

A :class:`Tape` records every operation of one forward evaluation as a
:class:`Node`.  ``backward`` seeds a real scalar node and accumulates
vector-Jacobian products in strictly decreasing node-id order, recording
the adjoint arithmetic on the tape it is given.  On a recording tape (the
forward's own), an adjoint (for example a force, the negative position
gradient of an energy) is then an ordinary node and can appear in a later
loss whose own backward pass reaches the parameters.  This works because
every VJP closure is composed of registered primitives only, and none
holds a derivative as a constant array, so derivatives of every order are
exact, position Hessians included.  A last backward pass, whose adjoints
are only read as values, runs on a graph-free tape (``Tape(graph=False)``)
instead: the same VJPs compute the same values, but no parent link or node
list keeps an intermediate adjoint alive once nothing reads it.

A VJP is called as ``vjp(tape, w)``: ``backward`` hands it the tape to
record on, so no closure captures the tape, and none captures the node it
belongs to (``exp``, ``sqrt``, ``tanh`` and ``div`` rebuild their output
from their inputs, which gives the same values).  A tape is therefore
acyclic, nodes referring only to their parents, and reference counting
frees it as soon as its last node is dropped; the cyclic collector never
has to find one.  Under glibc the freed memory stays in the process for
the next tape (``_keep_freed_memory``), so each step does not fault its
pages in afresh.

Complex data follows the holomorphic cotangent convention (JAX's): the
adjoint of a complex node is w = dL/dRe - i dL/dIm.  A holomorphic
primitive's VJP multiplies by its derivative as it is: linear maps pull
cotangents back through the matrix itself, and a bilinear product through
the other factor, with no conjugation.  The non-holomorphic primitives
keep a rule each: ``real`` maps w to complex_cast(w), ``complex_cast`` to
real(w) and ``imag`` to -i w.  A real node keeps only the real part of a
contribution, and Re w is the same under either convention, so real
adjoints (forces, parameter gradients) are those of the conjugate
convention, bit for bit.

The two kernels the models spend their time in are sparse.  ``einsum3``
contracts a CG tensor over its nonzero entries only (m_c = m_a + m_b
leaves most entries zero), with a plan built once per tensor and subscript;
a spin-0 factor, whose CG block is c times the identity, is one broadcast
multiply instead (the broadcast plan).  Its VJPs contract the forward
tensor itself, so they hit the same plans.  ``index_add`` sums
sorted segments, with the sort computed once per index array.
``channel_mix`` and its cotangents are one BLAS matrix product each over
the flattened leading axes (``matmul``).  ``backward`` walks parent links
back from the seed and visits only its ancestors; given ``wrt``, it drops
every other adjoint once its node's VJPs have run.
"""

from __future__ import annotations

import ctypes
import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import NonScalarSeed

__all__ = ["Tape", "Node", "backward", "gradcheck", "GradCheckReport", "PRIMITIVES"]


class Node:
    """One recorded value: array, parent links, and VJP closures."""

    __slots__ = ("value", "parents", "id")

    def __init__(self, value, parents, node_id):
        self.value = value
        self.parents = parents  # tuple of (Node, vjp: (Tape, cotangent Node) -> Node)
        self.id = node_id

    @property
    def shape(self):
        return np.shape(self.value)


# glibc mallopt parameters, and the values set for them below.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES = 1 << 30
_MMAP_BYTES = 32 << 20  # the ceiling of glibc's own adaptive threshold


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed array memory for reuse.

    A tape holds every value of one training step or force call, tens of
    MB, and frees them all when it is dropped.  By default glibc gives a
    free heap top back to the kernel and serves arrays above an adaptive
    size from fresh mmaps, so the next step faults those pages in again.
    How much it gives back depends on where the few surviving allocations
    land, so the same step cost a different amount from one process to the
    next.  Fixed thresholds keep the freed memory in the process; it was
    resident already, so the peak resident set does not grow.  Elsewhere
    (no ``mallopt``) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


_keep_freed_memory()


class Tape:
    """Ordered node list for one forward (plus backward) evaluation.

    With ``graph=False`` the tape records no graph: each node it emits holds
    its value only, with no parent links, id -1 and no entry in ``nodes``,
    so it is freed as soon as nothing reads it.  Such nodes cannot be
    differentiated; this tape serves a backward pass whose adjoints are read
    as values and never fed to a later loss.
    """

    def __init__(self, graph: bool = True) -> None:
        self.nodes: list[Node] = []
        self.graph = graph

    def _emit(self, value, parents) -> Node:
        if not self.graph:
            return Node(value, (), -1)
        node = Node(value, tuple(parents), len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value) -> Node:
        """Leaf for a value not differentiated against (frozen weights,
        references).  The tape does not tell it from a variable: ``backward``
        gives it an adjoint, as it does every ancestor of the seed, unless
        ``wrt`` prunes it."""
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
            (x, lambda tape, w: reduce_to_shape(tape, w, x.shape)),
            (y, lambda tape, w: reduce_to_shape(tape, w, y.shape)),
        ),
    )


@_primitive("sub")
def sub(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)
    value = x.value - y.value
    return tape._emit(
        value,
        (
            (x, lambda tape, w: reduce_to_shape(tape, w, x.shape)),
            (y, lambda tape, w: scale(tape, reduce_to_shape(tape, w, y.shape), -1.0)),
        ),
    )


@_primitive("mul")
def mul(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)
    value = x.value * y.value
    return tape._emit(
        value,
        (
            (x, lambda tape, w: reduce_to_shape(tape, mul(tape, w, y), x.shape)),
            (y, lambda tape, w: reduce_to_shape(tape, mul(tape, w, x), y.shape)),
        ),
    )


@_primitive("div")
def div(tape: Tape, x: Node, y: Node) -> Node:
    x, y = _as_node(tape, x), _as_node(tape, y)

    def vjp_x(tape, w):
        return reduce_to_shape(tape, div(tape, w, y), x.shape)

    def vjp_y(tape, w):
        # d(x/y)/dy = -x/y^2 = -(x/y)/y
        ratio = div(tape, div(tape, x, y), y)
        return reduce_to_shape(tape, scale(tape, mul(tape, w, ratio), -1.0), y.shape)

    return tape._emit(x.value / y.value, ((x, vjp_x), (y, vjp_y)))


@_primitive("scale")
def scale(tape: Tape, x: Node, factor) -> Node:
    x = _as_node(tape, x)
    return tape._emit(x.value * factor, ((x, lambda tape, w: scale(tape, w, factor)),))


@_primitive("real")
def real(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.real(x.value), ((x, lambda tape, w: complex_cast(tape, w)),))


@_primitive("imag")
def imag(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(
        np.imag(x.value), ((x, lambda tape, w: scale(tape, complex_cast(tape, w), -1j)),)
    )


@_primitive("complex_cast")
def complex_cast(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.asarray(x.value, dtype=complex), ((x, lambda tape, w: real(tape, w)),))


@_primitive("exp")
def exp(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.exp(x.value), ((x, lambda tape, w: mul(tape, w, exp(tape, x))),))


@_primitive("sqrt")
def sqrt(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(
        np.sqrt(x.value), ((x, lambda tape, w: div(tape, w, scale(tape, sqrt(tape, x), 2.0))),)
    )


@_primitive("sin")
def sin(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(np.sin(x.value), ((x, lambda tape, w: mul(tape, w, cos(tape, x))),))


@_primitive("cos")
def cos(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    return tape._emit(
        np.cos(x.value),
        ((x, lambda tape, w: scale(tape, mul(tape, w, sin(tape, x)), -1.0)),),
    )


@_primitive("tanh")
def tanh(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)

    def vjp(tape, w):
        out = tanh(tape, x)
        return sub(tape, w, mul(tape, w, mul(tape, out, out)))  # w * (1 - tanh^2)

    return tape._emit(np.tanh(x.value), ((x, vjp),))


@_primitive("reshape")
def reshape(tape: Tape, x: Node, shape) -> Node:
    x = _as_node(tape, x)
    shape = tuple(shape)
    old = x.shape
    return tape._emit(
        np.reshape(x.value, shape), ((x, lambda tape, w: reshape(tape, w, old)),)
    )


@_primitive("broadcast_to")
def broadcast_to(tape: Tape, x: Node, shape) -> Node:
    x = _as_node(tape, x)
    shape = tuple(shape)
    old = x.shape
    return tape._emit(
        np.broadcast_to(x.value, shape).copy(),
        ((x, lambda tape, w: reduce_to_shape(tape, w, old)),),
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
        ((x, lambda tape, w: broadcast_to(tape, w, old)),),
    )


@_primitive("sum_all")
def sum_all(tape: Tape, x: Node) -> Node:
    x = _as_node(tape, x)
    old = x.shape
    return tape._emit(
        np.asarray(np.sum(x.value)), ((x, lambda tape, w: broadcast_to(tape, w, old)),)
    )


@_primitive("concat")
def concat(tape: Tape, xs, axis: int) -> Node:
    xs = [_as_node(tape, x) for x in xs]
    if len(xs) == 1:
        return xs[0]  # one part is its own concatenation; no copy, no node
    value = np.concatenate([x.value for x in xs], axis=axis)
    parents = []
    offset = 0
    for x in xs:
        width = x.shape[axis]
        start = offset

        def vjp(tape, w, start=start, stop=offset + width):
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
        ((x, lambda tape, w: pad_axis(tape, w, axis=axis, before=before, after=after)),),
    )


@_primitive("pad_axis")
def pad_axis(tape: Tape, x: Node, axis: int, before: int, after: int) -> Node:
    x = _as_node(tape, x)
    pad = [(0, 0)] * np.ndim(x.value)
    pad[axis] = (before, after)
    n = x.shape[axis]
    return tape._emit(
        np.pad(x.value, pad),
        ((x, lambda tape, w: slice_axis(tape, w, axis=axis, start=before, stop=before + n)),),
    )


# Plans derived from a constant array, keyed by the array's identity and
# dropped when it is freed (a weak reference's callback), so a new array
# can never inherit a freed one's plans.  Arrays handed to the tape are
# already required to stay unchanged: the VJP closures read them too.  A
# plan depends on its array alone, so a race between threads can at worst
# build one twice.
_plans: dict[int, tuple[weakref.ref, dict]] = {}


def _cached(array: np.ndarray, key, build: Callable):
    """``build(array)`` memoized per (array object, key)."""
    address = id(array)
    entry = _plans.get(address)
    if entry is None:
        ref = weakref.ref(array, lambda _: _plans.pop(address, None))
        entry = _plans[address] = (ref, {})
    plans = entry[1]
    if key not in plans:
        plans[key] = build(array)
    return plans[key]


@_primitive("gather")
def gather(tape: Tape, x: Node, indices) -> Node:
    """Rows x[indices] along axis 0."""
    x = _as_node(tape, x)
    indices = np.asarray(indices, dtype=int)
    n = x.shape[0]
    return tape._emit(
        x.value[indices], ((x, lambda tape, w: index_add(tape, w, indices, n)),)
    )


def _segments(indices: np.ndarray) -> tuple:
    """(order, starts, rows) that turn a scatter-add over ``indices`` into a
    sum of contiguous segments: ``order`` is a stable sort (None when the
    indices are already sorted), ``starts`` the first position of each run
    of equal sorted indices and ``rows`` the index of that run."""
    order = None if np.all(indices[:-1] <= indices[1:]) else np.argsort(indices, kind="stable")
    ordered = indices if order is None else indices[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return order, starts, ordered[starts]


@_primitive("index_add")
def index_add(tape: Tape, x: Node, indices, n_rows: int) -> Node:
    """Scatter-add rows of x into n_rows bins (segment sum along axis 0).

    Rows are summed as sorted segments with ``np.add.reduceat``, in their
    original order within each bin; the sort and the segment starts are
    computed once per index array (see ``_cached``).  Indices must lie in
    ``[0, n_rows)``.
    """
    x = _as_node(tape, x)
    indices = np.asarray(indices, dtype=int)
    value = np.zeros((n_rows,) + x.shape[1:], dtype=np.asarray(x.value).dtype)
    if indices.size:
        order, starts, rows = _cached(indices, "segments", _segments)
        if rows[0] < 0:
            raise IndexError(f"index_add: negative index {rows[0]}")
        rows_in = x.value if order is None else x.value[order]
        value[rows] = np.add.reduceat(rows_in, starts, axis=0)
    return tape._emit(value, ((x, lambda tape, w: gather(tape, w, indices)),))


# ---------------------------------------------------------------------------
# contractions and parameterized maps
# ---------------------------------------------------------------------------


def _split_subscript(subscript: str) -> tuple[str, str, str, str]:
    lhs, out = subscript.split("->")
    t_sub, x_sub, y_sub = lhs.split(",")
    return t_sub, x_sub, y_sub, out


def _scaled_identity(block: np.ndarray):
    """c when ``block`` is c times the identity matrix, else None."""
    n = len(block)
    if block.shape != (n, n) or n == 0:
        return None
    c = block[0, 0]
    return c if np.array_equal(block, c * np.eye(n, dtype=block.dtype)) else None


def _sparse_plan(tensor: np.ndarray, subscript: str):
    """The contraction of a three-index tensor as a function of the two
    operands' arrays, or None when ``subscript`` is not of the form it
    handles: each operand and the output carry exactly one distinct tensor
    index, no letter repeats within a term, there is no ellipsis, and a
    summed letter is in both operands.

    The broadcast plan (``_contract_broadcast``) serves a tensor with an
    operand index of dimension 1 between whose other two indices it is c
    times the identity (every 0 ⊗ j -> j CG product, and the VJP of one
    that keeps that form); every other tensor gets the nonzero-entry plan
    (``_contract_nonzeros``), so does a product into a dimension-1 output
    such as 1 ⊗ 1 -> 0."""
    t_sub, x_sub, y_sub, out_sub = _split_subscript(subscript)
    terms = (x_sub, y_sub, out_sub)
    if (
        "." in subscript
        or len(t_sub) != 3
        or any(len(set(term)) != len(term) for term in (t_sub,) + terms)
    ):
        return None
    own = [[c for c in term if c in t_sub] for term in terms]
    if any(len(letters) != 1 for letters in own) or {l[0] for l in own} != set(t_sub):
        return None
    (lx,), (ly,), (lo,) = own
    rest_x, rest_y, rest_o = (term.replace(l, "") for term, l in zip(terms, (lx, ly, lo)))
    summed = "".join(sorted(set(rest_x + rest_y) - set(rest_o)))
    if summed and not set(rest_x) == set(rest_y) >= set(rest_o):
        return None
    kept = rest_o + summed  # gathered axes: tensor index, output letters, summed letters

    def operand(term, letter, rest):
        axes = (term.index(letter),) + tuple(term.index(c) for c in kept if c in rest)
        expand = (slice(None),) + tuple(slice(None) if c in rest else None for c in kept)
        return axes, expand

    x_op, y_op = operand(x_sub, lx, rest_x), operand(y_sub, ly, rest_y)
    out_axes = tuple((lo + rest_o).index(c) for c in out_sub)
    roles = [t_sub.index(l) for l in (lx, ly, lo)]
    block = tensor.transpose(roles)  # (x index, y index, output index)
    for scalar_dim in (0, 1):
        if block.shape[scalar_dim] == 1:
            c = _scaled_identity(block[0] if scalar_dim == 0 else block[:, 0])
            if c is not None:
                return partial(_contract_broadcast, x_op, y_op, len(summed), c, out_axes)

    # the product overwrites a gathered operand of its full shape
    full = [set(rest) == set(kept) for rest in (rest_x, rest_y)]
    into = full.index(True) if any(full) else None
    coords = np.nonzero(tensor)
    ix, iy, io = (coords[r] for r in roles)
    coeffs = np.zeros((block.shape[2], len(io)), dtype=tensor.dtype)
    coeffs[io, np.arange(len(io))] = tensor[coords]
    return partial(
        _contract_nonzeros, (x_op, ix, y_op, iy, len(summed), into, coeffs, out_axes)
    )


def _sum_trailing(prod: np.ndarray, n_summed: int) -> np.ndarray:
    """``prod`` summed over its last ``n_summed`` axes."""
    if not n_summed:
        return prod
    # np.sum over a short trailing axis is slower than a matrix-vector product
    kept, width = prod.shape[: prod.ndim - n_summed], math.prod(prod.shape[-n_summed:])
    return prod.reshape(kept + (width,)) @ np.ones(width)


def _contract_broadcast(x_op, y_op, n_summed: int, c, out_axes, x, y) -> np.ndarray:
    """einsum with a tensor that is c times the identity between the output
    and one operand, the other operand's index having dimension 1.

    Each operand's tensor axis comes first (the dimension-1 one broadcasts
    against the other, whose components are the output's), so the product
    is one broadcast multiply; summed letters are reduced as in
    ``_contract_nonzeros``, then the result is scaled by c unless c is 1.
    """
    (x_axes, x_expand), (y_axes, y_expand) = x_op, y_op
    prod = _sum_trailing(x.transpose(x_axes)[x_expand] * y.transpose(y_axes)[y_expand], n_summed)
    if c != 1:
        prod = prod * c
    return prod.transpose(out_axes)


def _contract_nonzeros(plan, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """einsum over the tensor's nonzero entries only.

    Gathers the components each entry reads into (nnz, ...) arrays, multiplies
    them in place, sums any summed letters (the trailing axes) with one
    product against a ones vector, and sums the result into the output
    components with one (out dim, nnz) coefficient matrix; a complex product
    meets a real matrix as one real GEMM over its interleaved re/im parts.
    The NumPy call count is fixed, so the cost stays low at small edge counts
    too.
    """
    (x_axes, x_expand), ix, (y_axes, y_expand), iy, n_summed, into, coeffs, out_axes = plan
    factors = (x.transpose(x_axes)[ix][x_expand], y.transpose(y_axes)[iy][y_expand])
    out = None if into is None else factors[into]
    if out is not None and out.dtype != np.result_type(*factors):
        out = None
    prod = _sum_trailing(np.multiply(*factors, out=out), n_summed)
    inner = prod.shape[1:]
    flat = prod.reshape(len(ix), math.prod(inner))
    if flat.dtype == np.complex128 and coeffs.dtype == np.float64:
        out = (coeffs @ flat.view(np.float64)).view(np.complex128)
    else:
        out = coeffs @ flat
    return out.reshape((len(coeffs),) + inner).transpose(out_axes)


@_primitive("einsum3")
def einsum3(tape: Tape, tensor: np.ndarray, x: Node, y: Node, subscript: str) -> Node:
    """Bilinear contraction with a constant tensor: einsum(subscript, T, x, y).

    Used for channel-wise CG products.  The tensor has three indices, one
    to each operand and one to the output (every CG product and each of its
    VJPs); the contraction runs a plan built once per tensor and subscript
    (``_sparse_plan``): one broadcast multiply when an operand has
    dimension 1 and the tensor is c times the identity between the other
    two indices (a spin-0 factor: 0 ⊗ j -> j, j ⊗ 0 -> j, 0 ⊗ 0 -> 0),
    else a contraction over its nonzero entries only.  Any other form
    raises ValueError.  The cotangent of one factor contracts the same
    tensor with the other factor, as it is.
    """
    x, y = _as_node(tape, x), _as_node(tape, y)
    t_sub, x_sub, y_sub, out_sub = _split_subscript(subscript)
    tensor = np.asarray(tensor)
    plan = _cached(tensor, subscript, lambda t: _sparse_plan(t, subscript))
    if plan is None:
        raise ValueError(f"einsum3: unsupported subscript {subscript!r}")
    value = plan(x.value, y.value)
    back_x = f"{t_sub},{y_sub},{out_sub}->{x_sub}"
    back_y = f"{t_sub},{x_sub},{out_sub}->{y_sub}"
    return tape._emit(
        value,
        (
            (x, lambda tape, w: einsum3(tape, tensor, y, w, back_x)),
            (y, lambda tape, w: einsum3(tape, tensor, x, w, back_y)),
        ),
    )


@_primitive("matmul")
def matmul(tape: Tape, a: Node, b: Node, trans_a: bool = False, trans_b: bool = False) -> Node:
    """op(a) @ op(b) for matrices, op the transpose when its flag is set.

    One BLAS call forward and per cotangent.  The cotangent of op(a) is
    w @ op(b)^T and that of op(b) is op(a)^T @ w; each is again a
    ``matmul`` of the other factor, so products of products stay
    differentiable.
    """
    a, b = _as_node(tape, a), _as_node(tape, b)
    value = (a.value.T if trans_a else a.value) @ (b.value.T if trans_b else b.value)

    def vjp_a(tape, w):
        if trans_a:
            return matmul(tape, b, w, trans_b, True)
        return matmul(tape, w, b, False, not trans_b)

    def vjp_b(tape, w):
        if trans_b:
            return matmul(tape, w, a, True, trans_a)
        return matmul(tape, a, w, not trans_a, False)

    return tape._emit(value, ((a, vjp_a), (b, vjp_b)))


@_primitive("channel_mix")
def channel_mix(tape: Tape, x: Node, weights: Node) -> Node:
    """x @ W on the trailing channel axis; W is a real parameter matrix.

    The product and both cotangents run over the flattened leading axes, one
    2-D matrix product each (a stacked product would be one small product per
    leading index).  The weight cotangent is Re(x^T w) accumulated over all
    leading axes, so real parameters receive real gradients from complex
    data.
    """
    x, weights = _as_node(tape, x), _as_node(tape, weights)
    rows = int(np.prod(x.shape[:-1], dtype=int))
    value = np.reshape(
        np.reshape(x.value, (rows, x.shape[-1])) @ weights.value,
        x.shape[:-1] + weights.shape[-1:],
    )

    def vjp_x(tape, w):
        # Contract with the weights *node*, not its current value: the data
        # cotangent must stay differentiable with respect to the weights so
        # that losses built from gradients (e.g. force errors) see the mixed
        # second-derivative term.
        w_flat = reshape(tape, w, (rows, weights.shape[-1]))
        return reshape(tape, matmul(tape, w_flat, weights, False, True), x.shape)

    def vjp_w(tape, w):
        x_flat = reshape(tape, x, (rows, x.shape[-1]))
        w_flat = reshape(tape, w, (rows, weights.shape[-1]))
        return real(tape, matmul(tape, x_flat, w_flat, True, False))

    return tape._emit(value, ((x, vjp_x), (weights, vjp_w)))


# ---------------------------------------------------------------------------
# backward pass and finite-difference checking
# ---------------------------------------------------------------------------


def backward(tape: Tape, seed: Node, wrt: Optional[list[Node]] = None) -> dict[int, Node]:
    """Reverse accumulation from a real scalar seed.

    Returns a map from node id to the adjoint *node* (its ``.value`` is the
    gradient array; for a complex node, the holomorphic cotangent
    dL/dRe - i dL/dIm).  Adjoint arithmetic is recorded on ``tape``: on a
    recording tape the adjoints can feed later losses; on a graph-free one
    they are values only.  Only the seed's ancestors are visited, so the
    cost follows the seed's graph, not the tape's length.

    When ``wrt`` is given, propagation is pruned to nodes that depend on one
    of those, and the map holds exactly their ids, zeros for any the seed
    does not depend on.  Every other adjoint is dropped as soon as its
    node's VJPs have run (all consumers of a node come after it, so its
    adjoint is final by then), so no more of them is alive at once than the
    pass needs.
    """
    value = np.asarray(seed.value)
    if value.ndim != 0 or np.iscomplexobj(value):
        raise NonScalarSeed(f"seed must be a real scalar, got shape {value.shape} "
                            f"dtype {value.dtype}")

    # The seed's ancestors, found by walking parent links back from it, in
    # increasing id order (parents precede children).  Only they can receive
    # an adjoint; nodes appended by the adjoint arithmetic below are never
    # among them (their adjoints belong to a later pass).
    ancestors = {seed.id: seed}
    stack = [seed]
    while stack:
        for parent, _ in stack.pop().parents:
            if parent.id not in ancestors:
                ancestors[parent.id] = parent
                stack.append(parent)
    order = [ancestors[i] for i in sorted(ancestors)]

    needed: Optional[set[int]] = None
    if wrt is not None:
        kept = {n.id for n in wrt}
        needed = set(kept)
        for node in order:
            if any(p.id in needed for p, _ in node.parents):
                needed.add(node.id)
    adjoints: dict[int, Node] = {}
    if needed is None or seed.id in needed:
        adjoints[seed.id] = tape.constant(np.ones_like(value))

    for node in reversed(order):
        if needed is None or node.id in kept:
            w = adjoints.get(node.id)
        else:
            w = adjoints.pop(node.id, None)
        if w is None:
            continue
        for parent, vjp in node.parents:
            if needed is not None and parent.id not in needed:
                continue
            contribution = vjp(tape, w)
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
    if wrt is None:
        return adjoints
    return {
        n.id: adjoints[n.id] if n.id in adjoints
        else tape.constant(np.zeros_like(np.asarray(n.value)))
        for n in wrt
    }


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
    ``step`` must be finite and > 0.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"gradcheck step must be finite and > 0, got {step}")
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
