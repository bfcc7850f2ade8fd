"""Minimal tape-based reverse-mode differentiation.

A :class:`Tape` records every operation of one forward evaluation as a
:class:`Node`.  A primitive takes its operands as Nodes and reads them as
they come; a constant operand is a ``tape.constant`` leaf that the caller
makes, so the tape holds it at the point where the caller made it.
``backward`` seeds a real scalar node and accumulates
vector-Jacobian products in strictly decreasing node-id order, back to the
nodes listed in its ``wrt``, recording the adjoint arithmetic on the tape
it is given.  On a recording tape (the
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

The two kernels the models spend their time in serve only the products
the models record.  ``einsum3`` contracts a CG tensor with operands laid
out as (rows, components[, channels]) over its nonzero entries only (m_c =
m_a + m_b leaves most entries zero), with a plan built once per tensor and
subscript; where the plan's coefficient matrix is exactly the identity
(a spin-0 factor, whose CG block is the identity), the products of the
operands' components are the output, with no coefficient product.  Its
VJPs contract the forward tensor itself in the same layout, so they hit
the same plans.  ``channel_mix`` is the one matrix product: the mixing
x @ W and the two transposed products its VJPs make.  Any other form of
either raises ValueError.  ``index_add`` sums sorted segments, with the
sort computed once per index array.
``backward`` walks parent links back from the seed, visits only the
ancestors that depend on a node in its ``wrt`` list, and drops every other
adjoint once its node's VJPs have run.

Memory order.  Shapes put the row axis first: atoms or edges, then spin
components, then channels.  Rows run to thousands where the other axes
hold a few components and channels, so the primitives that build new
arrays (``gather``, ``index_add``, ``einsum3``, ``channel_mix``,
``concat``, ``slice_axis``, ``pad_axis``, ``broadcast_to``) store a result
of two or more axes rows-last: axis 0 innermost in memory, the other axes
in order, so that its physical form, ``transpose(_LAST[ndim])``, is
C-contiguous; and each kernel's inner loops run along the rows.
``gather`` takes along the physical last axis and ``index_add`` sums its
segments along it; ``einsum3`` multiplies the two operand components that
each nonzero entry reads, whole runs of rows, straight into that entry's
row of one (nnz, [channel,] rows) product block, copying neither operand,
and leaves its GEMM's output with the rows innermost; ``channel_mix``
computes op(W)^T @ x^T on x's physical form, for complex data one real
GEMM on its interleaved re/im parts; the structural primitives work on
the physical forms.  Each accepts inputs in
either order and gives the same values.  Elementwise primitives and NumPy
reductions keep their inputs' order, and leaves (positions, parameters)
are stored as given.
"""

from __future__ import annotations

import ctypes
import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
        return self.value.shape


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
        references).  The tape does not tell it from a variable: like any
        leaf, it gets an adjoint from ``backward`` only when it is listed in
        ``wrt``."""
        return self._emit(np.asarray(value), ())

    def variable(self, value) -> Node:
        """Leaf that participates in differentiation."""
        return self._emit(np.asarray(value), ())


# Every primitive by name, so tools can enumerate (and wrap) them.
PRIMITIVES: dict[str, Callable] = {}


def _primitive(name: str):
    def wrap(fn):
        PRIMITIVES[name] = fn
        return fn

    return wrap


# Memory order: an n-axis array is stored rows-last when moving its axis 0
# last, with ``transpose(_LAST[n])``, gives a C-contiguous array, its
# physical form; ``_FIRST[n]`` moves the axis back.  Axis tuples by rank,
# because ``transpose`` with a ready tuple costs a small fraction of
# ``np.moveaxis``.
_LAST = [()] + [(*range(1, n), 0) for n in range(1, 65)]
_FIRST = [()] + [(n - 1, *range(n - 1)) for n in range(1, 65)]


def _physical(a: np.ndarray) -> np.ndarray:
    """``a`` with its row axis moved last (a view)."""
    return a.transpose(_LAST[a.ndim])


def _logical(p: np.ndarray) -> np.ndarray:
    """The array whose physical form is ``p`` (a view): ``p``'s last axis
    moved first."""
    return p.transpose(_FIRST[p.ndim])


def _physical_axis(axis: int, ndim: int) -> int:
    """Where a logical axis (a negative one counting from the end) sits in
    the physical form."""
    return (axis - 1) % ndim


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------


@_primitive("add")
def add(tape: Tape, x: Node, y: Node) -> Node:
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
    def vjp_x(tape, w):
        return reduce_to_shape(tape, div(tape, w, y), x.shape)

    def vjp_y(tape, w):
        # d(x/y)/dy = -x/y^2 = -(x/y)/y
        ratio = div(tape, div(tape, x, y), y)
        return reduce_to_shape(tape, scale(tape, mul(tape, w, ratio), -1.0), y.shape)

    return tape._emit(x.value / y.value, ((x, vjp_x), (y, vjp_y)))


@_primitive("scale")
def scale(tape: Tape, x: Node, factor) -> Node:
    return tape._emit(x.value * factor, ((x, lambda tape, w: scale(tape, w, factor)),))


@_primitive("real")
def real(tape: Tape, x: Node) -> Node:
    return tape._emit(np.real(x.value), ((x, lambda tape, w: complex_cast(tape, w)),))


@_primitive("imag")
def imag(tape: Tape, x: Node) -> Node:
    return tape._emit(
        np.imag(x.value), ((x, lambda tape, w: scale(tape, complex_cast(tape, w), -1j)),)
    )


@_primitive("complex_cast")
def complex_cast(tape: Tape, x: Node) -> Node:
    return tape._emit(np.asarray(x.value, dtype=complex), ((x, lambda tape, w: real(tape, w)),))


@_primitive("exp")
def exp(tape: Tape, x: Node) -> Node:
    return tape._emit(np.exp(x.value), ((x, lambda tape, w: mul(tape, w, exp(tape, x))),))


@_primitive("sqrt")
def sqrt(tape: Tape, x: Node) -> Node:
    return tape._emit(
        np.sqrt(x.value), ((x, lambda tape, w: div(tape, w, scale(tape, sqrt(tape, x), 2.0))),)
    )


@_primitive("sin")
def sin(tape: Tape, x: Node) -> Node:
    return tape._emit(np.sin(x.value), ((x, lambda tape, w: mul(tape, w, cos(tape, x))),))


@_primitive("cos")
def cos(tape: Tape, x: Node) -> Node:
    return tape._emit(
        np.cos(x.value),
        ((x, lambda tape, w: scale(tape, mul(tape, w, sin(tape, x)), -1.0)),),
    )


@_primitive("tanh")
def tanh(tape: Tape, x: Node) -> Node:
    def vjp(tape, w):
        out = tanh(tape, x)
        return sub(tape, w, mul(tape, w, mul(tape, out, out)))  # w * (1 - tanh^2)

    return tape._emit(np.tanh(x.value), ((x, vjp),))


@_primitive("reshape")
def reshape(tape: Tape, x: Node, shape) -> Node:
    shape = tuple(shape)
    old = x.shape
    return tape._emit(
        np.reshape(x.value, shape), ((x, lambda tape, w: reshape(tape, w, old)),)
    )


@_primitive("broadcast_to")
def broadcast_to(tape: Tape, x: Node, shape) -> Node:
    shape = tuple(shape)
    old = x.shape
    return tape._emit(
        _logical(np.ascontiguousarray(_physical(np.broadcast_to(x.value, shape)))),
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
    old = x.shape
    return tape._emit(
        np.asarray(np.sum(x.value)), ((x, lambda tape, w: broadcast_to(tape, w, old)),)
    )


@_primitive("concat")
def concat(tape: Tape, xs, axis: int) -> Node:
    if len(xs) == 1:
        return xs[0]  # one part is its own concatenation; no copy, no node
    parts = [_physical(x.value) for x in xs]
    axis_p = _physical_axis(axis, parts[0].ndim)
    shape = list(parts[0].shape)
    shape[axis_p] = sum(part.shape[axis_p] for part in parts)
    value = np.concatenate(parts, axis=axis_p, out=np.empty(shape, np.result_type(*parts)))
    parents = []
    offset = 0
    for x in xs:
        width = x.shape[axis]
        start = offset

        def vjp(tape, w, start=start, stop=offset + width):
            return slice_axis(tape, w, axis=axis, start=start, stop=stop)

        parents.append((x, vjp))
        offset += width
    return tape._emit(_logical(value), tuple(parents))


@_primitive("slice_axis")
def slice_axis(tape: Tape, x: Node, axis: int, start: int, stop: int) -> Node:
    part = _physical(x.value)
    index = [slice(None)] * part.ndim
    index[_physical_axis(axis, part.ndim)] = slice(start, stop)
    before, after = start, x.shape[axis] - stop
    return tape._emit(
        _logical(np.ascontiguousarray(part[tuple(index)])),
        ((x, lambda tape, w: pad_axis(tape, w, axis=axis, before=before, after=after)),),
    )


@_primitive("pad_axis")
def pad_axis(tape: Tape, x: Node, axis: int, before: int, after: int) -> Node:
    width = x.shape[axis]
    part = _physical(x.value)
    axis_p = _physical_axis(axis, part.ndim)
    shape = list(part.shape)
    shape[axis_p] += before + after
    index = [slice(None)] * part.ndim
    index[axis_p] = slice(before, before + width)
    value = np.zeros(shape, dtype=part.dtype)
    value[tuple(index)] = part
    return tape._emit(
        _logical(value),
        ((x, lambda tape, w: slice_axis(tape, w, axis=axis, start=before, stop=before + width)),),
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
    """Rows x[indices] along axis 0, for a 1-D integer ``indices``.

    Takes along the physical last axis, so a rows-last ``x`` is read in
    runs of its row axis and the result is rows-last whatever the layout
    of ``x``."""
    indices = np.asarray(indices, dtype=int)
    n = x.shape[0]
    return tape._emit(
        _logical(np.take(_physical(x.value), indices, axis=-1)),
        ((x, lambda tape, w: index_add(tape, w, indices, n)),),
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

    Rows are summed as sorted segments with ``np.add.reduceat`` along the
    physical last axis, in their original order within each bin, and the
    result is rows-last; the sort and the segment starts are computed once
    per index array (see ``_cached``).  Indices must lie in ``[0, n_rows)``.
    """
    indices = np.asarray(indices, dtype=int)
    part = _physical(np.asarray(x.value))
    shape = part.shape[:-1] + (n_rows,)
    if not indices.size:
        value = np.zeros(shape, dtype=part.dtype)
    else:
        order, starts, rows = _cached(indices, "segments", _segments)
        if rows[0] < 0:
            raise IndexError(f"index_add: negative index {rows[0]}")
        rows_in = part if order is None else np.take(part, order, axis=-1)
        sums = np.add.reduceat(rows_in, starts, axis=-1)
        if len(rows) == n_rows and rows[-1] == n_rows - 1:  # every bin has a row
            value = sums
        else:
            value = np.zeros(shape, dtype=part.dtype)
            value[..., rows] = sums
    return tape._emit(_logical(value), ((x, lambda tape, w: gather(tape, w, indices)),))


# ---------------------------------------------------------------------------
# contractions and parameterized maps
# ---------------------------------------------------------------------------


def _split_subscript(subscript: str) -> tuple[str, str, str, str]:
    lhs, out = subscript.split("->")
    t_sub, x_sub, y_sub = lhs.split(",")
    return t_sub, x_sub, y_sub, out


def _sparse_plan(tensor: np.ndarray, subscript: str):
    """The contraction of a three-index tensor as a function of the two
    operands' arrays, or None when ``subscript`` is not of ``einsum3``'s
    one layout.  Both operands are read in their physical forms, (tensor
    index, [channel,] rows), a channel-less one broadcasting along the
    channel where the product has one.  Every tensor gets the one
    nonzero-entry plan (``_contract_nonzeros``): the pair of operand
    components each nonzero entry reads, and the (out dim, nnz) matrix of
    the entries' coefficients.  Where that matrix is exactly the identity
    (every 0 ⊗ j -> j CG product, and the VJP of one that keeps that form)
    the plan holds None instead, and the product block is the output; a
    c·I block with c != 1 and a product into a dimension-1 output such as
    1 ⊗ 1 -> 0 keep their matrix."""
    t_sub, *terms = _split_subscript(subscript)
    row = terms[0][:1]
    channel = next((term[2:] for term in terms if len(term) == 3), "")
    own = [term[1:2] for term in terms]
    x_has, y_has, out_has = has = [len(term) == 3 for term in terms]
    letters = t_sub + row + channel
    if (
        not letters.isalpha()
        or len(set(letters)) != 4 + len(channel)
        or sorted(own) != sorted(t_sub)
        or any(term != row + l + channel * h for term, l, h in zip(terms, own, has))
        or (out_has and not (x_has or y_has))
        or (x_has != y_has and not out_has)
    ):
        return None
    summed = x_has and y_has and not out_has
    x_axes, y_axes = (_LAST[len(term)] for term in terms[:2])
    out_axes = _FIRST[len(terms[2])]
    roles = [t_sub.index(l) for l in own]
    coords = np.nonzero(tensor)
    ix, iy, io = (coords[r] for r in roles)
    coeffs = np.zeros((tensor.shape[roles[2]], len(io)), dtype=tensor.dtype)
    coeffs[io, np.arange(len(io))] = tensor[coords]
    if np.array_equal(coeffs, np.eye(len(io))):
        coeffs = None
    pairs = tuple(zip(ix.tolist(), iy.tolist()))
    return partial(_contract_nonzeros, (x_axes, y_axes, pairs, summed, coeffs, out_axes))


def _contract_nonzeros(plan, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """einsum over the tensor's nonzero entries only.

    Allocates one (nnz, [channel,] rows) product block and multiplies the
    two operand components each entry reads straight into its row (for a
    rows-last operand, whole runs of its row axis; a channel-less operand
    broadcasts along the channel), so neither operand is copied.  Then it
    sums a summed channel and sums the block into the output components
    with one (out dim, nnz) coefficient matrix, whose product comes out
    with the rows innermost; a complex product meets a real matrix as one
    real GEMM over its interleaved re/im parts.  Where the matrix is the
    identity (``coeffs`` None) the block is the output as it is: a product
    with I would turn -0.0 into +0.0, and an inf in one component into nan
    in the others.  The Python work is one multiply per nonzero entry,
    whatever the row count.
    """
    x_axes, y_axes, pairs, summed, coeffs, out_axes = plan
    x, y = x.transpose(x_axes), y.transpose(y_axes)  # (tensor index, [channel,] rows)
    inner = (x if x.ndim >= y.ndim else y).shape[1:]
    prod = np.empty((len(pairs),) + inner, np.result_type(x, y))
    for k, (a, b) in enumerate(pairs):
        np.multiply(x[a], y[b], out=prod[k])
    if summed:
        prod = prod.sum(axis=1)
    if coeffs is None:
        return prod.transpose(out_axes)
    inner = prod.shape[1:]
    flat = prod.reshape(len(pairs), math.prod(inner))
    if flat.dtype == np.complex128 and coeffs.dtype == np.float64:
        out = (coeffs @ flat.view(np.float64)).view(np.complex128)
    else:
        out = coeffs @ flat
    return out.reshape((len(coeffs),) + inner).transpose(out_axes)


def _einsum3_entry(tensor: np.ndarray, subscript: str):
    """(plan, back_x, back_y) for ``einsum3``: the contraction and the
    subscripts of its two VJPs, or None for an unsupported subscript."""
    plan = _sparse_plan(tensor, subscript)
    if plan is None:
        return None
    t_sub, x_sub, y_sub, out_sub = _split_subscript(subscript)
    return plan, f"{t_sub},{y_sub},{out_sub}->{x_sub}", f"{t_sub},{x_sub},{out_sub}->{y_sub}"


@_primitive("einsum3")
def einsum3(tape: Tape, tensor: np.ndarray, x: Node, y: Node, subscript: str) -> Node:
    """Bilinear contraction with a constant tensor: einsum(subscript, T, x, y).

    Used for channel-wise CG products, in the one layout of every CG
    product here and of each of its VJPs: each operand and the output are
    a row letter, one of the tensor's three letters, then an optional
    channel letter, the row and channel letters shared by all three terms
    (``"abc,eat,ebt->ect"``, ``"abc,ea,ebt->ect"``); a channel letter in
    both operands but not in the output is summed.  Any other subscript
    raises ValueError.  Every contraction runs the one nonzero-entry plan,
    built once per tensor and subscript (``_sparse_plan``); it reads its
    operands with the rows innermost, whatever their memory order, and
    returns the output rows-last.  An identity CG block (a spin-0 factor)
    leaves the output the elementwise product of the operands' components,
    bit for bit.  The cotangent of one factor contracts the same tensor
    with the other factor, as it is.
    """
    tensor = np.asarray(tensor)
    entry = _cached(tensor, subscript, partial(_einsum3_entry, subscript=subscript))
    if entry is None:
        raise ValueError(f"einsum3: unsupported subscript {subscript!r}")
    plan, back_x, back_y = entry
    value = plan(x.value, y.value)
    return tape._emit(
        value,
        (
            (x, lambda tape, w: einsum3(tape, tensor, y, w, back_x)),
            (y, lambda tape, w: einsum3(tape, tensor, x, w, back_y)),
        ),
    )


def _mix(a: np.ndarray, b: np.ndarray, trans_x: bool, trans_w: bool) -> np.ndarray:
    """op(a) @ op(b) as ``channel_mix`` defines it, rows-last."""
    if not trans_x and b.ndim == 2:
        # op(W)^T @ x^T on x's physical form: one product per index of x's
        # middle axes, over whole runs of its rows; W in C order whatever
        # its layout, so that BLAS sums each product in one order
        mw = np.ascontiguousarray(b)
        w_t = mw if trans_w else mw.T
        part = _physical(a)
        if a.ndim > 1 and part.dtype == np.complex128 and w_t.dtype == np.float64:
            part = np.ascontiguousarray(part).view(np.float64)  # interleaved re/im
            return _logical((w_t @ part).view(np.complex128))
        return _logical(w_t @ part)
    if trans_x and not trans_w and a.ndim > 1 and a.shape[:-1] == b.shape[:-1]:
        # (W^T x)^T summed over the rows, one product per leading index
        prod = _physical(b) @ _physical(a).swapaxes(-1, -2)
        return prod.sum(axis=tuple(range(a.ndim - 2))).T
    raise ValueError(
        f"channel_mix: unsupported product of shapes {a.shape} and {b.shape} "
        f"with flags ({trans_x}, {trans_w})"
    )


@_primitive("channel_mix")
def channel_mix(
    tape: Tape, x: Node, weights: Node, trans_x: bool = False, trans_w: bool = False
) -> Node:
    """op(x) @ op(W), op the transpose when its flag is set: the channel
    mixing x @ W on the trailing axis, and the products of its cotangents.

    Three products are served: (F, F), the mixing itself, and (F, T), x @
    W^T, each with a matrix W and keeping x's leading axes; and (T, F),
    x^T @ y for data of two or more axes with equal leading shapes, summed
    over them.  Any other, (T, T) among them, raises ValueError.  Each is
    computed transposed, so that it comes out rows-last: op(W)^T @ x^T
    over x's physical form, one BLAS call per index of x's middle axes,
    each over whole runs of its rows (a complex x meets a real W as one
    real GEMM on its interleaved re/im parts), and (T, F) as W^T x summed
    the same way.  The cotangent of op(x) is w @ op(W)^T and that of op(W)
    is op(x)^T @ w, each again one ``channel_mix`` of the other factor;
    from (F, F) they are the (F, T) and (T, F) products, a set that their
    own VJPs keep.  A weight cotangent from complex data is complex, and
    ``backward`` keeps its real part, so real parameters receive real
    gradients.
    """
    value = _mix(np.asarray(x.value), np.asarray(weights.value), trans_x, trans_w)

    # Each cotangent contracts with the other factor's *node*, not its
    # current value: the data cotangent must stay differentiable with
    # respect to the weights so that losses built from gradients (e.g.
    # force errors) see the mixed second-derivative term.
    def vjp_x(tape, w):
        if trans_x:
            return channel_mix(tape, weights, w, trans_w, True)
        return channel_mix(tape, w, weights, False, not trans_w)

    def vjp_w(tape, w):
        if trans_w:
            return channel_mix(tape, w, x, True, trans_x)
        return channel_mix(tape, x, w, not trans_x, False)

    return tape._emit(value, ((x, vjp_x), (weights, vjp_w)))


# ---------------------------------------------------------------------------
# backward pass and finite-difference checking
# ---------------------------------------------------------------------------


def backward(tape: Tape, seed: Node, wrt: list[Node]) -> dict[int, Node]:
    """Reverse accumulation from a real scalar seed to the nodes in ``wrt``.

    Returns a map from each ``wrt`` node's id to its adjoint *node* (its
    ``.value`` is the gradient array; for a complex node, the holomorphic
    cotangent dL/dRe - i dL/dIm), zeros for a node the seed does not depend
    on.  Adjoint arithmetic is recorded on ``tape``: on a recording tape the
    adjoints can feed later losses; on a graph-free one they are values
    only.  Only the seed's ancestors that depend on a ``wrt`` node are
    visited, so the cost follows the seed's graph, not the tape's length.
    Every other adjoint is dropped as soon as its node's VJPs have run (all
    consumers of a node come after it, so its adjoint is final by then), so
    no more of them is alive at once than the pass needs.
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

    kept = {n.id for n in wrt}
    needed = set(kept)
    for node in order:
        for parent, _ in node.parents:
            if parent.id in needed:
                needed.add(node.id)
                break
    adjoints: dict[int, Node] = {}
    if seed.id in needed:
        adjoints[seed.id] = tape.constant(np.ones_like(value))

    for node in reversed(order):
        w = adjoints.get(node.id) if node.id in kept else adjoints.pop(node.id, None)
        if w is None:
            continue
        for parent, vjp in node.parents:
            if parent.id not in needed:
                continue
            contribution = vjp(tape, w)
            # The cotangent of a real-valued node is d(loss)/d(node), a real
            # quantity.  A complex consumer's vjp may hand back a complex
            # array whose imaginary part is meaningless for this node; drop
            # it here so it cannot re-enter complex arithmetic further back.
            if parent.value.dtype.kind != "c" and contribution.value.dtype.kind == "c":
                contribution = real(tape, contribution)
            previous = adjoints.get(parent.id)
            adjoints[parent.id] = (
                contribution if previous is None else add(tape, previous, contribution)
            )
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


# differences at most this large pass outright: finite-difference noise near
# exact zeros would otherwise dominate the relative error
_GRADCHECK_FLOOR = 1e-9


def gradcheck(
    f: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic: np.ndarray,
    step: float = 1e-5,
    tolerance: float = 1e-6,
) -> GradCheckReport:
    """Compare an ``analytic`` gradient of f at ``point`` to central
    differences of f, per coordinate.

    ``f`` maps a real array of the point's shape to a real scalar.  The
    relative error uses an absolute floor so exact zeros agree.  ``step``
    must be finite and > 0.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"gradcheck step must be finite and > 0, got {step}")
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    if analytic.shape != point.shape:
        raise ValueError(f"analytic gradient has shape {analytic.shape}, point {point.shape}")
    numeric = np.zeros_like(point)
    flat = point.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        up = f(bumped.reshape(point.shape))
        bumped[i] = flat[i] - step
        down = f(bumped.reshape(point.shape))
        numeric.reshape(-1)[i] = (up - down) / (2.0 * step)
    err = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _GRADCHECK_FLOOR)
    rel = np.where(err <= _GRADCHECK_FLOOR, 0.0, err / denom)
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
