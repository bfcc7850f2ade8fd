"""Outside-in spans over spinfusion's public functions.

The tracer replaces public functions with timing wrappers at the places
their callers look them up: the ``spinfusion.autodiff`` module globals
(which both the layers and the VJP closures resolve), ``PRIMITIVES``, and
every spinfusion module that imported a function by name (``model`` imports
``build_neighborhood`` and ``edge_index``, ``layers`` imports
``cg_tensor``).  ``Tape.__init__`` is wrapped too, so that each new tape's
node list counts the nodes a scan hands out.  Nothing inside the program
changes.

Each span records a name, a start, an end and its parent; spans stay in
memory until ``save``.  A span's self time is its duration minus the time
its child spans cover.  A primitive called inside ``backward`` belongs to
that backward's phase: ``force_backward`` when it differentiates with
respect to positions, ``param_backward`` when with respect to the model's
parameter nodes; outside any ``backward`` it is ``forward``.

Spans are recorded only between ``begin_op`` and ``end_op``; the CG cache
is watched all the time, so misses during set-up are counted too.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Metric names are fixed in BENCHMARK.json, so primitives registered later
# are pooled under "other".
PRIMITIVES = (
    "add", "sub", "mul", "div", "scale", "conj", "real", "imag", "complex_cast",
    "exp", "sqrt", "sin", "cos", "tanh", "reshape", "broadcast_to",
    "reduce_to_shape", "sum_all", "concat", "slice_axis", "pad_axis", "gather",
    "index_add", "einsum2", "einsum3", "channel_mix", "spherical",
)
LAYERS = {"taped_interaction_layer": "interaction", "taped_three_body_layer": "three_body"}
FEATURES = ("taped_distances", "taped_radial_basis", "taped_edge_harmonics")

_clock = time.perf_counter


def _two(spin) -> int:
    return int(getattr(spin, "twice_j", spin))


def einsum_cost(subscript: str, operands) -> tuple[int, int]:
    """(flops, bytes) of a dense einsum, from operand shapes only.

    flops counts, per point of the joint index space, one multiply per extra
    operand and one add; bytes is every operand read once plus the output
    written once.
    """
    lhs, out = subscript.split("->")
    extent: dict[str, int] = {}
    nbytes = 0
    for sub, operand in zip(lhs.split(","), operands):
        value = np.asarray(operand)
        nbytes += value.nbytes
        for letter, n in zip(sub, value.shape):
            extent[letter] = n
    points = int(np.prod(list(extent.values()), dtype=np.int64)) if extent else 1
    itemsize = max(np.asarray(op).itemsize for op in operands)
    out_size = int(np.prod([extent[c] for c in out], dtype=np.int64)) if out else 1
    return points * len(operands), nbytes + out_size * itemsize


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds, name]
        self.ops: list[dict] = []
        self._op = None
        self._tape = None
        self._param_ids: set[int] = set()
        self._param_backward_end = None
        self._einsum_costs: dict = {}
        self.scanned_nodes = 0  # tape nodes handed out by iteration or slicing
        self._restore: list = []  # (target, attr, original) for the layers
        self._restore_cg: list = []
        self.cg_seen: set[tuple[int, int, int]] = set()
        self.cg_misses = 0
        self.cg_miss_s = 0.0
        self.cg_warm_misses = 0

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str, start: float | None = None) -> None:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(_clock() if start is None else start)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0, name])

    def _exit(self, end: float | None = None) -> float:
        end = _clock() if end is None else end
        index, child, name = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][1] += duration
        op = self._op
        op["self_s"][name] += duration - child
        op["incl_s"][name] += duration
        op["calls"][name] += 1
        return duration

    # -- operations -----------------------------------------------------------

    def begin_op(self, start: float) -> None:
        self._op = {
            "self_s": defaultdict(float),
            "incl_s": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(int),
            "phase_s": defaultdict(float),
        }
        self._tape = None
        self._param_backward_end = None
        self._enter("op", start)
        self.enabled = True

    def end_op(self, end: float) -> None:
        """Close the operation at ``end``; tape statistics are taken after."""
        self.enabled = False
        if self._param_backward_end is not None:
            self._enter("training.adam", self._param_backward_end)
            self._op["phase_s"]["adam"] = self._exit(end)
        self._op["wall_s"] = self._exit(end)
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of an operation")
        counts = self._op["counts"]
        if self._tape is not None:
            nodes = self._tape.nodes
            counts["nodes.total"] = len(nodes)
            counts["tape_bytes"] = sum(getattr(n.value, "nbytes", 8) for n in nodes)
        self.ops.append(self._op)
        self._op = None

    def see_tape(self, tape, param_nodes: dict) -> None:
        self._tape = tape
        self._param_ids = {id(node) for node in param_nodes.values()}

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        """fn, run inside a span named ``name`` while an operation is traced."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def _einsum3_wrapper(self, fn):
        tracer = self

        def einsum3(tape, tensor, x, y, subscript):
            if not tracer.enabled:
                return fn(tape, tensor, x, y, subscript)
            tracer._enter("autodiff.einsum3")
            try:
                return fn(tape, tensor, x, y, subscript)
            finally:
                tracer._exit()
                x, y = getattr(x, "value", x), getattr(y, "value", y)
                key = (subscript, np.shape(tensor), np.shape(x), np.shape(y),
                       np.result_type(tensor, x, y))
                cost = tracer._einsum_costs.get(key)
                if cost is None:
                    cost = tracer._einsum_costs[key] = einsum_cost(subscript, (tensor, x, y))
                counts = tracer._op["counts"]
                counts["einsum3.flops"] += cost[0]
                counts["einsum3.bytes"] += cost[1]

        return einsum3

    def _backward_wrapper(self, fn):
        tracer = self

        def backward(tape, seed, wrt=None):
            if not tracer.enabled:
                return fn(tape, seed, wrt)
            params = wrt is not None and all(id(n) in tracer._param_ids for n in wrt)
            phase = "param_backward" if params else "force_backward"
            counts = tracer._op["counts"]
            before = len(tape.nodes)
            scanned = tracer.scanned_nodes
            tracer._enter("autodiff.backward")
            try:
                return fn(tape, seed, wrt)
            finally:
                duration = tracer._exit()
                tracer._op["phase_s"][phase] += duration
                counts[f"nodes.{phase}"] += len(tape.nodes) - before
                counts["backward.scanned_nodes"] += tracer.scanned_nodes - scanned
                if params:
                    tracer._param_backward_end = _clock()

        return backward

    def _counting_tape_init(self, init):
        """Tape.__init__ that swaps ``tape.nodes`` for a list counting the
        nodes it hands out, so a scan of the tape is observed, not inferred."""
        tracer = self

        class CountingNodes(list):
            __slots__ = ()

            def __iter__(self):
                for node in list.__iter__(self):
                    tracer.scanned_nodes += 1
                    yield node

            def __getitem__(self, index):
                items = list.__getitem__(self, index)
                if isinstance(index, slice):
                    tracer.scanned_nodes += len(items)
                return items

        def tape_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            tape.nodes = CountingNodes(tape.nodes)

        return tape_init

    def _layer_wrapper(self, kind: str, fn):
        tracer = self
        name = f"layers.{kind}"

        def layer(tape, *args, **kwargs):
            if not tracer.enabled:
                return fn(tape, *args, **kwargs)
            before = len(tape.nodes)
            tracer._enter(name)
            try:
                return fn(tape, *args, **kwargs)
            finally:
                tracer._exit()
                tracer._op["counts"][f"{name}.nodes"] += len(tape.nodes) - before

        return layer

    def _edge_index_wrapper(self, fn):
        tracer = self

        def edge_index(nbr):
            if not tracer.enabled:
                return fn(nbr)
            tracer._enter("geometry.edge_index")
            try:
                src, dst = fn(nbr)
            finally:
                tracer._exit()
            tracer._op["counts"]["geometry.edges"] += len(src)
            return src, dst

        return edge_index

    def _cg_wrapper(self, fn):
        tracer = self

        def cg_tensor(ja, jb, jc):
            key = (_two(ja), _two(jb), _two(jc))
            miss = key not in tracer.cg_seen
            if tracer.enabled:
                tracer._enter("cg.cg_tensor")
            start = _clock()
            try:
                return fn(ja, jb, jc)
            finally:
                if miss:
                    tracer.cg_seen.add(key)
                    tracer.cg_misses += 1
                    tracer.cg_miss_s += _clock() - start
                if tracer.enabled:
                    tracer._exit()
                    tracer._op["counts"]["cg.tensor_calls"] += 1
                    tracer.cg_warm_misses += miss

        return cg_tensor

    # -- installation ---------------------------------------------------------

    def _patch(self, original, wrapper, restore=None) -> None:
        """Point every spinfusion module reference to ``original`` at ``wrapper``."""
        restore = self._restore if restore is None else restore
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("spinfusion"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))

    def install_cg(self) -> None:
        """Watch the CG cache only; call before the model is built."""
        from spinfusion import cg, diagrams, layers  # noqa: F401  (modules that import cg_tensor)

        self._patch(cg.cg_tensor, self._cg_wrapper(cg.cg_tensor), self._restore_cg)

    def install(self) -> None:
        """Wrap every traced layer.  The CG cache watch is separate, so that it
        stays on while the layers are unwrapped for untraced passes."""
        from spinfusion import autodiff, features, geometry, harmonics, layers, model

        for name in list(autodiff.PRIMITIVES):
            original = autodiff.PRIMITIVES[name]
            if name == "einsum3":
                wrapper = self._einsum3_wrapper(original)
            else:
                label = name if name in PRIMITIVES else "other"
                wrapper = self.span_wrapper(f"autodiff.{label}", original)
            self._patch(original, wrapper)
            self._restore.append((autodiff.PRIMITIVES, name, original))
            autodiff.PRIMITIVES[name] = wrapper
        self._patch(autodiff.backward, self._backward_wrapper(autodiff.backward))
        tape_init = autodiff.Tape.__init__
        self._restore.append((autodiff.Tape, "__init__", tape_init))
        autodiff.Tape.__init__ = self._counting_tape_init(tape_init)
        for name, kind in LAYERS.items():
            original = getattr(layers, name)
            self._patch(original, self._layer_wrapper(kind, original))
        for name in FEATURES:
            original = getattr(features, name)
            self._patch(original, self.span_wrapper(f"features.{name}", original))
        for name in ("sph_values", "sph_jacobian"):
            original = getattr(harmonics, name)
            self._patch(original, self.span_wrapper(f"harmonics.{name}", original))
        self._patch(
            geometry.build_neighborhood,
            self.span_wrapper("geometry.build_neighborhood", geometry.build_neighborhood),
        )
        self._patch(geometry.edge_index, self._edge_index_wrapper(geometry.edge_index))
        taped_forward = model.Model.taped_forward
        self._restore.append((model.Model, "taped_forward", taped_forward))
        model.Model.taped_forward = self.span_wrapper("model.taped_forward", taped_forward)

    @staticmethod
    def _undo(restore: list) -> None:
        for target, attr, original in reversed(restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        restore.clear()

    def uninstall(self) -> None:
        """Unwrap the layers that ``install`` wrapped."""
        self._undo(self._restore)

    def uninstall_cg(self) -> None:
        self._undo(self._restore_cg)

    # -- output ---------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span: name table, and per span name id, parent, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
