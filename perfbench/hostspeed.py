"""A fixed reference kernel that measures how fast the host runs right now.

The reference host's speed swings by up to 1.6x in spells of seconds to
minutes (see NOTES.md).  The timed loops run ``reference_s()`` untimed
before every operation and divide the times of each unit of work by the
reference times taken during it, so that a swing slows both alike and
cancels.  The kernel imports nothing from spinfusion, so a change to the
program cannot move it.  It mixes what the program's operations are made
of: Python-level object and closure traffic (tape nodes, VJP closures),
NumPy calls on tiny arrays, and NumPy einsum and scatter-add on arrays of a
few thousand rows.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Normalised times are stated in ms (or s) on a host where one reference
# kernel takes REFERENCE_MS; it is about what the kernel takes on the
# reference host in its fast mode.
REFERENCE_MS = 12.0


class _Node:
    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents, vjp):
        self.value = value
        self.parents = parents
        self.vjp = vjp


_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 3))
_A = _rng.standard_normal((6000, 4, 3)) + 1j * _rng.standard_normal((6000, 4, 3))
_B = _rng.standard_normal((6000, 3, 5))
_INDEX = _rng.integers(0, 800, size=6000)


def _kernel() -> float:
    """One pass of the reference work; returns a value so nothing is skipped."""
    nodes = []
    table = {}
    value = _SMALL
    for k in range(1500):
        scale = 1.0 + 1e-3 * (k % 7)
        value = np.tanh(value * scale) + 0.01
        node = _Node(value, tuple(nodes[-2:]), lambda g, s=scale: g * s)
        nodes.append(node)
        table[k] = node
    total = 0.0
    for node in reversed(nodes):
        total += node.vjp(1.0) + len(table) * 0.0
    mixed = np.einsum("eab,ebc->eac", _A, _B)
    target = np.zeros((800, 4, 5), dtype=complex)
    np.add.at(target, _INDEX, mixed)
    return total + float(np.abs(target).sum()) + float(value.sum())


def reference_s() -> float:
    """Wall time of one reference kernel, in seconds.

    The cyclic collector is off while the kernel runs.  The kernel frees
    every object it makes before it returns, so the collector's counts are
    left as they were: a collection that the program's own garbage is due
    stays in the program's next operation rather than moving into the
    kernel's untimed run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        _kernel()
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def normalised(times_s, reference_s) -> np.ndarray:
    """The times of one unit of work, in seconds on a host where the kernel
    takes REFERENCE_MS, given the reference times measured during the unit.

    The mean of a unit's reference times, taken evenly through the unit,
    follows the share of the unit the host spent in each of its modes.
    """
    return np.asarray(times_s, dtype=float) * (REFERENCE_MS / 1000.0) / np.mean(reference_s)
