"""Fusion blocks: apply a collection of fusion diagrams, aggregate over
index-aligned input multisets, concatenate per-diagram outputs along a new
channel axis, and mix with a learned real matrix, a plain 2-D array that
acts on the channel axis only (never on m).

All diagrams in a block share the same root spin, so their outputs
concatenate; each reads its own slots, and the block reads their union.  A
slot may be given either a single input or a list of inputs to aggregate
over; every listed slot must have the same length, and aggregation sums
each diagram over the index-aligned tuples in ascending order (a
deterministic symmetric reduction, so reordering the tuples moves the
result only by floating-point reassociation).

A block file stores the mixing as a recipe, its shape and either
``"uniform"`` with a seed (``uniform_mixing``) or ``"identity"``;
``block_from_json`` builds the matrix from it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .diagrams import FusionDiagram, contract, diagram_from_json
from .errors import (
    ChannelMismatch, EmptyDiagramSet, SpinMismatch, check_json, check_json_number, json_field
)
from .irreps import Activation, IrrepVector
from .spins import Spin, dim

__all__ = [
    "AggregationKind",
    "FusionBlockConfig",
    "uniform_mixing",
    "apply",
    "block_from_json",
]


class AggregationKind(enum.Enum):
    """Symmetric aggregation over a multiset of contraction outputs."""

    SUM = "sum"


def uniform_mixing(rows: int, cols: int, seed: int) -> np.ndarray:
    """Entries i.i.d. uniform in [-s, s] with s = rows**-0.5 (variance-preserving)."""
    scale = rows ** -0.5
    return np.random.default_rng(seed).uniform(-scale, scale, size=(rows, cols))


@dataclass
class FusionBlockConfig:
    """The diagram collection, the aggregation, and the mixing stage: a
    (concatenated channels, output channels) real matrix."""

    diagrams: tuple[FusionDiagram, ...]
    aggregation: AggregationKind = AggregationKind.SUM
    mixing: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.diagrams = tuple(self.diagrams)
        if not self.diagrams:
            raise EmptyDiagramSet("a fusion block needs at least one diagram")
        roots = {d.two_J for d in self.diagrams}
        if len(roots) != 1:
            raise ValueError(f"diagrams disagree on root spin: {sorted(roots)}")
        if self.mixing is None:
            raise ValueError("a fusion block needs a mixing matrix")
        self.mixing = np.asarray(self.mixing, dtype=float)
        if self.mixing.ndim != 2:
            raise ValueError(f"mixing weights must be a matrix, got shape {self.mixing.shape}")

    @property
    def two_J(self) -> int:
        return self.diagrams[0].two_J

    @property
    def slots(self) -> tuple[int, ...]:
        """Every slot a diagram reads, ascending."""
        return tuple(sorted({slot for d in self.diagrams for slot in d.slots}))


def _entry_channels(entry) -> int:
    if isinstance(entry, (IrrepVector, Activation)):
        return entry.channels
    raise TypeError(f"expected IrrepVector or Activation, got {type(entry)!r}")


def apply(cfg: FusionBlockConfig, input_sets) -> IrrepVector:
    """Aggregate-concatenate-mix over the block's diagram collection.

    ``input_sets`` holds, per slot index, either one input (IrrepVector or
    multi-spin Activation) or a list of inputs to aggregate over.  Listed
    slots are index-aligned and must share a length.
    """
    slots = cfg.slots
    fixed: dict[int, object] = {}
    aggregated: dict[int, list] = {}
    for slot in slots:
        entry = input_sets[slot]
        if isinstance(entry, (list, tuple)):
            aggregated[slot] = list(entry)
        else:
            fixed[slot] = entry

    lengths = {len(v) for v in aggregated.values()}
    if len(lengths) > 1:
        raise ChannelMismatch(
            f"aggregated slots disagree on multiset size: {sorted(lengths)}"
        )
    n_agg = lengths.pop() if lengths else 0

    channel_counts = {_entry_channels(e) for e in fixed.values()}
    for members in aggregated.values():
        channel_counts.update(_entry_channels(e) for e in members)
    if len(channel_counts) > 1:
        raise ChannelMismatch(f"inputs disagree on channel count: {sorted(channel_counts)}")

    rows, cols = cfg.mixing.shape
    if channel_counts:
        channels = channel_counts.pop()
    else:
        channels = rows // len(cfg.diagrams)
    expected_rows = len(cfg.diagrams) * channels
    if rows != expected_rows:
        raise ChannelMismatch(
            f"mixing expects {rows} concatenated channels, inputs give {expected_rows}"
        )

    out_dim = dim(cfg.two_J)
    parts = []
    for d in cfg.diagrams:
        if aggregated:
            total = np.zeros((out_dim, channels), dtype=complex)
            for i in range(n_agg):
                per_slot = dict(fixed)
                for slot, members in aggregated.items():
                    per_slot[slot] = members[i]
                total = total + contract(d, per_slot).data
            parts.append(total)
        else:
            parts.append(contract(d, fixed).data)
    concatenated = np.concatenate(parts, axis=1)
    mixed = concatenated @ cfg.mixing
    return IrrepVector(Spin(cfg.two_J), mixed)


def block_from_json(text: str) -> FusionBlockConfig:
    payload = check_json(json.loads(text), dict, "a block")
    diagrams = tuple(
        diagram_from_json(json.dumps(d))
        for d in check_json(json_field(payload, "diagrams", "a block"), list, "diagrams")
    )
    mix = check_json(json_field(payload, "mixing", "a block"), dict, "mixing")
    unknown = set(mix) - {"rows", "cols", "init", "seed"}
    if unknown:
        raise ValueError(f"unknown mixing keys: {sorted(unknown)}")

    def integer_field(key: str) -> int:
        return check_json_number(json_field(mix, key, "mixing"), f"mixing {key}", integer=True)

    for key in ("rows", "cols"):
        if integer_field(key) < 1:
            raise ValueError(f"mixing {key} must be at least 1, got {mix[key]!r}")
    init = json_field(mix, "init", "mixing")
    if init == "identity":
        if mix["rows"] != mix["cols"]:
            raise ValueError("identity mixing must be square")
        if "seed" in mix:  # unread, but checked like every other field
            integer_field("seed")
        mixing = np.eye(mix["rows"])
    elif init == "uniform":
        mixing = uniform_mixing(mix["rows"], mix["cols"], integer_field("seed"))
    else:
        raise ValueError(f"unknown mixing init {init!r}")
    return FusionBlockConfig(
        diagrams=diagrams,
        aggregation=AggregationKind(payload.get("aggregation", "sum")),
        mixing=mixing,
    )
