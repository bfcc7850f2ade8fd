"""Irrep-valued feature containers: single-spin vectors and direct sums."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelMismatch, SpinMismatch
from .spins import Spin, _two, dim

__all__ = ["IrrepVector", "Activation"]


@dataclass(frozen=True)
class IrrepVector:
    """Complex components of one spin-j feature: shape (2j+1, channels).

    The m axis is ordered ascending -j .. +j, matching WignerD rows.
    """

    spin: Spin
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != self.spin.dim:
            raise ValueError(
                f"data shape {data.shape} invalid for spin {self.spin} "
                f"(expected ({self.spin.dim}, channels))"
            )
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    def rotate(self, d_matrix: np.ndarray) -> "IrrepVector":
        """Apply a (2j+1)x(2j+1) representation matrix to the m axis."""
        if d_matrix.shape != (self.spin.dim, self.spin.dim):
            raise SpinMismatch(
                f"rotation matrix shape {d_matrix.shape} does not match spin {self.spin}"
            )
        return IrrepVector(self.spin, d_matrix @ self.data)


class Activation:
    """Direct sum of irrep vectors keyed by spin.

    Channel counts may differ between spins (e.g. the output of a CG
    product nonlinearity before mixing); ``channels`` asserts uniformity
    and is what diagram contraction checks against.
    """

    def __init__(self, parts: dict[int, np.ndarray] | dict[Spin, IrrepVector]):
        normalized: dict[int, np.ndarray] = {}
        for key, value in parts.items():
            two_j = _two(key)
            data = value.data if isinstance(value, IrrepVector) else np.asarray(value, dtype=complex)
            if data.ndim != 2 or data.shape[0] != dim(two_j):
                raise ValueError(f"part for spin {Spin(two_j)} has shape {data.shape}")
            if two_j in normalized:
                raise ValueError(f"duplicate part for spin {Spin(two_j)}")
            normalized[two_j] = data
        self._parts = {two_j: normalized[two_j] for two_j in sorted(normalized)}

    @property
    def spins(self) -> list[int]:
        """Twice-spin keys, ascending."""
        return list(self._parts)

    @property
    def channels(self) -> int:
        """The common channel count; raises when parts disagree."""
        counts = {data.shape[1] for data in self._parts.values()}
        if len(counts) > 1:
            raise ChannelMismatch(f"parts disagree on channel count: {sorted(counts)}")
        return next(iter(self._parts.values())).shape[1] if self._parts else 0

    def part(self, two_j: int) -> np.ndarray:
        return self._parts[_two(two_j)]

    def __contains__(self, two_j) -> bool:
        return _two(two_j) in self._parts

    def rotate(self, g) -> "Activation":
        """Rotate every part by its Wigner matrix."""
        from .wigner import wigner_D

        return Activation(
            {two_j: wigner_D(two_j, g).matrix @ data for two_j, data in self._parts.items()}
        )

    def __repr__(self) -> str:
        spins = ", ".join(str(Spin(two_j)) for two_j in self._parts)
        counts = sorted({data.shape[1] for data in self._parts.values()})
        label = counts[0] if len(counts) == 1 else counts
        return f"Activation(spins=[{spins}], channels={label})"
