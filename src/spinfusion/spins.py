"""Spin labels stored exactly as twice their value.

A spin j may be a half-integer, so every public interface works with the
integer ``two_j = 2j``.  Magnetic indices m are stored the same way and run
ascending, ``m = -j .. +j``, everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Spin",
    "dim",
    "twice_m_range",
    "admissible",
    "allowed_couplings",
    "parse_spin",
    "format_spin",
]


@dataclass(frozen=True, order=True)
class Spin:
    """An SU(2) irrep label j, stored exactly as ``twice_j = 2j``."""

    twice_j: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_j, int):
            raise TypeError(f"twice_j must be int, got {type(self.twice_j).__name__}")
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be >= 0, got {self.twice_j}")

    @property
    def dim(self) -> int:
        """Dimension of the irrep, 2j + 1."""
        return self.twice_j + 1

    def __str__(self) -> str:
        return format_spin(self.twice_j)


def _two(value: Spin | int) -> int:
    """2j of a ``Spin`` or of a twice-spin integer."""
    return value.twice_j if isinstance(value, Spin) else int(value)


def dim(two_j: int) -> int:
    """Dimension 2j + 1 of the spin-j irrep."""
    return two_j + 1


def twice_m_range(two_j: int) -> range:
    """All 2m values for spin j, ascending -j .. +j."""
    return range(-two_j, two_j + 1, 2)


def admissible(two_ja: int, two_jb: int, two_jc: int) -> bool:
    """Triangle + integrality rule: |ja-jb| <= jc <= ja+jb, ja+jb+jc integer."""
    if (two_ja + two_jb + two_jc) % 2 != 0:
        return False
    return abs(two_ja - two_jb) <= two_jc <= two_ja + two_jb


def allowed_couplings(two_ja: int, two_jb: int) -> range:
    """All 2jc admissible with (ja, jb), ascending: |ja-jb| .. ja+jb."""
    return range(abs(two_ja - two_jb), two_ja + two_jb + 1, 2)


def parse_spin(text: str) -> int:
    """Parse a spin given as decimal (``1.5``) or rational (``3/2``) into 2j."""
    frac = Fraction(text.strip())
    two_j = frac * 2
    if two_j.denominator != 1:
        raise ValueError(f"spin must be integer or half-integer, got {text!r}")
    if two_j < 0:
        raise ValueError(f"spin must be non-negative, got {text!r}")
    return int(two_j)


def format_spin(two_j: int) -> str:
    """Render 2j as ``j`` for integer spins or ``p/2`` for half-integers."""
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"
