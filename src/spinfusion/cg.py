"""Clebsch-Gordan coefficients and tensors (Condon-Shortley phase).

Coefficients come from Racah's closed-form sum evaluated with exact
big-integer factorials; the only floating-point step is the final square
root.  Tensors are indexed ``coeffs[ma, mb, mc]`` with every magnetic axis
ordered ascending ``m = -j .. +j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InadmissibleTriple
from .spins import Spin, _two, admissible, dim

__all__ = ["CGTensor", "cg_coefficient", "cg_tensor"]


def _fact(twice: int) -> int:
    """(twice/2)! for an even non-negative twice-integer."""
    assert twice >= 0 and twice % 2 == 0
    return math.factorial(twice // 2)


def cg_coefficient(ja, ma, jb, mb, jc, mc) -> float:
    """<ja ma; jb mb | jc mc> with the Condon-Shortley phase.

    Spins may be ``Spin`` instances or twice-integers (2j); magnetic
    indices are twice-integers (2m).  Returns 0.0 for selection-rule-violating
    or inadmissible triples rather than raising.
    """
    two_ja, two_jb, two_jc = _two(ja), _two(jb), _two(jc)
    two_ma, two_mb, two_mc = int(ma), int(mb), int(mc)
    for two_j, two_m in ((two_ja, two_ma), (two_jb, two_mb), (two_jc, two_mc)):
        if abs(two_m) > two_j or (two_m - two_j) % 2 != 0:
            return 0.0
    if two_ma + two_mb != two_mc or not admissible(two_ja, two_jb, two_jc):
        return 0.0

    # Racah's closed form.  Every factorial argument below is an even
    # twice-integer, so all arithmetic is exact until the final sqrt.
    prefactor = Fraction(
        (two_jc + 1)
        * _fact(two_ja + two_jb - two_jc)
        * _fact(two_ja - two_jb + two_jc)
        * _fact(-two_ja + two_jb + two_jc)
        * _fact(two_ja + two_ma)
        * _fact(two_ja - two_ma)
        * _fact(two_jb + two_mb)
        * _fact(two_jb - two_mb)
        * _fact(two_jc + two_mc)
        * _fact(two_jc - two_mc),
        _fact(two_ja + two_jb + two_jc + 2),
    )

    k_min = max(0, two_jb - two_jc - two_ma, two_ja + two_mb - two_jc) // 2
    k_max = min(two_ja + two_jb - two_jc, two_ja - two_ma, two_jb + two_mb) // 2
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            math.factorial(k)
            * _fact(two_ja + two_jb - two_jc - 2 * k)
            * _fact(two_ja - two_ma - 2 * k)
            * _fact(two_jb + two_mb - 2 * k)
            * _fact(two_jc - two_jb + two_ma + 2 * k)
            * _fact(two_jc - two_ja - two_mb + 2 * k)
        )
        total += Fraction(-1 if k % 2 else 1, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(prefactor * total * total))


@dataclass(frozen=True)
class CGTensor:
    """Dense CG tensor C^(ja,jb,jc) with coeffs[ma, mb, mc], m ascending."""

    ja: Spin
    jb: Spin
    jc: Spin
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        expected = (self.ja.dim, self.jb.dim, self.jc.dim)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")

    def as_matrix(self) -> np.ndarray:
        """Flatten to shape (dim_a * dim_b, dim_c); rows ordered (ma, mb)."""
        return self.coeffs.reshape(self.ja.dim * self.jb.dim, self.jc.dim)


_cache: dict[tuple[int, int, int], CGTensor] = {}


def cg_tensor(ja, jb, jc) -> CGTensor:
    """Dense CG tensor for an admissible triple; cached by (2ja, 2jb, 2jc).

    Raises InadmissibleTriple when the triangle/integrality rule fails.
    """
    key = (_two(ja), _two(jb), _two(jc))
    tensor = _cache.get(key)
    if tensor is not None:
        return tensor
    two_ja, two_jb, two_jc = key
    if not admissible(two_ja, two_jb, two_jc):
        raise InadmissibleTriple(
            f"(ja, jb, jc) = ({Spin(two_ja)}, {Spin(two_jb)}, {Spin(two_jc)}) "
            "violates the triangle/integrality rule"
        )
    coeffs = np.zeros((dim(two_ja), dim(two_jb), dim(two_jc)))
    for a, two_ma in enumerate(range(-two_ja, two_ja + 1, 2)):
        for b, two_mb in enumerate(range(-two_jb, two_jb + 1, 2)):
            two_mc = two_ma + two_mb
            if abs(two_mc) <= two_jc:
                c = (two_mc + two_jc) // 2
                coeffs[a, b, c] = cg_coefficient(
                    two_ja, two_ma, two_jb, two_mb, two_jc, two_mc
                )
    coeffs.setflags(write=False)
    tensor = CGTensor(Spin(two_ja), Spin(two_jb), Spin(two_jc), coeffs)
    return _cache.setdefault(key, tensor)
