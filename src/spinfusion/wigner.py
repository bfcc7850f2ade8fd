"""Wigner rotation matrices for spin-j irreps.

D^{1/2}(g) is the SU(2) matrix of g's unit quaternion (w, x, y, z),

    u = [[w - i z, y + i x], [-y + i x, w + i z]],

and D^j(g) is the 2j-fold symmetric power of u, so D^j(g1 g2) = D^j(g1)
D^j(g2) holds for every spin, half-integers included.  Both magnetic axes are
ordered ascending m = -j .. +j.  The rotation by beta about y has the real
little-d matrix d^j(beta) as its D^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rotations import Rotation
from .spins import Spin, _two, dim

__all__ = ["WignerD", "wigner_D"]


@dataclass(frozen=True)
class WignerD:
    """The (2j+1)-dimensional unitary matrix of a rotation."""

    matrix: np.ndarray = field(repr=False)


def wigner_D(j: Spin | int, g: Rotation) -> WignerD:
    """D^j(g), unitary, a homomorphism under ``rotations.compose``.

    With a = j + m' and b = j + m, and p_st the power of u's entry in row s
    and column t (s, t = +, - for m = +1/2, -1/2),

        D^j_{m',m} = sqrt(a! (2j-a)! b! (2j-b)!) * sum prod_st u_st^p_st / p_st!

    over p_++ + p_+- = a, p_-+ + p_-- = 2j - a and p_++ + p_-+ = b.
    """
    two_j = _two(j)
    w, x, y, z = g.quaternion
    u_mm, u_mp, u_pm, u_pp = w - 1j * z, y + 1j * x, -y + 1j * x, w + 1j * z
    fact = [math.factorial(k) for k in range(two_j + 1)]
    out = np.zeros((dim(two_j), dim(two_j)), dtype=complex)
    for a in range(two_j + 1):
        for b in range(two_j + 1):
            total = 0j
            for p_pp in range(max(0, a + b - two_j), min(a, b) + 1):
                p_pm, p_mp = a - p_pp, b - p_pp
                p_mm = two_j - a - p_mp
                total += (
                    u_pp**p_pp * u_pm**p_pm * u_mp**p_mp * u_mm**p_mm
                    / (fact[p_pp] * fact[p_pm] * fact[p_mp] * fact[p_mm])
                )
            out[a, b] = math.sqrt(fact[a] * fact[two_j - a] * fact[b] * fact[two_j - b]) * total
    return WignerD(out)
