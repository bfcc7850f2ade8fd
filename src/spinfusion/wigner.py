"""Wigner rotation matrices for spin-j irreps.

Matrix elements follow D^j_{m',m}(g) = e^{-i m' alpha} d^j_{m',m}(beta)
e^{-i m gamma} with both magnetic axes ordered ascending m = -j .. +j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rotations import Rotation
from .spins import Spin, _two, dim

__all__ = ["WignerD", "wigner_small_d", "wigner_D"]


def wigner_small_d(j: Spin | int, beta: float) -> np.ndarray:
    """Real orthogonal little-d matrix d^j(beta) via the factorial sum.

    d^j_{m',m}(beta) = sum_s (-1)^{m'-m+s}
        sqrt[(j+m')! (j-m')! (j+m)! (j-m)!]
        / [(j+m-s)! s! (m'-m+s)! (j-m'-s)!]
        * cos(beta/2)^{2j+m-m'-2s} * sin(beta/2)^{m'-m+2s}
    """
    two_j = _two(j)
    n = dim(two_j)
    cos_half, sin_half = math.cos(0.5 * beta), math.sin(0.5 * beta)
    out = np.zeros((n, n))
    for row, two_mp in enumerate(range(-two_j, two_j + 1, 2)):
        for col, two_m in enumerate(range(-two_j, two_j + 1, 2)):
            f_mp_plus = math.factorial((two_j + two_mp) // 2)
            f_mp_minus = math.factorial((two_j - two_mp) // 2)
            f_m_plus = math.factorial((two_j + two_m) // 2)
            f_m_minus = math.factorial((two_j - two_m) // 2)
            scale = math.sqrt(f_mp_plus * f_mp_minus * f_m_plus * f_m_minus)
            s_min = max(0, (two_m - two_mp) // 2)
            s_max = min((two_j + two_m) // 2, (two_j - two_mp) // 2)
            total = 0.0
            for s in range(s_min, s_max + 1):
                cos_pow = two_j + (two_m - two_mp) // 2 - 2 * s
                sin_pow = (two_mp - two_m) // 2 + 2 * s
                denom = (
                    math.factorial((two_j + two_m) // 2 - s)
                    * math.factorial(s)
                    * math.factorial((two_mp - two_m) // 2 + s)
                    * math.factorial((two_j - two_mp) // 2 - s)
                )
                sign = -1.0 if ((two_mp - two_m) // 2 + s) % 2 else 1.0
                total += sign * cos_half**cos_pow * sin_half**sin_pow / denom
            out[row, col] = scale * total
    return out


@dataclass(frozen=True)
class WignerD:
    """The (2j+1)-dimensional unitary matrix of a rotation."""

    j: Spin
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.j.dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")


def _su2_from_quaternion(q) -> np.ndarray:
    """Spin-1/2 matrix of a unit quaternion, basis m = (-1/2, +1/2).

    This is the lift matching the package's representation convention:
    for q = (cos t/2, sin t/2 * n) it equals wigner_D(1/2, g) for the
    rotation g whose rotation_matrix is the standard matrix of q.
    """
    w, x, y, z = q
    return np.array([[w - 1j * z, y + 1j * x], [-y + 1j * x, w + 1j * z]])


def _euler_matrix(two_j: int, g: Rotation) -> np.ndarray:
    m_axis = np.arange(-two_j, two_j + 1, 2) / 2.0
    left = np.exp(-1j * m_axis * g.alpha)
    right = np.exp(-1j * m_axis * g.gamma)
    return left[:, None] * wigner_small_d(two_j, g.beta) * right[None, :]


def wigner_D(j: Spin | int, g: Rotation) -> WignerD:
    """D^j(g), unitary, a homomorphism under ``rotations.compose``.

    For half-integer j the Euler angles alone determine the matrix only up to
    the SU(2) sign; when g carries its quaternion the sign is fixed so that
    D^{1/2} agrees with the exact quaternion representation, which makes the
    homomorphism hold exactly for all j.
    """
    two_j = _two(j)
    matrix = _euler_matrix(two_j, g)
    if two_j % 2 == 1 and g.quaternion is not None:
        lift = _su2_from_quaternion(g.quaternion)
        euler_half = _euler_matrix(1, g) if two_j != 1 else matrix
        if np.real(np.trace(lift.conj().T @ euler_half)) < 0.0:
            matrix = -matrix
    return WignerD(Spin(two_j), matrix)
