"""Complex spherical harmonics with analytic position Jacobians.

``sph_values`` serves the eager path and is the oracle for the taped
harmonics, which ``features.taped_edge_harmonics`` records as a fusion chain
of Y^1.  ``sph_jacobian`` has no caller in the model; it stays because the
benchmark's tracer (``perfbench/spans.py``) times it by name.

Y^j_m uses the Condon-Shortley phase and L2 normalization, components
ordered m = -j .. +j.  Under the package's rotation convention they satisfy
Y(R x) = D^j(g) Y(x) with R = rotation_matrix(g).

Everything is evaluated through polynomials in the unit vector: with
u = x/|x| and Q_l^m the m-th derivative of the Legendre polynomial P_l,

    Y_l^m(u)  = (-1)^m K_lm Q_l^m(u_z) (u_x + i u_y)^m      (m >= 0)
    Y_l^{-m}(u) =        K_lm Q_l^m(u_z) (u_x - i u_y)^m    (m > 0)

with K_lm = sqrt((2l+1)(l-m)! / (4 pi (l+m)!)).  This form is smooth at the
poles, and its u-gradient only needs the same Q table one order higher.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroVector
from .irreps import IrrepVector
from .spins import Spin, dim

__all__ = ["spherical_harmonics", "sph_values", "sph_jacobian"]

_NORM_EPS = 1e-12


def _legendre_derivative_table(l_max: int, t: np.ndarray) -> list[list[np.ndarray]]:
    """q[l][m] = (d/dt)^m P_l(t), for l <= l_max, m <= l_max + 1."""
    shape = np.shape(t)
    zero = np.zeros(shape)
    width = l_max + 2  # the Jacobian needs one derivative order beyond m = l
    q = [[np.ones(shape)] + [zero] * (width - 1)]
    if l_max >= 1:
        q.append([np.asarray(t, dtype=float), np.ones(shape)] + [zero] * (width - 2))
    for l in range(1, l_max):
        row = []
        for m in range(width):
            below = q[l][m - 1] if m >= 1 else zero
            term = (2 * l + 1) * (t * q[l][m] + m * below) - l * q[l - 1][m]
            row.append(term / (l + 1))
        q.append(row)
    return q


def _unit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=-1)
    if np.any(norms < _NORM_EPS):
        raise ZeroVector("cannot take the direction of a (near-)zero 3-vector")
    return x / norms[..., None], norms


def _prefactors(l: int) -> np.ndarray:
    """K_lm for m = 0..l."""
    return np.array(
        [
            math.sqrt(
                (2 * l + 1) * math.factorial(l - m) / (4.0 * math.pi * math.factorial(l + m))
            )
            for m in range(l + 1)
        ]
    )


def sph_values(x: np.ndarray, two_j: int) -> np.ndarray:
    """Y^j_m(x/|x|) for a batch of 3-vectors; shape (..., 2j+1)."""
    if two_j % 2 != 0:
        raise ValueError("spherical harmonics need an integer spin")
    x = np.asarray(x, dtype=float)
    u, _ = _unit(x)
    l = two_j // 2
    table = _legendre_derivative_table(l, u[..., 2])
    k = _prefactors(l)
    plus = u[..., 0] + 1j * u[..., 1]
    minus = u[..., 0] - 1j * u[..., 1]
    out = np.empty(u.shape[:-1] + (dim(two_j),), dtype=complex)
    out[..., l] = k[0] * table[l][0]
    for m in range(1, l + 1):
        sign = -1.0 if m % 2 else 1.0
        out[..., l + m] = sign * k[m] * table[l][m] * plus**m
        out[..., l - m] = k[m] * table[l][m] * minus**m
    return out


def sph_jacobian(x: np.ndarray, two_j: int) -> np.ndarray:
    """d Y^j_m / d x_k for a batch of 3-vectors; shape (..., 2j+1, 3)."""
    if two_j % 2 != 0:
        raise ValueError("spherical harmonics need an integer spin")
    x = np.asarray(x, dtype=float)
    u, norms = _unit(x)
    l = two_j // 2
    table = _legendre_derivative_table(l, u[..., 2])
    k = _prefactors(l)
    plus = u[..., 0] + 1j * u[..., 1]
    minus = u[..., 0] - 1j * u[..., 1]
    # Gradient with respect to the unit vector u.
    grad_u = np.zeros(u.shape[:-1] + (dim(two_j), 3), dtype=complex)
    grad_u[..., l, 2] = k[0] * table[l][1]
    for m in range(1, l + 1):
        sign = -1.0 if m % 2 else 1.0
        plus_pow = plus ** (m - 1)
        minus_pow = minus ** (m - 1)
        grad_u[..., l + m, 0] = sign * k[m] * table[l][m] * m * plus_pow
        grad_u[..., l + m, 1] = sign * k[m] * table[l][m] * m * plus_pow * 1j
        grad_u[..., l + m, 2] = sign * k[m] * table[l][m + 1] * plus_pow * plus
        grad_u[..., l - m, 0] = k[m] * table[l][m] * m * minus_pow
        grad_u[..., l - m, 1] = -1j * k[m] * table[l][m] * m * minus_pow
        grad_u[..., l - m, 2] = k[m] * table[l][m + 1] * minus_pow * minus
    # Chain through u = x / |x|:  du_a/dx_k = (delta_ak - u_a u_k) / |x|.
    proj = (np.eye(3) - u[..., :, None] * u[..., None, :]) / norms[..., None, None]
    return np.einsum("...ma,...ak->...mk", grad_u, proj)


def spherical_harmonics(x, j_max: Spin | int) -> list[IrrepVector]:
    """Unit-channel irrep vectors [Y^0, Y^1, ..., Y^{j_max}] of one 3-vector."""
    two_j_max = j_max.twice_j if isinstance(j_max, Spin) else int(j_max)
    x = np.asarray(x, dtype=float).reshape(3)
    return [
        IrrepVector(Spin(two_j), sph_values(x, two_j)[:, None])
        for two_j in range(0, two_j_max + 1, 2)
    ]
