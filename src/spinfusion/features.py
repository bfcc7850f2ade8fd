"""Edge features: spherical harmonics of displacements and a smooth radial
basis of their lengths, one row per directed edge in ``edge_index`` order.

The radial basis uses Gaussian bumps with centers evenly spaced on
(0, cutoff], width equal to the spacing, multiplied by the cosine envelope
0.5 * (1 + cos(pi * d / cutoff)) which vanishes exactly at the cutoff.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import autodiff as ad
from .cg import cg_tensor
from .errors import ZeroVector
from .geometry import Neighborhood, PointCloud, edge_index
from .harmonics import _MIN_LENGTH, sph_values

__all__ = [
    "radial_centers",
    "radial_basis",
    "edge_features",
    "taped_distances",
    "taped_radial_basis",
    "taped_edge_harmonics",
]

_POLE = np.array([0.0, 0.0, 1.0])
_Y00 = float(sph_values(_POLE, 0)[0].real)  # Y^0_0, the same in every direction
_Y1_MATRIX = sph_values(np.eye(3), 2)  # Y^1(u) = u @ M: row k is Y^1 of axis k


def radial_centers(cutoff: float, n_channels: int) -> tuple[np.ndarray, float]:
    """Centers evenly spaced on (0, cutoff]; width equals the spacing."""
    spacing = cutoff / n_channels
    centers = spacing * np.arange(1, n_channels + 1)
    return centers, spacing


def radial_basis(distances: np.ndarray, cutoff: float, n_channels: int) -> np.ndarray:
    """Gaussian bumps times the cosine cutoff envelope; zero at the cutoff."""
    distances = np.asarray(distances, dtype=float)
    centers, width = radial_centers(cutoff, n_channels)
    gauss = np.exp(-((distances[..., None] - centers) ** 2) / (2.0 * width**2))
    envelope = np.where(
        distances <= cutoff, 0.5 * (1.0 + np.cos(np.pi * distances / cutoff)), 0.0
    )
    return gauss * envelope[..., None]


# ---------------------------------------------------------------------------
# taped versions (vectorized over the edge axis)
# ---------------------------------------------------------------------------


def taped_distances(tape: ad.Tape, displacements: ad.Node) -> ad.Node:
    """|x| along the last axis of an (E, 3) node -> (E, 1) node, the column
    that ``taped_edge_harmonics`` divides by; ZeroVector on a zero length
    (coincident atoms), which has no direction."""
    squares = ad.reduce_to_shape(
        tape, ad.mul(tape, displacements, displacements), (displacements.shape[0], 1)
    )
    distances = ad.sqrt(tape, squares)
    if np.any(distances.value < _MIN_LENGTH):
        raise ZeroVector("coincident atoms give zero-length edges")
    return distances


def taped_radial_basis(
    tape: ad.Tape, distances: ad.Node, cutoff: float, n_channels: int
) -> ad.Node:
    """(E, 1) distances -> (E, 1, n_channels) basis values, differentiably:
    the spin-0 layout that the gate concatenates and the three-body edge
    embedding mixes."""
    centers, width = radial_centers(cutoff, n_channels)
    column = ad.reshape(tape, distances, (distances.shape[0], 1, 1))
    offset = ad.sub(tape, column, tape.constant(centers))
    gauss = ad.exp(
        tape, ad.scale(tape, ad.mul(tape, offset, offset), -1.0 / (2.0 * width**2))
    )
    envelope = ad.scale(
        tape,
        ad.add(tape, ad.cos(tape, ad.scale(tape, column, np.pi / cutoff)), tape.constant(1.0)),
        0.5,
    )
    return ad.mul(tape, gauss, envelope)


@cache
def _chain_tensor(two_j: int) -> np.ndarray:
    """c_j CG(1, j-1, j), with Y^j = c_j (Y^1 ⊗ Y^(j-1))_j; c_j is read off
    at the pole, where only m = 0 is nonzero.  Built once per spin, because
    ``einsum3`` caches its plans per array object."""
    coeffs = cg_tensor(2, two_j - 2, two_j).coeffs
    product = np.einsum("abc,a,b->c", coeffs, sph_values(_POLE, 2), sph_values(_POLE, two_j - 2))
    m0 = two_j // 2
    tensor = coeffs * (sph_values(_POLE, two_j)[m0] / product[m0]).real
    tensor.setflags(write=False)
    return tensor


def taped_edge_harmonics(
    tape: ad.Tape, displacements: ad.Node, distances: ad.Node, j_max: int
) -> dict[int, ad.Node]:
    """Spin -> (E, 2j+1) spherical-harmonic nodes for integer 1 <= j <=
    j_max, ``{}`` at j_max 0: Y^0 is the constant ``_Y00``, not a node.

    A fusion chain of Y^1, recorded with ordinary primitives so that every
    order of position derivative is exact: Y^1 is the unit displacement
    (divided by the (E, 1) ``taped_distances``) times a fixed matrix, and
    each higher spin one ``einsum3`` of Y^1 with the spin below.
    """
    harmonics: dict[int, ad.Node] = {}
    if j_max == 0:
        return harmonics
    unit = ad.div(tape, displacements, distances)
    harmonics[2] = ad.channel_mix(tape, unit, tape.constant(_Y1_MATRIX))
    for two_j in range(4, 2 * j_max + 1, 2):
        harmonics[two_j] = ad.einsum3(
            tape, _chain_tensor(two_j), harmonics[2], harmonics[two_j - 2], "abc,ea,eb->ec"
        )
    return harmonics


def edge_features(
    pc: PointCloud, nbr: Neighborhood, j_max: int, radial_channels: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Every directed edge's layer-independent inputs, which each layer
    weights itself, as (harmonics, basis), one row per edge in
    ``edge_index`` order: ``harmonics`` maps 2j to the (E, 2j+1) spherical
    harmonics of the displacements, spins 1..j_max (Y^0 is the constant
    ``_Y00``, which the layers fold into fixed factors), and ``basis`` is
    the (E, radial_channels) radial basis (with envelope)."""
    src, dst = edge_index(nbr)
    displacements = pc.positions[dst] - pc.positions[src]
    lengths = np.sqrt(np.sum(displacements**2, axis=-1))
    if np.any(lengths < _MIN_LENGTH):
        raise ZeroVector("coincident atoms give zero-length edges")
    harmonics = {2 * j: sph_values(displacements, 2 * j) for j in range(1, j_max + 1)}
    return harmonics, radial_basis(lengths, nbr.cutoff, radial_channels)
