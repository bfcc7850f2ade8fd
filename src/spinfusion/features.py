"""Edge features: spherical harmonics of displacements scaled by a smooth
radial basis.

The radial basis uses Gaussian bumps with centers evenly spaced on
(0, cutoff], width equal to the spacing, multiplied by the cosine envelope
0.5 * (1 + cos(pi * d / cutoff)) which vanishes exactly at the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ad
from .cg import cg_tensor
from .errors import ZeroVector
from .geometry import Neighborhood, PointCloud, edge_index
from .harmonics import sph_values
from .irreps import Activation

__all__ = [
    "EdgeFeature",
    "radial_centers",
    "radial_basis",
    "edge_features",
    "taped_distances",
    "taped_radial_basis",
    "taped_edge_harmonics",
]

_MIN_LENGTH = 1e-12  # shorter edges have no direction (coincident atoms)
_POLE = np.array([0.0, 0.0, 1.0])
_Y00 = sph_values(_POLE, 0)[0]  # the same in every direction
_Y1_MATRIX = sph_values(np.eye(3), 2)  # Y^1(u) = u @ M: row k is Y^1 of axis k


@dataclass(frozen=True)
class EdgeFeature:
    """Per-edge equivariant feature bundle.

    ``activation``: spins 0..j_max with radial channels, part[m, c] =
    Y^j_m(unit displacement) * basis_c(distance).
    ``harmonics``: the bare single-channel spherical harmonics.
    ``basis``: the radial basis row (with envelope).
    """

    activation: Activation
    harmonics: Activation
    basis: np.ndarray


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
    """|x| along the last axis of an (E, 3) node -> (E,) node; ZeroVector on
    a zero length (coincident atoms), which has no direction."""
    n_rows = displacements.shape[0]
    squares = ad.reduce_to_shape(
        tape, ad.mul(tape, displacements, displacements), (n_rows, 1)
    )
    distances = ad.sqrt(tape, ad.reshape(tape, squares, (n_rows,)))
    if np.any(distances.value < _MIN_LENGTH):
        raise ZeroVector("coincident atoms give zero-length edges")
    return distances


def taped_radial_basis(
    tape: ad.Tape, distances: ad.Node, cutoff: float, n_channels: int
) -> ad.Node:
    """(E,) distances -> (E, n_channels) basis values, differentiably."""
    centers, width = radial_centers(cutoff, n_channels)
    n_rows = distances.shape[0]
    column = ad.reshape(tape, distances, (n_rows, 1))
    offset = ad.sub(tape, column, tape.constant(centers))
    gauss = ad.exp(
        tape, ad.scale(tape, ad.mul(tape, offset, offset), -1.0 / (2.0 * width**2))
    )
    envelope = ad.scale(
        tape,
        ad.add(tape, ad.cos(tape, ad.scale(tape, column, np.pi / cutoff)), 1.0),
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
    """Spin -> (E, 2j+1) spherical-harmonic nodes for integer j <= j_max.

    A fusion chain of Y^1, recorded with ordinary primitives so that every
    order of position derivative is exact: Y^0 is a constant, Y^1 the unit
    displacement (``distances`` from ``taped_distances``) times a fixed
    matrix, and each higher spin one ``einsum3`` of Y^1 with the spin below.
    """
    n_rows = displacements.shape[0]
    harmonics = {0: tape.constant(np.full((n_rows, 1), _Y00))}
    if j_max == 0:
        return harmonics
    unit = ad.div(tape, displacements, ad.reshape(tape, distances, (n_rows, 1)))
    harmonics[2] = ad.matmul(tape, unit, _Y1_MATRIX)
    for two_j in range(4, 2 * j_max + 1, 2):
        harmonics[two_j] = ad.einsum3(
            tape, _chain_tensor(two_j), harmonics[2], harmonics[two_j - 2], "abc,ea,eb->ec"
        )
    return harmonics


def edge_features(
    pc: PointCloud, nbr: Neighborhood, j_max: int, radial_channels: int
) -> dict[tuple[int, int], EdgeFeature]:
    """Per-edge features for every directed edge (o, i), i in N(o)."""
    src, dst = edge_index(nbr)
    features: dict[tuple[int, int], EdgeFeature] = {}
    if src.size == 0:
        return features
    displacements = pc.positions[dst] - pc.positions[src]
    lengths = np.sqrt(np.sum(displacements**2, axis=-1))
    if np.any(lengths < _MIN_LENGTH):
        raise ZeroVector("coincident atoms give zero-length edges")
    basis = radial_basis(lengths, nbr.cutoff, radial_channels)
    harmonic_values = {
        2 * j: sph_values(displacements, 2 * j) for j in range(j_max + 1)
    }
    for e, (o, i) in enumerate(zip(src, dst)):
        parts = {}
        bare = {}
        for two_j, values in harmonic_values.items():
            column = values[e][:, None]
            parts[two_j] = column * basis[e][None, :]
            bare[two_j] = column
        features[(int(o), int(i))] = EdgeFeature(
            activation=Activation(parts),
            harmonics=Activation(bare),
            basis=basis[e].copy(),
        )
    return features
