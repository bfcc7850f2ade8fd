"""Edge features: spherical harmonics of displacements scaled by a smooth
radial basis.

The radial basis uses Gaussian bumps with centers evenly spaced on
(0, cutoff], width equal to the spacing, multiplied by the cosine envelope
0.5 * (1 + cos(pi * d / cutoff)) which vanishes exactly at the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ZeroVector
from .geometry import Neighborhood, PointCloud, edge_index
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
    """|x| along the last axis of an (E, 3) node -> (E,) node."""
    n_rows = displacements.shape[0]
    squares = ad.reduce_to_shape(
        tape, ad.mul(tape, displacements, displacements), (n_rows, 1)
    )
    return ad.sqrt(tape, ad.reshape(tape, squares, (n_rows,)))


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


def taped_edge_harmonics(
    tape: ad.Tape, displacements: ad.Node, j_max: int
) -> dict[int, ad.Node]:
    """Spin -> (E, 2j+1) spherical-harmonic nodes for integer j <= j_max."""
    return {
        2 * j: ad.spherical(tape, displacements, 2 * j) for j in range(j_max + 1)
    }


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
    if np.any(lengths < 1e-12):
        raise ZeroVector("coincident atoms give zero-length edges")
    basis = radial_basis(lengths, nbr.cutoff, radial_channels)

    from .harmonics import sph_values

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
