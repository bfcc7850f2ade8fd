"""Point clouds and cutoff neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PointCloud", "Neighborhood", "build_neighborhood", "edge_index"]


@dataclass(frozen=True)
class PointCloud:
    """Atom positions (N x 3) and integer species labels (N)."""

    positions: np.ndarray
    species: np.ndarray

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        species = np.asarray(self.species, dtype=int)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        if positions.shape[0] < 1:
            raise ValueError("a point cloud needs at least one atom")
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            bad = np.flatnonzero(~finite).tolist()
            raise ValueError(f"positions must be finite; atoms {bad} are not")
        if species.shape != (positions.shape[0],):
            raise ValueError("species must be one integer per atom")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "species", species)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def displacement(self, o: int, i: int) -> np.ndarray:
        """x_oi = positions[i] - positions[o] (antisymmetric in o, i)."""
        return self.positions[i] - self.positions[o]


@dataclass(frozen=True)
class Neighborhood:
    """Per-atom sorted neighbor lists within a cutoff radius."""

    cutoff: float
    lists: tuple[tuple[int, ...], ...]

    def neighbors(self, o: int) -> tuple[int, ...]:
        return self.lists[o]


def build_neighborhood(pc: PointCloud, cutoff: float) -> Neighborhood:
    """Exact all-pairs adjacency: i in N(o) iff 0 < |x_oi| <= cutoff.

    Brute-force O(N^2); lists are sorted ascending and symmetric by
    construction.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    pos = pc.positions
    delta = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt(np.sum(delta * delta, axis=-1))
    within = dist <= cutoff
    np.fill_diagonal(within, False)
    lists = tuple(tuple(int(i) for i in np.nonzero(row)[0]) for row in within)
    return Neighborhood(cutoff=float(cutoff), lists=lists)


def edge_index(nbr: Neighborhood) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (src o, dst i), ordered by o then i ascending."""
    src, dst = [], []
    for o, members in enumerate(nbr.lists):
        for i in members:
            src.append(o)
            dst.append(i)
    return np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
