"""Point clouds and cutoff neighborhoods.

``build_neighborhood`` finds every directed pair (o, i), i != o, with
|x_i - x_o| <= cutoff by a cell list.  Atoms are binned into cubic cells
of side slightly above the cutoff, so that a neighbor of an atom lies in
its own cell or one of the 26 around it.  Occupied cells get integer keys
(empty stretches of space are squeezed out first, so the keys stay below
about 8 N^3 however far apart the atoms are), the atoms are sorted by key, and
each atom's candidates are read from its 27 cells with ``searchsorted``
and ``repeat``, with no Python loop over atoms or edges.  Each candidate is
kept by the exact test of the all-pairs definition.  An optional per-atom
group id joins the first cell coordinate, with distinct groups never in
adjacent cells, so a batch of samples is searched at once and no edge joins
two samples.

A ``Neighborhood`` stores the edges as (src, dst) arrays ordered by src,
then dst.  ``edge_index`` returns them as they are, and ``lists``, the
per-atom neighbor tuples, is derived from them on first use.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, check_integers

__all__ = ["PointCloud", "Neighborhood", "build_neighborhood", "edge_index"]

# the 27 cell offsets (dx, dy, dz) of a cell and its neighbors
_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


@dataclass(frozen=True)
class PointCloud:
    """Atom positions (N x 3) and integer species labels (N), N >= 1.

    The one check of a cloud: positions that are not (N, 3), N = 0 or
    species of another length raise ShapeMismatch, non-finite positions and
    non-integer labels ValueError.  The range of the labels is the model's
    to check.
    """

    positions: np.ndarray
    species: np.ndarray

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        species = check_integers(self.species, "species")
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ShapeMismatch(f"positions must be (N, 3), got {positions.shape}")
        if positions.shape[0] < 1:
            raise ShapeMismatch("a point cloud needs at least one atom")
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            bad = np.flatnonzero(~finite).tolist()
            raise ValueError(f"positions must be finite; atoms {bad} are not")
        if species.shape != (positions.shape[0],):
            raise ShapeMismatch("species must be one integer per atom")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "species", species)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class Neighborhood:
    """Directed edges (src o, dst i) within a cutoff radius, ordered by o
    then i ascending, over ``n_atoms`` atoms."""

    cutoff: float
    src: np.ndarray
    dst: np.ndarray
    n_atoms: int

    @functools.cached_property
    def lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-atom sorted neighbor tuples."""
        ends = np.cumsum(np.bincount(self.src, minlength=self.n_atoms)).tolist()
        members = self.dst.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends[:-1], ends))


def _squeeze(coords: np.ndarray) -> np.ndarray:
    """Integer-valued (n, k) coordinates -> ints in [0, 2n), column by
    column: equal values stay equal, values one apart stay one apart, and any
    wider gap becomes exactly two (so still not adjacent)."""
    order = np.argsort(coords, axis=0, kind="stable")
    values = np.take_along_axis(coords, order, axis=0)
    steps = 2 * (values[1:] != values[:-1]) - (values[:-1] + 1 == values[1:])
    ranks = np.zeros(coords.shape, dtype=np.int64)
    np.cumsum(steps, axis=0, out=ranks[1:])
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=0)
    return out


def build_neighborhood(
    pc: PointCloud, cutoff: float, groups: np.ndarray | None = None
) -> Neighborhood:
    """Exact adjacency: i in N(o) iff i != o, |x_oi| <= cutoff and, when
    ``groups`` (one integer per atom) is given, groups[i] == groups[o].

    Coincident distinct atoms (|x_oi| = 0) are neighbors.  Linear in the
    atom count for clouds of bounded density (see the module docstring);
    the edges come ordered by o, then i, as the all-pairs search gave them.
    """
    if not cutoff > 0:  # also catches NaN
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    pos = pc.positions
    n = pc.n_atoms
    # The margin keeps a pair at the cutoff within adjacent cells despite the
    # rounding of pos / side, which grows with |pos|.
    side = cutoff + 1e-12 * (cutoff + np.abs(pos).max())
    cells = _squeeze(np.floor(pos / side)) + 1
    if groups is not None:
        groups = check_integers(groups, "groups")
        if groups.shape != (n,):
            raise ValueError(f"groups must be one integer per atom, got shape {groups.shape}")
        # group and x share one coordinate, in which distinct groups lie >= 2 apart
        x = cells[:, 0]
        cells[:, 0] = _squeeze((groups * (x.max() + 2) + x)[:, None])[:, 0] + 1
    # one empty cell on each side, so that no offset wraps into the next row
    dims = cells.max(axis=0) + 2
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    keys = cells @ strides

    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    occupied, sizes = sorted_keys[starts], np.diff(starts, append=n)
    wanted = (keys[:, None] + _OFFSETS @ strides).reshape(-1)
    slot = np.minimum(np.searchsorted(occupied, wanted), occupied.size - 1)
    hit = occupied[slot] == wanted
    owner = np.repeat(np.arange(n), 27)[hit]
    first, size = starts[slot[hit]], sizes[slot[hit]]

    src = np.repeat(owner, size)
    within = np.arange(src.size) - np.repeat(np.cumsum(size) - size, size)
    dst = order[np.repeat(first, size) + within]

    # the all-pairs test, |pos[dst] - pos[src]| <= cutoff, one axis at a time
    squares = np.zeros(src.size)
    for column in pos.T:
        delta = column[dst] - column[src]
        squares += delta * delta
    keep = (np.sqrt(squares) <= cutoff) & (src != dst)
    src, dst = np.divmod(np.sort(src[keep] * n + dst[keep]), n)
    src.flags.writeable = dst.flags.writeable = False
    return Neighborhood(cutoff=float(cutoff), src=src, dst=dst, n_atoms=n)


def edge_index(nbr: Neighborhood) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (src o, dst i), ordered by o then i ascending."""
    return nbr.src, nbr.dst
