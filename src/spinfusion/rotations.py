"""Rotations as unit quaternions, with Haar sampling.

A ``Rotation`` is one unit quaternion q = (w, x, y, z) in the standard active
convention: q = (cos t/2, sin t/2 * n) rotates by angle t about the unit axis
n, and ``rotation_matrix(g)`` is q's standard rotation matrix.  Composition is
the quaternion product and the inverse is the conjugate, so q carries the
SU(2) element itself (q and -q are the same rotation but not the same
half-integer representation).  ``wigner.wigner_D`` builds every spin from it,
and the textbook complex spherical harmonics satisfy Y(R x) = D(g) Y(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rotation",
    "haar_rotation",
    "rotation_matrix",
    "compose",
    "inverse",
]


@dataclass(frozen=True)
class Rotation:
    """A unit quaternion (w, x, y, z); any nonzero finite 4-vector is
    normalized when the rotation is built."""

    quaternion: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        q = tuple(self.quaternion)
        if len(q) != 4:
            raise ValueError(f"a quaternion has 4 components, got {len(q)}")
        norm = math.sqrt(sum(c * c for c in q))
        if math.isinf(norm):  # the squares overflow: rescale by the largest
            largest = max(abs(c) for c in q)
            q = tuple(c / largest for c in q)
            norm = math.sqrt(sum(c * c for c in q))
        if not math.isfinite(norm) or norm < 1e-12:
            raise ValueError("quaternion must be nonzero and finite")
        object.__setattr__(self, "quaternion", tuple(c / norm for c in q))


def haar_rotation(seed) -> Rotation:
    """Uniform-Haar random rotation via a uniform unit quaternion.

    ``seed`` may be an integer or a numpy Generator (advanced in place, so a
    shared generator yields a stream of independent rotations).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Rotation(tuple(rng.standard_normal(4)))


def rotation_matrix(g: Rotation) -> np.ndarray:
    """3x3 matrix acting on positions: the standard active matrix of q."""
    w, x, y, z = g.quaternion
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def compose(g1: Rotation, g2: Rotation) -> Rotation:
    """The quaternion product g1 g2, whose matrix is rotation_matrix(g1) @
    rotation_matrix(g2) and whose D^j is wigner_D(j, g1) @ wigner_D(j, g2)."""
    w1, x1, y1, z1 = g1.quaternion
    w2, x2, y2, z2 = g2.quaternion
    return Rotation(
        (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )
    )


def inverse(g: Rotation) -> Rotation:
    """The conjugate quaternion."""
    w, x, y, z = g.quaternion
    return Rotation((w, -x, -y, -z))
