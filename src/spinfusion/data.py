"""Dataset generation and JSONL serialization for desk-scale training.

A sample is one configuration: positions, integer species, reference energy,
and reference forces.  Generation rejects configurations with atoms closer
than a minimum separation and verifies analytic forces against central
finite differences before accepting a sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import RejectionFailure, ShapeMismatch
from .potentials import potential_energy_forces

__all__ = ["Sample", "generate_dataset", "save_jsonl", "load_jsonl"]

MIN_SEPARATION = 0.8
MAX_TRIES_PER_SAMPLE = 2000
FORCE_CHECK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class Sample:
    """One labelled configuration."""

    positions: np.ndarray
    species: np.ndarray
    energy: float
    forces: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        species = np.asarray(self.species, dtype=int)
        forces = np.asarray(self.forces, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ShapeMismatch(f"positions must be (n_atoms, 3), got {positions.shape}")
        if species.shape != (positions.shape[0],):
            raise ShapeMismatch(f"species shape {species.shape} does not match positions")
        if forces.shape != positions.shape:
            raise ShapeMismatch(f"forces shape {forces.shape} does not match positions")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "forces", forces)
        object.__setattr__(self, "energy", float(self.energy))

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]


def _fd_force_residual(positions: np.ndarray, kind: str, forces: np.ndarray) -> float:
    """Max |analytic - central difference| over every coordinate."""
    step = 1e-6
    worst = 0.0
    for a in range(positions.shape[0]):
        for c in range(3):
            up = positions.copy()
            up[a, c] += step
            down = positions.copy()
            down[a, c] -= step
            e_up, _ = potential_energy_forces(up, kind)
            e_down, _ = potential_energy_forces(down, kind)
            fd = -(e_up - e_down) / (2.0 * step)
            worst = max(worst, abs(fd - forces[a, c]))
    return worst


def generate_dataset(
    n_samples: int,
    n_atoms: int,
    potential_kind: str = "morse",
    seed: int = 0,
    n_species: int = 2,
    min_separation: float = MIN_SEPARATION,
) -> list[Sample]:
    """Random well-separated clusters labelled by the reference potential.

    Positions are drawn uniformly in a cube sized so typical near-neighbor
    distances sit in the potential well; draws violating the minimum
    separation are rejected, and persistent failure raises RejectionFailure.
    Analytic forces are verified against finite differences per sample.
    """
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    if n_samples < 1:
        raise ValueError(f"need at least 1 sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    side = 1.4 * max(1.0, float(n_atoms)) ** (1.0 / 3.0) + 0.6
    samples: list[Sample] = []
    for index in range(n_samples):
        accepted = None
        for _ in range(MAX_TRIES_PER_SAMPLE):
            positions = rng.uniform(-side / 2.0, side / 2.0, size=(n_atoms, 3))
            deltas = positions[None, :, :] - positions[:, None, :]
            distances = np.sqrt((deltas**2).sum(axis=-1))
            off_diagonal = distances[~np.eye(n_atoms, dtype=bool)]
            if off_diagonal.min() >= min_separation:
                accepted = positions
                break
        if accepted is None:
            raise RejectionFailure(
                f"sample {index}: no configuration with separation >= "
                f"{min_separation} found in {MAX_TRIES_PER_SAMPLE} tries"
            )
        species = rng.integers(0, n_species, size=n_atoms)
        energy, forces = potential_energy_forces(accepted, potential_kind)
        residual = _fd_force_residual(accepted, potential_kind, forces)
        if residual > FORCE_CHECK_TOLERANCE:
            raise RuntimeError(
                f"sample {index}: analytic forces disagree with finite "
                f"differences ({residual:.3e} > {FORCE_CHECK_TOLERANCE})"
            )
        samples.append(Sample(accepted, species, energy, forces))
    return samples


# Synthetic potentials carry no physical scale; the units entry names the
# conventions so downstream tools need not guess.
UNITS = {"length": "arbitrary", "energy": "arbitrary", "forces": "energy/length"}


def save_jsonl(samples: list[Sample], path: str) -> None:
    """One JSON object per line: positions, species, energy, forces, units."""
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            record = {
                "positions": sample.positions.tolist(),
                "species": sample.species.tolist(),
                "energy": sample.energy,
                "forces": sample.forces.tolist(),
                "units": UNITS,
            }
            handle.write(json.dumps(record) + "\n")


def load_jsonl(path: str) -> list[Sample]:
    samples: list[Sample] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: invalid JSON ({error})") from None
            sample = Sample(
                np.asarray(record["positions"], dtype=float),
                np.asarray(record["species"], dtype=int),
                float(record["energy"]),
                np.asarray(record["forces"], dtype=float),
            )
            for name in ("positions", "energy", "forces"):
                if not np.all(np.isfinite(getattr(sample, name))):
                    raise ValueError(f"{path}:{line_number}: non-finite {name}")
            samples.append(sample)
    return samples
