"""The benchmark's workloads: what each one runs, on which inputs, and why.

Every workload is closed-loop with one caller in one process: the next
operation starts only when the previous one has returned.  An operation is
one training step (``train_wide``) or one ``Model.energy_and_forces`` call
(``forces_large``).  All inputs come from the workload seed; the program
only ever sees the generated arrays.

This module imports NumPy only, so the set-up probe can time the import of
spinfusion itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# The minimum pair separation spinfusion.data uses for its own samples.
MIN_SEPARATION = 0.8


@dataclass(frozen=True)
class Train:
    """Repeated ``training.train`` runs from one seeded initialisation on one
    seeded morse dataset, so every run does the same work."""

    model: dict  # ModelConfig fields except the seed
    n_atoms: int
    n_samples: int
    batch_size: int
    epochs: int  # epochs per training run
    trace_epochs: int  # epochs in one traced pass

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.n_samples // self.batch_size)


@dataclass(frozen=True)
class Forces:
    """``energy_and_forces`` on seeded clouds, one call per cloud per pass."""

    model: dict
    sizes: tuple[int, ...]  # atoms per cloud; a pass visits each size once
    density: float  # atoms per unit volume
    n_sets: int  # distinct seeded cloud sets, cycled through


WORKLOADS = {
    # Two sparse three-body layers on 8-atom samples at batch 16.  Each
    # sample's force backward scans the whole shared tape, which grows with
    # the batch, and the loss differentiates a second time through the
    # three-body stage products.  One-tape-per-minibatch work shows here,
    # and with arrays this small, so does cheaper per-node dispatch.
    "train_wide": Train(
        model=dict(
            kind="three_body", n_layers=2, tau=6, j_max=1, cutoff=3.0,
            schedule_mode="sparse",
        ),
        n_atoms=8,
        n_samples=32,
        batch_size=16,
        epochs=4,
        trace_epochs=2,
    ),
    # Force calls only (no parameter backward, no Adam) with two fused
    # layers on clouds of 80, 160 and 320 atoms with roughly 1k to 4k edges.
    # einsum3 and index_add dominate, so CG-kernel work shows here and
    # batching or Adam work should not.  Three sizes, an odd count, keep the
    # median call inside one size's mode.
    "forces_large": Forces(
        model=dict(kind="fused", n_layers=2, tau=6, j_max=1, cutoff=3.0),
        sizes=(80, 160, 320),
        density=0.15,
        n_sets=6,
    ),
}

# Seconds-scale stand-ins for the self-test: same code paths, toy sizes.
TOY = {
    "train_wide": replace(
        WORKLOADS["train_wide"], n_atoms=4, n_samples=4, batch_size=2, epochs=1,
        trace_epochs=1,
    ),
    "forces_large": replace(WORKLOADS["forces_large"], sizes=(6, 10, 14), n_sets=2),
}


def model_config(workload, seed: int):
    """The workload's ModelConfig; imported late so probes time the import."""
    from spinfusion.model import ModelConfig

    return ModelConfig(**workload.model, seed=seed)


def random_cloud(rng: np.random.Generator, n_atoms: int, density: float):
    """Positions in a cube at the given density, pairs at least
    MIN_SEPARATION apart, placed one atom at a time; and random species.

    Placing atoms one at a time succeeds at sizes where
    ``spinfusion.data.generate_dataset`` (which redraws the whole cloud)
    raises RejectionFailure.
    """
    side = (n_atoms / density) ** (1.0 / 3.0)
    positions = np.empty((n_atoms, 3))
    placed = 0
    while placed < n_atoms:
        candidate = rng.uniform(0.0, side, size=3)
        gaps = positions[:placed] - candidate
        if placed == 0 or np.min(np.einsum("ij,ij->i", gaps, gaps)) >= MIN_SEPARATION**2:
            positions[placed] = candidate
            placed += 1
    return positions, rng.integers(0, 2, size=n_atoms)


def cloud_sets(workload: Forces, seed: int):
    """``n_sets`` lists of (positions, species), one cloud per size."""
    rng = np.random.default_rng(seed)
    return [
        [random_cloud(rng, n, workload.density) for n in workload.sizes]
        for _ in range(workload.n_sets)
    ]


def training_seeds(seed: int) -> tuple[int, int, int]:
    """(data, shuffle, model) seeds of a training workload under ``seed``."""
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=3)
    return int(seeds[0]), int(seeds[1]), int(seeds[2])
