"""Correctness checks, run outside the timed region.

Each check returns a list of problems; an empty list is a pass.  The
tolerances are the ones the repository's tests already use for the same
properties (tests/test_model.py and criterion 6 of tests/test_acceptance.py);
none is loosened here.
"""

from __future__ import annotations

import numpy as np

NET_FORCE_TOL = 1e-10  # max |sum of forces|
ROTATION_ENERGY_TOL = 1e-10  # |E(Rx) - E(x)|
ROTATION_FORCE_TOL = 1e-8  # max |F(Rx) - R F(x)|
FD_STEP = 1e-5  # central-difference step
FD_REL_TOL = 1e-6  # |fd - (-F.v)| / max(|F.v|, FD_ABS_FLOOR)
FD_ABS_FLOOR = 1e-9
PLAIN_TOL = 1e-12  # |taped energy - plain_energy|


def force_call_problems(energy: float, forces: np.ndarray, n_atoms: int) -> list[str]:
    """Cheap checks for every force call: shape, finiteness, zero net force."""
    problems = []
    if np.shape(forces) != (n_atoms, 3):
        return [f"forces have shape {np.shape(forces)}, expected ({n_atoms}, 3)"]
    if not (np.isfinite(energy) and np.all(np.isfinite(forces))):
        return ["non-finite energy or forces"]
    net = float(np.max(np.abs(np.sum(forces, axis=0))))
    if net > NET_FORCE_TOL:
        problems.append(f"net force {net:.3e} > {NET_FORCE_TOL}")
    return problems


def symmetry_problems(model, positions, species, energy, forces, seed: int) -> list[str]:
    """A Haar rotation leaves the energy unchanged and rotates the forces; a
    central difference along a random unit direction v matches -F.v."""
    from spinfusion.rotations import haar_rotation, rotation_matrix

    problems = []
    rotation = rotation_matrix(haar_rotation(seed))
    energy_rot, forces_rot = model.energy_and_forces(positions @ rotation.T, species)
    if abs(energy_rot - energy) > ROTATION_ENERGY_TOL:
        problems.append(f"rotated energy differs by {abs(energy_rot - energy):.3e}")
    covariance = float(np.max(np.abs(forces_rot - forces @ rotation.T)))
    if covariance > ROTATION_FORCE_TOL:
        problems.append(f"rotated forces differ by {covariance:.3e}")

    direction = np.random.default_rng(seed).normal(size=np.shape(positions))
    direction /= np.linalg.norm(direction)
    up, _ = model.energy_and_forces(positions + FD_STEP * direction, species)
    down, _ = model.energy_and_forces(positions - FD_STEP * direction, species)
    numeric = (up - down) / (2.0 * FD_STEP)
    analytic = -float(np.sum(forces * direction))
    error = abs(numeric - analytic)
    if error > FD_ABS_FLOOR and error / max(abs(analytic), FD_ABS_FLOOR) > FD_REL_TOL:
        problems.append(
            f"central difference {numeric:.12e} vs -F.v {analytic:.12e} "
            f"(relative error {error / max(abs(analytic), FD_ABS_FLOOR):.3e})"
        )
    return problems


def oracle_problems(model, positions, species, energy) -> list[str]:
    """The taped energy matches the per-atom reference path."""
    plain = model.plain_energy(positions, species)
    if abs(plain - energy) > PLAIN_TOL:
        return [f"energy {energy!r} differs from plain_energy {plain!r}"]
    return []


def training_problems(losses, mae_before: float, mae_after: float) -> list[str]:
    """The epoch losses stay finite and the force MAE from evaluate falls."""
    problems = []
    if not all(np.isfinite(loss) for loss in losses):
        problems.append(f"non-finite epoch loss in {losses}")
    if not mae_after < mae_before:
        problems.append(f"force MAE did not fall: {mae_before!r} -> {mae_after!r}")
    return problems
