"""Desk-scale training: combined energy/force loss, Adam, reproducible runs.

The per-sample loss is

    w_E * (E_model - E_ref)^2  +  w_F * mean_over_coordinates (F_model - F_ref)^2

with forces computed by reverse-mode differentiation of the energy on the
same tape, so the force term is itself differentiable with respect to the
parameters (a second reverse pass over the recorded adjoint arithmetic).
A batch's loss is the sum of its samples' losses, recorded as one
disjoint-union graph: one forward and one force backward per step, on a
tape that is freed when the step returns, then one parameter backward on a
graph-free tape, whose gradients are read as values.  ``batch_loss`` is the
same recorded loss without the backward: the validation loss runs it over
chunks of the batch size, and ``spinfusion gradcheck`` takes its central
differences from it.  Epochs shuffle with a run-seeded generator.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Sample
from .errors import NonFiniteLoss
from .model import Model

__all__ = ["LossConfig", "RunRecord", "batch_loss", "train", "evaluate"]


@dataclass(frozen=True)
class LossConfig:
    """Relative weighting of the energy and force terms, each finite and
    >= 0."""

    energy_weight: float = 1.0
    force_weight: float = 1000.0

    def __post_init__(self) -> None:
        for name in ("energy_weight", "force_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


# Adam's moment decay rates and the floor of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class RunRecord:
    """Everything needed to audit or reproduce a run."""

    config_hash: str
    seed: int
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    final_energy_mae: float = float("nan")
    final_force_mae: float = float("nan")
    wall_clock_seconds: float = 0.0


def _taped_batch_loss(
    tape: ad.Tape,
    model: Model,
    param_nodes: dict[str, ad.Node],
    batch: list[Sample],
    loss_config: LossConfig,
) -> ad.Node:
    """Summed loss of a batch as a tape node (differentiable in parameters).

    The batch runs as one disjoint-union graph (``Model.taped_forward``)
    with one force backward.  Each atom's squared force error is weighted
    by 1 / forces.size of its own sample, so every sample's force term is
    its own mean over coordinates whatever the atom counts.
    """
    counts = [sample.n_atoms for sample in batch]
    positions = tape.variable(np.concatenate([sample.positions for sample in batch]))
    energies, forces = model.taped_energies_and_forces(
        tape,
        positions,
        np.concatenate([sample.species for sample in batch]),
        counts,
        param_nodes,
    )

    reference = np.array([sample.energy for sample in batch])
    energy_error = ad.sub(tape, energies, tape.constant(reference))
    energy_term = ad.sum_all(tape, ad.mul(tape, energy_error, energy_error))

    force_error = ad.sub(
        tape, forces, tape.constant(np.concatenate([sample.forces for sample in batch]))
    )
    weights = np.repeat([1.0 / sample.forces.size for sample in batch], counts)[:, None]
    force_term = ad.sum_all(
        tape,
        ad.mul(tape, ad.mul(tape, force_error, force_error), tape.constant(weights)),
    )
    return ad.add(
        tape,
        ad.scale(tape, energy_term, loss_config.energy_weight),
        ad.scale(tape, force_term, loss_config.force_weight),
    )


def batch_loss(model: Model, samples: list[Sample], loss_config: LossConfig) -> float:
    """Summed loss of ``samples`` with the model's current parameters, from
    one recording tape (a training step's loss, without its backward)."""
    tape = ad.Tape()
    param_nodes = model.parameter_nodes(tape)
    loss = _taped_batch_loss(tape, model, param_nodes, samples, loss_config)
    return float(np.real(loss.value))


def _batch_loss_and_gradients(
    model: Model, batch: list[Sample], loss_config: LossConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """One training step's loss and parameter gradients, as plain values.

    The forward and the force backward are recorded on the step's tape,
    because the force loss differentiates the forces.  The parameter
    backward, whose gradients are only read, runs on a graph-free tape, so
    each intermediate adjoint is freed as soon as the pass has used it.
    Both tapes are local, so they are freed when this returns: nothing
    holds a node of them.
    """
    tape = ad.Tape()
    param_nodes = model.parameter_nodes(tape)
    loss = _taped_batch_loss(tape, model, param_nodes, batch, loss_config)
    value = float(np.real(loss.value))
    if not np.isfinite(value):
        raise NonFiniteLoss(f"batch loss is {value}")
    grads = ad.backward(ad.Tape(graph=False), loss, wrt=list(param_nodes.values()))
    return value, {name: np.real(grads[node.id].value) for name, node in param_nodes.items()}


def _run_hash(model: Model, loss_config: LossConfig, learning_rate: float,
              n_epochs: int, batch_size: int, seed: int, n_train: int, n_val: int) -> str:
    payload = json.dumps(
        {
            "model": asdict(model.config),
            "loss": [loss_config.energy_weight, loss_config.force_weight],
            "adam": [learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON],
            "n_epochs": n_epochs,
            "batch_size": batch_size,
            "seed": seed,
            "n_train": n_train,
            "n_val": n_val,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def train(
    model: Model,
    train_samples: list[Sample],
    n_epochs: int,
    batch_size: int = 8,
    loss_config: LossConfig = LossConfig(),
    learning_rate: float = 1e-3,
    seed: int = 0,
    val_samples: list[Sample] | None = None,
) -> RunRecord:
    """Adam on the summed batch loss; deterministic for a fixed seed.

    Per-epoch curve values are mean per-sample losses; the validation loss
    is recorded in batches of ``batch_size``, one tape each.  Without a
    held-out set the validation column mirrors the training loss.
    """
    if not train_samples:
        raise ValueError("training needs at least one sample")
    if n_epochs < 0:
        raise ValueError(f"n_epochs must not be negative, got {n_epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate!r}")
    start = time.perf_counter()
    record = RunRecord(
        config_hash=_run_hash(
            model, loss_config, learning_rate, n_epochs, batch_size, seed,
            len(train_samples), len(val_samples) if val_samples else 0,
        ),
        seed=seed,
    )
    shuffler = np.random.default_rng(seed)
    parameters = model.parameters()
    names = list(parameters)
    # the moments of every parameter, flattened and concatenated in name order
    ends = np.cumsum([parameters[name].size for name in names]).tolist()
    first_moment, second_moment = np.zeros(ends[-1]), np.zeros(ends[-1])
    step = 0

    for _ in range(n_epochs):
        order = shuffler.permutation(len(train_samples))
        epoch_loss = 0.0
        for batch_start in range(0, len(order), batch_size):
            batch = [train_samples[i] for i in order[batch_start : batch_start + batch_size]]
            step_loss, gradients = _batch_loss_and_gradients(model, batch, loss_config)
            epoch_loss += step_loss
            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            gradient = np.concatenate([gradients[name].ravel() for name in names])
            first_moment = ADAM_BETA1 * first_moment + (1.0 - ADAM_BETA1) * gradient
            second_moment = ADAM_BETA2 * second_moment + (1.0 - ADAM_BETA2) * gradient**2
            update = learning_rate * (
                (first_moment / bias1) / (np.sqrt(second_moment / bias2) + ADAM_EPSILON)
            )
            parameters = model.parameters()
            for name, first, stop in zip(names, [0] + ends, ends):
                parameters[name] -= update[first:stop].reshape(parameters[name].shape)
        record.train_losses.append(epoch_loss / len(train_samples))
        if val_samples:
            val_loss = sum(
                batch_loss(model, val_samples[i : i + batch_size], loss_config)
                for i in range(0, len(val_samples), batch_size)
            ) / len(val_samples)
            record.val_losses.append(val_loss)
        else:
            record.val_losses.append(record.train_losses[-1])

    energy_mae, force_mae = evaluate(model, val_samples or train_samples)
    record.final_energy_mae = energy_mae
    record.final_force_mae = force_mae
    record.wall_clock_seconds = time.perf_counter() - start
    return record


def evaluate(model: Model, samples: list[Sample]) -> tuple[float, float]:
    """Mean absolute errors: energy per sample, force per coordinate."""
    if not samples:
        raise ValueError("evaluation needs at least one sample")
    energy_errors = []
    force_errors = []
    for sample in samples:
        energy, forces = model.energy_and_forces(sample.positions, sample.species)
        energy_errors.append(abs(energy - sample.energy))
        force_errors.append(np.abs(forces - sample.forces).ravel())
    return float(np.mean(energy_errors)), float(np.mean(np.concatenate(force_errors)))
