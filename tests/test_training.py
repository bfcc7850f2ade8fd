"""Adam training loop, loss semantics, and evaluation metrics."""

import gc

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.data import Sample, generate_dataset
from spinfusion.errors import NonFiniteLoss
from spinfusion.model import KINDS, Model, ModelConfig
from spinfusion.training import (
    AdamConfig,
    LossConfig,
    _batch_loss_and_gradients,
    _taped_batch_loss,
    evaluate,
    sample_loss,
    train,
)


def _tiny_model(seed=0):
    return Model(
        ModelConfig(
            kind="gated",
            n_layers=1,
            tau=2,
            j_max=1,
            cutoff=3.0,
            radial_channels=4,
            hidden=8,
            n_species=2,
            seed=seed,
        )
    )


def _self_labelled(model, positions, species):
    """A sample the model already fits perfectly."""
    energy, forces = model.energy_and_forces(positions, species)
    return Sample(positions=positions, species=species, energy=energy, forces=forces)


RNG = np.random.default_rng(40)
POSITIONS = RNG.normal(size=(4, 3)) * 1.3
SPECIES = RNG.integers(0, 2, size=4)


class TestLossSemantics:
    def test_perfect_predictions_give_zero(self):
        model = _tiny_model()
        sample = _self_labelled(model, POSITIONS, SPECIES)
        assert sample_loss(model, sample, LossConfig()) == pytest.approx(0.0, abs=1e-20)

    def test_unit_energy_error_gives_unit_loss(self):
        model = _tiny_model()
        sample = _self_labelled(model, POSITIONS, SPECIES)
        shifted = Sample(
            positions=sample.positions,
            species=sample.species,
            energy=sample.energy + 1.0,
            forces=sample.forces,
        )
        assert sample_loss(model, shifted, LossConfig()) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_force_error_scales_with_weight(self):
        model = _tiny_model()
        sample = _self_labelled(model, POSITIONS, SPECIES)
        offset = 0.05
        wrong_forces = Sample(
            positions=sample.positions,
            species=sample.species,
            energy=sample.energy,
            forces=sample.forces + offset,
        )
        # mean squared force error is offset^2 on every coordinate
        expected = 1000.0 * offset**2
        assert sample_loss(model, wrong_forces, LossConfig()) == pytest.approx(
            expected, rel=1e-10
        )

    def test_weights_are_configurable(self):
        model = _tiny_model()
        sample = _self_labelled(model, POSITIONS, SPECIES)
        shifted = Sample(
            positions=sample.positions,
            species=sample.species,
            energy=sample.energy + 2.0,
            forces=sample.forces,
        )
        config = LossConfig(energy_weight=0.5, force_weight=0.0)
        assert sample_loss(model, shifted, config) == pytest.approx(2.0, rel=1e-12)


class TestTrainLoop:
    def test_deterministic_per_seed(self):
        data = generate_dataset(8, 4, "morse", seed=2)
        record_a = train(_tiny_model(), data, 3, batch_size=4, seed=5)
        record_b = train(_tiny_model(), data, 3, batch_size=4, seed=5)
        assert record_a.config_hash == record_b.config_hash
        assert len(record_a.train_losses) == 3
        for x, y in zip(record_a.train_losses, record_b.train_losses):
            assert x == pytest.approx(y, abs=1e-10)

    def test_trained_parameters_deterministic(self):
        data = generate_dataset(8, 4, "morse", seed=2)
        model_a, model_b = _tiny_model(), _tiny_model()
        train(model_a, data, 3, batch_size=4, seed=5)
        train(model_b, data, 3, batch_size=4, seed=5)
        for key, value in model_a.parameters().items():
            assert np.max(np.abs(value - model_b.parameters()[key])) <= 1e-10

    def test_seed_changes_the_run(self):
        data = generate_dataset(8, 4, "morse", seed=2)
        record_a = train(_tiny_model(), data, 2, batch_size=2, seed=0)
        record_b = train(_tiny_model(), data, 2, batch_size=2, seed=1)
        assert record_a.config_hash != record_b.config_hash
        assert record_a.train_losses != record_b.train_losses

    def test_zero_epochs_changes_nothing(self):
        data = generate_dataset(4, 4, "morse", seed=2)
        model = _tiny_model()
        before = {k: v.copy() for k, v in model.parameters().items()}
        record = train(model, data, 0, seed=0)
        assert record.train_losses == []
        for key, value in model.parameters().items():
            assert np.array_equal(value, before[key])

    def test_loss_decreases_on_small_problem(self):
        data = generate_dataset(8, 4, "morse", seed=3)
        model = _tiny_model()
        record = train(model, data, 20, batch_size=4, seed=1)
        assert record.train_losses[-1] < record.train_losses[0]

    def test_validation_mirrors_training_when_absent(self):
        data = generate_dataset(4, 4, "morse", seed=2)
        record = train(_tiny_model(), data, 2, batch_size=2, seed=0)
        assert record.val_losses == record.train_losses

    def test_validation_tracks_held_out_set(self):
        data = generate_dataset(6, 4, "morse", seed=2)
        record = train(
            _tiny_model(), data[:4], 2, batch_size=2, seed=0, val_samples=data[4:]
        )
        assert len(record.val_losses) == 2
        assert record.val_losses != record.train_losses

    def test_non_finite_labels_raise(self):
        data = generate_dataset(2, 4, "morse", seed=2)
        broken = Sample(
            positions=data[0].positions,
            species=data[0].species,
            energy=float("nan"),
            forces=data[0].forces,
        )
        with pytest.raises(NonFiniteLoss):
            train(_tiny_model(), [broken], 1, seed=0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train(_tiny_model(), [], 1)

    @pytest.mark.parametrize(
        "n_epochs, batch_size, name",
        [(-1, 4, "n_epochs"), (1, 0, "batch_size"), (1, -2, "batch_size")],
    )
    def test_bad_epoch_and_batch_counts_rejected(self, n_epochs, batch_size, name):
        data = generate_dataset(2, 4, "morse", seed=2)
        model = _tiny_model()
        before = {k: v.copy() for k, v in model.parameters().items()}
        with pytest.raises(ValueError, match=name):
            train(model, data, n_epochs, batch_size=batch_size)
        for key, value in model.parameters().items():
            assert np.array_equal(value, before[key])

    def test_run_record_bookkeeping(self):
        data = generate_dataset(4, 4, "morse", seed=2)
        record = train(_tiny_model(), data, 2, batch_size=2, seed=3)
        assert record.seed == 3
        assert len(record.config_hash) == 16
        int(record.config_hash, 16)  # hex string
        assert record.wall_clock_seconds > 0
        assert record.final_energy_mae >= 0
        assert record.final_force_mae >= 0

    def test_adam_config_is_used(self):
        data = generate_dataset(4, 4, "morse", seed=2)
        model_fast = _tiny_model()
        model_slow = _tiny_model()
        train(model_fast, data, 1, seed=0, adam=AdamConfig(learning_rate=1e-2))
        train(model_slow, data, 1, seed=0, adam=AdamConfig(learning_rate=1e-5))
        moved_fast = max(
            np.max(np.abs(a - b))
            for a, b in zip(
                model_fast.parameters().values(), _tiny_model().parameters().values()
            )
        )
        moved_slow = max(
            np.max(np.abs(a - b))
            for a, b in zip(
                model_slow.parameters().values(), _tiny_model().parameters().values()
            )
        )
        assert moved_fast > moved_slow


class TestEvaluate:
    def test_zero_error_on_self_labels(self):
        model = _tiny_model()
        samples = [
            _self_labelled(model, POSITIONS, SPECIES),
            _self_labelled(model, POSITIONS + 0.3, SPECIES),
        ]
        energy_mae, force_mae = evaluate(model, samples)
        assert energy_mae == pytest.approx(0.0, abs=1e-14)
        assert force_mae == pytest.approx(0.0, abs=1e-14)

    def test_known_energy_offset(self):
        model = _tiny_model()
        sample = _self_labelled(model, POSITIONS, SPECIES)
        shifted = Sample(
            positions=sample.positions,
            species=sample.species,
            energy=sample.energy - 0.25,
            forces=sample.forces,
        )
        energy_mae, force_mae = evaluate(model, [shifted])
        assert energy_mae == pytest.approx(0.25, rel=1e-12)
        assert force_mae == pytest.approx(0.0, abs=1e-14)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            evaluate(_tiny_model(), [])


BATCH_KINDS = [
    dict(kind="gated"),
    dict(kind="fused"),
    dict(kind="three_body", internal_spins=(0, 1, 2)),
    dict(kind="three_body", schedule_mode="dense", internal_spins=(0, 1, 2)),
]


def _mixed_batch():
    """5-, 8- and 9-atom samples, and a 5-atom sample with an isolated atom."""
    batch = [generate_dataset(1, n, "morse", seed=n)[0] for n in (5, 8, 9)]
    positions = batch[0].positions.copy()
    positions[-1] += 50.0  # far beyond the cutoff of every other atom
    rng = np.random.default_rng(7)
    batch.append(Sample(positions, batch[0].species, 0.3, rng.normal(size=positions.shape)))
    return batch


class TestBatchedTape:
    """One disjoint-union tape per batch against one tape per sample."""

    @pytest.mark.parametrize(
        "extra", BATCH_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
    )
    def test_batch_matches_single_samples(self, extra):
        model = Model(
            ModelConfig(n_layers=2, tau=3, j_max=1, radial_channels=4, hidden=8, seed=4, **extra)
        )
        batch = _mixed_batch()
        counts = [sample.n_atoms for sample in batch]
        tape = ad.Tape()
        energies, forces = model.taped_energies_and_forces(
            tape,
            tape.variable(np.concatenate([sample.positions for sample in batch])),
            np.concatenate([sample.species for sample in batch]),
            counts,
            model.parameter_nodes(tape),
        )
        firsts = np.cumsum(counts) - counts
        for sample, energy, first in zip(batch, energies.value, firsts):
            single_energy, single_forces = model.energy_and_forces(
                sample.positions, sample.species
            )
            assert abs(energy - single_energy) <= 1e-12
            rows = forces.value[first : first + sample.n_atoms]
            assert np.max(np.abs(rows - single_forces)) <= 1e-12
        # the isolated atom feels no force
        assert np.array_equal(forces.value[-1], np.zeros(3))

        loss_config = LossConfig()
        loss, gradients = _batch_loss_and_gradients(model, batch, loss_config)
        expected = sum(sample_loss(model, sample, loss_config) for sample in batch)
        assert loss == pytest.approx(expected, rel=1e-12, abs=0.0)
        singles = [_batch_loss_and_gradients(model, [s], loss_config)[1] for s in batch]
        for name, gradient in gradients.items():
            summed = sum(np.broadcast_to(single[name], np.shape(gradient)) for single in singles)
            assert np.max(np.abs(gradient - summed)) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_tapes_are_freed_by_reference_counting(kind):
    # with the cyclic collector off, nothing a force call or a training step
    # leaves behind is garbage it would have to find (an uncollected tape
    # would keep every array of its step alive)
    model = Model(ModelConfig(kind=kind, n_layers=2, tau=3, j_max=1, radial_channels=4, hidden=8))
    data = generate_dataset(4, 5, "morse", seed=2)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        model.energy_and_forces(data[0].positions, data[0].species)
        assert gc.collect() == 0
        train(model, data, 1, batch_size=len(data), seed=0)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_each_step_records_one_tape(monkeypatch):
    # one training step builds one recording tape, one set of parameter
    # leaves and one graph-free tape for its parameter backward, in that
    # order, and evaluate goes through energy_and_forces per sample, whose
    # force backward runs on a graph-free tape too
    events = []
    tape_init = ad.Tape.__init__
    parameter_nodes = Model.parameter_nodes
    energy_and_forces = Model.energy_and_forces

    def counting_tape_init(tape, *args, **kwargs):
        tape_init(tape, *args, **kwargs)
        events.append("tape" if tape.graph else "graph-free tape")

    def counting_parameter_nodes(model, tape):
        events.append("parameters")
        return parameter_nodes(model, tape)

    def counting_energy_and_forces(model, positions, species):
        events.append("energy_and_forces")
        return energy_and_forces(model, positions, species)

    monkeypatch.setattr(ad.Tape, "__init__", counting_tape_init)
    monkeypatch.setattr(Model, "parameter_nodes", counting_parameter_nodes)
    monkeypatch.setattr(Model, "energy_and_forces", counting_energy_and_forces)
    data = generate_dataset(4, 4, "morse", seed=2)
    train(_tiny_model(), data, 1, batch_size=2, seed=0)
    steps = ["tape", "parameters", "graph-free tape"] * 2
    evaluation = ["energy_and_forces", "tape", "parameters", "graph-free tape"] * len(data)
    assert events == steps + evaluation


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize(
    "extra", BATCH_KINDS, ids=["gated", "fused", "three_body_sparse", "three_body_dense"]
)
def test_graph_free_parameter_backward_equals_a_recording_one(extra, n_layers):
    # the step's parameter backward runs on a graph-free tape; the same VJPs
    # on the same values give the gradients of a recording backward exactly
    model = Model(
        ModelConfig(n_layers=n_layers, tau=3, j_max=1, radial_channels=4, hidden=8, seed=4,
                    **extra)
    )
    batch = _mixed_batch()
    loss, gradients = _batch_loss_and_gradients(model, batch, LossConfig())
    tape = ad.Tape()
    param_nodes = model.parameter_nodes(tape)
    recorded_loss = _taped_batch_loss(tape, model, param_nodes, batch, LossConfig())
    recorded = ad.backward(tape, recorded_loss, wrt=list(param_nodes.values()))
    assert loss == float(np.real(recorded_loss.value))
    assert list(gradients) == list(param_nodes)
    for name, node in param_nodes.items():
        assert np.array_equal(gradients[name], np.real(recorded[node.id].value)), name
