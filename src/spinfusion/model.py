"""Equivariant energy models assembled from fusion-block layers.

A model maps a point cloud (positions + integer species) to a scalar energy:
species are embedded as spin-0 features, message-passing layers (each a
list of diagram terms, which the model kind names) refine per-atom
activations, and an invariant readout on the final spin-0 part sums
per-atom energies.  Forces are exact reverse-mode gradients of the energy
with respect to positions.

The taped forward (vectorized over atoms and edges) is the trainable path.
It takes a batch of samples as one disjoint-union graph and returns one
energy per sample; a single cloud is a batch of one.
It asks each layer only for the spins read after it: the next layer's input
spins, and spin 0 alone from the last layer, so the tape holds no output the
energy does not depend on.  ``plain_energy`` recomputes the same number
through the per-atom reference layers for cross-checking.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch, check_integers, check_json, check_json_number
from .features import (
    edge_features,
    taped_distances,
    taped_edge_harmonics,
    taped_radial_basis,
)
from .geometry import PointCloud, build_neighborhood, edge_index
from .irreps import Activation
from .spins import Spin
from .layers import (
    KIND_TERMS,
    LayerParams,
    SpinSchedule,
    init_layer,
    layer_forward,
    seeded_uniform,
    taped_layer,
)

__all__ = ["ModelConfig", "Model", "KINDS"]

KINDS = tuple(KIND_TERMS)

# integer fields and their least allowed value
_INTEGER_FIELDS = {
    "n_layers": 1, "tau": 1, "j_max": 0, "radial_channels": 1, "hidden": 1, "n_species": 1,
    "seed": 0,
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; JSON round-trippable."""

    kind: str = "gated"
    n_layers: int = 1
    tau: int = 4
    j_max: int = 1
    cutoff: float = 3.0
    radial_channels: int = 8
    hidden: int = 16
    schedule_mode: str = "sparse"
    internal_spins: tuple[int, ...] = (0, 1)
    n_species: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name, least in _INTEGER_FIELDS.items():
            value = check_json_number(getattr(self, name), name, integer=True)
            if value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        cutoff = check_json_number(self.cutoff, "cutoff")
        if not (math.isfinite(cutoff) and cutoff > 0):
            raise ValueError(f"cutoff must be finite and positive, got {cutoff!r}")
        spins = [check_json_number(j, "internal_spins", integer=True) for j in self.internal_spins]
        object.__setattr__(self, "internal_spins", tuple(int(j) for j in spins))
        self.schedule  # SpinSchedule checks schedule_mode and internal_spins, for every kind
        # a field the kind never reads takes its default, so that it enters
        # neither the saved config nor a run's hash
        unread = ("hidden",) if self.kind == "three_body" else ("schedule_mode", "internal_spins")
        for name in unread:
            object.__setattr__(self, name, ModelConfig.__dataclass_fields__[name].default)

    @property
    def schedule(self) -> SpinSchedule:
        """The three-body schedule of ``schedule_mode`` and ``internal_spins``."""
        return SpinSchedule(self.schedule_mode, tuple(2 * j for j in self.internal_spins))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        payload = check_json(json.loads(text), dict, "a model config")
        known = {f for f in ModelConfig.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "internal_spins" in payload:
            payload["internal_spins"] = tuple(
                check_json(payload["internal_spins"], list, "internal_spins")
            )
        return ModelConfig(**payload)


class Model:
    """A configured model with named parameters and both forward paths."""

    def __init__(self, config: ModelConfig):
        self.config = config
        seed = config.seed
        self.embedding = seeded_uniform((config.n_species, config.tau), seed, "embed")
        self.layers: list[LayerParams] = []
        spins: tuple[int, ...] = (0,)
        self.layer_input_spins: list[tuple[int, ...]] = []
        schedule = config.schedule if config.kind == "three_body" else None
        for s in range(config.n_layers):
            name = f"layer{s}"
            self.layer_input_spins.append(spins)
            layer = init_layer(
                spins,
                KIND_TERMS[config.kind],
                config.j_max,
                config.tau,
                config.radial_channels,
                seed,
                name,
                hidden=config.hidden,
                schedule=schedule,
            )
            spins = layer.output_spins
            if 0 not in spins:
                raise ValueError(
                    f"layer {s} produces no spin-0 part; the readout needs one"
                )
            self.layers.append(layer)
        self.readout_w = seeded_uniform((2 * config.tau, 1), seed, "readout/w")
        self.readout_b = np.zeros(1)

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Ordered name -> array view of every trainable parameter."""
        params: dict[str, np.ndarray] = {"embed": self.embedding}
        for s, layer in enumerate(self.layers):
            params.update({f"layer{s}/{key}": arr for key, arr in layer.weights.items()})
        params["readout/w"] = self.readout_w
        params["readout/b"] = self.readout_b
        return params

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Write new values into the stored parameter arrays, in place; all
        values are checked before any is written."""
        current = self.parameters()
        for name, value in values.items():
            target = current[name]
            if target.shape != np.shape(value):
                raise ShapeMismatch(
                    f"parameter {name}: expected shape {target.shape}, got {np.shape(value)}"
                )
            if not np.isfinite(value).all():
                raise ValueError(f"parameter {name} has non-finite entries")
        for name, value in values.items():
            current[name][...] = value

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.parameters().values())

    def mixing_parameter_count(self) -> int:
        """Parameters in three-body final mixings (grows with the schedule)."""
        return sum(
            arr.size
            for layer in self.layers
            for key, arr in layer.weights.items()
            if key.startswith("mixing/")
        )

    # -- forward passes -------------------------------------------------------

    def _cloud(self, positions: np.ndarray, species) -> PointCloud:
        """The checked ``PointCloud``, whose species ids must also lie in
        [0, n_species), which the cloud itself cannot know."""
        pc = PointCloud(positions, species)
        n_species = self.config.n_species
        if pc.species.min() < 0 or pc.species.max() >= n_species:
            raise ValueError(
                f"species ids must lie in [0, {n_species}), got "
                f"[{pc.species.min()}, {pc.species.max()}]"
            )
        return pc

    def taped_forward(
        self,
        tape: ad.Tape,
        positions: ad.Node,
        species: np.ndarray,
        counts,
        param_nodes: dict[str, ad.Node],
    ) -> ad.Node:
        """Energies of a batch of samples as one (B,) node; differentiable in
        positions and parameters.

        ``positions`` holds the atoms of every sample, one after another, in
        one (N, 3) node, ``species`` their labels concatenated, and
        ``counts`` the atom count of each sample.  The batch is a
        disjoint-union graph: one neighbor search over the whole batch keys
        each atom's cell by its sample, so samples may overlap in space and
        no edge joins two samples.  The positions' value and the species
        are checked once, as the batch's ``PointCloud``, which the neighbor
        search then reads.
        """
        cfg = self.config
        pc = self._cloud(positions.value, species)
        species, n_atoms = pc.species, pc.n_atoms
        counts = check_integers(counts, "counts")
        if counts.ndim != 1 or counts.size == 0 or counts.min() < 1 or counts.sum() != n_atoms:
            raise ShapeMismatch(
                f"counts must be positive atom counts summing to {n_atoms}, got {counts}"
            )
        sample_of_atom = np.repeat(np.arange(counts.size), counts)
        src, dst = edge_index(build_neighborhood(pc, cfg.cutoff, sample_of_atom))

        disp = ad.sub(
            tape, ad.gather(tape, positions, dst), ad.gather(tape, positions, src)
        )
        dists = taped_distances(tape, disp)
        basis = taped_radial_basis(tape, dists, cfg.cutoff, cfg.radial_channels)
        harmonics = taped_edge_harmonics(tape, disp, dists, cfg.j_max)

        embedded = ad.gather(tape, param_nodes["embed"], species)
        acts: dict[int, ad.Node] = {
            0: ad.complex_cast(
                tape, ad.reshape(tape, embedded, (n_atoms, 1, cfg.tau))
            )
        }
        # each layer records only the spins its consumer reads: the next
        # layer's inputs, or spin 0 for the readout
        wanted = self.layer_input_spins[1:] + [(0,)]
        for s, layer in enumerate(self.layers):
            acts = taped_layer(
                tape, acts, src, dst, harmonics, basis, layer, param_nodes, f"layer{s}",
                wanted[s],
            )

        invariants = ad.concat(
            tape, [ad.real(tape, acts[0]), ad.imag(tape, acts[0])], axis=2
        )
        per_atom = ad.add(
            tape,
            ad.channel_mix(tape, invariants, param_nodes["readout/w"]),
            param_nodes["readout/b"],
        )
        energies = ad.index_add(tape, per_atom, sample_of_atom, counts.size)
        return ad.reshape(tape, energies, (counts.size,))

    def taped_energies_and_forces(
        self,
        tape: ad.Tape,
        positions: ad.Node,
        species: np.ndarray,
        counts,
        param_nodes: dict[str, ad.Node],
    ) -> tuple[ad.Node, ad.Node]:
        """(B,) energies and (N, 3) forces of a batch (see ``taped_forward``).

        The forces are the negative position gradient of the summed energy,
        from one backward pass recorded on the tape, so a loss built from
        them can be differentiated again with respect to the parameters.
        """
        energies = self.taped_forward(tape, positions, species, counts, param_nodes)
        grads = ad.backward(tape, ad.sum_all(tape, energies), wrt=[positions])
        return energies, ad.scale(tape, grads[positions.id], -1.0)

    def parameter_nodes(self, tape: ad.Tape) -> dict[str, ad.Node]:
        return {name: tape.variable(arr) for name, arr in self.parameters().items()}

    def energy_and_forces(
        self, positions: np.ndarray, species: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Energy and exact forces (negative position gradient).

        The forward is recorded on a tape; the force backward, whose result
        is only read, runs on a graph-free tape, so each intermediate
        adjoint is freed as soon as the pass has used it.  The forces are
        those of ``taped_energies_and_forces``, bit for bit.
        """
        tape = ad.Tape()
        pos_node = tape.variable(np.asarray(positions, dtype=float))
        energies = self.taped_forward(
            tape, pos_node, species, [np.size(species)], self.parameter_nodes(tape)
        )
        grads = ad.backward(
            ad.Tape(graph=False), ad.sum_all(tape, energies), wrt=[pos_node]
        )
        return float(energies.value[0]), -grads[pos_node.id].value

    def plain_energy(self, positions: np.ndarray, species: np.ndarray) -> float:
        """Reference energy through the per-atom layer implementations."""
        cfg = self.config
        pc = self._cloud(positions, species)
        species = pc.species
        nbr = build_neighborhood(pc, cfg.cutoff)
        feats = edge_features(pc, nbr, cfg.j_max, cfg.radial_channels)
        acts = [
            Activation({0: self.embedding[species[a]][None, :].astype(complex)})
            for a in range(pc.n_atoms)
        ]
        for layer in self.layers:
            acts = layer_forward(acts, pc, nbr, feats, layer)
        total = 0.0
        for a in range(pc.n_atoms):
            scalar = acts[a].part(0)[0]
            invariants = np.concatenate([scalar.real, scalar.imag])
            total += float(invariants @ self.readout_w[:, 0] + self.readout_b[0])
        return total

    # -- description ----------------------------------------------------------

    def describe(self) -> str:
        cfg = self.config
        lines = [
            f"kind: {cfg.kind}",
            f"layers: {cfg.n_layers}  channels (tau): {cfg.tau}  j_max: {cfg.j_max}",
            f"cutoff: {cfg.cutoff}  radial channels: {cfg.radial_channels}  "
            f"species: {cfg.n_species}  seed: {cfg.seed}",
        ]
        if cfg.kind == "three_body":
            lines.append(
                f"schedule: {cfg.schedule_mode} over internal spins "
                f"{list(cfg.internal_spins)}"
            )
        for s, layer in enumerate(self.layers):
            spins_in = "[" + ", ".join(str(Spin(t)) for t in self.layer_input_spins[s]) + "]"
            spins_out = "[" + ", ".join(str(Spin(t)) for t in layer.output_spins) + "]"
            extra = ""
            if cfg.kind == "three_body":
                n_diagrams = {
                    str(Spin(two_J)): sum(len(c.diagrams) for c in table.collections)
                    for two_J, table in layer.recoupled.items()
                }
                extra = f"  diagrams per output spin: {n_diagrams}"
            lines.append(
                f"layer {s}: input spins {spins_in} -> output spins {spins_out}{extra}"
            )
        lines.append("parameter groups:")
        for name, arr in self.parameters().items():
            lines.append(f"  {name}  shape {tuple(arr.shape)}  size {arr.size}")
        lines.append(f"total parameters: {self.parameter_count()}")
        if cfg.kind == "three_body":
            lines.append(
                f"three-body final-mixing parameters: {self.mixing_parameter_count()}"
            )
        return "\n".join(lines)
