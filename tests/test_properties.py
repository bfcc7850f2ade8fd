"""Symmetries of whole models on generated clouds (property tests).

For every layer kind, the energy is invariant under rotation, translation
and permutation of the atoms, and the forces rotate with the cloud, move
with a permutation and ignore a translation; and one layer is exactly
two-body, while two layers are not.  Clouds are random (pairs
at least 0.7 apart), spread along a line farther apart than the cutoff
(no edges), or a single atom.  Examples are derandomized and few, so a run
is repeatable and short.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinfusion.model import Model, ModelConfig
from spinfusion.rotations import haar_rotation, rotation_matrix

CUTOFF = 3.0
KINDS = {
    "gated": dict(kind="gated"),
    "fused": dict(kind="fused"),
    "three_body_sparse": dict(kind="three_body", internal_spins=(0, 1, 2)),
    "three_body_dense": dict(kind="three_body", schedule_mode="dense", internal_spins=(0, 1)),
}
_MODELS: dict[str, Model] = {}

PROPERTY_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _model(kind: str) -> Model:
    if kind not in _MODELS:
        config = ModelConfig(
            n_layers=2, tau=3, j_max=1, cutoff=CUTOFF, radial_channels=4, hidden=8, seed=5,
            **KINDS[kind],
        )
        _MODELS[kind] = Model(config)
    return _MODELS[kind]


_coordinates = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def clouds(draw, shape: str):
    """(positions, species) of one cloud of the given shape."""
    if shape == "single_atom":
        positions = draw(arrays(float, (1, 3), elements=_coordinates))
    elif shape == "no_edges":
        n = draw(st.integers(2, 5))
        jitter = draw(arrays(float, (n, 3), elements=st.floats(-0.4, 0.4)))
        positions = np.arange(n)[:, None] * np.array([CUTOFF + 1.0, 0.0, 0.0]) + jitter
    else:
        n = draw(st.integers(2, 6))
        positions = draw(arrays(float, (n, 3), elements=_coordinates))
        gaps = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt(np.sum(gaps * gaps, axis=-1)) + np.eye(n) * 1e9
        assume(np.min(distances) >= 0.7)
    species = np.array(draw(st.lists(st.integers(0, 1), min_size=len(positions),
                                     max_size=len(positions))))
    return positions, species


def _close(a, b, reference) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0)) <= 1e-10 * max(
        1.0, float(np.max(np.abs(reference), initial=0.0))
    )


@pytest.mark.parametrize("shape", ["random", "no_edges", "single_atom"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_energy_invariance_and_force_covariance(kind, shape):
    model = _model(kind)

    @PROPERTY_SETTINGS
    @given(
        cloud=clouds(shape),
        rotation_seed=st.integers(0, 2**32 - 1),
        shift=arrays(float, (3,), elements=st.floats(-10.0, 10.0)),
        data=st.data(),
    )
    def check(cloud, rotation_seed, shift, data):
        positions, species = cloud
        energy, forces = model.energy_and_forces(positions, species)
        if shape == "no_edges":
            assert np.all(forces == 0.0)

        R = rotation_matrix(haar_rotation(rotation_seed))
        e_rot, f_rot = model.energy_and_forces(positions @ R.T, species)
        assert _close(e_rot, energy, energy)
        assert _close(f_rot, forces @ R.T, forces)

        e_shift, f_shift = model.energy_and_forces(positions + shift, species)
        assert _close(e_shift, energy, energy)
        assert _close(f_shift, forces, forces)

        perm = np.array(data.draw(st.permutations(range(len(positions)))))
        e_perm, f_perm = model.energy_and_forces(positions[perm], species[perm])
        assert _close(e_perm, energy, energy)
        assert _close(f_perm, forces[perm], forces)

    check()


# a 3-atom cloud with every pair inside the cutoff
BODY_ORDER_CLOUD = np.array([[0.0, 0.0, 0.0], [1.3, 0.2, -0.1], [0.4, 1.1, 0.5]])
BODY_ORDER_SPECIES = np.array([0, 1, 0])


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("kind", list(KINDS))
def test_body_order(kind, n_layers):
    # the three-body residual sum_S (-1)^(3-|S|) E(S) over the cloud's
    # non-empty subsets S is zero for any sum of one- and two-body terms:
    # at one layer it is rounding, at two layers the second message passing
    # makes it three-body
    model = Model(ModelConfig(
        n_layers=n_layers, tau=3, j_max=1, cutoff=CUTOFF, radial_channels=4, hidden=8, seed=5,
        **KINDS[kind],
    ))
    energies = [
        (len(subset), model.energy_and_forces(
            BODY_ORDER_CLOUD[list(subset)], BODY_ORDER_SPECIES[list(subset)]
        )[0])
        for size in (1, 2, 3)
        for subset in itertools.combinations(range(3), size)
    ]
    residual = abs(sum((-1) ** (3 - size) * energy for size, energy in energies))
    scale = max(abs(energy) for _, energy in energies)
    if n_layers == 1:
        assert residual <= 1e-12 * scale
    else:
        assert residual >= 1e-6 * scale
