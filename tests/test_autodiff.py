"""Tape-based reverse-mode differentiation.

Every gradcheck closure below is pure: all random constants are drawn once
at module/test setup, never inside the checked function, so repeated calls
see the same function.
"""

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.errors import NonScalarSeed

RNG = np.random.default_rng(2024)


def _check(f, point, tolerance=1e-6):
    report = ad.gradcheck(f, np.asarray(point, dtype=float), tolerance=tolerance)
    assert report.passed, (
        f"max rel error {report.max_rel_error} at {report.worst_index}"
    )


class TestTapeBasics:
    def test_variable_and_constant_values(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, 2.0]))
        c = tape.constant(np.array([3.0, 4.0]))
        y = ad.add(tape, x, c)
        assert np.array_equal(y.value, [4.0, 6.0])

    def test_gradient_of_sum_of_squares(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, -2.0, 3.0]))
        y = ad.sum_all(tape, ad.mul(tape, x, x))
        grads = ad.backward(tape, y, wrt=[x])
        assert np.allclose(grads[x.id].value, [2.0, -4.0, 6.0])

    def test_non_scalar_seed_rejected(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, 2.0]))
        with pytest.raises(NonScalarSeed):
            ad.backward(tape, x)

    def test_linearity_of_adjoints(self):
        tape = ad.Tape()
        x = tape.variable(np.array([0.3, -0.7]))
        a = ad.sum_all(tape, ad.mul(tape, x, x))
        b = ad.sum_all(tape, ad.sin(tape, x))
        combined = ad.add(tape, a, b)
        g_combined = ad.backward(tape, combined, wrt=[x])[x.id].value
        g_a = ad.backward(tape, a, wrt=[x])[x.id].value
        g_b = ad.backward(tape, b, wrt=[x])[x.id].value
        assert np.allclose(g_combined, g_a + g_b, atol=1e-14)

    def test_gradcheck_flags_corrupted_vjp(self):
        point = np.array([0.5, -1.5])

        def wrong(values):
            return float(np.sum(values**2)), 3.0 * values  # should be 2x

        report = ad.gradcheck(wrong, point)
        assert not report.passed


# Fixed constants for the per-primitive checks (never drawn inside closures).
REAL_VEC = RNG.normal(size=6)
REAL_MAT = RNG.normal(size=(4, 3))
CPLX_VEC = RNG.normal(size=6) + 1j * RNG.normal(size=6)
CPLX_MAT = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
PROBE_VEC = RNG.normal(size=6)
PROBE_MAT = RNG.normal(size=(4, 3))
WEIGHTS = RNG.normal(size=(3, 2))
CG_LIKE = RNG.normal(size=(3, 3, 5)) + 1j * RNG.normal(size=(3, 3, 5))
INDICES = np.array([0, 2, 1, 2])


def _real_loss(tape, node, probe):
    """Generic real scalar: sum(real(node) * probe) + sum(imag(node) * probe)."""
    p = tape.constant(probe)
    return ad.add(
        tape,
        ad.sum_all(tape, ad.mul(tape, ad.real(tape, node), p)),
        ad.sum_all(tape, ad.mul(tape, ad.imag(tape, node), p)),
    )


def _scalar_case(build):
    """Wrap a graph builder into a gradcheck-ready f(real point)."""

    def f(values):
        tape = ad.Tape()
        x = tape.variable(values)
        loss = build(tape, x)
        grads = ad.backward(tape, loss, wrt=[x])
        gradient = (
            np.real(grads[x.id].value) if x.id in grads else np.zeros_like(values)
        )
        return float(np.real(loss.value)), np.broadcast_to(gradient, values.shape)

    return f


class TestPrimitiveGradients:
    def test_add_sub_scale(self):
        _check(
            _scalar_case(
                lambda tape, x: _real_loss(
                    tape,
                    ad.scale(
                        tape,
                        ad.sub(tape, ad.add(tape, x, tape.constant(CPLX_VEC)), x),
                        2.5,
                    ),
                    PROBE_VEC,
                )
            ),
            REAL_VEC,
        )
        _check(
            _scalar_case(
                lambda tape, x: _real_loss(tape, ad.scale(tape, x, -1.75), PROBE_VEC)
            ),
            REAL_VEC,
        )

    def test_mul_with_complex_constant(self):
        _check(
            _scalar_case(
                lambda tape, x: _real_loss(
                    tape, ad.mul(tape, x, tape.constant(CPLX_VEC)), PROBE_VEC
                )
            ),
            REAL_VEC,
        )

    def test_div(self):
        _check(
            _scalar_case(
                lambda tape, x: _real_loss(
                    tape,
                    ad.div(tape, tape.constant(CPLX_VEC), ad.add(tape, x, 3.0)),
                    PROBE_VEC,
                )
            ),
            np.abs(REAL_VEC) + 0.5,
        )

    def test_elementwise_nonlinearities(self):
        for op in (ad.exp, ad.sin, ad.cos, ad.tanh):
            _check(
                _scalar_case(
                    lambda tape, x, op=op: _real_loss(tape, op(tape, x), PROBE_VEC)
                ),
                REAL_VEC * 0.7,
            )

    def test_sqrt(self):
        _check(
            _scalar_case(
                lambda tape, x: _real_loss(tape, ad.sqrt(tape, x), PROBE_VEC)
            ),
            np.abs(REAL_VEC) + 0.7,
        )

    def test_conj_real_imag_complex_cast(self):
        def build(tape, x):
            lifted = ad.complex_cast(tape, x)
            z = ad.mul(tape, lifted, tape.constant(CPLX_VEC))
            pieces = ad.add(
                tape,
                ad.real(tape, ad.conj(tape, z)),
                ad.imag(tape, z),
            )
            return ad.sum_all(tape, ad.mul(tape, pieces, tape.constant(PROBE_VEC)))

        _check(_scalar_case(build), REAL_VEC)

    def test_reshape_broadcast_reduce(self):
        def build(tape, x):
            tall = ad.reshape(tape, x, (6, 1))
            wide = ad.broadcast_to(tape, tall, (6, 4))
            back = ad.reduce_to_shape(tape, wide, (6, 1))
            return ad.sum_all(
                tape, ad.mul(tape, back, tape.constant(PROBE_VEC[:, None]))
            )

        _check(_scalar_case(build), REAL_VEC)

    def test_concat_slice_pad(self):
        def build(tape, x):
            joined = ad.concat(tape, [x, tape.constant(REAL_VEC[:, None])], axis=1)
            sliced = ad.slice_axis(tape, joined, axis=1, start=0, stop=1)
            padded = ad.pad_axis(tape, sliced, axis=0, before=1, after=2)
            return ad.sum_all(
                tape, ad.mul(tape, padded, tape.constant(np.arange(9.0)[:, None]))
            )

        _check(_scalar_case(build), REAL_VEC[:, None])

    def test_gather_index_add(self):
        def build(tape, x):
            rows = ad.gather(tape, x, INDICES)
            pooled = ad.index_add(tape, rows, INDICES, 4)
            return ad.sum_all(tape, ad.mul(tape, pooled, tape.constant(PROBE_MAT)))

        _check(_scalar_case(build), REAL_MAT)

    def test_einsum2(self):
        def build(tape, x):
            y = ad.einsum2(tape, CG_LIKE, ad.complex_cast(tape, x), "abc,a->bc")
            return _real_loss(tape, y, np.ones((3, 5)))

        _check(_scalar_case(build), REAL_VEC[:3])

    def test_einsum3_both_operands(self):
        def build(tape, x):
            lifted = ad.broadcast_to(
                tape, ad.reshape(tape, ad.complex_cast(tape, x), (3, 1)), (3, 2)
            )
            other = tape.constant(CPLX_VEC[:3][:, None] * np.ones((1, 2)))
            left = ad.einsum3(tape, CG_LIKE, lifted, other, "abc,at,bt->ct")
            right = ad.einsum3(tape, CG_LIKE, other, lifted, "abc,at,bt->ct")
            return ad.add(
                tape,
                _real_loss(tape, left, np.ones((5, 2))),
                _real_loss(tape, right, np.ones((5, 2))),
            )

        _check(_scalar_case(build), REAL_VEC[:3])

    def test_channel_mix_data_and_weights(self):
        def data_side(tape, x):
            mixed = ad.channel_mix(tape, x, tape.constant(WEIGHTS))
            return ad.sum_all(tape, ad.mul(tape, mixed, tape.constant(PROBE_MAT[:, :2])))

        _check(_scalar_case(data_side), REAL_MAT)

        def weight_side(values):
            tape = ad.Tape()
            w = tape.variable(values)
            mixed = ad.channel_mix(tape, tape.constant(CPLX_MAT), w)
            loss = _real_loss(tape, mixed, np.ones((4, 2)))
            grads = ad.backward(tape, loss, wrt=[w])
            return float(np.real(loss.value)), np.real(grads[w.id].value)

        _check(weight_side, WEIGHTS.copy())

    def test_spherical(self):
        point = np.array([0.4, -0.9, 0.6])
        probe = RNG.normal(size=5)

        def build(tape, x):
            y = ad.spherical(tape, x, 4)
            return _real_loss(tape, y, probe)

        _check(_scalar_case(build), point)

    def test_sum_all_matches_manual(self):
        tape = ad.Tape()
        x = tape.variable(REAL_MAT.copy())
        total = ad.sum_all(tape, x)
        assert total.value == pytest.approx(REAL_MAT.sum())
        grads = ad.backward(tape, total, wrt=[x])
        assert np.allclose(grads[x.id].value, np.ones_like(REAL_MAT))


class TestSecondOrder:
    """Losses built from first-order gradients stay differentiable."""

    def test_grad_of_grad_scalar_chain(self):
        # E = sum(tanh(x)^2); loss = sum(dE/dx * probe); d loss/dx via tape
        point = REAL_VEC * 0.6

        def f(values):
            tape = ad.Tape()
            x = tape.variable(values)
            t = ad.tanh(tape, x)
            energy = ad.sum_all(tape, ad.mul(tape, t, t))
            g = ad.backward(tape, energy, wrt=[x])[x.id]
            loss = ad.sum_all(tape, ad.mul(tape, g, tape.constant(PROBE_VEC)))
            g2 = ad.backward(tape, loss, wrt=[x])
            return float(np.real(loss.value)), np.real(g2[x.id].value)

        _check(f, point)

    def test_channel_mix_mixed_second_derivative(self):
        # Regression: the data cotangent of channel_mix must depend on the
        # weights node, so d(dE/dx)/dW is nonzero and correct.  E = sum of
        # squares of (x @ W); dE/dx = 2 (x @ W) W^T depends on W explicitly.
        x_const = REAL_MAT.copy()

        def f(weights):
            tape = ad.Tape()
            w = tape.variable(weights)
            x = tape.variable(x_const)
            mixed = ad.channel_mix(tape, x, w)
            energy = ad.sum_all(tape, ad.mul(tape, mixed, mixed))
            dx = ad.backward(tape, energy, wrt=[x])[x.id]
            loss = ad.sum_all(tape, ad.mul(tape, dx, tape.constant(PROBE_MAT)))
            g2 = ad.backward(tape, loss, wrt=[w])
            gradient = (
                np.real(g2[w.id].value)
                if w.id in g2
                else np.zeros_like(weights)
            )
            return float(np.real(loss.value)), gradient

        _check(f, WEIGHTS.copy())
        # The analytic mixed derivative is d/dW sum(2 x W W^T * P)
        # = 2 x^T P W + 2 (P^T x)^T W; verify the gradient is not zero.
        _, gradient = f(WEIGHTS.copy())
        assert np.max(np.abs(gradient)) > 1e-6

    def test_real_node_complex_consumer_cotangent(self):
        # A real node feeding complex arithmetic receives a real cotangent;
        # second derivatives through that path must match finite differences.
        cplx = CPLX_VEC.copy()
        point = REAL_VEC * 0.4

        def f(values):
            tape = ad.Tape()
            x = tape.variable(values)
            gate = ad.tanh(tape, x)
            z = ad.mul(tape, tape.constant(cplx), gate)
            energy = ad.sum_all(tape, ad.real(tape, z))
            g = ad.backward(tape, energy, wrt=[x])[x.id]
            loss = ad.sum_all(tape, ad.mul(tape, g, tape.constant(PROBE_VEC)))
            g2 = ad.backward(tape, loss, wrt=[x])
            return float(np.real(loss.value)), np.real(g2[x.id].value)

        _check(f, point)

    def test_real_cotangents_stay_real(self):
        tape = ad.Tape()
        x = tape.variable(REAL_VEC.copy())
        z = ad.mul(tape, tape.constant(CPLX_VEC), x)
        loss = ad.sum_all(tape, ad.real(tape, z))
        g = ad.backward(tape, loss, wrt=[x])[x.id]
        assert not np.iscomplexobj(g.value)


class TestGradcheckHarness:
    def test_linear_function_is_exact(self):
        coefficients = PROBE_VEC.copy()

        def f(values):
            return float(values @ coefficients), coefficients

        report = ad.gradcheck(f, REAL_VEC.copy())
        assert report.passed
        assert report.max_rel_error < 1e-10

    def test_report_locates_worst_coordinate(self):
        coefficients = np.ones(4)

        def f(values):
            grad = coefficients.copy()
            grad[2] += 1.0  # corrupt one coordinate
            return float(values @ coefficients), grad

        report = ad.gradcheck(f, np.zeros(4))
        assert not report.passed
        assert report.worst_index == (2,)
