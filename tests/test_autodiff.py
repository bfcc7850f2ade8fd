"""Tape-based reverse-mode differentiation.

Every gradcheck closure below is pure: all random constants are drawn once
at module/test setup, never inside the checked function, so repeated calls
see the same function.
"""

import gc
import platform

import numpy as np
import pytest

from spinfusion import autodiff as ad
from spinfusion.cg import cg_tensor
from spinfusion.errors import NonScalarSeed
from spinfusion.spins import admissible

RNG = np.random.default_rng(2024)


def _conjugate(tape, z):
    """conj(z) = Re z - i Im z from the non-holomorphic primitives."""
    real_part = ad.complex_cast(tape, ad.real(tape, z))
    imag_part = ad.complex_cast(tape, ad.imag(tape, z))
    return ad.sub(tape, real_part, ad.scale(tape, imag_part, 1j))


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

    def test_conjugate_from_real_imag_complex_cast(self):
        tape = ad.Tape()
        z = tape.variable(np.array([1.0 + 2.0j, -0.5 - 3.0j, 4.0]))
        assert np.array_equal(_conjugate(tape, z).value, np.conj(z.value))
        x = tape.variable(np.array([0.5, -1.5]))
        assert np.array_equal(_conjugate(tape, x).value, x.value)

    def test_concat_of_one_node_records_nothing(self):
        tape = ad.Tape()
        x = tape.variable(np.array([[0.5, -1.5]]))
        assert ad.concat(tape, [x], axis=1) is x
        assert len(tape.nodes) == 1
        # the gradient through a one-part concat is the gradient without it
        with_concat = ad.sum_all(tape, ad.mul(tape, ad.concat(tape, [x], axis=0), x))
        without = ad.sum_all(tape, ad.mul(tape, x, x))
        g_with = ad.backward(tape, with_concat, wrt=[x])[x.id].value
        g_without = ad.backward(tape, without, wrt=[x])[x.id].value
        assert np.array_equal(g_with, g_without)
        assert np.array_equal(g_with, 2.0 * x.value)

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


_Z_RNG = np.random.default_rng(13)  # its own stream: RNG's later draws stay as they were
Z_POINT = _Z_RNG.normal(size=5) + 1j * _Z_RNG.normal(size=5)
CPLX_COEFFS = _Z_RNG.normal(size=5) + 1j * _Z_RNG.normal(size=5)
PROBE_5 = _Z_RNG.normal(size=5)


def _holomorphic_cotangent(build, z, step=1e-6):
    """dL/dRe z - i dL/dIm z by central differences, L = build(tape, z)."""

    def loss(point):
        tape = ad.Tape()
        return float(build(tape, tape.variable(point)).value)

    grad = np.zeros_like(z)
    for k in range(z.size):
        e = np.zeros_like(z)
        e[k] = step
        d_re = (loss(z + e) - loss(z - e)) / (2 * step)
        d_im = (loss(z + 1j * e) - loss(z - 1j * e)) / (2 * step)
        grad[k] = d_re - 1j * d_im
    return grad


class TestComplexCotangent:
    """The adjoint of a complex node is the holomorphic cotangent
    dL/dRe - i dL/dIm, so a holomorphic primitive's VJP multiplies by its
    derivative as it is."""

    def _adjoint(self, build, z):
        tape = ad.Tape()
        leaf = tape.variable(z)
        return ad.backward(tape, build(tape, leaf), wrt=[leaf])[leaf.id].value

    def test_linear_loss(self):
        # L = Re sum(c z): dL/dRe = Re c, dL/dIm = -Im c, so the adjoint is c
        def build(tape, z):
            return ad.sum_all(tape, ad.real(tape, ad.mul(tape, tape.constant(CPLX_COEFFS), z)))

        adjoint = self._adjoint(build, Z_POINT)
        assert np.max(np.abs(adjoint - CPLX_COEFFS)) <= 1e-15
        assert np.max(np.abs(adjoint - _holomorphic_cotangent(build, Z_POINT))) <= 1e-8

    def test_loss_through_imag(self):
        # L = sum(p Im(c z)): dL/dRe = p Im c, dL/dIm = p Re c, so -i p c
        def build(tape, z):
            product = ad.mul(tape, tape.constant(CPLX_COEFFS), z)
            return ad.sum_all(tape, ad.mul(tape, ad.imag(tape, product), tape.constant(PROBE_5)))

        adjoint = self._adjoint(build, Z_POINT)
        assert np.max(np.abs(adjoint - (-1j * PROBE_5 * CPLX_COEFFS))) <= 1e-15
        assert np.max(np.abs(adjoint - _holomorphic_cotangent(build, Z_POINT))) <= 1e-8

    def test_holomorphic_and_non_holomorphic_chain(self):
        # exp, sin, cos, sqrt and div along real, imag and complex_cast, and a
        # conjugate built from them
        def build(tape, z):
            c = tape.constant(CPLX_COEFFS)
            head = ad.mul(tape, ad.exp(tape, ad.scale(tape, z, 0.5j)), ad.sin(tape, z))
            root = ad.sqrt(tape, ad.add(tape, z, 3.0))
            tail = ad.div(tape, ad.cos(tape, _conjugate(tape, z)), root)
            mixed = ad.mul(tape, ad.add(tape, head, tail), c)
            lifted = ad.complex_cast(tape, ad.imag(tape, mixed))
            return ad.sum_all(tape, ad.real(tape, ad.mul(tape, lifted, ad.add(tape, mixed, z))))

        adjoint = self._adjoint(build, Z_POINT)
        expected = _holomorphic_cotangent(build, Z_POINT)
        assert np.max(np.abs(adjoint - expected)) <= 1e-7 * np.max(np.abs(expected))


def _vjp_subscripts(forward):
    """Every subscript einsum3 runs for ``forward``: the forward form and,
    closed under repetition, the back_x and back_y forms of its VJPs."""
    seen, todo = set(), [forward]
    while todo:
        sub = todo.pop()
        if sub in seen:
            continue
        seen.add(sub)
        lhs, out = sub.split("->")
        t, x, y = lhs.split(",")
        todo += [f"{t},{y},{out}->{x}", f"{t},{x},{out}->{y}"]
    return sorted(seen)


# the executor's three operand forms: activation (e, m, t) or harmonic (e, m)
EXECUTOR_SUBSCRIPTS = sorted(
    {
        sub
        for forward in ("abc,eat,ebt->ect", "abc,ea,ebt->ect", "abc,eat,eb->ect")
        for sub in _vjp_subscripts(forward)
    }
)
ADMISSIBLE_UP_TO_2 = [
    (a, b, c)
    for a in range(5)
    for b in range(5)
    for c in range(5)
    if admissible(a, b, c)
]


def _operand(sub, dims, n_edges, rng):
    shape = [{"e": n_edges, "t": 4, **dims}[c] for c in sub]
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKernelOracles:
    """The sparse einsum3 and the segment-sum index_add against NumPy."""

    def test_subscript_closure_includes_channelless_output(self):
        assert "abc,eat,ect->eb" in EXECUTOR_SUBSCRIPTS

    @pytest.mark.parametrize("triple", ADMISSIBLE_UP_TO_2, ids=str)
    def test_einsum3_matches_dense_einsum(self, triple):
        coeffs = cg_tensor(*triple).coeffs
        dims = dict(zip("abc", coeffs.shape))
        rng = np.random.default_rng(sum(triple))
        for sub in EXECUTOR_SUBSCRIPTS:
            t_sub, x_sub, y_sub = sub.split("->")[0].split(",")
            for n_edges in (0, 1, 37):
                x = _operand(x_sub, dims, n_edges, rng)
                y = _operand(y_sub, dims, n_edges, rng)
                got = ad.einsum3(ad.Tape(), coeffs, x, y, sub).value
                want = np.einsum(sub, coeffs, x, y)
                assert got.shape == want.shape and got.dtype == want.dtype, sub
                scale = np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale, sub

    @pytest.mark.parametrize(
        "triple, sub",
        [
            ((0, 2, 2), "abc,eat,ebt->ect"),  # forward 0 ⊗ 1 -> 1
            ((4, 0, 4), "abc,eat,eb->ect"),  # forward 2 ⊗ 0 -> 2, channel-less spin 0
            ((0, 4, 4), "abc,eat,ect->eb"),  # a VJP: summed channel letter
            ((2, 0, 2), "abc,ebt,ect->eat"),  # a VJP into the spin-1 operand
            ((0, 0, 0), "abc,eat,ebt->ect"),  # 0 ⊗ 0 -> 0
            ((0, 0, 0), "abc,ebt,ect->ea"),  # all dimension 1, channel letter summed
        ],
        ids=str,
    )
    def test_einsum3_broadcast_plan(self, triple, sub):
        coeffs = cg_tensor(*triple).coeffs
        assert ad._sparse_plan(coeffs, sub).func is ad._contract_broadcast
        dims = dict(zip("abc", coeffs.shape))
        rng = np.random.default_rng(7)
        for n_edges in (0, 1, 37):
            _, x_sub, y_sub = sub.split("->")[0].split(",")
            x, y = _operand(x_sub, dims, n_edges, rng), _operand(y_sub, dims, n_edges, rng)
            got = ad.einsum3(ad.Tape(), coeffs, x, y, sub).value
            want = np.einsum(sub, coeffs, x, y)
            assert got.shape == want.shape and got.dtype == want.dtype
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("sub", ["abc,eat,ebt->ect", "abc,ebt,ect->eat"])
    def test_spin_zero_output_keeps_the_nonzero_plan(self, sub):
        # 1 ⊗ 1 -> 0, and the VJP of 0 ⊗ 1 -> 1 into its spin-0 operand: no
        # operand has dimension 1, so there is nothing to broadcast
        coeffs = cg_tensor(2, 2, 0).coeffs if sub.endswith("ect") else cg_tensor(0, 2, 2).coeffs
        assert ad._sparse_plan(coeffs, sub).func is ad._contract_nonzeros
        dims = dict(zip("abc", coeffs.shape))
        rng = np.random.default_rng(8)
        _, x_sub, y_sub = sub.split("->")[0].split(",")
        x, y = _operand(x_sub, dims, 37, rng), _operand(y_sub, dims, 37, rng)
        got = ad.einsum3(ad.Tape(), coeffs, x, y, sub).value
        want = np.einsum(sub, coeffs, x, y)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_einsum3_dense_complex_tensor(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(3, 2)) + 0j, rng.normal(size=(3, 2)) * 1j
        got = ad.einsum3(ad.Tape(), CG_LIKE, x, y, "abc,at,bt->ct").value
        want = np.einsum("abc,at,bt->ct", CG_LIKE, x, y)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "tensor, sub",
        [
            (CG_LIKE, "abc,ab,t->t"),  # two tensor indices on one operand
            (CG_LIKE, "abc,at,bt->t"),  # a tensor index summed away
            (CG_LIKE, "abc,aa,bt->ct"),  # a repeated letter
            (CG_LIKE, "...abc,a,b->c"),  # an ellipsis
            (CG_LIKE, "abc,at,bs->cs"),  # a summed letter in one operand only
            (CG_LIKE[0], "abc,a,b->c"),  # a two-index tensor
            (CG_LIKE, "abc,a->bc"),  # one operand
        ],
    )
    def test_einsum3_rejects_unsupported_subscripts(self, tensor, sub):
        x, y = np.ones((3, 2), dtype=complex), np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            ad.einsum3(ad.Tape(), tensor, x, y, sub)

    @pytest.mark.parametrize(
        "indices, n_rows",
        [
            ([0, 0, 1, 3, 3, 3], 5),  # sorted with repeats; row 2 and 4 unhit
            ([4, 0, 2, 0, 4, 4, 1], 6),  # unsorted with repeats; row 3 and 5 unhit
            ([2], 3),
            ([], 4),
        ],
    )
    def test_index_add_matches_add_at(self, indices, n_rows):
        indices = np.array(indices, dtype=int)
        rng = np.random.default_rng(len(indices))
        x = rng.normal(size=(len(indices), 3, 2)) + 1j * rng.normal(size=(len(indices), 3, 2))
        want = np.zeros((n_rows, 3, 2), dtype=complex)
        np.add.at(want, indices, x)
        for _ in range(2):  # the second call reuses the cached segments
            got = ad.index_add(ad.Tape(), x, indices, n_rows).value
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.abs(x).sum()
            unhit = np.setdiff1d(np.arange(n_rows), indices)
            assert not np.any(got[unhit])

    def test_index_add_fresh_arrays_never_reuse_stale_segments(self):
        # index arrays freed and re-allocated (often at the same address)
        # must each get their own segments
        rng = np.random.default_rng(9)
        for _ in range(50):
            indices = rng.integers(0, 7, size=int(rng.integers(1, 12)))
            x = rng.normal(size=(len(indices), 2))
            want = np.zeros((7, 2))
            np.add.at(want, indices, x)
            got = ad.index_add(ad.Tape(), x, indices, 7).value
            assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_index_add_rejects_negative_index(self):
        with pytest.raises(IndexError):
            ad.index_add(ad.Tape(), np.ones((2, 1)), np.array([-1, 0]), 3)


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
                ad.real(tape, _conjugate(tape, z)),
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

    def test_sum_all_matches_manual(self):
        tape = ad.Tape()
        x = tape.variable(REAL_MAT.copy())
        total = ad.sum_all(tape, x)
        assert total.value == pytest.approx(REAL_MAT.sum())
        grads = ad.backward(tape, total, wrt=[x])
        assert np.allclose(grads[x.id].value, np.ones_like(REAL_MAT))


def _div_exp_sqrt_tanh(tape, x):
    """sum(exp(x) / sqrt(x^2 + 1) + tanh(x)): every primitive whose VJP
    reads its own output."""
    root = ad.sqrt(tape, ad.add(tape, ad.mul(tape, x, x), tape.constant(1.0)))
    ratio = ad.div(tape, ad.exp(tape, x), root)
    return ad.sum_all(tape, ad.add(tape, ratio, ad.tanh(tape, x)))


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

    def test_grad_of_grad_through_rebuilt_outputs(self):
        # div, exp, sqrt and tanh VJPs rebuild the forward output from the
        # inputs rather than capture it; the rebuilt node must stay
        # differentiable
        point = REAL_VEC * 0.5

        def f(values):
            tape = ad.Tape()
            x = tape.variable(values)
            energy = _div_exp_sqrt_tanh(tape, x)
            g = ad.backward(tape, energy, wrt=[x])[x.id]
            loss = ad.sum_all(tape, ad.mul(tape, g, tape.constant(PROBE_VEC)))
            g2 = ad.backward(tape, loss, wrt=[x])
            return float(np.real(loss.value)), np.real(g2[x.id].value)

        _check(f, point)

    def test_tapes_hold_no_reference_cycles(self):
        # a VJP gets the tape from backward and captures no output node, so
        # reference counting alone frees a tape after a second-order pass
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = ad.Tape()
            x = tape.variable(REAL_VEC * 0.5)
            energy = _div_exp_sqrt_tanh(tape, x)
            g = ad.backward(tape, energy, wrt=[x])[x.id]
            loss = ad.sum_all(tape, ad.mul(tape, g, tape.constant(PROBE_VEC)))
            ad.backward(tape, loss, wrt=[x])
            del tape, x, energy, g, loss
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_a_dropped_tapes_memory_is_reused(self):
        # 32 MiB of 1 MiB values, freed together when the tape goes; the
        # same tape again must not fault those pages in afresh
        import resource

        def one_tape():
            tape = ad.Tape()
            x = tape.variable(np.ones((256, 512)))
            for _ in range(32):
                x = ad.add(tape, x, x)

        one_tape()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        one_tape()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000  # 32 MiB is 8192 pages

    def test_real_cotangents_stay_real(self):
        tape = ad.Tape()
        x = tape.variable(REAL_VEC.copy())
        z = ad.mul(tape, tape.constant(CPLX_VEC), x)
        loss = ad.sum_all(tape, ad.real(tape, z))
        g = ad.backward(tape, loss, wrt=[x])[x.id]
        assert not np.iscomplexobj(g.value)


def _complex_parts(tape, x, shapes):
    """Complex matrices of the given shapes from one real variable vector
    (real parts, then imaginary parts, matrix by matrix)."""
    parts, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        re, im = (
            ad.reshape(tape, ad.slice_axis(tape, x, 0, start, start + size), shape)
            for start in (offset, offset + size)
        )
        parts.append(ad.add(tape, ad.complex_cast(tape, re),
                            ad.scale(tape, ad.complex_cast(tape, im), 1j)))
        offset += 2 * size
    return parts


class TestMatmul:
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_value_and_gradients(self, trans_a, trans_b):
        rng = np.random.default_rng(7)
        shape_a = (3, 4) if trans_a else (4, 3)
        shape_b = (2, 3) if trans_b else (3, 2)
        probe = rng.normal(size=(4, 2))

        def build(tape, x):
            a, b = _complex_parts(tape, x, [shape_a, shape_b])
            product = ad.matmul(tape, a, b, trans_a, trans_b)
            expected = (a.value.T if trans_a else a.value) @ (b.value.T if trans_b else b.value)
            assert np.max(np.abs(product.value - expected)) <= 1e-13
            return _real_loss(tape, product, probe)

        _check(_scalar_case(build), rng.normal(size=2 * (12 + 6)))

    def test_channel_mix_on_complex_data(self, monkeypatch):
        # value and both cotangents against NumPy, the mixed second
        # derivative against finite differences; all as matrix products
        rng = np.random.default_rng(8)
        x_value = rng.normal(size=(5, 3, 4)) + 1j * rng.normal(size=(5, 3, 4))
        weights = rng.normal(size=(4, 2))
        cotangent = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
        probe = rng.normal(size=(5, 3, 4))
        tensors = []
        einsum3 = ad.einsum3

        def recording_einsum3(tape, tensor, x, y, subscript):
            tensors.append(np.ndim(tensor))
            return einsum3(tape, tensor, x, y, subscript)

        monkeypatch.setattr(ad, "einsum3", recording_einsum3)

        tape = ad.Tape()
        x, w = tape.variable(x_value), tape.variable(weights)
        mixed = ad.channel_mix(tape, x, w)
        assert np.max(np.abs(mixed.value - x_value @ weights)) <= 1e-13
        # loss = Re sum(cotangent * mixed), whose (holomorphic) adjoint of
        # ``mixed`` is the cotangent
        loss = ad.sum_all(tape, ad.real(tape, ad.mul(tape, tape.constant(cotangent), mixed)))
        grads = ad.backward(tape, loss, wrt=[x, w])
        assert np.max(np.abs(grads[x.id].value - cotangent @ weights.T)) <= 1e-13
        expected_w = np.real(x_value.reshape(15, 4).T @ cotangent.reshape(15, 2))
        assert np.max(np.abs(grads[w.id].value - expected_w)) <= 1e-13

        def mixed_second(values):
            tape = ad.Tape()
            w = tape.variable(values)
            x = tape.variable(x_value)
            out = ad.channel_mix(tape, x, w)
            energy = ad.sum_all(tape, ad.real(tape, ad.mul(tape, _conjugate(tape, out), out)))
            dx = ad.backward(tape, energy, wrt=[x])[x.id]
            loss = _real_loss(tape, dx, probe)
            g2 = ad.backward(tape, loss, wrt=[w])
            return float(np.real(loss.value)), np.real(g2[w.id].value)

        _check(mixed_second, weights.copy())
        assert np.max(np.abs(mixed_second(weights.copy())[1])) > 1e-6
        assert tensors == []  # no einsum3, let alone a 0-d one


def _second_order_chain(tape, x, w):
    """A force-like adjoint (the x-gradient of an energy through
    channel_mix, real/imag and the div/exp/sqrt/tanh chain, recorded on
    ``tape``) turned into a loss, as training does."""
    mixed = ad.channel_mix(tape, ad.complex_cast(tape, x), w)
    scalar = ad.add(
        tape,
        ad.sum_all(tape, ad.mul(tape, ad.real(tape, mixed), ad.imag(tape, ad.exp(tape, mixed)))),
        _div_exp_sqrt_tanh(tape, x),
    )
    force = ad.backward(tape, scalar, wrt=[x])[x.id]
    return ad.sum_all(tape, ad.mul(tape, force, force))


class TestGraphFreeTape:
    """``Tape(graph=False)`` computes values and keeps no graph."""

    def test_lists_no_node_and_links_no_parent(self):
        tape = ad.Tape(graph=False)
        x = tape.variable(np.array([0.5, -1.5]))
        y = ad.sum_all(tape, ad.mul(tape, ad.sin(tape, x), x))
        assert tape.nodes == []
        assert x.parents == () and y.parents == ()
        assert y.value == pytest.approx(float(np.sum(np.sin(x.value) * x.value)))

    def test_backward_on_it_records_nothing(self):
        tape = ad.Tape()
        x = tape.variable(REAL_MAT * 0.4)
        w = tape.variable(WEIGHTS.copy())
        loss = _second_order_chain(tape, x, w)
        recorded = len(tape.nodes)
        free = ad.Tape(graph=False)
        grads = ad.backward(free, loss, wrt=[x, w])
        assert len(tape.nodes) == recorded
        assert free.nodes == []
        assert all(node.parents == () for node in grads.values())

    def test_adjoints_equal_a_recording_backward_bit_for_bit(self):
        def gradients(graph):
            tape = ad.Tape()
            x = tape.variable(REAL_MAT * 0.4)
            w = tape.variable(WEIGHTS.copy())
            loss = _second_order_chain(tape, x, w)
            grads = ad.backward(tape if graph else ad.Tape(graph=False), loss, wrt=[x, w])
            return [grads[x.id].value, grads[w.id].value]

        for recorded, free in zip(gradients(True), gradients(False)):
            assert np.array_equal(recorded, free)

    @pytest.mark.parametrize("graph", [True, False])
    def test_backward_with_wrt_returns_exactly_those_ids(self, graph):
        tape = ad.Tape()
        x = tape.variable(np.array([0.3, -0.7]))
        unused = tape.variable(np.ones((2, 2)))
        square = ad.mul(tape, x, x)
        seed = ad.sum_all(tape, ad.sin(tape, square))
        grads = ad.backward(tape if graph else ad.Tape(graph=False), seed, wrt=[square, x, unused])
        assert list(grads) == [square.id, x.id, unused.id]
        assert np.array_equal(grads[unused.id].value, np.zeros((2, 2)))
        assert np.allclose(grads[square.id].value, np.cos(square.value), atol=0, rtol=1e-15)
        assert np.allclose(
            grads[x.id].value, 2 * x.value * np.cos(square.value), atol=0, rtol=1e-15
        )
        # a seed that depends on none of them
        other = ad.sum_all(tape, unused)
        grads = ad.backward(tape if graph else ad.Tape(graph=False), other, wrt=[x])
        assert list(grads) == [x.id]
        assert np.array_equal(grads[x.id].value, np.zeros(2))


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

    @pytest.mark.parametrize("step", [0.0, -1e-4, float("nan")])
    def test_step_must_be_finite_and_positive(self, step):
        def f(values):
            return float(values.sum()), np.ones_like(values)

        with pytest.raises(ValueError, match="step"):
            ad.gradcheck(f, np.zeros(3), step=step)
