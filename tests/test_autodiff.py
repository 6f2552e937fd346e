import gc
import weakref

import numpy as np
import pytest

from sepkit import (Ca2neckParams, DimensionError, NumericError, Tape,
                    ca2neck_forward, gradcheck)
from sepkit import autodiff as ad
from sepkit import spectral
from sepkit import tensor as tc
from sepkit.params import named_arrays, replace_vars
from sepkit.props import run_properties
from sepkit.rng import Stream

from oracles import (CONV_BLOCK_CASES, DEPTHWISE_GRAD_CASES,
                     bilinear_grid_grad_naive, bilinear_input_grad_naive,
                     frequency_branch)


def rand(seed, shape):
    return Stream(seed).normal(shape)


class TestTapeBasics:
    def test_identity_chain_grad_is_ones(self):
        tape = Tape()
        x = tape.leaf(rand(0, (1, 2, 3, 3)), "x")
        y = ad.reshape(x, (1, 2, 3, 3))
        grads = tape.backward(ad.sum_all(y))
        assert np.array_equal(grads["x"], np.ones((1, 2, 3, 3)))

    def test_complex_mul_vjp_is_conjugate_product(self):
        # dL/dRe + j dL/dIm of a in z = a*b, with cotangent g, is g*conj(b)
        a = rand(1, (2, 3)) + 1j * rand(2, (2, 3))
        b = rand(3, (2, 3)) + 1j * rand(4, (2, 3))
        g = rand(5, (2, 3)) + 1j * rand(6, (2, 3))
        tape = Tape()
        grads = tape.backward(ad.mul(tape.leaf(a, "a"), b), g)
        np.testing.assert_allclose(grads["a"], g * np.conj(b), rtol=1e-15)
        # the real loss Re<g, a*b> moves by Re<grad, da> along any da
        da = rand(7, (2, 3)) + 1j * rand(8, (2, 3))
        step = np.real(np.vdot(g, (a + 1e-6 * da) * b - a * b)) / 1e-6
        assert step == pytest.approx(np.real(np.vdot(grads["a"], da)),
                                     rel=1e-8)

    def test_sigmoid_at_zero_grad_quarter(self):
        tape = Tape()
        x = tape.leaf(np.zeros((2, 1, 4, 4)), "x")
        grads = tape.backward(ad.sum_all(ad.sigmoid(x)))
        assert (grads["x"] == 0.25).all()

    def test_unreachable_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf(rand(1, (1, 1, 2, 2)), "x")
        dead = tape.leaf(rand(2, (1, 1, 2, 2)), "dead")
        grads = tape.backward(ad.sum_all(ad.scale(x, 2.0)))
        assert np.array_equal(grads["dead"], np.zeros((1, 1, 2, 2)))
        assert (grads["x"] == 2.0).all()

    def test_path_sum_accumulation(self):
        tape = Tape()
        x = tape.leaf(rand(3, (1, 1, 3, 3)), "x")
        y = ad.add(ad.scale(x, 2.0), ad.scale(x, 3.0))
        grads = tape.backward(ad.sum_all(y))
        np.testing.assert_allclose(grads["x"], 5.0, atol=1e-12)

    def test_seed_shape_mismatch(self):
        tape = Tape()
        x = tape.leaf(rand(4, (1, 1, 2, 2)), "x")
        y = ad.scale(x, 1.0)
        with pytest.raises(DimensionError):
            tape.backward(y, seed=np.ones((1, 1, 3, 3)))

    def test_user_seed_propagates(self):
        tape = Tape()
        x = tape.leaf(rand(5, (1, 1, 2, 2)), "x")
        y = ad.scale(x, 3.0)
        seed = np.full((1, 1, 2, 2), 2.0)
        grads = tape.backward(y, seed=seed)
        assert (grads["x"] == 6.0).all()

    def test_empty_tape_rejected(self):
        tape = Tape()
        x = tape.leaf(rand(6, (1, 1, 2, 2)), "x")
        with pytest.raises(ValueError):
            tape.backward(x)

    def test_duplicate_leaf_rejected(self):
        tape = Tape()
        tape.leaf(np.zeros((1, 1, 1, 1)), "w")
        with pytest.raises(ValueError):
            tape.leaf(np.zeros((1, 1, 1, 1)), "w")

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.zeros((1, 1, 1, 1)), "a")
        b = t2.leaf(np.zeros((1, 1, 1, 1)), "b")
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_accumulation_shape_mismatch_names_op(self):
        tape = Tape()
        x = tape.leaf(np.zeros((1, 1, 2, 2)), "x")
        # a vjp that returns the wrong shape must be caught at accumulation
        bad = tape._record(x.value.sum(), (x,),
                           lambda g: (np.zeros((3, 3)),), "bad_op")
        with pytest.raises(DimensionError, match="bad_op"):
            tape.backward(bad)


class TestGradcheckHarness:
    def test_linear_is_exact(self):
        x = rand(7, (1, 1, 4, 4))

        def fn(p):
            return ad.sum_all(ad.mul(p["w"], x))

        report = gradcheck(fn, {"w": rand(8, (1, 1, 4, 4))})
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-10

    def test_conv2d_weights(self):
        x = rand(9, (1, 2, 6, 6))

        def fn(p):
            return ad.sum_all(ad.conv2d(x, p["w"], p["b"], padding=1))

        report = gradcheck(fn, {"w": rand(10, (3, 2, 3, 3)),
                                "b": rand(11, (3,))})
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6

    @pytest.mark.parametrize("name", sorted(CONV_BLOCK_CASES))
    def test_conv2d_block_shapes(self, name):
        shape, channels, wshape, stride, padding = CONV_BLOCK_CASES[name]
        x = rand(34, shape)[:, channels]
        out_shape = tc.conv2d_raw(x, rand(35, wshape), None, stride,
                                  padding)[0].shape
        weights = rand(36, out_shape)

        def fn(p):
            y = ad.conv2d(p["x"], p["w"], p["b"], stride, padding)
            return ad.sum_all(ad.mul(y, weights))

        report = gradcheck(fn, {"x": x, "w": rand(35, wshape),
                                "b": rand(37, wshape[:1])}, seed=8)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6

    @pytest.mark.parametrize("shape,k", DEPTHWISE_GRAD_CASES)
    def test_depthwise_fft_grads(self, shape, k):
        weights = rand(38, shape)

        def fn(p):
            return ad.sum_all(ad.mul(ad.depthwise_conv2d(p["x"], p["w"]),
                                     weights))

        report = gradcheck(fn, {"x": rand(39, shape),
                                "w": rand(40, (shape[1], 1, k, k))}, seed=9)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6

    def test_linear_gradcheck_property_over_seeds(self):
        # the adjoint check holds on every seed, not only the default one
        for seed in range(10):
            results = run_properties("autodiff", seed=seed)
            assert all(r.passed for r in results), [
                r.as_dict() for r in results if not r.passed]

    def test_modulate_complex_weights(self):
        x = rand(12, (1, 2, 8, 8))

        def fn(p):
            w = spectral.ComplexWeights(p["wre"], p["wim"])
            return ad.sum_all(frequency_branch(x, [w]))

        report = gradcheck(fn, {"wre": 1.0 + rand(13, (2, 8, 8)),
                                "wim": rand(14, (2, 8, 8))})
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6

    def test_nonfinite_loss_raises(self):
        big = np.full((1, 1, 1, 1), 400.0)

        def fn(p):
            v = ad.mul(p["w"], big)
            for _ in range(4):
                v = ad.mul(v, v)  # squares its way to overflow
            return ad.sum_all(v)

        with np.errstate(over="ignore"), pytest.raises(NumericError):
            gradcheck(fn, {"w": np.full((1, 1, 1, 1), 1e30)})

    def test_report_flags_instead_of_raising(self):
        x = rand(15, (1, 1, 3, 3))

        def fn(p):
            # deliberately broken closure: value path ignores half the leaf
            w = p["w"]
            detached = ad.as_var(np.abs(w.value))
            return ad.sum_all(ad.mul(w, detached))

        report = gradcheck(fn, {"w": x})
        assert not report.passed  # mismatch reported, no exception

    def test_report_json_fields(self):
        def fn(p):
            return ad.sum_all(ad.scale(p["w"], 2.0))

        report = gradcheck(fn, {"w": np.ones((2, 2))})
        d = report.as_dict()
        assert set(d) == {"eps", "tol", "pass", "params"}
        assert set(d["params"][0]) == {"param", "max_abs_err", "max_rel_err",
                                       "cosine", "pass"}
        assert d["params"][0]["cosine"] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _offset_sigmoid_loss(offset, vjp_scale=1.0):
        # sum σ(w) + offset; the vjp optionally off by a relative vjp_scale
        def fn(p):
            w = p["w"]
            s = tc.sigmoid_raw(w.value)
            y = ad._apply(s, (w,), lambda g: (g * s * (1.0 - s) * vjp_scale,),
                          "sigmoid")
            return ad.add(ad.sum_all(y), np.float64(offset))
        return fn

    def test_offset_loss_passes_on_the_refined_reference(self):
        # a constant 2e7 puts ~1e-9 of rounding on each loss, which a plain
        # central difference at eps 1e-5 turns into a relative error
        # above tol on gradients near 0.2; the Ridders steps do not
        w = rand(70, (16,))
        fn = self._offset_sigmoid_loss(2e7)
        s = tc.sigmoid_raw(w)
        exact = s * (1.0 - s)

        def loss(d):
            return np.array([float(fn({"w": ad.Var(w + e)}).value)
                             for e in np.eye(16) * d])
        plain = (loss(1e-5) - loss(-1e-5)) / 2e-5
        assert (np.abs(plain - exact) / exact).max() > 1e-4
        report = gradcheck(fn, {"w": w})
        assert report.passed, report.as_dict()
        assert report.params[0].max_rel_err <= 1e-5

    def test_vjp_off_by_1e_3_fails_on_the_refined_reference(self):
        report = gradcheck(self._offset_sigmoid_loss(2e7, 1.0 + 1e-3),
                           {"w": rand(70, (16,))})
        assert not report.passed
        assert report.params[0].max_rel_err > 9e-4

    @pytest.mark.parametrize("offset,rows", [(0.0, [8]), (2e7, [8, 24])])
    def test_refinement_rows_share_one_evaluator_call(self, offset, rows):
        # four coordinates: one call of 8 rows at ±eps, and, when their
        # round-off budget is not small against tol, one call of 24 rows
        # at ± each of the three Ridders steps
        fn = self._offset_sigmoid_loss(offset)
        rowwise, seen = ad._rowwise(fn), []

        def losses(params, name, stack):
            seen.append(len(stack))
            return rowwise(params, name, stack)

        assert gradcheck(fn, {"w": rand(71, (4,))}, losses=losses).passed
        assert seen == rows

    def test_subsampling_large_param(self):
        x = rand(16, (1, 4, 16, 16))

        def fn(p):
            return ad.sum_all(ad.mul(p["w"], x))

        report = gradcheck(fn, {"w": rand(17, (1, 4, 16, 16))},
                           max_coords=64)
        assert report.passed


OP_CASES = [
    ("gelu", lambda x: ad.gelu(x)),
    ("silu", lambda x: ad.silu(x)),
    ("sigmoid", lambda x: ad.sigmoid(x)),
    ("reshape", lambda x: ad.reshape(x, (1, 8 * 16 * 16))),
    ("transpose", lambda x: ad.transpose(x, (0, 2, 3, 1))),
    ("mean_spatial", lambda x: ad.mean_axes(x, (2, 3))),
    ("max_spatial", lambda x: ad.amax_axes(x, (2, 3))),
    ("mean_channels", lambda x: ad.mean_axes(x, (1,))),
    ("max_channels", lambda x: ad.amax_axes(x, (1,))),
    ("split_concat", lambda x: ad.concat(ad.split(x, [3, 5], axis=1),
                                         axis=1)),
    ("depthwise", lambda x: ad.depthwise_conv2d(
        x, Stream(99).normal((8, 1, 3, 3)))),
    ("fft_roundtrip", lambda x: spectral.irfft2_v(spectral.rfft2_v(x), 16)),
]


class TestEveryOpDifferentiates:
    @pytest.mark.parametrize("name,op", OP_CASES, ids=[c[0] for c in OP_CASES])
    def test_gradcheck_op(self, name, op):
        def fn(p):
            return ad.sum_all(op(p["x"]))

        report = gradcheck(fn, {"x": rand(18, (1, 8, 16, 16))}, seed=4)
        assert report.passed, f"{name}: {report.as_dict()}"
        assert max(p.max_rel_err for p in report.params) <= 1e-4

    def test_bilinear_coordinate_grads_off_lattice(self):
        x = rand(19, (1, 2, 8, 8))
        base = Stream(20).uniform((1, 1, 5, 5, 2)) * 5.0
        # keep every coordinate at least 0.3 pixels from integer lines
        coords = np.floor(base) + 0.3 + 0.4 * Stream(21).uniform(
            (1, 1, 5, 5, 2))

        def fn(p):
            grid = ad.add(p["g"], coords)
            return ad.sum_all(ad.bilinear_sample(x, grid))

        report = gradcheck(fn, {"g": np.zeros((1, 1, 5, 5, 2))}, seed=5)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-4

    def test_bilinear_input_grads(self):
        coords = np.floor(Stream(22).uniform((1, 1, 4, 4, 2)) * 6.0) + 0.4

        def fn(p):
            return ad.sum_all(ad.bilinear_sample(p["x"], coords))

        report = gradcheck(fn, {"x": rand(23, (1, 2, 7, 7))}, seed=6)
        assert report.passed

    @staticmethod
    def _border_coords(seed):
        # batch 2, groups 2; many points fall outside the 6x7 plane and
        # clamp to its border, where a point's corners coincide
        base = Stream(seed).uniform((2, 2, 4, 5, 2)) * 10.0 - 2.0
        return np.floor(base) + 0.4

    def test_bilinear_input_grads_clamped_batched(self):
        coords = self._border_coords(40)
        assert (coords < 0).any() and (coords[..., 0] > 5).any()

        def fn(p):
            return ad.sum_all(ad.mul(ad.bilinear_sample(p["x"], coords),
                                     rand(41, (2, 4, 4, 5))))

        report = gradcheck(fn, {"x": rand(42, (2, 4, 6, 7))}, seed=7)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-4

    def test_bilinear_grid_grads_batched_grouped_clamped(self):
        # off-lattice points; rows past 5 or below 0 and columns past 6 or
        # below 0 clamp to the 6x7 border, where the gradient is zero
        base = Stream(46).uniform((2, 2, 4, 5, 2)) * 10.0 - 2.0
        coords = np.floor(base) + 0.3 + 0.4 * Stream(47).uniform(base.shape)
        clamped = ((coords[..., 0] < 0) | (coords[..., 0] > 5)
                   | (coords[..., 1] < 0) | (coords[..., 1] > 6))
        assert clamped.any() and not clamped.all()
        x = rand(48, (2, 4, 6, 7))
        weights = rand(49, (2, 4, 4, 5))

        def fn(p):
            grid = ad.add(p["g"], coords)
            return ad.sum_all(ad.mul(ad.bilinear_sample(x, grid), weights))

        report = gradcheck(fn, {"g": np.zeros(coords.shape)}, seed=10,
                           max_coords=160)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bilinear_input_grads_match_scatter_oracle(self, dtype):
        coords = self._border_coords(43)
        x = rand(44, (2, 4, 6, 7)).astype(dtype)
        g = rand(45, (2, 4, 4, 5)).astype(dtype)
        _, plan = tc.bilinear_sample_raw(x, coords)
        gx, _ = tc.bilinear_sample_grads(g, x, coords, True, False, plan)
        ref = bilinear_input_grad_naive(g.astype(np.float64), x.shape, coords)
        assert gx.dtype == dtype and gx.flags.c_contiguous
        np.testing.assert_allclose(gx, ref,
                                   atol=1e-12 if dtype == np.float64 else 1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bilinear_grid_grads_match_pointwise_oracle(self, dtype):
        coords = self._border_coords(50) + 0.2 * Stream(51).uniform(
            (2, 2, 4, 5, 2))
        x = rand(52, (2, 4, 6, 7)).astype(dtype)
        g = rand(53, (2, 4, 4, 5)).astype(dtype)
        _, plan = tc.bilinear_sample_raw(x, coords)
        _, ggrid = tc.bilinear_sample_grads(g, x, coords, False, True, plan)
        ref = bilinear_grid_grad_naive(g.astype(np.float64),
                                       x.astype(np.float64), coords)
        assert ggrid.dtype == dtype and ggrid.flags.c_contiguous
        np.testing.assert_allclose(ggrid, ref,
                                   atol=1e-12 if dtype == np.float64 else 1e-5)

    # a one-sample operand broadcast against a batch of K on a tape: its
    # gradient is summed over the batch, as `add` sums a broadcast operand

    def test_concat_shared_part_grads(self):
        weights = rand(54, (3, 5, 4, 5))

        def fn(p):
            return ad.sum_all(ad.mul(ad.concat([p["a"], p["b"]]), weights))

        params = {"a": rand(55, (1, 2, 4, 5)), "b": rand(56, (3, 3, 4, 5))}
        report = gradcheck(fn, params, seed=11)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6
        tape = Tape()
        a, b = (tape.leaf(v, k) for k, v in params.items())
        grads = tape.backward(fn({"a": a, "b": b}))
        np.testing.assert_allclose(
            grads["a"], weights[:, :2].sum(axis=0, keepdims=True), rtol=1e-15)
        assert np.array_equal(grads["b"], weights[:, 2:])

    def test_bilinear_shared_x_grads(self):
        # three grid samples read one x; off-lattice points, some clamped
        base = Stream(57).uniform((3, 2, 4, 5, 2)) * 10.0 - 2.0
        coords = np.floor(base) + 0.3 + 0.4 * Stream(58).uniform(base.shape)
        weights = rand(59, (3, 4, 4, 5))

        def fn(p):
            grid = ad.add(p["g"], coords)
            return ad.sum_all(ad.mul(ad.bilinear_sample(p["x"], grid),
                                     weights))

        report = gradcheck(fn, {"x": rand(60, (1, 4, 6, 7)),
                                "g": np.zeros(coords.shape)}, seed=12,
                           max_coords=240)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-4

    def test_bilinear_shared_x_grad_is_the_sum_over_grid_samples(self):
        coords = self._border_coords(61)[:1].repeat(3, axis=0) + rand(
            62, (3, 2, 4, 5, 2)) * 0.1
        x, g = rand(63, (1, 4, 6, 7)), rand(64, (3, 4, 4, 5))
        _, plan = tc.bilinear_sample_raw(x, coords)
        gx, _ = tc.bilinear_sample_grads(g, x, coords, True, False, plan)
        ref = sum(bilinear_input_grad_naive(g[k:k + 1], x.shape,
                                            coords[k:k + 1])
                  for k in range(3))
        np.testing.assert_allclose(gx, ref, atol=1e-12)


def _neck_record():
    """A small ca2neck forward and loss recorded on a fresh tape."""
    p = Ca2neckParams.init((8, 16, 32), rng=Stream(80))
    tape = Tape()
    leaves = {k: tape.leaf(v, k) for k, v in named_arrays(p).items()}
    xs = [ad.Var(rand(81 + i, (1, c, 16 >> i, 16 >> i)))
          for i, c in enumerate(p.channels)]
    loss = None
    for i, y in enumerate(ca2neck_forward(xs, replace_vars(p, leaves))):
        term = ad.sum_all(ad.mul(y, rand(90 + i, y.value.shape)))
        loss = term if loss is None else ad.add(loss, term)
    return tape, loss


class TestTapeLifetime:
    def test_step_frees_tape_and_activations_without_gc(self):
        def step(refs):
            tape, loss = _neck_record()
            largest = max((node.out.value for node in tape._nodes),
                          key=lambda v: v.nbytes)
            refs += [weakref.ref(tape), weakref.ref(largest)]
            del largest
            return tape.backward(loss)

        gc.collect()
        gc.disable()
        try:
            refs = []
            grads = step(refs)
            assert grads and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        tape, loss = _neck_record()
        tape.backward(loss)
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)

    def test_record_length_kept_for_node_counts(self):
        # a neck step records 90 nodes; the count survives backward.
        # dysample 7 each (head conv2d, reshape, transpose, reshape, scale,
        # add, bilinear_sample), ldconv 10 each (offset conv2d, reshape,
        # add, transpose, reshape, bilinear_sample, reshape, transpose,
        # reshape, mix conv2d), merge 2 each (concat, conv2d), msgrb 10
        # each (conv2d, 2 split, gelu, fold_kernels, depthwise_conv2d,
        # sigmoid, mul, conv2d, add), loss 8 (3 mul, 3 sum_all, 2 add):
        # 2*7 + 2*10 + 4*2 + 4*10 + 8 = 90
        tape, loss = _neck_record()
        tape.backward(loss)
        assert len(tape._nodes) == 90
        assert all(node.out is None and node.vjp is None
                   for node in tape._nodes)
