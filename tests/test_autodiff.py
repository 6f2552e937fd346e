import numpy as np
import pytest

from sepkit import DimensionError, NumericError, Tape, gradcheck
from sepkit import autodiff as ad
from sepkit import spectral
from sepkit import tensor as tc
from sepkit.rng import Stream

from oracles import CONV_BLOCK_CASES, bilinear_input_grad_naive


def rand(seed, shape):
    return Stream(seed).normal(shape)


class TestTapeBasics:
    def test_identity_chain_grad_is_ones(self):
        tape = Tape()
        x = tape.leaf(rand(0, (1, 2, 3, 3)), "x")
        y = ad.reshape(x, (1, 2, 3, 3))
        grads = tape.backward(ad.sum_all(y))
        assert np.array_equal(grads["x"], np.ones((1, 2, 3, 3)))

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
                                  padding).shape
        weights = rand(36, out_shape)

        def fn(p):
            y = ad.conv2d(p["x"], p["w"], p["b"], stride, padding)
            return ad.sum_all(ad.mul(y, weights))

        report = gradcheck(fn, {"x": x, "w": rand(35, wshape),
                                "b": rand(37, wshape[:1])}, seed=8)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6

    def test_modulate_complex_weights(self):
        x = rand(12, (1, 2, 8, 8))

        def fn(p):
            sre, sim = spectral.fft2_v(ad.as_var(x))
            mre, mim = spectral.modulate_v(sre, sim, p["wre"], p["wim"])
            return ad.sum_all(spectral.ifft2_real_v(mre, mim))

        report = gradcheck(fn, {"wre": 1.0 + rand(13, (2, 8, 8)),
                                "wim": rand(14, (2, 8, 8))})
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-6

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            gradcheck(lambda p: ad.sum_all(p["w"]), {"w": np.ones((2,))},
                      eps=1e-2)

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
    ("neg", lambda x: ad.neg(x)),
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
    ("stack_last", lambda x: ad.stack_last(x, ad.scale(x, 0.5))),
    ("fft_roundtrip", lambda x: spectral.ifft2_real_v(*spectral.fft2_v(x))),
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bilinear_input_grads_match_scatter_oracle(self, dtype):
        coords = self._border_coords(43)
        x = rand(44, (2, 4, 6, 7)).astype(dtype)
        g = rand(45, (2, 4, 4, 5)).astype(dtype)
        gx, _ = tc.bilinear_sample_grads(g, x, coords, True, False)
        ref = bilinear_input_grad_naive(g.astype(np.float64), x.shape, coords)
        assert gx.dtype == dtype and gx.flags.c_contiguous
        np.testing.assert_allclose(gx, ref,
                                   atol=1e-12 if dtype == np.float64 else 1e-5)
