import numpy as np
import pytest
from scipy.special import erf, expit

from sepkit import DimensionError, NumericError, Tensor
from sepkit import autodiff as ad
from sepkit.rng import Stream
from sepkit.tensor import (BAND_COLS, conv2d_grads, conv2d_raw,
                           depthwise_conv2d_grads, gelu_raw, sigmoid_raw,
                           silu_raw)

from oracles import (CONV_BLOCK_CASES, DEPTHWISE_GRAD_CASES, conv2d_naive,
                     depthwise_naive)


def rand_array(seed, shape):
    return Stream(seed).normal(shape)


def ulps(a, b):
    """|a - b| in units in the last place: the distance of the two values
    in the ordered sequence of floats of their dtype (±0 coincide)."""
    bits = {np.dtype(np.float32): np.int32, np.dtype(np.float64): np.int64}
    signed = bits[a.dtype]

    def order(v):
        i = v.view(signed).astype(np.int64)
        return np.where(i < 0, np.iinfo(signed).min - i, i)
    return np.abs(order(a) - order(b))


# the Var ops, on ndarrays, returning the value array
def conv2d(x, w, bias=None, stride=1, padding=0):
    return ad.conv2d(x, w, bias, stride, padding).value


def depthwise_conv2d(x, w):
    return ad.depthwise_conv2d(x, w).value


def bilinear_sample(x, grid):
    return ad.bilinear_sample(x, grid).value


def gelu(x):
    return ad.gelu(x).value


def sigmoid(x):
    return ad.sigmoid(x).value


def silu(x):
    return ad.silu(x).value


def split(x, sizes):
    return [v.value for v in ad.split(x, sizes, axis=1)]


def concat(parts):
    return ad.concat(parts, axis=1).value


class TestTensorType:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3, 4)))

    def test_rejects_zero_dim(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((1, 0, 4, 4)))

    def test_rejects_nan(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            Tensor(bad)

    def test_rejects_inf(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 1, 1] = np.inf
        with pytest.raises(NumericError):
            Tensor(bad)

    def test_immutable(self):
        t = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0

    def test_dtype_names(self):
        assert Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32)).dtype == "f32"
        assert Tensor(np.zeros((1, 1, 1, 1))).dtype == "f64"
        # any other dtype is read as f64
        t = Tensor(np.ones((1, 1, 2, 2), dtype=np.float16))
        assert t.dtype == "f64" and t.data.dtype == np.float64


class TestConv2d:
    def test_identity_1x1(self):
        x = rand_array(0, (1, 3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        y = conv2d(x, w)
        assert np.array_equal(y, x)

    def test_ones_kernel_center_is_nine(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = conv2d(x, w, padding=1)
        assert y[0, 0, 1, 1] == pytest.approx(9.0, abs=1e-12)
        # frozen from the quadruple-loop oracle: corners see 4 taps, edges 6
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        np.testing.assert_allclose(y[0, 0], expected, atol=1e-12)

    def test_matches_naive_oracle(self):
        x = Stream(1).normal((1, 1, 4, 4))
        w = Stream(2).normal((1, 1, 3, 3))
        y = conv2d(x, w)
        np.testing.assert_allclose(y, conv2d_naive(x, w), atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0),
                                                (2, 1), (3, 2)])
    def test_matches_naive_with_stride_padding(self, stride, padding):
        x = Stream(3).normal((2, 3, 7, 6))
        w = Stream(4).normal((4, 3, 3, 3))
        b = Stream(5).normal((4,))
        y = conv2d(x, w, bias=b, stride=stride, padding=padding)
        ref = conv2d_naive(x, w, b, stride, padding)
        assert y.shape == ref.shape
        np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_linearity(self):
        x = Stream(6).normal((1, 2, 6, 6))
        y = Stream(7).normal((1, 2, 6, 6))
        w = Stream(8).normal((3, 2, 3, 3))
        a, b = 1.25, -0.5
        lhs = conv2d(a * x + b * y, w, padding=1)
        rhs = a * conv2d(x, w, padding=1) \
            + b * conv2d(y, w, padding=1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @staticmethod
    def _block_case(name, dtype=np.float64):
        shape, channels, wshape, stride, padding = CONV_BLOCK_CASES[name]
        x = Stream(30).normal(shape).astype(dtype)[:, channels]
        w = Stream(31).normal(wshape).astype(dtype)
        b = Stream(32).normal(wshape[:1]).astype(dtype)
        g_shape = conv2d_naive(x, w, b, stride, padding).shape
        g = Stream(33).normal(g_shape).astype(dtype)
        return x, w, b, g, stride, padding

    @pytest.mark.parametrize("name", sorted(CONV_BLOCK_CASES))
    def test_block_shapes_match_naive_oracle(self, name):
        x, w, b, g, stride, padding = self._block_case(name)
        y, cols = conv2d_raw(x, w, b, stride, padding)
        np.testing.assert_allclose(y, conv2d_naive(x, w, b, stride, padding),
                                   atol=1e-12)
        # the gradients are the adjoint of the (bias-free) oracle map
        gx, gw, gb = conv2d_grads(g, x, w, cols, stride, padding, True)
        assert gx.shape == x.shape and gw.shape == w.shape
        ref = float((g * conv2d_naive(x, w, None, stride, padding)).sum())
        assert float((gx * x).sum()) == pytest.approx(ref, rel=1e-12)
        assert float((gw * w).sum()) == pytest.approx(ref, rel=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), atol=1e-12)

    @pytest.mark.parametrize("name", sorted(CONV_BLOCK_CASES))
    def test_block_shapes_f32_stays_f32(self, name):
        x, w, b, g, stride, padding = self._block_case(name, np.float32)
        y, cols = conv2d_raw(x, w, b, stride, padding)
        grads = conv2d_grads(g, x, w, cols, stride, padding, True)
        for arr in (y,) + grads:
            assert arr.dtype == np.float32 and arr.flags.c_contiguous
        ref = conv2d_naive(x.astype(np.float64), w.astype(np.float64),
                           b.astype(np.float64), stride, padding)
        np.testing.assert_allclose(y, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_1x1_grads_keep_their_bytes(self, dtype):
        # a 1x1, stride-1, unpadded conv's gradients written out: gx = wᵀ·g
        # and gw = Σ g·xᵀ over the batch, to the byte
        x = Stream(34).normal((2, 3, 5, 4)).astype(dtype)
        w = Stream(35).normal((4, 3, 1, 1)).astype(dtype)
        b = Stream(36).normal((4,)).astype(dtype)
        g = Stream(37).normal((2, 4, 5, 4)).astype(dtype)
        tape = ad.Tape()
        leaves = [tape.leaf(v, k) for k, v in (("x", x), ("w", w), ("b", b))]
        got = tape.backward(ad.conv2d(*leaves), g)
        g2, w2 = g.reshape(2, 4, 20), w.reshape(4, 3)
        want = {"x": np.matmul(w2.T, g2).reshape(x.shape),
                "w": np.matmul(g2, x.reshape(2, 3, 20).transpose(0, 2, 1))
                .sum(axis=0).reshape(w.shape),
                "b": g.sum(axis=(0, 2, 3))}
        for k, v in want.items():
            assert got[k].dtype == dtype and got[k].shape == v.shape
            assert got[k].tobytes() == v.tobytes(), k

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            conv2d(rand_array(0, (1, 3, 4, 4)),
                   rand_array(1, (2, 4, 3, 3)))

    def test_nan_weights_raise(self):
        x = rand_array(0, (1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        w[0, 0, 0, 0] = np.nan
        from sepkit.tensor import conv2d_raw
        with pytest.raises(NumericError):
            conv2d_raw(x, w, None, 1, 1)


class TestDepthwise:
    def test_center_delta_is_identity(self):
        x = rand_array(9, (1, 3, 5, 5))
        w = np.zeros((3, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        y = depthwise_conv2d(x, w)
        assert np.array_equal(y, x)

    def test_cross_channel_independence(self):
        w = Stream(10).normal((3, 1, 3, 3))
        x = Stream(11).normal((1, 3, 5, 5))
        x2 = x.copy()
        x2[0, 0] += 0.7
        y1 = depthwise_conv2d(x, w)
        y2 = depthwise_conv2d(x2, w)
        assert np.array_equal(y1[:, 1:], y2[:, 1:])
        assert not np.array_equal(y1[:, :1], y2[:, :1])

    # the first single-plane case, the gradient cases, a plane narrower
    # than its kernel, k = 1, and a plane of three banded column blocks
    WIDE = (1, 2, 3, 2 * BAND_COLS + 5)
    ORACLE_CASES = [((1, 2, 5, 5), 3)] + DEPTHWISE_GRAD_CASES + [
        ((1, 2, 2, 3), 7), ((2, 3, 6, 10), 1), (WIDE, 7)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,k", ORACLE_CASES)
    def test_matches_per_channel_oracle(self, shape, k, dtype):
        x = Stream(12).normal(shape)
        w = Stream(13).normal((shape[1], 1, k, k))
        y = depthwise_conv2d(x.astype(dtype), w.astype(dtype))
        assert y.dtype == dtype and y.shape == x.shape
        # f64 at the old absolute bound; f32 within 8 ulp of the largest
        # output, against the f64 oracle on the same (f32-exact) values
        ref = depthwise_naive(x.astype(dtype).astype(np.float64),
                              w.astype(dtype).astype(np.float64))
        atol = (1e-12 if dtype == np.float64
                else 8 * np.finfo(np.float32).eps * np.abs(ref).max())
        np.testing.assert_allclose(y, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 6, 10), WIDE])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_off_center_delta_shifts_exactly(self, k, shape, dtype):
        # a delta at tap (i, j) reads x at (r + i - p, v + j - p), zeros
        # outside the plane: each output is one product, so bit for bit
        x = Stream(14).normal(shape).astype(dtype)
        h, wd = shape[2:]
        p = k // 2
        for i in range(k):
            for j in range(k):
                w = np.zeros((shape[1], 1, k, k), dtype)
                w[:, 0, i, j] = 1.0
                want = np.zeros_like(x)
                di, dj = i - p, j - p
                want[:, :, max(-di, 0):h - max(di, 0),
                     max(-dj, 0):wd - max(dj, 0)] = \
                    x[:, :, max(di, 0):h - max(-di, 0),
                      max(dj, 0):wd - max(-dj, 0)]
                assert np.array_equal(depthwise_conv2d(x, w), want), (i, j)

    def test_f32_input_with_f64_weights_stays_f32(self):
        # the sums run in f64 and are rounded once to the input's dtype
        x = Stream(15).normal((2, 3, 9, 7)).astype(np.float32)
        w = Stream(16).normal((3, 1, 7, 7))
        y = depthwise_conv2d(x, w)
        assert y.dtype == np.float32
        wide = depthwise_conv2d(x.astype(np.float64), w)
        assert np.array_equal(y, wide.astype(np.float32))

    def test_channel_count_mismatch(self):
        with pytest.raises(DimensionError):
            depthwise_conv2d(rand_array(0, (1, 3, 4, 4)),
                             rand_array(1, (2, 1, 3, 3)))

    def test_padding_contract(self):
        # the padding is k // 2, so every odd square kernel keeps the plane
        x = rand_array(0, (1, 2, 4, 4))
        for k in (1, 3, 5):
            w = rand_array(1, (2, 1, k, k))
            assert depthwise_conv2d(x, w).shape == x.shape
        with pytest.raises(DimensionError):
            depthwise_conv2d(x, rand_array(1, (2, 1, 3, 2)))

    def test_even_kernel_is_rejected(self):
        # an even kernel has no centre: refused at the forward, before a
        # tape records a node whose gradient could not take its shape
        x = rand_array(0, (1, 2, 5, 5))
        w = ad.Tape().leaf(rand_array(1, (2, 1, 4, 4)), "w")
        with pytest.raises(DimensionError, match="odd"):
            ad.depthwise_conv2d(x, w)

    @staticmethod
    def _grad_case(shape, k, dtype=np.float64):
        x = Stream(70).normal(shape).astype(dtype)
        w = Stream(71).normal((shape[1], 1, k, k)).astype(dtype)
        g = Stream(72).normal(shape).astype(dtype)
        return x, w, g

    @pytest.mark.parametrize("shape,k", DEPTHWISE_GRAD_CASES)
    def test_fft_grads_are_oracle_adjoint(self, shape, k):
        x, w, g = self._grad_case(shape, k)
        gx, gw = depthwise_conv2d_grads(g, x, w)
        ref = float((g * depthwise_naive(x, w)).sum())
        assert float((gx * x).sum()) == pytest.approx(ref, rel=1e-12)
        assert float((gw * w).sum()) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("shape,k", DEPTHWISE_GRAD_CASES)
    def test_fft_grads_f32_stays_f32(self, shape, k):
        x, w, g = self._grad_case(shape, k, np.float32)
        grads = depthwise_conv2d_grads(g, x, w)
        wide = depthwise_conv2d_grads(*(a.astype(np.float64)
                                        for a in (g, x, w)))
        for arr, ref in zip(grads, wide):
            assert arr.dtype == np.float32 and arr.flags.c_contiguous
            np.testing.assert_allclose(arr, ref, rtol=1e-5, atol=1e-5)


class TestBilinear:
    def test_integer_coordinates_exact(self):
        x = rand_array(14, (1, 2, 4, 5))
        rr, cc = np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij")
        grid = np.stack([rr, cc], axis=-1)[None, None]
        y = bilinear_sample(x, grid)
        assert np.array_equal(y, x)

    def test_half_pixel_average(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        grid = np.array([0.5, 0.5]).reshape(1, 1, 1, 1, 2)
        y = bilinear_sample(x, grid)
        assert y[0, 0, 0, 0] == pytest.approx(2.5, abs=1e-15)

    def test_border_clamp(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        grid = np.array([-5.0, -5.0]).reshape(1, 1, 1, 1, 2)
        y = bilinear_sample(x, grid)
        assert y[0, 0, 0, 0] == 1.0

    def test_bad_last_dim(self):
        with pytest.raises(DimensionError):
            ad.bilinear_sample(np.zeros((1, 1, 2, 2)),
                               np.zeros((1, 1, 2, 2, 3)))

    def test_3d_input_is_rejected(self):
        with pytest.raises(DimensionError, match="4D"):
            ad.bilinear_sample(np.zeros((1, 2, 2)),
                               np.zeros((1, 1, 2, 2, 2)))

    def test_bounded_by_input_range(self):
        x = Stream(15).normal((2, 4, 6, 6))
        coords = Stream(16).uniform((2, 1, 9, 9, 2)) * 12.0 - 3.0
        from sepkit.tensor import bilinear_sample_raw
        y, _ = bilinear_sample_raw(x, coords)
        lo = x.min(axis=(2, 3), keepdims=True)
        hi = x.max(axis=(2, 3), keepdims=True)
        assert (y <= hi).all() and (y >= lo).all()

    def test_constant_preserved_exactly(self):
        x = np.full((1, 3, 4, 4), 1.37)
        coords = Stream(17).uniform((1, 1, 5, 5, 2)) * 4.0 - 0.5
        y = bilinear_sample(x, coords)
        assert (y == 1.37).all()

    def test_grouped_sampling(self):
        x = Stream(18).normal((1, 4, 4, 4))
        coords = np.zeros((1, 2, 2, 2, 2))
        coords[0, 0] += 1.0  # group 0 samples (1, 1)... wait rows/cols both 1
        from sepkit.tensor import bilinear_sample_raw
        y, _ = bilinear_sample_raw(x, coords)
        assert y.shape == (1, 4, 2, 2)
        # group 0 (channels 0, 1) reads (1, 1); group 1 (channels 2, 3) (0, 0)
        assert np.allclose(y[0, 0], x[0, 0, 1, 1])
        assert np.allclose(y[0, 2], x[0, 2, 0, 0])


class TestActivations:
    def test_sigmoid_zero(self):
        x = np.zeros((1, 1, 2, 2))
        assert (sigmoid(x) == 0.5).all()

    def test_gelu_silu_zero(self):
        x = np.zeros((1, 1, 2, 2))
        assert (gelu(x) == 0.0).all()
        assert (silu(x) == 0.0).all()

    def test_sigmoid_large_negative_no_underflow(self):
        x = np.full((1, 1, 1, 1), -50.0)
        v = sigmoid(x)[0, 0, 0, 0]
        assert 0.0 < v <= 2e-22
        assert np.isfinite(v)

    def test_sigmoid_dtype_saturation_and_nan(self):
        x = np.array([-800.0, 0.0, 800.0]).reshape(1, 1, 1, 3)
        with np.errstate(all="raise"):
            for dtype in (np.float32, np.float64):
                v = sigmoid_raw(x.astype(dtype))
                assert v.dtype == dtype
                assert v.reshape(-1).tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(NumericError):
            sigmoid_raw(np.full((1, 1, 1, 1), np.nan))

    @pytest.mark.parametrize("dtype,edges", [(np.float32, (88.0, 104.0)),
                                             (np.float64, (709.0, 745.0))])
    def test_sigmoid_and_silu_within_ulps_of_expit(self, dtype, edges):
        # scipy's expit computes the same 1/(1 + exp(-x)); only exp's
        # last-place rounding differs.  The draws cover the bulk, the
        # whole saturating range and ±2 around exp(-x)'s overflow and
        # underflow, where σ turns subnormal or rounds to 1.
        rng = Stream(72)
        reach = edges[1] + 15.0
        x = np.concatenate(
            [rng.normal((400_000,), scale=8.0),
             (2.0 * rng.uniform((400_000,)) - 1.0) * reach]
            + [sign * edge + 4.0 * rng.uniform((50_000,)) - 2.0
               for edge in edges for sign in (-1.0, 1.0)]).astype(dtype)
        want = expit(x)
        s = sigmoid_raw(x)
        y, kept = silu_raw(x)
        assert s.dtype == y.dtype == dtype
        assert kept.tobytes() == s.tobytes()
        assert ulps(s, want).max() <= 4
        # x·σ(x) adds its own rounding, and σ's subnormals carry fewer bits
        assert ulps(y, x * want).max() <= 6

    def test_sigmoid_range(self):
        x = rand_array(19, (1, 2, 8, 8))
        v = sigmoid(x)
        assert (v > 0).all() and (v < 1).all()

    def test_gelu_matches_reference_points(self):
        # frozen from the exact erf formulation evaluated with mpmath
        x = np.array([1.0, -1.0, 0.5, 2.0]).reshape(1, 1, 2, 2)
        expected = np.array([0.84134474606854293, -0.15865525393145707,
                             0.34573123063700656, 1.9544997361036416])
        np.testing.assert_allclose(gelu(x).reshape(-1), expected,
                                   rtol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_value_and_vjp_keep_their_bytes(self, dtype):
        # the erf formulas written out: 0.5·x·(1 + erf(x/√2)) and its
        # derivative Φ(x) + x·φ(x), both to the byte
        x = np.concatenate([rand_array(30, (64,)) * 3.0, np.zeros(4),
                            np.linspace(-10.0, 10.0, 41)]).astype(dtype)
        g = rand_array(31, x.shape).astype(dtype)
        c = float(1.0 / np.sqrt(2.0))
        want_y = 0.5 * x * (1.0 + erf(x * c))
        want_g = g * (0.5 * (1.0 + erf(x * c))
                      + x * float(1.0 / np.sqrt(2.0 * np.pi))
                      * np.exp(-0.5 * x * x))
        tape = ad.Tape()
        y = ad.gelu(tape.leaf(x, "x"))
        got_g = tape.backward(y, g)["x"]
        for got, want in ((y.value, want_y), (got_g, want_g)):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_gelu_rejects_nan(self):
        bad = np.array([0.0, np.nan, 1.0])
        with pytest.raises(NumericError):
            ad.gelu(bad)
        with pytest.raises(NumericError):
            gelu_raw(bad)


class TestSplitConcat:
    def test_round_trip_bit_exact(self):
        x = rand_array(20, (2, 8, 3, 3))
        assert np.array_equal(concat(split(x, [4, 4])), x)

    def test_split_blocks_are_leading_channels(self):
        x = rand_array(21, (1, 8, 2, 2))
        first, second = split(x, [3, 5])
        assert np.array_equal(first, x[:, :3])
        assert np.array_equal(second, x[:, 3:])

    def test_concat_shape(self):
        a = rand_array(22, (1, 2, 4, 4))
        b = rand_array(23, (1, 6, 4, 4))
        assert concat([a, b]).shape == (1, 8, 4, 4)
        # a negative axis joins as numpy does, and the vjp slices g back
        c = rand_array(24, (1, 2, 4, 5))
        tape = ad.Tape()
        y = ad.concat([tape.leaf(a, "a"), tape.leaf(c, "c")], axis=-1)
        assert np.array_equal(y.value, np.concatenate([a, c], axis=-1))
        g = rand_array(25, (1, 2, 4, 9))
        grads = tape.backward(y, g)
        assert np.array_equal(grads["a"], g[..., :4])
        assert np.array_equal(grads["c"], g[..., 4:])

    def test_bad_sizes(self):
        with pytest.raises(DimensionError):
            split(rand_array(0, (1, 8, 2, 2)), [3, 4])

    def test_negative_size_rejected(self):
        # [-1, 5] sums to the 4 channels but must not slice blocks of 3, 1
        with pytest.raises(DimensionError, match=r"\[-1, 5\]"):
            split(rand_array(0, (1, 4, 2, 2)), [-1, 5])

    def test_concat_disagreement(self):
        with pytest.raises(DimensionError):
            concat([rand_array(0, (1, 2, 4, 4)),
                    rand_array(1, (1, 2, 3, 4))])
