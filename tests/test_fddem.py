import numpy as np
import pytest

from sepkit import (DimensionError, FddemParams, Tensor, dual_attention,
                    fddem_forward, gradcheck)
from sepkit import autodiff as ad
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream


def rand_tensor(seed, shape):
    return Tensor(Stream(seed).normal(shape))


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def silu(v):
    return v * sigmoid(v)


class TestDualAttention:
    def test_zero_weights_give_half(self):
        p = FddemParams.identity(4, 8, 8)
        f = Tensor(np.full((1, 4, 8, 8), 3.25))
        att = dual_attention(f, p)
        assert (att.data == 0.5).all()

    def test_output_strictly_in_unit_interval(self):
        p = FddemParams.random(4, 8, 8, Stream(1))
        att = dual_attention(rand_tensor(2, (2, 4, 8, 8)), p)
        assert (att.data > 0).all() and (att.data < 1).all()
        assert att.shape == (2, 4, 8, 8)

    def test_hand_computed_single_channel_case(self):
        # C=1, r=1: both MLP convs are scalars, the 7x7 conv reads its
        # center taps only; every step is reproduced by hand below.
        p = FddemParams.identity(1, 2, 2, branches=1, reduction=1)
        p.ca_w1 = np.full((1, 1, 1, 1), 1.5)
        p.ca_b1 = np.array([0.2])
        p.ca_w2 = np.full((1, 1, 1, 1), -0.75)
        p.ca_b2 = np.array([0.1])
        sa = np.zeros((1, 2, 7, 7))
        sa[0, 0, 3, 3] = 0.5   # center tap over the channel-mean map
        sa[0, 1, 3, 3] = 0.25  # center tap over the channel-max map
        p.sa_w, p.sa_b = sa, np.array([-0.05])

        plane = np.array([[0.4, -1.2], [2.0, 0.6]])
        f = Tensor(plane[None, None])
        att = dual_attention(f, p)

        def mlp(v):
            return -0.75 * silu(1.5 * v + 0.2) + 0.1

        channel_logit = mlp(plane.mean()) + mlp(plane.max())
        spatial_logit = 0.5 * plane + 0.25 * plane - 0.05
        expected = sigmoid(channel_logit + spatial_logit)
        np.testing.assert_allclose(att.data[0, 0], expected, atol=1e-12)

    def test_reduction_larger_than_channels_rejected(self):
        with pytest.raises(DimensionError):
            FddemParams.identity(2, 8, 8, reduction=4)


class TestFddemForward:
    def test_shape_contract(self):
        p = FddemParams.random(8, 16, 16, Stream(3))
        x = rand_tensor(4, (1, 8, 16, 16))
        assert fddem_forward(x, p).shape == (1, 8, 16, 16)

    def test_identity_at_init_exact(self):
        p = FddemParams.identity(4, 8, 8)
        x = rand_tensor(5, (2, 4, 8, 8))
        y = fddem_forward(x, p)
        assert np.array_equal(y.data, x.data)

    def test_composed_fixed_parameter_chain_is_1p5x(self):
        # identity complex weights, compression = mean over branches,
        # zero attention weights (map = 0.5), spatial branch identity:
        # y = x + 0.5 * x
        branches = 3
        p = FddemParams.identity(2, 8, 8, branches=branches, reduction=2)
        compress = np.zeros((2, branches * 2, 1, 1))
        for b in range(branches):
            for c in range(2):
                compress[c, b * 2 + c, 0, 0] = 1.0 / branches
        p.compress_w = compress
        x = rand_tensor(6, (1, 2, 8, 8))
        y = fddem_forward(x, p)
        np.testing.assert_allclose(y.data, 1.5 * x.data, atol=1e-9)

    def test_zero_input_zero_biases_zero_output(self):
        p = FddemParams.random(4, 8, 8, Stream(7))
        for name in ("spatial1_b", "spatial2_b", "compress_b"):
            setattr(p, name, np.zeros_like(getattr(p, name)))
        y = fddem_forward(Tensor(np.zeros((1, 4, 8, 8))), p)
        assert (y.data == 0).all()

    def test_frequency_contribution_bounded(self):
        from sepkit import fft2, ifft2, modulate
        from sepkit.tensor import conv2d_raw
        p = FddemParams.random(4, 8, 8, Stream(8))
        x = rand_tensor(9, (1, 4, 8, 8))
        parts = [ifft2(modulate(fft2(x), wb)).data for wb in p.branches]
        f = conv2d_raw(np.concatenate(parts, axis=1), p.compress_w,
                       p.compress_b, 1, 0)
        att = dual_attention(Tensor(f), p).data
        assert (np.abs(att * f) <= np.abs(f)).all()

    def test_wrong_plane_rejected(self):
        p = FddemParams.random(4, 8, 8, Stream(10))
        with pytest.raises(DimensionError):
            fddem_forward(rand_tensor(11, (1, 4, 16, 16)), p)

    def test_wrong_channels_rejected(self):
        p = FddemParams.random(4, 8, 8, Stream(12))
        with pytest.raises(DimensionError):
            fddem_forward(rand_tensor(13, (1, 3, 8, 8)), p)


class TestFddemGradients:
    @pytest.mark.parametrize("h,w,batch", [(8, 8, 1), (6, 10, 2)],
                             ids=["8x8-b1", "6x10-b2"])
    def test_gradcheck_all_params(self, h, w, batch):
        p = FddemParams.random(4, h, w, Stream(14), branches=2, reduction=2)
        x = Stream(15).normal((batch, 4, h, w))

        def fn(leaves):
            live = replace_vars(p, leaves)
            return ad.sum_all(fddem_forward(ad.as_var(x), live))

        report = gradcheck(fn, named_arrays(p), seed=16)
        assert report.passed, report.as_dict()
        assert max(q.max_rel_err for q in report.params) <= 1e-4

    def test_every_parameter_receives_gradient(self):
        from sepkit import Tape
        from sepkit.params import lift
        p = FddemParams.random(4, 8, 8, Stream(17))
        x = Stream(18).normal((1, 4, 8, 8))
        tape = Tape()
        live = lift(p, tape)
        out = fddem_forward(ad.as_var(x), live)
        grads = tape.backward(ad.sum_all(out))
        assert set(grads) == set(named_arrays(p))
        for name, g in grads.items():
            assert np.abs(g).max() > 0.0, f"dead parameter {name}"
