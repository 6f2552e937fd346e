import numpy as np
import pytest

from sepkit import (DimensionError, MsgrbParams, gradcheck, ms_gu,
                    msdwconv, msgrb_forward)
from sepkit import autodiff as ad
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream

from oracles import depthwise_naive


def rand_array(seed, shape):
    return Stream(seed).normal(shape)


class TestMsdwconv:
    def test_delta_k3_identity(self):
        x = rand_array(0, (1, 2, 5, 5))
        k3 = np.zeros((2, 1, 3, 3))
        k3[:, 0, 1, 1] = 1.0
        y = msdwconv(x, k3, np.zeros((2, 1, 5, 5)), np.zeros((2, 1, 7, 7)))
        assert np.array_equal(y.value, x)

    def test_all_zero_kernels(self):
        x = rand_array(1, (1, 2, 5, 5))
        y = msdwconv(x, np.zeros((2, 1, 3, 3)), np.zeros((2, 1, 5, 5)),
                     np.zeros((2, 1, 7, 7)))
        assert (y.value == 0).all()

    def test_matches_summed_naive_oracles(self):
        x = Stream(2).normal((1, 2, 9, 9))
        k3 = Stream(3).normal((2, 1, 3, 3))
        k5 = Stream(4).normal((2, 1, 5, 5))
        k7 = Stream(5).normal((2, 1, 7, 7))
        y = msdwconv(x, k3, k5, k7)
        ref = depthwise_naive(x, k3) + depthwise_naive(x, k5) \
            + depthwise_naive(x, k7)
        np.testing.assert_allclose(y.value, ref, atol=1e-12)

    def test_kernel_channel_mismatch(self):
        x = rand_array(6, (1, 3, 5, 5))
        with pytest.raises(DimensionError):
            msdwconv(x, np.zeros((2, 1, 3, 3)), np.zeros((2, 1, 5, 5)),
                     np.zeros((2, 1, 7, 7)))

    @staticmethod
    def _branches(seed, channels=4):
        rng = Stream(seed)
        return [rng.normal((channels, 1, k, k)) for k in (3, 5, 7)]

    def test_folded_matches_three_branch_graph(self):
        x0 = Stream(30).normal((2, 4, 6, 10))
        params = dict(zip(("dw3", "dw5", "dw7"), self._branches(31)))
        params["x"] = x0
        g_out = Stream(32).normal((2, 4, 6, 10))
        results = []
        for folded in (True, False):
            tape = ad.Tape()
            v = {k: tape.leaf(a, k) for k, a in params.items()}
            if folded:
                y = msdwconv(v["x"], v["dw3"], v["dw5"], v["dw7"])
            else:
                y = ad.add(ad.add(ad.depthwise_conv2d(v["x"], v["dw3"]),
                                  ad.depthwise_conv2d(v["x"], v["dw5"])),
                           ad.depthwise_conv2d(v["x"], v["dw7"]))
            results.append((y.value, tape.backward(y, g_out)))
        (y_fold, g_fold), (y_ref, g_ref) = results
        np.testing.assert_allclose(y_fold, y_ref, rtol=0, atol=1e-12)
        for name in params:
            assert g_fold[name].shape == params[name].shape
            np.testing.assert_allclose(g_fold[name], g_ref[name], rtol=0,
                                       atol=1e-12)

    def test_fold_rejects_bad_kernel_shapes(self):
        x = rand_array(33, (1, 4, 5, 5))
        dw3, dw5, dw7 = self._branches(34)
        with pytest.raises(DimensionError):
            msdwconv(x, dw3, np.zeros((1, 1, 5, 5)), dw7)
        with pytest.raises(DimensionError):
            msdwconv(x, dw3, np.zeros((4, 1, 3, 3)), dw7)


class TestMsGu:
    def test_closed_gate_vanishes(self):
        p = MsgrbParams.init(4, rng=Stream(7))
        w, b = p.expand_w.copy(), p.expand_b.copy()
        w[p.hidden:] = 0.0
        b[p.hidden:] = -50.0   # gate input pinned at -50, sigmoid ~ 1.9e-22
        p.expand_w, p.expand_b = w, b
        x = rand_array(8, (1, 4, 8, 8))
        assert np.abs(ms_gu(x, p).value).max() <= 1e-20

    def test_open_gate_matches_ungated_chain(self):
        p = MsgrbParams.init(4, rng=Stream(9))
        w, b = p.expand_w.copy(), p.expand_b.copy()
        w[p.hidden:] = 0.0
        b[p.hidden:] = 50.0    # gate saturates at 1
        p.expand_w, p.expand_b = w, b
        x = rand_array(10, (1, 4, 8, 8))
        y = ms_gu(x, p)
        # separately composed chain with the gate removed
        e = ad.conv2d(x, p.expand_w, p.expand_b)
        x_k = ad.split(e, [p.hidden, p.hidden], axis=1)[0]
        ungated = ad.conv2d(
            msdwconv(ad.gelu(x_k), p.dw3, p.dw5, p.dw7), p.shrink_w)
        np.testing.assert_allclose(y.value, ungated.value, atol=1e-12)

    def test_gradcheck_all_params(self):
        p = MsgrbParams.init(4, rng=Stream(11))
        x = Stream(12).normal((1, 4, 8, 8))

        def fn(leaves):
            live = replace_vars(p, leaves)
            return ad.sum_all(ms_gu(ad.as_var(x), live))

        report = gradcheck(fn, named_arrays(p), seed=13)
        assert report.passed
        assert max(q.max_rel_err for q in report.params) <= 1e-4

    def test_hidden_channel_locality(self):
        # before the shrink mix, hidden channel j only sees X_k channel j
        p = MsgrbParams.init(3, rng=Stream(14))
        x = rand_array(15, (1, 3, 6, 6))
        e = ad.conv2d(x, p.expand_w, p.expand_b)
        x_k = ad.split(e, [3, 3], axis=1)[0].value
        bumped = x_k.copy()
        bumped[0, 1] += 1.0
        base = msdwconv(x_k, p.dw3, p.dw5, p.dw7).value
        moved = msdwconv(bumped, p.dw3, p.dw5, p.dw7).value
        assert np.array_equal(base[:, [0, 2]], moved[:, [0, 2]])
        assert not np.array_equal(base[:, 1], moved[:, 1])


class TestMsgrbForward:
    def test_closed_gate_residual_identity(self):
        p = MsgrbParams.init(4, rng=Stream(16))
        w, b = p.expand_w.copy(), p.expand_b.copy()
        w[p.hidden:] = 0.0
        b[p.hidden:] = -50.0
        p.expand_w, p.expand_b = w, b
        x = rand_array(17, (1, 4, 8, 8))
        y = msgrb_forward(x, p)
        assert np.abs(y.value - x).max() <= 1e-18

    def test_zero_shrink_exact_identity(self):
        p = MsgrbParams.init(4, rng=Stream(18))
        p.shrink_w = np.zeros_like(p.shrink_w)
        x = rand_array(19, (1, 4, 8, 8))
        y = msgrb_forward(x, p)
        assert np.array_equal(y.value, x)

    def test_fresh_params_are_identity(self):
        p = MsgrbParams.init(6)
        x = rand_array(20, (2, 6, 5, 5))
        assert np.array_equal(msgrb_forward(x, p).value, x)

    def test_definitional_decomposition(self):
        p = MsgrbParams.init(4, rng=Stream(21))
        x = rand_array(22, (1, 4, 8, 8))
        y = msgrb_forward(x, p)
        assert np.array_equal(y.value, x + ms_gu(x, p).value)

    def test_gate_bounds_path_magnitude(self):
        p = MsgrbParams.init(4, rng=Stream(23))
        x = rand_array(24, (1, 4, 8, 8))
        e = ad.conv2d(x, p.expand_w, p.expand_b)
        x_k, v_k = ad.split(e, [p.hidden, p.hidden], axis=1)
        refined = msdwconv(ad.gelu(x_k), p.dw3, p.dw5, p.dw7).value
        gate = ad.sigmoid(v_k).value
        assert (gate > 0).all() and (gate < 1).all()
        assert (np.abs(refined * gate) <= np.abs(refined)).all()

    def test_channel_mismatch(self):
        p = MsgrbParams.init(4, rng=Stream(25))
        with pytest.raises(DimensionError):
            msgrb_forward(rand_array(26, (1, 3, 4, 4)), p)

    def test_shape_preserved(self):
        for c, h, w in ((2, 4, 6), (5, 9, 7), (1, 3, 3)):
            p = MsgrbParams.init(c, rng=Stream(c))
            x = rand_array(27 + c, (1, c, h, w))
            assert msgrb_forward(x, p).shape == x.shape
