import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from sepkit import (DimensionError, FddemParams, Tensor, dual_attention,
                    fddem_forward, gradcheck)
from sepkit import autodiff as ad
from sepkit import fddem, spectral
from sepkit import tensor as tc
from sepkit.fddem import frequency_feature
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream

from oracles import (FREQUENCY_ORACLE_PLANES, conv2d_naive, frequency_branch,
                     frequency_branch_naive, frequency_branch_per_branch)
from test_f32_envelope import F32_REL_BOUND


def rand_array(seed, shape):
    return Stream(seed).normal(shape)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def silu(v):
    return v * sigmoid(v)


class TestDualAttention:
    def test_zero_weights_give_half(self):
        p = FddemParams.init(4, 8, 8)
        f = np.full((1, 4, 8, 8), 3.25)
        att = dual_attention(f, p)
        assert (att.value == 0.5).all()

    def test_output_strictly_in_unit_interval(self):
        p = FddemParams.init(4, 8, 8, rng=Stream(1))
        att = dual_attention(rand_array(2, (2, 4, 8, 8)), p)
        assert (att.value > 0).all() and (att.value < 1).all()
        assert att.shape == (2, 4, 8, 8)

    def test_hand_computed_single_channel_case(self):
        # C=1, r=1: both MLP convs are scalars, the 7x7 conv reads its
        # center taps only; every step is reproduced by hand below.
        p = FddemParams.init(1, 2, 2, branches=1, reduction=1)
        p.ca_w1 = np.full((1, 1, 1, 1), 1.5)
        p.ca_b1 = np.array([0.2])
        p.ca_w2 = np.full((1, 1, 1, 1), -0.75)
        p.ca_b2 = np.array([0.1])
        sa = np.zeros((1, 2, 7, 7))
        sa[0, 0, 3, 3] = 0.5   # center tap over the channel-mean map
        sa[0, 1, 3, 3] = 0.25  # center tap over the channel-max map
        p.sa_w, p.sa_b = sa, np.array([-0.05])

        plane = np.array([[0.4, -1.2], [2.0, 0.6]])
        f = plane[None, None]
        att = dual_attention(f, p)

        def mlp(v):
            return -0.75 * silu(1.5 * v + 0.2) + 0.1

        channel_logit = mlp(plane.mean()) + mlp(plane.max())
        spatial_logit = 0.5 * plane + 0.25 * plane - 0.05
        expected = sigmoid(channel_logit + spatial_logit)
        np.testing.assert_allclose(att.value[0, 0], expected, atol=1e-12)

    def test_reduction_larger_than_channels_rejected(self):
        with pytest.raises(DimensionError):
            FddemParams.init(2, 8, 8, reduction=4)

    @pytest.mark.parametrize("field,shape", [
        ("sa_w", (1, 2, 5, 5)), ("sa_w", (2, 2, 7, 7)), ("sa_w", (1, 3, 7, 7)),
        ("sa_b", (2,))])
    def test_wrong_spatial_weight_shape_names_the_field(self, field, shape):
        p = FddemParams.init(4, 8, 8, rng=Stream(19))
        setattr(p, field, np.zeros(shape))
        with pytest.raises(DimensionError, match=field):
            dual_attention(rand_array(20, (1, 4, 8, 8)), p)


class TestSpatialAttentionOracle:
    """The spatial logits, a depthwise conv of the channel mean/max maps
    summed by a ones-conv, against the quadruple-loop 2-in, 1-out 7x7
    conv at padding 3.  Zero channel weights make the attention
    sigmoid(spatial logits)."""

    @pytest.mark.parametrize("h,w", [(9, 7), (12, 10)])
    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12),
                                           (np.float32, F32_REL_BOUND)],
                             ids=["f64", "f32"])
    def test_spatial_logits_match_naive_conv(self, h, w, dtype, rel):
        p = FddemParams.init(4, h, w, rng=Stream(21), dtype=dtype)
        for name in ("ca_w1", "ca_b1", "ca_w2", "ca_b2"):
            setattr(p, name, np.zeros_like(getattr(p, name)))
        f = Stream(22).normal((2, 4, h, w)).astype(dtype)
        att = dual_attention(f, p).value
        f64 = f.astype(np.float64)
        maps = np.concatenate([f64.mean(axis=1, keepdims=True),
                               f64.max(axis=1, keepdims=True)], axis=1)
        logits = conv2d_naive(maps, p.sa_w.astype(np.float64),
                              p.sa_b.astype(np.float64), padding=3)
        ref = np.broadcast_to(sigmoid(logits), att.shape)
        assert att.dtype == dtype
        assert np.abs(att - ref).max() <= rel * np.abs(ref).max()

    @pytest.mark.parametrize("field", ["sa_w", "sa_b"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_spatial_weight_rows_are_their_unstacked_calls(
            self, field, dtype):
        p = FddemParams.init(4, 9, 7, rng=Stream(23), dtype=dtype)
        f = Stream(24).normal((1, 4, 9, 7)).astype(dtype)
        base = getattr(p, field)
        stack = np.stack([base + dtype(0.25 * k) for k in range(3)])
        got = dual_attention(f, dataclasses.replace(p, **{field: stack}))
        assert got.shape == (3, 4, 9, 7)
        for k, row in enumerate(stack):
            one = dual_attention(f, dataclasses.replace(p, **{field: row}))
            assert np.array_equal(got.value[k:k + 1], one.value)


class TestFddemForward:
    def test_shape_contract(self):
        p = FddemParams.init(8, 16, 16, rng=Stream(3))
        x = rand_array(4, (1, 8, 16, 16))
        assert fddem_forward(x, p).shape == (1, 8, 16, 16)

    def test_identity_at_init_exact(self):
        p = FddemParams.init(4, 8, 8)
        x = rand_array(5, (2, 4, 8, 8))
        y = fddem_forward(x, p)
        assert np.array_equal(y.value, x)

    def test_composed_fixed_parameter_chain_is_1p5x(self):
        # identity complex weights, compression = mean over branches,
        # zero attention weights (map = 0.5), spatial branch identity:
        # y = x + 0.5 * x
        branches = 3
        p = FddemParams.init(2, 8, 8, branches=branches, reduction=2)
        compress = np.zeros((2, branches * 2, 1, 1))
        for b in range(branches):
            for c in range(2):
                compress[c, b * 2 + c, 0, 0] = 1.0 / branches
        p.compress_w = compress
        x = rand_array(6, (1, 2, 8, 8))
        y = fddem_forward(x, p)
        np.testing.assert_allclose(y.value, 1.5 * x, atol=1e-9)

    def test_zero_input_zero_biases_zero_output(self):
        p = FddemParams.init(4, 8, 8, rng=Stream(7))
        for name in ("spatial1_b", "spatial2_b", "compress_b"):
            setattr(p, name, np.zeros_like(getattr(p, name)))
        y = fddem_forward(np.zeros((1, 4, 8, 8)), p)
        assert (y.value == 0).all()

    def test_frequency_contribution_bounded(self):
        p = FddemParams.init(4, 8, 8, rng=Stream(8))
        x = rand_array(9, (1, 4, 8, 8))
        f = frequency_feature(x, p).value
        att = dual_attention(f, p).value
        assert (np.abs(att * f) <= np.abs(f)).all()

    def test_wrong_plane_rejected(self):
        p = FddemParams.init(4, 8, 8, rng=Stream(10))
        with pytest.raises(DimensionError):
            fddem_forward(rand_array(11, (1, 4, 16, 16)), p)
        # 5 half-spectrum columns fit widths 8 and 9: the weights keep the
        # width they were made for, and the plane check refuses the other
        for made, given in ((8, 9), (9, 8)):
            p = FddemParams.init(4, 8, made, rng=Stream(10))
            assert p.branches[0].re.shape[-1] == given // 2 + 1
            with pytest.raises(DimensionError, match="weight plane"):
                fddem_forward(rand_array(11, (1, 4, 8, given)), p)

    def test_wrong_channels_rejected(self):
        p = FddemParams.init(4, 8, 8, rng=Stream(12))
        with pytest.raises(DimensionError):
            fddem_forward(rand_array(13, (1, 3, 8, 8)), p)

    def test_tensor_input_names_the_fix(self):
        # blocks take ndarrays or Vars; a file Tensor is unwrapped by .data
        p = FddemParams.init(4, 8, 8, rng=Stream(14))
        t = Tensor(rand_array(15, (1, 4, 8, 8)))
        with pytest.raises(DimensionError, match=r"Tensor.*t\.data"):
            fddem_forward(t, p)
        assert np.array_equal(fddem_forward(t.data, p).value,
                              fddem_forward(t.data.tolist(), p).value)
        assert ad.as_var(2).value.dtype == np.float64


class TestFddemGradients:
    @pytest.mark.parametrize("h,w,batch", [(8, 8, 1), (6, 10, 2), (7, 9, 2)],
                             ids=["8x8-b1", "6x10-b2", "7x9-b2"])
    def test_gradcheck_all_params(self, h, w, batch):
        p = FddemParams.init(4, h, w, rng=Stream(14), branches=2, reduction=2)
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
        p = FddemParams.init(4, 8, 8, rng=Stream(17))
        x = Stream(18).normal((1, 4, 8, 8))
        tape = Tape()
        live = lift(p, tape)
        out = fddem_forward(ad.as_var(x), live)
        grads = tape.backward(ad.sum_all(out))
        assert set(grads) == set(named_arrays(p))
        for name, g in grads.items():
            assert np.abs(g).max() > 0.0, f"dead parameter {name}"


def composed_feature(planes, p):
    """The frequency feature composed as the real-plane path composes it:
    the (N, B*C, H, W) branch outputs through the 1x1 compress conv."""
    return tc.conv2d_raw(planes, p.compress_w, p.compress_b, 1, 0)[0]


def block_on_feature(x, p, feature, monkeypatch):
    """The block with `feature` as its frequency feature.  It fails unless
    the block takes its feature from `frequency_feature`, once, so a block
    that stops calling it cannot be compared with itself."""
    calls = []

    def patched(xv, params):
        calls.append(params)
        return ad.Var(feature)
    with monkeypatch.context() as m:
        m.setattr(fddem, "frequency_feature", patched)
        y = fddem_forward(x, p).value
    assert len(calls) == 1 and calls[0] is p
    return y


def assert_close(got, ref, rel):
    assert got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


class TestFrequencyBranchOracle:
    """The half-spectrum path against Re(ifft2(fft2(x) * W)) computed bin
    by bin on the full spectrum, f64."""

    @pytest.mark.parametrize("h,w", FREQUENCY_ORACLE_PLANES)
    def test_branches_match_full_spectrum_oracle(self, h, w):
        p = FddemParams.init(4, h, w, rng=Stream(h * 100 + w))
        x = Stream(h + w).normal((2, 4, h, w))
        refs = frequency_branch_naive(x, p.branches)
        ys = np.split(frequency_branch(x, p.branches).value, len(refs), axis=1)
        for y, ref in zip(ys, refs, strict=True):
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("h,w", FREQUENCY_ORACLE_PLANES + [(64, 64)])
    def test_block_matches_block_on_oracle_branch(self, h, w, monkeypatch):
        # the mix on the half spectrum against each branch inverted on its
        # own, bin by bin, then compressed; batch 1 is the first sample and
        # B branches the first B, so the oracle runs once per plane
        full = FddemParams.init(4, h, w, rng=Stream(h * 100 + w + 1))
        x = Stream(h + w + 1).normal((2, 4, h, w))
        naive = frequency_branch_naive(x, full.branches)
        for branches in (1, 2, 3):
            p = dataclasses.replace(full, branches=full.branches[:branches],
                                    compress_w=full.compress_w[:, :4 * branches])
            planes = np.concatenate(naive[:branches], axis=1)
            for batch in (1, 2):
                ref = composed_feature(planes[:batch], p)
                assert_close(frequency_feature(x[:batch], p).value, ref, 1e-12)
                assert_close(fddem_forward(x[:batch], p).value,
                             block_on_feature(x[:batch], p, ref, monkeypatch),
                             1e-12)


class TestFrequencyBranchBytes:
    """The frequency feature and the block against modulating and inverting
    each branch on its own, then the compress conv: within 1e-12
    of the reference in f64 and the f32 envelope's bound in f32."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("h,w", [(8, 8), (9, 7), (6, 10), (40, 40),
                                     (64, 64)])
    def test_stacked_branches_match_per_branch_composition(
            self, h, w, dtype, monkeypatch):
        rel = 1e-12 if dtype == np.float64 else F32_REL_BOUND
        for batch in (1, 2):
            for branches in (1, 2, 3):
                seed = 1000 * h + 10 * w + branches
                p = FddemParams.init(4, h, w, rng=Stream(seed),
                                     branches=branches, reduction=2,
                                     dtype=dtype)
                x = Stream(seed + batch).normal((batch, 4, h, w)).astype(dtype)
                ref = composed_feature(
                    frequency_branch_per_branch(x, p.branches), p)
                assert_close(frequency_feature(x, p).value, ref, rel)
                assert_close(fddem_forward(x, p).value,
                             block_on_feature(x, p, ref, monkeypatch), rel)


def test_modulate_sign_fault_moves_the_block_output():
    p = FddemParams.init(4, 9, 7, rng=Stream(40))
    x = Stream(41).normal((2, 4, 9, 7))
    clean = fddem_forward(x, p).value
    old = spectral.FAULT_MODULATE_SIGN
    spectral.FAULT_MODULATE_SIGN = True
    try:
        faulted = fddem_forward(x, p).value
    finally:
        spectral.FAULT_MODULATE_SIGN = old
    assert np.linalg.norm(faulted - clean) > 0.1 * np.linalg.norm(clean)


def test_import_and_inference_leave_scipy_fft_unloaded():
    # scipy.fft serves only the depthwise gradients, and scipy.signal
    # nothing: neither should cost `import sepkit` or an inference run of
    # any block, the depthwise forwards of msgrb and ca2neck included
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import sepkit\n"
        "from sepkit.rng import Stream\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith(('scipy.fft', 'scipy.signal')))\n"
        "assert not loaded(), loaded()\n"
        "p = sepkit.FddemParams.init(8, 20, 12, rng=Stream(1),"
        " dtype=np.float32)\n"
        "sepkit.fddem_forward(np.ones((1, 8, 20, 12), np.float32), p)\n"
        "assert not loaded(), loaded()\n"
        "p = sepkit.MsgrbParams.init(8, rng=Stream(2), dtype=np.float32)\n"
        "sepkit.msgrb_forward(np.ones((1, 8, 20, 12), np.float32), p)\n"
        "assert not loaded(), loaded()\n"
        "p = sepkit.Ca2neckParams.init((4, 8, 16), rng=Stream(3),"
        " dtype=np.float32)\n"
        "sepkit.ca2neck_forward([np.ones((1, c, 16 >> i, 12 >> i),"
        " np.float32) for i, c in enumerate((4, 8, 16))], p)\n"
        "assert not loaded(), loaded()\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_and_scipy_free_inference_load_no_scipy():
    # sigmoid and silu run on numpy's exp, so `import sepkit`, the CLI and
    # the f32 inference of fddem, ldconv and dysample load no scipy module
    # at all; the first GELU (msgrb) loads scipy.special for its erf
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import sepkit, sepkit.cli\n"
        "from sepkit.rng import Stream\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded(), loaded()\n"
        "x = np.ones((1, 8, 20, 12), np.float32)\n"
        "p = sepkit.FddemParams.init(8, 20, 12, rng=Stream(1),"
        " dtype=np.float32)\n"
        "sepkit.fddem_forward(x, p)\n"
        "p = sepkit.LdconvParams.init(8, 16, stride=2, rng=Stream(2),"
        " dtype=np.float32)\n"
        "sepkit.ldconv_forward(x, p)\n"
        "p = sepkit.DysampleParams.init(8, rng=Stream(3), dtype=np.float32)\n"
        "sepkit.dysample_forward(x, p)\n"
        "assert not loaded(), loaded()\n"
        "p = sepkit.MsgrbParams.init(8, rng=Stream(4), dtype=np.float32)\n"
        "sepkit.msgrb_forward(x, p)\n"
        "assert 'scipy.special' in sys.modules, loaded()\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
