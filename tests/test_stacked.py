"""Stacked weights: K weights on one more leading axis, which meet the
batch as numpy broadcasts it: weight k meets sample k of a batch of K,
or all K share a batch of one sample (so the output has K samples).

Every op that takes them must give each sample the bytes of its own
unstacked call, so gradcheck can evaluate all perturbations of one
parameter in one forward and still report exactly what the row-by-row
evaluation reports.  `stage_gradcheck` runs each sample of a batch as
the shared one-sample input of the K weights, and its loss is the sum of
the per-sample losses.  The report tests below hold
`stage_gradcheck` to that: each fails if a later edit reorders a sum in
either path.
"""

import numpy as np
import pytest

from sepkit import (DimensionError, DysampleParams, FddemParams,
                    LdconvParams, MsgrbParams, Tape)
from sepkit import autodiff as ad
from sepkit import io as sio
from sepkit import spectral
from sepkit import tensor as tc
from sepkit.cli import _synth_input, stage_gradcheck
from sepkit.config import build_chain, parse_config
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream
from sepkit.tensor import BAND_COLS

from test_acceptance import GRADCHECK_CONFIGS

K = 3
DTYPES = [np.float32, np.float64]
BATCHES = [1, 2]
PLANES = [(9, 7), (6, 10)]


def rand(seed, shape, dtype=np.float64):
    return Stream(seed).normal(shape).astype(dtype)


def crand(seed, shape, dtype=np.float64):
    ctype = np.result_type(dtype, np.complex64)
    return (rand(seed, shape) + 1j * rand(seed + 1, shape)).astype(ctype)


def blocks(a, n):
    return [a[k * n:(k + 1) * n] for k in range(len(a) // n)]


def repeat(w, n):
    """K stacked weights, each repeated for the n samples of its block."""
    return np.repeat(w, n, axis=0)


def assert_blocks_equal(stacked, singles):
    assert stacked.dtype == singles[0].dtype
    n = len(singles[0])
    for got, want in zip(blocks(stacked, n), singles, strict=True):
        assert np.array_equal(got, want)


# (kernel, stride, padding) of the conv cases
CONVS = [(3, 1, 1), (1, 1, 0), (3, 2, 1)]


class TestStackedOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BATCHES)
    @pytest.mark.parametrize("hw", PLANES)
    @pytest.mark.parametrize("conv", CONVS)
    @pytest.mark.parametrize("which", ["weight", "bias", "both", "no_bias"])
    def test_conv2d(self, dtype, n, hw, conv, which):
        kk, stride, pad = conv
        x = rand(1, (K * n, 2, *hw), dtype)
        ws = rand(2, (K, 4, 2, kk, kk), dtype)
        bs = rand(3, (K, 4), dtype)
        w = ws if which in ("weight", "both", "no_bias") else ws[0]
        b = (None if which == "no_bias"
             else bs if which in ("bias", "both") else bs[0])
        got = ad.conv2d(x, repeat(w, n) if w.ndim == 5 else w,
                        None if b is None else
                        repeat(b, n) if b.ndim == 2 else b,
                        stride, pad).value
        singles = [ad.conv2d(xk, w[k] if w.ndim == 5 else w,
                             None if b is None else
                             b[k] if b.ndim == 2 else b, stride, pad).value
                   for k, xk in enumerate(blocks(x, n))]
        assert_blocks_equal(got, singles)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BATCHES)
    # the last plane spans three column blocks of the banded forward
    @pytest.mark.parametrize("hw", PLANES + [(3, 2 * BAND_COLS + 5)])
    @pytest.mark.parametrize("kk", [3, 7])
    def test_depthwise(self, dtype, n, hw, kk):
        x = rand(4, (K * n, 3, *hw), dtype)
        w = rand(5, (K, 3, 1, kk, kk), dtype)
        got = ad.depthwise_conv2d(x, repeat(w, n)).value
        singles = [ad.depthwise_conv2d(xk, w[k]).value
                   for k, xk in enumerate(blocks(x, n))]
        assert_blocks_equal(got, singles)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stacked", [(0,), (1,), (2,), (0, 1, 2)])
    def test_fold_kernels(self, dtype, stacked):
        sizes = (3, 5, 7)
        shared = [rand(6 + i, (4, 1, s, s), dtype)
                  for i, s in enumerate(sizes)]
        stacks = [rand(9 + i, (K, 4, 1, s, s), dtype)
                  for i, s in enumerate(sizes)]
        kernels = [stacks[i] if i in stacked else shared[i]
                   for i in range(3)]
        got = ad.fold_kernels(kernels, sizes).value
        assert got.shape == (K, 4, 1, 7, 7)
        for k in range(K):
            alone = [kern[k] if kern.ndim == 5 else kern for kern in kernels]
            assert np.array_equal(got[k],
                                  ad.fold_kernels(alone, sizes).value)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", PLANES)
    @pytest.mark.parametrize("stacked", ["re", "im", "both"])
    def test_modulate_parts(self, dtype, hw, stacked):
        # either weight part alone may carry the stack
        half = (hw[0], hw[1] // 2 + 1)
        s = crand(11, (K, 2, *half), dtype)
        res, ims = rand(12, (K, 2, *half), dtype), rand(13, (K, 2, *half),
                                                           dtype)
        re = res if stacked in ("re", "both") else res[0]
        im = ims if stacked in ("im", "both") else ims[0]
        got = spectral.modulate_v(s, re, im).value
        assert_blocks_equal(got, [spectral.modulate_v(
            s[k:k + 1], re[k] if re.ndim == 4 else re,
            im[k] if im.ndim == 4 else im).value for k in range(K)])

    @pytest.mark.parametrize("fault", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BATCHES)
    @pytest.mark.parametrize("hw", PLANES)
    def test_modulate(self, fault, dtype, n, hw, monkeypatch):
        monkeypatch.setattr(spectral, "FAULT_MODULATE_SIGN", fault)
        half = (hw[0], hw[1] // 2 + 1)
        s = crand(14, (K * n, 2, *half), dtype)
        w = crand(16, (K, 2, *half), dtype)
        got = spectral.modulate_v(s, repeat(w.real, n),
                                  repeat(w.imag, n)).value
        singles = [spectral.modulate_v(sk, w[k].real, w[k].imag).value
                   for k, sk in enumerate(blocks(s, n))]
        assert_blocks_equal(got, singles)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BATCHES)
    @pytest.mark.parametrize("hw", PLANES)
    def test_mix(self, dtype, n, hw):
        s = crand(24, (K * n, 6, hw[0], hw[1] // 2 + 1), dtype)
        w = rand(26, (K, 2, 6, 1, 1), dtype)
        got = spectral.mix_v(s, repeat(w, n)).value
        singles = [spectral.mix_v(sk, w[k]).value
                   for k, sk in enumerate(blocks(s, n))]
        assert_blocks_equal(got, singles)

    def test_fault_flips_stacked_modulate_as_it_flips_shared(
            self, monkeypatch):
        s = crand(18, (2 * K, 2, 6, 6))
        w = repeat(crand(20, (K, 2, 6, 6)), 2)
        clean = spectral.modulate_v(s, w.real, w.imag).value
        monkeypatch.setattr(spectral, "FAULT_MODULATE_SIGN", True)
        flipped = spectral.modulate_v(s, w.real, w.imag).value
        assert np.array_equal(flipped.real, clean.real)
        assert np.array_equal(flipped.imag, clean.imag - 2 * (s.imag * w.real))


class TestSharedOperand:
    """A one-sample operand is one block shared by all K weights (or grid
    samples): block k of the K-sample output is the unstacked call on
    that sample."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("conv", CONVS)
    @pytest.mark.parametrize("which", ["weight", "bias", "both"])
    def test_conv2d(self, dtype, conv, which):
        kk, stride, pad = conv
        x = rand(50, (1, 2, 9, 7), dtype)
        ws, bs = rand(51, (K, 4, 2, kk, kk), dtype), rand(52, (K, 4), dtype)
        w = ws if which in ("weight", "both") else ws[0]
        b = bs if which in ("bias", "both") else bs[0]
        got = ad.conv2d(x, w, b, stride, pad).value
        assert len(got) == K
        assert_blocks_equal(got, [
            ad.conv2d(x, w[k] if w.ndim == 5 else w,
                      b[k] if b.ndim == 2 else b, stride, pad).value
            for k in range(K)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", PLANES + [(3, 2 * BAND_COLS + 5)])
    @pytest.mark.parametrize("kk", [3, 7])
    def test_depthwise(self, dtype, hw, kk):
        x = rand(53, (1, 3, *hw), dtype)
        w = rand(54, (K, 3, 1, kk, kk), dtype)
        got = ad.depthwise_conv2d(x, w).value
        assert_blocks_equal(got, [ad.depthwise_conv2d(x, w[k]).value
                                  for k in range(K)])

    @pytest.mark.parametrize("fault", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", PLANES)
    def test_modulate(self, fault, dtype, hw, monkeypatch):
        monkeypatch.setattr(spectral, "FAULT_MODULATE_SIGN", fault)
        half = (hw[0], hw[1] // 2 + 1)
        s = crand(55, (1, 2, *half), dtype)
        w = crand(57, (K, 2, *half), dtype)
        got = spectral.modulate_v(s, w.real, w.imag).value
        assert_blocks_equal(got, [spectral.modulate_v(s, w[k].real,
                                                      w[k].imag).value
                                  for k in range(K)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", PLANES)
    def test_mix(self, dtype, hw):
        s = crand(58, (1, 6, hw[0], hw[1] // 2 + 1), dtype)
        w = rand(59, (K, 2, 6, 1, 1), dtype)
        got = spectral.mix_v(s, w).value
        assert_blocks_equal(got, [spectral.mix_v(s, w[k]).value
                                  for k in range(K)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("groups", [1, 2])
    def test_bilinear_sample(self, dtype, groups):
        x = rand(59, (1, 4, 6, 7), dtype)
        # points inside, outside and on the border of the 6x7 plane
        grid = (Stream(60).uniform((K, groups, 5, 4, 2)) * 10.0 - 2.0
                ).astype(dtype)
        got = ad.bilinear_sample(x, grid).value
        assert_blocks_equal(got, [ad.bilinear_sample(x, grid[k:k + 1]).value
                                  for k in range(K)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shared_first", [True, False])
    def test_concat(self, dtype, shared_first):
        one = rand(61, (1, 2, 4, 5), dtype)

        def parts(many):
            return [one, many] if shared_first else [many, one]
        many = rand(62, (K, 3, 4, 5), dtype)
        got = ad.concat(parts(many)).value
        assert_blocks_equal(got, [ad.concat(parts(many[k:k + 1])).value
                                  for k in range(K)])

    def test_concat_still_refuses_other_batches(self):
        with pytest.raises(DimensionError, match="agree"):
            ad.concat([rand(63, (2, 2, 4, 4)), rand(64, (K, 2, 4, 4))])
        # along the batch axis itself nothing broadcasts
        assert ad.concat([rand(65, (1, 2, 4, 4)), rand(66, (K, 2, 4, 4))],
                         axis=0).shape == (K + 1, 2, 4, 4)


def _ops_on_batch(n):
    """Each stacked op on a batch of n samples, with K = 3 weights."""
    x = rand(22, (n, 2, 6, 6))
    s = crand(23, (n, 2, 6, 4))
    return {
        "conv2d_weight": lambda: ad.conv2d(x, rand(25, (K, 4, 2, 3, 3)),
                                           padding=1),
        "conv2d_bias": lambda: ad.conv2d(x, rand(26, (4, 2, 1, 1)),
                                         rand(27, (K, 4))),
        "depthwise": lambda: ad.depthwise_conv2d(x, rand(28, (K, 2, 1, 3, 3))),
        "modulate": lambda: spectral.modulate_v(s, rand(29, (K, 2, 6, 4)),
                                                rand(30, (2, 6, 4))),
        "mix": lambda: spectral.mix_v(s, rand(37, (K, 4, 2, 1, 1))),
    }


class TestStackedRejections:
    @pytest.mark.parametrize("op", sorted(_ops_on_batch(1)))
    def test_batch_that_k_does_not_divide(self, op):
        with pytest.raises(DimensionError, match="must be 1 or 3"):
            _ops_on_batch(4)[op]()

    @pytest.mark.parametrize("op", sorted(_ops_on_batch(1)))
    def test_batch_of_two_is_not_shared(self, op):
        # only one sample broadcasts: two could be one shared batch or two
        # blocks of one, and neither is read into it
        with pytest.raises(DimensionError, match="must be 1 or 3"):
            _ops_on_batch(2)[op]()

    @pytest.mark.parametrize("op", sorted(_ops_on_batch(1)))
    def test_batch_of_k_blocks_is_not_split(self, op):
        # K blocks of two samples need each weight repeated twice
        with pytest.raises(DimensionError, match="must be 1 or 3"):
            _ops_on_batch(2 * K)[op]()

    def test_grid_batch_must_match_a_batch_above_one(self):
        with pytest.raises(DimensionError, match="grid batch"):
            ad.bilinear_sample(rand(35, (2, 2, 6, 6)),
                               np.full((K, 1, 3, 3, 2), 1.5))

    def test_stack_counts_must_agree(self):
        with pytest.raises(DimensionError, match="disagree"):
            ad.conv2d(rand(30, (6, 2, 4, 4)), rand(31, (3, 4, 2, 1, 1)),
                      rand(32, (2, 4)))
        with pytest.raises(DimensionError, match="disagree"):
            ad.fold_kernels([rand(33, (2, 1, 1, 3, 3)),
                             rand(34, (3, 1, 1, 5, 5))], (3, 5))

    # op(stacked weight, other operand): their shapes
    TAPED = {
        "conv2d": (lambda w, x: ad.conv2d(x, w, padding=1),
                   (K, 4, 2, 3, 3), (K, 2, 6, 6)),
        "conv2d_bias": (lambda b, x: ad.conv2d(x, np.ones((4, 2, 1, 1)), b),
                        (K, 4), (K, 2, 6, 6)),
        "depthwise": (lambda w, x: ad.depthwise_conv2d(x, w),
                      (K, 2, 1, 3, 3), (K, 2, 6, 6)),
        "fold_kernels": (lambda w, k5: ad.fold_kernels([w, k5], (3, 5)),
                         (K, 2, 1, 3, 3), (2, 1, 5, 5)),
        "modulate": (lambda w, s: spectral.modulate_v(s, w, w), (K, 2, 6, 4),
                     (K, 2, 6, 4)),
        "modulate_im": (lambda w, s: spectral.modulate_v(
                            s, np.ones(w.shape[1:]), w),
                        (K, 2, 6, 4), (K, 2, 6, 4)),
        "mix": (lambda w, x: spectral.mix_v(spectral.rfft2_v(x), w),
                (K, 4, 2, 1, 1), (K, 2, 6, 6)),
    }

    @pytest.mark.parametrize("taped", ["weight", "other"])
    @pytest.mark.parametrize("op", sorted(TAPED))
    def test_taped_stacked_weight_is_rejected(self, op, taped):
        # a vjp would owe each weight the gradient of its own block only;
        # it is refused, never summed over the batch
        fn, wshape, oshape = self.TAPED[op]
        tape = Tape()
        w, other = rand(38, wshape), rand(39, oshape)
        w = tape.leaf(w, "w") if taped == "weight" else w
        other = tape.leaf(other, "o") if taped == "other" else other
        with pytest.raises(DimensionError, match="tape"):
            fn(w, other)


def _stacked_leaves(p, name):
    leaves = {k: ad.Var(v) for k, v in named_arrays(p).items()}
    leaves[name] = ad.Var(np.stack([leaves[name].value] * K))
    return leaves


@pytest.mark.parametrize("params,name,props,want", [
    (FddemParams.init(4, 9, 7, rng=Stream(40), reduction=2), "spatial1_w",
     ("channels", "plane"), (4, (9, 7))),
    (FddemParams.init(4, 9, 7, rng=Stream(41), reduction=2), "branches.0.re",
     ("channels", "plane"), (4, (9, 7))),
    (MsgrbParams.init(4, rng=Stream(42), hidden=6), "shrink_w",
     ("channels", "hidden"), (4, 6)),
    (LdconvParams.init(2, 3, rng=Stream(43)), "mix_w",
     ("out_channels", "weights_per_output_channel"), (3, 10)),
    (LdconvParams.init(2, 3, rng=Stream(44)), "offset_w",
     ("in_channels",), (2,)),
    (DysampleParams.init(2, rng=Stream(45)), "offset_w", ("channels",),
     (2,)),
])
def test_stacked_leaf_keeps_shape_properties(params, name, props, want):
    live = replace_vars(params, _stacked_leaves(params, name))
    assert tuple(getattr(live, prop) for prop in props) == want


def test_replace_vars_rejects_other_shapes():
    p = MsgrbParams.init(4, rng=Stream(46))
    leaves = _stacked_leaves(p, "shrink_w")
    leaves["shrink_w"] = ad.Var(leaves["shrink_w"].value[None])
    with pytest.raises(DimensionError):
        replace_vars(p, leaves)


# the configs whose `stage_gradcheck` reports must not move by a byte:
# the gate's four single blocks, the batch-2 pyramid of test_ca2neck (a
# sum of two per-sample losses), a batch-1 pyramid (whose concats,
# bilinear samples and LDConvs meet a shared one-sample operand), a
# non-power-of-two fddem and its batch-2 twin
REPORT_CONFIGS = {
    **{k: v for k, v in GRADCHECK_CONFIGS.items() if k != "ca2neck"},
    "ca2neck_batch2": "[chain]\nseed = 61\ndtype = f64\n\n[ca2neck]\n"
                      "channels = 2,4,8\nheight = 8\nwidth = 8\nbatch = 2\n"
                      "params = random\n",
    "ca2neck_batch1": "[chain]\nseed = 62\ndtype = f64\n\n[ca2neck]\n"
                      "channels = 2,4,8\nheight = 8\nwidth = 8\nbatch = 1\n"
                      "params = random\n",
    "fddem_9x7": "[chain]\nseed = 106\ndtype = f64\n\n[fddem]\nchannels = 4\n"
                 "height = 9\nwidth = 7\nbranches = 2\nreduction = 2\n"
                 "params = random\n",
    "fddem_batch2": "[chain]\nseed = 107\ndtype = f64\n\n[fddem]\n"
                    "channels = 4\nheight = 9\nwidth = 7\nbatch = 2\n"
                    "branches = 2\nreduction = 2\nparams = random\n",
}


def _stage(name, tmp_path):
    """The built stage of a report config, its CLI input and its seed."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(REPORT_CONFIGS[name])
    parsed = parse_config(str(cfg))
    stage, = build_chain(parsed, parsed.seed)
    return stage, _synth_input(stage, parsed.seed, "f64"), parsed.seed


@pytest.mark.parametrize("name", sorted(REPORT_CONFIGS))
def test_stacked_report_is_the_row_by_row_report(name, tmp_path,
                                                 monkeypatch):
    stage, x, seed = _stage(name, tmp_path)
    stacked = sio.render_json(stage_gradcheck(stage, x, seed).as_dict())
    gradcheck = ad.gradcheck
    # the same stage closure, with gradcheck's default evaluator
    monkeypatch.setattr(ad, "gradcheck", lambda fn, params, losses, **kw:
                        gradcheck(fn, params, **kw))
    rowwise = sio.render_json(stage_gradcheck(stage, x, seed).as_dict())
    assert stacked == rowwise


@pytest.mark.parametrize("name", ["fddem", "ldconv", "msgrb", "dysample"])
def test_report_does_not_depend_on_stack_rows(name, tmp_path, monkeypatch):
    # the gate's configs, as the certify benchmark runs them: stacks of
    # any row count, odd ones included, and so any packing of parameters
    # into them, give every row the same loss
    stage, x, seed = _stage(name, tmp_path)
    reports = set()
    for rows in (64, 128, 7):
        monkeypatch.setattr(ad, "STACK_ROWS", rows)
        reports.add(sio.render_json(stage_gradcheck(stage, x, seed)
                                    .as_dict()))
    assert len(reports) == 1


def _evaluator_calls(stage, x, seed, monkeypatch, logs=()):
    """Every evaluator call of `stage_gradcheck`, in order, as (losses,
    params, stacks, values, seen): `seen` holds what each of `logs`, the
    lists that spies append to, took in during the call."""
    calls, loss_value = [], ad._loss_value

    def spy(losses, params, stacks):
        for log in logs:
            log.clear()
        values = loss_value(losses, params, stacks)
        calls.append((losses, params, stacks, values,
                      [list(log) for log in logs]))
        return values
    monkeypatch.setattr(ad, "_loss_value", spy)
    stage_gradcheck(stage, x, seed)
    monkeypatch.undo()
    return calls


GATE = ["fddem", "msgrb", "ldconv", "dysample"]


@pytest.mark.parametrize("config,count", [("fddem", 12), ("msgrb", 5),
                                          ("ldconv", 2), ("dysample", 1)])
def test_gate_configs_pack_into_few_evaluator_calls(config, count, tmp_path,
                                                    monkeypatch):
    # one stack per parameter took 20, 7, 3 and 2 calls: the small
    # parameters now share stacks, in both passes
    stage, x, seed = _stage(config, tmp_path)
    calls = _evaluator_calls(stage, x, seed, monkeypatch)
    assert len(calls) == count
    assert all(len(values) <= ad.STACK_ROWS for *_, values, _ in calls)


@pytest.mark.parametrize("config", GATE)
def test_packed_stack_rows_are_their_own_stacks_rows(config, tmp_path,
                                                     monkeypatch):
    # in a stack that several parameters share, the rows of each give the
    # bytes of that parameter's rows stacked alone
    stage, x, seed = _stage(config, tmp_path)
    packed = [c for c in _evaluator_calls(stage, x, seed, monkeypatch)
              if len(c[2]) > 1]
    assert packed
    for losses, params, stacks, values, _ in packed:
        owners = np.zeros(len(values), dtype=int)
        for name, stack in stacks.items():
            own = (stack != params[name]).reshape(len(stack), -1).any(axis=1)
            alone = losses(params, {name: stack[own]})
            assert np.array_equal(alone, values[own]), name
            owners += own
        assert (owners == 1).all()  # each row perturbs one parameter


@pytest.mark.parametrize("config", ["fddem", "fddem_batch2"])
def test_branch_weight_check_runs_the_rest_once(config, tmp_path,
                                                monkeypatch):
    # a branch weight's 64 coordinates fill a 128-row stack alone, in
    # which each sample runs as one shared input: the spatial convs and
    # the forward transform see that one sample, not 128, and the inverse
    # transform sees its 128 samples
    stage, x, seed = _stage(config, tmp_path)
    branches = [k for k in named_arrays(stage.params)
                if k.startswith("branches.")]
    n = len(x.data)
    conv_log, dft_log = [], []
    conv2d_raw, dft2_raw = tc.conv2d_raw, spectral.dft2_raw

    def conv_spy(x, w, *args):
        conv_log.append((w.shape, len(x)))
        return conv2d_raw(x, w, *args)

    def dft_spy(a, inverse=False, **kw):
        dft_log.append((inverse, len(a)))
        return dft2_raw(a, inverse, **kw)
    monkeypatch.setattr(tc, "conv2d_raw", conv_spy)
    monkeypatch.setattr(spectral, "dft2_raw", dft_spy)
    calls = _evaluator_calls(stage, x, seed, monkeypatch,
                             [conv_log, dft_log])
    full = [(list(stacks), seen) for _, _, stacks, values, seen in calls
            if len(values) == ad.STACK_ROWS
            and any(k in branches for k in stacks)]
    assert [names for names, _ in full] == [[b] for b in branches]
    spatial = stage.params.spatial1_w.shape  # spatial2_w's too
    for _, (convs, dfts) in full:
        assert [b for shape, b in convs if shape == spatial] == [1, 1] * n
        assert dfts == [(False, 1), (True, ad.STACK_ROWS)] * n
