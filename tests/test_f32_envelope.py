"""f32 error envelope per block, forward and backward.

Each block runs twice on the same values: once in float32, once with
those float32-drawn inputs and parameters widened to float64.  The f32
output must stay within F32_REL_BOUND of the f64 one, measured as
max |y32 - y64| / max |y64| over every output.  The blocks run on
40/20/10-pixel planes (non-power-of-two sizes included), where the f32
error measures 1.6e-7 (msgrb) to 1.3e-6 (dysample); 1e-5 leaves room
for summation order, not for a lost cast or a wrong-dtype kernel.

The same pair also runs one taped step, Σ sum(y·c) over the outputs with
seeded f32-drawn cotangents c, parameters lifted and inputs as leaves.
Every gradient of the f32 step must be f32 and within F32_REL_BOUND of
the f64 one, relative to that leaf's max |g64|; the worst leaves measure
2.7e-7 (msgrb, input0) to 1.4e-6 (ca2neck, ld_bu2.offset_b).
"""

import numpy as np
import pytest

from sepkit import (Ca2neckParams, DysampleParams, FddemParams, LdconvParams,
                    MsgrbParams, Tape, ca2neck_forward, dysample_forward,
                    fddem_forward, ldconv_forward, msgrb_forward)
from sepkit import autodiff as ad
from sepkit.params import lift, named_arrays, replace_vars
from sepkit.rng import Stream

F32_REL_BOUND = 1e-5

# block -> (params builder for a dtype, input shapes, forward on a list)
BLOCKS = {
    "fddem": (lambda dt: FddemParams.init(16, 40, 40, rng=Stream(50),
                                          dtype=dt),
              [(1, 16, 40, 40)], lambda xs, p: [fddem_forward(xs[0], p)]),
    "msgrb": (lambda dt: MsgrbParams.init(16, rng=Stream(51), dtype=dt),
              [(1, 16, 40, 40)], lambda xs, p: [msgrb_forward(xs[0], p)]),
    "ldconv": (lambda dt: LdconvParams.init(16, 32, stride=2, rng=Stream(52),
                                            dtype=dt),
               [(1, 16, 40, 40)], lambda xs, p: [ldconv_forward(xs[0], p)]),
    "dysample": (lambda dt: DysampleParams.init(32, rng=Stream(53), dtype=dt),
                 [(1, 32, 20, 20)],
                 lambda xs, p: [dysample_forward(xs[0], p)]),
    "ca2neck": (lambda dt: Ca2neckParams.init((16, 32, 64), rng=Stream(54),
                                              dtype=dt),
                [(1, 16, 40, 40), (1, 32, 20, 20), (1, 64, 10, 10)],
                ca2neck_forward),
}


def f32_and_f64(name):
    """(params, inputs) in f32, and the same values widened to f64."""
    build, shapes, _ = BLOCKS[name]
    p32 = build(np.float32)
    p64 = replace_vars(build(np.float64),
                       {k: v.astype(np.float64)
                        for k, v in named_arrays(p32).items()})
    xs32 = [Stream(60 + i).normal(s).astype(np.float32)
            for i, s in enumerate(shapes)]
    return (p32, xs32), (p64, [x.astype(np.float64) for x in xs32])


def f32_rel_error(name):
    forward = BLOCKS[name][2]
    (p32, xs32), (p64, xs64) = f32_and_f64(name)
    ys32 = [y.value for y in forward(xs32, p32)]
    ys64 = [y.value for y in forward(xs64, p64)]
    assert all(y.dtype == np.float32 for y in ys32)
    assert all(y.dtype == np.float64 for y in ys64)
    scale = max(np.abs(y).max() for y in ys64)
    return max(np.abs(a - b).max() for a, b in zip(ys32, ys64)) / scale


def taped_grads(name, p, xs):
    """Every leaf's gradient of Σ sum(y·c), c drawn in f32 per output."""
    tape = Tape()
    inputs = [tape.leaf(x, f"input{i}") for i, x in enumerate(xs)]
    loss = None
    for i, y in enumerate(BLOCKS[name][2](inputs, lift(p, tape))):
        c = Stream(70 + i).normal(y.shape).astype(np.float32)
        term = ad.sum_all(ad.mul(y, c.astype(y.value.dtype)))
        loss = term if loss is None else ad.add(loss, term)
    return tape.backward(loss)


@pytest.mark.parametrize("name", list(BLOCKS))
def test_f32_within_envelope_of_f64(name):
    assert f32_rel_error(name) <= F32_REL_BOUND


@pytest.mark.parametrize("name", list(BLOCKS))
def test_f32_gradients_within_envelope_of_f64(name):
    g32, g64 = (taped_grads(name, *side) for side in f32_and_f64(name))
    assert list(g32) == list(g64)
    for leaf, g in g32.items():
        assert g.dtype == np.float32, leaf
        err = np.abs(g - g64[leaf]).max()
        assert err <= F32_REL_BOUND * np.abs(g64[leaf]).max(), leaf
