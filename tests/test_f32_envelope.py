"""f32 error envelope per block.

Each block runs twice on the same values: once in float32, once with
those float32-drawn inputs and parameters widened to float64.  The f32
output must stay within F32_REL_BOUND of the f64 one, measured as
max |y32 - y64| / max |y64| over every output.  The blocks run on
40/20/10-pixel planes (non-power-of-two sizes included), where the f32
error measures 1.6e-7 (msgrb) to 1.3e-6 (dysample); 1e-5 leaves room
for summation order, not for a lost cast or a wrong-dtype kernel.
"""

import numpy as np
import pytest

from sepkit import (Ca2neckParams, DysampleParams, FddemParams, LdconvParams,
                    MsgrbParams, ca2neck_forward, dysample_forward,
                    fddem_forward, ldconv_forward, msgrb_forward)
from sepkit.params import named_arrays, replace_arrays
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


def f32_rel_error(name):
    build, shapes, forward = BLOCKS[name]
    p32 = build(np.float32)
    p64 = replace_arrays(build(np.float64), named_arrays(p32))
    xs32 = [Stream(60 + i).normal(s).astype(np.float32)
            for i, s in enumerate(shapes)]
    xs64 = [x.astype(np.float64) for x in xs32]
    ys32 = [y.value for y in forward(xs32, p32)]
    ys64 = [y.value for y in forward(xs64, p64)]
    assert all(y.dtype == np.float32 for y in ys32)
    assert all(y.dtype == np.float64 for y in ys64)
    scale = max(np.abs(y).max() for y in ys64)
    return max(np.abs(a - b).max() for a, b in zip(ys32, ys64)) / scale


@pytest.mark.parametrize("name", list(BLOCKS))
def test_f32_within_envelope_of_f64(name):
    assert f32_rel_error(name) <= F32_REL_BOUND
