"""Calls on distinct inputs issued from two threads give the serial bytes.

The README promises that pure operations on distinct inputs are safe to
issue concurrently.  Every conv runs through BLAS, so this checks that
an fddem forward and a ca2neck forward+backward, run two at a time, give
outputs and gradients byte-equal to the same calls run one after another,
and that fddem forwards sharing one parameter object do too.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from sepkit import (Ca2neckParams, FddemParams, Tape, ca2neck_forward,
                    fddem_forward)
from sepkit import autodiff as ad
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream


def fddem_call(seed):
    p = FddemParams.init(8, 20, 12, rng=Stream(seed), dtype=np.float32)
    x = Stream(seed + 1).normal((2, 8, 20, 12)).astype(np.float32)
    return [fddem_forward(x, p).value]


def neck_call(seed):
    p = Ca2neckParams.init((8, 16, 32), rng=Stream(seed), dtype=np.float32)
    tape = Tape()
    leaves = {k: tape.leaf(v, k) for k, v in named_arrays(p).items()}
    xs = [Stream(seed + 1 + i).normal((1, c, 24 >> i, 16 >> i))
          .astype(np.float32) for i, c in enumerate(p.channels)]
    ys = ca2neck_forward(xs, replace_vars(p, leaves))
    loss = ad.sum_all(ys[0])
    for i, y in enumerate(ys[1:], start=1):
        weights = Stream(seed + 10 + i).normal(y.value.shape)
        loss = ad.add(loss, ad.sum_all(ad.mul(y, weights.astype(np.float32))))
    grads = tape.backward(loss)
    return [y.value for y in ys] + [grads[k] for k in sorted(grads)]


def test_threaded_calls_match_serial_bytes():
    calls = [(fddem_call, 1), (neck_call, 2), (fddem_call, 3), (neck_call, 4)]
    serial = [fn(seed) for fn, seed in calls]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(fn, seed) for fn, seed in calls]
        threaded = [f.result(timeout=300) for f in futures]
    for want, got in zip(serial, threaded):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_threaded_fddem_forwards_on_shared_params_match_serial_bytes():
    def params():
        return FddemParams.init(8, 20, 12, rng=Stream(5), dtype=np.float32)

    xs = [Stream(6 + i).normal((2, 8, 20, 12)).astype(np.float32)
          for i in range(6)]
    serial_params = params()
    serial = [fddem_forward(x, serial_params).value for x in xs]
    shared = params()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # three workers and a short switch interval interleave the calls
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(fddem_forward, x, shared) for x in xs]
            threaded = [f.result(timeout=300).value for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
