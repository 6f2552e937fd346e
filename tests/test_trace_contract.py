"""The benchmark tracer's view of sepkit matches sepkit.

`perfbench/tracing.py` wraps sepkit functions by attribute name and reads
work counts from their arguments by position or keyword.  A renamed kernel
or a moved parameter would not fail the benchmark: the wrapper is skipped,
or the count is read from the wrong argument, and a per-layer metric reads
zero.  These tests load the tracer as it is, without changing it, and hold
sepkit to it.  The benchmark's workloads (`perfbench/workloads.py`) are
loaded the same way: each runs one request through the public API and
passes its own reference check.
"""

import importlib.util
import inspect
import json
import pathlib

import numpy as np
import pytest

from sepkit import (Ca2neckParams, FddemParams, LdconvParams, Tape,
                    ca2neck_forward)
from sepkit import autodiff as ad
from sepkit import ca2neck, fddem
from sepkit import io as sio
from sepkit import spectral
from sepkit import tensor as tc
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, loaded as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# counted argument of each counted target: (owner, attribute) -> (index,
# name), as the tracer's count functions read it
COUNTED = {
    (spectral, "dft2_raw"): (0, "a"),
    (spectral, "_naive_dft2_planes"): (0, "a"),
    (tc, "depthwise_conv2d_raw"): (1, "w"),
    (tc, "depthwise_conv2d_grads"): (2, "w"),
    (tc, "bilinear_sample_raw"): (1, "coords"),
    (tc, "bilinear_sample_grads"): (2, "coords"),
    (sio, "read_tensor"): (0, "path"),
    (sio, "write_tensor"): (0, "path"),
}


def test_every_target_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in load_perfbench("tracing").TARGETS
               if not hasattr(owner, attr)]
    assert not missing


def test_counted_arguments_sit_where_the_tracer_reads_them():
    tracing = load_perfbench("tracing")
    counted = {(owner, attr) for owner, attr, _, count in tracing.TARGETS
               if count is not None}
    assert counted == set(COUNTED) | {(ad.Tape, "backward")}
    for (owner, attr), (index, name) in COUNTED.items():
        params = list(inspect.signature(getattr(owner, attr)).parameters)
        assert params[index] == name, (attr, params)


def test_traced_neck_step_counts_its_work():
    tracing = load_perfbench("tracing")
    p = Ca2neckParams.init((8, 16, 32), rng=Stream(5), dtype=np.float32)
    xs = [Stream(6 + i).normal((1, c, 16 >> i, 16 >> i)).astype(np.float32)
          for i, c in enumerate(p.channels)]

    def step():
        tape = Tape()
        leaves = {k: tape.leaf(v, k) for k, v in named_arrays(p).items()}
        loss = None
        for y in ca2neck_forward([ad.Var(x) for x in xs],
                                 replace_vars(p, leaves)):
            term = ad.sum_all(y)
            loss = term if loss is None else ad.add(loss, term)
        return tape.backward(loss)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request(0, step)
    finally:
        tracer.uninstall()
    counts = tracing.summarize(tracer.spans)[1][0]
    # four msgrb blocks, one folded 7x7 depthwise each, forward and backward
    assert counts["tensor.depthwise.taps"] == 8 * 49
    # dysample 4->8 and 8->16, ldconv's 5 points at 8x8 and 4x4; each
    # sampled once forward and once backward
    assert counts["tensor.bilinear.points"] == 2 * (64 + 256 + 5 * (64 + 16))
    # neck_train records 90 nodes (per-block derivation at
    # test_autodiff's test_record_length_kept_for_node_counts); this loss
    # has no cotangent mul nodes
    assert counts["autodiff.nodes"] == 90 - 3
    assert counts["tensor.conv2d.calls"] == 36


@pytest.mark.parametrize("points", [1, 5, 9])
def test_traced_ldconv_step_samples_every_point_in_one_call_each_way(points):
    tracing = load_perfbench("tracing")
    p = LdconvParams.init(3, 4, n_points=points, stride=2, rng=Stream(9),
                          dtype=np.float32)
    x = Stream(10).normal((2, 3, 9, 7)).astype(np.float32)

    def step():
        tape = Tape()
        leaves = {k: tape.leaf(v, k) for k, v in named_arrays(p).items()}
        leaves["x"] = tape.leaf(x, "x")
        y = ca2neck.ldconv_forward(leaves["x"], replace_vars(p, leaves))
        return tape.backward(ad.sum_all(y))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request(0, step)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    backward = {i for i, s in enumerate(spans) if s[0] == "autodiff.backward"}
    in_backward = [s[3] in backward for s in spans
                   if s[0] == "tensor.bilinear"]
    assert sorted(in_backward) == [False, True]
    counts = tracing.summarize(spans)[1][0]
    # every point of the 5x4 output plane, batch 2, forward and backward
    assert counts["tensor.bilinear.points"] == 2 * points * 2 * 5 * 4


@pytest.mark.parametrize("branches", [1, 3])
def test_traced_fddem_forward_runs_two_transforms_per_block(branches):
    # one half-spectrum transform of the input and one inverse of the C
    # planes the branch products are mixed down to, whatever the branch
    # count: the benchmark's fddem_infer request (four maps, N = 1, C = 16,
    # three branches) reads spectral.dft2.calls 8 and .planes 128 from this
    tracing = load_perfbench("tracing")
    n, c = 2, 4
    p = FddemParams.init(c, 9, 7, rng=Stream(7), branches=branches,
                         dtype=np.float32)
    x = Stream(8).normal((n, c, 9, 7)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request(0, lambda: fddem.fddem_forward(x, p))
    finally:
        tracer.uninstall()
    counts = tracing.summarize(tracer.spans)[1][0]
    assert counts["spectral.dft2.calls"] == 2
    assert counts["spectral.dft2.planes"] == 2 * n * c
    assert counts["spectral.dft2.naive_planes"] == 0


@pytest.mark.parametrize("name", ["fddem_infer", "neck_train", "certify"])
def test_workload_request_passes_its_reference_check(tmp_path, name):
    # one request (f32 for the first two, f64 certification for certify),
    # checked against entry 0 of the stored references
    work = load_perfbench("workloads").WORKLOADS[name](str(tmp_path))
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    errors, _ = work.check(work.request(0), reference[name][0])
    assert errors == []


def test_certify_workload_warms_up(tmp_path):
    # one forward per gate config through the chain stage; a whole
    # certification is the gate's `sepkit gradcheck` run
    load_perfbench("workloads").Certify(str(tmp_path)).warmup()
