"""Registered, seeded property checks runnable from the CLI.

Each property is a deterministic function of its seed returning
(passed, metric); the runner never aborts mid-suite, reports one JSON
line per property, and supports a test-only fault hook that flips the
modulation sign so the harness can prove it detects real breakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ca2neck as neck
from . import fddem as fd
from . import msgrb as ms
from . import spectral
from . import tensor as tc
from .errors import NumericError
from .rng import Stream, derive_seed
from .tensor import Tensor

FAULTS = ("modulate-sign",)


@dataclass
class PropResult:
    suite: str
    name: str
    seed: int
    passed: bool
    metric: float

    def as_dict(self) -> dict:
        return {"suite": self.suite, "property": self.name, "seed": self.seed,
                "pass": self.passed, "metric": self.metric}


def _rand(rng: Stream, shape, dtype=np.float64) -> np.ndarray:
    return rng.normal(shape).astype(dtype)


# -- tensor ------------------------------------------------------------------

def _conv_linearity(seed):
    rng = Stream(seed)
    x = _rand(rng, (1, 2, 6, 6))
    y = _rand(rng, (1, 2, 6, 6))
    w = _rand(rng, (3, 2, 3, 3))
    a, b = 1.7, -0.4
    lhs = tc.conv2d_raw(a * x + b * y, w, None, 1, 1)
    rhs = a * tc.conv2d_raw(x, w, None, 1, 1) \
        + b * tc.conv2d_raw(y, w, None, 1, 1)
    err = float(np.abs(lhs - rhs).max())
    return err <= 1e-10, err


def _bilinear_identity_grid(seed):
    rng = Stream(seed)
    x = _rand(rng, (1, 3, 5, 7))
    rr, cc = np.meshgrid(np.arange(5.0), np.arange(7.0), indexing="ij")
    grid = np.stack([rr, cc], axis=-1)[None, None]
    out = tc.bilinear_sample_raw(x, grid)
    err = float(np.abs(out - x).max())
    return err <= 1e-12, err


def _bilinear_bounded(seed):
    rng = Stream(seed)
    x = _rand(rng, (2, 4, 6, 6))
    coords = rng.uniform((2, 1, 9, 9, 2)) * 10.0 - 2.0
    out = tc.bilinear_sample_raw(x, coords)
    lo = x.min(axis=(2, 3), keepdims=True)
    hi = x.max(axis=(2, 3), keepdims=True)
    violation = float(np.maximum(out - hi, lo - out).max())
    return violation <= 0.0, violation


def _split_concat_roundtrip(seed):
    rng = Stream(seed)
    x = Tensor(_rand(rng, (2, 8, 3, 3)))
    parts = tc.split_channels(x, [3, 5])
    back = tc.concat_channels(parts)
    same = np.array_equal(back.data, x.data)
    return same, 0.0 if same else float(np.abs(back.data - x.data).max())


def _nan_rejection(seed):
    rng = Stream(seed)
    bad = _rand(rng, (1, 2, 4, 4))
    bad[0, 0, 0, 0] = np.nan
    w = _rand(rng, (2, 2, 3, 3))
    dw = _rand(rng, (2, 1, 3, 3))
    rr, cc = np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij")
    grid = np.stack([rr, cc], axis=-1)[None, None]
    attempts = (
        lambda: tc.conv2d_raw(bad, w, None, 1, 1),
        lambda: tc.conv2d_raw(np.zeros((1, 2, 4, 4)),
                              np.full_like(w, np.nan), None, 1, 1),
        lambda: tc.depthwise_conv2d_raw(bad, dw),
        lambda: tc.bilinear_sample_raw(bad, grid),
        lambda: tc.gelu_raw(bad),
        lambda: tc.sigmoid_raw(bad),
        lambda: tc.silu_raw(bad),
        lambda: spectral.fft2_v(bad),
        lambda: Tensor(bad),
    )
    caught = 0
    for attempt in attempts:
        try:
            attempt()
        except NumericError:
            caught += 1
    return caught == len(attempts), float(len(attempts) - caught)


# -- autodiff ----------------------------------------------------------------

def _path_sum_accumulation(seed):
    rng = Stream(seed)
    tape = ad.Tape()
    x = tape.leaf(_rand(rng, (1, 2, 3, 3)), "x")
    y = ad.add(ad.scale(x, 2.0), ad.scale(x, 3.0))
    grads = tape.backward(ad.sum_all(y))
    err = float(np.abs(grads["x"] - 5.0).max())
    return err <= 1e-12, err


def _sigmoid_zero_grad(seed):
    tape = ad.Tape()
    x = tape.leaf(np.zeros((1, 1, 4, 4)), "x")
    grads = tape.backward(ad.sum_all(ad.sigmoid(x)))
    err = float(np.abs(grads["x"] - 0.25).max())
    return err == 0.0, err


def _linear_gradcheck(seed):
    rng = Stream(seed)
    x = _rand(rng, (1, 1, 4, 4))

    def fn(p):
        return ad.sum_all(ad.mul(p["w"], x))

    report = ad.gradcheck(fn, {"w": _rand(rng, (1, 1, 4, 4))}, seed=seed)
    worst = max(p.max_rel_err for p in report.params)
    return worst <= 1e-10, worst


def _conv_gradcheck(seed):
    rng = Stream(seed)
    x = _rand(rng, (1, 2, 5, 5))

    def fn(p):
        return ad.sum_all(ad.conv2d(x, p["w"], p["b"], padding=1))

    report = ad.gradcheck(fn, {"w": _rand(rng, (3, 2, 3, 3)),
                               "b": _rand(rng, (3,))}, seed=seed)
    worst = max(p.max_rel_err for p in report.params)
    return worst <= 1e-6, worst


# -- spectral ------------------------------------------------------------------

def _parseval(seed):
    rng = Stream(seed)
    worst = 0.0
    for i, (h, w) in enumerate(((4, 4), (7, 5), (8, 8), (12, 9), (16, 16),
                                (32, 32), (5, 16), (64, 64))):
        x = Tensor(_rand(rng, (1, 1, h, w)))
        s = spectral.fft2(x)
        spatial = float((x.data ** 2).sum())
        spectrum = float(((s.re.data ** 2) + (s.im.data ** 2)).sum()) / (h * w)
        worst = max(worst, abs(spatial - spectrum) / max(abs(spatial), 1e-12))
    return worst <= 1e-9, worst


def _parseval_modulated(seed):
    """Unit-magnitude weights only rotate phases, so energy is preserved."""
    rng = Stream(seed)
    h = w = 8
    x = Tensor(_rand(rng, (1, 2, h, w)))
    phase = rng.uniform((2, h, w)) * 2.0 * np.pi
    weights = spectral.ComplexWeights(np.cos(phase), np.sin(phase))
    s = spectral.modulate(spectral.fft2(x), weights)
    spatial = float((x.data ** 2).sum())
    spectrum = float(((s.re.data ** 2) + (s.im.data ** 2)).sum()) / (h * w)
    err = abs(spatial - spectrum) / max(abs(spatial), 1e-12)
    return err <= 1e-9, err


def _fft_linearity(seed):
    rng = Stream(seed)
    x = _rand(rng, (1, 1, 8, 8))
    y = _rand(rng, (1, 1, 8, 8))
    a, b = 0.6, -2.2
    lhs = spectral.dft2_raw(a * x + b * y)
    rhs = a * spectral.dft2_raw(x) + b * spectral.dft2_raw(y)
    err = float(np.abs(lhs - rhs).max())
    return err <= 1e-10, err


def _fast_vs_naive(seed):
    rng = Stream(seed)
    worst = 0.0
    for h, w in ((4, 4), (5, 5), (8, 8), (12, 12), (16, 16), (20, 20),
                 (32, 32), (40, 40), (64, 64), (12, 20)):
        x = _rand(rng, (1, 1, h, w))
        fast = spectral.dft2_raw(x)
        naive = spectral.dft2_raw(x, force_naive=True)
        worst = max(worst, float(np.abs(fast - naive).max()))
    return worst <= 1e-9, worst


def _hermitian_symmetry(seed):
    rng = Stream(seed)
    h, w = 8, 12
    s = spectral.fft2(Tensor(_rand(rng, (1, 1, h, w))))
    z = s.to_complex()[0, 0]
    mirrored = np.conj(z[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
    err = float(np.abs(z - mirrored).max())
    return err <= 1e-9, err


def _modulate_identity_roundtrip(seed):
    rng = Stream(seed)
    x = Tensor(_rand(rng, (1, 2, 8, 8)))
    weights = spectral.ComplexWeights.identity(2, 8, 8)
    y = spectral.ifft2(spectral.modulate(spectral.fft2(x), weights))
    err = float(np.abs(y.data - x.data).max())
    return err <= 1e-10, err


# -- fddem ---------------------------------------------------------------------

def _fddem_shape_preserved(seed):
    rng = Stream(seed)
    p = fd.FddemParams.random(4, 8, 8, rng)
    x = Tensor(_rand(rng, (2, 4, 8, 8)))
    y = fd.fddem_forward(x, p)
    return y.shape == x.shape, 0.0 if y.shape == x.shape else 1.0


def _fddem_zero_input(seed):
    rng = Stream(seed)
    p = fd.FddemParams.random(4, 8, 8, rng)
    for name in ("spatial1_b", "spatial2_b", "compress_b"):
        setattr(p, name, np.zeros_like(getattr(p, name)))
    y = fd.fddem_forward(Tensor(np.zeros((1, 4, 8, 8))), p)
    err = float(np.abs(y.data).max())
    return err == 0.0, err


def _fddem_freq_path_bounded(seed):
    rng = Stream(seed)
    p = fd.FddemParams.random(4, 8, 8, rng)
    x = Tensor(_rand(rng, (1, 4, 8, 8)))
    enhanced = [spectral.ifft2(spectral.modulate(spectral.fft2(x), wb))
                for wb in p.branches]
    f = tc.conv2d_raw(np.concatenate([e.data for e in enhanced], axis=1),
                      p.compress_w, p.compress_b, 1, 0)
    att = fd.dual_attention(Tensor(f), p)
    excess = float((np.abs(att.data * f) - np.abs(f)).max())
    in_range = bool((att.data > 0).all() and (att.data < 1).all())
    return excess <= 0.0 and in_range, excess


def _fddem_identity_at_init(seed):
    rng = Stream(seed)
    p = fd.FddemParams.identity(4, 8, 8)
    x = Tensor(_rand(rng, (1, 4, 8, 8)))
    y = fd.fddem_forward(x, p)
    err = float(np.abs(y.data - x.data).max())
    return err == 0.0, err


# -- msgrb ---------------------------------------------------------------------

def _msgrb_identity_zero_shrink(seed):
    rng = Stream(seed)
    p = ms.MsgrbParams.random(4, rng)
    p.shrink_w = np.zeros_like(p.shrink_w)
    x = Tensor(_rand(rng, (1, 4, 6, 6)))
    y = ms.msgrb_forward(x, p)
    same = np.array_equal(y.data, x.data)
    return same, 0.0 if same else float(np.abs(y.data - x.data).max())


def _msgrb_closed_gate(seed):
    rng = Stream(seed)
    p = ms.MsgrbParams.random(4, rng)
    hidden = p.hidden
    w = p.expand_w.copy()
    b = p.expand_b.copy()
    w[hidden:] = 0.0   # gate half sees only its bias
    b[hidden:] = -50.0
    p.expand_w, p.expand_b = w, b
    x = Tensor(_rand(rng, (1, 4, 6, 6)))
    err = float(np.abs(ms.ms_gu(x, p).data).max())
    return err <= 1e-20, err


def _msgrb_decomposition(seed):
    rng = Stream(seed)
    p = ms.MsgrbParams.random(4, rng)
    x = Tensor(_rand(rng, (1, 4, 8, 8)))
    y = ms.msgrb_forward(x, p)
    expected = x.data + ms.ms_gu(x, p).data
    same = np.array_equal(y.data, expected)
    return same, 0.0 if same else float(np.abs(y.data - expected).max())


def _msdw_channel_locality(seed):
    rng = Stream(seed)
    kernels = [_rand(rng, (3, 1, k, k)) for k in (3, 5, 7)]
    x = _rand(rng, (1, 3, 9, 9))
    x2 = x.copy()
    x2[0, 0] += 1.0
    y1 = ms.msdwconv(Tensor(x), *kernels)
    y2 = ms.msdwconv(Tensor(x2), *kernels)
    same = np.array_equal(y1.data[:, 1:], y2.data[:, 1:])
    changed = not np.array_equal(y1.data[:, :1], y2.data[:, :1])
    return same and changed, 0.0 if same else 1.0


# -- ca2neck -------------------------------------------------------------------

def _coords_zero_mean(seed):
    worst = 0.0
    for n in range(1, 17):
        worst = max(worst,
                    float(np.abs(neck.ldconv_coords(n).mean(axis=0)).max()))
    return worst <= 1e-12, worst


def _ldconv_linear_growth(seed):
    for n in (1, 5, 9, 13):
        p = neck.LdconvParams.init(3, 7, n_points=n, stride=2)
        if p.weights_per_output_channel != 3 * n:
            return False, float(p.weights_per_output_channel)
    return True, 0.0


def _dysample_constant_preserved(seed):
    rng = Stream(seed)
    p = neck.DysampleParams.init(3, rng=rng)
    c = 2.75
    y = neck.dysample_forward(Tensor(np.full((1, 3, 4, 4), c)), p)
    err = float(np.abs(y.data - c).max())
    return err == 0.0, err


def _dysample_scope_bound(seed):
    rng = Stream(seed)
    worst = 0.0
    for bias_value in (-1.0, -0.5, 0.5, 1.0):
        p = neck.DysampleParams.init(2, rng=rng)
        p.offset_w = np.zeros_like(p.offset_w)
        p.offset_b = np.full_like(p.offset_b, bias_value)
        x = Tensor(_rand(rng, (1, 2, 4, 4)))
        grid = neck.dysample_grid(x, p)
        base = neck.dysample_base_grid(4, 4, p.scale, p.groups)
        dev = float(np.abs(grid.coords - base).max())
        if abs(dev - p.scope * abs(bias_value)) > 0.0:
            return False, dev
        worst = max(worst, dev)
    return worst <= neck.DEFAULT_SCOPE, worst


def _pyramid_shapes_preserved(seed):
    rng = Stream(seed)
    p = neck.Ca2neckParams.init((4, 8, 16), rng=rng)
    xs = [Tensor(_rand(rng, (1, 4, 8, 8))),
          Tensor(_rand(rng, (1, 8, 4, 4))),
          Tensor(_rand(rng, (1, 16, 2, 2)))]
    ys = neck.ca2neck_forward(xs, p)
    ok = len(ys) == 3 and all(y.shape == x.shape for x, y in zip(xs, ys))
    return ok, 0.0 if ok else 1.0


REGISTRY = (
    ("tensor", "conv2d_linearity", _conv_linearity),
    ("tensor", "bilinear_identity_grid", _bilinear_identity_grid),
    ("tensor", "bilinear_bounded", _bilinear_bounded),
    ("tensor", "split_concat_roundtrip", _split_concat_roundtrip),
    ("tensor", "nan_rejection", _nan_rejection),
    ("autodiff", "path_sum_accumulation", _path_sum_accumulation),
    ("autodiff", "sigmoid_zero_grad", _sigmoid_zero_grad),
    ("autodiff", "linear_gradcheck", _linear_gradcheck),
    ("autodiff", "conv2d_gradcheck", _conv_gradcheck),
    ("spectral", "parseval", _parseval),
    ("spectral", "parseval_modulated", _parseval_modulated),
    ("spectral", "fft_linearity", _fft_linearity),
    ("spectral", "fast_vs_naive_agree", _fast_vs_naive),
    ("spectral", "hermitian_symmetry", _hermitian_symmetry),
    ("spectral", "modulate_identity_roundtrip", _modulate_identity_roundtrip),
    ("fddem", "shape_preserved", _fddem_shape_preserved),
    ("fddem", "zero_input_zero_output", _fddem_zero_input),
    ("fddem", "frequency_path_bounded", _fddem_freq_path_bounded),
    ("fddem", "identity_at_init", _fddem_identity_at_init),
    ("msgrb", "identity_zero_shrink", _msgrb_identity_zero_shrink),
    ("msgrb", "closed_gate_vanishes", _msgrb_closed_gate),
    ("msgrb", "residual_decomposition", _msgrb_decomposition),
    ("msgrb", "msdw_channel_locality", _msdw_channel_locality),
    ("ca2neck", "coords_zero_mean", _coords_zero_mean),
    ("ca2neck", "ldconv_linear_growth", _ldconv_linear_growth),
    ("ca2neck", "dysample_constant_preserved", _dysample_constant_preserved),
    ("ca2neck", "dysample_scope_bound", _dysample_scope_bound),
    ("ca2neck", "pyramid_shapes_preserved", _pyramid_shapes_preserved),
)


def suites() -> list:
    return sorted({suite for suite, _, _ in REGISTRY})


def run_properties(filter_suite=None, seed: int = 0,
                   inject_fault=None) -> list:
    """Run the catalog (optionally one suite), one seeded result per entry.

    `inject_fault` enables a named deliberate defect for the duration of
    the run; it exists so tests can prove the harness reports failures.
    """
    if filter_suite is not None and filter_suite not in suites():
        raise ValueError(f"unknown suite {filter_suite!r}; "
                         f"choose from {', '.join(suites())}")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}")
    results = []
    old_fault = spectral.FAULT_MODULATE_SIGN
    spectral.FAULT_MODULATE_SIGN = inject_fault == "modulate-sign"
    try:
        for i, (suite, name, fn) in enumerate(REGISTRY):
            if filter_suite is not None and suite != filter_suite:
                continue
            prop_seed = derive_seed(seed, i)
            try:
                passed, metric = fn(prop_seed)
            except Exception:
                passed, metric = False, float("nan")
            results.append(PropResult(suite, name, prop_seed, bool(passed),
                                      float(metric)))
    finally:
        spectral.FAULT_MODULATE_SIGN = old_fault
    return results
