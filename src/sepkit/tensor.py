"""Dense NCHW tensor type and the numerical primitives everything builds on.

The `Tensor` is an immutable, contiguous, row-major (N, C, H, W) array in
f32 or f64: the type files are read into and written from, and the type
`config.ChainModule.forward` takes and returns.  The blocks themselves
take ndarrays or autodiff `Var`s and return `Var`s.  The kernels are pure
functions over ndarrays: zero-padded convolution, per-channel depthwise
convolution, border-clamped bilinear grid sampling and the
gelu/sigmoid/silu activation family, each with its gradients, for the
reverse-mode layer to record on its tape.  Every kernel validates shapes
and rejects non-finite values at its boundary, so a NaN raises instead of
propagating silently.  A kernel whose gradient reuses forward work returns
(value, residual), and its gradient takes the residual: the conv's im2col
columns, the bilinear plan (corner rows into a channels-last copy of x,
and the fractional offsets), and the Φ(x) and σ(x) of gelu and silu;
sigmoid's residual is its value.  A conv is one BLAS matmul over its
columns (see `_conv_cols`); its weight gradient is one more, and its input
gradient is the conv itself, run on g with the kernel turned and
transposed.  The depthwise forward is k BLAS matmuls per plane and block
of `BAND_COLS` columns, one per row tap, of views of the zero-padded plane
with banded matrices (see `_row_bands`); a delta kernel still reproduces x
bit for bit.  Its gradients are products of real FFTs.  Importing this
module loads numpy only: the sigmoid is numpy's 1/(1 + exp(−x)), and each
scipy module loads on its first use, `scipy.special` (erf) on the first
gelu, `scipy.fft` on the first depthwise gradient and `scipy.sparse` on
the first bilinear input gradient.  The conv and depthwise forwards also
take stacked weights (see `autodiff`), which meet the batch as
`stack_count` states; each sample gets the bytes of its own unstacked
call.  Their gradients take declared shapes only.  The bilinear sampler
shares an x of one sample with a grid of many.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, NumericError

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

# python floats, not numpy scalars, so f32 tensors are not promoted
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise DimensionError(message)


def require_counts(**counts) -> None:
    """Raise DimensionError naming the first count below 1."""
    for name, n in counts.items():
        require(n >= 1, f"{name} must be >= 1, got {n}")


def require_finite(array: np.ndarray, what: str) -> None:
    if not np.isfinite(array).all():
        raise NumericError(f"non-finite values in {what}")


def stack_count(op: str, *weights, batch: int | None = None) -> int:
    """K for the weights, given as (array or None, declared ndim) pairs,
    that carry one more leading axis than declared; 0 when none does.
    Against a batch of samples they broadcast as numpy does: weight k
    meets sample k of a batch of K, or all K meet a batch of one."""
    counts = {a.shape[0] for a, ndim in weights
              if a is not None and a.ndim == ndim + 1}
    require(len(counts) <= 1,
            f"{op} stacked weights disagree on their count: "
            f"{sorted(counts)}")
    k = counts.pop() if counts else 0
    require(not k or batch in (None, 1, k),
            f"{op} batch {batch} meets {k} stacked weights: it must be "
            f"1 or {k}")
    return k


class Tensor:
    """Immutable dense (N, C, H, W) value, row-major, f32 or f64: f32 and
    f64 data keep their dtype, any other real dtype is read as f64."""

    __slots__ = ("data",)

    def __init__(self, data, copy=True):
        arr = np.asarray(data)
        require(not np.iscomplexobj(arr),
                f"Tensor data must be real, got {arr.dtype}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if copy:
            arr = arr.copy()
        require(arr.ndim == 4,
                f"Tensor must be 4D (N, C, H, W), got ndim={arr.ndim}")
        require(all(d >= 1 for d in arr.shape),
                f"Tensor dims must all be >= 1, got {arr.shape}")
        require_finite(arr, "tensor data")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


# ---------------------------------------------------------------------------
# raw kernels (ndarray in / ndarray out); shared with the autodiff layer
# ---------------------------------------------------------------------------

def _zero_pad(x: np.ndarray, p: int) -> np.ndarray:
    """x with p zeros on each side of its last two axes; zeros plus a slice
    copy, not np.pad, whose set-up dominates on small planes."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype)
    xp[:, :, p:p + h, p:p + w] = x
    return xp


def _conv_cols(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
               ho: int, wo: int) -> np.ndarray:
    """im2col: (N, C·kh·kw, Ho·Wo); a 1x1, stride-1, unpadded conv's is x."""
    n, c = x.shape[:2]
    if kh == kw == stride == 1 and padding == 0:
        return x.reshape(n, c, ho * wo)
    xp = _zero_pad(x, padding)
    sn, sc, sh, sw = xp.strides
    windows = as_strided(xp, (n, c, kh, kw, ho, wo),
                         (sn, sc, sh, sw, stride * sh, stride * sw))
    return windows.reshape(n, c * kh * kw, ho * wo)  # one gathering copy


def conv2d_raw(x: np.ndarray, w: np.ndarray, b, stride: int,
               padding: int):
    """Zero-padded cross-correlation as one GEMM over the im2col columns;
    (y, cols), the columns being what `conv2d_grads` takes."""
    require(x.ndim == 4, f"conv2d input must be 4D, got {x.shape}")
    require(w.ndim in (4, 5),
            f"conv2d weight must be 4D (5D stacked), got {w.shape}")
    require(stride >= 1, f"conv2d stride must be >= 1, got {stride}")
    require(padding >= 0, f"conv2d padding must be >= 0, got {padding}")
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape[-4:]
    require(ci == c,
            f"conv2d weight expects {ci} input channels, tensor has {c}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    require(ho >= 1 and wo >= 1,
            f"conv2d kernel {kh}x{kw} too large for input {h}x{wd} "
            f"with padding {padding}")
    require_finite(x, "conv2d input")
    require_finite(w, "conv2d weights")
    if b is not None:
        b = np.asarray(b)
        require(b.ndim in (1, 2) and b.shape[-1] == co,
                f"conv2d bias must have shape ({co},) (or (K, {co}) "
                f"stacked), got {b.shape}")
        require_finite(b, "conv2d bias")
    stack_count("conv2d", (w, 4), (b, 1), batch=n)
    cols = _conv_cols(x, kh, kw, stride, padding, ho, wo)
    # one GEMM per sample, stacked or not: numpy's matmul loops over stacks
    y = np.matmul(w.reshape(w.shape[:-3] + (-1,)), cols)
    if b is not None:
        y = y + b[..., None]
    return y.reshape(-1, co, ho, wo), cols


def _embed(offset: int, stride: int, n: int, size: int):
    """(destination, source) slices that put n values at stride·a + offset
    on a line of `size`, for the a that land on it."""
    lo = max(0, (stride - 1 - offset) // stride)
    hi = max(lo, min(n, (size - 1 - offset) // stride + 1))
    return (slice(stride * lo + offset, stride * hi + offset, stride),
            slice(lo, hi))


def conv2d_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                 cols: np.ndarray, stride: int, padding: int,
                 with_bias: bool):
    """Gradients of `conv2d_raw` from the columns its forward returned.
    gw is g times the columns.  gx is the transposed convolution: the
    stride-1 conv of g, zero-embedded at the stride in an (H + kh - 1,
    W + kw - 1) plane, with the kernel turned 180° and its in/out axes
    swapped.  Output rows that read only padding land off that plane."""
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    gw = np.matmul(g.reshape(n, co, ho * wo),
                   cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = g.sum(axis=(0, 2, 3)) if with_bias else None
    if stride == 1 and padding == kh - 1 == kw - 1:
        plane = g
    else:
        ri, ra = _embed(kh - 1 - padding, stride, ho, h + kh - 1)
        si, sa = _embed(kw - 1 - padding, stride, wo, wd + kw - 1)
        plane = np.zeros((n, co, h + kh - 1, wd + kw - 1), g.dtype)
        plane[:, :, ri, si] = g[:, :, ra, sa]
    gx, _ = conv2d_raw(plane, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1],
                       None, 1, 0)
    return gx, gw, gb


# Output columns per banded product.  A band of width W holds C·k·(W+k-1)·W
# values and costs (W+k-1)/k times the direct sum's multiplies, so wider
# planes run in column blocks of this many: one band over 640 columns took
# 2.1x the time of the direct k·k-tap sum and 3.3x its memory (f32, 16
# channels, one BLAS thread on a 2-vCPU Xeon).
BAND_COLS = 128


def _row_bands(w: np.ndarray, wd: int, dtype) -> np.ndarray:
    """(..., C, 1, k, k) filters as (..., C, k, wd + k - 1, wd) banded
    matrices, band[..., i, v + j, v] = w[..., i, j]: padded row r + i
    times band i is row tap i's share of output row r."""
    k = w.shape[-1]
    lead = w.shape[:-3]
    band = np.zeros(lead + (k, wd + k - 1, wd), dtype)
    # the (j, v) -> (v + j, v) diagonals, written through one strided view
    s = band.itemsize
    diagonals = as_strided(band, lead + (k, k, wd),
                           band.strides[:-2] + (wd * s, (wd + 1) * s))
    diagonals[...] = w.reshape(lead + (k, k))[..., None]
    return band


def depthwise_conv2d_raw(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    require(x.ndim == 4, f"depthwise input must be 4D, got {x.shape}")
    require(w.ndim in (4, 5) and w.shape[-3] == 1,
            f"depthwise weight must be (C, 1, k, k) (or (K, C, 1, k, k) "
            f"stacked), got {w.shape}")
    n, c, h, wd = x.shape
    require(w.shape[-4] == c,
            f"depthwise weight has {w.shape[-4]} filters, tensor has "
            f"{c} channels")
    k = w.shape[-1]
    require(w.shape[-2] == k and k % 2 == 1,
            f"depthwise kernel must be square with odd size, got {w.shape}")
    stack_count("depthwise", (w, 4), batch=n)
    require_finite(x, "depthwise input")
    require_finite(w, "depthwise weights")
    dtype = np.result_type(x, w)
    xp = _zero_pad(x.astype(dtype, copy=False), k // 2)
    y = np.empty(np.broadcast_shapes((n,), w.shape[:-4]) + (c, h, wd), dtype)
    # one GEMM per plane, row tap and column block, on views of xp and y; a
    # delta kernel's sums hold one nonzero product, so it reproduces x bit
    # for bit
    for v in range(0, wd, BAND_COLS):
        cols = min(BAND_COLS, wd - v)
        bands = _row_bands(w, cols, dtype)
        strip, out = xp[..., v:v + cols + k - 1], y[..., v:v + cols]
        np.matmul(strip[..., 0:h, :], bands[..., 0, :, :], out=out)
        tmp = np.empty(out.shape, dtype)
        for i in range(1, k):
            out += np.matmul(strip[..., i:i + h, :], bands[..., i, :, :],
                             out=tmp)
    return y.astype(x.dtype, copy=False)


def depthwise_conv2d_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """FFT gradients of `depthwise_conv2d_raw`: gx = g conv w, cropped, and
    gw = x correlated with g at lags -p..p, summed over the batch.  Padding
    to H+p by W+p or more keeps circular wrap off every value read: the
    full convolution's wrapped tail lands on its first p rows (cropped),
    and lags within p alias only lags beyond H-1, where x and g miss."""
    from scipy.fft import fft, ifft, irfft, irfft2, next_fast_len, rfft, rfft2
    h, wd = x.shape[2:]
    p = w.shape[2] // 2
    s = (next_fast_len(h + p, True), next_fast_len(wd + p, True))
    gf = rfft2(g, s)
    # the kernel's k rows along the last axis, then its columns: the
    # zero rows of the padded kernel cost no transform
    wf = fft(rfft(w[:, 0], s[1]), s[0], axis=-2)
    gx = irfft2(gf * wf, s)[:, :, p:p + h, p:p + wd]
    # irfft2 is ifft over rows, then irfft per row: only rows -p..p are
    # read, so only those get the second pass
    lags = np.arange(-p, p + 1) % np.array(s)[:, None]
    corr = ifft((rfft2(x, s) * gf.conj()).sum(axis=0), axis=-2)
    gw = irfft(corr[:, lags[0]], s[1])[:, :, lags[1]]
    return (np.ascontiguousarray(gx, x.dtype),
            np.ascontiguousarray(gw.reshape(w.shape), w.dtype))


def bilinear_sample_raw(x: np.ndarray, coords: np.ndarray):
    """Border-clamped grouped bilinear sampling; (y, plan).  The plan, which
    `bilinear_sample_grads` takes, is (xl, corners, wr, ws): x as
    (N·groups·H·W, C/groups) rows, the rows of each point's four clamped
    corners (r0s0, r0s1, r1s0, r1s1) and the point's fractional row and
    column offsets, each (Ng, groups, Ho, Wo) for a grid of batch Ng.  y
    has the grid's batch: an x of one sample is shared by every grid
    sample."""
    require(x.ndim == 4, f"bilinear input must be 4D, got {x.shape}")
    require(coords.ndim == 5 and coords.shape[-1] == 2,
            f"sampling grid must be (N, groups, H, W, 2), got {coords.shape}")
    require_finite(x, "bilinear input")
    require_finite(coords, "bilinear grid")
    n, c, h, w = x.shape
    gn, groups, ho, wo = coords.shape[:4]
    require(gn == n or n == 1,
            f"grid batch {gn} does not match tensor batch {n}")
    require(c % groups == 0,
            f"channels {c} not divisible by grid groups {groups}")
    r = np.clip(coords[..., 0], 0.0, float(h - 1))
    s = np.clip(coords[..., 1], 0.0, float(w - 1))
    r0 = np.floor(r).astype(np.int64)
    s0 = np.floor(s).astype(np.int64)
    wr = (r - r0).astype(x.dtype)
    ws = (s - s0).astype(x.dtype)
    s1 = np.minimum(s0 + 1, w - 1)
    row0 = (np.arange(n * groups).reshape(n, groups, 1, 1) * h + r0) * w
    row1 = row0 + np.where(r0 < h - 1, w, 0)
    corners = (row0 + s0, row0 + s1, row1 + s0, row1 + s1)
    xl = np.ascontiguousarray(x.reshape(n * groups, c // groups, h * w)
                              .transpose(0, 2, 1)).reshape(-1, c // groups)
    # (gn, groups, ho, wo, cg) corner values: fresh copies, worked in place
    v00, top, v10, y = (xl.take(i, axis=0) for i in corners)
    # nested lerp a + t (b - a) into b, for the top row, the bottom row and
    # between them: keeps constants exact and never leaves the corner range
    for a, b, t in ((v00, top, ws), (v10, y, ws), (top, y, wr)):
        b -= a
        b *= t[..., None]
        b += a
    y = np.ascontiguousarray(y.transpose(0, 1, 4, 2, 3)).reshape(
        gn, c, ho, wo)
    return y, (xl, corners, wr, ws)


def bilinear_sample_grads(g: np.ndarray, x: np.ndarray, coords: np.ndarray,
                          need_x: bool, need_grid: bool, plan):
    """Input and grid gradients of `bilinear_sample_raw`, from the plan its
    forward returned; None for a gradient not needed.  A broadcast x of
    one sample gets its gradient summed over the grid's batch."""
    xl, corners, wr, ws = plan
    n, c, h, w = x.shape
    gn, groups, ho, wo = coords.shape[:4]
    cg = c // groups
    gl = g.reshape(gn, groups, cg, ho * wo).transpose(0, 1, 3, 2)
    gl = np.ascontiguousarray(gl).reshape(gn, groups, ho, wo, cg)

    gx = None
    if need_x:
        # interpolation matrix (rows of xl x points), four entries per point
        # column; duplicate clamped corners, and the points of every grid
        # sample that share one x, are summed by the product
        from scipy.sparse import csc_array
        pts = gn * groups * ho * wo
        wts = np.stack([(1 - wr) * (1 - ws), (1 - wr) * ws, wr * (1 - ws),
                        wr * ws], axis=-1)
        interp = csc_array((wts.reshape(-1),
                            np.stack(corners, axis=-1).reshape(-1),
                            np.arange(0, 4 * pts + 1, 4)),
                           shape=(xl.shape[0], pts))
        gx = (interp @ gl.reshape(pts, cg)).reshape(n, groups, h * w, cg)
        gx = np.ascontiguousarray(gx.transpose(0, 1, 3, 2)).reshape(
            n, c, h, w)

    ggrid = None
    if need_grid:
        # derivative of the interpolant wrt the clamped coordinate: corner
        # differences dotted with g over each group's channels
        v00, v01, v10, v11 = (xl.take(i, axis=0) for i in corners)

        def dot(a, b):
            return np.einsum("...c,...c->...", a - b, gl)
        dr = (1 - ws) * dot(v10, v00) + ws * dot(v11, v01)
        ds = (1 - wr) * dot(v01, v00) + wr * dot(v11, v10)
        # clamp subgradient: zero where the raw coordinate left the border
        inside = (coords >= 0.0) & (coords <= [h - 1.0, w - 1.0])
        ggrid = np.stack([dr, ds], axis=-1) * inside.astype(x.dtype)
    return gx, ggrid


def gelu_raw(x: np.ndarray):
    """x·Φ(x) with Φ(x) = 0.5·(1 + erf(x/√2)); (y, Φ(x)), the part of the
    gradient that `gelu_grad` takes."""
    from scipy.special import erf
    require_finite(x, "gelu input")
    t = 1.0 + erf(x * _INV_SQRT2)
    return 0.5 * x * t, 0.5 * t


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Φ(x) + x·φ(x), from the Φ(x) the forward returned."""
    return cdf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def sigmoid_raw(x: np.ndarray) -> np.ndarray:
    """1/(1 + exp(−x)), the formula of scipy's `expit`: exp's overflow
    at very negative x gives 0 and its underflow at large x gives 1."""
    require_finite(x, "sigmoid input")
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid_grad_from_value(s: np.ndarray) -> np.ndarray:
    return s * (1.0 - s)


def silu_raw(x: np.ndarray):
    """x·σ(x); (y, σ(x)), for `silu_grad`."""
    require_finite(x, "silu input")
    s = sigmoid_raw(x)
    return x * s, s


def silu_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """σ(x)·(1 + x·(1 − σ(x))), from the σ(x) the forward returned."""
    return s * (1.0 + x * (1.0 - s))
