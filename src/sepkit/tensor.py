"""Dense NCHW tensor type and the numerical primitives everything builds on.

The `Tensor` is an immutable, contiguous, row-major (N, C, H, W) array in
f32 or f64.  Operations are pure functions: zero-padded convolution,
per-channel depthwise convolution, border-clamped bilinear grid sampling,
the gelu/sigmoid/silu activation family, and channel split/concat.  Every
operation validates shapes and rejects non-finite values at its boundary,
so a NaN raises instead of propagating silently.

The module also hosts the raw ndarray kernels (forward and gradient) that
the reverse-mode layer records on its tape; the typed functions here are
thin validated wrappers over the same kernels.  A conv and each of its
gradients is one BLAS matmul over an im2col matrix (see `_conv_cols`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf, expit

from .errors import DimensionError, NumericError

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

# python floats, not numpy scalars, so f32 tensors are not promoted
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise DimensionError(message)


def require_finite(array: np.ndarray, what: str) -> None:
    if not np.isfinite(array).all():
        raise NumericError(f"non-finite values in {what}")


def _as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(DTYPES.get(dtype, dtype), copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """Immutable dense (N, C, H, W) value, row-major, f32 or f64."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None, copy=True):
        arr = _as_float_array(data, dtype)
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

    def astype(self, dtype: str) -> "Tensor":
        return Tensor(self.data, dtype=dtype)

    def numpy(self) -> np.ndarray:
        """Writable copy of the underlying values."""
        return self.data.copy()

    @staticmethod
    def zeros(shape, dtype="f64") -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DTYPES[dtype]), copy=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class SamplingGrid:
    """Fractional (row, col) source coordinates for bilinear sampling.

    Shape is (N, groups, H_out, W_out, 2) with the last axis fixed to
    (row, col) in source-pixel units.  Coordinates may lie outside the
    source extent; the sampler clamps them to the border.
    """

    __slots__ = ("coords",)

    def __init__(self, coords, copy=True):
        arr = _as_float_array(coords)
        if copy:
            arr = arr.copy()
        require(arr.ndim == 5,
                f"SamplingGrid must be 5D (N, groups, H, W, 2), got {arr.shape}")
        require(arr.shape[-1] == 2,
                f"SamplingGrid last dim must be 2 (row, col), got {arr.shape[-1]}")
        require_finite(arr, "sampling grid")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.coords = arr

    @property
    def shape(self) -> tuple:
        return self.coords.shape


# ---------------------------------------------------------------------------
# raw kernels (ndarray in / ndarray out); shared with the autodiff layer
# ---------------------------------------------------------------------------

def _conv_cols(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
               ho: int, wo: int) -> np.ndarray:
    """im2col: (N, C·kh·kw, Ho·Wo); a 1x1, stride-1, unpadded conv's is x."""
    n, c, h, wd = x.shape
    if kh == kw == stride == 1 and padding == 0:
        return x.reshape(n, c, ho * wo)
    # zeros + copy, not np.pad, whose set-up dominates on small planes
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    sn, sc, sh, sw = xp.strides
    windows = as_strided(xp, (n, c, kh, kw, ho, wo),
                         (sn, sc, sh, sw, stride * sh, stride * sw))
    return windows.reshape(n, c * kh * kw, ho * wo)  # one gathering copy


def conv2d_raw(x: np.ndarray, w: np.ndarray, b, stride: int,
               padding: int) -> np.ndarray:
    require(x.ndim == 4, f"conv2d input must be 4D, got {x.shape}")
    require(w.ndim == 4, f"conv2d weight must be 4D, got {w.shape}")
    require(stride >= 1, f"conv2d stride must be >= 1, got {stride}")
    require(padding >= 0, f"conv2d padding must be >= 0, got {padding}")
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
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
        require(b.shape == (co,),
                f"conv2d bias must have shape ({co},), got {b.shape}")
        require_finite(b, "conv2d bias")
    cols = _conv_cols(x, kh, kw, stride, padding, ho, wo)
    y = np.matmul(w.reshape(co, ci * kh * kw), cols)
    if b is not None:
        y = y + b.reshape(1, co, 1)
    return y.reshape(n, co, ho, wo)


def conv2d_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int,
                 padding: int, with_bias: bool):
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    cols = _conv_cols(x, kh, kw, stride, padding, ho, wo)
    g2 = g.reshape(n, co, ho * wo)
    gw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(w.reshape(co, ci * kh * kw).T, g2)
    gb = g.sum(axis=(0, 2, 3)) if with_bias else None
    if kh == kw == stride == 1 and padding == 0:
        return gcols.reshape(x.shape), gw, gb
    gcols = gcols.reshape(n, c, kh, kw, ho, wo)
    gxp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * ho:stride,
                j:j + stride * wo:stride] += gcols[:, :, i, j]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return np.ascontiguousarray(gx), gw, gb


def depthwise_conv2d_raw(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    require(x.ndim == 4, f"depthwise input must be 4D, got {x.shape}")
    require(w.ndim == 4 and w.shape[1] == 1,
            f"depthwise weight must be (C, 1, k, k), got {w.shape}")
    n, c, h, wd = x.shape
    require(w.shape[0] == c,
            f"depthwise weight has {w.shape[0]} filters, tensor has "
            f"{c} channels")
    k = w.shape[2]
    require(w.shape[3] == k, f"depthwise kernel must be square, got {w.shape}")
    require_finite(x, "depthwise input")
    require_finite(w, "depthwise weights")
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros_like(x)
    for i in range(k):
        for j in range(k):
            y += w[:, 0, i, j].reshape(1, c, 1, 1) * xp[:, :, i:i + h, j:j + wd]
    return y


def depthwise_conv2d_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    n, c, h, wd = x.shape
    k = w.shape[2]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            window = xp[:, :, i:i + h, j:j + wd]
            gw[:, 0, i, j] = (g * window).sum(axis=(0, 2, 3))
            gxp[:, :, i:i + h, j:j + wd] += w[:, 0, i, j].reshape(1, c, 1, 1) * g
    return np.ascontiguousarray(gxp[:, :, p:p + h, p:p + wd]), gw


def _bilinear_corners(x: np.ndarray, coords: np.ndarray):
    """Clamp coordinates and gather the four surrounding corner values."""
    n, c, h, w = x.shape
    gn, groups, ho, wo = coords.shape[:4]
    require(gn == n,
            f"grid batch {gn} does not match tensor batch {n}")
    require(c % groups == 0,
            f"channels {c} not divisible by grid groups {groups}")
    cg = c // groups
    r = np.clip(coords[..., 0], 0.0, float(h - 1))
    s = np.clip(coords[..., 1], 0.0, float(w - 1))
    r0 = np.floor(r).astype(np.int64)
    s0 = np.floor(s).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    s1 = np.minimum(s0 + 1, w - 1)
    wr = (r - r0).astype(x.dtype)
    ws = (s - s0).astype(x.dtype)
    xg = x.reshape(n, groups, cg, h, w)
    bi = np.arange(n).reshape(n, 1, 1, 1)
    gi = np.arange(groups).reshape(1, groups, 1, 1)

    def gather(ri, si):
        # advanced indexing puts the broadcast axes first, channels last
        v = xg[bi, gi, :, ri, si]
        return np.moveaxis(v, -1, 2)  # (n, groups, cg, ho, wo)

    corners = (gather(r0, s0), gather(r0, s1), gather(r1, s0), gather(r1, s1))
    return corners, (r0, s0, r1, s1), (wr, ws), (n, groups, cg, h, w, ho, wo)


def bilinear_sample_raw(x: np.ndarray, coords: np.ndarray) -> np.ndarray:
    require(coords.ndim == 5 and coords.shape[-1] == 2,
            f"sampling grid must be (N, groups, H, W, 2), got {coords.shape}")
    require_finite(x, "bilinear input")
    require_finite(coords, "bilinear grid")
    (v00, v01, v10, v11), _, (wr, ws), dims = _bilinear_corners(x, coords)
    n, groups, cg, _, _, ho, wo = dims
    wr = wr[:, :, None]
    ws = ws[:, :, None]
    # nested lerp keeps constants exact and never leaves the corner range
    top = v00 + ws * (v01 - v00)
    bottom = v10 + ws * (v11 - v10)
    y = top + wr * (bottom - top)
    return np.ascontiguousarray(y.reshape(n, groups * cg, ho, wo))


def bilinear_sample_grads(g: np.ndarray, x: np.ndarray, coords: np.ndarray,
                          need_x: bool, need_grid: bool):
    corners, (r0, s0, r1, s1), (wr, ws), dims = _bilinear_corners(x, coords)
    v00, v01, v10, v11 = corners
    n, groups, cg, h, w, ho, wo = dims
    gg = g.reshape(n, groups, cg, ho, wo)
    wrc = wr[:, :, None]
    wsc = ws[:, :, None]

    gx = None
    if need_x:
        # interpolation matrix (pixels x points), four entries per point
        # column; duplicate clamped corners are summed by the product
        from scipy.sparse import csc_array
        blocks, pts = n * groups, ho * wo
        rows = np.stack([r0 * w + s0, r0 * w + s1, r1 * w + s0, r1 * w + s1],
                        axis=-1).reshape(blocks, 4 * pts)
        rows += np.arange(blocks).reshape(blocks, 1) * (h * w)
        wts = np.stack([(1 - wr) * (1 - ws), (1 - wr) * ws, wr * (1 - ws),
                        wr * ws], axis=-1)
        interp = csc_array((wts.reshape(-1), rows.reshape(-1), np.arange(
            0, 4 * blocks * pts + 1, 4)), shape=(blocks * h * w, blocks * pts))
        cols = gg.reshape(blocks, cg, pts).transpose(0, 2, 1)
        gx = (interp @ cols.reshape(blocks * pts, cg)).reshape(
            n, groups, h * w, cg).transpose(0, 1, 3, 2)
        gx = np.ascontiguousarray(gx).reshape(n, groups * cg, h, w)

    ggrid = None
    if need_grid:
        # derivative of the interpolant wrt the clamped coordinate, summed
        # over the channels in each group
        dr = ((1 - wsc) * (v10 - v00) + wsc * (v11 - v01)) * gg
        ds = ((1 - wrc) * (v01 - v00) + wrc * (v11 - v10)) * gg
        dr = dr.sum(axis=2)
        ds = ds.sum(axis=2)
        # clamp subgradient: zero where the raw coordinate left the border
        inside_r = ((coords[..., 0] >= 0.0)
                    & (coords[..., 0] <= float(h - 1))).astype(x.dtype)
        inside_s = ((coords[..., 1] >= 0.0)
                    & (coords[..., 1] <= float(w - 1))).astype(x.dtype)
        ggrid = np.stack([dr * inside_r, ds * inside_s], axis=-1)
    return gx, ggrid


def gelu_raw(x: np.ndarray) -> np.ndarray:
    require_finite(x, "gelu input")
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return (0.5 * (1.0 + erf(x * _INV_SQRT2))
            + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x))


def sigmoid_raw(x: np.ndarray) -> np.ndarray:
    require_finite(x, "sigmoid input")
    return expit(x)


def sigmoid_grad_from_value(s: np.ndarray) -> np.ndarray:
    return s * (1.0 - s)


def silu_raw(x: np.ndarray) -> np.ndarray:
    require_finite(x, "silu input")
    return x * sigmoid_raw(x)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = sigmoid_raw(x)
    return s * (1.0 + x * (1.0 - s))


# ---------------------------------------------------------------------------
# typed surface
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, weight: Tensor, bias=None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Zero-padded 2D cross-correlation with a (C_out, C_in, k, k) kernel."""
    y = conv2d_raw(x.data, weight.data, bias, stride, padding)
    return Tensor(y, copy=False)


def depthwise_conv2d(x: Tensor, weight: Tensor, padding=None) -> Tensor:
    """Shape-preserving per-channel convolution, stride 1, padding k//2."""
    k = weight.data.shape[2]
    if padding is not None:
        require(padding == k // 2,
                f"depthwise padding must be {k // 2} for k={k}, got {padding}")
    y = depthwise_conv2d_raw(x.data, weight.data)
    return Tensor(y, copy=False)


def bilinear_sample(x: Tensor, grid: SamplingGrid) -> Tensor:
    """Border-clamped bilinear interpolation of x at fractional coordinates."""
    y = bilinear_sample_raw(x.data, grid.coords)
    return Tensor(y, copy=False)


def gelu(x: Tensor) -> Tensor:
    return Tensor(gelu_raw(x.data), copy=False)


def sigmoid(x: Tensor) -> Tensor:
    return Tensor(sigmoid_raw(x.data), copy=False)


def silu(x: Tensor) -> Tensor:
    return Tensor(silu_raw(x.data), copy=False)


def split_channels(x: Tensor, sizes) -> list:
    """Split along the channel axis into parts of the given sizes."""
    sizes = list(sizes)
    require(all(s >= 1 for s in sizes),
            f"split sizes must be positive, got {sizes}")
    c = x.shape[1]
    require(sum(sizes) == c,
            f"split sizes {sizes} must sum to channel count {c}")
    parts = []
    start = 0
    for s in sizes:
        parts.append(Tensor(x.data[:, start:start + s], copy=True))
        start += s
    return parts


def concat_channels(parts) -> Tensor:
    """Concatenate along the channel axis; inverse of split_channels."""
    arrays = [p.data for p in parts]
    require(len(arrays) >= 1, "concat needs at least one tensor")
    base = arrays[0].shape
    for a in arrays[1:]:
        require(a.shape[0] == base[0] and a.shape[2:] == base[2:],
                f"concat parts disagree outside the channel axis: "
                f"{base} vs {a.shape}")
    return Tensor(np.concatenate(arrays, axis=1), copy=False)
