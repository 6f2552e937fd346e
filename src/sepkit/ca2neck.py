"""Content-aware alignment neck primitives and the 3-level pyramid pass.

LDConv replaces strided convolution on the way down: each output location
anchors at (i*stride, j*stride), samples N content-shifted points around
it (a deterministic zero-mean point layout plus offsets predicted by a
3x3 convolution), and mixes the N*C_in sampled values into C_out channels
with a 1x1 projection.  Stored mixing weights per output channel are
exactly C_in*N, so capacity grows linearly in the point count.  All N
points are sampled by one bilinear call, so each LDConv builds one
sampling plan (one channels-last copy of its input).

DySample replaces interpolation on the way up: a base grid places scale^2
output points uniformly inside every source cell (zero offsets reproduce
plain bilinear resizing), and a 1x1 head predicts per-point offsets that
are scaled by a static scope factor (default 0.25) before border-clamped
bilinear sampling.

The pyramid pass is PAN-style: one top-down sweep (DySample, concat,
1x1 merge, gated refinement) followed by one bottom-up sweep (LDConv
stride 2, concat, 1x1 merge, gated refinement)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .msgrb import MsgrbParams, msgrb_forward
from .rng import Stream, draws
from .tensor import require

DEFAULT_SCOPE = 0.25


def ldconv_coords(n_points: int) -> np.ndarray:
    """Deterministic zero-mean base coordinates for N sampling points.

    Enumerates the first N cells of a ceil(sqrt(N))-sized square grid in
    row-major order and subtracts their centroid, so irregular point
    counts give fractional, centered layouts.
    """
    if n_points <= 0:
        raise ValueError(f"point count must be positive, got {n_points}")
    b = math.isqrt(n_points)
    if b * b < n_points:
        b += 1
    cells = [(i, j) for i in range(b) for j in range(b)][:n_points]
    coords = np.asarray(cells, dtype=np.float64)
    return coords - coords.mean(axis=0)


@dataclass
class LdconvParams:
    n_points: int
    stride: int
    mix_w: np.ndarray     # (C_out, N*C_in, 1, 1); bias-free point mixing
    offset_w: np.ndarray  # (2N, C_in, 3, 3)
    offset_b: np.ndarray  # (2N,)

    # shape properties read trailing axes, so stacked weights keep them
    @property
    def in_channels(self) -> int:
        return self.offset_w.shape[-3]

    @property
    def out_channels(self) -> int:
        return self.mix_w.shape[-4]

    @property
    def weights_per_output_channel(self) -> int:
        return int(np.prod(self.mix_w.shape[-3:]))

    @staticmethod
    def init(in_channels: int, out_channels: int, n_points: int = 5,
             stride: int = 1, rng: Stream = None,
             dtype=np.float64) -> "LdconvParams":
        """Zero offsets (fixed-grid sampling); mixing weights random when a
        stream is given, zero otherwise.

        Random init biases the offsets by +0.35 of a pixel: it keeps every
        sampling point off the integer lattice, where the interpolant's
        coordinate derivative is undefined."""
        require(n_points >= 1, f"need n_points >= 1, got {n_points}")
        require(stride >= 1, f"need stride >= 1, got {stride}")
        g = draws(rng, dtype)
        mix = g(1.0 / np.sqrt(n_points * in_channels),
                out_channels, n_points * in_channels, 1, 1)
        off_w = g(0.02, 2 * n_points, in_channels, 3, 3)
        off_b = np.full(2 * n_points, 0.0 if rng is None else 0.35,
                        dtype=dtype)
        return LdconvParams(n_points=n_points, stride=stride, mix_w=mix,
                            offset_w=off_w, offset_b=off_b)

    @staticmethod
    def from_conv_kernel(kernel: np.ndarray, stride: int = 1,
                         dtype=np.float64) -> "LdconvParams":
        """Mixing weights arranged from a square (C_out, C_in, k, k) kernel.

        Point i*k+j carries kernel tap (i, j), matching the row-major
        order of ldconv_coords(k*k); offsets start at zero, so the result
        reproduces fixed k x k sampling."""
        co, ci, kh, kw = kernel.shape
        require(kh == kw, f"kernel must be square, got {kernel.shape}")
        n = kh * kw
        # (co, ci, kh, kw) -> (co, kh, kw, ci) -> (co, n*ci)
        mix = np.ascontiguousarray(kernel.transpose(0, 2, 3, 1)).reshape(
            co, n * ci, 1, 1).astype(dtype)
        p = LdconvParams.init(ci, co, n_points=n, stride=stride, dtype=dtype)
        p.mix_w = mix
        return p


def ldconv_forward(x, p: LdconvParams) -> ad.Var:
    """Deformable N-point downsampling; output is ceil(H/s) x ceil(W/s).

    The (N, 2P, Ho, Wo) offset map plus the anchors and the point layout
    is one (N, 1, P*Ho, Wo, 2) grid, so all P points are sampled by one
    bilinear call; the samples are then reordered point-major
    (N, P*C, Ho, Wo) for the mixing conv."""
    xv = ad.as_var(x)
    c = xv.value.shape[1]
    require(c == p.in_channels,
            f"input has {c} channels, params expect {p.in_channels}")
    offsets = ad.conv2d(xv, p.offset_w, p.offset_b, stride=p.stride,
                        padding=1)
    pts = p.n_points
    # the batch of the offsets, not of x: K when stacked offset weights
    # meet an x of one sample
    n, _, ho, wo = offsets.value.shape
    dt = xv.value.dtype
    anchors = np.stack(np.broadcast_arrays(
        np.arange(ho, dtype=dt)[:, None] * p.stride,
        np.arange(wo, dtype=dt)[None, :] * p.stride))  # (2, ho, wo)
    base = ldconv_coords(pts)
    # the dtype of an anchor array plus a float64 scalar: float32 under
    # NumPy 1's value-based casting, float64 under NumPy 2
    base = base.astype(np.result_type(dt, base[0, 0]))
    layout = anchors + base[:, :, None, None]  # (P, 2, ho, wo)
    coords = ad.add(ad.reshape(offsets, (n, pts, 2, ho, wo)), layout)
    grid = ad.reshape(ad.transpose(coords, (0, 1, 3, 4, 2)),
                      (n, 1, pts * ho, wo, 2))
    sampled = ad.reshape(ad.bilinear_sample(xv, grid), (n, c, pts, ho, wo))
    stacked = ad.reshape(ad.transpose(sampled, (0, 2, 1, 3, 4)),
                         (n, pts * c, ho, wo))
    return ad.conv2d(stacked, p.mix_w)


@dataclass
class DysampleParams:
    scale: int
    groups: int
    scope: float          # static offset scope factor
    offset_w: np.ndarray  # (2*groups*scale^2, C, 1, 1)
    offset_b: np.ndarray  # (2*groups*scale^2,)

    @property
    def channels(self) -> int:
        return self.offset_w.shape[-3]

    @staticmethod
    def init(channels: int, scale: int = 2, groups: int = 1,
             scope: float = DEFAULT_SCOPE, rng: Stream = None,
             dtype=np.float64) -> "DysampleParams":
        """Zero-initialized head reproduces plain bilinear upsampling."""
        require(scale >= 2, f"scale must be >= 2, got {scale}")
        require(groups >= 1 and channels % groups == 0,
                f"channels {channels} must divide into groups {groups}")
        co, g = 2 * groups * scale * scale, draws(rng, dtype)
        return DysampleParams(scale=scale, groups=groups, scope=float(scope),
                              offset_w=g(0.02, co, channels, 1, 1),
                              offset_b=g(0.02, co))


def dysample_base_grid(h: int, w: int, scale: int, groups: int,
                       dtype=np.float64) -> np.ndarray:
    """Bilinear-initialized base grid: output (i, j) maps to source
    ((i+0.5)/s - 0.5, (j+0.5)/s - 0.5), shape (1, groups, s*h, s*w, 2)."""
    rows = (np.arange(scale * h, dtype=dtype) + 0.5) / scale - 0.5
    cols = (np.arange(scale * w, dtype=dtype) + 0.5) / scale - 0.5
    rr = np.broadcast_to(rows[:, None], (scale * h, scale * w))
    cc = np.broadcast_to(cols[None, :], (scale * h, scale * w))
    grid = np.stack([rr, cc], axis=-1)
    return np.broadcast_to(grid, (1, groups) + grid.shape).copy()


def dysample_offsets(x, p: DysampleParams) -> ad.Var:
    """Raw offset-head output at input resolution, (N, 2*g*s^2, H, W)."""
    xv = ad.as_var(x)
    require(xv.value.shape[1] == p.channels,
            f"input has {xv.value.shape[1]} channels, params expect "
            f"{p.channels}")
    return ad.conv2d(xv, p.offset_w, p.offset_b)


def dysample_grid_from_offsets(offsets, h: int, w: int,
                               p: DysampleParams) -> ad.Var:
    """Base grid plus scope-scaled offsets, as a (N, g, s*h, s*w, 2) Var.

    Offset channels are laid out ((group*2 + axis)*s + si)*s + sj, i.e.
    one (row, col) pair per group and per sub-cell position; the pixel
    rearrangement places pair (si, sj) at output (i*s + si, j*s + sj).
    """
    ov = ad.as_var(offsets)
    s, g = p.scale, p.groups
    require(ov.value.ndim == 4 and ov.value.shape[1:] == (2 * g * s * s, h, w),
            f"offset map must be (N, {2 * g * s * s}, {h}, {w}), got "
            f"{ov.value.shape}")
    n = ov.value.shape[0]
    shaped = ad.reshape(ov, (n, g, 2, s, s, h, w))
    # (n, g, h, si, w, sj, axis) -> (n, g, s*h, s*w, 2)
    pairs = ad.reshape(ad.transpose(shaped, (0, 1, 5, 3, 6, 4, 2)),
                       (n, g, s * h, s * w, 2))
    base = dysample_base_grid(h, w, s, g, dtype=ov.value.dtype)
    return ad.add(ad.scale(pairs, p.scope), base)


def dysample_grid(x, p: DysampleParams) -> ad.Var:
    """The (N, g, s*H, s*W, 2) sampling grid the upsampler uses for `x`."""
    xv = ad.as_var(x)
    return dysample_grid_from_offsets(dysample_offsets(xv, p),
                                      *xv.value.shape[2:], p)


def dysample_forward(x, p: DysampleParams) -> ad.Var:
    """Content-aware point-sampling upsampler, (N, C, H, W) -> (N, C, sH, sW)."""
    xv = ad.as_var(x)
    return ad.bilinear_sample(xv, dysample_grid(xv, p))


# ---------------------------------------------------------------------------
# pyramid composition
# ---------------------------------------------------------------------------

@dataclass
class Ca2neckParams:
    channels: tuple              # (C0, C1, C2), shallow to deep
    dys_td1: DysampleParams      # upsample level 2 -> level 1 size
    merge_td1_w: np.ndarray      # (C1, C2+C1, 1, 1)
    merge_td1_b: np.ndarray
    fuse_td1: MsgrbParams
    dys_td0: DysampleParams      # upsample level 1 -> level 0 size
    merge_td0_w: np.ndarray      # (C0, C1+C0, 1, 1)
    merge_td0_b: np.ndarray
    fuse_td0: MsgrbParams
    ld_bu1: LdconvParams         # downsample level 0 -> level 1 size
    merge_bu1_w: np.ndarray      # (C1, C1+C1, 1, 1)
    merge_bu1_b: np.ndarray
    fuse_bu1: MsgrbParams
    ld_bu2: LdconvParams         # downsample level 1 -> level 2 size
    merge_bu2_w: np.ndarray      # (C2, C2+C2, 1, 1)
    merge_bu2_b: np.ndarray
    fuse_bu2: MsgrbParams

    @staticmethod
    def init(channels, n_points: int = 5, scope: float = DEFAULT_SCOPE,
             rng: Stream = None, dtype=np.float64) -> "Ca2neckParams":
        """Build a parameter set; the DySample stages upsample by 2.

        With a stream, merge convs and refinement blocks are generic
        random values, drawn merges first; without one, everything
        learnable is zero (the sampling stages reduce to fixed-grid
        resizes and a zero merge silences each level, which tests override
        with explicit mixes)."""
        c0, c1, c2 = channels
        g = draws(rng, dtype)

        def merge(cin, cout):
            return g(1.0 / np.sqrt(cin), cout, cin, 1, 1), g(0.1, cout)

        def fuse(c):
            return MsgrbParams.init(c, rng=rng, dtype=dtype)

        m1w, m1b = merge(c2 + c1, c1)
        m0w, m0b = merge(c1 + c0, c0)
        b1w, b1b = merge(c1 + c1, c1)
        b2w, b2b = merge(c2 + c2, c2)
        return Ca2neckParams(
            channels=(c0, c1, c2),
            dys_td1=DysampleParams.init(c2, scope=scope, rng=rng,
                                        dtype=dtype),
            merge_td1_w=m1w, merge_td1_b=m1b, fuse_td1=fuse(c1),
            dys_td0=DysampleParams.init(c1, scope=scope, rng=rng,
                                        dtype=dtype),
            merge_td0_w=m0w, merge_td0_b=m0b, fuse_td0=fuse(c0),
            ld_bu1=LdconvParams.init(c0, c1, n_points=n_points, stride=2,
                                     rng=rng, dtype=dtype),
            merge_bu1_w=b1w, merge_bu1_b=b1b, fuse_bu1=fuse(c1),
            ld_bu2=LdconvParams.init(c1, c2, n_points=n_points, stride=2,
                                     rng=rng, dtype=dtype),
            merge_bu2_w=b2w, merge_bu2_b=b2b, fuse_bu2=fuse(c2),
        )


def ca2neck_forward(features, p: Ca2neckParams) -> list:
    """Refine a 3-level pyramid (shallow to deep, sizes halving by level)."""
    require(len(features) == 3,
            f"expected 3 pyramid levels, got {len(features)}")
    c0, c1, c2 = [ad.as_var(f) for f in features]
    exp = p.channels
    for lvl, (f, c) in enumerate(zip((c0, c1, c2), exp)):
        require(f.value.shape[1] == c,
                f"level {lvl} has {f.value.shape[1]} channels, params "
                f"expect {c}")
    for lvl, (fine, coarse) in enumerate(((c0, c1), (c1, c2))):
        require(fine.value.shape[2] == 2 * coarse.value.shape[2]
                and fine.value.shape[3] == 2 * coarse.value.shape[3],
                f"level {lvl} must be exactly twice the size of level "
                f"{lvl + 1}")

    def merge(a, b, w, bias, fuse_params):
        mixed = ad.conv2d(ad.concat([a, b], axis=1), w, bias)
        return msgrb_forward(mixed, fuse_params)

    # top-down
    t1 = merge(dysample_forward(c2, p.dys_td1), c1,
               p.merge_td1_w, p.merge_td1_b, p.fuse_td1)
    t0 = merge(dysample_forward(t1, p.dys_td0), c0,
               p.merge_td0_w, p.merge_td0_b, p.fuse_td0)
    # bottom-up
    b1 = merge(ldconv_forward(t0, p.ld_bu1), t1,
               p.merge_bu1_w, p.merge_bu1_b, p.fuse_bu1)
    b2 = merge(ldconv_forward(b1, p.ld_bu2), c2,
               p.merge_bu2_w, p.merge_bu2_b, p.fuse_bu2)

    return [t0, b1, b2]
