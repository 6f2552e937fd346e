"""Frequency-domain detail enhancement module.

Dual-branch block over a fixed (C, H, W) feature size:

  * spatial context branch: residual pair of shape-preserving 3x3
    convolutions with silu between, x + conv2(silu(conv1(x))), so the
    branch is an exact identity while conv2 is zero;
  * frequency detail branch: per-branch spectrum modulation with
    learnable complex weights, branches concatenated and compressed by a
    zero-initialized 1x1 convolution;
  * dual attention: channel logits (global average + max pooling through
    a shared two-layer 1x1-conv MLP) and spatial logits (channel mean/max
    maps through a 7x7 convolution) are added under a single sigmoid,
    giving one map in (0, 1) that scales the frequency feature.

Output is spatial_branch(x) + attention * frequency_feature.  At the
declared initialization the whole module is an exact identity because the
compression convolution is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import spectral
from .rng import Stream
from .spectral import ComplexWeights
from .tensor import Tensor, require


@dataclass
class FddemParams:
    spatial1_w: np.ndarray   # (C, C, 3, 3)
    spatial1_b: np.ndarray   # (C,)
    spatial2_w: np.ndarray   # (C, C, 3, 3); zero at init
    spatial2_b: np.ndarray   # (C,)
    branches: list = field(default_factory=list)  # ComplexWeights per branch
    compress_w: np.ndarray = None  # (C, branches*C, 1, 1); zero at init
    compress_b: np.ndarray = None  # (C,)
    ca_w1: np.ndarray = None  # (C//r, C, 1, 1)
    ca_b1: np.ndarray = None  # (C//r,)
    ca_w2: np.ndarray = None  # (C, C//r, 1, 1)
    ca_b2: np.ndarray = None  # (C,)
    sa_w: np.ndarray = None   # (1, 2, 7, 7)
    sa_b: np.ndarray = None   # (1,)

    @property
    def channels(self) -> int:
        return self.spatial1_w.shape[0]

    @property
    def plane(self) -> tuple:
        w = self.branches[0]
        shape = w.re.shape if not hasattr(w.re, "value") else w.re.value.shape
        return shape[1], shape[2]

    @staticmethod
    def _shapes(channels: int, height: int, width: int, branches: int,
                reduction: int):
        require(branches >= 1, f"need at least one branch, got {branches}")
        require(reduction >= 1, f"reduction must be >= 1, got {reduction}")
        require(channels >= reduction,
                f"channel count {channels} is below reduction {reduction}")
        return channels // reduction

    @staticmethod
    def identity(channels: int, height: int, width: int, branches: int = 3,
                 reduction: int = 4, dtype=np.float64) -> "FddemParams":
        """Declared init: identity complex weights, zero everything else."""
        cr = FddemParams._shapes(channels, height, width, branches, reduction)
        z = lambda *s: np.zeros(s, dtype=dtype)
        return FddemParams(
            spatial1_w=z(channels, channels, 3, 3), spatial1_b=z(channels),
            spatial2_w=z(channels, channels, 3, 3), spatial2_b=z(channels),
            branches=[ComplexWeights.identity(channels, height, width, dtype)
                      for _ in range(branches)],
            compress_w=z(channels, branches * channels, 1, 1),
            compress_b=z(channels),
            ca_w1=z(cr, channels, 1, 1), ca_b1=z(cr),
            ca_w2=z(channels, cr, 1, 1), ca_b2=z(channels),
            sa_w=z(1, 2, 7, 7), sa_b=z(1),
        )

    @staticmethod
    def random(channels: int, height: int, width: int, rng: Stream,
               branches: int = 3, reduction: int = 4,
               dtype=np.float64) -> "FddemParams":
        """Generic nonzero parameters (for gradient tests and benchmarks)."""
        cr = FddemParams._shapes(channels, height, width, branches, reduction)
        g = lambda scale, *s: rng.normal(s, scale=scale).astype(dtype)
        return FddemParams(
            spatial1_w=g(1.0 / (3.0 * np.sqrt(channels)),
                         channels, channels, 3, 3),
            spatial1_b=g(0.1, channels),
            spatial2_w=g(1.0 / (3.0 * np.sqrt(channels)),
                         channels, channels, 3, 3),
            spatial2_b=g(0.1, channels),
            branches=[ComplexWeights.random(channels, height, width, rng,
                                            dtype=dtype)
                      for _ in range(branches)],
            compress_w=g(1.0 / np.sqrt(branches * channels),
                         channels, branches * channels, 1, 1),
            compress_b=g(0.1, channels),
            ca_w1=g(1.0 / np.sqrt(channels), cr, channels, 1, 1),
            ca_b1=g(0.1, cr),
            ca_w2=g(1.0 / np.sqrt(max(cr, 1)), channels, cr, 1, 1),
            ca_b2=g(0.1, channels),
            sa_w=g(1.0 / 7.0, 1, 2, 7, 7),
            sa_b=g(0.1, 1),
        )


def _wrap_like(x, out):
    return Tensor(out.value, copy=False) if isinstance(x, Tensor) else out


def dual_attention(f, p: FddemParams):
    """Frequency-guided attention map in (0, 1), shaped like the input.

    Channel logits come from global average and max pooling through a
    shared two-layer MLP; spatial logits from the channel mean/max maps
    through a 7x7 convolution.  One sigmoid over the summed logits gives
    an attention of exactly 0.5 everywhere when all weights are zero.
    """
    fv = ad.as_var(f)

    def mlp(v):
        return ad.conv2d(ad.silu(ad.conv2d(v, p.ca_w1, p.ca_b1)),
                         p.ca_w2, p.ca_b2)

    gap = ad.mean_axes(fv, (2, 3))
    gmp = ad.amax_axes(fv, (2, 3))
    channel_logits = ad.add(mlp(gap), mlp(gmp))          # (N, C, 1, 1)
    cmean = ad.mean_axes(fv, (1,))
    cmax = ad.amax_axes(fv, (1,))
    spatial_logits = ad.conv2d(ad.concat([cmean, cmax], axis=1),
                               p.sa_w, p.sa_b, padding=3)  # (N, 1, H, W)
    att = ad.sigmoid(ad.add(channel_logits, spatial_logits))
    return _wrap_like(f, att)


def fddem_forward(x, p: FddemParams):
    """spatial_branch(x) + dual_attention(f) * f over the frequency feature f."""
    xv = ad.as_var(x)
    n, c, h, w = xv.value.shape
    require(c == p.channels,
            f"input has {c} channels, params expect {p.channels}")
    require((h, w) == p.plane,
            f"input plane {(h, w)} does not match weight plane {p.plane}")

    spatial = ad.add(xv, ad.conv2d(
        ad.silu(ad.conv2d(xv, p.spatial1_w, p.spatial1_b, padding=1)),
        p.spatial2_w, p.spatial2_b, padding=1))

    # one input spectrum, fanned out to every branch's modulation
    sre, sim = spectral.fft2_v(xv)
    enhanced = [spectral.ifft2_real_v(
                    *spectral.modulate_v(sre, sim, wb.re, wb.im))
                for wb in p.branches]
    f = ad.conv2d(ad.concat(enhanced, axis=1), p.compress_w, p.compress_b)

    att = dual_attention(f, p)
    out = ad.add(spatial, ad.mul(ad.as_var(att), f))
    return _wrap_like(x, out)
