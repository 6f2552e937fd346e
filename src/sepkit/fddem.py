"""Frequency-domain detail enhancement module.

Dual-branch block over a fixed (C, H, W) feature size:

  * spatial context branch: residual pair of shape-preserving 3x3
    convolutions with silu between, x + conv2(silu(conv1(x))), so the
    branch is an exact identity while conv2 is zero;
  * frequency detail branch: one half-spectrum DFT of the input, then per
    branch a complex product with that branch's learnable complex weights,
    held as the (C, H, W//2+1) half spectrum Wh they act on; the B
    products are concatenated on the channel axis and compressed by a
    zero-initialized 1x1 convolution on the half spectrum (`mix_v`),
    before one inverse transform of the C mixed planes.  The inverse is
    planewise and linear, so this is the compress conv of every branch's
    irfft2(rfft2(x) * Wh), each inverted on its own, up to round-off;
    the compression bias is added after the inverse;
  * dual attention: channel logits (global average + max pooling through
    a shared two-layer 1x1-conv MLP) and spatial logits (channel mean/max
    maps through a 7x7 convolution, run as a depthwise conv of the two
    maps summed by a 1x1 ones-conv) are added under a single sigmoid,
    giving one map in (0, 1) that scales the frequency feature.

Output is spatial_branch(x) + attention * frequency_feature.  At the
declared initialization, `FddemParams.init` without a stream, the whole
module is an exact identity because the compression convolution is zero;
with a stream, `init` draws every field in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import spectral
from .rng import Stream, draws
from .spectral import ComplexWeights
from .tensor import require, require_counts


@dataclass
class FddemParams:
    spatial1_w: np.ndarray   # (C, C, 3, 3)
    spatial1_b: np.ndarray   # (C,)
    spatial2_w: np.ndarray   # (C, C, 3, 3); zero at init
    spatial2_b: np.ndarray   # (C,)
    branches: list           # ComplexWeights per branch
    compress_w: np.ndarray   # (C, branches*C, 1, 1); zero at init
    compress_b: np.ndarray   # (C,)
    ca_w1: np.ndarray        # (C//r, C, 1, 1)
    ca_b1: np.ndarray        # (C//r,)
    ca_w2: np.ndarray        # (C, C//r, 1, 1)
    ca_b2: np.ndarray        # (C,)
    sa_w: np.ndarray         # (1, 2, 7, 7)
    sa_b: np.ndarray         # (1,)

    # shape properties read trailing axes, so stacked weights keep them
    @property
    def channels(self) -> int:
        return self.spatial1_w.shape[-4]

    @property
    def plane(self) -> tuple:
        return self.branches[0].re.shape[-2], self.branches[0].width

    @staticmethod
    def init(channels: int, height: int, width: int, branches: int = 3,
             reduction: int = 4, rng: Stream = None,
             dtype=np.float64) -> "FddemParams":
        """The declared init without a stream (identity complex weights,
        zero everything else); generic nonzero values drawn from one."""
        require_counts(channels=channels, branches=branches,
                       reduction=reduction)
        require(channels >= reduction,
                f"channel count {channels} is below reduction {reduction}")
        c, cr, g = channels, channels // reduction, draws(rng, dtype)
        return FddemParams(
            spatial1_w=g(1.0 / (3.0 * np.sqrt(c)), c, c, 3, 3),
            spatial1_b=g(0.1, c),
            spatial2_w=g(1.0 / (3.0 * np.sqrt(c)), c, c, 3, 3),
            spatial2_b=g(0.1, c),
            branches=[ComplexWeights.init(c, height, width, rng, dtype)
                      for _ in range(branches)],
            compress_w=g(1.0 / np.sqrt(branches * c), c, branches * c, 1, 1),
            compress_b=g(0.1, c),
            ca_w1=g(1.0 / np.sqrt(c), cr, c, 1, 1), ca_b1=g(0.1, cr),
            ca_w2=g(1.0 / np.sqrt(cr), c, cr, 1, 1), ca_b2=g(0.1, c),
            sa_w=g(1.0 / 7.0, 1, 2, 7, 7), sa_b=g(0.1, 1),
        )


def dual_attention(f, p: FddemParams) -> ad.Var:
    """Frequency-guided attention map in (0, 1), shaped like the input.

    Channel logits come from global average and max pooling through a
    shared two-layer MLP; spatial logits from the channel mean/max maps
    through the 2-in, 1-out 7x7 convolution `sa_w`, run as a depthwise
    conv of each map with its own 7x7 filter and a 1x1 conv of ones that
    sums the two and adds `sa_b`.  One sigmoid over the summed logits
    gives an attention of exactly 0.5 everywhere when all weights are
    zero.
    """
    fv = ad.as_var(f)

    def mlp(v):
        return ad.conv2d(ad.silu(ad.conv2d(v, p.ca_w1, p.ca_b1)),
                         p.ca_w2, p.ca_b2)

    gap = ad.mean_axes(fv, (2, 3))
    gmp = ad.amax_axes(fv, (2, 3))
    channel_logits = ad.add(mlp(gap), mlp(gmp))          # (N, C, 1, 1)
    sa_w, sa_b = ad.as_var(p.sa_w), ad.as_var(p.sa_b)
    require(sa_w.shape[-4:] == (1, 2, 7, 7),
            f"sa_w must be (1, 2, 7, 7), got {sa_w.shape}")
    require(sa_b.shape[-1:] == (1,), f"sa_b must be (1,), got {sa_b.shape}")
    maps = ad.concat([ad.mean_axes(fv, (1,)), ad.amax_axes(fv, (1,))], axis=1)
    taps = ad.depthwise_conv2d(
        maps, ad.reshape(sa_w, sa_w.shape[:-4] + (2, 1, 7, 7)))
    spatial_logits = ad.conv2d(taps, np.ones((1, 2, 1, 1), sa_w.value.dtype),
                               sa_b)  # (N, 1, H, W)
    return ad.sigmoid(ad.add(channel_logits, spatial_logits))


def frequency_feature(x, p: FddemParams) -> ad.Var:
    """The compressed frequency feature of x, shaped like x.

    One half-spectrum transform of x, one complex product per branch with
    its weights, the B products mixed down to C channels by
    `compress_w` on the half spectrum, one inverse transform of the C
    planes, and `compress_b` added per channel (a stacked (K, C) bias
    broadcasts to K samples).
    """
    xv = ad.as_var(x)
    spectrum = spectral.rfft2_v(xv)
    products = [spectral.modulate_v(spectrum, wb.re, wb.im)
                for wb in p.branches]
    mixed = spectral.mix_v(ad.concat(products, axis=1), p.compress_w)
    b = ad.as_var(p.compress_b)
    return ad.add(spectral.irfft2_v(mixed, xv.value.shape[-1]),
                  ad.reshape(b, b.value.shape + (1, 1)))


def fddem_forward(x, p: FddemParams) -> ad.Var:
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

    f = frequency_feature(xv, p)

    return ad.add(spatial, ad.mul(dual_attention(f, p), f))
