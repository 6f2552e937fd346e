"""Multi-scale gated refinement block.

A 1x1 expansion doubles the channel count, splits into a content half and
a gate half, refines the activated content with summed depthwise
convolutions at kernel sizes {3, 5, 7}, multiplies by the sigmoid gate,
and projects back with a bias-free 1x1 shrink wrapped in a residual:

    y = x + shrink( msdwconv(gelu(x_k)) * sigmoid(v_k) )

The depthwise branches run as one 7x7 pass of their zero-padded sum
(run-time re-parameterization); each branch's gradient is a center crop of
the folded kernel's.  With the shrink weights at their zero initialization
(`MsgrbParams.init` without a stream) the whole block is an exact
identity, so it can be dropped in safely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .rng import Stream, draws
from .tensor import require, require_counts

KERNEL_SIZES = (3, 5, 7)


@dataclass
class MsgrbParams:
    expand_w: np.ndarray   # (2*hidden, C, 1, 1)
    expand_b: np.ndarray   # (2*hidden,)
    dw3: np.ndarray        # (hidden, 1, 3, 3)
    dw5: np.ndarray        # (hidden, 1, 5, 5)
    dw7: np.ndarray        # (hidden, 1, 7, 7)
    shrink_w: np.ndarray   # (C, hidden, 1, 1); bias-free by contract

    # shape properties read trailing axes, so stacked weights keep them
    @property
    def channels(self) -> int:
        return self.shrink_w.shape[-4]

    @property
    def hidden(self) -> int:
        return self.shrink_w.shape[-3]

    @staticmethod
    def init(channels: int, hidden: int = None, rng: Stream = None,
             dtype=np.float64) -> "MsgrbParams":
        """All-zero learnable deltas without a stream (the block computes
        y == x exactly); generic nonzero values drawn from one.  `hidden`
        is `channels` unless given."""
        c, h = channels, channels if hidden is None else hidden
        require_counts(channels=c, hidden=h)
        g = draws(rng, dtype)
        return MsgrbParams(
            expand_w=g(1.0 / np.sqrt(c), 2 * h, c, 1, 1),
            expand_b=g(0.1, 2 * h),
            dw3=g(1.0 / 3.0, h, 1, 3, 3),
            dw5=g(1.0 / 5.0, h, 1, 5, 5),
            dw7=g(1.0 / 7.0, h, 1, 7, 7),
            shrink_w=g(1.0 / np.sqrt(h), c, h, 1, 1),
        )


def msdwconv(x, dw3, dw5, dw7) -> ad.Var:
    """Sum of shape-preserving depthwise convolutions at sizes 3, 5, 7,
    computed as one 7x7 pass of the center-padded kernel sum."""
    w = ad.fold_kernels((dw3, dw5, dw7), KERNEL_SIZES)
    return ad.depthwise_conv2d(x, w)


def ms_gu(x, p: MsgrbParams) -> ad.Var:
    """Expand, split, refine-and-gate, shrink; no residual."""
    xv = ad.as_var(x)
    hidden = p.hidden
    require(xv.value.shape[1] == p.channels,
            f"input has {xv.value.shape[1]} channels, params expect "
            f"{p.channels}")
    e = ad.conv2d(xv, p.expand_w, p.expand_b)
    x_k, v_k = ad.split(e, [hidden, hidden], axis=1)
    refined = msdwconv(ad.gelu(x_k), p.dw3, p.dw5, p.dw7)
    gated = ad.mul(refined, ad.sigmoid(v_k))
    return ad.conv2d(gated, p.shrink_w)


def msgrb_forward(x, p: MsgrbParams) -> ad.Var:
    """Residual wrapper: y = x + ms_gu(x)."""
    return ad.add(x, ms_gu(x, p))
