"""Multi-scale gated refinement block.

A 1x1 expansion doubles the channel count, splits into a content half and
a gate half, refines the activated content with summed depthwise
convolutions at kernel sizes {3, 5, 7}, multiplies by the sigmoid gate,
and projects back with a bias-free 1x1 shrink wrapped in a residual:

    y = x + shrink( msdwconv(gelu(x_k)) * sigmoid(v_k) )

The depthwise branches run as one 7x7 pass of their zero-padded sum
(run-time re-parameterization); each branch's gradient is a center crop of
the folded kernel's.  With the shrink weights at their zero initialization
the whole block is an exact identity, so it can be dropped in safely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .rng import Stream
from .tensor import require

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
    def identity(channels: int, hidden=None, dtype=np.float64) -> "MsgrbParams":
        """All-zero learnable deltas: the block computes y == x exactly."""
        h = hidden or channels
        return MsgrbParams(
            expand_w=np.zeros((2 * h, channels, 1, 1), dtype=dtype),
            expand_b=np.zeros(2 * h, dtype=dtype),
            dw3=np.zeros((h, 1, 3, 3), dtype=dtype),
            dw5=np.zeros((h, 1, 5, 5), dtype=dtype),
            dw7=np.zeros((h, 1, 7, 7), dtype=dtype),
            shrink_w=np.zeros((channels, h, 1, 1), dtype=dtype),
        )

    @staticmethod
    def random(channels: int, rng: Stream, hidden=None,
               dtype=np.float64) -> "MsgrbParams":
        h = hidden or channels
        return MsgrbParams(
            expand_w=rng.normal((2 * h, channels, 1, 1),
                                scale=1.0 / np.sqrt(channels)).astype(dtype),
            expand_b=rng.normal((2 * h,), scale=0.1).astype(dtype),
            dw3=rng.normal((h, 1, 3, 3), scale=1.0 / 3.0).astype(dtype),
            dw5=rng.normal((h, 1, 5, 5), scale=1.0 / 5.0).astype(dtype),
            dw7=rng.normal((h, 1, 7, 7), scale=1.0 / 7.0).astype(dtype),
            shrink_w=rng.normal((channels, h, 1, 1),
                                scale=1.0 / np.sqrt(h)).astype(dtype),
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
