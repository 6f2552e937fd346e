"""2D discrete Fourier transform pair and learnable complex-weight modulation.

The forward transform is the unnormalized DFT

    F[u, v] = sum_{x, y} X[x, y] * exp(-2j*pi*(u*x/H + v*y/W))

applied independently per (batch, channel) plane; the inverse carries the
1/(H*W) factor and returns the real part.  Every plane size goes through
numpy's pocketfft.  A per-bin naive evaluation, deliberately O((H*W)^2)
per plane, is kept behind `force_naive` as the always-correct reference
and the benchmark baseline.

Modulation multiplies a spectrum elementwise by learnable complex weights,
one (C, H, W) weight pair per enhancement branch: real parts scale
amplitudes, imaginary parts rotate phases.  Weights initialize to 1+0j so
an untrained branch is an identity map.

The differentiable `fft2_v`, `modulate_v` and `ifft2_real_v` are the one
execution path, with or without a tape; `dft2_raw` is the plain-array
transform underneath them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, as_var
from .rng import Stream
from .tensor import Tensor, require, require_finite

_COMPLEX_FOR = {np.dtype(np.float32): np.complex64,
                np.dtype(np.float64): np.complex128}

# test-only fault hook: when set, modulate_v flips the sign of the
# spectrum.im * weight.re term so harness checks can prove they catch it
FAULT_MODULATE_SIGN = False


def _naive_dft2_planes(a: np.ndarray, sign: int) -> np.ndarray:
    """Per-bin naive 2D DFT over the last two axes, O((H*W)^2) per plane."""
    h, w = a.shape[-2:]
    cdtype = a.dtype
    eh = np.exp(sign * 2j * np.pi
                * np.outer(np.arange(h), np.arange(h)) / h).astype(cdtype)
    ew = np.exp(sign * 2j * np.pi
                * np.outer(np.arange(w), np.arange(w)) / w).astype(cdtype)
    flat = a.reshape(-1, h, w)
    out = np.empty_like(flat)
    for p in range(flat.shape[0]):
        plane = flat[p]
        for u in range(h):
            row = eh[u]
            for v in range(w):
                out[p, u, v] = row @ plane @ ew[v]
    return out.reshape(a.shape)


def dft2_raw(a: np.ndarray, inverse: bool = False,
             force_naive: bool = False) -> np.ndarray:
    """Complex 2D DFT over the last two axes of `a`, any plane size.

    Forward is unnormalized with the e^{-j...} convention; inverse applies
    1/(H*W).  The result has the complex dtype matching `a` (complex64 for
    float32 input).  `force_naive` selects the per-bin reference path.
    """
    if not np.iscomplexobj(a):
        a = a.astype(_COMPLEX_FOR[np.dtype(a.dtype)])
    if force_naive:
        h, w = a.shape[-2:]
        out = _naive_dft2_planes(a, +1 if inverse else -1)
        return out / (h * w) if inverse else out
    out = np.fft.ifft2(a) if inverse else np.fft.fft2(a)
    # numpy < 2 computes in complex128 whatever the input precision
    return out.astype(a.dtype, copy=False)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class ComplexTensor:
    """Paired real/imaginary tensors of equal shape: a SEPC file's content."""

    __slots__ = ("re", "im")

    def __init__(self, re: Tensor, im: Tensor):
        require(re.shape == im.shape,
                f"complex parts must share a shape, got {re.shape} "
                f"vs {im.shape}")
        require(re.dtype == im.dtype,
                f"complex parts must share a dtype, got {re.dtype} "
                f"vs {im.dtype}")
        self.re = re
        self.im = im

    @property
    def shape(self) -> tuple:
        return self.re.shape


@dataclass
class ComplexWeights:
    """Learnable (C, H, W) complex weights for one enhancement branch."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        if isinstance(self.re, Var) or isinstance(self.im, Var):
            return  # lifted onto a tape; shapes were validated at build time
        self.re = np.asarray(self.re)
        self.im = np.asarray(self.im)
        require(self.re.ndim == 3,
                f"complex weights must be (C, H, W), got {self.re.shape}")
        require(self.re.shape == self.im.shape,
                f"weight parts must share a shape, got {self.re.shape} "
                f"vs {self.im.shape}")
        require_finite(self.re, "complex weights (re)")
        require_finite(self.im, "complex weights (im)")

    @staticmethod
    def identity(channels: int, height: int, width: int,
                 dtype=np.float64) -> "ComplexWeights":
        """The declared initialization: 1+0j everywhere (identity modulation)."""
        return ComplexWeights(np.ones((channels, height, width), dtype=dtype),
                              np.zeros((channels, height, width), dtype=dtype))

    @staticmethod
    def random(channels: int, height: int, width: int, rng: Stream,
               spread: float = 0.5, dtype=np.float64) -> "ComplexWeights":
        """Generic nonzero weights centered on the identity."""
        shape = (channels, height, width)
        return ComplexWeights(
            (1.0 + rng.normal(shape, scale=spread)).astype(dtype),
            rng.normal(shape, scale=spread).astype(dtype))


# ---------------------------------------------------------------------------
# differentiable ops (Var level)
# ---------------------------------------------------------------------------

def fft2_v(x, force_naive: bool = False) -> tuple:
    """Differentiable forward DFT of a real (N, C, H, W) value.

    Returns (re, im).  The transform is linear, so the input gradient is
    the forward transform of (g_re - 1j*g_im), real part taken (the DFT
    matrix is symmetric).
    """
    x = as_var(x)
    require_finite(x.value, "fft2 input")
    spec = dft2_raw(x.value, inverse=False, force_naive=force_naive)
    re_val = np.ascontiguousarray(spec.real)
    im_val = np.ascontiguousarray(spec.imag)
    tape = x.tape
    if tape is None:
        return Var(re_val), Var(im_val)

    def vjp_re(g):
        gz = g.astype(_COMPLEX_FOR[np.dtype(g.dtype)])
        return (np.ascontiguousarray(
            dft2_raw(gz, inverse=False, force_naive=force_naive).real),)

    def vjp_im(g):
        gz = (-1j * g).astype(_COMPLEX_FOR[np.dtype(g.dtype)])
        return (np.ascontiguousarray(
            dft2_raw(gz, inverse=False, force_naive=force_naive).real),)

    re_var = tape._record(re_val, (x,), vjp_re, "fft2.re")
    im_var = tape._record(im_val, (x,), vjp_im, "fft2.im")
    return re_var, im_var


def ifft2_real_v(re, im, force_naive: bool = False) -> Var:
    """Differentiable inverse DFT keeping the real part only."""
    re, im = as_var(re), as_var(im)
    require(re.value.shape == im.value.shape,
            f"spectrum parts must share a shape, got {re.value.shape} "
            f"vs {im.value.shape}")
    require_finite(re.value, "ifft2 input (re)")
    require_finite(im.value, "ifft2 input (im)")
    spec = re.value + 1j * im.value
    value = np.ascontiguousarray(
        dft2_raw(spec, inverse=True, force_naive=force_naive).real)
    tape = ad._tape_of(re, im)
    if tape is None:
        return Var(value)

    def vjp(g):
        z = dft2_raw(g.astype(_COMPLEX_FOR[np.dtype(g.dtype)]),
                     inverse=True, force_naive=force_naive)
        return (np.ascontiguousarray(z.real),
                np.ascontiguousarray(-z.imag))

    return tape._record(value, (re, im), vjp, "ifft2_real")


def modulate_v(sre, sim, wre, wim) -> tuple:
    """Differentiable complex product of an (N, C, H, W) spectrum with
    (C, H, W) weights, shared across the batch."""
    sre, sim, wre, wim = (as_var(v) for v in (sre, sim, wre, wim))
    planes = sre.value.shape[1:]
    require(wre.value.shape == planes and wim.value.shape == planes,
            f"weights {wre.value.shape}/{wim.value.shape} do not match "
            f"spectrum planes {planes}")
    re = ad.sub(ad.mul(sre, wre), ad.mul(sim, wim))
    cross = ad.sub if FAULT_MODULATE_SIGN else ad.add
    im = cross(ad.mul(sre, wim), ad.mul(sim, wre))
    return re, im
