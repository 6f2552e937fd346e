"""2D discrete Fourier transforms of real feature maps and learnable
complex-weight modulation.

The forward transform is the unnormalized DFT

    F[u, v] = sum_{x, y} X[x, y] * exp(-2j*pi*(u*x/H + v*y/W))

applied independently per (batch, channel) plane; the inverse carries the
1/(H*W) factor.  A real plane's spectrum is Hermitian, F[-k] = conj(F[k]),
so the differentiable ops keep only its half spectrum: the W//2 + 1
non-negative column frequencies of every row.  The inverse maps a half
spectrum back to a real plane of a stated width, as the real part of the
full inverse of its Hermitian extension.  Every plane size goes through
numpy's pocketfft.  A per-bin naive evaluation, deliberately O((H*W)^2)
per plane, is kept behind `dft2_raw`'s `force_naive`, and only there, as
the always-correct reference and the benchmark baseline.

Modulation multiplies a half spectrum elementwise by learnable complex
weights, stored as the half spectrum they act on: one (C, H, W // 2 + 1)
real and imaginary part per enhancement branch, plus the plane width they
were made for.  Real parts scale amplitudes, imaginary parts rotate phases.
`ComplexWeights.init` without a stream gives 1+0j, so an untrained branch
is an identity map.  A branch is `irfft2_v(modulate_v(rfft2_v(x), re, im),
W)`; like a real plane's spectrum, the weights' zero and Nyquist columns
reach the output through their Hermitian parts only.  The inverse is
planewise and linear, so a real 1x1 channel mix commutes with it: `mix_v`
compresses the products of several branches, stacked on the channel axis,
on the half spectrum, and one `irfft2_v` inverts only the mixed planes.
These four ops are the one execution path, with or without a tape, and
carry complex values in `Var`s under the gradient convention stated in
`autodiff`.  `dft2_raw` is the plain-array transform underneath them.  Off
the tape, `modulate_v` and `mix_v` also take stacked weights (K weights on
one more leading axis, as `autodiff` describes): weight k pairs with
sample k, or all K share a one-sample spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tensor as tc
from .autodiff import Var, as_var
from .rng import Stream, draws
from .tensor import require, require_counts, require_finite, stack_count

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


def _pairs(width: int) -> slice:
    """Half-spectrum columns that stand for a conjugate pair of bins (all
    but the zero and, at even width, the Nyquist column)."""
    return slice(1, (width + 1) // 2)


def dft2_raw(a: np.ndarray, inverse: bool = False,
             force_naive: bool = False, width: int | None = None):
    """2D DFT over the last two axes of `a`, any plane size.

    Forward is unnormalized with the e^{-j...} convention; inverse applies
    1/(H*W).  Without `width` the transform is complex to complex.  With
    it, the transform pairs a real (..., H, width) plane with its
    (..., H, width // 2 + 1) half spectrum: forward takes the plane,
    inverse the half spectrum.  Results keep `a`'s precision (complex64 or
    float32 for 32-bit input).  `force_naive` selects the per-bin
    reference path.
    """
    h, w = a.shape[-2], width or a.shape[-1]
    if force_naive:
        z = np.zeros(a.shape[:-1] + (w,), np.result_type(a, np.complex64))
        z[..., :a.shape[-1]] = a
        if inverse and width:
            # the real part of the inverse of a one-sided spectrum whose
            # pair columns count twice is the inverse of the half spectrum
            z[..., _pairs(w)] *= 2
        out = _naive_dft2_planes(z, +1 if inverse else -1)
        out = out / (h * w) if inverse else out
        if width:
            out = out.real if inverse else out[..., :w // 2 + 1]
    elif inverse:
        out = (np.fft.irfft(np.fft.ifft(a, axis=-2), w) if width
               else np.fft.ifft2(a))
    else:
        # numpy's default forward scale is the int 1, which sends 32-bit
        # input down the double-precision loop; the scale 1/n carries the
        # input's precision, and h*w undoes it, exactly on power-of-two
        # planes.  64-bit input keeps the unscaled transform's bytes.
        single = a.real.dtype == np.float32
        norm = "forward" if single else "backward"
        out = (np.fft.fft(np.fft.rfft(a, norm=norm), axis=-2, norm=norm)
               if width else np.fft.fft2(a, norm=norm))  # rfft2 without n-d
        if single:
            out *= h * w
    # numpy < 2 returns double precision whatever the input precision
    kind = np.complex64 if np.iscomplexobj(out) else np.float32
    return out.astype(np.result_type(kind, a.real.dtype), copy=False)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _read_only_copy(a) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ComplexWeights:
    """Learnable complex weights re + j*im for one enhancement branch, held
    as the (C, H, width // 2 + 1) half spectrum of a (C, H, width) plane.
    Immutable; built from arrays, it owns read-only copies of both parts.
    """

    re: np.ndarray
    im: np.ndarray
    width: int

    def __post_init__(self):
        if isinstance(self.re, Var) or isinstance(self.im, Var):
            return  # lifted onto a tape; shapes were validated at build time
        re, im = _read_only_copy(self.re), _read_only_copy(self.im)
        wh = self.width // 2 + 1
        require(re.ndim == 3 and re.shape[-1] == wh and re.shape == im.shape,
                f"complex weights of width {self.width} must be two (C, H, "
                f"{wh}) parts, got {re.shape} and {im.shape}")
        require_finite(re, "complex weights (re)")
        require_finite(im, "complex weights (im)")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def init(channels: int, height: int, width: int, rng: Stream = None,
             dtype=np.float64) -> "ComplexWeights":
        """The declared init without a stream, 1+0j everywhere (identity
        modulation); with one, generic nonzero weights centered on it.

        The stream gives full (C, H, width) parts, and their Hermitian
        half (W[k] + conj(W[-k])) / 2 is kept: the part of them that a
        real output would see."""
        require_counts(channels=channels, height=height, width=width)
        g, shape = draws(rng), (channels, height, width)
        re = (1.0 + g(0.5, *shape)).astype(dtype)
        im = g(0.5, *shape).astype(dtype)
        wh = width // 2 + 1  # W[-k] of each half bin k = (u, v): (-u, -v)
        mirror = (slice(None), (-np.arange(height) % height)[:, None],
                  -np.arange(wh) % width)
        return ComplexWeights(0.5 * (re[..., :wh] + re[mirror]),
                              0.5 * (im[..., :wh] - im[mirror]), width)


# ---------------------------------------------------------------------------
# differentiable ops (Var level)
# ---------------------------------------------------------------------------

def rfft2_v(x) -> Var:
    """Differentiable half-spectrum DFT of a real (N, C, H, W) value.

    The input gradient of a half-spectrum cotangent g is
    Re(sum over the half bins of g[k] e^{+j...}): H*W times the inverse of
    g with its conjugate-pair columns halved.
    """
    x = as_var(x)
    require_finite(x.value, "fft2 input")
    h, w = x.value.shape[-2:]

    def vjp(g):
        g = g.copy()
        g[..., _pairs(w)] *= 0.5
        return (dft2_raw(g, inverse=True, width=w) * (h * w),)
    return ad._apply(dft2_raw(x.value, width=w), (x,), vjp, "rfft2")


def irfft2_v(spectrum, width: int) -> Var:
    """Differentiable inverse of an (N, C, H, width // 2 + 1) half spectrum
    to the real (N, C, H, width) plane.

    The spectrum gradient of a real cotangent g is the half-spectrum DFT
    of g over H*W, doubled on the conjugate-pair columns.
    """
    s = as_var(spectrum)
    require(s.value.shape[-1] == width // 2 + 1,
            f"a half spectrum of width {width} has {width // 2 + 1} "
            f"columns, got {s.value.shape[-1]}")
    require_finite(s.value, "ifft2 input")
    h = s.value.shape[-2]

    def vjp(g):
        z = dft2_raw(g, width=width) / (h * width)
        z[..., _pairs(width)] *= 2
        return (z,)
    return ad._apply(dft2_raw(s.value, inverse=True, width=width), (s,), vjp,
                     "irfft2")


def modulate_v(spectrum, re, im) -> Var:
    """Differentiable complex product of an (N, C, H, Wh) spectrum with the
    (C, H, Wh) weights re + j*im, shared across the batch.  Either part may
    be stacked (K, C, H, Wh); stacked weights meet the spectrum as
    `tensor.stack_count` states: weight k takes sample k, or all K take a
    spectrum of one sample."""
    s, re, im = as_var(spectrum), as_var(re), as_var(im)
    sv, rv, iv = s.value, re.value, im.value
    stack = stack_count("modulate", (rv, 3), (iv, 3), batch=len(sv))
    require(all(a.ndim in (3, 4) and a.shape[-3:] == sv.shape[1:]
                for a in (rv, iv)),
            f"weights {rv.shape} and {iv.shape} do not match spectrum "
            f"planes {sv.shape[1:]}")
    wv = np.empty(np.broadcast_shapes(rv.shape, iv.shape),
                  np.result_type(rv, iv, np.complex64))
    wv.real, wv.imag = rv, iv
    fault = FAULT_MODULATE_SIGN
    value = sv * wv
    if fault:
        value.imag -= 2 * (sv.imag * wv.real)

    def vjp(g):
        gs, gw = g * wv.conj(), (g * sv.conj()).sum(axis=0)
        if fault:
            gs.imag -= 2 * (g.imag * wv.real)
            gw.real -= 2 * (g.imag * sv.imag).sum(axis=0)
        return gs, gw.real, gw.imag
    return ad._apply(value, (s, re, im), vjp, "modulate", bool(stack))


def _real_view(z: np.ndarray) -> np.ndarray:
    """(..., Wh) complex as (..., 2·Wh) real, each bin's parts adjacent."""
    return np.ascontiguousarray(z).view(z.real.dtype)


def _complex_view(a: np.ndarray) -> np.ndarray:
    """The inverse of `_real_view` on a C-contiguous real array."""
    return a.view(np.result_type(a, np.complex64))


def mix_v(spectrum, weight) -> Var:
    """Differentiable channel mix of an (N, Ci, H, Wh) half spectrum by a
    real (C, Ci, 1, 1) weight, or a stacked (K, C, Ci, 1, 1) one, giving
    (N or K, C, H, Wh).

    It is the 1x1 `conv2d_raw` on the spectrum's real view (N, Ci, H,
    2·Wh), whose real and imaginary parts are two more columns, and its
    vjps are `conv2d_grads` on the same view: w^T·g for the spectrum and
    Re(g·conj(S)) summed over batch and bins for the weight.  A planewise
    inverse commutes with it, so mixing before `irfft2_v` inverts C
    planes in place of Ci.
    """
    s, wt = as_var(spectrum), as_var(weight)
    sv, wv = s.value, wt.value
    require(np.iscomplexobj(sv),
            f"mix takes a complex half spectrum, got {sv.dtype}")
    require(wv.ndim in (4, 5) and wv.shape[-2:] == (1, 1),
            f"mix weight must be (C, Ci, 1, 1) (or (K, C, Ci, 1, 1) "
            f"stacked), got {wv.shape}")
    stack = stack_count("mix", (wv, 4), batch=len(sv))
    xr = _real_view(sv)
    yr, cols = tc.conv2d_raw(xr, wv, None, 1, 0)

    def vjp(g):
        gx, gw, _ = tc.conv2d_grads(_real_view(g), xr, wv, cols, 1, 0, False)
        return _complex_view(gx), gw
    return ad._apply(_complex_view(yr), (s, wt), vjp, "mix", bool(stack))
