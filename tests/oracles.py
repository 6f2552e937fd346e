"""Independent brute-force references used to freeze expected values.

Everything here is written the slow, obvious way (explicit loops, literal
formulas) so it shares no code path with the library implementations it
checks.  Four exceptions: `frequency_branch_naive`, built on the
library's per-bin reference DFT, which the spectral tests hold to the
literal `dft2_literal` oracle and which shares nothing with the
half-spectrum path it checks (its full-plane weights come from
`hermitian_extension`); `frequency_branch`, the library's spectral
ops composed into every branch's real output; and
`frequency_branch_per_branch` and `ldconv_per_point`, built on the
library's own kernels, which check only how the frequency branch and
LDConv batch their work, so they can be held to equal bytes.  One
fixture rides along: `ldconv_from_conv_kernel`, LDConv parameters laid
out from a square conv kernel, which the conv oracles above check.
"""

import numpy as np

from sepkit import autodiff as ad
from sepkit import spectral
from sepkit import tensor as tc
from sepkit.ca2neck import LdconvParams, ldconv_coords
from sepkit.spectral import _naive_dft2_planes


def conv2d_naive(x, w, b=None, stride=1, padding=0):
    """Quadruple-loop zero-padded cross-correlation."""
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    assert ci == c
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((n, co, ho, wo), dtype=x.dtype)
    for bi in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ch in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (w[o, ch, ki, kj]
                                        * xp[bi, ch, i * stride + ki,
                                             j * stride + kj])
                    if b is not None:
                        acc += b[o]
                    out[bi, o, i, j] = acc
    return out


# Convolutions at batch 2, as (input shape, channel slice taken as a view,
# weight shape, stride, padding).  The blocks' own: a 1x1 conv on a
# non-contiguous channel slice, LDConv's 3x3 stride-2 offset conv on an odd
# plane, and the 7x7 2->1 conv of FDDEM's spatial attention (which the block
# runs as a depthwise conv plus a 1x1 ones-conv).  And shapes the blocks
# never use, where the input gradient's zero-embedded plane is cut or left
# with rows no window reads: a non-square kernel at stride 2, padding
# beyond the kernel (1x1 at padding 1, 3x3 at padding 3), and stride 3
# with a remainder row and column.
CONV_BLOCK_CASES = {
    "1x1_channel_view": ((2, 6, 5, 4), slice(1, 4), (4, 3, 1, 1), 1, 0),
    "3x3_s2_p1_9x7": ((2, 3, 9, 7), slice(None), (4, 3, 3, 3), 2, 1),
    "7x7_p3_2to1": ((2, 2, 8, 8), slice(None), (1, 2, 7, 7), 1, 3),
    "3x5_s2_p1_9x7": ((2, 3, 9, 7), slice(None), (4, 3, 3, 5), 2, 1),
    "1x1_p1": ((2, 3, 5, 4), slice(None), (2, 3, 1, 1), 1, 1),
    "3x3_p3": ((2, 2, 5, 6), slice(None), (3, 2, 3, 3), 1, 3),
    "3x3_s3_10x11": ((2, 3, 10, 11), slice(None), (2, 3, 3, 3), 3, 0),
}


# Depthwise gradient cases at batch 2 as (input shape, kernel size): planes
# of even and odd sides that are not powers of two, at each msgrb kernel size.
DEPTHWISE_GRAD_CASES = [((2, 3, h, w), k) for h, w in ((6, 10), (9, 7))
                        for k in (3, 5, 7)]


def depthwise_naive(x, w):
    """Per-channel loop convolution, stride 1, padding k//2."""
    n, c, h, wd = x.shape
    k = w.shape[2]
    p = k // 2
    xp = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + wd] = x
    out = np.zeros_like(x)
    for bi in range(n):
        for ch in range(c):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            acc += w[ch, 0, ki, kj] * xp[bi, ch, i + ki, j + kj]
                    out[bi, ch, i, j] = acc
    return out


def dft2_literal(plane):
    """Literal unnormalized forward DFT: per-(u, v) phase sum."""
    h, w = plane.shape
    xs, ys = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out = np.empty((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (u * xs / h + v * ys / w))
            out[u, v] = (plane * phase).sum()
    return out


def idft2_literal(spec):
    """Literal inverse DFT with the 1/(H*W) factor."""
    h, w = spec.shape
    us, vs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out = np.empty((h, w), dtype=np.complex128)
    for x in range(h):
        for y in range(w):
            phase = np.exp(2j * np.pi * (us * x / h + vs * y / w))
            out[x, y] = (spec * phase).sum() / (h * w)
    return out


# Planes for the frequency-branch oracle: powers of two, an odd width (no
# Nyquist column), and the non-power-of-two sides of detector necks.
FREQUENCY_ORACLE_PLANES = [(8, 8), (9, 7), (12, 20), (20, 20), (40, 40)]


def hermitian_extension(re, im, width):
    """The full (..., H, width) complex weight plane of half-spectrum parts
    (..., H, width // 2 + 1): the half as given, and each pair column k
    (neither the zero nor the Nyquist column) mirrored to -k as the
    conjugate of its bins, W[-u, -k] = conj(W[u, k])."""
    half = re + 1j * im
    h, wh = half.shape[-2:]
    full = np.zeros(half.shape[:-1] + (width,), dtype=np.complex128)
    full[..., :wh] = half
    for k in range(1, (width + 1) // 2):
        for u in range(h):
            full[..., (-u) % h, width - k] = np.conj(half[..., u, k])
    return full


def frequency_branch_naive(x, branches):
    """Each branch's Re(ifft2(fft2(x) * W)) over the full complex spectrum,
    W the Hermitian extension of its weights, every bin its defining sum
    (the library's per-bin reference DFT)."""
    h, w = x.shape[-2:]
    spec = _naive_dft2_planes(x.astype(np.complex128), -1)
    return [_naive_dft2_planes(
                spec * hermitian_extension(wb.re, wb.im, w), +1).real
            / (h * w) for wb in branches]


def frequency_branch(x, branches):
    """Every branch's Re(ifft2(fft2(x) * W)), stacked branch-major on the
    channel axis as one (N, B*C, H, W) Var: one half-spectrum transform of
    x, one complex product per branch with its half-spectrum weights, and
    one inverse transform of all B*C product planes."""
    xv = ad.as_var(x)
    spectrum = spectral.rfft2_v(xv)
    products = [spectral.modulate_v(spectrum, wb.re, wb.im)
                for wb in branches]
    return spectral.irfft2_v(ad.concat(products, axis=1), xv.value.shape[-1])


def frequency_branch_per_branch(x, branches):
    """The frequency branch one branch at a time: for each, rfft2 of x, the
    complex product with its parts and its own irfft2; the real outputs
    concatenated branch-major on the channel axis."""
    width = x.shape[-1]
    outs = []
    for wb in branches:
        spectrum = spectral.rfft2_v(x)
        outs.append(spectral.irfft2_v(
            spectral.modulate_v(spectrum, wb.re, wb.im), width).value)
    return np.concatenate(outs, axis=1)


def bilinear_point(plane, r, c):
    """Hand bilinear formula with border clamping, one scalar coordinate."""
    h, w = plane.shape
    r = min(max(r, 0.0), h - 1.0)
    c = min(max(c, 0.0), w - 1.0)
    r0, c0 = int(np.floor(r)), int(np.floor(c))
    r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
    fr, fc = r - r0, c - c0
    return ((1 - fr) * (1 - fc) * plane[r0, c0]
            + (1 - fr) * fc * plane[r0, c1]
            + fr * (1 - fc) * plane[r1, c0]
            + fr * fc * plane[r1, c1])


def bilinear_resize(x, scale):
    """Plain bilinear upsampling on the half-pixel-aligned grid."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, scale * h, scale * w), dtype=x.dtype)
    for bi in range(n):
        for ch in range(c):
            for i in range(scale * h):
                for j in range(scale * w):
                    r = (i + 0.5) / scale - 0.5
                    s = (j + 0.5) / scale - 0.5
                    out[bi, ch, i, j] = bilinear_point(x[bi, ch], r, s)
    return out


def clamped_conv3x3(x, w):
    """3x3 stride-1 convolution sampling with border-clamped indexing."""
    n, c, h, wd = x.shape
    co = w.shape[0]
    out = np.zeros((n, co, h, wd), dtype=x.dtype)
    for bi in range(n):
        for o in range(co):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ch in range(c):
                        for ki in range(3):
                            for kj in range(3):
                                ri = min(max(i + ki - 1, 0), h - 1)
                                cj = min(max(j + kj - 1, 0), wd - 1)
                                acc += w[o, ch, ki, kj] * x[bi, ch, ri, cj]
                    out[bi, o, i, j] = acc
    return out


def bilinear_input_grad_naive(g, x_shape, coords):
    """Input gradient of border-clamped grouped bilinear sampling, scattered
    one sample point and one corner at a time."""
    n, c, h, w = x_shape
    groups, ho, wo = coords.shape[1:4]
    cg = c // groups
    gx = np.zeros(x_shape, dtype=g.dtype)
    for bi in range(n):
        for gi in range(groups):
            for i in range(ho):
                for j in range(wo):
                    r = min(max(coords[bi, gi, i, j, 0], 0.0), h - 1.0)
                    s = min(max(coords[bi, gi, i, j, 1], 0.0), w - 1.0)
                    r0, s0 = int(np.floor(r)), int(np.floor(s))
                    r1, s1 = min(r0 + 1, h - 1), min(s0 + 1, w - 1)
                    fr, fs = r - r0, s - s0
                    for ri, si, wt in ((r0, s0, (1 - fr) * (1 - fs)),
                                       (r0, s1, (1 - fr) * fs),
                                       (r1, s0, fr * (1 - fs)),
                                       (r1, s1, fr * fs)):
                        for ch in range(gi * cg, (gi + 1) * cg):
                            gx[bi, ch, ri, si] += wt * g[bi, ch, i, j]
    return gx


def bilinear_grid_grad_naive(g, x, coords):
    """Coordinate gradient of border-clamped grouped bilinear sampling, one
    sample point and one channel at a time; zero where a coordinate was
    clamped."""
    n, c, h, w = x.shape
    groups, ho, wo = coords.shape[1:4]
    cg = c // groups
    out = np.zeros(coords.shape, dtype=g.dtype)
    for bi in range(n):
        for gi in range(groups):
            for i in range(ho):
                for j in range(wo):
                    rr, ss = coords[bi, gi, i, j]
                    r = min(max(rr, 0.0), h - 1.0)
                    s = min(max(ss, 0.0), w - 1.0)
                    r0, s0 = int(np.floor(r)), int(np.floor(s))
                    r1, s1 = min(r0 + 1, h - 1), min(s0 + 1, w - 1)
                    fr, fs = r - r0, s - s0
                    dr = ds = 0.0
                    for ch in range(gi * cg, (gi + 1) * cg):
                        p = x[bi, ch]
                        gv = g[bi, ch, i, j]
                        dr += gv * ((1 - fs) * (p[r1, s0] - p[r0, s0])
                                    + fs * (p[r1, s1] - p[r0, s1]))
                        ds += gv * ((1 - fr) * (p[r0, s1] - p[r0, s0])
                                    + fr * (p[r1, s1] - p[r1, s0]))
                    out[bi, gi, i, j, 0] = dr if 0.0 <= rr <= h - 1.0 else 0.0
                    out[bi, gi, i, j, 1] = ds if 0.0 <= ss <= w - 1.0 else 0.0
    return out


def ldconv_per_point(x, p):
    """LDConv forward one sampling point at a time: point k's grid is its
    (row, col) offset pair plus its anchor and layout cell, sampled on its
    own; the samples are concatenated point-major before the mixing conv."""
    offsets = tc.conv2d_raw(x, p.offset_w, p.offset_b, p.stride, 1)[0]
    ho, wo = offsets.shape[2:]
    base = ldconv_coords(p.n_points)
    anchor_r = (np.arange(ho, dtype=x.dtype) * p.stride).reshape(1, 1, ho, 1)
    anchor_c = (np.arange(wo, dtype=x.dtype) * p.stride).reshape(1, 1, 1, wo)
    sampled = []
    for k in range(p.n_points):
        rows = offsets[:, 2 * k:2 * k + 1] + (anchor_r + base[k, 0])
        cols = offsets[:, 2 * k + 1:2 * k + 2] + (anchor_c + base[k, 1])
        grid = np.stack([rows, cols], axis=-1)  # (N, 1, ho, wo, 2)
        sampled.append(tc.bilinear_sample_raw(x, grid)[0])
    return tc.conv2d_raw(np.concatenate(sampled, axis=1), p.mix_w, None, 1,
                         0)[0]


def ldconv_from_conv_kernel(kernel, stride=1):
    """LDConv parameters with the mixing weights of a square (C_out, C_in,
    k, k) kernel: point i*k+j, which ldconv_coords(k*k) places at tap
    (i, j), carries that tap.  The offsets keep their zero init, so the
    block samples a fixed k x k grid."""
    co, ci, k, _ = kernel.shape
    assert kernel.shape[3] == k, f"kernel must be square, got {kernel.shape}"
    p = LdconvParams.init(ci, co, n_points=k * k, stride=stride)
    # (co, ci, k, k) -> (co, k, k, ci) -> (co, k*k*ci)
    p.mix_w = np.ascontiguousarray(kernel.transpose(0, 2, 3, 1)).reshape(
        co, k * k * ci, 1, 1)
    return p


def dysample_grid_naive(offsets, h, w, p):
    """DySample grid written out coordinate by coordinate from the channel
    rule ((group*2 + axis)*s + si)*s + sj: pair (si, sj) of source pixel
    (i, j) lands at output (i*s + si, j*s + sj), on top of the base grid
    ((o + 0.5)/s - 0.5)."""
    n = offsets.shape[0]
    s, g = p.scale, p.groups
    grid = np.zeros((n, g, s * h, s * w, 2), dtype=offsets.dtype)
    for bi in range(n):
        for gi in range(g):
            for axis in range(2):
                for si in range(s):
                    for sj in range(s):
                        ch = ((gi * 2 + axis) * s + si) * s + sj
                        for i in range(h):
                            for j in range(w):
                                out = (i * s + si, j * s + sj)
                                base = (out[axis] + 0.5) / s - 0.5
                                grid[bi, gi, out[0], out[1], axis] = (
                                    offsets[bi, ch, i, j] * p.scope + base)
    return grid
