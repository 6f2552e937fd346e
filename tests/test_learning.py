"""The paper's two mechanisms, learned on the tape.

FDDEM "separates and enhances weak high-frequency boundary components via
learnable complex weights", and the neck's samplers ensure "precise feature
alignment" (PAPER.md).  Each task below gives one claim a known answer, and
a dozen lines of Adam train the block from its initial parameters on
Σ(y - t)² over a fresh batch each step.

FDDEM.  The targets are C-channel maps of three sharp discs of random
colour. The inputs are the same maps through a Gaussian low-pass, so their
boundaries are weak, and restoring the targets means amplifying the high
frequencies that the low-pass damped.  Training starts from
`FddemParams.init`, the identity.  The ablation trains every parameter but
the branch weights `branches.k.re/im`, which stay at their initial 1+0j.
The gates come from a sweep of seeds 0-7, 150 steps each (CHANGES.md), with
margin:
  * learned validation loss / the input's: 0.365-0.402 (gate 0.5);
  * learned / ablation validation loss: 0.416-0.457 (gate 0.6; the
    ablation alone reaches 0.871-0.893 of the input's);
  * high-frequency energy at radius > 0.25 cycles/px, output against
    target: learned 0.170-0.218, ablation 0.0034-0.0054, at least 36x
    apart on every seed (gate 10x).

DySample.  The inputs are C-channel 10² maps of standard normal values.
The targets resample each input at DySample's base grid for 2x upsampling,
shifted by 0.2·tanh (rows) and -0.15·tanh (columns) of the input's channel
0 at each output point's source pixel, so every shift stays inside the
0.25-pixel scope.  Training starts from the zero offset head, which is plain
bilinear upsampling, and runs 200 steps at lr 1e-2.  The 1x1 head is
linear in the input, so it can only approximate tanh: for standard normal
z the best linear fit leaves E[(tanh z - 0.61·z)²] / E[tanh² z] ≈ 0.069
of the shift's energy.  The gates come from a sweep of seeds 0-7
(CHANGES.md), with margin:
  * learned validation loss / the zero head's: 0.058-0.074 (gate 0.15);
  * squared error of the learned shift against the target's, over the
    target's: 0.065-0.079 (gate 0.15).
"""

import numpy as np
import pytest

from sepkit import (DysampleParams, FddemParams, Tape, dysample_forward,
                    fddem_forward)
from sepkit import autodiff as ad
from sepkit.ca2neck import dysample_base_grid, dysample_grid
from sepkit.params import named_arrays, replace_vars

C, S, BATCH, STEPS, LR = 4, 16, 8, 150, 3e-2
SIGMA = 0.12      # low-pass width, cycles/px
HF_RADIUS = 0.25  # cycles/px
SEED = 1

DYS_SIDE, DYS_STEPS, DYS_LR = 10, 200, 1e-2
SHIFT = (0.2, -0.15)  # pixels per unit of tanh(channel 0): rows, columns
DYS_SEED = 0

RADIUS = np.hypot(*np.meshgrid(np.fft.fftfreq(S), np.fft.fftfreq(S),
                               indexing="ij"))


def fit(forward, params, learned, draw, steps, lr):
    """`params` after Adam on the fields named in `learned`, on
    Σ(forward(x, params) - t)² over a fresh batch (x, t) = draw() a step."""
    values = named_arrays(params)
    m = {k: np.zeros_like(values[k]) for k in learned}
    v = {k: np.zeros_like(values[k]) for k in learned}
    for step in range(1, steps + 1):
        x, t = draw()
        tape = Tape()
        live = replace_vars(params, {k: tape.leaf(a, k) if k in m else a
                                     for k, a in values.items()})
        d = ad.add(forward(x, live), -t)
        grads = tape.backward(ad.sum_all(ad.mul(d, d)))
        for k in learned:
            m[k] = 0.9 * m[k] + 0.1 * grads[k]
            v[k] = 0.999 * v[k] + 0.001 * grads[k] ** 2
            m_hat, v_hat = m[k] / (1 - 0.9 ** step), v[k] / (1 - 0.999 ** step)
            values[k] = values[k] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return replace_vars(params, values)


def loss(y, t):
    return float(((y - t) ** 2).sum())


# ---------------------------------------------------------------------------
# FDDEM: restore damped high frequencies
# ---------------------------------------------------------------------------

def task(rng, n):
    """(inputs, targets): n maps of three discs, and them low-passed."""
    yy, xx = np.mgrid[:S, :S] + 0.5
    t = np.zeros((n, C, S, S))
    for sample in t:
        for _ in range(3):
            cy, cx = rng.uniform(2, S - 2, 2)
            inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= rng.uniform(2, 5) ** 2
            sample[:, inside] = rng.uniform(-1, 1, (C, 1))
    gain = np.exp(-RADIUS ** 2 / (2 * SIGMA ** 2))
    return np.fft.ifft2(np.fft.fft2(t) * gain).real, t


def high_frequency_energy(a):
    return (np.abs(np.fft.fft2(a)) ** 2)[..., RADIUS > HF_RADIUS].sum()


def train(seed, frozen):
    """Validation (output, target, input) after Adam from the identity."""
    rng = np.random.default_rng(seed)
    validation = task(rng, BATCH)
    params = FddemParams.init(C, S, S, branches=2, reduction=2)
    learned = [k for k in named_arrays(params)
               if not (frozen and k.startswith("branches"))]
    trained = fit(fddem_forward, params, learned, lambda: task(rng, BATCH),
                  STEPS, LR)
    x, t = validation
    return fddem_forward(x, trained).value, t, x


@pytest.fixture(scope="module")
def runs():
    return {frozen: train(SEED, frozen) for frozen in (False, True)}


def test_learned_loss_is_a_fraction_of_the_input_loss(runs):
    y, t, x = runs[False]
    assert loss(y, t) < 0.5 * loss(x, t)


def test_learned_branch_weights_beat_the_frozen_ablation(runs):
    (y, t, _), (y_frozen, _, _) = runs[False], runs[True]
    assert loss(y, t) < 0.6 * loss(y_frozen, t)


def test_learned_branch_weights_restore_high_frequencies(runs):
    (y, t, _), (y_frozen, _, _) = runs[False], runs[True]
    target = high_frequency_energy(t)
    learned = high_frequency_energy(y) / target
    frozen = high_frequency_energy(y_frozen) / target
    assert learned > 10 * frozen


# ---------------------------------------------------------------------------
# DySample: align to a content-dependent shift
# ---------------------------------------------------------------------------

def target_shift(x):
    """The (N, 1, 2H, 2W, 2) shift that the targets sample at."""
    s = np.tanh(x[:, 0]).repeat(2, axis=1).repeat(2, axis=2)
    return np.stack([SHIFT[0] * s, SHIFT[1] * s], axis=-1)[:, None]


def dysample_task(rng, n):
    """(inputs, targets): n normal maps, and them sampled at the shift."""
    x = rng.standard_normal((n, C, DYS_SIDE, DYS_SIDE))
    grid = dysample_base_grid(DYS_SIDE, DYS_SIDE, 2, 1) + target_shift(x)
    return x, ad.bilinear_sample(x, grid).value


@pytest.fixture(scope="module")
def dysample_run():
    """(zero head, trained head, validation inputs, targets)."""
    rng = np.random.default_rng(DYS_SEED)
    x, t = dysample_task(rng, BATCH)
    zero = DysampleParams.init(C)
    trained = fit(dysample_forward, zero, list(named_arrays(zero)),
                  lambda: dysample_task(rng, BATCH), DYS_STEPS, DYS_LR)
    return zero, trained, x, t


def test_learned_offsets_cut_the_bilinear_loss(dysample_run):
    zero, trained, x, t = dysample_run
    assert (loss(dysample_forward(x, trained).value, t)
            < 0.15 * loss(dysample_forward(x, zero).value, t))


def test_learned_offsets_recover_the_target_shift(dysample_run):
    zero, trained, x, _ = dysample_run
    learned = dysample_grid(x, trained).value - dysample_grid(x, zero).value
    target = target_shift(x)
    assert loss(learned, target) < 0.15 * loss(target, 0.0)
