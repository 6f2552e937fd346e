"""The paper's FDDEM claim, learned on the tape.

FDDEM "separates and enhances weak high-frequency boundary components via
learnable complex weights" (PAPER.md).  This task gives the claim a known
answer.  The targets are C-channel maps of three sharp discs of random
colour. The inputs are the same maps through a Gaussian low-pass, so their
boundaries are weak, and restoring the targets means amplifying the high
frequencies that the low-pass damped.

From `FddemParams.init`, the identity, a dozen lines of Adam train the
block on Σ(y - t)² over a fresh batch each step.  The ablation trains every
parameter but the branch weights `branches.k.re/im`, which stay at their
initial 1+0j.  The gates come from a sweep of seeds 0-7, 150 steps each
(CHANGES.md), with margin:
  * learned validation loss / the input's: 0.365-0.402 (gate 0.5);
  * learned / ablation validation loss: 0.416-0.457 (gate 0.6; the
    ablation alone reaches 0.871-0.893 of the input's);
  * high-frequency energy at radius > 0.25 cycles/px, output against
    target: learned 0.170-0.218, ablation 0.0034-0.0054, at least 36x
    apart on every seed (gate 10x).
"""

import numpy as np
import pytest

from sepkit import FddemParams, Tape, fddem_forward
from sepkit import autodiff as ad
from sepkit.params import named_arrays, replace_vars

C, S, BATCH, STEPS, LR = 4, 16, 8, 150, 3e-2
SIGMA = 0.12      # low-pass width, cycles/px
HF_RADIUS = 0.25  # cycles/px
SEED = 1

RADIUS = np.hypot(*np.meshgrid(np.fft.fftfreq(S), np.fft.fftfreq(S),
                               indexing="ij"))


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
    values = named_arrays(params)
    learned = [k for k in values if not (frozen and k.startswith("branches"))]
    m = {k: np.zeros_like(values[k]) for k in learned}
    v = {k: np.zeros_like(values[k]) for k in learned}
    for step in range(1, STEPS + 1):
        x, t = task(rng, BATCH)
        tape = Tape()
        live = replace_vars(params, {k: tape.leaf(a, k) if k in m else a
                                     for k, a in values.items()})
        d = ad.add(fddem_forward(x, live), -t)
        grads = tape.backward(ad.sum_all(ad.mul(d, d)))
        for k in learned:
            m[k] = 0.9 * m[k] + 0.1 * grads[k]
            v[k] = 0.999 * v[k] + 0.001 * grads[k] ** 2
            m_hat, v_hat = m[k] / (1 - 0.9 ** step), v[k] / (1 - 0.999 ** step)
            values[k] = values[k] - LR * m_hat / (np.sqrt(v_hat) + 1e-8)
    x, t = validation
    return fddem_forward(x, replace_vars(params, values)).value, t, x


@pytest.fixture(scope="module")
def runs():
    return {frozen: train(SEED, frozen) for frozen in (False, True)}


def loss(y, t):
    return float(((y - t) ** 2).sum())


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
