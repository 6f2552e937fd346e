import dataclasses

import numpy as np
import pytest

from sepkit import (ComplexWeights, DimensionError, FddemParams,
                    NumericError, Tape)
from sepkit import autodiff as ad
from sepkit import spectral
from sepkit.io import read_params, write_params
from sepkit.params import ParamStore, lift, named_arrays, replace_vars
from sepkit.rng import Stream

from oracles import dft2_literal, frequency_branch, idft2_literal


def rand_plane(seed, h, w, channels=1, batch=1):
    return Stream(seed).normal((batch, channels, h, w))


def fft2(x, force_naive=False):
    """Half spectrum of x as a complex array."""
    return spectral.dft2_raw(x, force_naive=force_naive, width=x.shape[-1])


def ifft2(spec, width):
    return spectral.irfft2_v(spec, width).value


def fold(w):
    return spectral.hermitian_fold_v(w.re, w.im).value


def modulate(spec, weights):
    return spectral.modulate_v(spec, weights).value


def half(z):
    """The half-spectrum columns of a full spectrum."""
    return z[..., :z.shape[-1] // 2 + 1]


def residue(spec):
    """Largest |imaginary| left by the full inverse of a full spectrum."""
    return float(np.abs(spectral.dft2_raw(spec, inverse=True).imag).max())


def enhance(x, weights):
    """Each branch's output, split from the stacked frequency branch."""
    return np.split(frequency_branch(x, weights).value, len(weights), axis=1)


class TestForwardDft:
    def test_zeros_give_zero_spectrum(self):
        z = fft2(np.zeros((1, 1, 4, 4)))
        assert z.shape == (1, 1, 4, 3) and (z == 0).all()

    def test_delta_gives_flat_unit_spectrum(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = 1.0
        z = fft2(x)
        np.testing.assert_allclose(z.real, 1.0, atol=1e-14)
        np.testing.assert_allclose(z.imag, 0.0, atol=1e-14)

    @pytest.mark.parametrize("h,w", [(4, 4), (7, 7), (8, 8), (12, 12),
                                     (16, 16), (8, 12), (7, 4)])
    def test_matches_literal_oracle(self, h, w):
        x = rand_plane(h * 100 + w, h, w)
        ref = half(dft2_literal(x[0, 0]))
        np.testing.assert_allclose(fft2(x)[0, 0], ref, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_fast_and_naive_paths_match_oracle(self, n):
        x = rand_plane(n, n, n)
        ref = half(dft2_literal(x[0, 0]))
        for force in (False, True):
            np.testing.assert_allclose(fft2(x, force_naive=force)[0, 0], ref,
                                       atol=1e-10)

    def test_fast_vs_naive_up_to_64(self):
        sizes = [(n, n) for n in (4, 5, 8, 12, 16, 20, 32, 40, 64)]
        for h, w in sizes + [(12, 20)]:
            x = rand_plane(h + 1, h, w)
            fast = spectral.dft2_raw(x)
            naive = spectral.dft2_raw(x, force_naive=True)
            assert np.abs(fast - naive).max() <= 1e-9
            fast = spectral.dft2_raw(x, width=w)
            naive = spectral.dft2_raw(x, force_naive=True, width=w)
            assert np.abs(fast - naive).max() <= 1e-9
            back = spectral.dft2_raw(fast, inverse=True, width=w)
            naive = spectral.dft2_raw(fast, inverse=True, force_naive=True,
                                      width=w)
            assert np.abs(back - naive).max() <= 1e-12

    @pytest.mark.parametrize("inverse", [False, True])
    def test_f32_input_stays_complex64(self, inverse):
        x = Stream(5).normal((1, 2, 12, 20)).astype(np.float32)
        out = spectral.dft2_raw(x, inverse=inverse)
        assert out.dtype == np.complex64
        ref = spectral.dft2_raw(x.astype(np.float64), inverse=inverse)
        assert np.abs(out - ref).max() <= 1e-4 * np.abs(ref).max()
        spec = spectral.dft2_raw(x, width=20)
        assert spec.dtype == np.complex64
        arg = spec if inverse else x
        out = spectral.dft2_raw(arg, inverse=inverse, width=20)
        assert out.dtype == (np.float32 if inverse else np.complex64)
        ref = spectral.dft2_raw(arg.astype(np.complex128 if inverse
                                           else np.float64),
                                inverse=inverse, width=20)
        assert np.abs(out - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_linearity(self):
        x = Stream(1).normal((1, 1, 8, 8))
        y = Stream(2).normal((1, 1, 8, 8))
        a, b = 0.3, -1.7
        lhs = spectral.dft2_raw(a * x + b * y)
        rhs = a * spectral.dft2_raw(x) + b * spectral.dft2_raw(y)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_hermitian_symmetry_of_real_input(self):
        h, w = 8, 12
        z = spectral.dft2_raw(rand_plane(3, h, w))[0, 0]
        mirrored = np.conj(z[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
        assert np.abs(z - mirrored).max() <= 1e-9
        # so the half spectrum holds every bin
        assert np.abs(half(z) - fft2(rand_plane(3, h, w))[0, 0]).max() \
            <= 1e-12

    def test_parseval(self):
        for seed, (h, w) in enumerate(((4, 4), (7, 5), (8, 8), (16, 16),
                                       (32, 32), (12, 9))):
            x = rand_plane(seed + 40, h, w)
            power = np.abs(fft2(x)) ** 2
            # conjugate-pair columns stand for two bins of the full spectrum
            freq = (power.sum() + power[..., 1:(w + 1) // 2].sum()) / (h * w)
            spatial = (x ** 2).sum()
            assert abs(spatial - freq) / abs(spatial) <= 1e-9

    def test_nan_rejected(self):
        bad = np.zeros((1, 1, 4, 4))
        bad[0, 0, 1, 2] = np.nan
        with pytest.raises(NumericError):
            spectral.rfft2_v(bad)


class TestInverseDft:
    @pytest.mark.parametrize("h,w", [(8, 8), (7, 9), (16, 16), (5, 12)])
    def test_round_trip(self, h, w):
        x = rand_plane(h * 10 + w, h, w, channels=2)
        y = ifft2(fft2(x), w)
        assert np.abs(y - x).max() <= 1e-10

    def test_flat_spectrum_gives_delta(self):
        y = ifft2(np.ones((1, 1, 4, 3), dtype=np.complex128), 4)
        assert abs(y[0, 0, 0, 0] - 1.0) <= 1e-12
        rest = y.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_single_offaxis_bin_is_cosine_plane(self):
        h, w = 6, 8
        spec = np.zeros((1, 1, h, w), dtype=np.complex128)
        spec[..., 1, 2] = 1.0
        ref = idft2_literal(spec[0, 0])
        # the half spectrum of the bin's Hermitian part gives Re(ifft2)
        wt = spectral.hermitian_fold_v(spec.real[0], spec.imag[0]).value
        np.testing.assert_allclose(ifft2(wt[None], w)[0, 0], ref.real,
                                   atol=1e-10)

    def test_residue_small_for_hermitian_preserving_modulation(self):
        x = rand_plane(7, 8, 8, channels=2)
        # real, even-symmetric weights preserve Hermitian symmetry: the
        # full product leaves no imaginary residue and the fold is exact
        base = Stream(8).normal((2, 8, 8))
        sym = (base + base[:, (-np.arange(8)) % 8][:, :, (-np.arange(8)) % 8]) / 2
        w = ComplexWeights(sym, np.zeros_like(sym))
        assert residue(spectral.dft2_raw(x) * sym) <= 1e-9
        assert np.abs(fold(w) - half(sym)).max() <= 1e-15

    def test_imaginary_part_discarded_otherwise(self):
        spec = np.zeros((1, 1, 4, 4), dtype=np.complex128)
        spec[0, 0, 1, 1] = 1j  # breaks Hermitian symmetry
        assert residue(spec) > 1e-3  # measured, not raised
        # the fold drops the anti-Hermitian part that carries the residue
        wt = spectral.hermitian_fold_v(spec.real[0], spec.imag[0]).value
        y = ifft2(wt[None], 4)
        assert y.shape == (1, 1, 4, 4)
        ref = spectral.dft2_raw(spec, inverse=True).real
        assert np.abs(y - ref).max() <= 1e-15


class TestModulate:
    def test_identity_weights(self):
        x = rand_plane(9, 8, 8, channels=2)
        z = fft2(x)
        assert np.array_equal(modulate(z, fold(ComplexWeights.init(
            2, 8, 8))), z)

    def test_zero_weights_absorb(self):
        x = rand_plane(10, 4, 4)
        z = np.zeros((1, 4, 4))
        assert (modulate(fft2(x), fold(ComplexWeights(z, z))) == 0).all()

    def test_imaginary_unit_rotates_phase(self):
        x = rand_plane(11, 8, 8)
        z = fft2(x)
        m = modulate(z, np.full((1, 8, 5), 1j))
        np.testing.assert_allclose(m.real, -z.imag, atol=1e-12)
        np.testing.assert_allclose(m.imag, z.real, atol=1e-12)
        # spatial result equals the literal complex-product + inverse
        # oracle: W = j everywhere is anti-Hermitian, so Re(ifft2) is zero
        w = ComplexWeights(np.zeros((1, 8, 8)), np.ones((1, 8, 8)))
        ref = idft2_literal(dft2_literal(x[0, 0]) * 1j)
        np.testing.assert_allclose(ifft2(modulate(z, fold(w)), 8)[0, 0],
                                   ref.real, atol=1e-10)

    def test_shape_mismatch(self):
        x = rand_plane(12, 8, 8, channels=2)
        with pytest.raises(DimensionError):
            modulate(fft2(x), fold(ComplexWeights.init(2, 4, 4)))

    def test_single_channel_weights_not_broadcast(self):
        x = rand_plane(12, 8, 8, channels=2)
        with pytest.raises(DimensionError):
            modulate(fft2(x), fold(ComplexWeights.init(1, 8, 8)))

    def test_weight_shapes_validated(self):
        with pytest.raises(DimensionError):
            ComplexWeights(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))
        with pytest.raises(DimensionError):
            spectral.hermitian_fold_v(np.zeros((2, 4, 4)),
                                      np.zeros((2, 4, 5)))


class TestMix:
    def test_matches_channel_sum_per_bin(self):
        s = _complex(70, (2, 3, 6, 4))
        w = _real(72, (5, 3, 1, 1))
        ref = np.einsum("oi,nihw->nohw", w[:, :, 0, 0], s)
        got = spectral.mix_v(s, w).value
        assert got.shape == (2, 5, 6, 4) and got.dtype == s.dtype
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_non_contiguous_spectrum_gives_the_bytes_of_its_copy(self):
        big = _complex(74, (2, 6, 9, 7))
        view = big[:, ::2, :, 1:5]
        assert not view.flags.c_contiguous
        w = _real(76, (4, 3, 1, 1))
        g = _complex(77, (2, 8, 9, 7))[:, ::2, :, 2:6]
        outs = []
        for s in (view, view.copy()):
            tape = ad.Tape()
            leaves = tape.leaf(s, "s"), tape.leaf(w, "w")
            y = spectral.mix_v(*leaves)
            outs.append((y.value, *tape.backward(y, g).values()))
        for got, want in zip(*outs, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(4, 3, 3, 3), (4, 3), (4, 2, 1, 1)])
    def test_weight_shape_validated(self, shape):
        with pytest.raises(DimensionError):
            spectral.mix_v(_complex(78, (1, 3, 6, 4)), np.ones(shape))


class TestMultiBranch:
    def test_identity_branch_round_trips(self):
        x = rand_plane(13, 8, 8, channels=2)
        out = enhance(x, [ComplexWeights.init(2, 8, 8)])
        assert len(out) == 1
        assert np.abs(out[0] - x).max() <= 1e-10

    def test_branch_linearity_in_weights(self):
        x = rand_plane(14, 8, 8, channels=2)
        rng = Stream(15)
        w = ComplexWeights(rng.normal((2, 8, 8)), rng.normal((2, 8, 8)))
        w2 = ComplexWeights(2.0 * w.re, 2.0 * w.im)
        out = enhance(x, [w, w2])
        np.testing.assert_allclose(out[1], 2.0 * out[0], atol=1e-10)

    def test_three_branches_match_composed_oracle(self):
        x = rand_plane(16, 8, 8, channels=2)
        rng = Stream(17)
        weights = [ComplexWeights(rng.normal((2, 8, 8)),
                                  rng.normal((2, 8, 8))) for _ in range(3)]
        outs = enhance(x, weights)
        for w, out in zip(weights, outs):
            for c in range(2):
                spec = dft2_literal(x[0, c])
                modded = spec * (w.re[c] + 1j * w.im[c])
                ref = idft2_literal(modded)
                np.testing.assert_allclose(out[0, c], ref.real, atol=1e-9)

    def test_empty_branch_list_rejected(self):
        with pytest.raises(DimensionError):
            FddemParams.init(4, 4, 4, branches=0)


class TestComplexWeightsImmutable:
    """Weights built from arrays own read-only parts and fold them once;
    every rebuild folds its new parts."""

    def test_parts_and_fold_are_read_only_copies(self):
        re, im = Stream(30).normal((2, 6, 5)), Stream(31).normal((2, 6, 5))
        w = ComplexWeights(re, im)
        for part in (w.re, w.im, w.fold()):
            with pytest.raises(ValueError):
                part[0, 0, 0] = 7.0
        re[0, 0, 0] = 7.0  # the caller's array is not the stored one
        assert w.re[0, 0, 0] != 7.0

    def test_fields_cannot_be_reassigned(self):
        w = ComplexWeights.init(2, 4, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.re = np.zeros((2, 4, 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.im = np.zeros((2, 4, 4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("h,w", [(8, 8), (9, 7), (6, 10)])
    def test_fold_bytes_equal_the_fold_op(self, h, w, dtype):
        wt = ComplexWeights.init(3, h, w, rng=Stream(h * w), dtype=dtype)
        ref = spectral.hermitian_fold_v(wt.re, wt.im).value
        assert wt.fold().dtype == ref.dtype
        assert np.array_equal(wt.fold(), ref)

    def test_rebuilds_fold_their_new_parts(self, tmp_path):
        old = FddemParams.init(4, 9, 7, rng=Stream(32), branches=2)
        new = FddemParams.init(4, 9, 7, rng=Stream(33), branches=2)
        path = str(tmp_path / "new.sepp")
        write_params(path, ParamStore.from_params(new))
        rebuilt = {
            "replace": [dataclasses.replace(wo, re=wn.re, im=wn.im)
                        for wo, wn in zip(old.branches, new.branches)],
            "replace_vars": replace_vars(old, named_arrays(new)).branches,
            "sepp": read_params(path).to_params(old).branches,
        }
        for how, branches in rebuilt.items():
            for wo, wn, wb in zip(old.branches, new.branches, branches):
                ref = spectral.hermitian_fold_v(wn.re, wn.im).value
                assert np.array_equal(wb.fold(), ref), how
                assert not np.array_equal(wb.fold(), wo.fold()), how

    def test_lifted_parts_fold_on_the_tape(self):
        tape = Tape()
        live = lift(FddemParams.init(4, 9, 7, rng=Stream(34)), tape)
        folded = live.branches[0].fold()
        assert isinstance(folded, ad.Var) and folded.tape is tape


class TestComplexWeightsInit:
    def test_identity_init_values(self):
        w = ComplexWeights.init(3, 4, 5)
        assert (w.re == 1.0).all() and (w.im == 0.0).all()
        assert w.re.shape == (3, 4, 5)

    def test_differentiable_pipeline_gradcheck(self):
        from sepkit import gradcheck
        x = Stream(19).normal((1, 2, 8, 8))

        def fn(p):
            w = ComplexWeights(p["wre"], p["wim"])
            return ad.sum_all(frequency_branch(ad.add(p["x"], x), [w]))

        report = gradcheck(fn, {
            "x": Stream(20).normal((1, 2, 8, 8)),
            "wre": 1.0 + Stream(21).normal((2, 8, 8)),
            "wim": Stream(22).normal((2, 8, 8)),
        }, seed=7)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-4


# Each half-spectrum op as (input maker, op, groups): inputs are (2, 3, H, W)
# real planes, (2, 3, H, W//2+1) half spectra, (3, H, W) weight pairs or a
# (4, 3, 1, 1) channel mix;
# the op is linear in each group of inputs while the others stay fixed.
def _real(seed, shape):
    return Stream(seed).normal(shape)


def _complex(seed, shape):
    return _real(seed, shape) + 1j * _real(seed + 1, shape)


HALF_OPS = {
    "rfft2": (lambda h, w: (_real(1, (2, 3, h, w)),),
              lambda w, x: spectral.rfft2_v(x), [(0,)]),
    "irfft2": (lambda h, w: (_complex(2, (2, 3, h, w // 2 + 1)),),
               lambda w, s: spectral.irfft2_v(s, w), [(0,)]),
    "hermitian_fold": (lambda h, w: (_real(4, (3, h, w)),
                                     _real(5, (3, h, w))),
                       lambda w, re, im: spectral.hermitian_fold_v(re, im),
                       [(0, 1)]),
    "modulate": (lambda h, w: (_complex(6, (2, 3, h, w // 2 + 1)),
                               _complex(8, (3, h, w // 2 + 1))),
                 lambda w, s, wt: spectral.modulate_v(s, wt), [(0,), (1,)]),
    "mix": (lambda h, w: (_complex(10, (2, 3, h, w // 2 + 1)),
                          _real(12, (4, 3, 1, 1))),
            lambda w, s, wt: spectral.mix_v(s, wt), [(0,), (1,)]),
}
PLANES = [(8, 8), (9, 7), (6, 10)]


def _dot(a, b):
    """The real inner product Re<a, b> that the gradient convention uses."""
    return float(np.real(np.vdot(a, b)))


class TestHalfSpectrumAdjoints:
    """<J u, v> = <u, J^T v> for each new node, its vjp being J^T."""

    @pytest.mark.parametrize("h,w", PLANES)
    @pytest.mark.parametrize("name", sorted(HALF_OPS))
    def test_adjoint_identity(self, name, h, w):
        make, op, groups = HALF_OPS[name]
        inputs = make(h, w)
        for group in groups:
            tape = ad.Tape()
            args = [tape.leaf(a, str(i)) if i in group else a
                    for i, a in enumerate(inputs)]
            y = op(w, *args)
            v = (_complex(30, y.shape) if np.iscomplexobj(y.value)
                 else _real(30, y.shape))
            lhs = _dot(v, y.value)
            jt_v = tape.backward(y, v)
            rhs = sum(_dot(jt_v[str(i)], inputs[i]) for i in group)
            scale = np.abs(v).ravel() @ np.abs(y.value).ravel()
            assert abs(lhs - rhs) <= 1e-12 * scale, (name, group, lhs, rhs)

    @pytest.mark.parametrize("name", sorted(HALF_OPS))
    def test_f32_stays_complex64_and_float32(self, name):
        make, op, _ = HALF_OPS[name]
        inputs = [a.astype(np.complex64 if np.iscomplexobj(a)
                           else np.float32) for a in make(9, 7)]
        tape = ad.Tape()
        args = [tape.leaf(a, f"u{i}") for i, a in enumerate(inputs)]
        out = op(7, *args)
        assert out.value.dtype in (np.complex64, np.float32)
        grads = tape.backward(out)
        for i, a in enumerate(inputs):
            assert grads[f"u{i}"].dtype == a.dtype, (name, i)
