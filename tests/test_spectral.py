import numpy as np
import pytest

from sepkit import (ComplexTensor, ComplexWeights, DimensionError,
                    NumericError, Tensor, fft2, ifft2, modulate,
                    multi_branch_enhance)
from sepkit import spectral
from sepkit.rng import Stream

from oracles import dft2_literal, idft2_literal


def rand_plane(seed, h, w, channels=1, batch=1):
    return Tensor(Stream(seed).normal((batch, channels, h, w)))


class TestForwardDft:
    def test_zeros_give_zero_spectrum(self):
        s = fft2(Tensor(np.zeros((1, 1, 4, 4))))
        assert (s.re.data == 0).all() and (s.im.data == 0).all()

    def test_delta_gives_flat_unit_spectrum(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = 1.0
        s = fft2(Tensor(x))
        np.testing.assert_allclose(s.re.data, 1.0, atol=1e-14)
        np.testing.assert_allclose(s.im.data, 0.0, atol=1e-14)

    @pytest.mark.parametrize("h,w", [(4, 4), (7, 7), (8, 8), (12, 12),
                                     (16, 16), (8, 12), (7, 4)])
    def test_matches_literal_oracle(self, h, w):
        x = rand_plane(h * 100 + w, h, w)
        ref = dft2_literal(x.data[0, 0])
        s = fft2(x)
        np.testing.assert_allclose(s.re.data[0, 0], ref.real, atol=1e-10)
        np.testing.assert_allclose(s.im.data[0, 0], ref.imag, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_fast_and_naive_paths_match_oracle(self, n):
        x = rand_plane(n, n, n)
        ref = dft2_literal(x.data[0, 0])
        for force in (False, True):
            s = fft2(x, force_naive=force)
            np.testing.assert_allclose(s.re.data[0, 0], ref.real, atol=1e-10)
            np.testing.assert_allclose(s.im.data[0, 0], ref.imag, atol=1e-10)

    def test_fast_vs_naive_up_to_64(self):
        sizes = [(n, n) for n in (4, 5, 8, 12, 16, 20, 32, 40, 64)]
        for h, w in sizes + [(12, 20)]:
            x = rand_plane(h + 1, h, w)
            fast = spectral.dft2_raw(x.data)
            naive = spectral.dft2_raw(x.data, force_naive=True)
            assert np.abs(fast - naive).max() <= 1e-9

    @pytest.mark.parametrize("inverse", [False, True])
    def test_f32_input_stays_complex64(self, inverse):
        x = Stream(5).normal((1, 2, 12, 20)).astype(np.float32)
        out = spectral.dft2_raw(x, inverse=inverse)
        assert out.dtype == np.complex64
        ref = spectral.dft2_raw(x.astype(np.float64), inverse=inverse)
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
        z = fft2(rand_plane(3, h, w)).to_complex()[0, 0]
        mirrored = np.conj(z[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
        assert np.abs(z - mirrored).max() <= 1e-9

    def test_parseval(self):
        for seed, (h, w) in enumerate(((4, 4), (7, 5), (8, 8), (16, 16),
                                       (32, 32), (12, 9))):
            x = rand_plane(seed + 40, h, w)
            s = fft2(x)
            spatial = (x.data ** 2).sum()
            freq = ((s.re.data ** 2) + (s.im.data ** 2)).sum() / (h * w)
            assert abs(spatial - freq) / abs(spatial) <= 1e-9

    def test_nan_rejected(self):
        bad = np.zeros((1, 1, 4, 4))
        bad[0, 0, 1, 2] = np.nan
        with pytest.raises(NumericError):
            spectral.fft2_v(bad)


class TestInverseDft:
    @pytest.mark.parametrize("h,w", [(8, 8), (7, 9), (16, 16), (5, 12)])
    def test_round_trip(self, h, w):
        x = rand_plane(h * 10 + w, h, w, channels=2)
        y = ifft2(fft2(x))
        assert np.abs(y.data - x.data).max() <= 1e-10

    def test_flat_spectrum_gives_delta(self):
        s = ComplexTensor(Tensor(np.ones((1, 1, 4, 4))),
                          Tensor(np.zeros((1, 1, 4, 4))))
        y = ifft2(s)
        assert abs(y.data[0, 0, 0, 0] - 1.0) <= 1e-12
        rest = y.data.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_single_offaxis_bin_is_cosine_plane(self):
        h, w = 6, 8
        spec = np.zeros((h, w), dtype=np.complex128)
        spec[1, 2] = 1.0
        ref = idft2_literal(spec)
        s = ComplexTensor(Tensor(spec.real[None, None]),
                          Tensor(spec.imag[None, None]))
        y = ifft2(s)
        np.testing.assert_allclose(y.data[0, 0], ref.real, atol=1e-10)

    def test_residue_small_for_hermitian_preserving_modulation(self):
        x = rand_plane(7, 8, 8, channels=2)
        # real, even-symmetric weights preserve Hermitian symmetry
        base = Stream(8).normal((2, 8, 8))
        sym = (base + base[:, (-np.arange(8)) % 8][:, :, (-np.arange(8)) % 8]) / 2
        w = ComplexWeights(sym, np.zeros_like(sym))
        _, residue = ifft2(modulate(fft2(x), w), return_residue=True)
        assert residue <= 1e-9

    def test_imaginary_part_discarded_otherwise(self):
        spec = np.zeros((1, 1, 4, 4))
        im = np.zeros((1, 1, 4, 4))
        im[0, 0, 1, 1] = 1.0  # breaks Hermitian symmetry
        y, residue = ifft2(ComplexTensor(Tensor(spec), Tensor(im)),
                           return_residue=True)
        assert residue > 1e-3  # measured, not raised
        assert y.shape == (1, 1, 4, 4)
        assert np.isfinite(y.data).all()


class TestModulate:
    def test_identity_weights(self):
        x = rand_plane(9, 8, 8, channels=2)
        s = fft2(x)
        m = modulate(s, ComplexWeights.identity(2, 8, 8))
        assert np.array_equal(m.re.data, s.re.data)
        assert np.array_equal(m.im.data, s.im.data)

    def test_zero_weights_absorb(self):
        x = rand_plane(10, 4, 4)
        z = np.zeros((1, 4, 4))
        m = modulate(fft2(x), ComplexWeights(z, z))
        assert (m.re.data == 0).all() and (m.im.data == 0).all()

    def test_imaginary_unit_rotates_phase(self):
        x = rand_plane(11, 8, 8)
        s = fft2(x)
        w = ComplexWeights(np.zeros((1, 8, 8)), np.ones((1, 8, 8)))
        m = modulate(s, w)
        np.testing.assert_allclose(m.re.data, -s.im.data, atol=1e-12)
        np.testing.assert_allclose(m.im.data, s.re.data, atol=1e-12)
        # spatial result equals the literal complex-product + inverse oracle
        spec = s.to_complex()[0, 0] * 1j
        ref = idft2_literal(spec)
        y = ifft2(m)
        np.testing.assert_allclose(y.data[0, 0], ref.real, atol=1e-10)

    def test_shape_mismatch(self):
        x = rand_plane(12, 8, 8, channels=2)
        with pytest.raises(DimensionError):
            modulate(fft2(x), ComplexWeights.identity(2, 4, 4))

    def test_weight_shapes_validated(self):
        with pytest.raises(DimensionError):
            ComplexWeights(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))


class TestMultiBranch:
    def test_identity_branch_round_trips(self):
        x = rand_plane(13, 8, 8, channels=2)
        out = multi_branch_enhance(x, [ComplexWeights.identity(2, 8, 8)])
        assert len(out) == 1
        assert np.abs(out[0].data - x.data).max() <= 1e-10

    def test_branch_linearity_in_weights(self):
        x = rand_plane(14, 8, 8, channels=2)
        rng = Stream(15)
        w = ComplexWeights(rng.normal((2, 8, 8)), rng.normal((2, 8, 8)))
        w2 = ComplexWeights(2.0 * w.re, 2.0 * w.im)
        out = multi_branch_enhance(x, [w, w2])
        np.testing.assert_allclose(out[1].data, 2.0 * out[0].data, atol=1e-10)

    def test_three_branches_match_composed_oracle(self):
        x = rand_plane(16, 8, 8, channels=2)
        rng = Stream(17)
        weights = [ComplexWeights(rng.normal((2, 8, 8)),
                                  rng.normal((2, 8, 8))) for _ in range(3)]
        outs = multi_branch_enhance(x, weights)
        for w, out in zip(weights, outs):
            for c in range(2):
                spec = dft2_literal(x.data[0, c])
                modded = spec * (w.re[c] + 1j * w.im[c])
                ref = idft2_literal(modded)
                np.testing.assert_allclose(out.data[0, c], ref.real,
                                           atol=1e-9)

    def test_empty_branch_list_rejected(self):
        with pytest.raises(DimensionError):
            multi_branch_enhance(rand_plane(18, 4, 4), [])


class TestComplexWeightsInit:
    def test_identity_init_values(self):
        w = ComplexWeights.identity(3, 4, 5)
        assert (w.re == 1.0).all() and (w.im == 0.0).all()
        assert w.re.shape == (3, 4, 5)

    def test_differentiable_pipeline_gradcheck(self):
        from sepkit import autodiff as ad
        from sepkit import gradcheck
        x = Stream(19).normal((1, 2, 8, 8))

        def fn(p):
            sre, sim = spectral.fft2_v(ad.add(p["x"], x))
            mre, mim = spectral.modulate_v(sre, sim, p["wre"], p["wim"])
            return ad.sum_all(spectral.ifft2_real_v(mre, mim))

        report = gradcheck(fn, {
            "x": Stream(20).normal((1, 2, 8, 8)),
            "wre": 1.0 + Stream(21).normal((2, 8, 8)),
            "wim": Stream(22).normal((2, 8, 8)),
        }, seed=7)
        assert report.passed
        assert max(p.max_rel_err for p in report.params) <= 1e-4
