import numpy as np
import pytest

from sepkit import (Ca2neckParams, DimensionError, DysampleParams,
                    LdconvParams, ca2neck_forward, dysample_forward,
                    gradcheck, ldconv_coords, ldconv_forward)
from sepkit import autodiff as ad
from sepkit import ca2neck as neck
from sepkit.cli import _synth_input, stage_gradcheck
from sepkit.config import build_chain, parse_config
from sepkit.params import named_arrays, replace_vars
from sepkit.rng import Stream

from oracles import (bilinear_resize, clamped_conv3x3, conv2d_naive,
                     dysample_grid_naive, ldconv_from_conv_kernel,
                     ldconv_per_point)


def rand_array(seed, shape):
    return Stream(seed).normal(shape)


class TestCoords:
    def test_single_point_is_origin(self):
        assert np.array_equal(ldconv_coords(1), np.zeros((1, 2)))

    def test_nine_points_are_3x3_lattice_row_major(self):
        expected = [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1],
                    [1, -1], [1, 0], [1, 1]]
        assert np.array_equal(ldconv_coords(9), np.asarray(expected, float))

    def test_five_points_match_hand_rule(self):
        # first 5 cells of the 3x3 grid minus their centroid (0.4, 0.8)
        expected = np.array([[-0.4, -0.8], [-0.4, 0.2], [-0.4, 1.2],
                             [0.6, -0.8], [0.6, 0.2]])
        np.testing.assert_allclose(ldconv_coords(5), expected, atol=1e-15)

    def test_zero_mean_for_all_counts(self):
        for n in range(1, 26):
            assert np.abs(ldconv_coords(n).mean(axis=0)).max() <= 1e-12

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            ldconv_coords(0)


class TestLdconv:
    def test_nine_points_equal_3x3_conv(self):
        kernel = Stream(1).normal((3, 2, 3, 3))
        p = ldconv_from_conv_kernel(kernel, stride=1)
        x = Stream(2).normal((1, 2, 8, 8))
        y = ldconv_forward(x, p)
        ref_interior = conv2d_naive(x, kernel, padding=1)
        np.testing.assert_allclose(y.value[:, :, 1:-1, 1:-1],
                                   ref_interior[:, :, 1:-1, 1:-1],
                                   atol=1e-10)
        # border pixels follow border-clamped sampling, not zero padding
        ref_border = clamped_conv3x3(x, kernel)
        np.testing.assert_allclose(y.value, ref_border, atol=1e-10)

    def test_single_point_stride2_subsamples(self):
        p = LdconvParams.init(2, 2, n_points=1, stride=2)
        p.mix_w = np.eye(2).reshape(2, 2, 1, 1).astype(np.float64)
        x = rand_array(3, (1, 2, 8, 8))
        y = ldconv_forward(x, p)
        assert np.array_equal(y.value, x[:, :, ::2, ::2])

    def test_output_size_is_ceil_division(self):
        p = LdconvParams.init(2, 4, n_points=5, stride=2)
        assert ldconv_forward(rand_array(4, (1, 2, 7, 9)), p).shape \
            == (1, 4, 4, 5)
        p3 = LdconvParams.init(2, 4, n_points=5, stride=3)
        assert ldconv_forward(rand_array(5, (1, 2, 7, 9)), p3).shape \
            == (1, 4, 3, 3)

    def test_linear_parameter_growth(self):
        for n in (1, 5, 9, 13):
            p = LdconvParams.init(3, 7, n_points=n)
            assert p.weights_per_output_channel == 3 * n

    def test_channel_mismatch(self):
        p = LdconvParams.init(3, 4, n_points=5)
        with pytest.raises(DimensionError):
            ldconv_forward(rand_array(6, (1, 2, 8, 8)), p)

    def test_gradcheck_off_lattice(self):
        p = LdconvParams.init(2, 3, n_points=5, stride=1, rng=Stream(7))
        x = Stream(8).normal((1, 2, 8, 8))

        def fn(leaves):
            live = replace_vars(p, leaves)
            return ad.sum_all(ldconv_forward(ad.as_var(x), live))

        report = gradcheck(fn, named_arrays(p), seed=9)
        assert report.passed, report.as_dict()
        assert max(q.max_rel_err for q in report.params) <= 1e-4


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("points", [1, 5, 9, 13])
    def test_one_call_matches_per_point_oracle_bytes(self, points, stride,
                                                     dtype):
        p = LdconvParams.init(3, 4, n_points=points, stride=stride,
                              rng=Stream(50 + points), dtype=dtype)
        # offsets up to ~2 pixels that vary per pixel: off the lattice,
        # and some points clamp at the border
        p.offset_w = Stream(51).normal(p.offset_w.shape,
                                       scale=0.3).astype(dtype)
        p.offset_b = (4.0 * Stream(52).uniform(p.offset_b.shape)
                      - 2.0).astype(dtype)
        x = Stream(53).normal((2, 3, 7, 9)).astype(dtype)
        y = ldconv_forward(x, p).value
        ref = ldconv_per_point(x, p)
        assert y.dtype == ref.dtype == dtype and y.shape == ref.shape
        assert y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("points", [5, 9])
    def test_gradcheck_input_and_params_batch2(self, points):
        # every sample point reads x through one sampling call, so x's
        # gradient sums all points in one product: certify it too
        p = LdconvParams.init(2, 3, n_points=points, stride=2,
                              rng=Stream(54 + points))
        x = Stream(56).normal((2, 2, 7, 9))

        def fn(leaves):
            live = replace_vars(p, leaves)
            return ad.sum_all(ldconv_forward(leaves["x"], live))

        report = gradcheck(fn, {**named_arrays(p), "x": x}, seed=57)
        assert report.passed, report.as_dict()
        assert max(q.max_rel_err for q in report.params) <= 1e-4


class TestDysample:
    def test_zero_head_equals_bilinear_resize(self):
        p = DysampleParams.init(3, scale=2)
        x = Stream(10).normal((1, 3, 6, 6))
        y = dysample_forward(x, p)
        np.testing.assert_allclose(y.value, bilinear_resize(x, 2), atol=1e-10)

    def test_zero_head_scale3(self):
        p = DysampleParams.init(2, scale=3)
        x = Stream(11).normal((1, 2, 4, 4))
        y = dysample_forward(x, p)
        np.testing.assert_allclose(y.value, bilinear_resize(x, 3), atol=1e-10)

    def test_constant_preserved_exactly(self):
        p = DysampleParams.init(3, rng=Stream(12))
        y = dysample_forward(np.full((1, 3, 4, 4), -0.8125), p)
        assert (y.value == -0.8125).all()

    def test_shape_contract(self):
        p = DysampleParams.init(3, scale=2)
        y = dysample_forward(rand_array(13, (1, 3, 8, 8)), p)
        assert y.shape == (1, 3, 16, 16)

    def test_output_within_input_range(self):
        p = DysampleParams.init(2, rng=Stream(14))
        x = Stream(15).normal((1, 2, 6, 6))
        y = dysample_forward(x, p)
        assert y.value.max() <= x.max() and y.value.min() >= x.min()

    def test_scope_bound_with_clamped_head_outputs(self):
        # offset-head outputs pinned inside [-1, 1]: grid deviation from
        # the base grid is exactly scope * |output| <= scope per axis
        for bias in (-1.0, -0.5, 0.25, 1.0):
            p = DysampleParams.init(2, scale=2)
            p.offset_b = np.full_like(p.offset_b, bias)
            x = rand_array(16, (1, 2, 4, 4))
            grid = neck.dysample_grid(x, p)
            base = neck.dysample_base_grid(4, 4, 2, 1)
            dev = np.abs(grid.value - base)
            assert dev.max() == p.scope * abs(bias)
            assert dev.max() <= 0.25

    def test_scope_bound_with_random_head_clamped(self):
        p = DysampleParams.init(2, scale=2, rng=Stream(17))
        x = rand_array(18, (1, 2, 4, 4))
        raw = neck.dysample_offsets(x, p)
        clamped = np.clip(raw.value, -1.0, 1.0)
        grid = neck.dysample_grid_from_offsets(clamped, 4, 4, p)
        base = neck.dysample_base_grid(4, 4, 2, 1)
        assert np.abs(grid.value - base).max() <= p.scope

    def test_grid_layout_matches_channel_rule(self):
        p = DysampleParams.init(4, scale=3, groups=2)
        offs = Stream(58).normal((2, 2 * 2 * 3 * 3, 5, 7))
        grid = neck.dysample_grid_from_offsets(offs, 5, 7, p)
        ref = dysample_grid_naive(offs, 5, 7, p)
        assert grid.value.shape == ref.shape == (2, 2, 15, 21, 2)
        assert np.array_equal(grid.value, ref)

    @pytest.mark.parametrize("shape", [(1, 8, 4, 5), (1, 8, 5, 4),
                                       (1, 8, 2, 2), (8, 4, 4)])
    def test_offset_plane_mismatch_raises_dimension_error(self, shape):
        p = DysampleParams.init(2, scale=2)
        with pytest.raises(DimensionError):
            neck.dysample_grid_from_offsets(np.zeros(shape), 4, 4, p)

    @pytest.mark.parametrize("wrap", [np.asarray, ad.Var],
                             ids=["ndarray", "Var"])
    def test_grid_takes_any_input(self, wrap):
        p = DysampleParams.init(2, scale=2, rng=Stream(59))
        x = Stream(60).normal((2, 2, 4, 5))
        grid = neck.dysample_grid(wrap(x), p)
        ref = neck.dysample_grid_from_offsets(
            neck.dysample_offsets(x, p), 4, 5, p)
        assert isinstance(grid, ad.Var)
        assert np.array_equal(grid.value, ref.value)

    def test_grouped_offsets(self):
        p = DysampleParams.init(4, scale=2, groups=2, rng=Stream(19))
        y = dysample_forward(rand_array(20, (1, 4, 4, 4)), p)
        assert y.shape == (1, 4, 8, 8)

    def test_head_channel_mismatch(self):
        p = DysampleParams.init(4, scale=2)
        with pytest.raises(DimensionError):
            dysample_forward(rand_array(21, (1, 3, 4, 4)), p)

    def test_gradcheck(self):
        p = DysampleParams.init(2, scale=2, rng=Stream(22))
        x = Stream(23).normal((1, 2, 8, 8))

        def fn(leaves):
            live = replace_vars(p, leaves)
            return ad.sum_all(dysample_forward(ad.as_var(x), live))

        report = gradcheck(fn, named_arrays(p), seed=24)
        assert report.passed
        assert max(q.max_rel_err for q in report.params) <= 1e-4


class TestPyramid:
    def test_shape_contract_paper_scale(self):
        p = Ca2neckParams.init((32, 64, 128), rng=Stream(25))
        xs = [rand_array(26, (1, 32, 32, 32)),
              rand_array(27, (1, 64, 16, 16)),
              rand_array(28, (1, 128, 8, 8))]
        ys = ca2neck_forward(xs, p)
        assert [y.shape for y in ys] == [x.shape for x in xs]

    def test_identity_fusion_matches_composed_oracle(self):
        # equal channel counts so the merges can be fixed half/half mixes;
        # refinement blocks at identity, offset heads at zero: every level
        # reduces to averages of bilinear-resized / subsampled neighbors
        c = 4
        p = Ca2neckParams.init((c, c, c), n_points=1)
        half_mix = np.concatenate([0.5 * np.eye(c), 0.5 * np.eye(c)],
                                  axis=1).reshape(c, 2 * c, 1, 1)
        p.merge_td1_w = half_mix.copy()
        p.merge_td0_w = half_mix.copy()
        p.merge_bu1_w = half_mix.copy()
        p.merge_bu2_w = half_mix.copy()
        sub = np.eye(c).reshape(c, c, 1, 1)
        p.ld_bu1.mix_w = sub.copy()
        p.ld_bu2.mix_w = sub.copy()

        x0 = Stream(29).normal((1, c, 8, 8))
        x1 = Stream(30).normal((1, c, 4, 4))
        x2 = Stream(31).normal((1, c, 2, 2))
        ys = ca2neck_forward([x0, x1, x2], p)

        t1 = 0.5 * bilinear_resize(x2, 2) + 0.5 * x1
        t0 = 0.5 * bilinear_resize(t1, 2) + 0.5 * x0
        b1 = 0.5 * t0[:, :, ::2, ::2] + 0.5 * t1
        b2 = 0.5 * b1[:, :, ::2, ::2] + 0.5 * x2
        np.testing.assert_allclose(ys[0].value, t0, atol=1e-10)
        np.testing.assert_allclose(ys[1].value, b1, atol=1e-10)
        np.testing.assert_allclose(ys[2].value, b2, atol=1e-10)

    def test_gradcheck_batch2(self, tmp_path):
        cfg = tmp_path / "neck.cfg"
        cfg.write_text("[chain]\nseed = 61\ndtype = f64\n\n[ca2neck]\n"
                       "channels = 2,4,8\nheight = 8\nwidth = 8\n"
                       "batch = 2\nparams = random\n")
        stage, = build_chain(parse_config(str(cfg)), 61)
        x = _synth_input(stage, 61, "f64")
        assert [t.shape for t in x] == [(2, 2, 8, 8), (2, 4, 4, 4),
                                        (2, 8, 2, 2)]
        report = stage_gradcheck(stage, x, 61)
        assert report.passed, report.as_dict()
        assert max(q.max_rel_err for q in report.params) <= 1e-4

    def test_level_size_mismatch_rejected(self):
        p = Ca2neckParams.init((4, 8, 16), rng=Stream(32))
        xs = [rand_array(33, (1, 4, 8, 8)),
              rand_array(34, (1, 8, 4, 4)),
              rand_array(35, (1, 16, 3, 3))]
        with pytest.raises(DimensionError):
            ca2neck_forward(xs, p)

    def test_channel_mismatch_rejected(self):
        p = Ca2neckParams.init((4, 8, 16), rng=Stream(36))
        xs = [rand_array(37, (1, 4, 8, 8)),
              rand_array(38, (1, 9, 4, 4)),
              rand_array(39, (1, 16, 2, 2))]
        with pytest.raises(DimensionError):
            ca2neck_forward(xs, p)

    def test_level_count_enforced(self):
        p = Ca2neckParams.init((4, 8, 16), rng=Stream(40))
        with pytest.raises(DimensionError):
            ca2neck_forward([rand_array(41, (1, 4, 8, 8))], p)
