import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import (Ca2neckParams, ComplexWeights, DimensionError,
                    DysampleParams, FddemParams, LdconvParams, MsgrbParams,
                    ParamStore, Tensor, ldconv_coords)
from sepkit import io as sio
from sepkit import spectral
from sepkit.cli import main
from sepkit.config import STAGES, build_chain, parse_config
from sepkit.errors import ConfigError
from sepkit.params import ParamStore as PS
from sepkit.params import named_arrays
from sepkit.rng import Stream
from sepkit.tensor import DTYPES


def rand_tensor(seed, shape, dtype="f64"):
    return Tensor(Stream(seed).normal(shape).astype(DTYPES[dtype]))


class TestTensorFormat:
    def test_header_layout(self, tmp_path):
        t = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        path = str(tmp_path / "t.sept")
        sio.write_tensor(path, t)
        raw = Path(path).read_bytes()
        assert raw[:4] == b"SEPT"
        version, dtype_code, ndim = struct.unpack_from("<IBB", raw, 4)
        assert (version, dtype_code, ndim) == (1, 1, 4)
        assert struct.unpack_from("<4Q", raw, 10) == (1, 2, 2, 2)
        payload = np.frombuffer(raw[42:], dtype="<f8")
        assert np.array_equal(payload, np.arange(8.0))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        t = rand_tensor(0, (2, 3, 4, 5), dtype)
        path = str(tmp_path / "t.sept")
        sio.write_tensor(path, t)
        back = sio.read_tensor(path)
        assert back.dtype == dtype
        assert np.array_equal(back.data, t.data)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.sept")
        sio.write_tensor(path, rand_tensor(1, (1, 1, 4, 4)))
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-8])
        with pytest.raises(DimensionError):
            sio.read_tensor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "t.sept")
        Path(path).write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(DimensionError):
            sio.read_tensor(path)


class TestParamsFormat:
    def test_round_trip_mixed_shapes(self, tmp_path):
        store = ParamStore()
        store.put("conv.w", Stream(4).normal((3, 2, 3, 3)))
        store.put("conv.b", Stream(5).normal((3,)))
        store.put("weights.re", Stream(6).normal((2, 8, 8)))
        path = str(tmp_path / "p.sepp")
        sio.write_params(path, store)
        back = sio.read_params(path)
        assert back.names() == ["conv.w", "conv.b", "weights.re"]
        assert back.get("conv.b").shape == (1, 3, 1, 1)  # canonical 4D
        assert np.array_equal(back.get("conv.w"), store.get("conv.w"))
        assert Path(path).read_bytes()[:4] == b"SEPP"

    def test_module_params_round_trip(self, tmp_path):
        p = MsgrbParams.init(4, rng=Stream(7))
        store = PS.from_params(p)
        path = str(tmp_path / "m.sepp")
        sio.write_params(path, store)
        rebuilt = sio.read_params(path).to_params(MsgrbParams.init(4))
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(rebuilt)[name], arr), name
        # the template sets each field's dtype and the values it must hold
        narrow = sio.read_params(path).to_params(
            MsgrbParams.init(4, dtype=np.float32))
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(narrow)[name],
                                  arr.astype(np.float32)), name
        with pytest.raises(DimensionError, match="'expand_w' has 32 values, "
                                                 "expected 48"):
            sio.read_params(path).to_params(MsgrbParams.init(4, hidden=6))

    def test_fddem_complex_weights_round_trip(self, tmp_path):
        p = FddemParams.init(4, 8, 8, rng=Stream(8))
        path = str(tmp_path / "f.sepp")
        sio.write_params(path, PS.from_params(p))
        rebuilt = sio.read_params(path).to_params(
            FddemParams.init(4, 8, 8))
        assert rebuilt.branches[0].re.shape == (4, 8, 8)
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(rebuilt)[name], arr), name


# every parameter constructor, with a count or plane side below 1
BAD_SIZES = {
    "msgrb_hidden_0": (lambda rng: MsgrbParams.init(4, hidden=0, rng=rng),
                       "hidden"),
    "msgrb_hidden_-2": (lambda rng: MsgrbParams.init(4, hidden=-2, rng=rng),
                        "hidden"),
    "msgrb_channels_0": (lambda rng: MsgrbParams.init(0, rng=rng),
                         "channels"),
    "fddem_height_0": (lambda rng: FddemParams.init(4, 0, 8, rng=rng),
                       "height"),
    "fddem_width_-1": (lambda rng: FddemParams.init(4, 8, -1, rng=rng),
                       "width"),
    "fddem_channels_0": (lambda rng: FddemParams.init(0, 8, 8, reduction=1,
                                                      rng=rng), "channels"),
    "complex_channels_0": (lambda rng: ComplexWeights.init(0, 4, 4, rng=rng),
                           "channels"),
    "ldconv_in_0": (lambda rng: LdconvParams.init(0, 3, rng=rng),
                    "in_channels"),
    "ldconv_out_-1": (lambda rng: LdconvParams.init(2, -1, rng=rng),
                      "out_channels"),
    "dysample_channels_0": (lambda rng: DysampleParams.init(0, rng=rng),
                            "channels"),
    "dysample_groups_0": (lambda rng: DysampleParams.init(4, groups=0,
                                                          rng=rng), "groups"),
    "ca2neck_C1_0": (lambda rng: Ca2neckParams.init((2, 0, 8), rng=rng),
                     "C1"),
    "ca2neck_C2_-8": (lambda rng: Ca2neckParams.init((2, 4, -8), rng=rng),
                      "C2"),
    "ldconv_coords_0": (lambda rng: ldconv_coords(0), "n_points"),
}


@pytest.mark.parametrize("seeded", [False, True], ids=["zeros", "random"])
@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_init_rejects_sizes_below_one(case, seeded):
    build, name = BAD_SIZES[case]
    with pytest.raises(DimensionError, match=f"^{name} must be >= 1"):
        build(Stream(3) if seeded else None)


def sample_file(tmp_path, kind):
    """A valid SEPT or SEPP file and its reader."""
    path = str(tmp_path / f"valid.{kind}")
    t = rand_tensor(20, (1, 2, 3, 4))
    if kind == "sept":
        sio.write_tensor(path, t)
        return path, sio.read_tensor
    store = ParamStore()
    store.put("conv.w", Stream(22).normal((3, 2, 3, 3)))
    store.put("conv.b", Stream(23).normal((3,)))
    sio.write_params(path, store)
    return path, sio.read_params


FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None)


class TestReaderRobustness:
    """Malformed files raise DimensionError, never a decoder's own error."""

    @pytest.mark.parametrize("kind", ["sept", "sepp"])
    def test_every_proper_prefix_rejected(self, tmp_path, kind):
        path, reader = sample_file(tmp_path, kind)
        raw = Path(path).read_bytes()
        cut = str(tmp_path / "cut")
        for n in range(len(raw)):
            Path(cut).write_bytes(raw[:n])
            with pytest.raises(DimensionError):
                reader(cut)

    @FUZZ
    @given(dims=st.tuples(*[st.integers(0, 2 ** 64 - 1)] * 4),
           payload=st.integers(0, 96))
    def test_corrupted_dims(self, tmp_path_factory, dims, payload):
        path = str(tmp_path_factory.mktemp("dims") / "t.sept")
        header = b"SEPT" + struct.pack("<IBB4Q", 1, 1, 4, *dims)
        Path(path).write_bytes(header + bytes(8 * payload))
        try:
            t = sio.read_tensor(path)
        except DimensionError:
            return
        assert t.shape == dims and int(np.prod(dims)) == payload

    @FUZZ
    @given(name=st.binary(max_size=12), declared=st.integers(0, 2 ** 16 - 1))
    def test_corrupted_names(self, tmp_path_factory, name, declared):
        path = str(tmp_path_factory.mktemp("names") / "p.sepp")
        block = sio.tensor_block_bytes(np.zeros((1, 1, 1, 2)))
        Path(path).write_bytes(b"SEPP" + struct.pack("<IH", 1, declared)
                               + name + block)
        try:
            store = sio.read_params(path)
        except DimensionError:
            return
        assert declared == len(name)
        assert store.names() == [name.decode("utf-8")]

    @FUZZ
    @given(kind=st.sampled_from(["sept", "sepp"]),
           tail=st.binary(min_size=1, max_size=64))
    def test_trailing_bytes(self, tmp_path_factory, kind, tail):
        path, reader = sample_file(tmp_path_factory.mktemp("tail"), kind)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw + tail)
        with pytest.raises(DimensionError):
            reader(path)


class TestJsonRendering:
    def test_float_precision_and_field_order(self):
        s = sio.render_json({"b": 1.0 / 3.0, "a": 1, "flag": True,
                             "items": [0.5, None]})
        assert s == ('{"b": 0.33333333333333331, "a": 1, "flag": true, '
                     '"items": [0.5, null]}')

    def test_parses_as_json(self):
        s = sio.render_json({"x": 1e-300, "y": "quo\"te"})
        assert json.loads(s) == {"x": 1e-300, "y": 'quo"te'}


class TestConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return str(path)

    def test_minimal_chain(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, """
[chain]
seed = 9
dtype = f32

[msgrb]
channels = 4
"""))
        assert cfg.seed == 9 and cfg.dtype == "f32"
        assert [m.kind for m in cfg.modules] == ["msgrb"]

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(self.write(tmp_path, "[warp]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(self.write(tmp_path, "[msgrb]\nchanels = 4\n"))

    def test_ca2neck_must_be_sole_stage(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(self.write(tmp_path, """
[ca2neck]
channels = 4,8,16

[msgrb]
channels = 4
"""))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/chain.cfg")

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, """
# leading comment
[msgrb]
channels = 4  # trailing comment

"""))
        assert cfg.modules[0].options["channels"] == "4"

    @pytest.mark.parametrize("kind,key,value", [
        ("msgrb", "hidden", "0"),
        ("msgrb", "batch", "-1"),
        ("msgrb", "params", "ones"),
        ("fddem", "branches", "0"),
        ("fddem", "height", "2.5"),
        ("ldconv", "stride", "0"),
        ("ldconv", "points", "x"),
        ("dysample", "scale", "0"),
        ("dysample", "scope", "nan"),
        ("dysample", "scope", "inf"),
        ("fft2", "path", "slow"),
        ("ca2neck", "channels", "4,8"),
        ("ca2neck", "channels", "4,0,16"),
        ("ca2neck", "height", "6"),
        ("ca2neck", "scope", "-inf"),
        ("chain", "dtype", "f16"),
        ("chain", "seed", "1.5"),
    ])
    def test_bad_value_rejected_at_parse(self, tmp_path, kind, key, value):
        needs = {"msgrb": "channels = 4\n", "fddem": "channels = 4\n",
                 "ldconv": "in_channels = 2\nout_channels = 2\n",
                 "dysample": "channels = 4\n", "fft2": "",
                 "ca2neck": "channels = 4,8,16\n", "chain": ""}
        # the bad value is on line 2, so it fails before the rest is read
        text = f"[{kind}]\n{key} = {value}\n" + needs[kind]
        if kind == "chain":
            text += "[msgrb]\nchannels = 4\n"
        with pytest.raises(ConfigError, match=f"line 2: {key} must be"):
            parse_config(self.write(tmp_path, text))

    def test_absent_hidden_means_channels(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "[msgrb]\nchannels = 6\n"))
        assert build_chain(cfg, 0)[0].params.hidden == 6


def write_cfg(tmp_path, text, name="chain.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_input(tmp_path, seed=0, shape=(1, 4, 8, 8), dtype="f64",
                name="in.sept"):
    path = str(tmp_path / name)
    sio.write_tensor(path, rand_tensor(seed, shape, dtype))
    return path


# one section of each `config.STAGES` kind, on planes with a side that is
# odd or not a power of two; each test adds its own `batch`
STAGE_SECTIONS = {
    "msgrb": "[msgrb]\nchannels = 4\nheight = 12\nwidth = 10\n"
             "params = random\n",
    "fddem": "[fddem]\nchannels = 4\nheight = 9\nwidth = 7\nreduction = 2\n"
             "params = random\n",
    "ldconv": "[ldconv]\nin_channels = 4\nout_channels = 3\nheight = 9\n"
              "width = 7\nparams = random\n",
    "dysample": "[dysample]\nchannels = 4\nheight = 12\nwidth = 10\n"
                "params = random\n",
    "fft2": "[fft2]\nchannels = 2\nheight = 9\nwidth = 7\n",
    "ca2neck": "[ca2neck]\nchannels = 4,6,8\nheight = 16\nwidth = 12\n"
               "params = random\n",
}


IDENTITY_MSGRB = """
[chain]
seed = 42
dtype = f64

[msgrb]
channels = 4
height = 8
width = 8
params = zeros
"""


class TestCliForward:
    def test_identity_chain_payload_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        inp = write_input(tmp_path)
        out = str(tmp_path / "out.sept")
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", out]) == 0
        a = Path(inp).read_bytes()
        b = Path(out).read_bytes()
        assert a == b  # same header, same payload
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == {"shape", "min", "max", "mean", "l2", "wall_ms",
                              "seed"}
        assert stats["shape"] == [1, 4, 8, 8]
        assert stats["seed"] == 42

    def test_fddem_zeros_stats_match_spatial_only_oracle(self, tmp_path,
                                                         capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 3
dtype = f64

[fddem]
channels = 4
height = 8
width = 8
params = zeros
""")
        inp = write_input(tmp_path, seed=11)
        out = str(tmp_path / "out.sept")
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", out]) == 0
        stats = json.loads(capsys.readouterr().out)
        # identity complex weights + zeroed compression/attention leave
        # only the (identity-initialized) spatial branch
        x = sio.read_tensor(inp).data
        assert stats["mean"] == pytest.approx(float(x.mean()), rel=1e-15)

    @pytest.mark.parametrize("dtype,bound", [("f64", 1e-12), ("f32", 1e-5)])
    def test_fft2_naive_path_matches_fast_path_and_input(
            self, tmp_path, monkeypatch, dtype, bound):
        # `path = naive` round-trips through the per-bin reference DFT
        naive_calls = []
        naive = spectral._naive_dft2_planes
        monkeypatch.setattr(spectral, "_naive_dft2_planes", lambda a, sign: (
            naive_calls.append(a.shape) or naive(a, sign)))
        inp = write_input(tmp_path, seed=90, shape=(2, 2, 9, 7), dtype=dtype)
        outs = {}
        for path in ("fast", "naive"):
            cfg = write_cfg(tmp_path, f"[chain]\ndtype = {dtype}\n\n[fft2]\n"
                            "channels = 2\nheight = 9\nwidth = 7\n"
                            f"batch = 2\npath = {path}\n", name=f"{path}.cfg")
            out = str(tmp_path / f"{path}.sept")
            assert main(["forward", "--config", cfg, "--input", inp,
                         "--output", out]) == 0
            outs[path] = sio.read_tensor(out).data
            assert len(naive_calls) == (2 if path == "naive" else 0)
        x = sio.read_tensor(inp).data
        assert outs["naive"].dtype == outs["fast"].dtype == x.dtype
        assert np.abs(outs["naive"] - outs["fast"]).max() <= bound
        assert np.abs(outs["naive"] - x).max() <= bound

    def test_missing_input_exits_2_and_names_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        missing = str(tmp_path / "nope.sept")
        assert main(["forward", "--config", cfg, "--input", missing,
                     "--output", str(tmp_path / "o.sept")]) == 2
        assert "nope.sept" in capsys.readouterr().err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["forward", "--config", str(tmp_path),
                     "--input", write_input(tmp_path),
                     "--output", str(tmp_path / "o.sept")]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_directory_as_input_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        indir = tmp_path / "in"
        indir.mkdir()
        assert main(["forward", "--config", cfg, "--input", str(indir),
                     "--output", str(tmp_path / "o.sept")]) == 2
        assert str(indir) in capsys.readouterr().err

    def test_wrong_shape_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        inp = write_input(tmp_path, shape=(1, 3, 8, 8))
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", str(tmp_path / "o.sept")]) == 3

    def test_wrong_dtype_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        inp = write_input(tmp_path, dtype="f32")
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", str(tmp_path / "o.sept")]) == 3

    def test_failed_run_leaves_no_output(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        inp = write_input(tmp_path, shape=(1, 3, 8, 8))
        out = str(tmp_path / "o.sept")
        main(["forward", "--config", cfg, "--input", inp, "--output", out])
        assert not os.path.exists(out)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[msgrb]\nbogus = 1\n")
        assert main(["forward", "--config", cfg,
                     "--input", write_input(tmp_path),
                     "--output", str(tmp_path / "o.sept")]) == 2

    def test_pyramid_round_trip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 5
dtype = f64

[ca2neck]
channels = 4,8,16
height = 8
width = 8
params = random
""")
        indir = tmp_path / "pyr"
        indir.mkdir()
        for i, (c, s) in enumerate(((4, 8), (8, 4), (16, 2))):
            sio.write_tensor(str(indir / f"level{i}.sept"),
                             rand_tensor(50 + i, (1, c, s, s)))
        outdir = str(tmp_path / "pyr_out")
        assert main(["forward", "--config", cfg, "--input", str(indir),
                     "--output", outdir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["shape"] == [[1, 4, 8, 8], [1, 8, 4, 4], [1, 16, 2, 2]]
        for i, (c, s) in enumerate(((4, 8), (8, 4), (16, 2))):
            t = sio.read_tensor(os.path.join(outdir, f"level{i}.sept"))
            assert t.shape == (1, c, s, s)

    def test_f32_chain_end_to_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 8
dtype = f32

[msgrb]
channels = 4
height = 6
width = 10
params = random

[dysample]
channels = 4
height = 6
width = 10
params = zeros

[fddem]
channels = 4
height = 12
width = 20
params = random
""")
        inp = write_input(tmp_path, seed=9, shape=(1, 4, 6, 10), dtype="f32")
        out = str(tmp_path / "o.sept")
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", out]) == 0
        t = sio.read_tensor(out)
        assert t.dtype == "f32"
        assert t.shape == (1, 4, 12, 20)
        assert np.isfinite(t.data).all()

    def test_params_from_file_source(self, tmp_path, capsys):
        from sepkit import msgrb_forward
        p = MsgrbParams.init(4, rng=Stream(60))
        ppath = str(tmp_path / "m.sepp")
        sio.write_params(ppath, PS.from_params(p))
        cfg = write_cfg(tmp_path, f"""
[chain]
seed = 1
dtype = f64

[msgrb]
channels = 4
params = file:{ppath}
""")
        inp = write_input(tmp_path, seed=61)
        out = str(tmp_path / "out.sept")
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", out]) == 0
        expected = msgrb_forward(sio.read_tensor(inp).data, p)
        assert np.array_equal(sio.read_tensor(out).data, expected.value)

    def test_params_file_missing_parameter_exits_2(self, tmp_path, capsys):
        store = PS.from_params(MsgrbParams.init(4, rng=Stream(62)))
        partial = PS()
        for name, arr in store.items():
            if name != "expand_b":
                partial.put(name, arr)
        ppath = str(tmp_path / "m.sepp")
        sio.write_params(ppath, partial)
        cfg = write_cfg(tmp_path, f"[msgrb]\nchannels = 4\nparams = file:{ppath}\n")
        assert main(["forward", "--config", cfg,
                     "--input", write_input(tmp_path),
                     "--output", str(tmp_path / "o.sept")]) == 2
        err = capsys.readouterr().err
        assert "expand_b" in err and "m.sepp" in err

    @pytest.mark.parametrize("section,message", [
        ("[dysample]\nchannels = 4\nscale = 1\n", "scale must be >= 2"),
        ("[fddem]\nchannels = 2\nheight = 8\nwidth = 8\n",
         "channel count 2 is below reduction 4"),
        ("[dysample]\nchannels = 4\ngroups = 3\n", "must divide into groups"),
    ], ids=["dysample_scale", "fddem_reduction", "dysample_groups"])
    def test_builder_constraint_exits_2(self, tmp_path, capsys, section,
                                        message):
        # the parameter builder enforces these, not the key parser
        cfg = write_cfg(tmp_path, "[chain]\nseed = 1\n" + section)
        with pytest.raises(ConfigError, match=f"line 3: .*{message}"):
            build_chain(parse_config(cfg), 1)
        assert main(["bench", "--config", cfg, "--repeats", "3"]) == 2
        assert message in capsys.readouterr().err

    def test_truncated_params_file_exits_3(self, tmp_path):
        ppath = str(tmp_path / "m.sepp")
        sio.write_params(ppath, PS.from_params(
            MsgrbParams.init(4, rng=Stream(63))))
        data = Path(ppath).read_bytes()
        Path(ppath).write_bytes(data[:len(data) // 2])
        cfg = write_cfg(tmp_path, f"[msgrb]\nchannels = 4\nparams = file:{ppath}\n")
        assert main(["forward", "--config", cfg,
                     "--input", write_input(tmp_path),
                     "--output", str(tmp_path / "o.sept")]) == 3

    def test_truncated_input_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        inp = write_input(tmp_path)
        head = Path(inp).read_bytes()[:6]
        Path(inp).write_bytes(head)
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", str(tmp_path / "o.sept")]) == 3

    @pytest.mark.parametrize("section", [
        "[msgrb]\nchannels = 4\nhidden = 6\nheight = 6\nwidth = 10\n",
        "[fddem]\nchannels = 4\nheight = 6\nwidth = 10\nreduction = 2\n",
        "[ldconv]\nin_channels = 4\nout_channels = 3\nheight = 6\n"
        "width = 10\n",
        "[dysample]\nchannels = 4\ngroups = 2\nscale = 3\nheight = 6\n"
        "width = 10\n",
        "[ca2neck]\nchannels = 4,6,8\nheight = 8\nwidth = 12\n",
    ], ids=["msgrb", "fddem", "ldconv", "dysample", "ca2neck"])
    def test_params_file_matches_random(self, tmp_path, capsys, section):
        random_cfg = write_cfg(tmp_path, f"[chain]\nseed = 31\n{section}"
                               "params = random\n", name="random.cfg")
        chain = build_chain(parse_config(random_cfg), 31)
        ppath = str(tmp_path / "p.sepp")
        sio.write_params(ppath, PS.from_params(chain[0].params))
        file_cfg = write_cfg(tmp_path, f"[chain]\nseed = 31\n{section}"
                             f"params = file:{ppath}\n", name="file.cfg")
        shapes = chain[0].in_shape
        if section.startswith("[ca2neck]"):
            inp = tmp_path / "pyr"
            inp.mkdir()
            for i, shape in enumerate(shapes):
                sio.write_tensor(str(inp / f"level{i}.sept"),
                                 rand_tensor(70 + i, shape))
        else:
            inp = write_input(tmp_path, seed=70, shape=shapes)
        outs = []
        for cfg in (random_cfg, file_cfg):
            out = str(tmp_path / f"out-{len(outs)}")
            assert main(["forward", "--config", cfg, "--input", str(inp),
                         "--output", out]) == 0
            if os.path.isdir(out):
                outs.append([Path(os.path.join(out, f)).read_bytes()
                             for f in sorted(os.listdir(out))])
            else:
                outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def _stage_levels(tmp_path, kind, dtype, batch):
        """A built stage of `kind` and a seeded input, one Tensor a level."""
        cfg = write_cfg(tmp_path, f"[chain]\ndtype = {dtype}\n"
                        f"{STAGE_SECTIONS[kind]}batch = {batch}\n")
        stage = build_chain(parse_config(cfg), 3)[0]
        pyramid = STAGES[kind].pyramid
        shapes = stage.in_shape if pyramid else (stage.in_shape,)
        return stage, [rand_tensor(80 + i, s, dtype)
                       for i, s in enumerate(shapes)]

    @staticmethod
    def _forward_levels(stage, levels):
        """The stage's output Tensors, one a level."""
        if STAGES[stage.kind].pyramid:
            return stage.forward(levels)
        return [stage.forward(levels[0])]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("kind", list(STAGE_SECTIONS))
    def test_stage_forward_returns_read_only_tensors(self, tmp_path, kind,
                                                     dtype):
        # the chain stage is the edge: Tensors in, read-only Tensors out
        stage, xs = self._stage_levels(tmp_path, kind, dtype, 2)
        outs = self._forward_levels(stage, xs)
        pyramid = STAGES[kind].pyramid
        assert len(outs) == (3 if pyramid else 1)
        assert [type(t) for t in outs] == [Tensor] * len(outs)
        assert tuple(t.shape for t in outs) == (
            stage.out_shape if pyramid else (stage.out_shape,))
        assert all(t.dtype == dtype for t in outs)
        assert not any(t.data.flags.writeable for t in outs)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("kind", list(STAGE_SECTIONS))
    def test_batch_forward_is_its_one_sample_forwards(self, tmp_path, kind,
                                                      dtype):
        # every block maps each sample on its own, byte for byte; gradcheck
        # certifies a batch as the sum of its one-sample losses on this
        stage, xs = self._stage_levels(tmp_path, kind, dtype, 3)
        batched = self._forward_levels(stage, xs)
        for i in range(3):
            alone = self._forward_levels(
                stage, [Tensor(x.data[i:i + 1]) for x in xs])
            for got, want in zip(batched, alone, strict=True):
                assert got.data[i:i + 1].shape == want.shape
                assert got.data[i:i + 1].tobytes() == want.data.tobytes()

    def test_seed_override_changes_random_params(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 1
dtype = f64

[msgrb]
channels = 4
params = random
""")
        inp = write_input(tmp_path)
        out1, out2 = str(tmp_path / "a.sept"), str(tmp_path / "b.sept")
        main(["forward", "--config", cfg, "--input", inp, "--output", out1])
        main(["forward", "--config", cfg, "--input", inp, "--output", out2,
              "--seed", "2"])
        a = sio.read_tensor(out1).data
        b = sio.read_tensor(out2).data
        assert not np.array_equal(a, b)


class TestCliProps:
    def test_all_pass_exit_0(self, capsys):
        assert main(["props"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["pass"] for r in records)
        assert {"suite", "property", "seed", "pass", "metric"} \
            == set(records[0])

    def test_filter_runs_single_suite(self, capsys):
        assert main(["props", "--filter", "spectral"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert records and all(r["suite"] == "spectral" for r in records)

    def test_injected_fault_reported_exit_1(self, capsys):
        assert main(["props", "--inject-fault", "modulate-sign"]) == 1
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        failing = {r["property"] for r in records if not r["pass"]}
        assert "parseval_modulated" in failing

    def test_unknown_filter_exit_2(self, capsys):
        assert main(["props", "--filter", "bogus"]) == 2


class TestCliGradcheck:
    def test_msgrb_and_ldconv_chainless_configs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 11
dtype = f64

[msgrb]
channels = 4
height = 8
width = 8
params = random
""")
        assert main(["gradcheck", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["modules"][0]["module"] == "msgrb0"
        params = {p["param"] for p in report["modules"][0]["params"]}
        assert "shrink_w" in params

    def test_requires_f64(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[chain]
dtype = f32

[msgrb]
channels = 4
params = random
""")
        assert main(["gradcheck", "--config", cfg]) == 2


class TestCliBench:
    def test_record_per_module_and_schema(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 2
dtype = f64

[msgrb]
channels = 4
height = 8
width = 8
params = random

[dysample]
channels = 4
height = 8
width = 8
params = zeros
""")
        assert main(["bench", "--config", cfg, "--repeats", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["modules"]) == 2
        assert {"module", "median_ms", "min_ms", "input_shape"} \
            == set(report["modules"][0])

    def test_too_few_repeats_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        assert main(["bench", "--config", cfg, "--repeats", "1"]) == 2


class TestDeterminism:
    def test_forward_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
[chain]
seed = 77
dtype = f64

[fddem]
channels = 4
height = 8
width = 8
params = random

[msgrb]
channels = 4
height = 8
width = 8
params = random
""")
        inp = write_input(tmp_path, seed=99)
        out1, out2 = str(tmp_path / "r1.sept"), str(tmp_path / "r2.sept")
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", out1]) == 0
        stats1 = json.loads(capsys.readouterr().out)
        assert main(["forward", "--config", cfg, "--input", inp,
                     "--output", out2]) == 0
        stats2 = json.loads(capsys.readouterr().out)
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        stats1.pop("wall_ms")
        stats2.pop("wall_ms")
        assert stats1 == stats2

    def test_props_output_identical_across_runs(self, capsys):
        main(["props", "--filter", "tensor"])
        first = capsys.readouterr().out
        main(["props", "--filter", "tensor"])
        assert capsys.readouterr().out == first
