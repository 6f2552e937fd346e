import json
import os
import struct

import numpy as np
import pytest

from sepkit import (ComplexTensor, DimensionError, MsgrbParams, ParamStore,
                    Tensor)
from sepkit import io as sio
from sepkit.cli import main
from sepkit.config import parse_config
from sepkit.errors import ConfigError
from sepkit.params import ParamStore as PS
from sepkit.params import named_arrays
from sepkit.rng import Stream


def rand_tensor(seed, shape, dtype="f64"):
    data = Stream(seed).normal(shape)
    return Tensor(data, dtype=dtype)


class TestTensorFormat:
    def test_header_layout(self, tmp_path):
        t = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        path = str(tmp_path / "t.sept")
        sio.write_tensor(path, t)
        raw = open(path, "rb").read()
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
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(DimensionError):
            sio.read_tensor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "t.sept")
        open(path, "wb").write(b"NOPE" + b"\x00" * 60)
        with pytest.raises(DimensionError):
            sio.read_tensor(path)


class TestComplexFormat:
    def test_round_trip(self, tmp_path):
        re, im = rand_tensor(2, (1, 2, 4, 4)), rand_tensor(3, (1, 2, 4, 4))
        path = str(tmp_path / "s.sepc")
        sio.write_complex(path, ComplexTensor(re, im))
        back = sio.read_complex(path)
        assert np.array_equal(back.re.data, re.data)
        assert np.array_equal(back.im.data, im.data)
        assert open(path, "rb").read()[:4] == b"SEPC"


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
        assert open(path, "rb").read()[:4] == b"SEPP"

    def test_module_params_round_trip(self, tmp_path):
        p = MsgrbParams.random(4, Stream(7))
        store = PS.from_params(p)
        path = str(tmp_path / "m.sepp")
        sio.write_params(path, store)
        rebuilt = sio.read_params(path).to_params(MsgrbParams.identity(4))
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(rebuilt)[name], arr), name

    def test_fddem_complex_weights_round_trip(self, tmp_path):
        from sepkit import FddemParams
        p = FddemParams.random(4, 8, 8, Stream(8))
        path = str(tmp_path / "f.sepp")
        sio.write_params(path, PS.from_params(p))
        rebuilt = sio.read_params(path).to_params(
            FddemParams.identity(4, 8, 8))
        assert rebuilt.branches[0].re.shape == (4, 8, 8)
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(rebuilt)[name], arr), name


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


def write_cfg(tmp_path, text, name="chain.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_input(tmp_path, seed=0, shape=(1, 4, 8, 8), dtype="f64",
                name="in.sept"):
    path = str(tmp_path / name)
    sio.write_tensor(path, rand_tensor(seed, shape, dtype))
    return path


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
        a = open(inp, "rb").read()
        b = open(out, "rb").read()
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

    def test_missing_input_exits_2_and_names_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IDENTITY_MSGRB)
        missing = str(tmp_path / "nope.sept")
        assert main(["forward", "--config", cfg, "--input", missing,
                     "--output", str(tmp_path / "o.sept")]) == 2
        assert "nope.sept" in capsys.readouterr().err

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
        p = MsgrbParams.random(4, Stream(60))
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
        expected = msgrb_forward(sio.read_tensor(inp), p)
        assert np.array_equal(sio.read_tensor(out).data, expected.data)

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
        assert open(out1, "rb").read() == open(out2, "rb").read()
        stats1.pop("wall_ms")
        stats2.pop("wall_ms")
        assert stats1 == stats2

    def test_props_output_identical_across_runs(self, capsys):
        main(["props", "--filter", "tensor"])
        first = capsys.readouterr().out
        main(["props", "--filter", "tensor"])
        assert capsys.readouterr().out == first

    def test_threads_env_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEP_THREADS", "0")
        assert main(["props", "--filter", "tensor"]) == 2
        monkeypatch.setenv("SEP_THREADS", "1")
        assert main(["props", "--filter", "tensor"]) == 0
