"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Seeds are fixed so every number here reproduces exactly.
"""

import json
import time

import numpy as np

from sepkit import (DysampleParams, FddemParams, LdconvParams, MsgrbParams,
                    Tensor, dysample_forward, fddem_forward, ldconv_forward,
                    msgrb_forward)
from sepkit import ca2neck as neck
from sepkit import io as sio
from sepkit import spectral
from sepkit.cli import main
from sepkit.rng import Stream, derive_seed

from oracles import bilinear_resize, clamped_conv3x3, conv2d_naive, \
    dft2_literal

BASE_SEED = 20260810


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_fft_round_trip_100_planes():
    sizes = [4, 8, 16, 32, 64, 5, 7, 12, 20, 27, 33, 48, 63]
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        h = sizes[i % len(sizes)]
        w = sizes[(i * 7 + 3) % len(sizes)]
        x = Stream(derive_seed(BASE_SEED, i)).normal((1, 1, h, w))
        back = spectral.dft2_raw(spectral.dft2_raw(x), inverse=True)
        worst = max(worst, float(np.abs(back.real - x).max()))
    elapsed = time.perf_counter() - start
    report("fft-round-trip",
           worst <= 1e-10 and elapsed < 10.0,
           f"max abs err {worst:.3e} (tol 1e-10), {elapsed:.2f}s of 10s "
           f"over 100 planes")


def test_dft_matches_literal_oracle():
    worst = 0.0
    for n in (4, 7, 8, 12, 16, 32):
        x = Stream(derive_seed(BASE_SEED, 1000 + n)).normal((1, 1, n, n))
        ref = dft2_literal(x[0, 0])
        naive = spectral.dft2_raw(x, force_naive=True)[0, 0]
        fast = spectral.dft2_raw(x)[0, 0]
        worst = max(worst, float(np.abs(naive - ref).max()),
                    float(np.abs(fast - ref).max()))
    report("dft-oracle-equivalence", worst <= 1e-10,
           f"max abs err {worst:.3e} vs literal double-loop oracle "
           f"(tol 1e-10), sizes 4/7/8/12/16/32")


def test_parseval_100_planes():
    sizes = [4, 7, 8, 12, 16, 27, 32, 48, 64]
    worst = 0.0
    for i in range(100):
        h = sizes[i % len(sizes)]
        w = sizes[(i * 5 + 2) % len(sizes)]
        x = Stream(derive_seed(BASE_SEED, 2000 + i)).normal((1, 1, h, w))
        s = spectral.dft2_raw(x)
        spatial = float((x ** 2).sum())
        freq = float((np.abs(s) ** 2).sum()) / (h * w)
        worst = max(worst, abs(spatial - freq) / abs(spatial))
    report("parseval", worst <= 1e-9,
           f"max rel err {worst:.3e} (tol 1e-9) over 100 planes")


def test_identity_at_initialization():
    rng = Stream(derive_seed(BASE_SEED, 3000))
    x = rng.normal((1, 4, 8, 8))

    fddem_err = float(np.abs(
        fddem_forward(x, FddemParams.init(4, 8, 8)).value - x).max())
    msgrb_err = float(np.abs(
        msgrb_forward(x, MsgrbParams.init(4)).value - x).max())

    xd = rng.normal((1, 3, 6, 6))
    dys_err = float(np.abs(
        dysample_forward(xd, DysampleParams.init(3)).value
        - bilinear_resize(xd, 2)).max())

    kernel = rng.normal((3, 2, 3, 3))
    xl = rng.normal((1, 2, 8, 8))
    y = ldconv_forward(xl, LdconvParams.from_conv_kernel(kernel))
    ld_err = float(np.abs(y.value[:, :, 1:-1, 1:-1]
                          - conv2d_naive(xl, kernel, padding=1)
                          [:, :, 1:-1, 1:-1]).max())
    ld_border_err = float(np.abs(y.value - clamped_conv3x3(xl, kernel)).max())

    ok = (fddem_err <= 1e-12 and msgrb_err == 0.0 and dys_err <= 1e-10
          and ld_err <= 1e-10 and ld_border_err <= 1e-10)
    report("identity-at-initialization", ok,
           f"fddem {fddem_err:.1e} (tol 1e-12), msgrb {msgrb_err:.1e} "
           f"(exact), dysample-vs-resize {dys_err:.1e} (tol 1e-10), "
           f"ldconv-vs-conv3x3 {ld_err:.1e} (tol 1e-10)")


GRADCHECK_CONFIGS = {
    "fddem": """
[chain]
seed = 101
dtype = f64

[fddem]
channels = 4
height = 8
width = 8
branches = 3
reduction = 2
params = random
""",
    "msgrb": """
[chain]
seed = 102
dtype = f64

[msgrb]
channels = 4
height = 8
width = 8
params = random
""",
    "ldconv": """
[chain]
seed = 103
dtype = f64

[ldconv]
in_channels = 2
out_channels = 3
points = 5
stride = 2
height = 8
width = 8
params = random
""",
    "dysample": """
[chain]
seed = 104
dtype = f64

[dysample]
channels = 2
height = 8
width = 8
scale = 2
params = random
""",
    "ca2neck": """
[chain]
seed = 105
dtype = f64

[ca2neck]
channels = 4,8,16
height = 8
width = 8
params = random
""",
}


def test_gradient_certification(tmp_path, capsys):
    start = time.perf_counter()
    worst = {}
    for name, text in GRADCHECK_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        code = main(["gradcheck", "--config", str(cfg)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, f"{name} gradcheck exited {code}: {out}"
        worst[name] = max(p["max_rel_err"]
                          for m in out["modules"] for p in m["params"])
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 300.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report("gradient-certification", ok,
           f"max rel err per module (tol 1e-4): {detail}; "
           f"{elapsed:.1f}s of 300s")


def test_scope_factor_bound():
    worst = 0.0
    exact = True
    for bias in (-1.0, -0.5, 0.25, 0.5, 1.0):
        p = DysampleParams.init(2, scale=2)
        p.offset_b = np.full_like(p.offset_b, bias)
        x = Stream(derive_seed(BASE_SEED, 4000)).normal((1, 2, 4, 4))
        grid = neck.dysample_grid(x, p)
        base = neck.dysample_base_grid(4, 4, 2, 1)
        dev = float(np.abs(grid.value - base).max())
        exact = exact and dev == p.scope * abs(bias)
        worst = max(worst, dev)
    # clamped random head stays inside the scope radius too
    p = DysampleParams.init(2, scale=2, rng=Stream(derive_seed(BASE_SEED,
                                                               4001)))
    x = Stream(derive_seed(BASE_SEED, 4002)).normal((1, 2, 4, 4))
    raw = neck.dysample_offsets(x, p)
    grid = neck.dysample_grid_from_offsets(np.clip(raw.value, -1, 1), 4, 4, p)
    clamped_dev = float(np.abs(grid.value
                               - neck.dysample_base_grid(4, 4, 2, 1)).max())
    ok = exact and worst == 0.25 and clamped_dev <= 0.25
    report("scope-factor-bound", ok,
           f"max deviation {worst} == scope 0.25 exactly; clamped random "
           f"head {clamped_dev:.4f} <= 0.25")


def test_ldconv_linear_parameter_growth():
    counts = {}
    for n in (1, 5, 9, 13):
        p = LdconvParams.init(3, 7, n_points=n, stride=2)
        counts[n] = p.weights_per_output_channel
    ok = all(counts[n] == 3 * n for n in counts)
    report("ldconv-linear-growth", ok,
           f"stored weights per output channel {counts} == C_in*N")


def test_performance_fast_vs_naive(tmp_path, capsys):
    # 40x40 is a detector-neck map size that is not a power of two
    lines = []
    ok = True
    for n in (64, 40):
        cfg = tmp_path / f"bench{n}.cfg"
        cfg.write_text(f"""
[chain]
seed = 7
dtype = f32

[fft2]
channels = 8
height = {n}
width = {n}
path = fast

[fft2]
channels = 8
height = {n}
width = {n}
path = naive
""")
        assert main(["bench", "--config", str(cfg), "--repeats", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        medians = {m["module"]: m["median_ms"] for m in out["modules"]}
        ratio = medians["fft2-naive1"] / medians["fft2-fast0"]
        ok = ok and ratio >= 10.0
        lines.append(f"fast path {medians['fft2-fast0']:.2f} ms vs naive "
                     f"{medians['fft2-naive1']:.2f} ms, ratio {ratio:.1f}x "
                     f">= 10x at 1x8x{n}x{n} f32")
    report("performance-sanity", ok, "; ".join(lines))


def test_determinism(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("""
[chain]
seed = 4242
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

[dysample]
channels = 4
height = 8
width = 8
params = random
""")
    inp = str(tmp_path / "in.sept")
    sio.write_tensor(inp, Tensor(Stream(derive_seed(BASE_SEED, 5000))
                                 .normal((1, 4, 8, 8))))
    out1, out2 = str(tmp_path / "a.sept"), str(tmp_path / "b.sept")
    assert main(["forward", "--config", str(cfg), "--input", inp,
                 "--output", out1]) == 0
    stats1 = json.loads(capsys.readouterr().out)
    assert main(["forward", "--config", str(cfg), "--input", inp,
                 "--output", out2]) == 0
    stats2 = json.loads(capsys.readouterr().out)
    bytes_equal = open(out1, "rb").read() == open(out2, "rb").read()
    stats1.pop("wall_ms")
    stats2.pop("wall_ms")

    main(["props", "--filter", "spectral"])
    props1 = capsys.readouterr().out
    main(["props", "--filter", "spectral"])
    props2 = capsys.readouterr().out

    ok = bytes_equal and stats1 == stats2 and props1 == props2
    report("determinism", ok,
           f"byte-identical tensors {bytes_equal}, stable non-timing JSON "
           f"{stats1 == stats2}, stable props output {props1 == props2}")
