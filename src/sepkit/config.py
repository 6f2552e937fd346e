"""Graph config files: a line-oriented chain description for the CLI.

Grammar (documented in the README):

    # full-line or trailing comments start with '#'
    [chain]                  # optional global section, must come first
    seed = 42                # default seed (overridable with --seed)
    dtype = f64              # f32 | f64, default f64

    [<module>]               # one section per chain stage, in order
    key = value

Module kinds and their keys (defaults in parentheses):

    msgrb     channels, height (8), width (8), batch (1), hidden (channels),
              params
    fddem     channels, height, width, batch (1), branches (3),
              reduction (4), params
    ldconv    in_channels, out_channels, points (5), stride (2),
              height (8), width (8), batch (1), params
    dysample  channels, scale (2), groups (1), scope (0.25), height (8),
              width (8), batch (1), params
    fft2      channels (1), height (64), width (64), batch (1),
              path (fast)            # fast | naive `dft2_raw` round trip
    ca2neck   channels (three comma-separated counts, shallow to deep),
              height (8), width (8), batch (1), points (5), scope (0.25),
              params

Counts and sizes are integers >= 1, `scope` is a finite number, and a
ca2neck's level-0 height and width are multiples of 4; a bad value is a
`ConfigError` naming its line as soon as the file is read.

`params` is one of `zeros` (the declared identity initialization),
`random` (seeded from the run seed and the module's position), or
`file:PATH` (a SEPP parameter file filling the identity template).  A
`ca2neck` stage consumes a 3-level pyramid and must be the only stage in
its chain.

Each kind is one entry of `STAGES`: its keys, its parameter builder (a
direct call of the parameter type's `init`), its forward and its shape
rule.  The CLI's `forward`, `gradcheck` and `bench` all run stages through
that table.  Declared sizes are used to synthesize inputs for `gradcheck`
and `bench` and to check that adjacent stages are shape-compatible before
anything runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from . import ca2neck as neck
from . import fddem as fd
from . import msgrb as ms
from . import spectral
from .errors import ConfigError, DimensionError
from .io import read_params
from .rng import Stream, derive_seed
from .tensor import DTYPES, Tensor, require_finite

_REQUIRED = object()


def _checked(convert, ok, expects: str):
    """A key parser: convert the raw text, then require ok(value)."""
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(expects) from None
        if not ok(value):
            raise ValueError(expects)
        return value
    return parse


_INT = _checked(int, lambda v: True, "an integer")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_LEVEL0 = _checked(int, lambda v: v >= 1 and v % 4 == 0,
                   "a positive multiple of 4")
_FINITE = _checked(float, math.isfinite, "a finite number")
_DTYPE = _checked(str, lambda v: v in DTYPES, "f32 or f64")
_PATH = _checked(str, lambda v: v in ("fast", "naive"), "fast or naive")
_SOURCE = _checked(str, lambda v: v in ("zeros", "random")
                   or v.startswith("file:"), "zeros, random, or file:PATH")
_TRIPLE = _checked(lambda raw: tuple(int(v) for v in raw.split(",")),
                   lambda v: len(v) == 3 and min(v) >= 1,
                   "three comma-separated integers >= 1")

_CHAIN_KEYS = {"seed": (0, _INT), "dtype": ("f64", _DTYPE)}
_PARAMS = {"params": ("zeros", _SOURCE)}


def _plane(height=8, width=8, parse=_COUNT) -> dict:
    return {"height": (height, parse), "width": (width, parse),
            "batch": (1, _COUNT)}


@dataclass(frozen=True)
class Stage:
    """One stage kind.

    `keys` maps each key to (default or _REQUIRED, parser).  With `o` the
    resolved options, `params(o, dtype, rng)` builds the parameters with
    the parameter type's `init(..., rng=rng, dtype=dtype)`; rng None gives
    the declared identity init, which is also the template a SEPP file
    fills.  `forward(x, params, o)` runs the stage on a `Var`
    and returns a `Var`, and `shapes(o)` gives (in_shape, out_shape).  A
    `pyramid` stage maps three levels to three.  Forwards look the block
    functions up at call time, so wrappers installed on the block modules
    see every call.
    """

    keys: dict
    params: object
    forward: object
    shapes: object
    pyramid: bool = False


def _same(o):
    shape = (o["batch"], o["channels"], o["height"], o["width"])
    return shape, shape


def _ldconv_shapes(o):
    n, h, w, s = o["batch"], o["height"], o["width"], o["stride"]
    return ((n, o["in_channels"], h, w),
            (n, o["out_channels"], math.ceil(h / s), math.ceil(w / s)))


def _dysample_shapes(o):
    n, c, h, w, s = (o["batch"], o["channels"], o["height"], o["width"],
                     o["scale"])
    return (n, c, h, w), (n, c, s * h, s * w)


def _pyramid_shapes(o):
    shapes = tuple((o["batch"], c, o["height"] >> i, o["width"] >> i)
                   for i, c in enumerate(o["channels"]))
    return shapes, shapes


def _fft2_forward(x, params, o):
    naive, w = o["path"] == "naive", x.shape[-1]
    require_finite(x.value, "fft2 input")
    spectrum = spectral.dft2_raw(x.value, force_naive=naive, width=w)
    return ad.Var(spectral.dft2_raw(spectrum, inverse=True,
                                    force_naive=naive, width=w))


STAGES = {
    "msgrb": Stage(
        keys={"channels": (_REQUIRED, _COUNT), "hidden": (None, _COUNT),
              **_plane(), **_PARAMS},
        params=lambda o, dtype, rng: ms.MsgrbParams.init(
            o["channels"], o["hidden"], rng=rng, dtype=dtype),
        forward=lambda x, p, o: ms.msgrb_forward(x, p),
        shapes=_same),
    "fddem": Stage(
        keys={"channels": (_REQUIRED, _COUNT), "branches": (3, _COUNT),
              "reduction": (4, _COUNT), **_plane(_REQUIRED, _REQUIRED),
              **_PARAMS},
        params=lambda o, dtype, rng: fd.FddemParams.init(
            o["channels"], o["height"], o["width"], o["branches"],
            o["reduction"], rng=rng, dtype=dtype),
        forward=lambda x, p, o: fd.fddem_forward(x, p),
        shapes=_same),
    "ldconv": Stage(
        keys={"in_channels": (_REQUIRED, _COUNT),
              "out_channels": (_REQUIRED, _COUNT), "points": (5, _COUNT),
              "stride": (2, _COUNT), **_plane(), **_PARAMS},
        params=lambda o, dtype, rng: neck.LdconvParams.init(
            o["in_channels"], o["out_channels"], o["points"], o["stride"],
            rng=rng, dtype=dtype),
        forward=lambda x, p, o: neck.ldconv_forward(x, p),
        shapes=_ldconv_shapes),
    "dysample": Stage(
        keys={"channels": (_REQUIRED, _COUNT), "scale": (2, _COUNT),
              "groups": (1, _COUNT), "scope": (neck.DEFAULT_SCOPE, _FINITE),
              **_plane(), **_PARAMS},
        params=lambda o, dtype, rng: neck.DysampleParams.init(
            o["channels"], o["scale"], o["groups"], o["scope"], rng=rng,
            dtype=dtype),
        forward=lambda x, p, o: neck.dysample_forward(x, p),
        shapes=_dysample_shapes),
    "fft2": Stage(
        keys={"channels": (1, _COUNT), "path": ("fast", _PATH),
              **_plane(64, 64)},
        params=None,
        forward=_fft2_forward,
        shapes=_same),
    "ca2neck": Stage(
        keys={"channels": (_REQUIRED, _TRIPLE), "points": (5, _COUNT),
              "scope": (neck.DEFAULT_SCOPE, _FINITE),
              **_plane(parse=_LEVEL0), **_PARAMS},
        params=lambda o, dtype, rng: neck.Ca2neckParams.init(
            o["channels"], o["points"], scope=o["scope"], rng=rng,
            dtype=dtype),
        forward=lambda x, p, o: neck.ca2neck_forward(x, p),
        shapes=_pyramid_shapes,
        pyramid=True),
}


@dataclass
class ModuleSpec:
    kind: str
    options: dict
    lineno: int


@dataclass
class GraphConfig:
    seed: int
    dtype: str
    modules: list


def _parse(keys: dict, key: str, raw: str, lineno: int):
    try:
        return keys[key][1](raw)
    except ValueError as exc:
        raise ConfigError(
            f"line {lineno}: {key} must be {exc}, got {raw!r}") from None


def _resolve(spec: ModuleSpec, keys: dict) -> dict:
    """Every key of a section: its parsed value or its default."""
    values = {}
    for key, (default, _) in keys.items():
        if key in spec.options:
            values[key] = _parse(keys, key, spec.options[key], spec.lineno)
        elif default is _REQUIRED:
            raise ConfigError(
                f"line {spec.lineno}: [{spec.kind}] requires key {key!r}")
        else:
            values[key] = default
    return values


def parse_config(path: str) -> GraphConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")

    chain = ModuleSpec("chain", {}, 0)
    modules: list[ModuleSpec] = []
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name == "chain":
                if section is not None:
                    raise ConfigError(
                        f"line {lineno}: [chain] must appear once, first")
                section = chain
            elif name in STAGES:
                section = ModuleSpec(name, {}, lineno)
                modules.append(section)
            else:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        keys = _CHAIN_KEYS if section is chain else STAGES[section.kind].keys
        if key not in keys:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{section.kind}]")
        if key in section.options:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} in [{section.kind}]")
        _parse(keys, key, value, lineno)
        section.options[key] = value

    if not modules:
        raise ConfigError("config declares no modules")
    if any(STAGES[m.kind].pyramid for m in modules) and len(modules) > 1:
        raise ConfigError("a ca2neck stage must be the only stage in a chain")
    settings = _resolve(chain, _CHAIN_KEYS)
    return GraphConfig(seed=settings["seed"], dtype=settings["dtype"],
                       modules=modules)


class ChainModule:
    """One built chain stage: resolved options, parameters and shapes."""

    def __init__(self, name, kind, options, params, in_shape, out_shape):
        self.name = name
        self.kind = kind
        self.options = options
        self.params = params
        self.in_shape = in_shape
        self.out_shape = out_shape

    def forward(self, x):
        """Run the stage on a `Tensor` (a list of three for a pyramid stage)
        and hand back read-only `Tensor`s of `out_shape`.  This is the one
        place where file values become `Var`s and back; the blocks below
        it take and return `Var`s only."""
        stage = STAGES[self.kind]
        if stage.pyramid:
            outs = stage.forward([ad.Var(t.data) for t in x], self.params,
                                 self.options)
            return [Tensor(o.value, copy=False) for o in outs]
        out = stage.forward(ad.Var(x.data), self.params, self.options)
        return Tensor(out.value, copy=False)


def _build_params(stage: Stage, o: dict, dtype, rng: Stream, lineno: int):
    seeded = o["params"] == "random"
    try:  # builders check rules the key parsers cannot, e.g. groups
        built = stage.params(o, dtype, rng if seeded else None)
    except DimensionError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None
    if not o["params"].startswith("file:"):
        return built
    path = o["params"][len("file:"):]
    try:
        return read_params(path, built)
    except KeyError as exc:
        raise ConfigError(
            f"line {lineno}: params file {path}: {exc.args[0]}") from None


def build_module(spec: ModuleSpec, index: int, cfg: GraphConfig,
                 seed: int) -> ChainModule:
    stage = STAGES[spec.kind]
    o = _resolve(spec, stage.keys)
    params = None
    if stage.params is not None:
        params = _build_params(stage, o, DTYPES[cfg.dtype],
                               Stream(derive_seed(seed, index)), spec.lineno)
    tag = f"-{o['path']}" if "path" in o else ""
    return ChainModule(f"{spec.kind}{tag}{index}", spec.kind, o, params,
                       *stage.shapes(o))


def build_chain(cfg: GraphConfig, seed: int) -> list:
    """Build every stage and verify adjacent declared shapes line up."""
    chain = [build_module(spec, i, cfg, seed)
             for i, spec in enumerate(cfg.modules)]
    for prev, cur in zip(chain, chain[1:]):
        if prev.out_shape != cur.in_shape:
            raise ConfigError(
                f"stage {prev.name} produces shape {prev.out_shape} but "
                f"stage {cur.name} expects {cur.in_shape}")
    return chain
