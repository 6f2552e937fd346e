"""Command-line front end.

Commands: `forward` (run a configured chain on a tensor file), `props`
(run the registered property catalog), `gradcheck` (certify every
parameter of a configured chain against central differences), and `bench`
(per-stage wall times).  All reports are JSON on stdout with the seed
echoed; errors go to stderr with exit codes 2 (config/arguments, or a
named path that cannot be opened), 3 (shape or malformed file), 4
(numerics), 1 (a property or tolerance failure).

Every stage runs through the `config.STAGES` table, so these commands
know no stage kind by name; a pyramid stage reads and writes one
`level<i>.sept` file per level.  Runs are single-threaded and
bit-deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import autodiff as ad
from . import io as sio
from . import props as sprops
from .config import STAGES, build_chain, parse_config
from .errors import ConfigError, DimensionError, NumericError
from .params import named_arrays, replace_vars
from .rng import Stream, derive_seed
from .tensor import DTYPES, Tensor

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4

_LEVEL_FILES = ("level0.sept", "level1.sept", "level2.sept")


def _load_config(args):
    cfg = parse_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    return cfg, seed


def _synth_input(stage, seed: int, dtype: str):
    """Seeded normal input of the stage's declared shape, one per level."""
    rng = Stream(derive_seed(seed, 7919))

    def draw(shape):
        return Tensor(rng.normal(shape).astype(DTYPES[dtype]), copy=False)

    if STAGES[stage.kind].pyramid:
        return [draw(shape) for shape in stage.in_shape]
    return draw(stage.in_shape)


def _read_chain_input(chain, path: str):
    pyramid = STAGES[chain[0].kind].pyramid
    paths = ([os.path.join(path, f) for f in _LEVEL_FILES] if pyramid
             else [path])
    for fpath in paths:
        if not os.path.exists(fpath):
            raise ConfigError(f"input file not found: {fpath}")
    levels = [sio.read_tensor(fpath) for fpath in paths]
    return levels if pyramid else levels[0]


def _check_chain_input(chain, x, dtype: str):
    first = chain[0]
    if STAGES[first.kind].pyramid:
        levels, expected = x, first.in_shape
    else:
        levels, expected = [x], (first.in_shape,)
    shapes = tuple(t.shape for t in levels)
    if shapes != expected:
        raise DimensionError(
            f"input shapes {shapes} do not match configured {expected}")
    bad = [t.dtype for t in levels if t.dtype != dtype]
    if bad:
        raise DimensionError(
            f"input dtype {bad[0]} does not match configured {dtype}")


def _stats(value, wall_ms: float, seed: int) -> dict:
    if isinstance(value, list):
        arrays = [t.data for t in value]
        flat = np.concatenate([a.reshape(-1) for a in arrays])
        shape = [list(a.shape) for a in arrays]
    else:
        flat = value.data.reshape(-1)
        shape = list(value.shape)
    return {
        "shape": shape,
        "min": float(flat.min()),
        "max": float(flat.max()),
        "mean": float(flat.mean()),
        "l2": float(np.linalg.norm(flat)),
        "wall_ms": wall_ms,
        "seed": seed,
    }


def cmd_forward(args) -> int:
    cfg, seed = _load_config(args)
    chain = build_chain(cfg, seed)
    x = _read_chain_input(chain, args.input)
    _check_chain_input(chain, x, cfg.dtype)
    start = time.perf_counter()
    value = x
    for stage in chain:
        value = stage.forward(value)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if STAGES[chain[0].kind].pyramid:
        os.makedirs(args.output, exist_ok=True)
        for fname, level in zip(_LEVEL_FILES, value):
            sio.write_tensor(os.path.join(args.output, fname), level)
    else:
        sio.write_tensor(args.output, value)
    print(sio.render_json(_stats(value, wall_ms, seed)))
    return EXIT_OK


def cmd_props(args) -> int:
    results = sprops.run_properties(filter_suite=args.filter, seed=args.seed,
                                    inject_fault=args.inject_fault)
    for r in results:
        print(sio.render_json(r.as_dict()))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_gradcheck(args) -> int:
    cfg, seed = _load_config(args)
    if cfg.dtype != "f64":
        raise ConfigError("gradcheck requires dtype = f64")
    chain = build_chain(cfg, seed)
    reports = []
    ok = True
    for stage in chain:
        if stage.params is None:
            continue
        report = stage_gradcheck(stage, _synth_input(stage, seed, "f64"),
                                 seed)
        ok = ok and report.passed
        reports.append({"module": stage.name, **report.as_dict()})
    payload = {"seed": seed, "pass": ok, "modules": reports}
    print(sio.render_json(payload))
    return EXIT_OK if ok else EXIT_FAIL


def stage_gradcheck(stage, x, seed: int) -> ad.GradReport:
    """Certify every parameter of one built stage on the given input.

    Every block maps each sample on its own, so the loss is a sum of
    per-sample terms: for each sample in batch order, the sum of its
    output on each level in order, added left to right.  The taped
    closure runs one batched forward and splits each output along the
    batch axis.  Each group of K perturbation rows runs one forward per
    sample, the group's parameters stacked and every other one passed as
    the array gradcheck holds: the one-sample slice is shared by all K
    weights, so only the work the stacked parameters reach runs K times.
    An output none of them reaches keeps one sample, whose sum serves
    every row."""
    forward = STAGES[stage.kind].forward
    pyramid = isinstance(x, list)
    levels = [t.data for t in x] if pyramid else [x.data]
    n = len(levels[0])

    def run(params, inputs):
        out = forward(inputs if pyramid else inputs[0], params, stage.options)
        return out if isinstance(out, list) else [out]

    def fn(leaves):
        outs = run(replace_vars(stage.params, leaves),
                   [ad.Var(a) for a in levels])
        samples = [ad.split(o, [1] * n, axis=0) for o in outs]
        terms = [ad.sum_all(level[i]) for i in range(n) for level in samples]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total

    def losses(params, stacks):
        live = replace_vars(stage.params, {
            **params, **{k: ad.Var(v) for k, v in stacks.items()}})
        # K row sums, or one for an output no stacked parameter reaches
        sums = [o.value.reshape(len(o.value), -1).sum(axis=1)
                for i in range(n)
                for o in run(live, [a[i:i + 1] for a in levels])]
        k = len(next(iter(stacks.values())))
        return np.broadcast_to(sum(sums[1:], sums[0]), (k,))

    return ad.gradcheck(fn, named_arrays(stage.params),
                        seed=derive_seed(seed, 13), losses=losses)


def cmd_bench(args) -> int:
    if args.repeats < 3:
        raise ConfigError(f"bench needs repeats >= 3, got {args.repeats}")
    cfg, seed = _load_config(args)
    chain = build_chain(cfg, seed)
    value = _synth_input(chain[0], seed, cfg.dtype)
    records = []
    for stage in chain:
        times = []
        stage.forward(value)  # warmup
        for _ in range(args.repeats):
            start = time.perf_counter()
            out = stage.forward(value)
            times.append((time.perf_counter() - start) * 1000.0)
        if STAGES[stage.kind].pyramid:
            shape = [list(t.shape) for t in value]
        else:
            shape = list(value.shape)
        records.append({
            "module": stage.name,
            "median_ms": float(np.median(times)),
            "min_ms": float(min(times)),
            "input_shape": shape,
        })
        value = out
    print(sio.render_json({"seed": seed, "repeats": args.repeats,
                           "modules": records}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Frequency-enhancement, gated-refinement, and "
                    "alignment-neck operators with oracle-grade checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="run a configured chain on a tensor")
    fwd.add_argument("--config", required=True)
    fwd.add_argument("--input", required=True)
    fwd.add_argument("--output", required=True)
    fwd.add_argument("--seed", type=int, default=None)
    fwd.set_defaults(fn=cmd_forward)

    pr = sub.add_parser("props", help="run the registered property catalog")
    pr.add_argument("--filter", default=None,
                    help="run a single suite (e.g. spectral)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--inject-fault", default=None, choices=sprops.FAULTS,
                    help="test-only: enable a named deliberate defect")
    pr.set_defaults(fn=cmd_props)

    gc = sub.add_parser("gradcheck",
                        help="finite-difference certification of a chain")
    gc.add_argument("--config", required=True)
    gc.add_argument("--seed", type=int, default=None)
    gc.set_defaults(fn=cmd_gradcheck)

    be = sub.add_parser("bench", help="per-stage wall times for a chain")
    be.add_argument("--config", required=True)
    be.add_argument("--repeats", type=int, default=5)
    be.add_argument("--seed", type=int, default=None)
    be.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"sepkit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"sepkit: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionError as exc:
        print(f"sepkit: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NumericError as exc:
        print(f"sepkit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"sepkit: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
