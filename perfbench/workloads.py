"""The benchmark's three workloads: set-up, one request, and its check.

Every workload draws its inputs from a fixed pool of entries.  Entry j is a
pure function of (workload, j), so reference values for each entry can be
stored in `reference.json`; the run seed fixes the order in which a run
walks the pool.  The library receives the generated inputs and the
`params = random` parameters its own config builder makes, nothing else.

All calls into sepkit go through module attributes (`sio.read_tensor`,
`config.build_chain`, ...) so that the tracer in `tracing.py` can wrap
them from outside.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from sepkit import autodiff as ad
from sepkit import ca2neck as neck
from sepkit import cli
from sepkit import config
from sepkit import io as sio
from sepkit import params as sparams
from sepkit.rng import Stream, derive_seed
from sepkit.tensor import Tensor

POOL = 8            # input sets per workload, each with stored references
PROJECTIONS = 8     # seeded Gaussian projections per checked array
_PROJECTION_SEED = 0x5E9B

# Allowed deviation of an f32 output from the f64 reference, as a share of
# the reference's L2 norm (per projection and for the norm itself).  At
# this commit the f32 outputs deviate by at most 6e-7 (fddem_infer) and
# 4e-6 (neck_train), and routing the DFT through numpy's pocketfft moves
# fddem_infer by 6e-7, so correct reorderings stay far inside the bound;
# the `modulate-sign` fault moves each fddem_infer map by 0.5-2.3x its norm.
TOLERANCE = 2e-4

# gradcheck's own certification threshold (README, acceptance gate)
CERTIFY_MAX_REL_ERR = 1e-4


def _entry_rng(tag: int, entry: int) -> np.random.Generator:
    return np.random.default_rng([tag, entry])


def _features(rng: np.random.Generator, shape, dtype: str) -> np.ndarray:
    # drawn in f32 for every dtype, so the f64 reference sees the same values
    x = rng.standard_normal(shape, dtype=np.float32)
    return x.astype(np.float64) if dtype == "f64" else x


def projection_matrix(key: str, size: int) -> np.ndarray:
    """Seeded (PROJECTIONS, size) Gaussian matrix for the array named `key`."""
    rng = np.random.default_rng([_PROJECTION_SEED, zlib.crc32(key.encode())])
    return rng.standard_normal((PROJECTIONS, size))


def summarize_array(arr: np.ndarray, proj: np.ndarray) -> dict:
    """L2 norm and projections of one output: what reference.json stores."""
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    return {"norm": float(np.linalg.norm(flat)),
            "proj": [float(v) for v in proj @ flat]}


def deviation(arr: np.ndarray, proj: np.ndarray, ref: dict) -> float:
    """Largest projection or norm deviation as a share of the reference norm."""
    got = summarize_array(arr, proj)
    diffs = [abs(got["norm"] - ref["norm"])]
    diffs += [abs(a - b) for a, b in zip(got["proj"], ref["proj"])]
    return max(diffs) / max(ref["norm"], 1e-30)


def _load_config(workdir: str, name: str, text: str):
    """Parse a config file as the CLI does; returns (seed, built chain)."""
    path = os.path.join(workdir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    cfg = config.parse_config(path)
    return cfg.seed, config.build_chain(cfg, cfg.seed)


class _ArrayWorkload:
    """Shared check for workloads whose outputs are named arrays."""

    name = ""
    pool = POOL

    def __init__(self):
        self.shapes: dict = {}
        self.projections: dict = {}

    def _expect(self, key: str, shape) -> None:
        size = int(np.prod(shape))
        self.shapes[key] = tuple(shape)
        self.projections[key] = projection_matrix(f"{self.name}/{key}", size)

    def reference_record(self, result: dict) -> dict:
        return {key: summarize_array(result[key], self.projections[key])
                for key in self.shapes}

    def check(self, result: dict, ref: dict):
        """Returns (errors, worst relative deviation)."""
        errors = []
        worst = 0.0
        if set(result) != set(self.shapes):
            missing = sorted(set(self.shapes) - set(result))
            extra = sorted(set(result) - set(self.shapes))
            return [f"outputs differ: missing {missing}, extra {extra}"], 0.0
        for key, shape in self.shapes.items():
            arr = result[key]
            if arr.shape != shape:
                errors.append(f"{key}: shape {arr.shape}, expected {shape}")
                continue
            if not np.isfinite(arr).all():
                errors.append(f"{key}: non-finite values")
                continue
            dev = deviation(arr, self.projections[key], ref[key])
            worst = max(worst, dev)
            if not dev <= TOLERANCE:
                errors.append(f"{key}: deviates {dev:.3e} from the reference "
                              f"(tolerance {TOLERANCE:.0e})")
        return errors, worst


class FddemInfer(_ArrayWorkload):
    """f32 fddem_forward without a tape on four P4/P5 maps, file to file."""

    name = "fddem_infer"
    tag = 1
    channels = 16
    # P4/P5 maps of a 640-px image (non-power-of-two planes) and of a
    # 1024-px image (power-of-two planes)
    maps = (("p4_640", 40), ("p5_640", 20), ("p4_1024", 64), ("p5_1024", 32))
    config_seed = 640

    def __init__(self, workdir: str, dtype: str = "f32"):
        super().__init__()
        self.dir = workdir
        self.stages = {}
        for key, hw in self.maps:
            text = (f"[chain]\nseed = {self.config_seed}\ndtype = {dtype}\n\n"
                    f"[fddem]\nchannels = {self.channels}\nheight = {hw}\n"
                    f"width = {hw}\nbranches = 3\nreduction = 4\n"
                    f"params = random\n")
            self.stages[key] = _load_config(workdir, f"fddem_{key}",
                                            text)[1][0]
            self._expect(key, (1, self.channels, hw, hw))
        for j in range(self.pool):
            rng = _entry_rng(self.tag, j)
            for key, hw in self.maps:
                x = _features(rng, (1, self.channels, hw, hw), dtype)
                sio.write_tensor(self._in_path(j, key),
                                 Tensor(x, copy=False))

    def _in_path(self, entry: int, key: str) -> str:
        return os.path.join(self.dir, f"in{entry}_{key}.sept")

    def warmup(self) -> None:
        self.request(0)

    def request(self, entry: int) -> dict:
        out = {}
        for key, _ in self.maps:
            x = sio.read_tensor(self._in_path(entry, key))
            y = self.stages[key].forward(x)
            sio.write_tensor(os.path.join(self.dir, f"out_{key}.sept"), y)
            out[key] = y.data
        return out


class NeckTrain(_ArrayWorkload):
    """f32 ca2neck forward plus Tape.backward over an 80/40/20 pyramid."""

    name = "neck_train"
    tag = 2
    channels = (16, 32, 64)
    size = 80           # level-0 side of a 640-px input at stride 8
    config_seed = 641

    def __init__(self, workdir: str, dtype: str = "f32"):
        super().__init__()
        text = (f"[chain]\nseed = {self.config_seed}\ndtype = {dtype}\n\n"
                f"[ca2neck]\nchannels = {','.join(map(str, self.channels))}\n"
                f"height = {self.size}\nwidth = {self.size}\n"
                f"params = random\n")
        self.stage = _load_config(workdir, "ca2neck", text)[1][0]
        self.inputs = []
        for j in range(self.pool):
            rng = _entry_rng(self.tag, j)
            levels = [_features(rng, s, dtype) for s in self.stage.in_shape]
            # cotangents weighting each output level in the scalar loss
            cots = [_features(rng, s, dtype) for s in self.stage.out_shape]
            self.inputs.append((levels, cots))
        for lvl, shape in enumerate(self.stage.out_shape):
            self._expect(f"out.level{lvl}", shape)
        for pname, arr in sparams.named_arrays(self.stage.params).items():
            self._expect(f"grad.{pname}", arr.shape)

    def warmup(self) -> None:
        self.request(0)

    def request(self, entry: int) -> dict:
        levels, cots = self.inputs[entry]
        tape = ad.Tape()
        live = sparams.lift(self.stage.params, tape)
        outs = neck.ca2neck_forward([ad.Var(x) for x in levels], live)
        loss = None
        for o, c in zip(outs, cots):
            term = ad.sum_all(ad.mul(o, c))
            loss = term if loss is None else ad.add(loss, term)
        grads = tape.backward(loss)
        result = {f"out.level{i}": o.value for i, o in enumerate(outs)}
        result.update({f"grad.{k}": g for k, g in grads.items()})
        return result


# The acceptance gate's four single-block gradient-certification configs.
# The composed ca2neck config is left out: it takes 23-30 s per run.
CERTIFY_CONFIGS = {
    "fddem": "[chain]\nseed = 101\ndtype = f64\n\n[fddem]\nchannels = 4\n"
             "height = 8\nwidth = 8\nbranches = 3\nreduction = 2\n"
             "params = random\n",
    "msgrb": "[chain]\nseed = 102\ndtype = f64\n\n[msgrb]\nchannels = 4\n"
             "height = 8\nwidth = 8\nparams = random\n",
    "ldconv": "[chain]\nseed = 103\ndtype = f64\n\n[ldconv]\nin_channels = 2\n"
              "out_channels = 3\npoints = 5\nstride = 2\nheight = 8\n"
              "width = 8\nparams = random\n",
    "dysample": "[chain]\nseed = 104\ndtype = f64\n\n[dysample]\n"
                "channels = 2\nheight = 8\nwidth = 8\nscale = 2\n"
                "params = random\n",
}


class Certify:
    """f64 gradient certification of the four single-block configs."""

    name = "certify"
    # The gate's own cases only: on other random inputs the gate's absolute
    # floor (1e-7) lets central-difference round-off on gradients near 3e-7
    # exceed 1e-4 although the analytic gradient is right (NOTES.md).
    pool = 1

    def __init__(self, workdir: str, dtype: str = "f64"):
        # `dtype` only keeps the constructors alike: certification is f64
        self.stages = {}
        self.seeds = {}
        self.inputs = {}
        for kind, text in CERTIFY_CONFIGS.items():
            seed, chain = _load_config(workdir, f"certify_{kind}", text)
            self.stages[kind] = chain[0]
            self.seeds[kind] = seed
            # the input `sepkit gradcheck` synthesizes for this config
            rng = Stream(derive_seed(seed, 7919))
            self.inputs[kind] = Tensor(rng.normal(chain[0].in_shape),
                                       copy=False)

    def warmup(self) -> None:
        # one forward per block; a whole certification takes seconds
        for kind, stage in self.stages.items():
            stage.forward(self.inputs[kind])

    def request(self, entry: int) -> dict:
        return {kind: cli.stage_gradcheck(stage, self.inputs[kind],
                                          self.seeds[kind])
                for kind, stage in self.stages.items()}

    def reference_record(self, result: dict) -> dict:
        return {kind: [p.param for p in report.params]
                for kind, report in result.items()}

    def check(self, result: dict, ref: dict):
        errors = []
        worst = 0.0
        for kind, names in ref.items():
            report = result.get(kind)
            if report is None:
                errors.append(f"{kind}: no report")
                continue
            got = [p.param for p in report.params]
            if got != names:
                errors.append(f"{kind}: certified {got}, expected {names}")
            for p in report.params:
                worst = max(worst, p.max_rel_err)
                if not (p.passed and p.max_rel_err <= CERTIFY_MAX_REL_ERR):
                    errors.append(f"{kind}.{p.param}: max_rel_err "
                                  f"{p.max_rel_err:.3e} > "
                                  f"{CERTIFY_MAX_REL_ERR:.0e}")
        return errors, worst


WORKLOADS = {cls.name: cls for cls in (FddemInfer, NeckTrain, Certify)}
