"""Reverse-mode differentiation over the operator set.

A `Tape` records operations in execution order (which is already
topological); `backward` walks the record once in reverse, accumulating
vector-Jacobian products into every named leaf.  Operations are plain
functions over `Var` values: if no input carries a tape the forward value
is computed and nothing is recorded, so the same code path serves both
inference and differentiation.  Accumulation order is fixed by the reverse
walk, which keeps single-threaded runs bit-deterministic.  A tape is single
use: `backward` frees each node's value, parents and vjp as it walks, so a
step's activations go with the step's last reference instead of waiting
for the cyclic garbage collector, and a second `backward` raises.  A
kernel op's vjp holds the residual its raw kernel returned (`tensor`: the
conv's columns, the bilinear plan, Φ(x) or σ(x)), freed with the node.

Values may be complex (the spectral ops hold half spectra).  Gradients
follow the convention of PyTorch: for a real loss L, the gradient of a
complex value z is dL/dRe(z) + j*dL/dIm(z), so the vjp of z = a*b hands a
the cotangent g*conj(b).  The spectral ops that cross between real and
complex values hand their real operands real gradients.

`gradcheck` certifies an analytic gradient against central differences
at the fixed step `EPS` and relative tolerance `TOL`, optionally on a
seeded coordinate subsample for large parameters, and reports
per-parameter absolute/relative error and cosine alignment.  A coordinate
whose difference carries too much round-off for the tolerance takes
Ridders' extrapolation over larger steps as its reference.  It
evaluates perturbations in stacks: a stack of a parameter is a
(K, *shape) array, each row of which moves one checked coordinate by
+EPS or -EPS.  Small parameters share stacks: one group of K rows maps
each of several parameters to a stack of K rows, and a row that
perturbs one of them holds the others at their values.  An evaluator
maps a group to its K losses.  The default one runs the closure once
per row; a batched one (the CLI's `stage_gradcheck`) runs one forward
per sample, in which each stacked parameter holds K weights.  They meet
the batch as numpy broadcasts it (`tensor.stack_count`): weight k meets
sample k of a batch of K, or all K share a batch of one sample and give
K samples, so work that no stacked parameter reaches runs once.  Ops
that take stacked weights (`conv2d`, `depthwise_conv2d`,
`fold_kernels`, and the spectral weight ops `modulate_v` and `mix_v`)
give each sample the bytes of its own unstacked call, and refuse to
record them on a tape.  The ops that meet a shared sample further on
(`add`, `mul`, `concat` and the input of `bilinear_sample`) broadcast
it against the K samples, and on a tape their vjps sum its gradient
over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .errors import DimensionError, NumericError
from .rng import Stream
from .tensor import require, require_finite


class Var:
    """A value tracked (or not) by a tape; wraps one real or complex ndarray
    of any shape."""

    __slots__ = ("value", "tape", "name")

    def __init__(self, value: np.ndarray, tape=None, name=None):
        self.value = np.asarray(value)
        self.tape = tape
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Var(shape={self.value.shape}{tag})"


@dataclass
class _Node:
    out: Var
    parents: tuple
    vjp: object  # callable grad -> tuple of parent grads (None allowed)
    op: str


class Tape:
    """Ordered record of executed operations plus the named leaves; one
    `backward` consumes it."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaves: dict[str, Var] = {}
        self._spent = False

    def leaf(self, value, name: str) -> Var:
        """Register a named learnable leaf on this tape."""
        if name in self._leaves:
            raise ValueError(f"duplicate leaf name {name!r}")
        v = Var(np.asarray(value), tape=self, name=name)
        require_finite(v.value, f"leaf {name!r}")
        self._leaves[name] = v
        return v

    def _record(self, value, parents, vjp, op: str) -> Var:
        out = Var(value, tape=self)
        self._nodes.append(_Node(out, tuple(parents), vjp, op))
        return out

    def backward(self, output: Var, seed=None) -> dict:
        """Accumulate gradients from `output` back to every named leaf.

        `seed` defaults to ones of the output shape.  Leaves that the
        output does not depend on receive zero gradients.
        """
        if not self._nodes:
            raise ValueError("cannot run backward on an empty tape")
        if self._spent:
            raise ValueError("backward already ran on this tape, which "
                             "freed its record; record the step again")
        if output.tape is not self:
            raise ValueError("output does not belong to this tape")
        if seed is None:
            seed = np.ones_like(output.value)
        else:
            seed = np.asarray(seed, dtype=output.value.dtype)
            require(seed.shape == output.value.shape,
                    f"seed shape {seed.shape} must match output shape "
                    f"{output.value.shape}")
        self._spent = True
        grads: dict[int, np.ndarray] = {id(output): seed}
        for node in reversed(self._nodes):
            g = grads.pop(id(node.out), None)
            parents, vjp = node.parents, node.vjp
            # drop the record as it is walked: the activations it holds
            # are freed by reference counting, without the cyclic GC
            node.out = node.parents = node.vjp = None
            if g is None:
                continue
            parent_grads = vjp(g)
            for parent, pg in zip(parents, parent_grads):
                if parent is None or parent.tape is None or pg is None:
                    continue  # constants need no gradient
                if pg.shape != parent.value.shape:
                    raise DimensionError(
                        f"gradient shape {pg.shape} does not match value "
                        f"shape {parent.value.shape} at op {node.op!r}")
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        out = {}
        for name, leaf in self._leaves.items():
            g = grads.get(id(leaf))
            out[name] = g if g is not None else np.zeros_like(leaf.value)
        self._leaves.clear()  # each leaf refers back to this tape
        return out


def as_var(x) -> Var:
    """`x` itself if it is a Var; an ndarray wrapped as it is; anything else
    (lists, scalars) as f64.  Ops and blocks take any of these and return
    a Var; a file `Tensor` is unwrapped at the edge, by its `.data`."""
    if isinstance(x, Var):
        return x
    if isinstance(x, np.ndarray):
        return Var(x)
    try:
        return Var(np.asarray(x, dtype=np.float64))
    except (TypeError, ValueError):
        raise DimensionError(
            f"cannot read a {type(x).__name__} as an array: pass a Var, an "
            f"ndarray, a list or a scalar (for a Tensor t, pass t.data)"
        ) from None


def _tape_of(*vars_) -> Tape | None:
    tape = None
    for v in vars_:
        if v is None or v.tape is None:
            continue
        if tape is None:
            tape = v.tape
        elif tape is not v.tape:
            raise ValueError("operands belong to different tapes")
    return tape


def _apply(value, parents, vjp, op: str, stacked: bool = False) -> Var:
    """`value` as a Var, recorded with its vjp when an operand is taped.

    A `stacked` call, whose weights hold one set per sample, is never
    recorded: its vjp would owe each weight the gradient of its own sample
    only, and the vjps take declared shapes."""
    tape = _tape_of(*parents)
    if tape is None:
        return Var(value)
    if stacked:
        raise DimensionError(
            f"{op} with stacked weights cannot be recorded on a tape; "
            f"stacks serve untaped loss evaluations")
    return tape._record(value, parents, vjp, op)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise and structural ops -----------------------------------------

def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    sa, sb = a.value.shape, b.value.shape
    return _apply(a.value + b.value, (a, b),
                  lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)), "add")


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return _apply(av * bv, (a, b),
                  lambda g: (_unbroadcast(g * bv.conj(), av.shape),
                             _unbroadcast(g * av.conj(), bv.shape)), "mul")


def scale(a, k: float) -> Var:
    a = as_var(a)
    k = float(k)
    return _apply(a.value * k, (a,), lambda g: (g * k,), "scale")


def sum_all(a) -> Var:
    a = as_var(a)
    shape, dtype = a.value.shape, a.value.dtype
    return _apply(np.asarray(a.value.sum()), (a,),
                  lambda g: (np.full(shape, g, dtype=dtype),), "sum_all")


def mean_axes(a, axes) -> Var:
    a = as_var(a)
    axes = tuple(axes)
    shape = a.value.shape
    count = int(np.prod([shape[i] for i in axes]))
    return _apply(a.value.mean(axis=axes, keepdims=True), (a,),
                  lambda g: (np.broadcast_to(g / count, shape).copy(),),
                  "mean_axes")


def amax_axes(a, axes) -> Var:
    a = as_var(a)
    axes = tuple(axes)
    av = a.value
    peak = av.max(axis=axes, keepdims=True)

    def vjp(g):
        mask = (av == peak).astype(av.dtype)
        counts = mask.sum(axis=axes, keepdims=True)
        return ((mask / counts) * g,)
    return _apply(peak, (a,), vjp, "amax_axes")


def reshape(a, shape) -> Var:
    a = as_var(a)
    orig = a.value.shape
    return _apply(a.value.reshape(tuple(shape)), (a,),
                  lambda g: (g.reshape(orig),), "reshape")


def transpose(a, axes) -> Var:
    a = as_var(a)
    axes = tuple(axes)
    return _apply(np.ascontiguousarray(a.value.transpose(axes)), (a,),
                  lambda g: (np.ascontiguousarray(
                      g.transpose(np.argsort(axes))),), "transpose")


def concat(parts, axis: int = 1) -> Var:
    """Join parts along `axis`.  Off the batch axis, a part of one sample
    broadcasts against parts of N samples; its vjp sums over the batch."""
    parts = [as_var(p) for p in parts]
    shapes = [p.value.shape for p in parts]
    require(len(parts) >= 1 and -len(shapes[0]) <= axis < len(shapes[0]),
            f"concat needs parts with an axis {axis}, got {shapes}")
    axis %= len(shapes[0])  # once, so a negative axis slices as numpy's
    n = max(s[0] for s in shapes)
    full = [(n,) + s[1:] if axis and s[0] == 1 else s for s in shapes]
    require(len({s[:axis] + s[axis + 1:] for s in full}) == 1,
            f"concat parts must agree outside axis {axis}, got {shapes}")

    def vjp(g):
        sl = [slice(None)] * g.ndim
        out = []
        start = 0
        for s in shapes:
            sl[axis] = slice(start, start + s[axis])
            out.append(np.ascontiguousarray(_unbroadcast(g[tuple(sl)], s)))
            start += s[axis]
        return tuple(out)
    return _apply(np.concatenate([
        p.value if s == f else np.broadcast_to(p.value, f)
        for p, s, f in zip(parts, shapes, full)], axis=axis),
        tuple(parts), vjp, "concat")


def split(a, sizes, axis: int = 1) -> list:
    """Split into consecutive blocks along `axis`; each block is its own Var."""
    a = as_var(a)
    sizes = list(sizes)
    shape = a.value.shape
    require(min(sizes, default=0) >= 0 and sum(sizes) == shape[axis],
            f"split sizes {sizes} must be >= 0 and sum to {shape[axis]} "
            f"along axis {axis}")
    outs = []
    start = 0
    for s in sizes:
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(start, start + s)
        sl = tuple(sl)

        def vjp(g, sl=sl):
            full = np.zeros(shape, dtype=g.dtype)
            full[sl] = g
            return (full,)
        outs.append(_apply(np.ascontiguousarray(a.value[sl]), (a,), vjp,
                           "split"))
        start += s
    return outs


# -- activations -------------------------------------------------------------

def gelu(a) -> Var:
    a = as_var(a)
    av = a.value
    value, cdf = tc.gelu_raw(av)
    return _apply(value, (a,), lambda g: (g * tc.gelu_grad(av, cdf),),
                  "gelu")


def sigmoid(a) -> Var:
    a = as_var(a)
    value = tc.sigmoid_raw(a.value)
    return _apply(value, (a,),
                  lambda g: (g * tc.sigmoid_grad_from_value(value),),
                  "sigmoid")


def silu(a) -> Var:
    a = as_var(a)
    av = a.value
    value, s = tc.silu_raw(av)
    return _apply(value, (a,), lambda g: (g * tc.silu_grad(av, s),),
                  "silu")


# -- structured kernels ------------------------------------------------------

def conv2d(x, w, b=None, stride: int = 1, padding: int = 0) -> Var:
    x, w = as_var(x), as_var(w)
    b = as_var(b) if b is not None else None
    xv, wv = x.value, w.value
    value, cols = tc.conv2d_raw(xv, wv, b.value if b is not None else None,
                                stride, padding)
    stacked = wv.ndim == 5 or (b is not None and b.value.ndim == 2)
    return _apply(value, (x, w, b),
                  lambda g: tc.conv2d_grads(g, xv, wv, cols, stride, padding,
                                            with_bias=b is not None),
                  "conv2d", stacked)


def depthwise_conv2d(x, w) -> Var:
    x, w = as_var(x), as_var(w)
    xv, wv = x.value, w.value
    return _apply(tc.depthwise_conv2d_raw(xv, wv), (x, w),
                  lambda g: tc.depthwise_conv2d_grads(g, xv, wv),
                  "depthwise_conv2d", wv.ndim == 5)


def fold_kernels(kernels, sizes) -> Var:
    """Sum (C, 1, k, k) kernels of the given odd sizes, each zero-padded
    to the largest; the vjp hands each kernel its center crop.  Any of
    them may be stacked (K, C, 1, k, k), which stacks the sum."""
    kernels, big = [as_var(k) for k in kernels], max(sizes)
    values = [k.value for k in kernels]
    c = values[-1].shape[-4]
    stack = tc.stack_count("fold_kernels", *((v, 4) for v in values))
    crops = [(Ellipsis,) + (slice((big - k) // 2, (big + k) // 2),) * 2
             for k in sizes]
    value = np.zeros(((stack,) if stack else ()) + (c, 1, big, big),
                     dtype=np.result_type(*values))
    for v, size, crop in zip(values, sizes, crops, strict=True):
        require(v.ndim in (4, 5) and v.shape[-4:] == (c, 1, size, size)
                and size % 2 == 1,
                f"kernel shape {v.shape} is not ({c}, 1, {size}, {size}) "
                f"with odd size")
        value[crop] += v
    return _apply(value, tuple(kernels),
                  lambda g: tuple(np.ascontiguousarray(g[crop])
                                  for crop in crops), "fold_kernels",
                  bool(stack))


def bilinear_sample(x, grid) -> Var:
    """Sample x at fractional grid coordinates; differentiable in both.

    The coordinate gradient uses subgradient zero outside the border and
    is undefined on integer lattice lines; callers keep sample points off
    the lattice when they need coordinate gradients.  The forward's plan
    (corner rows, weights, channels-last x) serves the vjp.
    """
    x, grid = as_var(x), as_var(grid)
    xv, gv = x.value, grid.value
    value, plan = tc.bilinear_sample_raw(xv, gv)
    need_x, need_grid = x.tape is not None, grid.tape is not None
    return _apply(value, (x, grid),
                  lambda g: tc.bilinear_sample_grads(g, xv, gv, need_x,
                                                     need_grid, plan),
                  "bilinear_sample")


# -- gradient checking -------------------------------------------------------

@dataclass
class ParamReport:
    param: str
    max_abs_err: float
    max_rel_err: float
    cosine: float
    passed: bool

    def as_dict(self) -> dict:
        return {"param": self.param, "max_abs_err": self.max_abs_err,
                "max_rel_err": self.max_rel_err, "cosine": self.cosine,
                "pass": self.passed}


@dataclass
class GradReport:
    """Comparison of analytic tape gradients against central differences.

    Relative error uses the denominator max(|analytic|, |numeric|, 1e-12).
    Coordinates where both gradients are below `ABS_FLOOR` count toward the
    absolute error only; central differences at that magnitude are pure
    cancellation noise and would make the ratio meaningless.
    """
    params: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.params)

    def as_dict(self) -> dict:
        return {"eps": EPS, "tol": TOL, "pass": self.passed,
                "params": [p.as_dict() for p in self.params]}


# The central-difference step, the relative tolerance every checked
# coordinate must meet, and the gradient magnitude below which a
# coordinate counts toward the absolute error only
EPS = 1e-5
TOL = 1e-4
ABS_FLOOR = 1e-7

# Rows of a group of stacks handed to the evaluator at once.  A batched
# evaluator's memory grows with them, and with the parameters stacked in
# the group: one call of `cli.stage_gradcheck`'s evaluator on the 8x8
# certify configs of perfbench peaked at 3.21 MB (fddem), 3.95 (msgrb),
# 2.38 (ldconv) and 2.46 (dysample, whose two parameters share a 48-row
# group; 1.64 one parameter at a time), by tracemalloc.  Reports do not
# depend on the row count.
STACK_ROWS = 128


def _rowwise(fn):
    """The evaluator that runs `fn` on each row of a group of stacks: one
    forward per row, each stacked parameter at that row and every other
    one as it is."""
    def losses(params: dict, stacks: dict) -> np.ndarray:
        out = np.empty(_rows(stacks))
        for r in range(len(out)):
            value = fn({k: Var(stacks[k][r] if k in stacks else v)
                        for k, v in params.items()})
            value = value.value if isinstance(value, Var) else np.asarray(value)
            require(value.size == 1, f"gradcheck closure must return a "
                    f"scalar, got shape {value.shape}")
            out[r] = float(value.reshape(()))
        return out
    return losses


def _rows(stacks: dict) -> int:
    """K, the row count shared by a group of (K, *shape) stacks."""
    return len(next(iter(stacks.values())))


def _loss_value(losses, params: dict, stacks: dict) -> np.ndarray:
    """The K finite losses of one group of (K, *shape) stacks."""
    k = _rows(stacks)
    values = np.asarray(losses(params, stacks), dtype=np.float64)
    require(values.shape == (k,),
            f"gradcheck evaluator must return {k} losses, got shape "
            f"{values.shape}")
    if not np.isfinite(values).all():
        raise NumericError("gradcheck closure produced a non-finite loss")
    return values


# Steps of the Ridders tableau that replaces a central difference whose
# round-off is not small against the tolerance, largest first, halving
RIDDERS_STEPS = (4e-3, 2e-3, 1e-3)
_UNIT_ROUNDOFF = 2.0 ** -53


def _groups(rows: dict) -> list:
    """Cut the rows of each parameter, rows[name] of them, into stacks of
    at most `STACK_ROWS` rows, smallest parameter first (ties in field
    order).  A parameter that fits in one stack is not split: it starts a
    new stack where the current one lacks room.  Each stack is a list of
    (name, lo, hi): rows lo:hi of that parameter, in stack order."""
    groups, room = [], 0
    for name in sorted(rows, key=rows.get):
        n, lo = rows[name], 0
        if room < n <= STACK_ROWS:
            room = 0
        while lo < n:
            if not room:
                groups.append([])
                room = STACK_ROWS
            take = min(room, n - lo)
            groups[-1].append((name, lo, lo + take))
            lo, room = lo + take, room - take
    return groups


def _differences(losses, params: dict, coords: dict, steps) -> dict:
    """Central differences of each parameter of `coords` at its
    coordinates coords[name], one per step: {name: the differences and
    their round-off budgets (|f₊| + |f₋|)·u/(2h), as (m, len(steps))
    arrays}.  A parameter's rows hold, for each coordinate in turn, +h
    and -h of each step; they run in the stacks `_groups` cuts, in which
    every row of one parameter holds the others at `params`."""
    h = np.asarray(steps, dtype=np.float64)
    per = 2 * len(h)  # rows per coordinate
    f = {name: np.empty(per * len(idx)) for name, idx in coords.items()}
    for group in _groups({name: len(v) for name, v in f.items()}):
        k = sum(hi - lo for _, lo, hi in group)
        stacks, at = {}, 0
        for name, lo, hi in group:
            theta, r = params[name], np.arange(lo, hi)
            j = coords[name][r // per]  # the coordinate each row moves
            step = h[r // 2 % len(h)]
            step = np.where(r % 2, -step, step)  # x + (-h) rounds as x - h
            stack = np.empty((k,) + theta.shape)
            stack[...] = theta
            stack.reshape(k, -1)[at + r - lo, j] = theta.reshape(-1)[j] + step
            stacks[name], at = stack, at + hi - lo
        values = _loss_value(losses, params, stacks)
        for name, lo, hi in group:
            f[name][lo:hi], values = values[:hi - lo], values[hi - lo:]
    out = {}
    for name, v in f.items():
        v = v.reshape(-1, len(h), 2)
        budget = (np.abs(v[..., 0]) + np.abs(v[..., 1])) * _UNIT_ROUNDOFF
        out[name] = (v[..., 0] - v[..., 1]) / (2.0 * h), budget / (2.0 * h)
    return out


def _ridders(d: np.ndarray) -> tuple:
    """Ridders' extrapolation of central differences d (m, s) taken at
    steps halving along axis 1: per row, the tableau entry with the
    smallest error estimate, and that estimate (the larger of its
    distances to the two entries it was made from)."""
    est = np.zeros(len(d))
    err = np.full(len(d), np.inf)
    prev = [d[:, 0]]
    for i in range(1, d.shape[1]):
        row = [d[:, i]]
        for j in range(1, i + 1):
            t = (4.0 ** j * row[j - 1] - prev[j - 1]) / (4.0 ** j - 1.0)
            e = np.maximum(np.abs(t - row[j - 1]), np.abs(t - prev[j - 1]))
            est, err = np.where(e < err, t, est), np.minimum(e, err)
            row.append(t)
        prev = row
    return est, err


def gradcheck(fn, params: dict, max_coords: int = 64, seed: int = 0,
              losses=None) -> GradReport:
    """Certify d(fn)/d(params) against central differences.

    `fn` maps a dict of Vars (same keys as `params`) to a scalar Var; it
    gives the analytic gradients on a tape.  For parameters larger than
    `max_coords` a seeded subsample of coordinates (at least 64) is
    checked.  Each parameter's m checked coordinates give 2m rows, row 2j
    at +EPS and row 2j+1 at -EPS of coordinate j.  The rows of all
    parameters run smallest parameter first (ties in field order), cut
    into groups of at most `STACK_ROWS` rows; a parameter that fits in
    one group is not split.  `losses(params, stacks)` returns the loss of
    each of the K rows of a group: `stacks` maps each of the group's
    parameters to a (K, *shape) stack, every other parameter held at
    `params`.  It defaults to `_rowwise(fn)`; a batched evaluator must
    return the same bytes.

    A central difference at EPS carries a round-off of at least
    (|f₊| + |f₋|)·u/(2·EPS), u = 2⁻⁵³, from the rounding of its two
    losses alone; a loss summed over a block's outputs carries tens of
    times more.  Where that budget exceeds 0.01·TOL·max(|analytic|,
    |numeric|) at a coordinate above `ABS_FLOOR`, the coordinate runs
    again at the `RIDDERS_STEPS`, once every parameter's ±EPS rows have
    run (the refined coordinates of all parameters pack into groups the
    same way), and its reference becomes the Ridders estimate
    when that estimate's error bound is below the budget.  A parameter
    passes when every checked coordinate's relative error is at most
    `TOL`.  The report flags tolerance failures instead of raising.
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    losses = _rowwise(fn) if losses is None else losses
    tape = Tape()
    leaves = {k: tape.leaf(v, k) for k, v in params.items()}
    out = fn(leaves)
    require(out.value.size == 1,
            f"gradcheck closure must return a scalar, got {out.value.shape}")
    if not np.isfinite(out.value).all():
        raise NumericError("gradcheck closure produced a non-finite loss")
    analytic = tape.backward(out)

    picker = Stream(seed)
    max_coords = max(64, int(max_coords))
    coords = {name: (np.arange(theta.size) if theta.size <= max_coords
                     else picker.choice(theta.size, max_coords))
              for name, theta in params.items()}
    analytic = {name: analytic[name].reshape(-1)[idx]
                for name, idx in coords.items()}
    numeric = {name: (d[:, 0], b[:, 0]) for name, (d, b) in
               _differences(losses, params, coords, (EPS,)).items()}
    coarse = {}
    for name, (n_vals, budget) in numeric.items():
        magnitude = np.maximum(np.abs(analytic[name]), np.abs(n_vals))
        coarse[name] = ((magnitude > ABS_FLOOR)
                        & (budget > 0.01 * TOL * magnitude))
    refined = _differences(losses, params, {
        name: coords[name][c] for name, c in coarse.items() if c.any()},
        RIDDERS_STEPS)

    report = GradReport()
    for name, a_vals in analytic.items():
        n_vals, budget = numeric[name]
        if name in refined:
            c = coarse[name]
            est, err = _ridders(refined[name][0])
            n_vals[c] = np.where(err < budget[c], est, n_vals[c])
        magnitude = np.maximum(np.abs(a_vals), np.abs(n_vals))
        abs_err = np.abs(a_vals - n_vals)
        denom = np.maximum(magnitude, 1e-12)
        rel = np.where(magnitude > ABS_FLOOR, abs_err / denom, 0.0)
        na, nn = np.linalg.norm(a_vals), np.linalg.norm(n_vals)
        if na == 0.0 and nn == 0.0:
            cosine = 1.0
        elif na == 0.0 or nn == 0.0:
            cosine = 0.0
        else:
            cosine = float(np.dot(a_vals, n_vals) / (na * nn))
        max_rel = float(rel.max()) if rel.size else 0.0
        report.params.append(ParamReport(
            param=name,
            max_abs_err=float(abs_err.max()) if abs_err.size else 0.0,
            max_rel_err=max_rel,
            cosine=cosine,
            passed=bool(max_rel <= TOL),
        ))
    return report
