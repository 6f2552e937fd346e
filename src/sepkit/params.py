"""Named, shape-tagged parameter storage and traversal helpers.

Module parameter objects are dataclasses whose array fields may hold raw
ndarrays (pure forward) or tape `Var`s (differentiable runs).  The walker
here visits every array field with a dotted name derived from the field
path, which gives one mechanism for:

  * lifting a parameter object onto a tape as named leaves,
  * flattening to a {name: ndarray} dict for gradcheck,
  * swapping named Vars or arrays in (`replace_vars`), for gradcheck's
    leaves and for the arrays a parameter file holds,
  * round-tripping through a `ParamStore` and its on-disk format.

Stored entries are canonicalized to 4D blocks (biases (C,) become
(1, C, 1, 1), half-spectrum weight planes (C, H, Wh) become (1, C, H,
Wh)); `ParamStore.to_params` restores each field's shape and dtype from a
template and swaps the arrays in through `replace_vars`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, DimensionError
from .tensor import require, require_finite


def _walk(obj, fn, prefix: str = ""):
    """Rebuild `obj` with fn(name, array) applied to every array field."""
    if isinstance(obj, (np.ndarray, Var)):
        return fn(prefix.rstrip("."), obj)
    if dataclasses.is_dataclass(obj):
        updates = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            updates[f.name] = _walk(value, fn, f"{prefix}{f.name}.")
        if all(v is getattr(obj, k) for k, v in updates.items()):
            return obj  # nothing swapped: no copy of immutable weights
        return dataclasses.replace(obj, **updates)
    if isinstance(obj, list):
        return [_walk(v, fn, f"{prefix}{i}.") for i, v in enumerate(obj)]
    if isinstance(obj, tuple):
        return tuple(_walk(v, fn, f"{prefix}{i}.") for i, v in enumerate(obj))
    return obj


def lift(params, tape: Tape):
    """Copy of `params` with every ndarray registered as a named tape leaf."""
    def fn(name, arr):
        if isinstance(arr, Var):
            raise ValueError(f"parameter {name!r} is already lifted")
        return tape.leaf(arr, name)
    return _walk(params, fn)


def named_arrays(params) -> dict:
    """Flatten to {dotted-name: ndarray} in field order."""
    out = {}

    def fn(name, arr):
        out[name] = arr.value if isinstance(arr, Var) else arr
        return arr
    _walk(params, fn)
    return out


def replace_vars(template, leaves: dict):
    """Copy of `template` with each array swapped for leaves[name], a Var
    or an ndarray of the field's shape.  A leaf that is the field's own
    array swaps nothing, so its parameter object is kept.

    A leaf may also be stacked: K values of the field's shape on one more
    leading axis, for the ops that take stacked weights."""
    def fn(name, arr):
        if name not in leaves:
            raise KeyError(f"missing parameter {name!r}")
        v = leaves[name]
        if v.shape not in (arr.shape, v.shape[:1] + arr.shape):
            raise DimensionError(
                f"parameter {name!r} has shape {v.shape}, expected "
                f"{arr.shape} (or (K, *{arr.shape}) stacked)")
        return v
    return _walk(template, fn)


def _canon4(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 4:
        return arr
    if arr.ndim == 1:
        return arr.reshape(1, arr.shape[0], 1, 1)
    if arr.ndim == 3:
        return arr.reshape((1,) + arr.shape)
    if arr.ndim == 2:
        return arr.reshape((1, 1) + arr.shape)
    raise DimensionError(f"cannot store {arr.ndim}D parameter")


class ParamStore:
    """Ordered name -> 4D array container matching the on-disk format."""

    def __init__(self):
        self._entries: dict[str, np.ndarray] = {}

    def put(self, name: str, array: np.ndarray) -> None:
        arr = np.asarray(array)
        require(arr.dtype in (np.float32, np.float64),
                f"parameter {name!r} must be f32 or f64, got {arr.dtype}")
        require_finite(arr, f"parameter {name!r}")
        self._entries[name] = _canon4(arr).copy()

    def get(self, name: str) -> np.ndarray:
        if name not in self._entries:
            raise KeyError(f"no parameter named {name!r}")
        return self._entries[name]

    def names(self) -> list:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def from_params(params) -> "ParamStore":
        store = ParamStore()
        for name, arr in named_arrays(params).items():
            store.put(name, arr)
        return store

    def to_params(self, template):
        """Rebuild a parameter object shaped like `template` from the store,
        each stored block restored to its field's shape and dtype.  A
        stored entry that the template lacks, or a block not shaped as its
        field's 4D block, is refused."""
        fields = named_arrays(template)
        extra = [name for name in self._entries if name not in fields]
        if extra:
            raise ConfigError(f"parameters not in the template: "
                              f"{', '.join(map(repr, extra))}")
        values = {}
        for name, arr in fields.items():
            stored, shape = self.get(name), _canon4(arr).shape
            if stored.size != arr.size:
                raise DimensionError(
                    f"parameter {name!r} has {stored.size} values, expected "
                    f"{arr.size}")
            if stored.shape != shape:
                raise DimensionError(
                    f"parameter {name!r} is stored as {stored.shape}, "
                    f"expected {shape}")
            values[name] = stored.reshape(arr.shape).astype(arr.dtype)
        return replace_vars(template, values)
