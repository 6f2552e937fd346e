"""Traversal helpers for parameter objects.

Module parameter objects are dataclasses whose array fields may hold raw
ndarrays (pure forward) or tape `Var`s (differentiable runs).  The walker
here visits every array field with a dotted name derived from the field
path, which gives one mechanism for:

  * lifting a parameter object onto a tape as named leaves,
  * flattening to a {name: ndarray} dict in field order, for gradcheck and
    for the entries of a parameter file (`io.write_params`),
  * swapping named Vars or arrays in (`replace_vars`), for gradcheck's
    leaves and for the arrays a parameter file holds (`io.read_params`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import Tape, Var
from .errors import DimensionError


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
        items = [_walk(v, fn, f"{prefix}{i}.") for i, v in enumerate(obj)]
        return obj if all(a is b for a, b in zip(items, obj)) else items
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
