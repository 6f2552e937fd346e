"""Binary file formats and report serialization.

Tensor files ("SEPT"): magic, format version u32 LE = 1, dtype u8
(0 = f32, 1 = f64), ndim u8 = 4, four u64 LE dims (N, C, H, W), then raw
little-endian values row-major.  No compression or alignment padding.

Parameter files ("SEPP"): the magic, a u32 LE entry count, then repeated
[name length u16 LE, UTF-8 name, SEPT block], one entry per array of a
parameter object in field order (`params.named_arrays`).  Each field is
stored as a 4D block: biases (C,) as (1, C, 1, 1), half-spectrum weight
planes (C, H, Wh) as (1, C, H, Wh), conv kernels as themselves.

Writers stage to a temp file in the target directory and rename on
success, so failed commands never leave partial files behind.

JSON reports use insertion-ordered fields and 17-significant-digit floats
so reruns diff cleanly byte for byte.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import ConfigError, DimensionError
from .params import named_arrays, replace_vars
from .tensor import Tensor, require_finite

MAGIC_TENSOR = b"SEPT"
MAGIC_PARAMS = b"SEPP"
FORMAT_VERSION = 1
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def tensor_block_bytes(arr: np.ndarray) -> bytes:
    """Serialize one 4D array as a SEPT block."""
    if arr.ndim != 4:
        raise DimensionError(f"SEPT blocks are 4D, got shape {arr.shape}")
    code = _DTYPE_CODE.get(arr.dtype)
    if code is None:
        raise DimensionError(f"SEPT blocks hold f32/f64, got {arr.dtype}")
    header = MAGIC_TENSOR + struct.pack("<IBB", FORMAT_VERSION, code, 4)
    dims = struct.pack("<4Q", *arr.shape)
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"),
                                               copy=False).tobytes()
    return header + dims + payload


def _unpack(fmt: str, buf: bytes, offset: int) -> tuple:
    """struct.unpack_from that reports a short buffer as a DimensionError."""
    if offset + struct.calcsize(fmt) > len(buf):
        raise DimensionError(f"file truncated at offset {offset}")
    return struct.unpack_from(fmt, buf, offset)


def read_tensor_block(buf: bytes, offset: int):
    """Parse one SEPT block at `offset`; returns (array, next_offset)."""
    if buf[offset:offset + 4] != MAGIC_TENSOR:
        raise DimensionError(
            f"bad tensor magic {buf[offset:offset + 4]!r} at offset {offset}")
    version, code, ndim = _unpack("<IBB", buf, offset + 4)
    if version != FORMAT_VERSION:
        raise DimensionError(f"unsupported tensor format version {version}")
    if ndim != 4:
        raise DimensionError(f"tensor blocks must be 4D, got ndim={ndim}")
    if code not in _CODE_DTYPE:
        raise DimensionError(f"unknown dtype code {code}")
    dims = _unpack("<4Q", buf, offset + 10)
    dtype = _CODE_DTYPE[code]
    count = math.prod(dims)  # python ints: no silent overflow on bad dims
    start = offset + 10 + 32
    end = start + count * dtype.itemsize
    if end > len(buf):
        raise DimensionError("tensor block truncated")
    try:
        arr = np.frombuffer(buf[start:end], dtype=dtype).reshape(dims)
    except ValueError:  # an empty block whose other dims overflow
        raise DimensionError(f"bad tensor dims {dims}") from None
    return np.ascontiguousarray(arr).astype(dtype.newbyteorder("=")), end


def atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sepkit-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path: str, t: Tensor) -> None:
    atomic_write(path, tensor_block_bytes(t.data))


def read_tensor(path: str) -> Tensor:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = read_tensor_block(buf, 0)
    if end != len(buf):
        raise DimensionError(f"trailing bytes after tensor block in {path}")
    return Tensor(arr, copy=False)


def _block_shape(shape: tuple) -> tuple:
    """The 4D block shape a parameter field of `shape` is stored as."""
    if len(shape) == 1:
        return (1, shape[0], 1, 1)
    return (1,) * (4 - len(shape)) + shape


def write_params(path: str, params) -> None:
    """Write the arrays of a parameter object as a SEPP file."""
    arrays = named_arrays(params)
    parts = [MAGIC_PARAMS, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        require_finite(arr, f"parameter {name!r}")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(tensor_block_bytes(arr.reshape(_block_shape(arr.shape))))
    atomic_write(path, b"".join(parts))


def read_params(path: str, template):
    """Read a SEPP file into a parameter object shaped like `template`, each
    block restored to its field's shape and dtype.  An entry that the
    template lacks, a name stored twice, a block not shaped as its field's
    4D block and a non-finite value are refused."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC_PARAMS:
        raise DimensionError(f"bad params magic {buf[:4]!r} in {path}")
    count = _unpack("<I", buf, 4)[0]
    blocks = {}
    offset = 8
    for _ in range(count):
        name_len = _unpack("<H", buf, offset)[0]
        offset += 2
        try:
            name = buf[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise DimensionError(
                f"params name at offset {offset} is not UTF-8 in {path}"
            ) from None
        offset += name_len
        arr, offset = read_tensor_block(buf, offset)
        if name in blocks:
            raise DimensionError(f"parameter {name!r} is stored twice in "
                                 f"{path}")
        require_finite(arr, f"parameter {name!r}")
        blocks[name] = arr
    if offset != len(buf):
        raise DimensionError(f"trailing bytes after params blocks in {path}")
    fields = named_arrays(template)
    extra = [name for name in blocks if name not in fields]
    if extra:
        raise ConfigError(f"parameters not in the template: "
                          f"{', '.join(map(repr, extra))}")
    values = {}
    for name, arr in fields.items():
        if name not in blocks:
            raise KeyError(f"no parameter named {name!r}")
        stored, shape = blocks[name], _block_shape(arr.shape)
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


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def render_json(obj) -> str:
    """Deterministic JSON: insertion-ordered fields, floats at 17 digits."""
    if isinstance(obj, dict):
        inner = ", ".join(f"{render_json(str(k))}: {render_json(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            return "null"  # JSON has no NaN/Inf
        return format(v, ".17g")
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")
