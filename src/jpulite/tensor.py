"""Dense rank-4 NCHW tensors and the handful of array utilities everything else uses.

Layout is fixed: row-major (n, c, h, w), dtype float32 or float64. Tensors are
immutable after construction (the underlying numpy buffer is marked read-only),
so they can be shared freely across threads.

The RNG is a counter-based splitmix64 mixer: draw i of a stream seeded with s
is mix(s_mixed + (counter + i) * GOLDEN). Identical seeds give bit-identical
streams on every platform.

Bilinear resampling uses half-pixel centers: output pixel d reads source
coordinate s = (d + 0.5) * (in / out) - 0.5, clamped to [0, in - 1], then
linear interpolation between the two neighbors per axis.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

_JT_MAGIC = b"JT01"
_JT_HEADER = "<4sB4I"  # struct format: magic, dtype code, four dims
_JT_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_JT_DTYPE_FROM_CODE = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


class ShapeError(ValueError):
    """Raised when tensor shapes or dtypes are incompatible with an operation."""


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable dense (n, c, h, w) array."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be rank 4, got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"all dims must be >= 1, got {arr.shape}")
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ShapeError(f"unsupported dtype {arr.dtype}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(self.data.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype))


def zeros(shape, dtype=np.float64) -> Tensor:
    if any(d < 1 for d in shape):
        raise ShapeError(f"zero-sized dimension in {shape}")
    return Tensor(np.zeros(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# deterministic counter-based RNG (splitmix64)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


@dataclass
class Rng:
    """Counter-based splitmix64 stream; same seed, same platform-independent values."""

    seed: int
    counter: int = field(default=0)

    def next_u64(self, count: int) -> np.ndarray:
        base = _mix64(np.array([self.seed], dtype=np.uint64))[0]
        idx = np.arange(self.counter, self.counter + count, dtype=np.uint64)
        self.counter += count
        return _mix64(base + (idx + _U64(1)) * _GOLDEN)

    def uniform(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo < hi:
            raise ValueError(f"need lo < hi, got {lo} >= {hi}")
        u = (self.next_u64(count) >> _U64(11)).astype(np.float64) * 2.0**-53
        return lo + u * (hi - lo)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent stream; used to give each weight tensor its own stream."""
        child = _mix64(np.array([self.seed], dtype=np.uint64) ^ _mix64(np.array([key], dtype=np.uint64)))[0]
        return Rng(int(child))


def random_uniform(shape, rng: Rng, lo: float = 0.0, hi: float = 1.0, dtype=np.float64) -> Tensor:
    if any(d < 1 for d in shape):
        raise ShapeError(f"zero-sized dimension in {shape}")
    n = int(np.prod(shape))
    return Tensor(rng.uniform(n, lo, hi).reshape(shape).astype(dtype))


# ---------------------------------------------------------------------------
# resizing, concatenation, comparison


def _axis_weights(in_size: int, out_size: int, dtype) -> np.ndarray:
    """(out_size, in_size) interpolation matrix for half-pixel-center bilinear."""
    d = np.arange(out_size, dtype=np.float64)
    s = (d + 0.5) * (in_size / out_size) - 0.5
    s = np.clip(s, 0.0, in_size - 1)
    i0 = np.floor(s).astype(np.int64)
    i1 = np.minimum(i0 + 1, in_size - 1)
    f = s - i0
    A = np.zeros((out_size, in_size), dtype=np.float64)
    A[np.arange(out_size), i0] += 1.0 - f
    A[np.arange(out_size), i1] += f
    return A.astype(dtype)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output dims must be >= 1, got {(out_h, out_w)}")
    n, c, h, w = x.shape
    ah = _axis_weights(h, out_h, x.dtype)
    aw = _axis_weights(w, out_w, x.dtype)
    # rows first, then columns: y = A_h x A_w^T
    return Tensor(ah @ (x.data @ aw.T))


def bilinear_resize_backward(grad_out: np.ndarray, in_h: int, in_w: int) -> np.ndarray:
    """Transpose of bilinear_resize's linear map, for gradients."""
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    ah = _axis_weights(in_h, out_h, grad_out.dtype)
    aw = _axis_weights(in_w, out_w, grad_out.dtype)
    return ah.T @ (grad_out @ aw)


def concat_channels(xs: list[Tensor]) -> Tensor:
    if not xs:
        raise ShapeError("concat of zero tensors")
    n, _, h, w = xs[0].shape
    dt = xs[0].dtype
    for x in xs[1:]:
        xn, _, xh, xw = x.shape
        if (xn, xh, xw) != (n, h, w) or x.dtype != dt:
            raise ShapeError(f"concat mismatch: {x.shape}/{x.dtype} vs {(n, h, w)}/{dt}")
    return Tensor(np.concatenate([x.data for x in xs], axis=1))


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a.data - b.data)))


# ---------------------------------------------------------------------------
# ".jt" tensor file format: magic "JT01", u8 dtype code, four u32 dims (LE),
# then raw row-major little-endian data.


def save_jt(path, x: Tensor) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(_JT_HEADER, _JT_MAGIC, _JT_DTYPE_CODES[x.dtype], *x.shape))
        f.write(x.data.astype(x.dtype.newbyteorder("<"), copy=False).tobytes())


def load_jt(path) -> Tensor:
    """Read a file written by save_jt; raises ValueError for any file that is
    not exactly one well-formed tensor (bad magic, short header, unknown dtype
    code, zero dims, or a payload of the wrong size)."""
    header_size = struct.calcsize(_JT_HEADER)
    with open(path, "rb") as f:
        header = f.read(header_size)
        payload = f.read()
    if header[:4] != _JT_MAGIC:
        raise ValueError(f"bad magic {header[:4]!r} in {path}")
    if len(header) < header_size:
        raise ValueError(f"truncated header in {path}: {len(header)} of {header_size} bytes")
    _, code, n, c, h, w = struct.unpack(_JT_HEADER, header)
    dtype = _JT_DTYPE_FROM_CODE.get(code)
    if dtype is None:
        raise ValueError(f"unknown dtype code {code} in {path}")
    expected = n * c * h * w * dtype.itemsize
    if len(payload) != expected:
        raise ValueError(
            f"size mismatch in {path}: a {(n, c, h, w)} {dtype} tensor needs {expected} bytes, found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype=dtype.newbyteorder("<"))
    return Tensor(data.astype(dtype).reshape(n, c, h, w))
