"""Direct 2-D convolution (regular / dilated / strided / grouped / separable) with exact gradients.

The forward accumulates contributions in a fixed loop nest (in-channel, then
kernel row, then kernel column), so per-element summation order is defined and
results are reproducible bit-for-bit. Padding is always zero padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Rng, ShapeError, Tensor


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    groups: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError("channel counts must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"channels ({self.in_channels}, {self.out_channels}) not divisible by groups={self.groups}"
            )
        for name in ("kernel", "stride", "dilation"):
            if any(v < 1 for v in getattr(self, name)):
                raise ShapeError(f"{name} must be >= 1")
        if any(p < 0 for p in self.padding):
            raise ShapeError("padding must be >= 0")

    def out_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        out = []
        for size, k, s, d, p in zip(in_hw, self.kernel, self.stride, self.dilation, self.padding):
            o = (size + 2 * p - d * (k - 1) - 1) // s + 1
            if o < 1:
                raise ShapeError(f"non-positive output dim for input {in_hw} with {self}")
            out.append(o)
        return tuple(out)

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, *self.kernel)


@dataclass(frozen=True, eq=False)
class ConvWeights:
    weight: Tensor  # (out_channels, in_channels/groups, kh, kw)
    bias: Optional[np.ndarray] = None  # (out_channels,)

    def __post_init__(self):
        if self.bias is not None:
            b = np.asarray(self.bias)
            if b.shape != (self.weight.shape[0],):
                raise ShapeError(f"bias shape {b.shape} vs out_channels {self.weight.shape[0]}")
            b.flags.writeable = False
            object.__setattr__(self, "bias", b)


def init_weights(spec: ConvSpec, rng: Rng, with_bias: bool = True, dtype=np.float64) -> ConvWeights:
    """Fan-in-scaled uniform init: bound = sqrt(1 / fan_in); zero biases."""
    o, cg, kh, kw = spec.weight_shape
    fan_in = cg * kh * kw
    bound = float(np.sqrt(1.0 / fan_in))
    w = rng.uniform(o * cg * kh * kw, -bound, bound).reshape(spec.weight_shape).astype(dtype)
    bias = np.zeros(o, dtype=dtype) if with_bias else None
    return ConvWeights(Tensor(w), bias)


def _check_input(x: Tensor, w: ConvWeights, spec: ConvSpec) -> None:
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if w.weight.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {w.weight.shape} vs spec {spec.weight_shape}")


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def conv2d(x: Tensor, w: ConvWeights, spec: ConvSpec, count_macs: bool = False):
    """Direct convolution. With count_macs=True also returns the number of
    weight multiplies performed (for cost-model cross-checks)."""
    _check_input(x, w, spec)
    n, cin, h, wd = x.shape
    oh, ow = spec.out_hw((h, wd))
    (kh, kw), (sh, sw), (dh, dw), (ph, pw) = spec.kernel, spec.stride, spec.dilation, spec.padding
    xp = _pad(x.data, ph, pw)
    wt = w.weight.data
    cg_in = spec.in_channels // spec.groups
    cg_out = spec.out_channels // spec.groups
    y = np.zeros((n, spec.out_channels, oh, ow), dtype=x.dtype)
    macs = 0
    if cg_in == 1 and cg_out == 1 and spec.groups == spec.in_channels == spec.out_channels:
        # depthwise fast path; per-element add order identical to the general nest
        for u in range(kh):
            rows = slice(u * dh, u * dh + (oh - 1) * sh + 1, sh)
            for v in range(kw):
                cols = slice(v * dw, v * dw + (ow - 1) * sw + 1, sw)
                y += wt[:, 0, u, v][None, :, None, None] * xp[:, :, rows, cols]
                macs += n * spec.out_channels * oh * ow
    else:
        for g in range(spec.groups):
            osl = slice(g * cg_out, (g + 1) * cg_out)
            for c in range(cg_in):
                xc = xp[:, g * cg_in + c]
                for u in range(kh):
                    rows = slice(u * dh, u * dh + (oh - 1) * sh + 1, sh)
                    for v in range(kw):
                        cols = slice(v * dw, v * dw + (ow - 1) * sw + 1, sw)
                        patch = xc[:, rows, cols]
                        y[:, osl] += wt[osl, c, u, v][None, :, None, None] * patch[:, None]
                        macs += n * cg_out * oh * ow
    if w.bias is not None:
        y += w.bias[None, :, None, None].astype(x.dtype)
    out = Tensor(y)
    return (out, macs) if count_macs else out


def conv2d_backward(x: Tensor, w: ConvWeights, spec: ConvSpec, grad_out: Tensor):
    """Gradients of sum(grad_out * conv2d(x, w, spec)) w.r.t. x, weight, bias."""
    _check_input(x, w, spec)
    n, cin, h, wd = x.shape
    oh, ow = spec.out_hw((h, wd))
    if grad_out.shape != (n, spec.out_channels, oh, ow):
        raise ShapeError(f"grad_out shape {grad_out.shape} vs {(n, spec.out_channels, oh, ow)}")
    (kh, kw), (sh, sw), (dh, dw), (ph, pw) = spec.kernel, spec.stride, spec.dilation, spec.padding
    xp = _pad(x.data, ph, pw)
    g = grad_out.data
    wt = w.weight.data
    cg_in = spec.in_channels // spec.groups
    cg_out = spec.out_channels // spec.groups
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(wt)
    depthwise = cg_in == 1 and cg_out == 1 and spec.groups == spec.in_channels == spec.out_channels
    for u in range(kh):
        rows = slice(u * dh, u * dh + (oh - 1) * sh + 1, sh)
        for v in range(kw):
            cols = slice(v * dw, v * dw + (ow - 1) * sw + 1, sw)
            if depthwise:
                patch = xp[:, :, rows, cols]
                grad_w[:, 0, u, v] = np.sum(g * patch, axis=(0, 2, 3))
                grad_xp[:, :, rows, cols] += wt[:, 0, u, v][None, :, None, None] * g
                continue
            for gi in range(spec.groups):
                osl = slice(gi * cg_out, (gi + 1) * cg_out)
                isl = slice(gi * cg_in, (gi + 1) * cg_in)
                gg = g[:, osl]
                patch = xp[:, isl, rows, cols]
                grad_w[osl, :, u, v] = np.tensordot(gg, patch, axes=([0, 2, 3], [0, 2, 3]))
                grad_xp[:, isl, rows, cols] += np.tensordot(
                    gg, wt[osl, :, u, v], axes=([1], [0])
                ).transpose(0, 3, 1, 2)
    grad_x = grad_xp[:, :, ph : ph + h, pw : pw + wd] if (ph or pw) else grad_xp
    grad_bias = g.sum(axis=(0, 2, 3)) if w.bias is not None else None
    return Tensor(np.ascontiguousarray(grad_x)), Tensor(grad_w), grad_bias


def separable_spec(channels: int, out_channels: int, dilation: int) -> tuple[ConvSpec, ConvSpec]:
    """Depthwise 3x3 (padding = dilation, size-preserving) + pointwise 1x1 specs."""
    depthwise = ConvSpec(
        channels, channels, kernel=(3, 3), dilation=(dilation, dilation),
        padding=(dilation, dilation), groups=channels,
    )
    pointwise = ConvSpec(channels, out_channels, kernel=(1, 1))
    return depthwise, pointwise


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0))


def relu_backward(x: Tensor, grad_out: Tensor) -> Tensor:
    if x.shape != grad_out.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {grad_out.shape}")
    return Tensor(np.where(x.data > 0, grad_out.data, 0))
