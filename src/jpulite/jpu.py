"""Joint pyramid upsampling module: forward pass, exact gradients, serialization.

Pipeline: per-level 3x3 conv + ReLU to a common width, bilinear upsampling of
the two coarser levels to the finest grid, channel concatenation, a bank of
parallel separable convolutions with increasing dilation rates, concatenation
of the branch outputs, and a final 3x3 fusion conv + ReLU.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .conv import (
    ConvSpec,
    ConvWeights,
    conv2d,
    conv2d_backward,
    init_weights,
    relu,
    relu_backward,
    separable_spec,
)
from .tensor import (
    Rng,
    ShapeError,
    Tensor,
    bilinear_resize,
    bilinear_resize_backward,
    concat_channels,
    load_jt,
    save_jt,
)


@dataclass(frozen=True)
class JpuConfig:
    in_channels: tuple[int, int, int]  # channels of the three input levels, fine to coarse
    width: int
    dilation_rates: tuple[int, ...] = (1, 2, 4, 8)
    out_channels: int | None = None  # defaults to 4 * width

    def __post_init__(self):
        if self.width < 1:
            raise ShapeError("width must be positive")
        r = self.dilation_rates
        if not r or any(d < 1 for d in r) or any(a >= b for a, b in zip(r, r[1:])):
            raise ShapeError(f"dilation rates must be non-empty strictly increasing >= 1, got {r}")
        if self.out_channels is None:
            object.__setattr__(self, "out_channels", 4 * self.width)

    @property
    def concat_channels(self) -> int:
        return 3 * self.width

    def level_spec(self, level: int) -> ConvSpec:
        return ConvSpec(self.in_channels[level], self.width, kernel=(3, 3), padding=(1, 1))

    def branch_specs(self, rate: int) -> tuple[ConvSpec, ConvSpec]:
        return separable_spec(self.concat_channels, self.width, rate)

    def fusion_spec(self) -> ConvSpec:
        return ConvSpec(len(self.dilation_rates) * self.width, self.out_channels, kernel=(3, 3), padding=(1, 1))

    def layers(self) -> list[tuple[str, ConvSpec, int]]:
        """The module's convs in execution order, as (name, spec, input pyramid level).

        Level 0 is the finest grid; every conv after the three level convs runs
        there. Init, checkpoints, training and the cost model all read this table.
        """
        table = [(f"level{i}", self.level_spec(i), i) for i in range(3)]
        for i, rate in enumerate(self.dilation_rates):
            dspec, pspec = self.branch_specs(rate)
            table += [(f"branch{i}.depthwise", dspec, 0), (f"branch{i}.pointwise", pspec, 0)]
        table.append(("fusion", self.fusion_spec(), 0))
        return table


@dataclass(frozen=True, eq=False)
class JpuParams:
    levels: list[ConvWeights]  # three per-level embedding convs
    branches: list[tuple[ConvWeights, ConvWeights]]  # (depthwise, pointwise) per rate
    fusion: ConvWeights

    def convs(self):
        """(name, ConvWeights) in the order of JpuConfig.layers()."""
        for i, lw in enumerate(self.levels):
            yield f"level{i}", lw
        for i, (dw, pw) in enumerate(self.branches):
            yield f"branch{i}.depthwise", dw
            yield f"branch{i}.pointwise", pw
        yield "fusion", self.fusion

    @classmethod
    def from_convs(cls, weights) -> JpuParams:
        """Inverse of convs(): the structure from ConvWeights in layers() order."""
        w = list(weights)
        return cls(w[:3], list(zip(w[3:-1:2], w[4:-1:2])), w[-1])

    def named_tensors(self):
        for name, cw in self.convs():
            yield f"{name}.weight", cw.weight.data
            yield f"{name}.bias", cw.bias


def jpu_init(config: JpuConfig, rng: Rng, dtype=np.float64) -> JpuParams:
    return JpuParams.from_convs(init_weights(spec, rng, dtype=dtype) for _, spec, _ in config.layers())


@dataclass(eq=False)
class JpuCache:
    config: JpuConfig
    params: JpuParams
    inputs: tuple[Tensor, Tensor, Tensor]
    level_pre: list[Tensor]
    level_act: list[Tensor]
    y_c: Tensor
    branch_dw: list[Tensor]
    branch_pre: list[Tensor]
    branch_act: list[Tensor]
    fused_in: Tensor
    fusion_pre: Tensor
    output: Tensor


def _check_pyramid(c3: Tensor, c4: Tensor, c5: Tensor, config: JpuConfig) -> None:
    n, _, h, w = c3.shape
    expect = [
        (config.in_channels[0], h, w),
        (config.in_channels[1], h // 2, w // 2),
        (config.in_channels[2], h // 4, w // 4),
    ]
    for name, t, (c, eh, ew) in zip(("fine", "mid", "coarse"), (c3, c4, c5), expect):
        if t.shape != (n, c, eh, ew):
            raise ShapeError(f"{name} level shape {t.shape}, expected {(n, c, eh, ew)}")


def jpu_forward(c3: Tensor, c4: Tensor, c5: Tensor, params: JpuParams, config: JpuConfig) -> tuple[Tensor, JpuCache]:
    _check_pyramid(c3, c4, c5, config)
    h, w = c3.shape[2], c3.shape[3]
    level_pre, level_act = [], []
    for i, x in enumerate((c3, c4, c5)):
        z = conv2d(x, params.levels[i], config.level_spec(i))
        level_pre.append(z)
        level_act.append(relu(z))
    up4 = bilinear_resize(level_act[1], h, w)
    up5 = bilinear_resize(level_act[2], h, w)
    y_c = concat_channels([level_act[0], up4, up5])
    branch_dw, branch_pre, branch_act = [], [], []
    for rate, (dw, pw) in zip(config.dilation_rates, params.branches):
        dspec, pspec = config.branch_specs(rate)
        d = conv2d(y_c, dw, dspec)
        z = conv2d(d, pw, pspec)
        branch_dw.append(d)
        branch_pre.append(z)
        branch_act.append(relu(z))
    fused_in = concat_channels(branch_act)
    fusion_pre = conv2d(fused_in, params.fusion, config.fusion_spec())
    out = relu(fusion_pre)
    cache = JpuCache(
        config, params, (c3, c4, c5), level_pre, level_act, y_c,
        branch_dw, branch_pre, branch_act, fused_in, fusion_pre, out,
    )
    return out, cache


def jpu_backward(cache: JpuCache, grad_y: Tensor) -> tuple[JpuParams, tuple[Tensor, Tensor, Tensor]]:
    """Exact gradients of sum(grad_y * output) for every parameter and input.

    Parameter gradients come back in a JpuParams with the same structure as
    the parameters themselves.
    """
    cfg, params = cache.config, cache.params
    if grad_y.shape != cache.output.shape:
        raise ShapeError(f"grad shape {grad_y.shape} vs output {cache.output.shape}")
    width = cfg.width
    g_fpre = relu_backward(cache.fusion_pre, grad_y)
    g_fused, g_fw, g_fb = conv2d_backward(cache.fused_in, params.fusion, cfg.fusion_spec(), g_fpre)
    fusion_grad = ConvWeights(g_fw, g_fb)

    g_yc = np.zeros_like(cache.y_c.data)
    branch_grads = []
    for bi, (rate, (dw, pw)) in enumerate(zip(cfg.dilation_rates, params.branches)):
        dspec, pspec = cfg.branch_specs(rate)
        g_act = Tensor(np.ascontiguousarray(g_fused.data[:, bi * width : (bi + 1) * width]))
        g_pre = relu_backward(cache.branch_pre[bi], g_act)
        g_d, g_pww, g_pwb = conv2d_backward(cache.branch_dw[bi], pw, pspec, g_pre)
        g_in, g_dww, g_dwb = conv2d_backward(cache.y_c, dw, dspec, g_d)
        g_yc += g_in.data
        branch_grads.append((ConvWeights(g_dww, g_dwb), ConvWeights(g_pww, g_pwb)))

    level_grads, input_grads = [], []
    h4w4 = cache.level_act[1].shape[2:]
    h5w5 = cache.level_act[2].shape[2:]
    g_a3 = g_yc[:, :width]
    g_a4 = bilinear_resize_backward(g_yc[:, width : 2 * width], *h4w4)
    g_a5 = bilinear_resize_backward(g_yc[:, 2 * width :], *h5w5)
    for i, g_act_arr in enumerate((g_a3, g_a4, g_a5)):
        g_pre = relu_backward(cache.level_pre[i], Tensor(np.ascontiguousarray(g_act_arr)))
        g_x, g_w, g_b = conv2d_backward(cache.inputs[i], params.levels[i], cfg.level_spec(i), g_pre)
        level_grads.append(ConvWeights(g_w, g_b))
        input_grads.append(g_x)

    return JpuParams(level_grads, branch_grads, fusion_grad), tuple(input_grads)


# ---------------------------------------------------------------------------
# parameter serialization: directory of .jt files plus a JSON manifest


def _bias_to_tensor(b: np.ndarray) -> Tensor:
    return Tensor(b.reshape(1, b.size, 1, 1))


def save_jpu_params(dirpath, params: JpuParams, config: JpuConfig) -> None:
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for name, arr in params.named_tensors():
        t = _bias_to_tensor(np.asarray(arr)) if arr.ndim == 1 else Tensor(arr)
        save_jt(os.path.join(dirpath, name + ".jt"), t)
        names.append(name)
    manifest = {
        "schema": 1,
        "config": {
            "in_channels": list(config.in_channels),
            "width": config.width,
            "dilation_rates": list(config.dilation_rates),
            "out_channels": config.out_channels,
        },
        "tensors": names,
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _load_shaped(dirpath, name: str, shape) -> Tensor:
    t = load_jt(os.path.join(dirpath, name + ".jt"))
    if t.shape != shape:
        raise ValueError(f"{name}.jt holds a {t.shape} tensor, the manifest config needs {shape}")
    return t


def load_jpu_params(dirpath) -> tuple[JpuParams, JpuConfig]:
    """Read a checkpoint written by save_jpu_params; raises ValueError when a
    tensor's shape disagrees with the manifest config."""
    with open(os.path.join(dirpath, "manifest.json")) as f:
        manifest = json.load(f)
    c = manifest["config"]
    config = JpuConfig(
        tuple(c["in_channels"]), c["width"], tuple(c["dilation_rates"]), c["out_channels"]
    )
    params = JpuParams.from_convs(
        ConvWeights(
            _load_shaped(dirpath, f"{name}.weight", spec.weight_shape),
            _load_shaped(dirpath, f"{name}.bias", (1, spec.out_channels, 1, 1)).data.reshape(-1).copy(),
        )
        for name, spec, _ in config.layers()
    )
    return params, config
