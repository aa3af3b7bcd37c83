"""Joint pyramid upsampling module: forward pass, exact gradients, serialization.

FastFCN's one design: per-level 3x3 conv + ReLU to a common width C, bilinear
upsampling of the two coarser levels to the finest grid, channel
concatenation, four parallel separable convolutions (+ ReLU) at the dilation
rates `DILATION_RATES`, concatenation of the branch outputs to 4C channels, and
a final 3x3 4C -> 4C fusion conv + ReLU. The parameters and the cost model keep
each branch as its depthwise and pointwise layers; the forward runs it as one
dense dilated conv of the folded weights. The forward records each conv it
ran once, with its input and output, and the backward reads that record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conv import (
    ConvSpec,
    ConvWeights,
    conv2d,
    conv2d_backward,
    conv2d_weight_grads,
    init_weights,
    relu_backward,
)
from .tensor import (
    Rng,
    ShapeError,
    Tensor,
    _is_count,
    _read_all,
    _write_new,
    bilinear_resize,
    bilinear_resize_backward,
    concat_channels,
    load_jt,
    save_jt,
)


DILATION_RATES = (1, 2, 4, 8)  # one separable branch per rate


@dataclass(frozen=True)
class JpuConfig:
    in_channels: tuple[int, int, int]  # channels of the three input levels, fine to coarse
    width: int

    def __post_init__(self):
        c = self.in_channels
        if not (isinstance(c, tuple) and len(c) == 3 and all(map(_is_count, c))):
            raise ShapeError(f"in_channels must be three positive ints, got {c!r}")
        if not _is_count(self.width):
            raise ShapeError(f"width must be a positive int, got {self.width!r}")

    @property
    def out_channels(self) -> int:
        return len(DILATION_RATES) * self.width

    @lru_cache(maxsize=64)  # every forward and checkpoint asks
    def layers(self) -> tuple[tuple[str, ConvSpec, int], ...]:
        """The module's convs in execution order, as (name, spec, input pyramid level).

        Level 0 is the finest grid; every conv after the three level convs runs
        there. This is the one place the conv geometry is written: init,
        checkpoints, forward, backward, training and the cost model read it.
        """
        w = self.width
        table = [(f"level{i}", ConvSpec(c, w, kernel=(3, 3), padding=(1, 1)), i) for i, c in enumerate(self.in_channels)]
        c = 3 * w  # the branches read the three levels concatenated
        for i, r in enumerate(DILATION_RATES):  # a size-preserving depthwise 3x3, then a pointwise 1x1
            dspec = ConvSpec(c, c, kernel=(3, 3), dilation=(r, r), padding=(r, r), groups=c)
            table += [(f"branch{i}.depthwise", dspec, 0), (f"branch{i}.pointwise", ConvSpec(c, w, kernel=(1, 1)), 0)]
        fusion = ConvSpec(self.out_channels, self.out_channels, kernel=(3, 3), padding=(1, 1))
        return (*table, ("fusion", fusion, 0))


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


def jpu_init(config: JpuConfig, rng: Rng) -> JpuParams:
    return JpuParams.from_convs(init_weights(spec, rng) for _, spec, _ in config.layers())


@dataclass(eq=False)
class JpuCache:
    layers: dict[str, tuple[ConvSpec, ConvWeights]]  # the layer table with this pass's weights
    # (spec, weights, input, ReLU output) of each conv that ran, in order: the
    # levels, each branch as one conv of its folded weights ("branch{i}"), the fusion
    convs: dict[str, tuple[ConvSpec, ConvWeights, Tensor, Tensor]]


def _fold_branch(layers, i: int) -> tuple[ConvSpec, ConvWeights]:
    """Branch i's depthwise conv then its 1x1 pointwise conv, as one dense conv
    with the depthwise geometry: W[o, c, u, v] = P[o, c]·D[c, u, v] and b = P·b_d + b_p.

    At width w the branch does 9w/(w + 9) times the multiplies of the pair
    (4.24x at width 8; the cost model still counts the pair), but as one GEMM
    per tap it runs faster than two convs at the widths the runtime uses.
    """
    (dspec, dw), (pspec, pw) = layers[f"branch{i}.depthwise"], layers[f"branch{i}.pointwise"]
    p = pw.weight.data[:, :, 0, 0]
    folded = ConvWeights(Tensor(p[:, :, None, None] * dw.weight.data[:, 0]), p @ dw.bias + pw.bias)
    return _folded_spec(dspec, pspec), folded


@lru_cache(maxsize=64)  # every forward folds each branch; building a ConvSpec is ~11 us
def _folded_spec(dspec: ConvSpec, pspec: ConvSpec) -> ConvSpec:
    return ConvSpec(dspec.in_channels, pspec.out_channels, dspec.kernel, dspec.stride, dspec.dilation, dspec.padding)


def _unfold_grads(layers, i: int, g_w: np.ndarray, g_b: np.ndarray) -> tuple[ConvWeights, ConvWeights]:
    """The chain rule back through _fold_branch: branch i's depthwise and
    pointwise gradients from those of the folded weight and bias."""
    (_, dw), (_, pw) = layers[f"branch{i}.depthwise"], layers[f"branch{i}.pointwise"]
    p, d = pw.weight.data[:, :, 0, 0], dw.weight.data[:, 0]
    g_d = (g_w * p[:, :, None, None]).sum(axis=0)
    g_p = (g_w * d).sum(axis=(2, 3)) + np.outer(g_b, dw.bias)
    return ConvWeights(Tensor(g_d[:, None]), g_b @ p), ConvWeights(Tensor(g_p[:, :, None, None]), g_b)


def _check_pyramid(c3: Tensor, c4: Tensor, c5: Tensor, config: JpuConfig) -> None:
    n, _, h, w = c3.shape
    for (name, spec, level), t in zip(config.layers()[:3], (c3, c4, c5), strict=True):
        expect = (n, spec.in_channels, h >> level, w >> level)  # c3's grid halved once per level
        if t.shape != expect:
            raise ShapeError(f"{name} input shape {t.shape}, expected {expect}")


def _layer_weights(params: JpuParams, config: JpuConfig) -> dict[str, tuple[ConvSpec, ConvWeights]]:
    """Each layer's (spec, weights) by name; a ShapeError (a ValueError) names the first layer the params lack
    or hold beyond `config`'s, else the first whose weight shape, which fixes its bias's, differs from its spec's."""
    convs = dict(params.convs())
    for name, _, _ in config.layers():
        if name not in convs:
            raise ShapeError(f"the params hold no {name} layer, which the config needs")
    layers = {name: (spec, convs[name]) for name, spec, _ in config.layers()}
    if len(convs) != len(layers):
        raise ShapeError(f"the params hold a {next(n for n in convs if n not in layers)} layer, which the config lacks")
    for name, (spec, cw) in layers.items():
        if cw.weight.shape != spec.weight_shape:
            raise ShapeError(f"{name} holds a {cw.weight.shape} weight, the config needs {spec.weight_shape}")
    return layers


def jpu_forward(c3: Tensor, c4: Tensor, c5: Tensor, params: JpuParams, config: JpuConfig) -> tuple[Tensor, JpuCache]:
    _check_pyramid(c3, c4, c5, config)
    h, w = c3.shape[2], c3.shape[3]
    layers = _layer_weights(params, config)
    convs = {}

    def conv(name: str, spec: ConvSpec, cw: ConvWeights, x: Tensor) -> Tensor:
        y = conv2d(x, cw, spec, relu=True)
        convs[name] = (spec, cw, x, y)
        return y

    a3, a4, a5 = (conv(f"level{i}", *layers[f"level{i}"], x) for i, x in enumerate((c3, c4, c5)))
    y_c = concat_channels([a3, bilinear_resize(a4, h, w), bilinear_resize(a5, h, w)])
    fused_in = concat_channels([conv(f"branch{i}", *_fold_branch(layers, i), y_c) for i in range(len(DILATION_RATES))])
    out = conv("fusion", *layers["fusion"], fused_in)
    return out, JpuCache(layers, convs)


def jpu_backward(cache: JpuCache, grad_y: Tensor) -> tuple[JpuParams, tuple[Tensor, Tensor, Tensor]]:
    """Exact gradients of sum(grad_y * output) for every parameter and input.

    Parameter gradients come back in a JpuParams with the same structure as
    the parameters themselves.
    """
    return _gradients(cache, grad_y, True)


def jpu_param_grads(cache: JpuCache, grad_y: Tensor) -> JpuParams:
    """`jpu_backward(cache, grad_y)[0]`, byte for byte, without the input
    gradients: for a JPU whose pyramid is fixed data, as in training, the level
    convs run `conv2d_weight_grads` and skip their input gradients' GEMMs."""
    return _gradients(cache, grad_y, False)[0]


def _gradients(cache: JpuCache, grad_y: Tensor, input_grads: bool):
    """(parameter gradients, input gradients) of both backward entry points;
    the input gradients are None unless input_grads."""
    layers, convs = cache.layers, cache.convs
    if grad_y.shape != convs["fusion"][3].shape:
        raise ShapeError(f"grad shape {grad_y.shape} vs output {convs['fusion'][3].shape}")

    def back(name: str, g: Tensor, input_grad: bool = True) -> tuple[Tensor | None, Tensor, np.ndarray]:
        """Mirror of a forward conv: from the gradient of its ReLU output,
        those of its input (None unless input_grad), weight and bias."""
        spec, cw, x, y = convs[name]
        g = relu_backward(y, g)  # relu(z) > 0 exactly where z > 0
        return conv2d_backward(x, cw, spec, g) if input_grad else (None, *conv2d_weight_grads(x, cw, spec, g))

    width = layers["level0"][0].out_channels  # every level and branch emits `width` channels
    g_fused, *fusion = back("fusion", grad_y)
    g_yc, branches = np.zeros_like(convs["branch0"][2].data), []
    for i in range(len(DILATION_RATES)):
        g_x, g_w, g_b = back(f"branch{i}", Tensor(g_fused.data[:, i * width : (i + 1) * width]))
        g_yc += g_x.data
        branches.append(_unfold_grads(layers, i, g_w.data, g_b))

    g_levels = [g_yc[:, :width]] + [
        bilinear_resize_backward(g_yc[:, i * width : (i + 1) * width], *convs[f"level{i}"][3].shape[2:]) for i in (1, 2)
    ]
    levels = [back(f"level{i}", Tensor(g), input_grads) for i, g in enumerate(g_levels)]
    grads = JpuParams([ConvWeights(g_w, g_b) for _, g_w, g_b in levels], branches, ConvWeights(*fusion))
    return grads, tuple(g_x for g_x, _, _ in levels) if input_grads else None


# ---------------------------------------------------------------------------
# parameter serialization: directory of .jt files plus a JSON manifest


@lru_cache(maxsize=64)  # every save writes it and every load compares against it; callers only read it
def _manifest(config: JpuConfig) -> tuple[dict, bytes]:
    """The manifest save_jpu_params writes for a config, and its file's bytes: load_jpu_params accepts exactly this."""
    manifest = {
        "schema": 1,
        "config": {
            "in_channels": list(config.in_channels),
            "width": config.width,
            "dilation_rates": list(DILATION_RATES),
            "out_channels": config.out_channels,
        },
        "tensors": [f"{name}.{part}" for name, _, _ in config.layers() for part in ("weight", "bias")],
    }
    return manifest, json.dumps(manifest, indent=2, sort_keys=True).encode()


def save_jpu_params(dirpath, params: JpuParams, config: JpuConfig) -> None:
    """Checks each layer's weight shape against `config` before writing any
    file (ValueError), so a checkpoint that saves also loads."""
    layers = _layer_weights(params, config)
    os.makedirs(dirpath, exist_ok=True)
    prefix = os.path.join(dirpath, "")
    for name, (_, cw) in layers.items():
        save_jt(f"{prefix}{name}.weight.jt", cw.weight)
        save_jt(f"{prefix}{name}.bias.jt", Tensor(cw.bias.reshape(1, -1, 1, 1)))
    _write_new(prefix + "manifest.json", _manifest(config)[1])


def _load_shaped(prefix: str, name: str, shape) -> Tensor:
    t = load_jt(f"{prefix}{name}.jt")
    if t.shape != shape:
        raise ValueError(f"{name}.jt holds a {t.shape} tensor, the manifest config needs {shape}")
    return t


def _manifest_config(manifest) -> JpuConfig:
    c = manifest.get("config") if isinstance(manifest, dict) else None
    if not (isinstance(c, dict) and isinstance(c.get("in_channels"), list)):
        raise ValueError(f"malformed checkpoint manifest config {c!r}")
    config = JpuConfig(tuple(c["in_channels"]), c.get("width"))  # any other rates or output width fail the comparison
    if type(manifest.get("schema")) is not int or manifest != _manifest(config)[0]:
        raise ValueError(f"checkpoint manifest is not a schema-1 manifest of {config}")
    return config


def load_jpu_params(dirpath) -> tuple[JpuParams, JpuConfig]:
    """Read a checkpoint written by save_jpu_params; raises ValueError for a
    malformed manifest and when a tensor's shape disagrees with its config."""
    prefix = os.path.join(dirpath, "")
    config = _manifest_config(json.loads(_read_all(prefix + "manifest.json").decode()))
    params = JpuParams.from_convs(
        ConvWeights(
            _load_shaped(prefix, f"{name}.weight", spec.weight_shape),
            _load_shaped(prefix, f"{name}.bias", (1, spec.out_channels, 1, 1)).data.reshape(-1),
        )
        for name, spec, _ in config.layers()
    )
    return params, config
