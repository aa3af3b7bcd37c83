"""Analytic MAC / parameter / activation-memory model over symbolic backbone specs.

All counts are exact Python integers. A convolution layer costs
kh*kw*(in_ch/groups)*out_ch*out_h*out_w multiply-accumulates; bias adds are
multiply-free and tracked separately; ReLU and elementwise work are excluded.
Bilinear resizing is charged a documented flat 8 MACs per output element.

The bottleneck block follows the original placement with the stride on the
first 1x1 conv (and on the projection shortcut), so every conv of a block runs
at the block's own grid. Freezing a downsampling step therefore multiplies
every conv in the affected stages by exactly the area ratio: x4 for one frozen
step, x16 for two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jpu import JpuConfig

RESIZE_MACS_PER_ELEM = 8

DILATED_MODE = "dilated_os8"
STRIDE_JPU_MODE = "stride_os32_plus_jpu"
MODES = (DILATED_MODE, STRIDE_JPU_MODE)


@dataclass(frozen=True)
class LayerCost:
    macs: int = 0
    params: int = 0
    activation_elems: int = 0
    bias_adds: int = 0

    def __add__(self, other: "LayerCost") -> "LayerCost":
        return LayerCost(
            self.macs + other.macs,
            self.params + other.params,
            self.activation_elems + other.activation_elems,
            self.bias_adds + other.bias_adds,
        )


def conv_cost(kernel, in_channels, out_channels, out_hw, groups=1, with_bias=False) -> LayerCost:
    kh, kw = kernel
    oh, ow = out_hw
    if oh < 1 or ow < 1 or in_channels % groups or out_channels % groups:
        raise ValueError(f"invalid conv cost query: k={kernel} c={in_channels}->{out_channels} out={out_hw}")
    macs = kh * kw * (in_channels // groups) * out_channels * oh * ow
    params = kh * kw * (in_channels // groups) * out_channels + (out_channels if with_bias else 0)
    act = out_channels * oh * ow
    return LayerCost(macs, params, act, act if with_bias else 0)


def conv_cost_from_spec(spec, in_hw, with_bias=False) -> LayerCost:
    """LayerCost for a runtime ConvSpec (used to cross-check against instrumented convs)."""
    out_hw = spec.out_hw(in_hw)
    return conv_cost(spec.kernel, spec.in_channels, spec.out_channels, out_hw, spec.groups, with_bias)


@dataclass(frozen=True)
class StageSpec:
    blocks: int
    in_channels: int
    mid_channels: int
    out_channels: int
    entry_stride: int  # 1 or 2; removed (turned into dilation) in dilated mode past OS 8


@dataclass(frozen=True)
class BackboneSpec:
    name: str
    stem_channels: int
    stages: tuple[StageSpec, ...]
    image_channels: int = 3


def resnet_preset(name: str) -> BackboneSpec:
    blocks = {"resnet50": (3, 4, 6, 3), "resnet101": (3, 4, 23, 3)}.get(name)
    if blocks is None:
        raise KeyError(f"unknown backbone preset {name!r}")
    stages = []
    in_ch = 64
    for i, nb in enumerate(blocks):
        mid = 64 * 2**i
        out = 256 * 2**i
        stages.append(StageSpec(nb, in_ch, mid, out, entry_stride=1 if i == 0 else 2))
        in_ch = out
    return BackboneSpec(name, 64, tuple(stages))


@dataclass(frozen=True)
class CostEntry:
    name: str
    stage: str
    cost: LayerCost


@dataclass
class CostReport:
    backbone: str
    mode: str
    input_hw: tuple[int, int]
    entries: list[CostEntry] = field(default_factory=list)

    def stage_totals(self) -> dict[str, LayerCost]:
        out: dict[str, LayerCost] = {}
        for e in self.entries:
            out[e.stage] = out.get(e.stage, LayerCost()) + e.cost
        return out

    def total(self) -> LayerCost:
        t = LayerCost()
        for e in self.entries:
            t = t + e.cost
        return t

    def to_dict(self) -> dict:
        return {
            "backbone": self.backbone,
            "mode": self.mode,
            "input_hw": list(self.input_hw),
            "layers": [
                {"name": e.name, "stage": e.stage, **e.cost.__dict__} for e in self.entries
            ],
            "stage_totals": {s: c.__dict__ for s, c in self.stage_totals().items()},
            "total": self.total().__dict__,
        }


def _bottleneck_entries(stage_name: str, stage: StageSpec, out_hw) -> list[CostEntry]:
    entries = []
    for b in range(stage.blocks):
        ci = stage.in_channels if b == 0 else stage.out_channels
        prefix = f"{stage_name}.block{b:02d}"
        entries.append(CostEntry(f"{prefix}.conv1", stage_name, conv_cost((1, 1), ci, stage.mid_channels, out_hw)))
        entries.append(CostEntry(f"{prefix}.conv2", stage_name, conv_cost((3, 3), stage.mid_channels, stage.mid_channels, out_hw)))
        entries.append(CostEntry(f"{prefix}.conv3", stage_name, conv_cost((1, 1), stage.mid_channels, stage.out_channels, out_hw)))
        if b == 0:
            entries.append(CostEntry(f"{prefix}.downsample", stage_name, conv_cost((1, 1), ci, stage.out_channels, out_hw)))
    return entries


def _check_input_hw(input_hw) -> tuple[int, int]:
    """The runtime backbone takes only positive multiples of 32; flooring any
    other size would cost geometry that no forward pass produces."""
    h, w = input_hw
    if h < 32 or w < 32 or h % 32 or w % 32:
        raise ValueError(f"input dims must be positive multiples of 32, got {(h, w)}")
    return h, w


def jpu_cost_entries(config: JpuConfig, input_hw) -> list[CostEntry]:
    """The JPU's layer table on a pyramid at output strides 8/16/32, with the
    bilinear upsampling of the two coarser levels charged after the level convs."""
    h, w = _check_input_hw(input_hw)
    entries = []
    for name, spec, level in config.layers():
        grid = (h // (8 << level), w // (8 << level))
        entries.append(CostEntry(f"jpu.{name}", "jpu", conv_cost_from_spec(spec, grid, with_bias=True)))
    resize_elems = 2 * config.width * (h // 8) * (w // 8)
    upsample = CostEntry("jpu.upsample", "jpu", LayerCost(macs=RESIZE_MACS_PER_ELEM * resize_elems, activation_elems=resize_elems))
    entries.insert(len(config.in_channels), upsample)
    return entries


def backbone_cost(spec: BackboneSpec, mode: str, input_hw=(512, 512), jpu_config: JpuConfig | None = None) -> CostReport:
    if mode not in MODES:
        raise KeyError(f"unknown mode {mode!r}")
    h, w = _check_input_hw(input_hw)
    report = CostReport(spec.name, mode, (h, w))
    report.entries.append(
        CostEntry("stem.conv", "stem", conv_cost((7, 7), spec.image_channels, spec.stem_channels, (h // 2, w // 2)))
    )
    os = 4  # after the stem maxpool
    for i, st in enumerate(spec.stages):
        os *= st.entry_stride
        eff_os = min(os, 8) if mode == DILATED_MODE else os
        report.entries.extend(_bottleneck_entries(f"stage{i + 1}", st, (h // eff_os, w // eff_os)))
    if mode == STRIDE_JPU_MODE:
        if jpu_config is None:
            jpu_config = JpuConfig(
                (spec.stages[-3].out_channels, spec.stages[-2].out_channels, spec.stages[-1].out_channels),
                width=512,
            )
        report.entries.extend(jpu_cost_entries(jpu_config, (h, w)))
    return report


def compare_costs(a: CostReport, b: CostReport, per_layer: bool = False) -> dict:
    """Ratio table a/b (MACs); per-layer mode requires matching layer structure."""
    out: dict = {"a": a.mode, "b": b.mode, "stages": {}, "total_ratio": None}
    at, bt = a.stage_totals(), b.stage_totals()
    for stage in at:
        if stage in bt and bt[stage].macs:
            out["stages"][stage] = at[stage].macs / bt[stage].macs
    out["total_ratio"] = a.total().macs / b.total().macs
    if per_layer:
        b_back = [e for e in b.entries if e.stage != "jpu"]
        if [e.name for e in a.entries] != [e.name for e in b_back]:
            raise ValueError("layer structures differ; per-layer comparison undefined")
        out["layers"] = {
            ea.name: ea.cost.macs / eb.cost.macs
            for ea, eb in zip(a.entries, b_back)
            if eb.cost.macs
        }
    return out
