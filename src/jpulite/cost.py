"""Analytic MAC / parameter / activation-memory model of the two ResNet presets.

All counts are exact Python integers. `conv_cost_from_spec` charges a ConvSpec
kh*kw*(in_ch/groups)*out_ch*out_h*out_w multiply-accumulates; bias adds are
multiply-free and tracked separately; ReLU and elementwise work are excluded.
Bilinear resizing is charged a documented flat 8 MACs per output element.

The bottleneck block follows the original placement with the stride on the
first 1x1 conv (and on the projection shortcut), so every conv of a block runs
at the block's own grid. Both modes route every conv by `decomp.frozen`, at
output stride 8 (dilated) or 32 (stride). Each frozen step multiplies every conv
in the affected stages by exactly the area ratio, x4 for one, x16 for two; the
dilation it moves to every later 3x3, the block's own conv2 first, changes none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conv import ConvSpec
from .decomp import DILATED_OS, STRIDE_OS, frozen
from .jpu import JpuConfig
from .tensor import ShapeError

RESIZE_MACS_PER_ELEM = 8

DILATED_MODE = "dilated_os8"
STRIDE_JPU_MODE = "stride_os32_plus_jpu"
_OUTPUT_STRIDE = {DILATED_MODE: DILATED_OS, STRIDE_JPU_MODE: STRIDE_OS}  # where `frozen` stops each mode
MODES = tuple(_OUTPUT_STRIDE)


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


def conv_cost_from_spec(spec: ConvSpec, in_hw, with_bias=False) -> LayerCost:
    """One MAC per weight per output position. `spec.out_hw` raises ShapeError
    unless `in_hw` is two positive ints that the kernel fits."""
    oh, ow = spec.out_hw(in_hw)
    o, cg, kh, kw = spec.weight_shape
    weights, act = o * cg * kh * kw, o * oh * ow
    return LayerCost(weights * oh * ow, weights + (o if with_bias else 0), act, act if with_bias else 0)


RESNET_BLOCKS = {"resnet50": (3, 4, 6, 3), "resnet101": (3, 4, 23, 3)}  # bottleneck blocks per stage


@dataclass(frozen=True)
class BackboneSpec:
    """A bottleneck ResNet preset named in `RESNET_BLOCKS`, and nothing else."""

    name: str

    def __post_init__(self):
        if self.name not in RESNET_BLOCKS:
            raise KeyError(f"unknown backbone preset {self.name!r}")

    def layers(self, mode: str, input_hw) -> list[tuple[str, ConvSpec, tuple[int, int]]]:
        """The convs in execution order, as (name, spec, input grid). A 64-channel
        7x7 stem reads RGB and a 3x3 stride-2 max pool (0 MACs) follows it; then
        stage i (0-based) has 64·2^i mid and 256·2^i out channels and enters at
        stride 1, then 2. `decomp.frozen` gives each conv its stride and dilation from
        its input's output stride and the mode's stop; an unknown mode is a KeyError."""
        target = _OUTPUT_STRIDE[mode]
        grid = _check_input_hw(input_hw)
        stem = ConvSpec(3, 64, kernel=(7, 7), stride=(2, 2), padding=(3, 3))
        table = [("stem.conv", stem, grid)]
        grid, ci, a = tuple((g - 1) // 2 + 1 for g in stem.out_hw(grid)), stem.out_channels, 4
        for i, blocks in enumerate(RESNET_BLOCKS[self.name]):
            mid, out, s = 64 << i, 256 << i, 2 if i else 1
            for b in range(blocks):
                prefix = f"stage{i + 1}.block{b:02d}"
                (t, _), (_, d) = frozen(a, s, target), frozen(a * s, 1, target)
                conv1 = ConvSpec(ci, mid, kernel=(1, 1), stride=(t, t))
                inner = conv1.out_hw(grid)
                table += [
                    (f"{prefix}.conv1", conv1, grid),
                    (f"{prefix}.conv2", ConvSpec(mid, mid, dilation=(d, d), padding=(d, d)), inner),
                    (f"{prefix}.conv3", ConvSpec(mid, out, kernel=(1, 1)), inner),
                ]
                if b == 0:
                    table.append((f"{prefix}.downsample", ConvSpec(ci, out, kernel=(1, 1), stride=(t, t)), grid))
                grid, ci, a, s = inner, out, a * s, 1
        return table


@dataclass(frozen=True)
class CostEntry:
    name: str
    cost: LayerCost

    @property
    def stage(self) -> str:
        return self.name.split(".")[0]


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
        return sum((e.cost for e in self.entries), LayerCost())

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


def _check_input_hw(input_hw) -> tuple[int, int]:
    """The runtime backbone and the cost model take only positive multiples of
    STRIDE_OS; flooring any other size would cost geometry that no forward pass produces."""
    h, w = input_hw
    if h < STRIDE_OS or w < STRIDE_OS or h % STRIDE_OS or w % STRIDE_OS:
        raise ShapeError(f"input dims must be positive multiples of {STRIDE_OS}, got {(h, w)}")
    return h, w


def jpu_cost_entries(config: JpuConfig, input_hw) -> list[CostEntry]:
    """The JPU's layer table on a pyramid at output strides 8/16/32, with the
    bilinear upsampling of the two coarser levels charged after the level convs."""
    h, w = _check_input_hw(input_hw)
    entries = []
    for name, spec, level in config.layers():
        grid = (h // (DILATED_OS << level), w // (DILATED_OS << level))
        entries.append(CostEntry(f"jpu.{name}", conv_cost_from_spec(spec, grid, with_bias=True)))
    resize_elems = 2 * config.width * (h // DILATED_OS) * (w // DILATED_OS)
    upsample = CostEntry("jpu.upsample", LayerCost(macs=RESIZE_MACS_PER_ELEM * resize_elems, activation_elems=resize_elems))
    entries.insert(len(config.in_channels), upsample)
    return entries


def backbone_cost(spec: BackboneSpec, mode: str, input_hw=(512, 512), jpu_width: int = 512) -> CostReport:
    """Every conv of `spec.layers`, plus the JPU's layer table in stride mode."""
    table = spec.layers(mode, input_hw)
    entries = [CostEntry(name, conv_cost_from_spec(cs, grid)) for name, cs, grid in table]
    if mode == STRIDE_JPU_MODE:
        levels = tuple(cs.out_channels for name, cs, _ in table if name.endswith("block00.conv3"))[1:]
        entries += jpu_cost_entries(JpuConfig(levels, width=jpu_width), input_hw)
    return CostReport(spec.name, mode, _check_input_hw(input_hw), entries)


def compare_costs(a: CostReport, b: CostReport) -> dict:
    """Ratio table a/b (MACs), per stage and in total."""
    out: dict = {"a": a.mode, "b": b.mode, "stages": {}, "total_ratio": None}
    at, bt = a.stage_totals(), b.stage_totals()
    for stage in at:
        if stage in bt and bt[stage].macs:
            out["stages"][stage] = at[stage].macs / bt[stage].macs
    out["total_ratio"] = a.total().macs / b.total().macs
    return out
