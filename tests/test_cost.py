import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpulite.conv import ConvSpec, ConvWeights, conv2d, init_weights, relu
from jpulite.cost import (
    DILATED_MODE,
    MODES,
    STRIDE_JPU_MODE,
    BackboneSpec,
    CostReport,
    CostEntry,
    RESNET_BLOCKS,
    LayerCost,
    backbone_cost,
    compare_costs,
    conv_cost_from_spec,
    jpu_cost_entries,
)
from jpulite.jpu import JpuConfig
from jpulite.tensor import Rng, ShapeError, Tensor, random_uniform

from test_conv import FIELD_VALUES, PAIR_VALUES, is_count, is_pair, random_case


def test_conv_cost_examples():
    assert conv_cost_from_spec(ConvSpec(2, 4), (10, 10)).macs == 3 * 3 * 2 * 4 * 8 * 8 == 4608
    assert conv_cost_from_spec(ConvSpec(5, 7, kernel=(1, 1)), (6, 4)).macs == 5 * 7 * 6 * 4
    # doubling spatial resolution quadruples the MACs
    same = ConvSpec(2, 4, padding=(1, 1))
    assert conv_cost_from_spec(same, (16, 16)).macs == 4 * conv_cost_from_spec(same, (8, 8)).macs


def test_conv_cost_bias_tracked_separately():
    spec = ConvSpec(2, 4, padding=(1, 1))
    c = conv_cost_from_spec(spec, (8, 8), with_bias=True)
    assert c.bias_adds == 4 * 8 * 8
    assert c.params == 3 * 3 * 2 * 4 + 4
    assert conv_cost_from_spec(spec, (8, 8)).bias_adds == 0


def test_conv_cost_rejects_invalid():
    with pytest.raises(ValueError):
        conv_cost_from_spec(ConvSpec(3, 4, padding=(1, 1), groups=2), (8, 8))
    with pytest.raises(ValueError):
        conv_cost_from_spec(ConvSpec(2, 4, padding=(1, 1)), (0, 8))


@given(
    kernel=PAIR_VALUES, in_hw=PAIR_VALUES, padding=st.integers(0, 3),
    counts=st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES),
)
@example(kernel=(3, 3), in_hw=(2, 2), padding=0, counts=(-4, -8, 1))
# grids no tensor has, which the padding would otherwise turn into a positive output
@example(kernel=(1, 1), in_hw=(0, 8), padding=1, counts=(2, 4, 1))
@example(kernel=(1, 1), in_hw=(-4, 8), padding=3, counts=(2, 4, 1))
def test_conv_cost_accepts_only_positive_ints(kernel, in_hw, padding, counts):
    cin, cout, groups = counts
    grid = type(in_hw) in (tuple, list) and len(in_hw) == 2 and all(map(is_count, in_hw))
    out_hw = grid and is_pair(kernel, 1) and [i + 2 * padding - k + 1 for i, k in zip(in_hw, kernel)]

    def cost():
        return conv_cost_from_spec(ConvSpec(cin, cout, kernel=kernel, padding=(padding, padding), groups=groups), in_hw)

    if out_hw and min(out_hw) >= 1 and all(map(is_count, counts)) and not (cin % groups or cout % groups):
        c = cost()
        assert c.macs == kernel[0] * kernel[1] * (cin // groups) * cout * out_hw[0] * out_hw[1] > 0
        assert c.activation_elems == cout * out_hw[0] * out_hw[1] > 0
    else:
        with pytest.raises(ShapeError):
            cost()


def _assert_stages_chain(spec: BackboneSpec, mode: str):
    """Every block's conv1 and downsample read the stem's or the previous block's conv3 width."""
    width = block_in = None
    checked = 0
    for name, cs, _ in spec.layers(mode, (64, 64)):
        part = name.rsplit(".", 1)[1]
        if part == "conv1":
            block_in = width
        if part in ("conv1", "downsample"):
            assert cs.in_channels == block_in, name
            checked += 1
        if part in ("conv", "conv3"):  # the stem, then each block's last conv
            width = cs.out_channels
    assert checked == sum(blocks + 1 for blocks in RESNET_BLOCKS[spec.name])


@pytest.mark.parametrize("mode", [DILATED_MODE, STRIDE_JPU_MODE])
@pytest.mark.parametrize("name", ["resnet50", "resnet101"])
def test_preset_stages_chain(name, mode):
    _assert_stages_chain(BackboneSpec(name), mode)


@pytest.mark.parametrize("seed", range(50))
def test_model_matches_instrumented_conv(seed):
    x, w, spec = random_case(seed + 500, max_dim=7)
    _, mults = conv2d(x, w, spec, count_macs=True)
    predicted = conv_cost_from_spec(spec, x.shape[2:]).macs * x.shape[0]
    assert mults == predicted


@pytest.mark.parametrize("mode", [DILATED_MODE, STRIDE_JPU_MODE])
def test_preset_table_matches_loop_nest(mode):
    # each layer, run alone on an input of its grid, counts exactly its cost entry's MACs
    spec = BackboneSpec("resnet50")
    table = spec.layers(mode, (32, 32))
    entries = backbone_cost(spec, mode, (32, 32)).entries
    assert len(table) == 53
    assert [name for name, _, _ in table] == [e.name for e in entries[:53]]
    for (name, cs, grid), entry in zip(table, entries):
        x = Tensor(np.zeros((1, cs.in_channels, *grid), np.float32))
        w = ConvWeights(Tensor(np.zeros(cs.weight_shape, np.float32)), np.zeros(cs.out_channels, np.float32))
        _, macs = conv2d(x, w, cs, count_macs=True)
        assert macs == entry.cost.macs, name
    # dilated mode keeps output stride 8: stages 3 and 4 run at stride 1, and the stride each
    # drops on its first 1x1 conv dilates every 3x3 after it, the first included (2, then 4)
    frozen = {"stage3": (2, 2), "stage4": (4, 4)} if mode == DILATED_MODE else {}
    for name, cs, _ in table:
        stage = name.split(".")[0]
        head, body = frozen.get(stage, (1, 1))
        d = head if name.startswith(f"{stage}.block00.") else body
        assert cs.dilation == (d, d) or cs.kernel == (1, 1), name
        if stage in frozen:
            assert cs.stride == (1, 1), name


def test_preset_shapes():
    for name, blocks in (("resnet50", (3, 4, 6, 3)), ("resnet101", (3, 4, 23, 3))):
        spec = BackboneSpec(name)
        assert RESNET_BLOCKS[spec.name] == blocks
        table = spec.layers(DILATED_MODE, (64, 64))
        assert (table[0][1].in_channels, table[0][1].out_channels) == (3, 64)  # the stem reads RGB
        # stage i (0-based) has 64·2^i mid and 256·2^i out channels, in every block
        for i, n in enumerate(blocks):
            stage = [cs for layer, cs, _ in table if layer.startswith(f"stage{i + 1}.")]
            assert len(stage) == 3 * n + 1, (name, i)
            assert {cs.out_channels for cs in stage} == {64 << i, 256 << i}
            assert {(cs.in_channels, cs.out_channels) for cs in stage if cs.kernel == (3, 3)} == {(64 << i, 64 << i)}


def _bottleneck(x, block, table, weights):
    """`block`'s conv1 -> conv2 -> conv3 with ReLUs between, plus its projection
    shortcut (or the identity), then the ReLU of the sum."""
    def conv(layer, a, **kwargs):
        name = f"{block}.{layer}"
        return conv2d(a, weights[name], table[name][0], **kwargs)

    y = conv("conv3", conv("conv2", conv("conv1", x, relu=True), relu=True))
    shortcut = conv("downsample", x) if f"{block}.downsample" in table else x
    return relu(Tensor(y.data + shortcut.data))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("block", ["stage3.block00", "stage3.block01", "stage4.block00", "stage4.block01"])
@pytest.mark.parametrize("name", ["resnet50", "resnet101"])
def test_bottleneck_stride_output_is_dilated_phase(name, block, dtype, tol):
    # one block of each wiring from the preset's own specs, channels shrunk 128x, weights shared:
    # fed the dilated input's phase, the stride block gives the dilated output's phase, each
    # phase step being the ratio of the two tables' grids at that map
    tables = {
        mode: {
            layer: (dataclasses.replace(cs, in_channels=cs.in_channels // 128, out_channels=cs.out_channels // 128), grid)
            for layer, cs, grid in BackboneSpec(name).layers(mode, (512, 512))
            if layer.startswith(f"{block}.")
        }
        for mode in MODES
    }
    dilated, stride = tables[DILATED_MODE], tables[STRIDE_JPU_MODE]
    assert dilated.keys() == stride.keys()
    rng = Rng(3)
    weights = {
        layer: ConvWeights(init_weights(cs, rng, dtype).weight, rng.uniform(cs.out_channels, -0.5, 0.5).astype(dtype))
        for layer, (cs, _) in stride.items()
    }
    p_in, p_out = (dilated[f"{block}.{c}"][1][0] // stride[f"{block}.{c}"][1][0] for c in ("conv1", "conv3"))
    x = random_uniform((2, stride[f"{block}.conv1"][0].in_channels, 16, 16), Rng(4), -1.0, 1.0, dtype=dtype)
    y_d = _bottleneck(x, block, dilated, weights).data
    y_s = _bottleneck(Tensor(x.data[:, :, ::p_in, ::p_in]), block, stride, weights).data
    assert y_s.dtype == dtype and y_s.shape[2:] == (16 // p_out, 16 // p_out)
    assert np.max(np.abs(y_d[:, :, ::p_out, ::p_out] - y_s)) <= tol


def _c5_receptive_field(table):
    """c5's receptive field in pixels along the longest path: the stem, the 3x3
    stride-2 max pool and every block's conv1-conv3, shortcuts left out, by the
    closed form of Araujo et al. (Distill 2019): r += (k - 1)·d·j, then j *= s."""
    pool = ("stem.pool", ConvSpec(1, 1, stride=(2, 2), padding=(1, 1)), None)
    r, j = 1, 1
    for layer, cs, _ in [table[0], pool, *table[1:]]:
        if not layer.endswith(".downsample"):
            r, j = r + (cs.kernel[0] - 1) * cs.dilation[0] * j, j * cs.stride[0]
    return r


@pytest.mark.parametrize("name, pixels", [("resnet50", 483), ("resnet101", 1027)])
def test_c5_receptive_field_matches_between_wirings(name, pixels):
    spec = BackboneSpec(name)
    assert {mode: _c5_receptive_field(spec.layers(mode, (512, 512))) for mode in MODES} == dict.fromkeys(MODES, pixels)


@pytest.mark.parametrize("name", ["vgg", "resnet18", "ResNet50", ""])
def test_only_the_two_presets_can_be_costed(name):
    with pytest.raises(KeyError, match="unknown backbone preset"):
        BackboneSpec(name)
    # the name is the only field: no stem width or stage table can be set
    assert [f.name for f in dataclasses.fields(BackboneSpec)] == ["name"]
    with pytest.raises(TypeError):
        BackboneSpec("resnet50", 64, ())


def _block_macs(report, stage):
    blocks = {}
    for e in report.entries:
        if e.stage == stage:
            block = e.name.rsplit(".", 1)[0]
            blocks[block] = blocks.get(block, 0) + e.cost.macs
    return blocks


def _assert_block_ratios(name, input_hw):
    spec = BackboneSpec(name)
    d = backbone_cost(spec, DILATED_MODE, input_hw)
    s = backbone_cost(spec, STRIDE_JPU_MODE, input_hw)
    for stage, factor in (("stage3", 4), ("stage4", 16)):
        bd, bs = _block_macs(d, stage), _block_macs(s, stage)
        assert bd.keys() == bs.keys()
        for block in bd:
            assert bd[block] == factor * bs[block], block
    for stage in ("stem", "stage1", "stage2"):
        assert d.stage_totals()[stage].macs == s.stage_totals()[stage].macs


@pytest.mark.parametrize("name", ["resnet50", "resnet101"])
@pytest.mark.parametrize("input_hw", [(512, 512), (256, 256)])
def test_stage_block_ratios(name, input_hw):
    _assert_block_ratios(name, input_hw)


@given(
    name=st.sampled_from(["resnet50", "resnet101"]),
    h=st.integers(1, 64).map(lambda k: 32 * k),
    w=st.integers(1, 64).map(lambda k: 32 * k),
)
@settings(max_examples=60, deadline=None)
def test_stage_block_ratios_every_accepted_size(name, h, w):
    # every positive multiple of 32 is accepted, and freezing one (two) strides costs exactly 4x (16x)
    _assert_block_ratios(name, (h, w))


def test_stage5_activation_memory_ratio():
    spec = BackboneSpec("resnet101")
    d = backbone_cost(spec, DILATED_MODE, (512, 512))
    s = backbone_cost(spec, STRIDE_JPU_MODE, (512, 512))
    assert d.stage_totals()["stage4"].activation_elems == 16 * s.stage_totals()["stage4"].activation_elems


def test_report_additivity():
    r = backbone_cost(BackboneSpec("resnet50"), STRIDE_JPU_MODE, (512, 512))
    total = r.total()
    by_stage = r.stage_totals()
    assert total.macs == sum(c.macs for c in by_stage.values())
    assert total.macs == sum(e.cost.macs for e in r.entries)
    assert total.params == sum(e.cost.params for e in r.entries)


def test_params_unchanged_by_dilation():
    spec = BackboneSpec("resnet101")
    d = backbone_cost(spec, DILATED_MODE, (512, 512))
    s = backbone_cost(spec, STRIDE_JPU_MODE, (512, 512))
    s_backbone_params = sum(e.cost.params for e in s.entries if e.stage != "jpu")
    assert d.total().params == s_backbone_params


def test_jpu_cost_entries_structure():
    cfg = JpuConfig((512, 1024, 2048), width=512)
    entries = jpu_cost_entries(cfg, (512, 512))
    names = [e.name for e in entries]
    assert names[0] == "jpu.level0" and names[-1] == "jpu.fusion"
    lvl0 = entries[0].cost
    assert lvl0.macs == 9 * 512 * 512 * 64 * 64
    fusion = entries[-1].cost
    assert fusion.macs == 9 * (4 * 512) * (4 * 512) * 64 * 64
    up = [e for e in entries if e.name == "jpu.upsample"][0]
    assert up.cost.macs == 8 * 2 * 512 * 64 * 64


@pytest.mark.parametrize("hw", [(500, 500), (512, 500), (48, 64), (0, 32)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_jpu_cost_entries_rejects_input_not_multiple_of_32(hw):
    with pytest.raises(ValueError, match="multiples of 32"):
        jpu_cost_entries(JpuConfig((512, 1024, 2048), width=512), hw)


def test_compare_identity():
    r = backbone_cost(BackboneSpec("resnet50"), DILATED_MODE, (512, 512))
    cmp = compare_costs(r, r)
    assert cmp["total_ratio"] == 1.0
    assert all(v == 1.0 for v in cmp["stages"].values())


def test_compare_hand_built():
    a = CostReport("x", "a", (8, 8), [CostEntry("s.l0", LayerCost(macs=60)), CostEntry("s.l1", LayerCost(macs=40))])
    b = CostReport("x", "b", (8, 8), [CostEntry("s.l0", LayerCost(macs=30)), CostEntry("s.l1", LayerCost(macs=20))])
    cmp = compare_costs(a, b)
    assert cmp == {"a": "a", "b": "b", "stages": {"s": 2.0}, "total_ratio": 2.0}


def test_resnet101_dilated_exceeds_resnet50():
    d50 = backbone_cost(BackboneSpec("resnet50"), DILATED_MODE, (512, 512)).total().macs
    d101 = backbone_cost(BackboneSpec("resnet101"), DILATED_MODE, (512, 512)).total().macs
    assert d101 > d50


def test_unknown_mode_rejected():
    with pytest.raises(KeyError):
        backbone_cost(BackboneSpec("resnet50"), "os4", (512, 512))
