import pytest

from jpulite.conv import conv2d
from jpulite.cost import (
    DILATED_MODE,
    STRIDE_JPU_MODE,
    CostReport,
    CostEntry,
    LayerCost,
    backbone_cost,
    compare_costs,
    conv_cost,
    conv_cost_from_spec,
    jpu_cost_entries,
    resnet_preset,
)
from jpulite.jpu import JpuConfig

from test_conv import random_case


def test_conv_cost_examples():
    assert conv_cost((3, 3), 2, 4, (8, 8)).macs == 3 * 3 * 2 * 4 * 8 * 8 == 4608
    assert conv_cost((1, 1), 5, 7, (6, 4)).macs == 5 * 7 * 6 * 4
    # doubling spatial resolution quadruples the MACs
    assert conv_cost((3, 3), 2, 4, (16, 16)).macs == 4 * conv_cost((3, 3), 2, 4, (8, 8)).macs


def test_conv_cost_bias_tracked_separately():
    c = conv_cost((3, 3), 2, 4, (8, 8), with_bias=True)
    assert c.bias_adds == 4 * 8 * 8
    assert c.params == 3 * 3 * 2 * 4 + 4
    assert conv_cost((3, 3), 2, 4, (8, 8)).bias_adds == 0


def test_conv_cost_rejects_invalid():
    with pytest.raises(ValueError):
        conv_cost((3, 3), 3, 4, (8, 8), groups=2)
    with pytest.raises(ValueError):
        conv_cost((3, 3), 2, 4, (0, 8))


@pytest.mark.parametrize("seed", range(50))
def test_model_matches_instrumented_conv(seed):
    x, w, spec = random_case(seed + 500, max_dim=7)
    _, mults = conv2d(x, w, spec, count_macs=True)
    predicted = conv_cost_from_spec(spec, x.shape[2:]).macs * x.shape[0]
    assert mults == predicted


def test_preset_shapes():
    r50 = resnet_preset("resnet50")
    r101 = resnet_preset("resnet101")
    assert tuple(s.blocks for s in r50.stages) == (3, 4, 6, 3)
    assert tuple(s.blocks for s in r101.stages) == (3, 4, 23, 3)
    assert tuple(s.out_channels for s in r101.stages) == (256, 512, 1024, 2048)
    assert tuple(s.mid_channels for s in r101.stages) == (64, 128, 256, 512)
    with pytest.raises(KeyError):
        resnet_preset("vgg")


def _block_macs(report, stage):
    blocks = {}
    for e in report.entries:
        if e.stage == stage:
            block = e.name.rsplit(".", 1)[0]
            blocks[block] = blocks.get(block, 0) + e.cost.macs
    return blocks


@pytest.mark.parametrize("name", ["resnet50", "resnet101"])
@pytest.mark.parametrize("input_hw", [(512, 512), (256, 256)])
def test_stage_block_ratios(name, input_hw):
    spec = resnet_preset(name)
    d = backbone_cost(spec, DILATED_MODE, input_hw)
    s = backbone_cost(spec, STRIDE_JPU_MODE, input_hw)
    for stage, factor in (("stage3", 4), ("stage4", 16)):
        bd, bs = _block_macs(d, stage), _block_macs(s, stage)
        assert bd.keys() == bs.keys()
        for block in bd:
            assert bd[block] == factor * bs[block], block
    for stage in ("stem", "stage1", "stage2"):
        assert d.stage_totals()[stage].macs == s.stage_totals()[stage].macs


def test_stage5_activation_memory_ratio():
    spec = resnet_preset("resnet101")
    d = backbone_cost(spec, DILATED_MODE, (512, 512))
    s = backbone_cost(spec, STRIDE_JPU_MODE, (512, 512))
    assert d.stage_totals()["stage4"].activation_elems == 16 * s.stage_totals()["stage4"].activation_elems


def test_report_additivity():
    r = backbone_cost(resnet_preset("resnet50"), STRIDE_JPU_MODE, (512, 512))
    total = r.total()
    by_stage = r.stage_totals()
    assert total.macs == sum(c.macs for c in by_stage.values())
    assert total.macs == sum(e.cost.macs for e in r.entries)
    assert total.params == sum(e.cost.params for e in r.entries)


def test_params_unchanged_by_dilation():
    spec = resnet_preset("resnet101")
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
    r = backbone_cost(resnet_preset("resnet50"), DILATED_MODE, (512, 512))
    cmp = compare_costs(r, r, per_layer=True)
    assert cmp["total_ratio"] == 1.0
    assert all(v == 1.0 for v in cmp["stages"].values())
    assert all(v == 1.0 for v in cmp["layers"].values())


def test_compare_hand_built():
    a = CostReport("x", "a", (8, 8), [CostEntry("l0", "s", LayerCost(macs=60)), CostEntry("l1", "s", LayerCost(macs=40))])
    b = CostReport("x", "b", (8, 8), [CostEntry("l0", "s", LayerCost(macs=30)), CostEntry("l1", "s", LayerCost(macs=20))])
    cmp = compare_costs(a, b, per_layer=True)
    assert cmp["total_ratio"] == 2.0
    assert cmp["layers"] == {"l0": 2.0, "l1": 2.0}


def test_compare_rejects_structure_mismatch():
    a = CostReport("x", "a", (8, 8), [CostEntry("l0", "s", LayerCost(macs=1))])
    b = CostReport("x", "b", (8, 8), [CostEntry("other", "s", LayerCost(macs=1))])
    with pytest.raises(ValueError):
        compare_costs(a, b, per_layer=True)


def test_resnet101_dilated_exceeds_resnet50():
    d50 = backbone_cost(resnet_preset("resnet50"), DILATED_MODE, (512, 512)).total().macs
    d101 = backbone_cost(resnet_preset("resnet101"), DILATED_MODE, (512, 512)).total().macs
    assert d101 > d50


def test_unknown_mode_rejected():
    with pytest.raises(KeyError):
        backbone_cost(resnet_preset("resnet50"), "os4", (512, 512))
