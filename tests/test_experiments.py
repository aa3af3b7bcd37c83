import dataclasses
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jpulite import conv, experiments, jpu
from jpulite.conv import ConvSpec
from jpulite.decomp import reduce_even
from jpulite.experiments import (
    BENCH_CONFIG,
    DILATED,
    STRIDE,
    MiniBackboneConfig,
    bench_forward,
    init_mini_backbone,
    mini_backbone_forward,
    synthetic_teacher,
    train_approximator,
)
from jpulite.jpu import DILATION_RATES, JpuConfig
from jpulite.tensor import Rng, ShapeError, max_abs_diff, random_uniform

from reference import per_sample_train_approximator

CFG = MiniBackboneConfig()


def test_config_validation():
    with pytest.raises(ShapeError):
        MiniBackboneConfig(stages=((1, 8), (1, 8)))
    with pytest.raises(ShapeError):
        MiniBackboneConfig(stages=((1, 8), (1, 8), (1, 8), (1, 128)))


_FIELD_VALUES = st.one_of(st.integers(-1, 6), st.sampled_from([64, 65]), st.floats(-1, 6), st.booleans(), st.none(),
                         st.text(max_size=2))
_STAGES = st.one_of(
    _FIELD_VALUES,
    st.lists(st.one_of(_FIELD_VALUES, st.lists(_FIELD_VALUES, min_size=1, max_size=3).map(tuple)), max_size=5).map(tuple),
)


@given(stem_channels=_FIELD_VALUES, stages=_STAGES)
@example(stem_channels=8, stages=((1, 8), (-1, 8), (1, 16), (1, 16)))
@example(stem_channels=0, stages=CFG.stages)
@example(stem_channels=8, stages=((1, 8), (1, True), (1, 16), (1, 16)))
@example(stem_channels=8, stages=None)
@example(stem_channels=8, stages=((1, 8), (1, 12, 3), (1, 16), (1, 16)))
@example(stem_channels=8, stages=((1, 8), (1, "16"), (1, 16), (1, 16)))
def test_config_accepts_only_buildable_geometry(stem_channels, stages):
    def is_int(v, lo):
        return type(v) is int and v >= lo

    pairs = type(stages) is tuple and len(stages) == 4 and all(type(p) is tuple and len(p) == 2 for p in stages)
    if pairs and all(
        is_int(d, 0) and is_int(c, 1) and c <= 64 for d, c in ((0, stem_channels), *stages)  # the stem as depth 0
    ):
        cfg = MiniBackboneConfig(stem_channels, stages)
        assert [name for name, _ in cfg.layers(STRIDE)] == ["stem"] + [
            f"stage{level}.{part}" for level, (depth, _) in enumerate(stages, 2)
            for part in ["head", *(f"body{j}" for j in range(depth))]
        ]
    else:
        with pytest.raises(ShapeError):
            MiniBackboneConfig(stem_channels, stages)


def test_stem_reads_rgb():
    # the input width is the RGB constant, not a setting
    assert CFG.in_channels == BENCH_CONFIG.in_channels == CFG.layers(STRIDE)[0][1].in_channels == 3
    assert [f.name for f in dataclasses.fields(MiniBackboneConfig)] == ["stem_channels", "stages"]
    with pytest.raises(TypeError):
        MiniBackboneConfig(in_channels=3)


@pytest.mark.parametrize("stages", [((2, 8), (1, 12), (1, 16), (1, 16)), ((1, 8), (1, 12), (1, 16), (1, 32))])
@pytest.mark.parametrize("mode", [DILATED, STRIDE])
def test_forward_rejects_params_of_other_stages(stages, mode):
    params = init_mini_backbone(MiniBackboneConfig(stages=stages), Rng(0))
    x = random_uniform((1, 3, 64, 64), Rng(1), -1, 1)
    with pytest.raises(ShapeError, match="stages"):
        mini_backbone_forward(x, params, CFG, mode)


def test_layer_table_routes():
    # the dilated wiring freezes the strides of stages 4 and 5 and dilates them by 2 and 4
    for mode, geometry in [
        (STRIDE, [(2, 1)] + [(2, 1), (1, 1)] * 4),
        (DILATED, [(2, 1)] + [(2, 1), (1, 1)] * 2 + [(1, 1), (1, 2), (1, 2), (1, 4)]),
    ]:
        table = CFG.layers(mode)
        assert [(s.stride[0], s.dilation[0]) for _, s in table] == geometry
        assert all(s.padding == s.dilation and s.kernel == (3, 3) for _, s in table)
    with pytest.raises(KeyError):
        CFG.layers("os4")


def _workloads(monkeypatch):
    """The benchmark's workload module, only read, never changed or cached to disk."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_bench_config_is_the_benchmark_forward_config(monkeypatch):
    # `jpulite bench` and the benchmark's forward_256 workload time one network
    assert _workloads(monkeypatch).Forward256.config == BENCH_CONFIG


def test_train_64_plans_every_conv_by_its_second_operation(monkeypatch):
    """On a fresh thread, after two operations of the benchmark's train_64
    workload (a teacher, then bilinear and JPU training), a third builds no
    tap walk and adds no plan: the thread's plans are the one cache of conv
    geometry, and they hold every geometry the workload runs."""
    train = _workloads(monkeypatch).Train64(0, "")
    init, walks, seen, errors = conv._TapWalk.__init__, [], {}, []

    def counted_init(self, spec, x_shape):
        walks.append((spec, x_shape))
        init(self, spec, x_shape)

    def work():
        try:
            failures = [train.run(k, lambda fn, *args: (0.0, fn(*args)))[2] for k in range(2)]
            plans = list(conv._scratch.plans)
            monkeypatch.setattr(conv._TapWalk, "__init__", counted_init)
            failures.append(train.run(2, lambda fn, *args: (0.0, fn(*args)))[2])
            seen.update(failures=failures, walks=walks, same_plans=list(conv._scratch.plans) == plans)
        except Exception as e:  # reported by the assertion below
            errors.append(repr(e))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive()
    assert errors == []
    assert seen == {"failures": [[], [], []], "walks": [], "same_plans": True}


def test_forward_shapes_stride():
    params = init_mini_backbone(CFG, Rng(0))
    x = random_uniform((1, 3, 64, 64), Rng(1), -1, 1)
    c3, c4, c5 = mini_backbone_forward(x, params, CFG, STRIDE)
    assert c3.shape[2:] == (8, 8)
    assert c4.shape[2:] == (4, 4)
    assert c5.shape[2:] == (2, 2)
    assert (c3.shape[1], c4.shape[1], c5.shape[1]) == CFG.level_channels


def test_forward_shapes_dilated():
    params = init_mini_backbone(CFG, Rng(0))
    x = random_uniform((1, 3, 64, 64), Rng(1), -1, 1)
    c3, c4, c5 = mini_backbone_forward(x, params, CFG, DILATED)
    assert c3.shape[2:] == c4.shape[2:] == c5.shape[2:] == (8, 8)


def test_forward_rejects_indivisible_input():
    params = init_mini_backbone(CFG, Rng(0))
    with pytest.raises(ShapeError, match="positive multiples of 32"):  # the cost model's rule
        mini_backbone_forward(random_uniform((1, 3, 48, 64), Rng(0)), params, CFG, STRIDE)


def test_modes_share_weights_exactly():
    params = init_mini_backbone(CFG, Rng(5))
    x = random_uniform((1, 3, 64, 64), Rng(6), -1, 1)
    a3, _, _ = mini_backbone_forward(x, params, CFG, STRIDE)
    b3, _, _ = mini_backbone_forward(x, params, CFG, DILATED)
    # everything up to level 3 is identical wiring and identical buffers
    assert a3.data.tobytes() == b3.data.tobytes()


def test_end_to_end_phase_consistency():
    params = init_mini_backbone(CFG, Rng(7))
    x = random_uniform((1, 3, 64, 64), Rng(8), -1, 1)
    _, d4, d5 = mini_backbone_forward(x, params, CFG, DILATED)
    _, s4, s5 = mini_backbone_forward(x, params, CFG, STRIDE)
    assert max_abs_diff(reduce_even(d4), s4) <= 1e-10
    assert max_abs_diff(reduce_even(reduce_even(d5)), s5) <= 1e-10


FIELDS = ("c3", "c4", "c5", "target")


def test_teacher_deterministic():
    a = synthetic_teacher(3, 2, CFG)
    b = synthetic_teacher(3, 2, CFG)
    for f in FIELDS:
        assert getattr(a, f).data.tobytes() == getattr(b, f).data.tobytes()
    c = synthetic_teacher(4, 1, CFG)
    assert c.target.data[0].tobytes() != a.target.data[0].tobytes()


def test_teacher_target_dims_and_consistency():
    ds = synthetic_teacher(5, 2, CFG)
    assert all(getattr(ds, f).shape[0] == 2 for f in FIELDS)
    assert ds.target.shape[2:] == ds.c3.shape[2:]
    assert max_abs_diff(reduce_even(reduce_even(ds.target)), ds.c5) <= 1e-10


@pytest.mark.parametrize("config", [CFG, MiniBackboneConfig(stages=((2, 8), (1, 12), (3, 16), (1, 16)))])
def test_teacher_equals_both_wirings_forwards(config):
    # the teacher runs the stride wiring once and continues the dilated stages
    # 4-5 from its c3; that equals both full forwards, byte for byte
    ds = synthetic_teacher(9, 3, config)
    rng = Rng(9)
    params = init_mini_backbone(config, rng)
    for i in range(3):
        img = random_uniform((1, config.in_channels, 64, 64), rng, -1.0, 1.0)
        c3, c4, c5 = mini_backbone_forward(img, params, config, STRIDE)
        target = mini_backbone_forward(img, params, config, DILATED)[2]
        for f, want in zip(FIELDS, (c3, c4, c5, target)):
            assert getattr(ds, f).data[i : i + 1].tobytes() == want.data.tobytes(), f


@pytest.mark.parametrize("n_samples", [0, -1])
def test_teacher_rejects_an_empty_dataset(n_samples):
    with pytest.raises(ValueError, match=f"got {n_samples}"):
        synthetic_teacher(0, n_samples, CFG)


@pytest.mark.parametrize("n_samples", [2.0, True])
def test_teacher_rejects_a_non_int_sample_count(n_samples):
    with pytest.raises(ValueError, match=f"got {n_samples!r}"):
        synthetic_teacher(0, n_samples, CFG)


@pytest.fixture(scope="module")
def small_dataset():
    return synthetic_teacher(11, 4, CFG, image_hw=(32, 32))


def test_train_zero_lr_flat(small_dataset):
    run = train_approximator("bilinear", small_dataset, steps=5, lr=0.0, seed=0)
    assert len(run.loss_curve) == 5
    assert len(set(run.loss_curve)) == 1


def test_train_zero_steps(small_dataset):
    run = train_approximator("jpu", small_dataset, steps=0, lr=0.1, seed=0)
    assert run.loss_curve == []
    run2 = train_approximator("jpu", small_dataset, steps=0, lr=0.9, seed=0)
    assert run.final_mse == run2.final_mse  # untouched initialization


def test_train_deterministic(small_dataset):
    a = train_approximator("jpu", small_dataset, steps=3, lr=0.1, seed=2)
    b = train_approximator("jpu", small_dataset, steps=3, lr=0.1, seed=2)
    assert a.loss_curve == b.loss_curve
    assert a.final_mse == b.final_mse


def test_train_loss_decreases(small_dataset):
    run = train_approximator("jpu", small_dataset, steps=20, lr=0.5, seed=1)
    assert run.loss_curve[-1] < run.loss_curve[0]
    assert all(np.isfinite(v) for v in run.loss_curve)


def test_capacity_reported(small_dataset):
    b = train_approximator("bilinear", small_dataset, steps=1, lr=0.1, seed=0)
    j = train_approximator("jpu", small_dataset, steps=1, lr=0.1, seed=0)
    assert j.param_count >= b.param_count


@pytest.mark.parametrize("method", ["bilinear", "jpu"])
@pytest.mark.parametrize("holdout", [None, 2, 3])  # 3 of 4 samples held out leaves one to train on
def test_batched_step_matches_per_sample_loop(small_dataset, method, holdout):
    run = train_approximator(method, small_dataset, steps=6, lr=0.5, seed=3, holdout=holdout)
    curve, final, n_params = per_sample_train_approximator(method, small_dataset, 6, 0.5, 3, holdout=holdout)
    assert run.loss_curve == pytest.approx(curve, rel=1e-12, abs=0)
    assert run.final_mse == pytest.approx(final, rel=1e-12, abs=0)
    assert run.param_count == n_params


def test_unknown_method_rejected(small_dataset):
    with pytest.raises(KeyError):
        train_approximator("fpn", small_dataset, steps=1, lr=0.1, seed=0)


@pytest.mark.parametrize("holdout", [0, 4, 5, -1])  # of 4 samples: a training or held-out set would be empty
def test_train_rejects_holdout_leaving_a_set_empty(small_dataset, holdout):
    with pytest.raises(ValueError, match="holdout"):
        train_approximator("bilinear", small_dataset, steps=1, lr=0.1, seed=0, holdout=holdout)


def test_train_rejects_single_sample_with_default_holdout():
    one = synthetic_teacher(11, 1, CFG, image_hw=(32, 32))
    with pytest.raises(ValueError, match="holdout 1 of 1"):
        train_approximator("jpu", one, steps=1, lr=0.1, seed=0)


def test_train_rejects_negative_steps(small_dataset):
    with pytest.raises(ValueError, match="steps"):
        train_approximator("jpu", small_dataset, steps=-2, lr=0.1, seed=0)


@pytest.mark.parametrize("setting, value", [("steps", True), ("steps", 2.5), ("holdout", True), ("holdout", 1.0)])
def test_train_rejects_a_non_int_step_or_holdout_count(small_dataset, setting, value):
    settings = {"steps": 1, "holdout": None, setting: value}
    with pytest.raises(ValueError, match=f"{setting} must be an int"):
        train_approximator("jpu", small_dataset, lr=0.1, seed=0, **settings)


@pytest.mark.parametrize("method, per_step", [("bilinear", 0), ("jpu", 1)])
def test_only_the_jpu_heads_backward_computes_an_input_gradient(small_dataset, method, per_step, monkeypatch):
    """The bilinear student's head reads a fixed resize of the data, so its
    step runs only conv2d_weight_grads; the JPU student's step runs
    conv2d_backward once here, for its head. The JPU's own convs run theirs
    inside jpu_param_grads, and its level convs, whose input is the fixed
    pyramid, none (see the next test)."""
    calls, original = [], experiments.conv2d_backward

    def spy(x, w, spec, grad_out):
        calls.append(spec)
        return original(x, w, spec, grad_out)

    monkeypatch.setattr(experiments, "conv2d_backward", spy)
    train_approximator(method, small_dataset, steps=3, lr=0.1, seed=0)
    ds = small_dataset
    head_in = JpuConfig((ds.c3.shape[1], ds.c4.shape[1], ds.c5.shape[1]), width=8).out_channels
    head_spec = ConvSpec(head_in, ds.target.shape[1], padding=(1, 1))
    assert calls == [head_spec] * (3 * per_step)


def test_a_jpu_step_computes_no_pyramid_gradient(small_dataset, monkeypatch):
    """The JPU student's pyramid is fixed data: each step runs conv2d_backward
    on the fusion and the four folded branches only, in that order, and the
    three level convs through conv2d_weight_grads."""
    calls = {"conv2d_backward": [], "conv2d_weight_grads": []}
    for name, seen in calls.items():
        original = getattr(jpu, name)
        monkeypatch.setattr(jpu, name, lambda x, w, spec, g, seen=seen, f=original: seen.append(spec) or f(x, w, spec, g))
    train_approximator("jpu", small_dataset, steps=3, lr=0.1, seed=0)
    ds = small_dataset
    specs = {name: spec for name, spec, _ in JpuConfig((ds.c3.shape[1], ds.c4.shape[1], ds.c5.shape[1]), 8).layers()}
    branches = [ConvSpec(24, 8, dilation=(r, r), padding=(r, r)) for r in DILATION_RATES]
    assert calls["conv2d_backward"] == [specs["fusion"], *branches] * 3
    assert calls["conv2d_weight_grads"] == [specs[f"level{i}"] for i in range(3)] * 3


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -5.0, -1e-300])
def test_train_rejects_non_finite_or_negative_lr(small_dataset, lr):
    with pytest.raises(ValueError, match="lr"):
        train_approximator("jpu", small_dataset, steps=1, lr=lr, seed=0)


def test_bench_basic():
    cfg = MiniBackboneConfig()
    out = bench_forward(cfg, "dilated_os8", input_hw=(64, 64), repeats=10)
    assert out["repeats"] == 10 and out["warmup"] == 3
    assert out["min_ms"] <= out["mean_ms"] <= out["max_ms"]
    out2 = bench_forward(cfg, "stride_os32_plus_jpu", input_hw=(64, 64), repeats=10)
    assert out2["mode"] == "stride_os32_plus_jpu"


def test_bench_rejects_low_repeats():
    with pytest.raises(ValueError):
        bench_forward(MiniBackboneConfig(), "dilated_os8", repeats=5)
