import numpy as np
import pytest

from jpulite.decomp import reduce_even
from jpulite.experiments import (
    DILATED,
    STRIDE,
    MiniBackboneConfig,
    bench_forward,
    init_mini_backbone,
    mini_backbone_forward,
    synthetic_teacher,
    train_approximator,
)
from jpulite.tensor import Rng, ShapeError, max_abs_diff, random_uniform

from reference import per_sample_train_approximator

CFG = MiniBackboneConfig()


def test_config_validation():
    with pytest.raises(ShapeError):
        MiniBackboneConfig(stages=((1, 8), (1, 8)))
    with pytest.raises(ShapeError):
        MiniBackboneConfig(stages=((1, 8), (1, 8), (1, 8), (1, 128)))


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
    with pytest.raises(ShapeError):
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


def test_teacher_deterministic():
    a = synthetic_teacher(3, 2, CFG)
    b = synthetic_teacher(3, 2, CFG)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.target.data.tobytes() == sb.target.data.tobytes()
        assert sa.c5.data.tobytes() == sb.c5.data.tobytes()
    c = synthetic_teacher(4, 1, CFG)
    assert c.samples[0].target.data.tobytes() != a.samples[0].target.data.tobytes()


def test_teacher_target_dims_and_consistency():
    ds = synthetic_teacher(5, 2, CFG)
    for s in ds.samples:
        assert s.target.shape[2:] == s.c3.shape[2:]
        assert max_abs_diff(reduce_even(reduce_even(s.target)), s.c5) <= 1e-10


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


def test_bench_basic():
    cfg = MiniBackboneConfig()
    out = bench_forward(cfg, "dilated_os8", input_hw=(64, 64), repeats=10, warmup=1)
    assert out["repeats"] == 10
    assert out["min_ms"] <= out["mean_ms"] <= out["max_ms"]
    out2 = bench_forward(cfg, "stride_os32_plus_jpu", input_hw=(64, 64), repeats=10, warmup=1)


def test_bench_rejects_low_repeats():
    with pytest.raises(ValueError):
        bench_forward(MiniBackboneConfig(), "dilated_os8", repeats=5)
