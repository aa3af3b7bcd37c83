"""Desk-scale studies: a runnable mini backbone, a teacher/student upsampling
comparison, and a forward-pass timing harness.

The mini backbone mirrors a five-level feature hierarchy: a stride-2 stem plus
four stride-2 stages, each run by a stage composer along the route that
`decomp.frozen` gives its convs in both wirings, at output stride 8 (dilated)
or 32 (stride); `MiniBackboneConfig.layers(mode)` lists them. One parameter
set serves both wirings; only the routing differs, so the teacher/student
study and the phase-consistency checks are honest. The teacher continues the
dilated stages 4-5 from the stride pass's c3 and stacks its samples along N
for the trainer's train and held-out views. `bench_forward`, which `jpulite
bench` runs on BENCH_CONFIG, times both wirings in one call from one draw of
the inputs, the stride one followed by a width-8 JPU.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .conv import ConvSpec, ConvWeights, conv2d, conv2d_backward, conv2d_weight_grads, init_weights, relu
from .cost import DILATED_MODE, MODES, STRIDE_JPU_MODE, _check_input_hw
from .decomp import DILATED_OS, STRIDE_OS, StageWeights, dilated_stage, frozen, stage_specs, stride_stage
from .jpu import JpuConfig, JpuParams, jpu_forward, jpu_init, jpu_param_grads
from .tensor import Rng, ShapeError, Tensor, _is_count, _is_int, bilinear_resize, random_uniform

DILATED = DILATED_MODE
STRIDE = "stride_os32"


def _routes(mode: str) -> tuple[tuple[int, int, int], ...]:
    """Each stage's (stride, head dilation, body dilation): `decomp.frozen` at the mode's output stride."""
    target = {STRIDE: STRIDE_OS, DILATED: DILATED_OS}[mode]
    return tuple((*frozen(a, 2, target), frozen(2 * a, 1, target)[1]) for a in (2, 4, 8, 16))


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float, what: str = "loss"):
        super().__init__(f"non-finite {what} {loss} at step {step}")


@dataclass(frozen=True)
class MiniBackboneConfig:
    in_channels: ClassVar[int] = 3  # the stem reads RGB
    stem_channels: int = 8
    # (body depth, channels) for the four stages after the stem (levels 2..5)
    stages: tuple[tuple[int, int], ...] = ((1, 8), (1, 12), (1, 16), (1, 16))

    def __post_init__(self):
        s = self.stages
        if not (isinstance(s, tuple) and len(s) == 4 and all(isinstance(p, tuple) and len(p) == 2 for p in s)):
            raise ShapeError(f"need exactly four (depth, channels) tuples after the stem, got {s!r}")
        widths = (self.stem_channels, *(ch for _, ch in s))
        depths_ok = all(_is_int(d) and d >= 0 for d, _ in s)
        if not (depths_ok and all(map(_is_count, widths))):
            raise ShapeError(f"need positive int channel counts and non-negative int depths, got {self!r}")
        if max(widths) > 64:
            raise ShapeError("toy widths only (<= 64 channels)")

    @property
    def level_channels(self) -> tuple[int, int, int]:
        """Channels of the three emitted feature maps (levels 3, 4, 5)."""
        return (self.stages[1][1], self.stages[2][1], self.stages[3][1])

    @lru_cache(maxsize=64)  # the forward asks on every call
    def layers(self, mode: str) -> tuple[tuple[str, ConvSpec], ...]:
        """The convs in execution order, as (name, spec): `stem`, then
        `stageL.head` and `stageL.bodyJ` for levels L = 2..5."""
        table = [("stem", ConvSpec(self.in_channels, self.stem_channels, kernel=(3, 3), stride=(2, 2), padding=(1, 1)))]
        for level, (depth, ch), route in zip(range(2, 6), self.stages, _routes(mode)):
            head, body = stage_specs(table[-1][1].out_channels, ch, depth, *route)
            table += [(f"stage{level}.head", head), *((f"stage{level}.body{j}", b) for j, b in enumerate(body))]
        return tuple(table)


BENCH_CONFIG = MiniBackboneConfig(stem_channels=16, stages=((1, 24), (1, 32), (1, 48), (1, 64)))


@dataclass(frozen=True, eq=False)
class MiniBackboneParams:
    stem: ConvWeights
    stages: tuple[StageWeights, ...]


def init_mini_backbone(config: MiniBackboneConfig, rng: Rng) -> MiniBackboneParams:
    convs = iter([init_weights(spec, rng) for _, spec in config.layers(STRIDE)])
    stem = next(convs)
    stages = tuple(StageWeights(next(convs), [next(convs) for _ in range(depth)]) for depth, _ in config.stages)
    return MiniBackboneParams(stem, stages)


def _run_stages(a: Tensor, stages, routes) -> list[Tensor]:
    """Each stage's ReLU'd output from `a` along `routes`."""
    levels = []
    for sw, (stride, head_dilation, body_dilation) in zip(stages, routes):
        a = relu((dilated_stage(a, sw, head_dilation, body_dilation) if stride == 1 else stride_stage(a, sw)).y)
        levels.append(a)
    return levels


def mini_backbone_forward(
    x: Tensor, params: MiniBackboneParams, config: MiniBackboneConfig, mode: str
) -> tuple[Tensor, Tensor, Tensor]:
    """Emit the (level-3, level-4, level-5) features.

    Stride mode: output strides 8/16/32. Dilated mode: all three at output
    stride 8, with dilation 2 in stage 4 and 4 in stage 5. The identical
    parameter buffers serve both modes.
    """
    stem_spec = config.layers(mode)[0][1]
    _check_input_hw(x.shape[2:])
    got = tuple((len(sw.body), sw.channels) for sw in params.stages)
    if got != config.stages:
        raise ShapeError(f"params have (depth, channels) stages {got}, but the config has {config.stages}")
    a = conv2d(x, params.stem, stem_spec, relu=True)
    return tuple(_run_stages(a, params.stages, _routes(mode))[1:])


# ---------------------------------------------------------------------------
# synthetic teacher/student study


@dataclass(frozen=True, eq=False)
class TeacherDataset:  # every sample stacked along N
    c3: Tensor  # stride-wiring features (the student's inputs)
    c4: Tensor
    c5: Tensor
    target: Tensor  # dilated-wiring level-5 feature at output stride 8


def synthetic_teacher(seed: int, n_samples: int, config: MiniBackboneConfig, image_hw=(64, 64)) -> TeacherDataset:
    """The wirings agree through level 3, so the dilated stages 4-5 continue from the stride pass's c3."""
    if not _is_count(n_samples):
        raise ValueError(f"need a positive int number of teacher samples, got {n_samples!r}")
    rng = Rng(seed)
    params = init_mini_backbone(config, rng)
    samples = []
    for _ in range(n_samples):
        img = random_uniform((1, config.in_channels, *image_hw), rng, -1.0, 1.0)
        c3, c4, c5 = mini_backbone_forward(img, params, config, STRIDE)
        target = _run_stages(c3, params.stages[2:], _routes(DILATED)[2:])[-1]
        samples.append((c3, c4, c5, target))
    return TeacherDataset(*(Tensor(np.concatenate([t.data for t in field])) for field in zip(*samples)))


@dataclass
class TrainRun:
    loss_curve: list[float]
    final_mse: float
    param_count: int


def _sgd(w: ConvWeights, gw: np.ndarray, gb: np.ndarray, lr: float) -> ConvWeights:
    return ConvWeights(Tensor(w.weight.data - lr * gw), w.bias - lr * gb)


def _sample_mses(diff: np.ndarray) -> list[float]:
    """Mean squared error of each sample of an N-batched prediction error, as
    Python floats: one reduction over the batch, byte-identical to
    `float(np.mean(d**2))` per sample: in a C-contiguous diff each sample's
    cells are one contiguous run, which numpy sums the same way either way."""
    return np.mean(diff**2, axis=(1, 2, 3)).tolist()


def _check_training(n: int, steps: int, lr: float, holdout: int | None) -> int:
    """The trainer's rules for its settings on n samples; returns the number
    held out (by default a quarter, at least 1)."""
    if not _is_int(steps):
        raise ValueError(f"steps must be an int, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0 <= lr < math.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if holdout is None:
        holdout = max(1, n // 4)
    if not _is_int(holdout):
        raise ValueError(f"holdout must be an int, got {holdout!r}")
    if not 1 <= holdout <= n - 1:
        raise ValueError(f"holdout {holdout} of {n} samples leaves a training or held-out set empty")
    return holdout


def train_approximator(
    method: str,
    dataset: TeacherDataset,
    steps: int,
    lr: float,
    seed: int,
    jpu_width: int = 8,
    holdout: int | None = None,
) -> TrainRun:
    """Fit a student that reconstructs the dilated-path feature from the
    stride-path pyramid, with either plain bilinear upsampling or the pyramid
    upsampling module in front of a shared 3x3 head."""
    if method not in ("bilinear", "jpu"):
        raise KeyError(f"unknown method {method!r}")
    data = (dataset.c3, dataset.c4, dataset.c5, dataset.target)
    n = dataset.target.shape[0]
    n_train = n - _check_training(n, steps, lr, holdout)
    target_ch, out_h, out_w = dataset.target.shape[1:]
    rng = Rng(seed)

    jpu_cfg = None
    jpu_params: JpuParams | None = None
    if method == "jpu":
        jpu_cfg = JpuConfig(tuple(t.shape[1] for t in data[:3]), width=jpu_width)
        jpu_params = jpu_init(jpu_cfg, rng)
        head_in = jpu_cfg.out_channels
    else:
        head_in = dataset.c5.shape[1]
    head_spec = ConvSpec(head_in, target_ch, kernel=(3, 3), padding=(1, 1))
    head = init_weights(head_spec, rng)

    def features(c3, c4, c5):
        """The head's input, and the JPU's cache for its backward."""
        if method == "bilinear":
            return bilinear_resize(c5, out_h, out_w), None
        return jpu_forward(c3, c4, c5, jpu_params, jpu_cfg)

    # One batched forward and backward per step. The loss is the mean of the
    # per-sample MSEs, so each sample's error is scaled by its own size and the
    # batch gradient is the sum of the per-sample gradients. The bilinear
    # student's head reads a fixed resize of the data: it is resized once, and
    # its backward computes no input gradient.
    *pyramid, target = (Tensor(t.data[:n_train]) for t in data)  # views, not copies
    if method == "bilinear":
        feat = features(*pyramid)[0]
    sample_size = target.data[0].size
    scale = lr / n_train
    loss_curve: list[float] = []
    # an overflow, or a NaN made from one, is reported as TrainingDiverged, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            if method == "jpu":
                feat, cache = features(*pyramid)
            diff = conv2d(feat, head, head_spec).data - target.data
            loss = sum(_sample_mses(diff)) / n_train
            if not np.isfinite(loss):
                raise TrainingDiverged(step, loss)
            loss_curve.append(loss)
            grad_out = Tensor(2.0 * diff / sample_size)
            if method == "bilinear":
                g_w, g_b = conv2d_weight_grads(feat, head, head_spec, grad_out)
            else:
                g_feat, g_w, g_b = conv2d_backward(feat, head, head_spec, grad_out)
                grads = jpu_param_grads(cache, g_feat)
                jpu_params = JpuParams.from_convs(
                    _sgd(w, g.weight.data, g.bias, scale) for (_, w), (_, g) in zip(jpu_params.convs(), grads.convs())
                )
            head = _sgd(head, g_w.data, g_b, scale)

        *pyramid, target = (Tensor(t.data[n_train:]) for t in data)
        final = float(np.mean(_sample_mses(conv2d(features(*pyramid)[0], head, head_spec).data - target.data)))
    if not np.isfinite(final):  # the last step's update can diverge with every training loss finite
        raise TrainingDiverged(steps, final, "held-out loss")
    n_params = head.weight.data.size + head.bias.size
    if method == "jpu":
        n_params += sum(np.asarray(a).size for _, a in jpu_params.named_tensors())
    return TrainRun(loss_curve, final, int(n_params))


# ---------------------------------------------------------------------------
# timing harness


def bench_forward(config: MiniBackboneConfig, input_hw=(256, 256), repeats: int = 100, seed: int = 0) -> dict:
    """Wall-clock statistics of a full forward pass of each wiring, and the
    minor page faults per pass over its timed repeats, as `{mode: stats}` for
    `cost.MODES` in order. One draw of the parameters, a width-8 JPU and the
    image serves both; the stride wiring's pass ends in that JPU."""
    if repeats < 10:
        raise ValueError("need at least 10 repeats")
    input_hw = _check_input_hw(input_hw)  # before anything is drawn
    rng = Rng(seed)
    params = init_mini_backbone(config, rng)
    jpu_cfg = JpuConfig(config.level_channels, width=8)
    jpu_params = jpu_init(jpu_cfg, rng)
    img = random_uniform((1, config.in_channels, *input_hw), rng, -1.0, 1.0)
    wirings = {
        DILATED_MODE: lambda: mini_backbone_forward(img, params, config, DILATED),
        STRIDE_JPU_MODE: lambda: jpu_forward(*mini_backbone_forward(img, params, config, STRIDE), jpu_params, jpu_cfg),
    }
    return {mode: _time_passes(mode, wirings[mode], input_hw, repeats) for mode in MODES}


def _time_passes(mode: str, run, input_hw, repeats: int) -> dict:
    warmup = 3  # untimed passes first
    for _ in range(warmup):
        run()
    times_ms = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times_ms.append((time.perf_counter() - t0) * 1e3)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    arr = np.array(times_ms)
    p10, median, p90 = np.percentile(arr, (10, 50, 90))
    return {
        "mode": mode,
        "input_hw": list(input_hw),
        "repeats": repeats,
        "warmup": warmup,
        "mean_ms": float(arr.mean()),
        "std_ms": float(arr.std()),
        "min_ms": float(arr.min()),
        "max_ms": float(arr.max()),
        "p10_ms": float(p10),
        "median_ms": float(median),
        "p90_ms": float(p90),
        "minor_faults": faults / repeats,
    }
