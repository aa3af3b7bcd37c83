"""Desk-scale studies: a runnable mini backbone, a teacher/student upsampling
comparison, and a forward-pass timing harness.

The mini backbone mirrors a five-level feature hierarchy: a stride-2 stem plus
four stages built from the decomp stage composers. One parameter set serves
both wirings; only the stride/dilation routing differs, which is what makes
the teacher/student study and the end-to-end phase-consistency checks honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .conv import ConvSpec, ConvWeights, conv2d, conv2d_backward, init_weights, relu
from .cost import DILATED_MODE, STRIDE_JPU_MODE
from .decomp import StageWeights, dilated_stage, stride_stage
from .jpu import JpuConfig, JpuParams, jpu_backward, jpu_forward, jpu_init
from .tensor import Rng, ShapeError, Tensor, bilinear_resize, random_uniform

DILATED = DILATED_MODE
STRIDE = "stride_os32"


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss} at step {step}")
        self.step = step


@dataclass(frozen=True)
class MiniBackboneConfig:
    in_channels: int = 3
    stem_channels: int = 8
    # (body depth, channels) for the four stages after the stem (levels 2..5)
    stages: tuple[tuple[int, int], ...] = ((1, 8), (1, 12), (1, 16), (1, 16))

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ShapeError("need exactly four stages after the stem (five levels total)")
        if any(ch > 64 for _, ch in self.stages) or self.stem_channels > 64:
            raise ShapeError("toy widths only (<= 64 channels)")

    @property
    def level_channels(self) -> tuple[int, int, int]:
        """Channels of the three emitted feature maps (levels 3, 4, 5)."""
        return (self.stages[1][1], self.stages[2][1], self.stages[3][1])


@dataclass(frozen=True, eq=False)
class MiniBackboneParams:
    stem: ConvWeights
    stages: tuple[StageWeights, ...]


def init_mini_backbone(config: MiniBackboneConfig, rng: Rng, dtype=np.float64) -> MiniBackboneParams:
    stem_spec = ConvSpec(config.in_channels, config.stem_channels, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
    stem = init_weights(stem_spec, rng, dtype=dtype)
    stages = []
    cin = config.stem_channels
    for depth, ch in config.stages:
        head = init_weights(ConvSpec(cin, ch, kernel=(3, 3), padding=(1, 1)), rng, dtype=dtype)
        body = [init_weights(ConvSpec(ch, ch, kernel=(3, 3), padding=(1, 1)), rng, dtype=dtype) for _ in range(depth)]
        stages.append(StageWeights(head, body))
        cin = ch
    return MiniBackboneParams(stem, tuple(stages))


def mini_backbone_forward(
    x: Tensor,
    params: MiniBackboneParams,
    config: MiniBackboneConfig,
    mode: str,
) -> tuple[Tensor, Tensor, Tensor]:
    """Emit the (level-3, level-4, level-5) features.

    Stride mode: output strides 8/16/32. Dilated mode: all three at output
    stride 8, with dilation 2 in stage 4 and 4 in stage 5. The identical
    parameter buffers serve both modes.
    """
    if mode not in (DILATED, STRIDE):
        raise KeyError(f"unknown mode {mode!r}")
    n, c, h, w = x.shape
    if h % 32 or w % 32:
        raise ShapeError(f"input dims must be divisible by 32, got {(h, w)}")
    stem_spec = ConvSpec(config.in_channels, config.stem_channels, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
    a = relu(conv2d(x, params.stem, stem_spec))
    a = relu(stride_stage(a, params.stages[0]).y)
    c3 = relu(stride_stage(a, params.stages[1]).y)
    if mode == STRIDE:
        c4 = relu(stride_stage(c3, params.stages[2]).y)
        c5 = relu(stride_stage(c4, params.stages[3]).y)
    else:
        c4 = relu(dilated_stage(c3, params.stages[2], body_dilation=2).y)
        c5 = relu(dilated_stage(c4, params.stages[3], head_dilation=2, body_dilation=4).y)
    return c3, c4, c5


# ---------------------------------------------------------------------------
# synthetic teacher/student study


@dataclass(frozen=True, eq=False)
class TeacherSample:
    image: Tensor
    c3: Tensor  # stride-mode features (student inputs)
    c4: Tensor
    c5: Tensor
    target: Tensor  # dilated-mode level-5 feature at output stride 8


@dataclass(frozen=True, eq=False)
class TeacherDataset:
    config: MiniBackboneConfig
    params: MiniBackboneParams
    samples: tuple[TeacherSample, ...]


def synthetic_teacher(
    seed: int, n_samples: int, config: MiniBackboneConfig, image_hw=(64, 64), dtype=np.float64
) -> TeacherDataset:
    rng = Rng(seed)
    params = init_mini_backbone(config, rng, dtype=dtype)
    samples = []
    for _ in range(n_samples):
        img = random_uniform((1, config.in_channels, *image_hw), rng, -1.0, 1.0, dtype=dtype)
        _, _, target = mini_backbone_forward(img, params, config, DILATED)
        c3, c4, c5 = mini_backbone_forward(img, params, config, STRIDE)
        samples.append(TeacherSample(img, c3, c4, c5, target))
    return TeacherDataset(config, params, tuple(samples))


@dataclass
class TrainRun:
    method: str
    steps: int
    lr: float
    seed: int
    loss_curve: list[float]
    final_mse: float
    param_count: int


def _sgd(w: ConvWeights, gw: np.ndarray, gb: np.ndarray, lr: float) -> ConvWeights:
    return ConvWeights(Tensor(w.weight.data - lr * gw), w.bias - lr * gb)


def _sample_mses(diff: np.ndarray) -> list[float]:
    """Mean squared error of each sample of an N-batched prediction error."""
    return [float(np.mean(d**2)) for d in diff]


def _stack(samples) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The samples' (c3, c4, c5, target), each stacked along N."""
    return tuple(
        Tensor(np.concatenate([getattr(s, f).data for s in samples])) for f in ("c3", "c4", "c5", "target")
    )


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
    samples = dataset.samples
    if holdout is None:
        holdout = max(1, len(samples) // 4)
    train, held = samples[: len(samples) - holdout], samples[len(samples) - holdout :]
    target_ch = train[0].target.shape[1]
    out_h, out_w = train[0].target.shape[2], train[0].target.shape[3]
    rng = Rng(seed)

    jpu_cfg = None
    jpu_params: JpuParams | None = None
    if method == "jpu":
        jpu_cfg = JpuConfig(dataset.config.level_channels, width=jpu_width)
        jpu_params = jpu_init(jpu_cfg, rng)
        head_in = jpu_cfg.out_channels
    else:
        head_in = dataset.config.level_channels[2]
    head_spec = ConvSpec(head_in, target_ch, kernel=(3, 3), padding=(1, 1))
    head = init_weights(head_spec, rng)

    def forward(c3, c4, c5):
        if method == "bilinear":
            feat = bilinear_resize(c5, out_h, out_w)
            cache = None
        else:
            feat, cache = jpu_forward(c3, c4, c5, jpu_params, jpu_cfg)
        return conv2d(feat, head, head_spec), feat, cache

    # One batched forward and backward per step. The loss is the mean of the
    # per-sample MSEs, so each sample's error is scaled by its own size and the
    # batch gradient is the sum of the per-sample gradients.
    *pyramid, target = _stack(train)
    sample_size = target.data[0].size
    scale = lr / len(train)
    loss_curve: list[float] = []
    for step in range(steps):
        pred, feat, cache = forward(*pyramid)
        diff = pred.data - target.data
        with np.errstate(over="ignore"):  # an overflow is reported as TrainingDiverged below
            loss = sum(_sample_mses(diff)) / len(train)
        if not np.isfinite(loss):
            raise TrainingDiverged(step, loss)
        loss_curve.append(loss)
        g_feat, g_w, g_b = conv2d_backward(feat, head, head_spec, Tensor(2.0 * diff / sample_size))
        head = _sgd(head, g_w.data, g_b, scale)
        if method == "jpu":
            grads = jpu_backward(cache, g_feat)[0]
            jpu_params = JpuParams.from_convs(
                _sgd(w, g.weight.data, g.bias, scale) for (_, w), (_, g) in zip(jpu_params.convs(), grads.convs())
            )

    *pyramid, target = _stack(held)
    final = float(np.mean(_sample_mses(forward(*pyramid)[0].data - target.data)))
    n_params = head.weight.data.size + head.bias.size
    if method == "jpu":
        n_params += sum(np.asarray(a).size for _, a in jpu_params.named_tensors())
    return TrainRun(method, steps, lr, seed, loss_curve, final, int(n_params))


# ---------------------------------------------------------------------------
# timing harness


def bench_forward(
    config: MiniBackboneConfig,
    mode: str,
    input_hw=(256, 256),
    repeats: int = 100,
    warmup: int = 3,
    seed: int = 0,
    jpu_width: int = 8,
) -> dict:
    """Wall-clock statistics of a full forward pass; 'stride_os32_plus_jpu'
    appends the pyramid upsampling module to the stride backbone."""
    if repeats < 10:
        raise ValueError("need at least 10 repeats")
    with_jpu = mode == STRIDE_JPU_MODE
    bb_mode = STRIDE if with_jpu else DILATED
    if not with_jpu and mode != DILATED:
        raise KeyError(f"unknown bench mode {mode!r}")
    rng = Rng(seed)
    params = init_mini_backbone(config, rng)
    jpu_cfg = JpuConfig(config.level_channels, width=jpu_width)
    jpu_params = jpu_init(jpu_cfg, rng)
    img = random_uniform((1, config.in_channels, *input_hw), rng, -1.0, 1.0)

    def run():
        c3, c4, c5 = mini_backbone_forward(img, params, config, bb_mode)
        if with_jpu:
            jpu_forward(c3, c4, c5, jpu_params, jpu_cfg)

    for _ in range(warmup):
        run()
    times_ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times_ms.append((time.perf_counter() - t0) * 1e3)
    arr = np.array(times_ms)
    return {
        "mode": mode,
        "input_hw": list(input_hw),
        "repeats": repeats,
        "warmup": warmup,
        "mean_ms": float(arr.mean()),
        "std_ms": float(arr.std()),
        "min_ms": float(arr.min()),
        "max_ms": float(arr.max()),
    }
