"""The three benchmark workloads.

Each workload builds its inputs from the seed in `__init__` (that and one
warm-up operation are its set-up), then runs one closed-loop operation per
`run` call. An operation times two calls, `ref` and `alt`, through the
`timed` callable the runner passes in, checks their outputs untimed, and
returns `(ref_ms, alt_ms, failures)`. `CALIBRATE_IO` adds file round trips in
`workdir` to the calibration kernel run before each timed call (calibration.py). Every jpulite function is reached
through its module at call time, so the traced run's wrappers see the calls.

Why these three (see NOTES.md for the layer map):
  forward_256      large maps; conv2d arithmetic is nearly all of the time.
  train_64         the only backward pass; 8x8 maps, so per-call overhead weighs.
  identity_checks  thousands of tiny convs, plus decomp, jointup, cost and .jt I/O.
"""

from __future__ import annotations

import os

import numpy as np

from jpulite import conv, cost, decomp, experiments, jointup, jpu, tensor

TOLERANCE = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}
# The plant-and-recover solve runs in float64; an f32 map is rounded to f32 on output.
RECOVERY_TOLERANCE = {np.dtype(np.float64): 1e-8, np.dtype(np.float32): 1e-5}
PHASE_TOLERANCE = 1e-10


def _derived_seed(seed: int, stream: int) -> int:
    """A distinct RNG seed for each (benchmark seed, stream) pair."""
    return (seed << 24) + stream


class Forward256:
    """N=1 f64 forward at 256x256 in the `jpulite bench` configuration: the dilated
    wiring (ref) then the stride wiring plus the JPU (alt), on one image."""

    name = "forward_256"
    ref_metric, alt_metric = "dilated_forward_ms", "stride_jpu_forward_ms"
    config = experiments.MiniBackboneConfig(stem_channels=16, stages=((1, 24), (1, 32), (1, 48), (1, 64)))
    jpu_width = 8
    input_hw = (256, 256)
    CALIBRATE_IO = False

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        rng = tensor.Rng(seed)
        self.params = experiments.init_mini_backbone(self.config, rng)
        self.jpu_config = jpu.JpuConfig(self.config.level_channels, width=self.jpu_width)
        self.jpu_params = jpu.jpu_init(self.jpu_config, rng)
        self.image = tensor.random_uniform((1, self.config.in_channels, *self.input_hw), rng, -1.0, 1.0)

    def sites(self) -> tuple[dict, dict]:
        """(id(weights) -> conv call-site name, id(stage head) -> stage name)."""
        sites = {id(self.params.stem): "stem"}
        stages = {}
        for i, sw in enumerate(self.params.stages):
            stage = f"stage{i + 2}"
            stages[id(sw.head)] = stage
            sites[id(sw.head)] = f"{stage}.head"
            for j, bw in enumerate(sw.body):
                sites[id(bw)] = f"{stage}.body{j}"
        p = self.jpu_params
        for i, lw in enumerate(p.levels):
            sites[id(lw)] = f"jpu.level{i}"
        for i, (dw, pw) in enumerate(p.branches):
            sites[id(dw)] = f"jpu.branch{i}.depthwise"
            sites[id(pw)] = f"jpu.branch{i}.pointwise"
        sites[id(p.fusion)] = "jpu.fusion"
        return sites, stages

    def _dilated(self):
        return experiments.mini_backbone_forward(self.image, self.params, self.config, experiments.DILATED)

    def _stride_jpu(self):
        levels = experiments.mini_backbone_forward(self.image, self.params, self.config, experiments.STRIDE)
        out, _ = jpu.jpu_forward(*levels, self.jpu_params, self.jpu_config)
        return levels, out

    def run(self, k: int, timed):
        ref_ms, (_, c4_d, c5_d) = timed(self._dilated)
        alt_ms, ((_, c4_s, c5_s), out) = timed(self._stride_jpu)
        failures = []
        # The stride features are the even phases of the dilated ones (OS 16 and OS 32 of OS 8).
        for name, dil, strided, step in (("c4", c4_d, c4_s, 2), ("c5", c5_d, c5_s, 4)):
            diff = float(np.max(np.abs(dil.data[:, :, ::step, ::step] - strided.data)))
            if not diff <= PHASE_TOLERANCE:
                failures.append(f"stride {name} differs from the dilated even phase by {diff:.3e}")
        if not np.all(np.isfinite(out.data)):
            failures.append("JPU output is not finite")
        return ref_ms, alt_ms, failures


class Train64:
    """Teacher/student training in the acceptance-criterion-8 setup. Each operation
    builds a fresh teacher dataset (untimed), then times one train_approximator call
    of STEPS steps with bilinear upsampling (ref) and one with the JPU (alt)."""

    name = "train_64"
    ref_metric, alt_metric = "bilinear_train_step_ms", "jpu_train_step_ms"
    config = experiments.MiniBackboneConfig()
    image_hw = (64, 64)
    samples, holdout, lr, jpu_width = 8, 2, 0.5, 8
    STEPS = 4
    CALIBRATE_IO = False

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def sites(self) -> tuple[dict, dict]:
        return {}, {}

    def run(self, k: int, timed):
        data_seed = _derived_seed(self.seed, 2 * k)
        dataset = experiments.synthetic_teacher(data_seed, self.samples, self.config, image_hw=self.image_hw)
        runs, times, failures = {}, {}, []
        for method in ("bilinear", "jpu"):
            try:
                times[method], runs[method] = timed(
                    experiments.train_approximator, method, dataset, self.STEPS, self.lr,
                    _derived_seed(self.seed, 2 * k + 1), self.jpu_width, self.holdout,
                )
            except experiments.TrainingDiverged as e:
                times[method] = float("nan")
                failures.append(f"{method}: {e}")
                continue
            curve = runs[method].loss_curve
            if not (np.all(np.isfinite(curve)) and np.isfinite(runs[method].final_mse)):
                failures.append(f"{method}: non-finite loss")
            elif not curve[-1] < curve[0]:
                failures.append(f"{method}: loss rose from {curve[0]:.3e} to {curve[-1]:.3e}")
        return times["bilinear"] / self.STEPS, times["jpu"] / self.STEPS, failures


class IdentityChecks:
    """Randomized cases drawn like `jpulite equiv`. An operation checks one batch of
    BATCH cases in f64 (ref), then the same batch in f32 (alt); each case runs the
    three identity families, a count_macs vs cost-model check, a joint-upsampling
    plant-and-recover and a JPU checkpoint round trip. The times are per case.

    The BATCH case shapes are drawn once with SHAPE_SEED, so every seed and every
    batch does the same amount of work; the seed draws the data of POOL batches."""

    name = "identity_checks"
    ref_metric, alt_metric = "check_case_f64_ms", "check_case_f32_ms"
    BATCH, POOL, SHAPE_SEED = 24, 4, 0
    CALIBRATE_IO = True  # the checkpoint round trips are about 40% of a case

    def __init__(self, seed: int, workdir: str):
        shape_rng = tensor.Rng(self.SHAPE_SEED)
        shapes = [self._draw_shape(shape_rng) for _ in range(self.BATCH)]
        rng = tensor.Rng(seed)
        self.pool = []
        for _ in range(self.POOL):
            cases = [self._draw(shape, rng) for shape in shapes]
            self.pool.append({np.float64: cases, np.float32: [_cast_case(c, np.float32) for c in cases]})
        self.workdir = workdir

    def sites(self) -> tuple[dict, dict]:
        return {}, {}

    @staticmethod
    def _draw_shape(rng):
        def pick(lo, hi):  # inclusive integer draw
            return lo + int(rng.next_u64(1)[0] % (hi - lo + 1))

        cin, ch = pick(1, 4), pick(1, 8)
        h, w = 2 * pick(2, 8), 2 * pick(2, 8)
        depth, width = pick(1, 3), pick(1, 4)
        return cin, ch, h, w, depth, width

    @staticmethod
    def _draw(shape, rng):
        cin, ch, h, w, depth, width = shape
        x = tensor.random_uniform((1, cin, h, w), rng, -1.0, 1.0)
        head = conv.init_weights(conv.ConvSpec(cin, ch, kernel=(3, 3), padding=(1, 1)), rng)
        body = [conv.init_weights(conv.ConvSpec(ch, ch, kernel=(3, 3), padding=(1, 1)), rng) for _ in range(depth)]
        jpu_config = jpu.JpuConfig((ch, cin, ch), width=width)
        jpu_params = jpu.jpu_init(jpu_config, rng)
        # jointup-demo shape: 3 guidance channels, 2 target channels, 8x8 -> 16x16
        guide_l = tensor.random_uniform((1, 3, 8, 8), rng, -1.0, 1.0)
        guide_h = tensor.random_uniform((1, 3, 16, 16), rng, -1.0, 1.0)
        planted = (rng.uniform(6, -1.0, 1.0).reshape(2, 3), rng.uniform(2, -1.0, 1.0))
        return x, decomp.StageWeights(head, body), jpu_config, jpu_params, guide_l, guide_h, planted

    def run(self, k: int, timed):
        batch = self.pool[k % self.POOL]
        ref_ms, f64_failures = timed(self._check_batch, batch[np.float64])
        alt_ms, f32_failures = timed(self._check_batch, batch[np.float32])
        return ref_ms / self.BATCH, alt_ms / self.BATCH, f64_failures + f32_failures

    def _check_batch(self, cases) -> list[str]:
        return [f for case in cases for f in self._check(case)]

    def _check(self, case) -> list[str]:
        x, sw, jpu_config, jpu_params, guide_l, guide_h, (w_true, b_true) = case
        dt = x.dtype
        tol, label = TOLERANCE[dt], dt.name
        failures = []
        cin, ch = sw.in_channels, sw.channels
        hw = x.shape[2:]

        d = tensor.max_abs_diff(decomp.dilated_stage(x, sw).y, decomp.dilated_stage_decomposed(x, sw).y)
        if not d <= tol:
            failures.append(f"{label} dilated_decomp diff {d:.3e}")
        full = conv.ConvSpec(cin, ch, kernel=(3, 3), padding=(1, 1))
        strided = conv.ConvSpec(cin, ch, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
        y_full, macs = conv.conv2d(x, sw.head, full, count_macs=True)
        d = tensor.max_abs_diff(conv.conv2d(x, sw.head, strided), decomp.reduce_even(y_full))
        if not d <= tol:
            failures.append(f"{label} stride_reduce diff {d:.3e}")
        rep = decomp.check_phase_consistency(x, sw, tolerance=tol)
        if not rep.passed:
            failures.append(f"{label} phase_consistency diff {rep.max_abs_diff:.3e}")

        body = conv.ConvSpec(ch, ch, kernel=(3, 3), dilation=(2, 2), padding=(2, 2))
        _, body_macs = conv.conv2d(y_full, sw.body[0], body, count_macs=True)
        for spec, counted in ((full, macs), (body, body_macs)):
            analytic = cost.conv_cost_from_spec(spec, hw).macs * x.shape[0]
            if counted != analytic:
                failures.append(f"{label} MAC mismatch {spec}: counted {counted}, analytic {analytic}")

        truth = jointup.LinearMap(w_true, b_true)
        res = jointup.solve_joint_upsample(guide_l, truth.apply(guide_l), guide_h)
        err = tensor.max_abs_diff(res.y_h, truth.apply(guide_h))
        if not err <= RECOVERY_TOLERANCE[dt]:
            failures.append(f"{label} joint-upsampling recovery error {err:.3e}")

        path = os.path.join(self.workdir, f"jpu_{label}")
        jpu.save_jpu_params(path, jpu_params, jpu_config)
        loaded, loaded_config = jpu.load_jpu_params(path)
        same = loaded_config == jpu_config and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for (_, a), (_, b) in zip(jpu_params.named_tensors(), loaded.named_tensors(), strict=True)
        )
        if not same:
            failures.append(f"{label} checkpoint round trip is not bit-identical")
        return failures


def _cast_case(case, dtype):
    x, sw, jpu_config, jpu_params, guide_l, guide_h, planted = case
    return (_cast(x, dtype), _cast_stage(sw, dtype), jpu_config, _cast_jpu(jpu_params, dtype),
            _cast(guide_l, dtype), _cast(guide_h, dtype), planted)


def _cast(t, dtype):
    return tensor.Tensor(t.data.astype(dtype))


def _cast_weights(w, dtype):
    return conv.ConvWeights(_cast(w.weight, dtype), None if w.bias is None else w.bias.astype(dtype))


def _cast_stage(sw, dtype):
    return decomp.StageWeights(_cast_weights(sw.head, dtype), [_cast_weights(b, dtype) for b in sw.body])


def _cast_jpu(p, dtype):
    return jpu.JpuParams(
        [_cast_weights(w, dtype) for w in p.levels],
        [(_cast_weights(d, dtype), _cast_weights(q, dtype)) for d, q in p.branches],
        _cast_weights(p.fusion, dtype),
    )


WORKLOADS = {w.name: w for w in (Forward256, Train64, IdentityChecks)}
