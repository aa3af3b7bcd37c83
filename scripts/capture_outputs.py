"""Capture the outputs a refactor must leave byte-identical.

    python3 scripts/capture_outputs.py OUTDIR

The captures are the `jpulite` commands of the CLI table and the functions of
PYTHON, whose docstrings say what each pins. Each capture NAME runs in a
process of its own, with BLAS on one thread (so GEMM sums round the same way
in every run), PYTHONPATH=src:perfbench and no bytecode written, and writes
OUTDIR/NAME.out (stdout), NAME.err (stderr) and NAME.code (exit status).
jpulite is imported only inside the captures, so scripts/unreached_lines.py
reads the CLI table without running any of the library. Exit status 0, 1 if
a capture exits nonzero (each is named on stderr), 2 for usage.
scripts/diff_outputs.sh [REV] diffs these captures for REV and this checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CLI = (  # (capture name, `jpulite` arguments), {out} standing for OUTDIR
    ("cost_resnet101_compare", "cost --backbone resnet101 --compare"),
    ("cost_resnet50_compare_96x2048", "cost --backbone resnet50 --compare --input 96 2048"),
    ("cost_resnet101_dilated", "cost --backbone resnet101 --mode dilated"),
    ("cost_resnet50_dilated", "cost --backbone resnet50 --mode dilated"),
    ("cost_resnet50_jpu_width64", "cost --backbone resnet50 --mode jpu --jpu-width 64"),
    ("cost_resnet101_jpu_96x2048", "cost --backbone resnet101 --mode jpu --input 96 2048"),
    ("equiv_f64", "equiv --cases 30 --seed 3"),
    ("equiv_f32", "equiv --cases 30 --seed 3 --dtype f32"),
    ("equiv_output", "equiv --cases 2 --seed 3 --output {out}/equiv_output.json"),
    ("jointup_demo_seed4", "jointup-demo --seed 4"),
    ("jointup_demo_seed5", "jointup-demo --seed 5"),
    ("train_demo", "train-demo --seeds 1 --steps 5 --samples 4 --image 32"),
    ("bench", "bench --repeats 10 --input 64 64 --no-timing"),
    ("bench_environment_keys", "bench --input 64 64 --repeats 10"),
)


def argv(args: str, out: str) -> list[str]:
    """A CLI row's arguments as an argument list, with out for {out}."""
    return [a.replace("{out}", out) for a in args.split()]


def run_cli(name: str, args: str, out: str) -> int:
    """Run a CLI row in-process; bench_environment_keys prints only the sorted keys of the
    timed bench's `environment`, since their values and the timings vary by machine and run."""
    from jpulite import cli

    if name != "bench_environment_keys":
        return cli.main(argv(args, out))
    with contextlib.redirect_stdout(io.StringIO()) as doc:
        code = cli.main(argv(args, out))
    print(sorted(json.loads(doc.getvalue())["environment"]))
    return code


def _sha(chunks) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def criterion_8() -> int:
    """Criterion 8's two MSEs, the `jpu=... bilinear=...` of its line (the rest of the line is
    its wall time); fails if the line is missing."""
    pytest = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
    run = subprocess.run([*pytest, "-k", "criterion_8"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    mses = re.findall(r"jpu=[^ \n]* bilinear=[^ \n]*", run.stdout)
    if not mses:
        print(run.stdout, "error: no `jpu=... bilinear=...` line", sep="", file=sys.stderr)
        return run.returncode or 1
    print(*mses, sep="\n")
    return run.returncode


def mini_backbone() -> None:
    """A sha256 of the mini backbone's weights, and per wiring of its layer table and its outputs
    at 64x64, N 2, for the default config and the bench config (perfbench's Forward256.config)."""
    from jpulite import experiments as exp
    from jpulite.tensor import Rng, random_uniform
    from workloads import Forward256

    for label, config in (("default", exp.MiniBackboneConfig()), ("bench", Forward256.config)):
        params = exp.init_mini_backbone(config, Rng(0))
        convs = [params.stem, *(w for sw in params.stages for w in (sw.head, *sw.body))]
        print(label, "weights", _sha(a.tobytes() for w in convs for a in (w.weight.data, w.bias)))
        img = random_uniform((2, config.in_channels, 64, 64), Rng(1), -1.0, 1.0)
        for mode in (exp.STRIDE, exp.DILATED):
            print(label, mode, "layers", _sha([repr(config.layers(mode)).encode()]))
            outputs = exp.mini_backbone_forward(img, params, config, mode)
            print(label, mode, "outputs", _sha(t.data.tobytes() for t in outputs))


def resnet_tables() -> None:
    """A sha256 of each ResNet preset's layer table, `BackboneSpec(name).layers(mode, (512, 512))`
    with strides and dilations, in each cost mode."""
    from jpulite.cost import MODES, RESNET_BLOCKS, BackboneSpec

    for name in RESNET_BLOCKS:
        for mode in MODES:
            print(name, mode, _sha([repr(BackboneSpec(name).layers(mode, (512, 512))).encode()]))


def jpu_checkpoint() -> None:
    """The name and sha256 of each file save_jpu_params writes for the bench config's width-8
    JPU, saved twice into one directory so the second save writes over the first's files, and
    whether load_jpu_params reads back an equal config."""
    from jpulite.experiments import BENCH_CONFIG
    from jpulite.jpu import JpuConfig, jpu_init, load_jpu_params, save_jpu_params
    from jpulite.tensor import Rng

    config = JpuConfig(BENCH_CONFIG.level_channels, width=8)
    with tempfile.TemporaryDirectory() as d:
        for _ in range(2):
            save_jpu_params(d, jpu_init(config, Rng(0)), config)
        for path in sorted(Path(d).iterdir()):
            print(path.name, _sha([path.read_bytes()]))
        print("loads an equal config:", load_jpu_params(d)[1] == config)


def jpu_train_step() -> None:
    """A sha256 of the output and of every parameter and input gradient of one jpu_forward and
    jpu_backward at training shapes: the default config's 64x64 teacher pyramid, N 6 in f64,
    then N 3 in f32."""
    from jpulite import experiments as exp
    from jpulite.conv import ConvWeights
    from jpulite.jpu import JpuConfig, JpuParams, jpu_backward, jpu_forward, jpu_init
    from jpulite.tensor import Rng, Tensor, random_uniform

    config = exp.MiniBackboneConfig()
    data = exp.synthetic_teacher(0, 6, config)
    jpu_config = JpuConfig(config.level_channels, width=8)
    for n, dtype in ((6, np.float64), (3, np.float32)):
        params = JpuParams.from_convs(
            ConvWeights(Tensor(w.weight.data.astype(dtype)), w.bias.astype(dtype))
            for _, w in jpu_init(jpu_config, Rng(1)).convs()
        )
        pyramid = (Tensor(t.data[:n].astype(dtype)) for t in (data.c3, data.c4, data.c5))
        out, cache = jpu_forward(*pyramid, params, jpu_config)
        grads, input_grads = jpu_backward(cache, random_uniform(out.shape, Rng(2), -1.0, 1.0, dtype=dtype))
        label = f"n{n} {np.dtype(dtype).name}"
        print(label, "output", _sha([out.data.tobytes()]))
        for name, arr in grads.named_tensors():
            print(label, name, _sha([arr.tobytes()]))
        for level, g in zip(("c3", "c4", "c5"), input_grads):
            print(label, level, _sha([g.data.tobytes()]))


def _thin_cases() -> list:
    """The thin convs (at most 8 input channels per group) as (spec, input grid): stride 1 and
    2, dilation 1-4, taps dead at rates past the map, groups above 1, then the test suite's
    layout edges and a 7x7 stride-2 stem."""
    from jpulite.conv import ConvSpec

    grid = itertools.product((1, 2), (1, 2, 3, 4), ((3, 8, 1), (8, 4, 2), (6, 6, 6)), ((3, 3), (3, 7), (7, 5), (8, 8)))
    return [
        (ConvSpec(c, o, stride=(s, s), dilation=(d, d), padding=(d, d), groups=g), hw) for s, d, (c, o, g), hw in grid
    ] + [
        (ConvSpec(3, 2, stride=(2, 2), padding=(1, 1)), (8, 6)),
        (ConvSpec(2, 3, (1, 1), padding=(1, 1)), (3, 4)),
        (ConvSpec(3, 2, padding=(1, 1)), (1, 1)),
        (ConvSpec(2, 2, stride=(3, 3), padding=(1, 1)), (8, 7)),
        (ConvSpec(6, 2, dilation=(4, 4), padding=(4, 4)), (8, 8)),
        (ConvSpec(2, 2, stride=(2, 1), dilation=(5, 1), padding=(6, 1)), (2, 5)),
        (ConvSpec(4, 4, (5, 3), dilation=(2, 3), padding=(3, 2)), (9, 10)),
        (ConvSpec(3, 16, (7, 7), stride=(2, 2), padding=(3, 3)), (32, 32)),
    ]


def _jpu_convs(level_channels, width: int, c3_hw: tuple[int, int]) -> list:
    """A JPU's level and fusion convs, then each branch as the forward runs it, one dense conv
    of its folded weights, as (spec, input grid)."""
    from jpulite.jpu import DILATION_RATES, JpuConfig, _folded_spec

    table = {name: (spec, level) for name, spec, level in JpuConfig(level_channels, width=width).layers()}
    convs = [(spec, tuple(s >> level for s in c3_hw)) for name, (spec, level) in table.items() if "branch" not in name]
    for i in range(len(DILATION_RATES)):  # folded as the forward folds it
        convs.append((_folded_spec(table[f"branch{i}.depthwise"][0], table[f"branch{i}.pointwise"][0]), c3_hw))
    return convs


def _wide_cases() -> list:
    """In order, the (spec, input grid) of each conv a forward_256 operation runs: both wirings
    of the bench config at 256x256, then the JPU's levels, folded branches and fusion."""
    from jpulite import experiments as exp
    from workloads import Forward256

    config, hw0 = Forward256.config, Forward256.input_hw
    wide = {}
    for mode in (exp.DILATED, exp.STRIDE):
        hw = hw0
        for _, spec in config.layers(mode):
            wide.setdefault((spec, hw), None)
            hw = spec.out_hw(hw)
    for case in _jpu_convs(config.level_channels, Forward256.jpu_width, tuple(s // 8 for s in hw0)):
        wide.setdefault(case, None)
    return list(wide)


def thin_forward() -> None:
    """A sha256 per thin geometry of its conv2d outputs at N 1-3, f32 and f64."""
    from jpulite.conv import ConvWeights, conv2d, init_weights
    from jpulite.tensor import Rng, random_uniform

    for i, (spec, hw) in enumerate(_thin_cases()):
        h = hashlib.sha256()
        for n, dtype in itertools.product((1, 2, 3), (np.float32, np.float64)):
            rng = Rng(i)
            x = random_uniform((n, spec.in_channels, *hw), rng, -1.0, 1.0, dtype=dtype)
            weight = init_weights(spec, rng, dtype=dtype).weight
            w = ConvWeights(weight, rng.uniform(spec.out_channels, -0.5, 0.5).astype(dtype))
            h.update(conv2d(x, w, spec).data.tobytes())
        print(spec, hw, h.hexdigest())


def wide_forward() -> None:
    """A sha256 per conv geometry of a forward_256 operation of the conv2d output and the
    conv2d_backward gradients at N 1, f32 and f64."""
    from jpulite.conv import ConvWeights, conv2d, conv2d_backward, init_weights
    from jpulite.tensor import Rng, random_uniform

    for i, (spec, hw) in enumerate(_wide_cases()):
        h = hashlib.sha256()
        for dtype in (np.float32, np.float64):
            rng = Rng(i)
            x = random_uniform((1, spec.in_channels, *hw), rng, -1.0, 1.0, dtype=dtype)
            weight = init_weights(spec, rng, dtype=dtype).weight
            wt = ConvWeights(weight, rng.uniform(spec.out_channels, -0.5, 0.5).astype(dtype))
            grad_out = random_uniform((1, spec.out_channels, *spec.out_hw(hw)), rng, -1.0, 1.0, dtype=dtype)
            gx, gw, gb = conv2d_backward(x, wt, spec, grad_out)
            for a in (conv2d(x, wt, spec).data, gx.data, gw.data, gb):
                h.update(a.tobytes())
        print(spec, hw, h.hexdigest())


def tap_walks() -> None:
    """A sha256 of the geometry fields of each conv._TapWalk of the thin geometries at N 1-3,
    the wide ones at N 1 and the JPU's convs at Train64's training and held-out batches."""
    from jpulite.conv import _TapWalk
    from workloads import Train64 as T

    shapes = [(spec, (n, spec.in_channels, *hw)) for spec, hw in _thin_cases() for n in (1, 2, 3)]
    shapes += [(spec, (1, spec.in_channels, *hw)) for spec, hw in _wide_cases()]
    for spec, hw in _jpu_convs(T.config.level_channels, T.jpu_width, tuple(s // 8 for s in T.image_hw)):
        shapes += [(spec, (n, spec.in_channels, *hw)) for n in (T.samples - T.holdout, T.holdout)]
    for spec, x_shape in shapes:
        walk = _TapWalk(spec, x_shape)
        h = hashlib.sha256()
        for name in ("shape", "base", "slot", "slot_rows", "pitch", "tail", "margin", "taps", "kernel_taps", "grid"):
            value = getattr(walk, name)
            h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
        print(spec, x_shape, h.hexdigest())


def train_64() -> None:
    """The loss curves and the repr of the held-out MSE of train_approximator at Train64's
    settings, both methods, seeds 0 and 1."""
    from jpulite import experiments as exp
    from workloads import Train64 as T

    for seed in (0, 1):
        data = exp.synthetic_teacher(seed, T.samples, T.config, image_hw=T.image_hw)
        for method in ("bilinear", "jpu"):
            run = exp.train_approximator(method, data, T.STEPS, T.lr, seed + 1, T.jpu_width, T.holdout)
            print(method, seed, run.loss_curve, repr(run.final_mse))


PYTHON = (criterion_8, mini_backbone, resnet_tables, jpu_checkpoint, jpu_train_step, thin_forward, wide_forward,
          tap_walks, train_64)


def _capture(name: str, out: str) -> None:
    """A capture process: run NAME with stdout and stderr on OUTDIR/NAME.out and NAME.err."""
    for fd, suffix in ((1, "out"), (2, "err")):
        with open(os.path.join(out, f"{name}.{suffix}"), "wb") as f:
            os.dup2(f.fileno(), fd)
    args = dict(CLI).get(name)
    sys.exit(run_cli(name, args, out) if args else {f.__name__: f for f in PYTHON}[name]())


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} OUTDIR", file=sys.stderr)
        return 2
    out = os.path.abspath(sys.argv[1])
    os.makedirs(out, exist_ok=True)
    os.chdir(ROOT)
    os.environ.update(PYTHONPATH="src:perfbench", PYTHONDONTWRITEBYTECODE="1",
                      OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # a spawned process starts with this path
    status = 0
    for name in [name for name, _ in CLI] + [f.__name__ for f in PYTHON]:
        process = multiprocessing.get_context("spawn").Process(target=_capture, args=(name, out))
        process.start()
        process.join()
        Path(out, f"{name}.code").write_text(f"{process.exitcode}\n")
        if process.exitcode:
            print(f"error: capture {name} exited {process.exitcode}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
