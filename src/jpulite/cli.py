"""Command-line entry point: equivalence checkers, cost model, demos, benchmark.

Every subcommand prints one JSON document (schema 1) to stdout; `--output`
additionally writes it to a file. Exit codes: 0 success, 1 a numerical check
or computation failed (diverged training, degenerate least squares), 2 usage
error. All randomness is derived from `--seed`, so repeated runs are
byte-identical (the benchmark's timing and environment fields are the
exception and can be stripped with `--no-timing`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import numpy as np

from . import cost as costmod
from . import experiments as exp
from .conv import conv2d, init_weights
from .decomp import (
    StageWeights,
    check_phase_consistency,
    dilated_stage,
    dilated_stage_decomposed,
    reduce_even,
    stage_specs,
)
from .jointup import DegenerateProblemError, LinearMap, solve_joint_upsample
from .jpu import JpuConfig
from .tensor import Rng, Tensor, _write_new, max_abs_diff, random_uniform

DTYPES = {"f32": np.float32, "f64": np.float64}
DEFAULT_TOL = {"f32": 1e-5, "f64": 1e-12}


def _emit(doc: dict, args) -> None:
    doc = {"schema": 1, **doc}
    text = json.dumps(doc, indent=2 if args.pretty else None, sort_keys=True)
    if args.output:  # first, so a path that cannot be written leaves stdout empty
        try:
            _write_new(args.output, (text + "\n").encode())
        except OSError as e:  # a usage error (exit 2), not a numerical one
            raise ValueError(f"cannot write --output: {e}") from e
    try:
        print(text, flush=True)
    except OSError as e:  # also a usage error; the failed flush drops the buffer, so the exit flush is silent
        raise ValueError(f"cannot write stdout: {e}") from e


def _random_stage(rng: Rng, dtype) -> tuple[Tensor, StageWeights]:
    def pick(lo, hi):  # inclusive deterministic integer draw
        return lo + int(rng.next_u64(1)[0] % (hi - lo + 1))

    cin, ch = pick(1, 4), pick(1, 8)
    h, w = 2 * pick(2, 8), 2 * pick(2, 8)
    depth = pick(1, 3)
    x = random_uniform((1, cin, h, w), rng, -1.0, 1.0, dtype=dtype)
    head, body = stage_specs(cin, ch, depth, 1, 1, 1)
    return x, StageWeights(init_weights(head, rng, dtype=dtype), [init_weights(b, rng, dtype=dtype) for b in body])


def _family_diffs(x: Tensor, sw: StageWeights) -> dict[str, float]:
    """Max abs diff of each identity family on one random stage."""
    spec_full, spec_strided = (stage_specs(sw.in_channels, sw.channels, len(sw.body), s, 1, 1)[0] for s in (1, 2))
    return {
        "dilated_decomp": max_abs_diff(dilated_stage(x, sw).y, dilated_stage_decomposed(x, sw).y),
        "stride_reduce": max_abs_diff(conv2d(x, sw.head, spec_strided), reduce_even(conv2d(x, sw.head, spec_full))),
        "phase_consistency": check_phase_consistency(x, sw).max_abs_diff,
    }


def cmd_equiv(args) -> int:
    """Each family reports its worst diff with the seed and case index it came
    from: case i is the (i+1)-th `_random_stage` drawn from `Rng(seed)`. A
    non-finite diff is the worst and fails; its `max_abs_diff` is null."""
    if args.cases < 1:
        raise ValueError(f"--cases must be >= 1, got {args.cases}")
    dtype = DTYPES[args.dtype]
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOL[args.dtype]
    if not 0 <= tol < math.inf:  # NaN or infinity would also print as invalid JSON
        raise ValueError(f"--tolerance must be finite and >= 0, got {tol}")
    rng = Rng(args.seed)
    families = {name: {"cases": args.cases, "max_abs_diff": 0.0, "worst_seed": args.seed, "worst_case": None}
                for name in ("dilated_decomp", "stride_reduce", "phase_consistency")}
    for i in range(args.cases):
        for name, d in _family_diffs(*_random_stage(rng, dtype)).items():
            fam = families[name]
            d = d if math.isfinite(d) else math.inf  # NaN too: worse than any finite diff; the first stays worst
            if fam["worst_case"] is None or d > fam["max_abs_diff"]:
                fam["worst_case"], fam["max_abs_diff"] = i, d
    all_pass = True
    for fam in families.values():
        worst = fam["max_abs_diff"]
        fam["max_abs_diff"] = worst if worst < math.inf else None  # JSON has no NaN or infinity
        fam["tolerance"] = tol
        fam["pass"] = worst <= tol
        all_pass &= fam["pass"]
    _emit({"command": "equiv", "dtype": args.dtype, "seed": args.seed, "families": families,
           "pass": all_pass}, args)
    return 0 if all_pass else 1


def cmd_cost(args) -> int:
    spec = costmod.BackboneSpec(args.backbone)
    input_hw = tuple(args.input)
    dilated = costmod.backbone_cost(spec, costmod.DILATED_MODE, input_hw)
    jpu = costmod.backbone_cost(spec, costmod.STRIDE_JPU_MODE, input_hw, jpu_width=args.jpu_width)
    if args.compare:
        doc = {
            "command": "cost",
            "backbone": args.backbone,
            "input_hw": list(input_hw),
            "jpu_width": args.jpu_width,
            "dilated_total": dilated.total().__dict__,
            "stride_plus_jpu_total": jpu.total().__dict__,
            "ratios": costmod.compare_costs(dilated, jpu),
        }
    else:
        report = dilated if args.mode == "dilated" else jpu
        doc = {"command": "cost", "report": report.to_dict()}
    _emit(doc, args)
    return 0


def cmd_jointup_demo(args) -> int:
    rng = Rng(args.seed)
    gc, tc, h, w = 3, 2, 8, 8
    x_l = random_uniform((1, gc, h, w), rng, -1.0, 1.0)
    x_h = random_uniform((1, gc, 2 * h, 2 * w), rng, -1.0, 1.0)
    w_true = rng.uniform(tc * gc, -1.0, 1.0).reshape(tc, gc)
    b_true = rng.uniform(tc, -1.0, 1.0)
    truth = LinearMap(w_true, b_true)
    y_l = truth.apply(x_l)
    res = solve_joint_upsample(x_l, y_l, x_h)
    recovery_error = max_abs_diff(res.y_h, truth.apply(x_h))
    doc = {
        "command": "jointup-demo",
        "seed": args.seed,
        "residual": res.residual,
        "recovery_error": recovery_error,
        "pass": recovery_error <= 1e-8,
    }
    _emit(doc, args)
    return 0 if doc["pass"] else 1


def cmd_train_demo(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    for seed in (args.seed, args.seed + 1000 + args.seeds - 1):  # the lowest and highest seeds used below
        Rng(seed)  # rejects one out of range before any teacher is built
    config = exp.MiniBackboneConfig()
    # the library's own checks of --width, --image, --samples, --steps and --lr, before any teacher is built
    JpuConfig(config.level_channels, width=args.width)
    costmod._check_input_hw((args.image, args.image))
    exp._check_training(args.n_samples, args.steps, args.lr, None)
    runs = {"bilinear": [], "jpu": []}
    for s in range(args.seeds):
        dataset = exp.synthetic_teacher(args.seed + s, args.n_samples, config, image_hw=(args.image, args.image))
        for method in ("bilinear", "jpu"):
            run = exp.train_approximator(
                method, dataset, steps=args.steps, lr=args.lr, seed=args.seed + 1000 + s, jpu_width=args.width
            )
            runs[method].append(run)
    doc = {
        "command": "train-demo",
        "seeds": args.seeds,
        "steps": args.steps,
        "lr": args.lr,
        "jpu_width": args.width,
        "mse_bilinear_mean": float(np.mean([r.final_mse for r in runs["bilinear"]])),
        "mse_jpu_mean": float(np.mean([r.final_mse for r in runs["jpu"]])),
        "per_seed": [
            {
                "seed": args.seed + i,
                "mse_bilinear": runs["bilinear"][i].final_mse,
                "mse_jpu": runs["jpu"][i].final_mse,
                "params_bilinear": runs["bilinear"][i].param_count,
                "params_jpu": runs["jpu"][i].param_count,
                "loss_curve_bilinear": runs["bilinear"][i].loss_curve,
                "loss_curve_jpu": runs["jpu"][i].loss_curve,
            }
            for i in range(args.seeds)
        ],
    }
    doc["jpu_beats_bilinear"] = doc["mse_jpu_mean"] < doc["mse_bilinear_mean"]
    _emit(doc, args)
    return 0 if doc["jpu_beats_bilinear"] else 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What the timings depend on besides the code: the interpreter, numpy, its BLAS and threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def cmd_bench(args) -> int:
    results = {
        mode: exp.bench_forward(exp.BENCH_CONFIG, mode, input_hw=tuple(args.input), repeats=args.repeats, seed=args.seed)
        for mode in costmod.MODES
    }
    doc = {"command": "bench", "repeats": args.repeats, "input_hw": list(args.input), "results": results}
    doc["dilated_slower"] = results[costmod.DILATED_MODE]["mean_ms"] > results[costmod.STRIDE_JPU_MODE]["mean_ms"]
    if args.no_timing:
        for r in doc["results"].values():
            for key in ("mean_ms", "std_ms", "min_ms", "max_ms", "minor_faults"):
                r.pop(key, None)
        doc.pop("dilated_slower")
    else:
        doc["environment"] = _environment()
    _emit(doc, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jpulite", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", default=None, help="also write the JSON to this path")
        sp.add_argument("--pretty", action="store_true", help="indent the JSON")

    sp = sub.add_parser("equiv", help="run the dilated/stride equivalence checkers")
    common(sp)
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--dtype", choices=sorted(DTYPES), default="f64")
    sp.add_argument("--tolerance", type=float, default=None, help="override the dtype default")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("cost", help="analytic MAC/memory cost model")
    common(sp)
    sp.add_argument("--backbone", choices=["resnet50", "resnet101"], required=True)
    sp.add_argument("--mode", choices=["dilated", "jpu"], default="dilated")
    sp.add_argument("--input", type=int, nargs=2, default=[512, 512], metavar=("H", "W"))
    sp.add_argument("--jpu-width", type=int, default=512)
    sp.add_argument("--compare", action="store_true", help="emit the dilated/(stride+jpu) ratio table")
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("jointup-demo", help="plant-and-recover joint-upsampling demo")
    common(sp)
    sp.set_defaults(func=cmd_jointup_demo)

    sp = sub.add_parser("train-demo", help="teacher/student upsampling comparison")
    common(sp)
    sp.add_argument("--seeds", type=int, default=3)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--lr", type=float, default=0.5)
    sp.add_argument("--samples", type=int, default=8, dest="n_samples")
    sp.add_argument("--width", type=int, default=8, help="pyramid-upsampler width")
    sp.add_argument("--image", type=int, default=64, help="square input size")
    sp.set_defaults(func=cmd_train_demo)

    sp = sub.add_parser("bench", help="CPU forward-pass timing, dilated vs stride+upsampler")
    common(sp)
    sp.add_argument("--repeats", type=int, default=100)
    sp.add_argument("--input", type=int, nargs=2, default=[256, 256], metavar=("H", "W"))
    sp.add_argument("--no-timing", action="store_true", help="strip timing fields (golden tests)")
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (exp.TrainingDiverged, DegenerateProblemError) as e:  # numerical failures
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
