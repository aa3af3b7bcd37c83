"""Command-line entry point: equivalence checkers, cost model, demos, benchmark.

Every subcommand prints one JSON document (schema 1) to stdout; `--output`
additionally writes it to a file. Exit codes: 0 success, 1 a numerical check
or computation failed (diverged training, degenerate least squares), 2 usage
error. All randomness is derived from `--seed`, so repeated runs are
byte-identical (the benchmark's timing fields are the exception and can be
stripped with `--no-timing`).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cost as costmod
from . import experiments as exp
from .conv import ConvSpec, conv2d, init_weights
from .decomp import (
    StageWeights,
    check_phase_consistency,
    dilated_stage,
    dilated_stage_decomposed,
    reduce_even,
)
from .jointup import DegenerateProblemError, solve_joint_upsample
from .jpu import JpuConfig
from .tensor import Rng, Tensor, max_abs_diff, random_uniform

DTYPES = {"f32": np.float32, "f64": np.float64}
DEFAULT_TOL = {"f32": 1e-5, "f64": 1e-12}


def _emit(doc: dict, args) -> None:
    doc = {"schema": 1, **doc}
    text = json.dumps(doc, indent=2 if args.pretty else None, sort_keys=True)
    print(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")


def _random_stage(rng: Rng, dtype) -> tuple[Tensor, StageWeights]:
    def pick(lo, hi):  # inclusive deterministic integer draw
        return lo + int(rng.next_u64(1)[0] % (hi - lo + 1))

    cin, ch = pick(1, 4), pick(1, 8)
    h, w = 2 * pick(2, 8), 2 * pick(2, 8)
    depth = pick(1, 3)
    x = random_uniform((1, cin, h, w), rng, -1.0, 1.0, dtype=dtype)
    head = init_weights(ConvSpec(cin, ch, kernel=(3, 3), padding=(1, 1)), rng, dtype=dtype)
    body = [init_weights(ConvSpec(ch, ch, kernel=(3, 3), padding=(1, 1)), rng, dtype=dtype) for _ in range(depth)]
    return x, StageWeights(head, body)


def cmd_equiv(args) -> int:
    dtype = DTYPES[args.dtype]
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOL[args.dtype]
    rng = Rng(args.seed)
    families = {name: {"cases": args.cases, "max_abs_diff": 0.0} for name in
                ("dilated_decomp", "stride_reduce", "phase_consistency")}
    for _ in range(args.cases):
        x, sw = _random_stage(rng, dtype)
        d = max_abs_diff(dilated_stage(x, sw).y, dilated_stage_decomposed(x, sw).y)
        families["dilated_decomp"]["max_abs_diff"] = max(families["dilated_decomp"]["max_abs_diff"], d)

        spec_full = ConvSpec(x.shape[1], sw.channels, kernel=(3, 3), padding=(1, 1))
        spec_strided = ConvSpec(x.shape[1], sw.channels, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
        d = max_abs_diff(conv2d(x, sw.head, spec_strided), reduce_even(conv2d(x, sw.head, spec_full)))
        families["stride_reduce"]["max_abs_diff"] = max(families["stride_reduce"]["max_abs_diff"], d)

        rep = check_phase_consistency(x, sw, tolerance=tol)
        families["phase_consistency"]["max_abs_diff"] = max(
            families["phase_consistency"]["max_abs_diff"], rep.max_abs_diff
        )
    all_pass = True
    for fam in families.values():
        fam["tolerance"] = tol
        fam["pass"] = fam["max_abs_diff"] <= tol
        all_pass &= fam["pass"]
    _emit({"command": "equiv", "dtype": args.dtype, "seed": args.seed, "families": families,
           "pass": all_pass}, args)
    return 0 if all_pass else 1


def cmd_cost(args) -> int:
    spec = costmod.resnet_preset(args.backbone)
    input_hw = tuple(args.input)
    jpu_cfg = JpuConfig(
        (spec.stages[-3].out_channels, spec.stages[-2].out_channels, spec.stages[-1].out_channels),
        width=args.jpu_width,
    )
    dilated = costmod.backbone_cost(spec, costmod.DILATED_MODE, input_hw)
    jpu = costmod.backbone_cost(spec, costmod.STRIDE_JPU_MODE, input_hw, jpu_config=jpu_cfg)
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
    from .jointup import LinearMap

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
    config = exp.MiniBackboneConfig()
    runs = {"bilinear": [], "jpu": []}
    for s in range(args.seeds):
        dataset = exp.synthetic_teacher(args.seed + s, args.samples, config, image_hw=(args.image, args.image))
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
            }
            for i in range(args.seeds)
        ],
    }
    doc["jpu_beats_bilinear"] = doc["mse_jpu_mean"] < doc["mse_bilinear_mean"]
    _emit(doc, args)
    return 0 if doc["jpu_beats_bilinear"] else 1


def cmd_bench(args) -> int:
    config = exp.MiniBackboneConfig(
        stem_channels=16, stages=((1, 24), (1, 32), (1, 48), (1, 64))
    )
    results = {}
    for mode in costmod.MODES:
        results[mode] = exp.bench_forward(
            config, mode, input_hw=tuple(args.input), repeats=args.repeats, seed=args.seed
        )
    doc = {"command": "bench", "repeats": args.repeats, "input_hw": list(args.input), "results": results}
    doc["dilated_slower"] = results[costmod.DILATED_MODE]["mean_ms"] > results[costmod.STRIDE_JPU_MODE]["mean_ms"]
    if args.no_timing:
        for r in doc["results"].values():
            for key in ("mean_ms", "std_ms", "min_ms", "max_ms"):
                r.pop(key, None)
        doc.pop("dilated_slower")
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
    sp.add_argument("--samples", type=int, default=8)
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
