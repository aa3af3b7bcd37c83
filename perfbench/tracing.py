"""Recording wrappers around jpulite's public functions, for the traced run.

Only the traced process installs them. `Tracer.install` replaces every public
function of the traced modules with a wrapper, in every `jpulite` module
namespace that holds it, so calls between modules are recorded too. A call
made while the tracer is active becomes a span `[name, start, end, parent,
op, info]`; spans stay in memory until the run ends. `layer_metrics` turns
them into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

from jpulite import conv, cost

TRACED_MODULES = ("conv", "decomp", "jpu", "tensor", "jointup", "cost", "experiments")

JT_HEADER_BYTES = 4 + 17  # magic, then dtype code and four u32 dims


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.active = False
        # one (input, weights, spec) per distinct conv2d call signature, for the MAC join
        self.conv_signatures: dict[tuple, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._describe = {
            "conv.conv2d": self._describe_conv2d,
            "conv.conv2d_backward": lambda a, k, r: (
                _arg(a, k, 2, "spec"), _arg(a, k, 0, "x").shape, _arg(a, k, 0, "x").dtype.itemsize, None),
            "decomp.dilated_stage": lambda a, k, r: id(_arg(a, k, 1, "sw").head),
            "decomp.stride_stage": lambda a, k, r: id(_arg(a, k, 1, "sw").head),
            "experiments.mini_backbone_forward": lambda a, k, r: _arg(a, k, 3, "mode"),
            "tensor.save_jt": lambda a, k, r: JT_HEADER_BYTES + _arg(a, k, 1, "x").data.nbytes,
            "tensor.load_jt": lambda a, k, r: JT_HEADER_BYTES + r.data.nbytes,
        }

    def _describe_conv2d(self, args, kwargs, result):
        x, w, spec = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w"), _arg(args, kwargs, 2, "spec")
        key = (spec, x.shape, x.dtype.str)
        if key not in self.conv_signatures:
            self.conv_signatures[key] = (x, w, spec)
        return (spec, x.shape, x.dtype.itemsize, id(w))

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"jpulite.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "jpulite" and not modname.startswith("jpulite."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        describe = self._describe.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if describe is not None:
                span[5] = describe(args, kwargs, result)
            return result

        return wrapper


def conv_macs(spec, x_shape) -> int:
    """Analytic MACs of one conv2d call: the cost model's per-image count times the batch."""
    return cost.conv_cost_from_spec(spec, x_shape[2:]).macs * x_shape[0]


def check_mac_join(tracer: Tracer) -> list[str]:
    """Run each distinct conv2d call signature once with count_macs=True; list every
    signature whose instrumented count differs from the analytic one. Call after
    `uninstall`, so that these calls are not traced."""
    mismatches = []
    for (spec, shape, dtype), (x, w, _) in tracer.conv_signatures.items():
        _, counted = conv.conv2d(x, w, spec, count_macs=True)
        analytic = conv_macs(spec, shape)
        if counted != analytic:
            mismatches.append(f"{spec} on {shape} {dtype}: counted {counted}, analytic {analytic}")
    return mismatches


def _conv_kind(spec) -> str:
    if spec.groups == spec.in_channels == spec.out_channels and spec.groups > 1:
        return "depthwise"
    return "dilated" if max(spec.dilation) > 1 else "dense"


def layer_metrics(spans, n_ops: int, sites: dict, stages: dict) -> dict[str, float]:
    """Per-layer metrics, per operation, from recorded spans.

    `sites` maps id(ConvWeights) to a conv call-site name ("stem",
    "stage4.body0", "jpu.fusion", ...); backbone sites get the wiring of the
    enclosing mini_backbone_forward as prefix. `stages` maps id(head weights)
    to a stage name. Times are self times unless the name says total.
    """
    n = len(spans)
    child = [0.0] * n
    wiring: list[str | None] = [None] * n
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            wiring[i] = wiring[parent]
        if name == "experiments.mini_backbone_forward":
            wiring[i] = "dilated" if info.startswith("dilated") else "stride"

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    m: dict[str, float] = {}

    def add(d, key, v):
        d[key] = d.get(key, 0.0) + v

    conv_macs_total = conv_bytes = back_macs = 0
    site_ms: dict[str, float] = {}
    site_macs: dict[str, int] = {}
    for i, (name, t0, t1, _, _, info) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        add(total, name, dur)
        add(self_s, name, own)
        calls[name] = calls.get(name, 0) + 1
        if name == "conv.conv2d":
            spec, shape, itemsize, wid = info
            macs = conv_macs(spec, shape)
            conv_macs_total += macs
            oh, ow = spec.out_hw(shape[2:])
            # computed compulsory traffic: input, output, weights and bias, each moved once
            o, cg, kh, kw = spec.weight_shape
            elems = shape[0] * (shape[1] * shape[2] * shape[3] + o * oh * ow) + o * cg * kh * kw + o
            conv_bytes += itemsize * elems
            add(self_s, f"conv.conv2d.{_conv_kind(spec)}", own)
            site = sites.get(wid)
            if site is not None:
                if not site.startswith("jpu."):
                    site = f"{wiring[i]}.{site}"
                add(site_ms, site, own)
                site_macs[site] = site_macs.get(site, 0) + macs
        elif name == "conv.conv2d_backward":
            spec, shape, _, _ = info
            back_macs += 2 * conv_macs(spec, shape)  # input gradient plus weight gradient
        elif name == "experiments.mini_backbone_forward":
            add(total, f"{name}.{wiring[i]}", dur)
        elif name in ("decomp.dilated_stage", "decomp.stride_stage") and info in stages:
            add(total, f"{name}.{stages[info]}", dur)

    ops = max(n_ops, 1)

    def per_op_ms(d, key):
        return d.get(key, 0.0) * 1e3 / ops

    def rate(macs, secs):
        return macs / secs / 1e9 if secs > 0 else 0.0

    m["conv.conv2d.calls"] = calls.get("conv.conv2d", 0) / ops
    m["conv.conv2d.self_ms"] = per_op_ms(self_s, "conv.conv2d")
    m["conv.conv2d.gmacs"] = conv_macs_total / 1e9 / ops
    m["conv.conv2d.gmac_per_s"] = rate(conv_macs_total, self_s.get("conv.conv2d", 0.0))
    m["conv.conv2d.macs_per_byte"] = conv_macs_total / conv_bytes if conv_bytes else 0.0
    for kind in ("dense", "dilated", "depthwise"):
        m[f"conv.conv2d.{kind}.self_ms"] = per_op_ms(self_s, f"conv.conv2d.{kind}")
    m["conv.conv2d_backward.calls"] = calls.get("conv.conv2d_backward", 0) / ops
    m["conv.conv2d_backward.self_ms"] = per_op_ms(self_s, "conv.conv2d_backward")
    m["conv.conv2d_backward.gmac_per_s"] = rate(back_macs, self_s.get("conv.conv2d_backward", 0.0))
    m["conv.relu.self_ms"] = per_op_ms(self_s, "conv.relu")
    m["conv.relu_backward.self_ms"] = per_op_ms(self_s, "conv.relu_backward")
    for site in SITE_NAMES:
        m[f"conv.site.{site}.ms"] = per_op_ms(site_ms, site)
        m[f"conv.site.{site}.gmac_per_s"] = rate(site_macs.get(site, 0), site_ms.get(site, 0.0))
    for fn in ("dilated_stage", "stride_stage", "dilated_stage_decomposed"):
        m[f"decomp.{fn}.total_ms"] = per_op_ms(total, f"decomp.{fn}")
    for fn, stage in STAGE_ROWS:
        m[f"decomp.{fn}.{stage}.total_ms"] = per_op_ms(total, f"decomp.{fn}.{stage}")
    m["decomp.split_merge.self_ms"] = sum(
        per_op_ms(self_s, f"decomp.{fn}") for fn in ("split_parity", "merge_parity", "reduce_even"))
    for fn in ("jpu_forward", "jpu_backward"):
        m[f"jpu.{fn}.total_ms"] = per_op_ms(total, f"jpu.{fn}")
        m[f"jpu.{fn}.self_ms"] = per_op_ms(self_s, f"jpu.{fn}")
    m["jpu.checkpoint.ms"] = per_op_ms(total, "jpu.save_jpu_params") + per_op_ms(total, "jpu.load_jpu_params")
    for fn in ("train_approximator", "mini_backbone_forward"):
        m[f"experiments.{fn}.self_ms"] = per_op_ms(self_s, f"experiments.{fn}")
    for w in ("dilated", "stride"):
        m[f"experiments.mini_backbone_forward.{w}.total_ms"] = per_op_ms(
            total, f"experiments.mini_backbone_forward.{w}")
    for fn in ("bilinear_resize", "bilinear_resize_backward", "concat_channels"):
        m[f"tensor.{fn}.self_ms"] = per_op_ms(self_s, f"tensor.{fn}")
    for fn in ("save_jt", "load_jt"):
        m[f"tensor.{fn}.ms"] = per_op_ms(total, f"tensor.{fn}")
        m[f"tensor.{fn}.bytes"] = sum(s[5] for s in spans if s[0] == f"tensor.{fn}") / ops
    m["jointup.solve_joint_upsample.self_ms"] = per_op_ms(self_s, "jointup.solve_joint_upsample")
    m["cost.conv_cost_from_spec.self_ms"] = per_op_ms(self_s, "cost.conv_cost_from_spec")
    return m


# Conv call sites of the forward_256 network, named as the workload names its weights.
BACKBONE_SITES = ("stem",) + tuple(f"stage{s}.{p}" for s in (2, 3, 4, 5) for p in ("head", "body0"))
JPU_SITES = (
    tuple(f"jpu.level{i}" for i in range(3))
    + tuple(f"jpu.branch{i}.{p}" for i in range(4) for p in ("depthwise", "pointwise"))
    + ("jpu.fusion",)
)
STAGE_ROWS = (
    ("dilated_stage", "stage4"), ("dilated_stage", "stage5"),
    ("stride_stage", "stage2"), ("stride_stage", "stage3"), ("stride_stage", "stage4"), ("stride_stage", "stage5"),
)
SITE_NAMES = tuple(f"{w}.{s}" for w in ("dilated", "stride") for s in BACKBONE_SITES) + JPU_SITES
