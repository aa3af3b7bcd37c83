"""jpulite benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload forward_256 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/` of that
checkout, never from an installed copy. The last line of standard output is
the result, `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0`
the end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics. Lines before it give the environment and the workload's own metric
names. Each run also writes its record (and, when traced, its spans) under
`.perfbench_out/` in the checkout; `perfbench/compare.py` reads those records.

Every operation times two calls, `ref` and `alt` (see workloads.py):
forward_256 dilated / stride+JPU forward, train_64 bilinear / JPU train step,
identity_checks f64 / f32 check case. Before each timed call (and each set-up)
the fixed kernel of calibration.py runs once, and the call's time is divided by
the kernel's slowness (its time over its reference time): this cancels most of
the shared host's changes of speed (see NOTES.md). The unscaled medians are on
the `info` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS threads are pinned below nproc (2 on the reference box) so both commits of a
# comparison run the same thread count; set before numpy is first imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
P90_MIN_OPS = 100

END_TO_END_UNITS = {"ref_ms.p50": "ms", "alt_ms.p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".gmacs", "GMAC"), (".gmac_per_s", "GMAC/s"),
                         (".macs_per_byte", "MAC/B"), (".bytes", "B"), (".mac_mismatches", "count"),
                         (".overhead_pct", "%"), ("ms", "ms")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def environment(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": {k: caches[k] for k in ("L2", "L3") if k in caches},
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checkout's commit read from .git, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Loop:
    """Closed loop with one client: the next operation starts when the previous ends.

    Each timed call is preceded by one run of the calibration kernel; `scaled` gives
    the call's wall time over the slowness that run measured."""

    def __init__(self, workload, tracer=None):
        from calibration import slowness

        self.workload, self.tracer = workload, tracer
        io_dir = workload.workdir if workload.CALIBRATE_IO else None
        self.calibrate = lambda: slowness(io_dir)
        self.ref_ms: list[float] = []
        self.alt_ms: list[float] = []
        self.ref_slowness: list[float] = []
        self.alt_slowness: list[float] = []
        self.slowness: list[float] = []  # every calibration run, kept or not
        self.calibration_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def timed(self, fn, *args):
        t = time.perf_counter()
        self.slowness.append(self.calibrate())
        self.calibration_s += time.perf_counter() - t
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
        return (t1 - t0) * 1e3, out

    def run(self, seconds: float, first_op: int = 0) -> "Loop":
        deadline = time.perf_counter() + seconds
        k = first_op
        while k == first_op or time.perf_counter() < deadline:
            if self.tracer is not None:
                self.tracer.op = k
            self.attempted += 1
            first_cal = len(self.slowness)
            try:
                ref, alt, failures = self.workload.run(k, self.timed)
            except Exception as e:  # a crash in the program is a failed operation, not a dead run
                failures = [f"op {k}: {type(e).__name__}: {e}"]
            else:
                if ref == ref and alt == alt:  # NaN marks a call that raised
                    self.ref_ms.append(ref)
                    self.alt_ms.append(alt)
                    self.ref_slowness.append(self.slowness[first_cal])
                    self.alt_slowness.append(self.slowness[first_cal + 1])
            if failures:
                self.failures.append(f"op {k}: " + "; ".join(failures))
            k += 1
        return self

    def scaled(self, side: str) -> list[float]:
        ms, slow = getattr(self, f"{side}_ms"), getattr(self, f"{side}_slowness")
        return [m / k for m, k in zip(ms, slow)]

    @property
    def op_ms(self) -> list[float]:
        return [r + a for r, a in zip(self.scaled("ref"), self.scaled("alt"))]

    @property
    def speed(self) -> float:
        """1 over the median slowness: above 1 when the machine ran faster than its reference."""
        return 1 / statistics.median(self.slowness)


def set_up(cls, seed: int, workdir: str):
    """Build the workload SETUP_REPEATS times, each with one warm-up operation; return
    the last instance and the median set-up time in seconds, each divided by the
    mean slowness of the calibration runs just before and after it (the warm-up's
    own calibration runs not counted)."""
    from calibration import slowness

    io_dir = workdir if cls.CALIBRATE_IO else None
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        before = slowness(io_dir)
        t0 = time.perf_counter()
        workload = cls(seed, workdir)
        warm_up = Loop(workload).run(0.0)
        elapsed = time.perf_counter() - t0 - warm_up.calibration_s
        times.append(elapsed / ((before + slowness(io_dir)) / 2))
    return workload, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its record; `record["result"]` is the printed result."""
    import workloads
    from tracing import Tracer, check_mac_join, layer_metrics

    cls = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        workload, setup_s = set_up(cls, seed, workdir)
        if not trace:
            loop = Loop(workload).run(seconds)
            attempted, failures = loop.attempted, list(loop.failures)
            metrics = {
                "ref_ms.p50": statistics.median(loop.scaled("ref")) if loop.ref_ms else 0.0,
                "alt_ms.p50": statistics.median(loop.scaled("alt")) if loop.alt_ms else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            spans = None
        else:
            # untraced half first, for the tracing overhead; then the traced half
            plain = Loop(workload).run(seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                loop = Loop(workload, tracer).run(seconds / 2, first_op=plain.attempted)
            finally:
                tracer.uninstall()
            sites, stages = workload.sites()
            metrics = layer_metrics(tracer.spans, loop.attempted, sites, stages)
            mismatches = check_mac_join(tracer)
            metrics["cost.mac_mismatches"] = len(mismatches) + sum(
                "MAC mismatch" in f for f in loop.failures)
            traced, untraced = loop.op_ms, plain.op_ms
            metrics["trace.overhead_pct"] = (
                (statistics.median(traced) / statistics.median(untraced) - 1) * 100
                if traced and untraced else 0.0)
            attempted = plain.attempted + loop.attempted + len(tracer.conv_signatures)
            failures = plain.failures + loop.failures + [f"MAC join: {m}" for m in mismatches]
            units = {k: per_layer_unit(k) for k in metrics}
            spans = tracer.spans
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    # unscaled wall times, and the speed they were scaled by
    info = {"workload": name, "ops": len(loop.ref_ms), "fail_ratio": len(failures) / attempted,
            "speed": loop.speed}
    for side, metric in (("ref", cls.ref_metric), ("alt", cls.alt_metric)):
        values = getattr(loop, f"{side}_ms")
        if values:
            info[f"{metric}.p50"] = statistics.median(values)
            if len(values) >= P90_MIN_OPS:
                info[f"{metric}.p90"] = statistics.quantiles(values, n=10)[8]
    if loop.ref_ms:  # e.g. dilated over stride+JPU; information only, not gated
        info["ref_over_alt.p50"] = statistics.median(loop.ref_ms) / statistics.median(loop.alt_ms)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": environment(seed), "info": info, "failures": failures[:20], "result": result,
            "ref_ms": loop.ref_ms, "alt_ms": loop.alt_ms, "ref_slowness": loop.ref_slowness,
            "alt_slowness": loop.alt_slowness, "spans": spans}


def write_record(record: dict) -> Path:
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{time.time_ns()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans")
    if spans is not None:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with open(results / f"{stem}.spans.json", "w") as f:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans]}, f)
    path = results / f"{stem}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "jpulite" / "__init__.py").is_file():
        print(f"error: no jpulite sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import jpulite

    if Path(jpulite.__file__).resolve().parent != SRC / "jpulite":
        print(f"error: imported jpulite from {jpulite.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("info " + json.dumps(record["info"], sort_keys=True))
    for failure in record["failures"]:
        print("failed " + failure)
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
