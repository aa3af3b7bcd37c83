"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402

import jpulite.experiments  # noqa: E402
from jpulite.tensor import Tensor  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run_cli(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _corrupt_stride_stage(monkeypatch):
    original = jpulite.experiments.stride_stage

    def corrupted(x, sw, *args, **kwargs):
        out = original(x, sw, *args, **kwargs)
        return out._replace(y=Tensor(out.y.data + 1e-6))

    monkeypatch.setattr(jpulite.experiments, "stride_stage", corrupted)


def _corrupt_gradients(monkeypatch):
    original = jpulite.experiments.conv2d_backward

    def ascending(x, w, spec, grad_out):
        gx, gw, gb = original(x, w, spec, grad_out)
        return Tensor(-gx.data), Tensor(-gw.data), None if gb is None else -gb

    monkeypatch.setattr(jpulite.experiments, "conv2d_backward", ascending)


def _corrupt_merge(monkeypatch):
    original = jpulite.decomp.merge_parity

    def corrupted(p):
        out = original(p)
        data = out.data.copy()
        data.flat[0] += 1e-3
        return Tensor(data)

    monkeypatch.setattr(jpulite.decomp, "merge_parity", corrupted)


@pytest.mark.parametrize("workload, corrupt", [
    ("forward_256", _corrupt_stride_stage),
    ("train_64", _corrupt_gradients),
    ("identity_checks", _corrupt_merge),
])
def test_corrupted_output_is_a_failed_operation(monkeypatch, workload, corrupt):
    corrupt(monkeypatch)
    record = run.run_workload(workload, seed=4, seconds=0.2, trace=False)
    result = record["result"]
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert record["info"]["fail_ratio"] == 1.0


def test_without_the_program_exits_nonzero_and_prints_no_result():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_cli(Path(tmp), "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _Sleeper:
    """A fake workload whose ref call takes 20 ms and alt call 10 ms."""

    CALIBRATE_IO = False
    workdir = None

    def run(self, k, timed):
        ref, _ = timed(time.sleep, 0.02)
        alt, _ = timed(time.sleep, 0.01)
        return ref, alt, []


def test_each_call_is_scaled_by_the_calibration_run_before_it(monkeypatch):
    import calibration

    slowness = iter([2.0, 0.5, 4.0, 1.0])
    monkeypatch.setattr(calibration, "slowness", lambda io_dir=None: next(slowness))
    loop = run.Loop(_Sleeper())
    loop.run(0.0)
    loop.run(0.0, first_op=1)
    assert loop.ref_slowness == [2.0, 4.0] and loop.alt_slowness == [0.5, 1.0]
    assert loop.scaled("ref") == [loop.ref_ms[0] / 2.0, loop.ref_ms[1] / 4.0]
    assert loop.scaled("alt") == [loop.alt_ms[0] / 0.5, loop.alt_ms[1] / 1.0]
    assert loop.speed == 1 / 1.5


def test_verdicts():
    parent = {s: 100.0 + s % 5 for s in range(10)}
    assert compare.verdict(parent, {s: v * 0.8 for s, v in parent.items()}, "lower", 0.1) == "improved"
    assert compare.verdict(parent, {s: v * 1.2 for s, v in parent.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(parent, {s: v * 1.01 for s, v in parent.items()}, "lower", 0.1) == "within bound"
    noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(noisy, {s: v * 1.01 for s, v in noisy.items()}, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, {s: v * 0.8 for s, v in parent.items()}, "higher", 0.1) == "worse"
