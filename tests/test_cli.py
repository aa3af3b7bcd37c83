import hashlib
import json
import os
import platform
import stat
import subprocess
import sys

import numpy as np
import pytest

from jpulite import cli
from jpulite.cli import main
from jpulite.jointup import DegenerateProblemError
from jpulite.tensor import Rng, Tensor

from test_tensor import short_io


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_equiv_default(capsys):
    code, out = run_cli(capsys, "equiv", "--cases", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 1
    assert set(doc["families"]) == {"dilated_decomp", "stride_reduce", "phase_consistency"}
    assert doc["pass"] is True
    for fam in doc["families"].values():
        assert fam["cases"] == 10
        assert fam["pass"] is True
        assert fam["max_abs_diff"] <= fam["tolerance"]


def test_equiv_case_count_reproducible(capsys):
    _, a = run_cli(capsys, "equiv", "--cases", "5", "--seed", "7")
    _, b = run_cli(capsys, "equiv", "--cases", "5", "--seed", "7")
    assert a == b
    _, c = run_cli(capsys, "equiv", "--cases", "5", "--seed", "8")
    assert a != c


def test_equiv_f32_tolerance(capsys):
    code, out = run_cli(capsys, "equiv", "--cases", "5", "--dtype", "f32")
    doc = json.loads(out)
    assert code == 0
    assert doc["families"]["dilated_decomp"]["tolerance"] == 1e-5


def test_equiv_worst_case_replays(capsys):
    # each family names the seed and index of the first case with its worst diff;
    # redrawing the cases from that seed gives the same diff at that index
    code, out = run_cli(capsys, "equiv", "--cases", "20", "--seed", "2", "--dtype", "f32")
    assert code == 0
    rng = Rng(2)
    diffs = [cli._family_diffs(*cli._random_stage(rng, np.float32)) for _ in range(20)]
    families = json.loads(out)["families"]
    for name, fam in families.items():
        assert fam["worst_seed"] == 2
        column = [d[name] for d in diffs]
        assert fam["worst_case"] == column.index(max(column))
        assert fam["max_abs_diff"] == column[fam["worst_case"]]


def test_equiv_impossible_tolerance_exits_1(capsys):
    # f64 diffs are a few ulps, never all exact zeros, so tolerance 0 cannot be met
    code, out = run_cli(capsys, "equiv", "--cases", "5", "--tolerance", "0")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_equiv_nan_diff_fails(capsys, monkeypatch):
    # one NaN in the second case's decomposed output: that family and the command fail,
    # the case is named as the worst, and the document stays strict JSON
    original, calls = cli.dilated_stage_decomposed, []

    def one_nan(x, sw):
        out = original(x, sw)
        calls.append(None)
        if len(calls) != 2:
            return out
        y = out.y.data.copy()
        y.flat[0] = np.nan
        return out._replace(y=Tensor(y))

    monkeypatch.setattr(cli, "dilated_stage_decomposed", one_nan)
    code, out = run_cli(capsys, "equiv", "--cases", "3")

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    doc = json.loads(out, parse_constant=reject)
    assert code == 1 and doc["pass"] is False
    fam = doc["families"]["dilated_decomp"]
    assert (fam["max_abs_diff"], fam["worst_case"], fam["pass"]) == (None, 1, False)
    assert doc["families"]["stride_reduce"]["pass"] and doc["families"]["phase_consistency"]["pass"]


@pytest.mark.parametrize("tolerance", ["nan", "-1", "-1e-300", "inf", "-inf"])
def test_equiv_malformed_tolerance_exits_2(capsys, tolerance):
    code = main(["equiv", "--cases", "2", f"--tolerance={tolerance}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: --tolerance")


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_equiv_without_cases_exits_2(capsys, cases):
    code = main(["equiv", "--cases", cases])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_cost_compare(capsys):
    code, out = run_cli(capsys, "cost", "--backbone", "resnet101", "--compare", "--input", "512", "512")
    doc = json.loads(out)
    assert code == 0
    ratios = doc["ratios"]
    assert ratios["stages"]["stage3"] == 4.0
    assert ratios["stages"]["stage4"] == 16.0
    assert ratios["total_ratio"] > 0


@pytest.mark.parametrize("hw", [(500, 500), (512, 500), (48, 64)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_cost_rejects_input_not_multiple_of_32(capsys, hw):
    code, out = run_cli(capsys, "cost", "--backbone", "resnet101", "--compare", "--input", *map(str, hw))
    assert code == 2
    assert out == ""


def test_cost_report_additive(capsys):
    code, out = run_cli(capsys, "cost", "--backbone", "resnet50", "--mode", "dilated")
    doc = json.loads(out)
    assert code == 0
    rep = doc["report"]
    assert sum(s["macs"] for s in rep["stage_totals"].values()) == rep["total"]["macs"]


def test_cost_unknown_backbone_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["cost", "--backbone", "vgg"])
    assert e.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_jointup_demo(capsys):
    code, out = run_cli(capsys, "jointup-demo", "--seed", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["recovery_error"] <= 1e-8
    assert doc["pass"] is True


def test_jointup_demo_deterministic(capsys):
    _, a = run_cli(capsys, "jointup-demo", "--seed", "3")
    _, b = run_cli(capsys, "jointup-demo", "--seed", "3")
    assert a == b


def test_train_demo_small(capsys):
    code, out = run_cli(capsys, "train-demo", "--seeds", "1", "--steps", "3", "--samples", "4", "--image", "32")
    doc = json.loads(out)
    assert "mse_bilinear_mean" in doc and "mse_jpu_mean" in doc
    assert len(doc["per_seed"]) == 1


def test_train_demo_deterministic(capsys):
    args = ("train-demo", "--seeds", "1", "--steps", "2", "--samples", "4", "--image", "32")
    _, a = run_cli(capsys, *args)
    _, b = run_cli(capsys, *args)
    assert a == b


def test_train_demo_emits_loss_curves(capsys):
    args = ("train-demo", "--seeds", "2", "--steps", "3", "--samples", "4", "--image", "32")
    _, out = run_cli(capsys, *args)
    for entry in json.loads(out)["per_seed"]:
        for method in ("bilinear", "jpu"):
            curve = entry[f"loss_curve_{method}"]
            assert len(curve) == 3 and all(np.isfinite(curve))
    assert run_cli(capsys, *args)[1] == out


@pytest.mark.parametrize(
    "argv",
    [
        ["--samples", "1"], ["--samples", "0"], ["--steps", "-2"], ["--seeds", "0"],
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "-5"],
    ],
)
def test_train_demo_malformed_input_exits_2(capsys, argv):
    code = main(["train-demo", "--seeds", "1", "--steps", "1", "--samples", "4", "--image", "32", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_train_demo_zero_lr_is_valid(capsys):
    argv = ("train-demo", "--seeds", "1", "--steps", "2", "--samples", "4", "--image", "32", "--lr", "0")
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code in (0, 1) and doc["lr"] == 0.0
    for method in ("bilinear", "jpu"):
        curve = doc["per_seed"][0][f"loss_curve_{method}"]
        assert len(curve) == 2 and curve[0] == curve[1]


def test_train_divergence_exits_1(capsys):
    code = main(["train-demo", "--seeds", "1", "--steps", "30", "--samples", "4", "--image", "32", "--lr", "1e8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: non-finite loss inf at step 23"]


@pytest.mark.parametrize(
    "steps, error",
    # at 6 steps only the last update diverges: every training loss is finite, the held-out one is not
    [("30", "non-finite loss nan at step 6"), ("6", "non-finite held-out loss nan at step 6")],
)
def test_diverging_train_demo_prints_only_its_error_line(steps, error):
    argv = ("--seeds", "1", "--samples", "4", "--image", "32", "--lr", "1e3", "--steps", steps)
    run = run_cli_process("train-demo", *argv, capture_output=True)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.splitlines() == [f"error: {error}"]


_SMALL_RUNS = {
    "equiv": ["--cases", "1"],
    "jointup-demo": [],
    "train-demo": ["--seeds", "1", "--steps", "1", "--samples", "4", "--image", "32"],
    "bench": ["--repeats", "10", "--input", "32", "32"],
}


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_2(capsys, command, seed):
    code = main([command, "--seed", seed, *_SMALL_RUNS[command]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_train_demo_top_seed_exits_2(capsys, monkeypatch):
    # the trainer's seed is --seed + 1000, past the range at the top seed; it is rejected before any teacher is built
    def no_teacher(*args, **kwargs):
        raise AssertionError("a teacher was built before the seeds were checked")

    monkeypatch.setattr(cli.exp, "synthetic_teacher", no_teacher)
    code = main(["train-demo", "--seed", str(2**64 - 1), *_SMALL_RUNS["train-demo"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: seed must be an int in [0, 2**64), got {2**64 - 1 + 1000}"]


def test_train_demo_bad_width_exits_2_before_any_teacher(capsys, monkeypatch):
    def no_teacher(*args, **kwargs):
        raise AssertionError("a teacher was built before the width was checked")

    monkeypatch.setattr(cli.exp, "synthetic_teacher", no_teacher)
    code = main(["train-demo", "--width", "0", *_SMALL_RUNS["train-demo"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: width must be a positive int, got 0"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--samples", "1"], "holdout 1 of 1 samples leaves a training or held-out set empty"),
        (["--steps", "-1"], "steps must be >= 0, got -1"),
        (["--lr", "nan"], "lr must be finite and >= 0, got nan"),
        (["--image", "48"], "input dims must be positive multiples of 32, got (48, 48)"),
    ],
)
def test_train_demo_usage_error_exits_2_before_any_teacher(capsys, monkeypatch, argv, error):
    def no_teacher(*args, **kwargs):
        raise AssertionError("a teacher was built before the usage error was reported")

    monkeypatch.setattr(cli.exp, "synthetic_teacher", no_teacher)
    code = main(["train-demo", *_SMALL_RUNS["train-demo"], *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize("hw", [(-32, 32), (0, 64), (48, 48)], ids=["negative", "zero", "not_a_multiple"])
def test_bench_rejects_its_grid_before_drawing(capsys, monkeypatch, hw):
    def no_draw(*args, **kwargs):
        raise AssertionError("parameters were drawn before the grid was checked")

    monkeypatch.setattr(cli.exp, "init_mini_backbone", no_draw)
    code = main(["bench", "--repeats", "10", "--input", *map(str, hw)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: input dims must be positive multiples of 32, got {hw}"]


def test_degenerate_problem_exits_1(capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateProblemError("singular normal equations")

    monkeypatch.setattr(cli, "solve_joint_upsample", degenerate)
    code = main(["jointup-demo"])
    assert code == 1
    assert capsys.readouterr().err == "error: singular normal equations\n"


def test_bench_no_timing_deterministic(capsys):
    args = ("bench", "--repeats", "10", "--input", "64", "64", "--no-timing")
    code, a = run_cli(capsys, *args)
    _, b = run_cli(capsys, *args)
    assert code == 0
    assert a == b
    doc = json.loads(a)
    for r in doc["results"].values():
        assert not {"mean_ms", "median_ms", "p10_ms", "p90_ms"} & set(r)


def test_bench_records_environment_unless_no_timing(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code, out = run_cli(capsys, "bench", "--repeats", "10", "--input", "64", "64")
    assert code == 0
    env = json.loads(out)["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["cpu_count"] == os.cpu_count()
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    for r in json.loads(out)["results"].values():
        assert isinstance(r["minor_faults"], float) and r["minor_faults"] >= 0
    _, out = run_cli(capsys, "bench", "--repeats", "10", "--input", "64", "64", "--no-timing")
    doc = json.loads(out)
    assert "environment" not in doc
    assert all("minor_faults" not in r for r in doc["results"].values())


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    path.write_text("x" * 100_000)  # a longer file already there leaves none of its bytes
    code, out = run_cli(capsys, "equiv", "--cases", "3", "--output", str(path))
    assert code == 0
    assert path.read_text() == out
    assert json.loads(path.read_text()) == json.loads(out)


@pytest.mark.parametrize("where", ["missing/out.json", "."], ids=["missing_dir", "directory"])
def test_unwritable_output_exits_2_and_prints_nothing(tmp_path, capsys, where):
    code = main(["cost", "--backbone", "resnet50", "--output", str(tmp_path / where)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_output_file_survives_short_writes(tmp_path, capsys):
    whole, cut = tmp_path / "whole.json", tmp_path / "cut.json"
    assert run_cli(capsys, "cost", "--backbone", "resnet50", "--output", str(whole))[0] == 0
    with short_io():
        code, out = run_cli(capsys, "cost", "--backbone", "resnet50", "--output", str(cut))
    assert code == 0
    assert cut.read_bytes() == whole.read_bytes() == out.encode()


@pytest.mark.skipif(not (os.path.exists("/dev/full") and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
                    reason="needs the /dev/full device")
def test_output_to_a_full_device_exits_2_and_prints_nothing(capsys):
    code = main(["cost", "--backbone", "resnet50", "--output", "/dev/full"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output: ") and err.count("\n") == 1
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)  # written in place, never unlinked


def run_cli_process(*argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m jpulite.cli ARGV` in a new process, so that what reaches
    stderr outside `print` (numpy warnings, tracebacks) is seen too."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "jpulite.cli", *argv], env=env, text=True, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "w") as full:
        run = run_cli_process("jointup-demo", stdout=full, stderr=subprocess.PIPE)
    assert run.returncode == 2
    assert run.stderr.startswith("error: cannot write stdout: ") and run.stderr.count("\n") == 1


# sha256 of the `cost` stdout of each preset, input size and report
COST_DIGESTS = {
    ("resnet50", "512", "512", "--compare"): "6ce1eb7ce364abb1758e35abe5d013f83f061c0e3e2ee40edfe9d8c45e49bf3b",
    ("resnet50", "512", "512", "dilated"): "9c609552ff579538cb9ea88d97012ad12af170f1dfbf7bf5a3ed4f82ad8d8504",
    ("resnet50", "512", "512", "jpu"): "8b6af2912b53fe8143a14f97b9d3ad38ad6fb0d86cbdb9005109cf15a052d27f",
    ("resnet50", "96", "2048", "--compare"): "fddf95046aad492a6d82c3b5d20680af68f05d7fd6ea7e481d717c02cb38882e",
    ("resnet50", "96", "2048", "dilated"): "49b196ae3a2935bd78032761542d0d9ccadfeb8eaafdaac9acdeb3e31a2f9930",
    ("resnet50", "96", "2048", "jpu"): "9d096a7bed72c1e5ba40bcb4f4233c4bec15cbb7eabe68630c0eff83b9868c9e",
    ("resnet101", "512", "512", "--compare"): "0b48aeab3193b40880a50a58cf7b03437ff02e3ed79ba937f5ce648b1d24fbb9",
    ("resnet101", "512", "512", "dilated"): "2f9b28ddee28c436347620c4de3bd0017d9858d46f9f369a24db0ef048daacde",
    ("resnet101", "512", "512", "jpu"): "7146114733884fc21738700b36fb896ea38238bd963085237cab7510dfc29e9c",
    ("resnet101", "96", "2048", "--compare"): "e6d8ed8adba987067e91fdbbf319428222d25078e2edd66a6ba416a5fdd0eb87",
    ("resnet101", "96", "2048", "dilated"): "1363b53e6ca477161daf98ae0fd3b47f947beb31f5532b7fbcbbcadcd3186d5a",
    ("resnet101", "96", "2048", "jpu"): "defc6b98d81ea66cf6054cdc9c09e9a12f878e89482fb3d009bed90a99f56554",
}


@pytest.mark.parametrize("backbone, h, w, report", list(COST_DIGESTS), ids="-".join)
def test_cost_output_golden(capsys, backbone, h, w, report):
    flags = ["--compare"] if report == "--compare" else ["--mode", report]
    code, out = run_cli(capsys, "cost", "--backbone", backbone, "--input", h, w, *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COST_DIGESTS[backbone, h, w, report]
