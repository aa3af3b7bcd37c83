import json

import pytest

from jpulite import cli
from jpulite.cli import main
from jpulite.jointup import DegenerateProblemError


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


def test_equiv_impossible_tolerance_exits_1(capsys):
    code, out = run_cli(capsys, "equiv", "--cases", "5", "--tolerance", "-1")
    assert code == 1
    assert json.loads(out)["pass"] is False


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


def test_train_divergence_exits_1(capsys):
    code = main(["train-demo", "--seeds", "1", "--steps", "30", "--samples", "4", "--image", "32", "--lr", "1e8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: non-finite loss inf at step 23"]


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
        assert "mean_ms" not in r


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run_cli(capsys, "equiv", "--cases", "3", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)
