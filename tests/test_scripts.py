"""The capture table that scripts/capture_outputs.py and scripts/unreached_lines.py share."""

import sys
from pathlib import Path

import pytest

from jpulite import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import capture_outputs  # noqa: E402
import unreached_lines  # noqa: E402


@pytest.mark.parametrize("name,args", capture_outputs.CLI)
def test_cli_captures_parse(name, args, tmp_path):
    cli.build_parser().parse_args(capture_outputs.argv(args, str(tmp_path)))


def test_capture_names_are_unique():
    names = [name for name, _ in capture_outputs.CLI] + [f.__name__ for f in capture_outputs.PYTHON]
    assert len(names) == len(set(names)) == 23


def test_unreached_lines_runs_the_cli_table(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(argv) or 0)
    assert unreached_lines.run_commands(str(tmp_path)) == []
    assert len(seen) == 14
    assert seen == [capture_outputs.argv(args, str(tmp_path)) for _, args in capture_outputs.CLI]
    assert [str(tmp_path / "equiv_output.json")] == [a for argv in seen for a in argv if a.endswith(".json")]
