"""The capture table that scripts/capture_outputs.py and scripts/unreached_lines.py share,
and the `jpulite` commands of the scripts/run_*.sh wrappers."""

import re
import shlex
import sys
from pathlib import Path

import pytest

from jpulite import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
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


def wrapper_commands(text: str) -> list[list[str]]:
    """The arguments of each `python3 -m jpulite.cli` line of a wrapper script, once per
    value of its `for b in ...; do` loop if the line reads "$b", without "$@"."""
    loop = re.search(r"^\s*for b in ([^;]+); do$", text, re.M)
    commands = []
    for line in text.splitlines():
        _, cli_line, args = line.strip().partition("python3 -m jpulite.cli ")
        if cli_line:
            words = [w for w in shlex.split(args) if w != "$@"]
            values = loop.group(1).split() if "$b" in words else [None]
            commands += [[v if w == "$b" else w for w in words] for v in values]
    return commands


@pytest.mark.parametrize("wrapper, count", [
    ("run_bench.sh", 1), ("run_cost_tables.sh", 2), ("run_equivalence.sh", 2), ("run_train_demo.sh", 1),
])
def test_wrapper_commands_parse(wrapper, count):
    commands = wrapper_commands((SCRIPTS / wrapper).read_text())
    assert len(commands) == count
    for argv in commands:
        assert "$" not in " ".join(argv)
        cli.build_parser().parse_args(argv)


def test_wrapper_commands_reads_each_backbone():
    assert wrapper_commands((SCRIPTS / "run_cost_tables.sh").read_text()) == [
        ["cost", "--backbone", b, "--compare", "--pretty"] for b in ("resnet50", "resnet101")
    ]
