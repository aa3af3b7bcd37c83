"""List the statements of src/jpulite that no command and no benchmark operation runs.

Under a line tracer (sys.settrace), with BLAS on one thread, this runs
  * every `cli` command that scripts/capture_outputs.sh runs, in-process,
    with stdout suppressed and `$out` read as a temporary directory, and
  * two operations of each workload in perfbench/workloads.py, which is only
    read (no bytecode is written),
then prints each statement of src/ that never ran as `module:line: text`.
`raise` statements and docstrings are left out: an error path is expected to
stay unreached. Statements are the simple ones (assignments, calls, returns,
...); a compound statement's header is judged by the statements in its body.

    python3 scripts/unreached_lines.py

Exit status 0, or 1 if a command exits nonzero or an operation reports a failure.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import shlex
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jpulite"

_COMPOUND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For, ast.AsyncFor, ast.While,
             ast.With, ast.AsyncWith, ast.Try, ast.Match)
_NO_CODE = (ast.Raise, ast.Global, ast.Nonlocal)


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each simple statement that compiles to code, less docstrings."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(id(first))
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, _COMPOUND + _NO_CODE) and id(node) not in docstrings
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
    )


def cli_commands(outdir: str) -> list[list[str]]:
    """The argument lists of the `capture NAME cli ARGS...` lines of
    capture_outputs.sh and of its `cli ARGS... | ...` pipelines, with `$out` as outdir."""
    commands = []
    for line in (ROOT / "scripts" / "capture_outputs.sh").read_text().splitlines():
        words = line.split()
        if words[:1] == ["capture"] and words[2:3] == ["cli"]:
            argv = shlex.split(line)[3:]
        elif words[:1] == ["cli"]:
            argv = shlex.split(line)[1:]
        else:
            continue
        argv = argv[: argv.index("|")] if "|" in argv else argv
        commands.append([w.replace("$out", outdir) for w in argv])
    return commands


def run_everything() -> list[str]:
    """Run the commands and the workload operations; return what went wrong."""
    from jpulite import cli

    problems = []
    with tempfile.TemporaryDirectory(prefix="capture-") as outdir:
        for argv in cli_commands(outdir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                problems.append(f"jpulite {' '.join(argv)}: exit {code}")

    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def timed(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return (time.perf_counter() - t0) * 1e3, out

    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"{name}-") as workdir:
            workload = cls(0, workdir)
            for k in range(2):
                problems += [f"{name} op {k}: {f}" for f in workload.run(k, timed)[2]]
    return problems


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    executed: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)  # before jpulite is imported, so its module-level statements count
    try:
        problems = run_everything()
    finally:
        sys.settrace(None)

    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, ran = path.read_text().splitlines(), executed[str(path)]
        for first, last in statements(path):
            total += 1
            if not ran.intersection(range(first, last + 1)):
                unreached += 1
                print(f"jpulite.{path.stem}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} of {total} statements never ran", file=sys.stderr)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
