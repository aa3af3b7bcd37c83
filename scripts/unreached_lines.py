"""List the statements of src/jpulite that no command and no benchmark operation runs.

Under a line tracer (sys.settrace), with BLAS on one thread, this runs
  * the `jpulite` commands of the CLI table of scripts/capture_outputs.py,
    in-process, with stdout suppressed and {out} read as a temporary directory, and
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


def run_commands(outdir: str) -> list[str]:
    """Run the CLI table's commands, {out} read as outdir; return what went wrong."""
    from capture_outputs import CLI, argv
    from jpulite import cli

    problems = []
    for _, args in CLI:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv(args, outdir))
        if code != 0:
            problems.append(f"jpulite {args}: exit {code}")
    return problems


def run_everything() -> list[str]:
    """Run the commands and the workload operations; return what went wrong."""
    with tempfile.TemporaryDirectory(prefix="capture-") as outdir:
        problems = run_commands(outdir)
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
