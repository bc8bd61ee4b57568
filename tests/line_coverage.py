"""List the lines of src/normortho/*.py that the test suite never runs.

No coverage package is needed.  The script runs ``pytest tests`` in this
process under ``sys.settrace`` and ``threading.settrace``, records the
lines executed in the package's own modules, and compares them with each
module's executable lines (from its code objects' ``co_lines()``).  It
prints every line that never ran and exits 1 if one of them is not in
ALLOWED below.  Run it from anywhere; extra arguments go to pytest:

    python tests/line_coverage.py
    python tests/line_coverage.py -x -k cli

Tracing makes the suite about 4x slower.  pytest's own result is
printed but does not decide the exit code.  This file is not collected
by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "normortho")

# (module file, name of the function holding the line, the line's text
# stripped, or the line before it and the line joined by a newline; None
# matches every line of the module)
ALLOWED = {
    # runs only as `python -m normortho` or `python -m normortho.cli`,
    # which the suite starts in a subprocess
    ("__main__.py", "<module>", None),
    ("cli.py", "main", "sys.exit(run(sys.argv[1:]))"),
    ("cli.py", "<module>", 'if __name__ == "__main__":\nmain()'),
    # backend selection at import: the branch not taken in this process
    # runs only in the suite's subprocesses
    ("kernels.py", "<module>", "from . import _kernels_py as _impl"),
    ("kernels.py", "<module>", "from . import _kernels as _impl  # type: ignore[no-redef]"),
    ("kernels.py", "<module>", "except ImportError:"),
    ("kernels.py", "<module>", "from . import _kernels_py as _impl  # type: ignore[no-redef]"),
    ("kernels.py", "<module>", '_BACKEND = "pure-python"'),
    ("kernels.py", "<module>", '_BACKEND = "compiled"'),
    # a draw of exactly 0 in every coordinate
    ("explorer.py", "_operator_norm", "if x is None:\ncontinue"),
    ("explorer.py", "_operator_norm", "if cand is None:\ncontinue"),
    ("explorer.py", "_search_direction", "if u is None:\ncontinue"),
    # only a defective derivative puts a finite cosine argument outside
    # the roundoff band
    ("geometry.py", "_angle",
     'raise EngineError(f"cosine argument {raw!r} is out of range beyond roundoff")'),
    # every payload is built from the types above it
    ("cli.py", "_jdump", 'raise TypeError(f"cannot render {type(obj).__name__}")'),
    # argparse exits with an int code
    ("cli.py", "run", "if code is None:\nreturn 0"),
}


def executable_lines(path: str) -> dict[int, str]:
    """Line number -> name of the innermost function holding it, for
    every line that carries bytecode in the module at path."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: dict[int, str] = {}
    stack = [code]
    while stack:
        co = stack.pop()
        for _, _, line in co.co_lines():
            if line:  # a module's first instruction is on line 0
                lines[line] = co.co_name
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer limited to the package's files."""
    import pytest

    hits = {os.path.join(PACKAGE, name): set()
            for name in os.listdir(PACKAGE) if name.endswith(".py")}

    def line_tracer(seen):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    local_tracers = {path: line_tracer(seen) for path, seen in hits.items()}

    def tracer(frame, event, arg):
        return local_tracers.get(frame.f_code.co_filename)

    # this process imports the package from src, and so do the suite's
    # subprocesses
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([os.path.join(ROOT, "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv)
    print(f"pytest exit code under tracing: {code}")
    missed = allowed = 0
    for path, seen in sorted(hits.items()):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line, func in sorted(executable_lines(path).items()):
            if line in seen:
                continue
            src = text[line - 1].strip()
            pair = text[line - 2].strip() + "\n" + src
            if {(name, func, None), (name, func, src), (name, func, pair)} & ALLOWED:
                allowed += 1
                continue
            missed += 1
            print(f"src/normortho/{name}:{line}: ({func}) {src}")
    print(f"{missed} missed lines, {allowed} allowed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
