"""List the statements of ``src/shellmoves`` that a pytest run never runs.

    PYTHONPATH=src python tools/unrun.py [PYTEST ARGS...]

Runs pytest in this process, with the given arguments, under
``sys.settrace``, and records the lines that run in
``src/shellmoves/*.py``.  A statement is any statement of the module's
syntax tree other than a def, a class, an import or a docstring; it has
run when its first line has.  Prints ``module.py:line: source`` for each
statement that has not, in file and line order, and exits 1 if it printed
any, else with pytest's own exit code.  Line events differ between Python
versions, so read a list against the version it was made on.
Standard library plus pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shellmoves"
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom)
# the nodes whose body may open with a docstring
_BODIES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source: str) -> dict[int, str]:
    """The first line of each counted statement of ``source``, with its
    text."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _BODIES)
                  and ast.get_docstring(node, clean=False) is not None}
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _SKIP)
            and id(node) not in docstrings}


def main(args: list[str]) -> int:
    files = sorted(SRC.glob("*.py"))
    # read before the run, so the lines named are the lines traced
    tables = {path: statements(path.read_text()) for path in files}
    ran: dict[Path, set[int]] = {path: set() for path in files}
    # each code file name, once resolved, to its line set or None
    lines_of: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = ran.get(Path(name).resolve())
        return local if lines_of[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = [f"{path.name}:{line}: {text}"
               for path in files
               for line, text in sorted(tables[path].items())
               if line not in ran[path]]
    for entry in missing:
        print(entry)
    return 1 if missing else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
