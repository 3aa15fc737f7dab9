"""The unrun-statement lister's statement table, on a fixed source string:
no tracer is set and no test is run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "unrun.py"
_spec = importlib.util.spec_from_file_location("unrun", _PATH)
unrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun)

SOURCE = '''\
"""Module docstring."""
import os
from sys import path

X = 1


@staticmethod
def f(a):
    """Function docstring."""
    if a:
        return 1
    elif a is None:
        "a string after the first statement"
    for _ in range(a):
        pass
    return (a +
            2)


class C:
    """Class docstring."""
    y = 2

    def g(self):
        'a docstring in single quotes'
        try:
            self.y += 1
        except ValueError:
            raise
'''


def test_statement_table_of_a_fixed_source():
    # defs, classes, imports and docstrings are left out; a statement is
    # named by its first line
    assert unrun.statements(SOURCE) == {
        5: "X = 1",
        11: "if a:",
        12: "return 1",
        13: "elif a is None:",
        14: '"a string after the first statement"',
        15: "for _ in range(a):",
        16: "pass",
        17: "return (a +",
        23: "y = 2",
        27: "try:",
        28: "self.y += 1",
        30: "raise",
    }


def test_the_table_covers_the_package_files():
    names = {path.name for path in unrun.SRC.glob("*.py")}
    assert {"cli.py", "equiv.py", "moves.py"} <= names
