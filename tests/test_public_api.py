"""The public API: every name a module exports resolves, the package's
exports are pinned, so adding or removing a public name is a visible diff,
and the runtime imports nothing outside the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import shellmoves

PUBLIC = """
GaussDiagram KnotForm KnotProfile LaurentPoly LinkForm LinkProfile LinkingClass
MoveSite Verdict apply_move bfs_witness build_knot_form build_link_diagram
build_link_form canonical_form check_consistency encode_snail find_move_sites
gamma_class isomorphic linking_class linking_data parse_gauss_code parse_poly
profile random_walk realize_knot realize_link s_equivalent serialize surgery
swap_components writhe_polynomial
""".split()


@pytest.mark.parametrize("module", ["shellmoves"] + [
    f"shellmoves.{m.name}" for m in pkgutil.iter_modules(shellmoves.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_exports_are_pinned():
    assert shellmoves.__all__ == PUBLIC


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(shellmoves.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for a in node.names}
        names |= {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0}
        top = {name.split(".")[0] for name in names}
        if top - sys.stdlib_module_names:
            foreign[path.name] = sorted(top - sys.stdlib_module_names)
    assert foreign == {}


def test_no_module_imports_another_modules_private_names():
    """A rule two modules need lives behind one of them, so no relative
    import in the package names an underscore symbol."""
    private = {}
    for path in sorted(Path(shellmoves.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level
                 for a in node.names if a.name.startswith("_")]
        if names:
            private[path.name] = names
    assert private == {}


# called only by the benchmark's tracer targets (perfbench/spans.py)
BENCHMARK_ONLY = {"GaussDiagram.arc_sign_sum"}


def test_every_member_has_a_caller_in_the_package():
    """Each module-level function is used as a name, and each method other
    than a dunder as an attribute, somewhere in the package; the exported
    names are the public API and need no caller of their own."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(shellmoves.__file__).parent.glob("*.py"))]
    names = {node.id for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    attrs = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    idle = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in names:
                idle.append(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")
                        and member.name not in attrs):
                    idle.append(f"{node.name}.{member.name}")
    assert [n for n in idle if n not in shellmoves.__all__
            and n not in BENCHMARK_ONLY] == []


# member names that more than one class defines, each with its reason
SHARED_MEMBERS = {
    "fields": "the profiles' shared interface, read by _Profile and equiv",
}


def test_no_member_name_is_defined_twice():
    """A method or property name that two classes, or a class and a module
    function, both define is listed with its reason: the caller check above
    matches by name, so an idle member sharing a called name passes it."""
    owners: dict[str, set[tuple[str, str]]] = {}
    for path in sorted(Path(shellmoves.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                owners.setdefault(node.name, set()).add(("module", path.stem))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")):
                    owners.setdefault(member.name, set()).add(
                        ("class", node.name))
    shared = {name for name, where in owners.items() if len(where) > 1
              and any(kind == "class" for kind, _ in where)}
    assert shared == set(SHARED_MEMBERS)
