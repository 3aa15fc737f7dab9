"""The public API: every name a module exports resolves, and the package's
exports are pinned, so adding or removing a public name is a visible diff."""

import importlib
import pkgutil

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
