"""Gauss diagrams of virtual knots and 2-component links: writhe-type
invariants, shell moves, snail normal forms, and equivalence decisions."""

from .algebra import LaurentPoly, LinkingClass, gamma_class, parse_poly
from .diagram import (
    GaussDiagram,
    isomorphic,
    parse_gauss_code,
    serialize,
    surgery,
    swap_components,
)
from .equiv import Verdict, bfs_witness, check_consistency, s_equivalent
from .invariants import (
    KnotProfile,
    LinkProfile,
    linking_class,
    linking_data,
    profile,
    writhe_polynomial,
)
from .moves import MoveSite, apply_move, find_move_sites, random_walk
from .normal_form import (
    KnotForm,
    LinkForm,
    build_knot_form,
    build_link_form,
    canonical_form,
    realize_knot,
    realize_link,
)

__version__ = "0.1.0"

__all__ = [
    "GaussDiagram",
    "KnotForm",
    "KnotProfile",
    "LaurentPoly",
    "LinkForm",
    "LinkProfile",
    "LinkingClass",
    "MoveSite",
    "Verdict",
    "apply_move",
    "bfs_witness",
    "build_knot_form",
    "build_link_form",
    "canonical_form",
    "check_consistency",
    "find_move_sites",
    "gamma_class",
    "isomorphic",
    "linking_class",
    "linking_data",
    "parse_gauss_code",
    "parse_poly",
    "profile",
    "random_walk",
    "realize_knot",
    "realize_link",
    "s_equivalent",
    "serialize",
    "surgery",
    "swap_components",
    "writhe_polynomial",
]
