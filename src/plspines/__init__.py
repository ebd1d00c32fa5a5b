"""Combinatorial toolkit for simple spines of PL manifolds.

Builds simple polyhedra dual to triangulations and vertex partitions,
counts their vertices, stratifies them, computes nerves via Stein
factorization, drills along subpolyhedra, enumerates normal discs, and
computes homology over the two-element field.
"""

from plspines.core import (
    Complex,
    DerivedComplex,
    SimplicialMap,
    InvariantViolation,
    from_facets,
    derived,
    derived_map,
    link,
    star,
    face_link,
    join,
    cone,
    suspension,
    regular_neighborhood,
    connected_components,
)
from plspines.partitions import VertexPartition, vertex_partition
from plspines.spine import SpineComplex, dual_spine, verify_spine, regions
from plspines.search import search_min_vertices

__all__ = [
    "Complex",
    "DerivedComplex",
    "SimplicialMap",
    "InvariantViolation",
    "from_facets",
    "derived",
    "derived_map",
    "link",
    "star",
    "face_link",
    "join",
    "cone",
    "suspension",
    "regular_neighborhood",
    "connected_components",
    "VertexPartition",
    "vertex_partition",
    "SpineComplex",
    "dual_spine",
    "verify_spine",
    "regions",
    "search_min_vertices",
]
