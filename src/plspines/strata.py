"""Type labels for spine cells, stratum components, and link classification.

A cell of a dual spine is a chain of faces of the triangulation; its type
is d + 1 - m where d is the ambient dimension and m is the number of
partition classes meeting the chain's minimal face.  That rule is derived,
not axiomatic: for ambient dimension at most 3 every cell's type is also
read off its link (three-point / two-point links under a surface, and
K4 / theta / circle links inside a 3-manifold), and the two must agree.
``dual_spine`` fills the types by the rule through ``assign_types``, which
lives in :mod:`plspines.spine` and is re-exported here.

Components are formed once, by ``cell_components``: one union-find over
the faces of T' that joins codim-1 faces with equal labels.  The strata
and the complement of a spine (``stratum_components``) and the two sides
of a plain pair (``nerve.pair_component_poset``) differ only in the label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from plspines.core import (
    Complex,
    Face,
    InvariantViolation,
    _UnionFind,
    face_link,
    join,
    proper_subfaces,
)
from plspines.recognize import classify_graph
from plspines.spine import SpineComplex, assign_types  # noqa: F401  (re-export)


class LinkClassificationError(ValueError):
    """The link at a point is not one of the standard local models."""


_TYPE_OF_LINK = {
    # ambient dim 2 (spines of surfaces)
    2: {"points3": 0, "points2": 1},
    # ambient dim 3 (spines of 3-manifolds)
    3: {"K4": 0, "theta": 1, "circle": 2},
}


def _cell_point_link(cell: Face, spine_cx: Complex) -> Complex:
    """Link of the cell's barycenter inside the spine: bd(cell) * lk(cell).

    The link avoids the cell's vertices, so the join never relabels.
    """
    return join(Complex(frozenset(proper_subfaces(cell))), face_link(cell, spine_cx))


def classify_point_link(link: Complex, ambient_dim: int) -> int:
    """Map a link complex to its type; raises when unrecognized."""
    if ambient_dim == 1:
        if link.is_empty:
            return 0
        raise LinkClassificationError("nonempty link on a 0-dimensional spine")
    table = _TYPE_OF_LINK.get(ambient_dim)
    if table is None:
        raise LinkClassificationError(
            f"link classification implemented only for ambient dim <= 3, got {ambient_dim}"
        )
    kind = classify_graph(link)
    if kind is None or kind not in table:
        raise LinkClassificationError(
            f"not simple here: unrecognized link with f-vector {link.f_vector()}"
        )
    return table[kind]


def classify_all_links(cx: Complex, ambient_dim: int) -> dict[str, int]:
    """Type of every vertex of a simple complex, via link classification."""
    out = {}
    for v in cx.vertices:
        out[v] = classify_point_link(face_link((v,), cx), ambient_dim)
    return out


# -- stratum components ------------------------------------------------------


@dataclass(frozen=True)
class StratumComponent:
    """Connected piece of the k-stratum; regions appear with k = dim M."""

    id: int
    type: int
    cells: frozenset[Face]


def cell_components(
    cx: Complex, label: Mapping[Face, int]
) -> list[tuple[int, frozenset[Face]]]:
    """Components of the faces of cx joined by codim-1 steps between faces
    of equal label, as ``(label, cells)`` pairs in (label, least cell) order.

    Both callers label the faces of T' = cx apart from a subcomplex S:
    ``stratum_components`` labels a spine cell by its type and every other
    face by d; ``nerve.pair_component_poset`` labels k' by 0 and every
    other face by 1.  Inside S each label class is joined by codim-1 steps
    by definition (the strata), or, for k', as face inclusion joins it:

    1. S is a subcomplex.  For the spine: a subchain's least face contains
       the chain's least face, so it meets at least as many classes, and
       a subchain of a spine cell is a spine cell.  k' is a subcomplex by
       construction.
    2. So the complement of S is upward closed: if s < c and s lies off S,
       every face between them lies off S, and s reaches c by codim-1
       steps off S.  Off S, codim-1 steps connect exactly what face
       inclusion connects.
    3. Inside k', a face reaches each of its vertices by codim-1 steps, so
       the components are those that vertex connectivity gives
       (``core.connected_components``).
    4. A component of k' is a subcomplex, so its least cell is (v,) for
       its least vertex v: ordering by least cell is ordering by least
       vertex.  The ``_UnionFind`` root of a component is its least cell.

    This order also fixes the names of Stein's middle vertices: with the
    faces of f's source labelled by f', the i-th component over w is the
    fiber component ``nerve.stein`` names ``w/i``.
    """
    uf = _UnionFind(cx.faces)
    for c in cx.faces:
        if len(c) > 1:
            k = label[c]
            for f in itertools.combinations(c, len(c) - 1):
                if label[f] == k:
                    uf.union(f, c)
    groups: dict[Face, list[Face]] = {}
    for c in cx.faces:
        groups.setdefault(uf.find(c), []).append(c)
    roots = sorted(groups, key=lambda r: (label[r], r))
    return [(label[r], frozenset(groups[r])) for r in roots]


def stratum_components(s: SpineComplex) -> list[StratumComponent]:
    """Components of equal-type spine cells in (type, least cell) order,
    then the components of the complement of the spine in T' as
    components of type d."""
    d = s.ambient.dim
    types = s.cell_type
    tp = s.derived.complex
    comps = cell_components(tp, {c: types.get(c, d) for c in tp.faces})
    return [StratumComponent(i, k, cells) for i, (k, cells) in enumerate(comps)]


def validate_types_against_links(s: SpineComplex) -> int:
    """Check the chain rule against the link oracle on every cell.

    Returns the number of cells checked; raises on any disagreement.
    """
    spine_cx = s.as_complex()
    d = s.ambient.dim
    for cell in sorted(s.cells, key=lambda c: (len(c), c)):
        via_link = classify_point_link(_cell_point_link(cell, spine_cx), d)
        if via_link != s.cell_type[cell]:
            raise InvariantViolation(
                f"type formula gives {s.cell_type[cell]} but link gives "
                f"{via_link} at cell {cell}"
            )
    return len(s.cells)
