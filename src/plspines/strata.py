"""Type labels for spine cells, stratum components, and link classification.

A cell of a dual spine is a chain of faces of the triangulation; its type
is d + 1 - m where d is the ambient dimension and m is the number of
partition classes meeting the chain's minimal face.  That rule is derived,
not axiomatic: for ambient dimension at most 3 every cell's type is also
read off its link (three-point / two-point links under a surface, and
K4 / theta / circle links inside a 3-manifold), and the two must agree.
``dual_spine`` fills the types by the rule through ``assign_types``, which
lives in :mod:`plspines.spine` and is re-exported here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

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


def _components_of_cells(
    cells: set[Face], neighbors: Callable[[Face], Iterable[Face]]
) -> list[frozenset[Face]]:
    """Group cells, joining each cell to its neighbors that are cells too;
    components come ordered by their least cell."""
    uf = _UnionFind(cells)
    for c in cells:
        for sub in neighbors(c):
            if sub in cells:
                uf.union(sub, c)
    groups: dict[Face, set[Face]] = {}
    for c in cells:
        groups.setdefault(uf.find(c), set()).add(c)
    return [frozenset(groups[r]) for r in sorted(groups)]


def complement_components(cx: Complex, cells: Iterable[Face]) -> list[frozenset[Face]]:
    """Components of the faces of cx outside cells, joined by face inclusion."""
    return _components_of_cells(set(cx.faces).difference(cells), proper_subfaces)


def stratum_components(s: SpineComplex) -> list[StratumComponent]:
    """Connected components of equal-type spine cells, then the complement
    components of T' appended as components of top type d."""
    d = s.ambient.dim
    types = s.cell_type
    out: list[StratumComponent] = []
    spine_cells = set(s.cells)

    def same_type_facets(c: Face):
        return (f for f in itertools.combinations(c, len(c) - 1) if types.get(f) == types[c])

    comps = _components_of_cells(spine_cells, same_type_facets)
    comps.sort(key=lambda cells: (types[min(cells)], min(cells)))
    next_id = 0
    for cells in comps:
        out.append(StratumComponent(next_id, types[min(cells)], cells))
        next_id += 1
    for cells in complement_components(s.derived.complex, spine_cells):
        out.append(StratumComponent(next_id, d, cells))
        next_id += 1
    return out


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
