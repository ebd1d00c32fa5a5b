"""Type labels for spine cells, stratum components, and link classification.

A cell of a dual spine is a chain of faces of the triangulation; its type
is d + 1 - m where d is the ambient dimension and m is the number of
partition classes meeting the chain's minimal face.  That rule is derived,
not axiomatic: for ambient dimension at most 3 every cell's type is also
read off its link (three-point / two-point links under a surface, and
K4 / theta / circle links inside a 3-manifold), and the tests check that
the two agree.  ``classify_point_link`` reads a type off a link; ``drill``
counts vertices with it.  ``dual_spine`` fills the types by the rule
through ``assign_types``, which lives in :mod:`plspines.spine` and is
re-exported here.

``cell_components`` is the one kernel for components of a labelled face
poset: on int face ids, one walk over codim-1 subfaces gives each face's
component.  ``stratum_components`` labels the faces of T' by type, or d
off the spine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence

from plspines.core import Complex, Face, _UnionFind, vertex_links
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
    links = vertex_links(cx.faces, cx.vertices)
    return {v: classify_point_link(lk, ambient_dim) for v, lk in links.items()}


# -- stratum components ------------------------------------------------------


@dataclass(frozen=True)
class StratumComponent:
    """Connected piece of the k-stratum; regions appear with k = dim M."""

    id: int
    type: int
    cells: frozenset[Face]


def cell_components(faces: Sequence[Face], label: Sequence[Hashable]) -> list[int]:
    """Components of a complex's faces joined by codim-1 steps between
    faces of equal label, read in one walk over codim-1 subfaces.

    ``faces`` are all faces of a complex in tuple order and ``label[i]``
    labels ``faces[i]``.  Returns each face's component id, ids in
    (label, least face) order.  Face i is id i inside, so the
    ``_UnionFind`` root of a component is its least face.

    Its caller ``stratum_components`` labels the faces of T' apart from
    the spine S: a spine cell by its type, every other face by d.  The
    nerve of a plain pair (t, k) in ``tests/helpers.py`` takes S = k', the
    image of k, labelled 0, and every other face 1.  Inside S each label
    class is joined by codim-1 steps by definition (the strata), or, for
    k', as face inclusion joins it:

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
       vertex.

    5. Both labellings only grow from a face to its cofaces: by 1 a
       subchain of a spine cell has at most the cell's type, every type is
       below d, and by 2 the faces off S, labelled d (or 1), are upward
       closed.  So the components are convex: if s < r < u with s and u
       in one component, every face of a saturated chain from s to u
       through r has their label, and the chain joins r to them.
       ``nerve._prenerve_map`` relies on this.
    """
    fid = {c: i for i, c in enumerate(faces)}
    uf = _UnionFind(fid.values())  # the same int objects, not a second set
    for t, c in enumerate(faces):
        for f in itertools.combinations(c, len(c) - 1):
            if f:
                s = fid[f]
                if label[s] == label[t]:
                    uf.union(s, t)
    del fid
    root = [uf.find(v) for v in range(len(faces))]
    del uf
    reps = sorted((v for v, r in enumerate(root) if r == v), key=lambda v: (label[v], v))
    cid = {r: i for i, r in enumerate(reps)}
    return [cid[r] for r in root]


def stratum_components(s: SpineComplex) -> list[StratumComponent]:
    """Components of equal-type spine cells in (type, least cell) order,
    then the components of the complement of the spine in T' as
    components of type d."""
    d = s.ambient.dim
    faces = sorted(s.derived.complex.faces)
    types = [s.cell_type.get(c, d) for c in faces]
    comp = cell_components(faces, types)
    cells: list[list[Face]] = [[] for _ in range(max(comp) + 1)]
    for c, i in zip(faces, comp):
        cells[i].append(c)
    return [StratumComponent(i, s.cell_type.get(cs[0], d), frozenset(cs)) for i, cs in enumerate(cells)]
