"""Simple polyhedra dual to a triangulation and a vertex partition.

The dual spine is a subcomplex of the derived triangulation T'.  Cells are
recognized by a closed-form rule on chains: a chain of faces of T is a
spine cell exactly when its minimal face meets at least two partition
classes, and its type is d + 1 minus that number of classes, both read in
one pass over T' by ``assign_types``.  ``dual_spine`` checks the pair once
(T pure of dimension at least 1, the partition respecting its boundary),
so a ``SpineComplex`` is a checked spine and ``verify_spine`` takes it as
is.  The boundary of T that the check computes is kept as ``boundary``,
and every consumer reads it there.  The tests check the rule against the
literal union-of-links construction (``dual_cells_direct`` in
``tests/helpers.py``) and each cell's type against the link of its
barycenter, classified by ``strata``.

A dual spine is a spine when each complement region is a ball (a collar
where it meets the boundary).  A region component is a regular
neighbourhood of a span component of its class, and
``certify_span_component`` certifies it on that span: a component on the
boundary by collapsing onto its part in the boundary, one off it by
collapsing to a point.  Only a stuck span off the boundary is taken to
its region in T''.  Both ``verify_spine`` and ``search`` (one span
component at a time) go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from plspines.collapse import collapses_onto, collapses_to_point
from plspines.core import (
    Complex,
    DerivedComplex,
    Face,
    InvariantViolation,
    connected_components,
    derived,
    regular_neighborhood,
    subcomplex_spanned,
)
from plspines.partitions import VertexPartition
from plspines.recognize import boundary_complex, euler_characteristic, is_closed_manifold, is_pure


@dataclass(frozen=True, eq=False)
class SpineComplex:
    """Checked dual spine (see ``dual_spine``): typed cells of T', vertex
    count, and the boundary of T (empty when T is closed)."""

    ambient: Complex
    derived: DerivedComplex
    partition: VertexPartition
    cells: frozenset[Face]
    cell_type: Mapping[Face, int]
    vertex_count: int
    boundary: Complex

    def as_complex(self) -> Complex:
        return Complex(self.cells)


def assign_types(
    dt: DerivedComplex, p: VertexPartition, vertex_count: int
) -> dict[Face, int]:
    """The spine cells of T' = ``dt.complex`` with their types, in one pass.

    A face of T' is a chain of faces of T.  It is a spine cell exactly when
    its least face meets m >= 2 classes, and then its type is d + 1 - m.
    The classes meeting a face only grow along a chain, so m is the least
    class count over the chain's faces.  Raises InvariantViolation when
    the type-0 cells do not number ``vertex_count``.
    """
    d = dt.base.dim
    meets = {lab: p.classes_meeting(f) for f, lab in dt.vertex_of_face.items()}
    types: dict[Face, int] = {}
    for cell in dt.complex.faces:
        m = min(meets[v] for v in cell)
        if m >= 2:
            types[cell] = d + 1 - m
    count0 = sum(1 for k in types.values() if k == 0)
    if count0 != vertex_count:
        raise InvariantViolation(
            f"type-0 cell count {count0} != vertex count {vertex_count}"
        )
    return types


def check_boundary_respect(t: Complex, p: VertexPartition) -> Complex:
    """The boundary of t, once each of its components' vertices are found
    to lie in one class."""
    bd = boundary_complex(t)
    for comp in connected_components(bd):
        classes = {p.class_of[v] for v in comp.vertices}
        if len(classes) > 1:
            raise ValueError(
                "partition does not respect the boundary: component with "
                f"vertices {comp.vertices[:4]}... meets {len(classes)} classes"
            )
    return bd


def vertex_count(t: Complex, p: VertexPartition) -> int:
    """Top simplexes whose vertices lie in pairwise distinct classes."""
    d = t.dim
    class_of = p.class_of
    return sum(1 for f in t.facets if len({class_of[v] for v in f}) == d + 1)


def dual_spine(t: Complex, p: VertexPartition) -> SpineComplex:
    """Build the spine dual to (t, p) as a subcomplex of T', with the type
    of every cell.

    Requires t pure of dimension at least 1 (in dimension 0 no cell meets
    two classes); when t has boundary the partition must respect it.
    """
    if t.dim < 1:
        raise ValueError(f"dual spines need dimension at least 1, got {t.dim}")
    if not is_pure(t):
        raise ValueError("triangulation is not pure")
    if p.base.faces != t.faces:
        raise ValueError("partition is not over this complex")
    bd = check_boundary_respect(t, p)
    dt = derived(t)
    count = vertex_count(t, p)
    types = assign_types(dt, p, count)
    return SpineComplex(
        ambient=t,
        derived=dt,
        partition=p,
        cells=frozenset(types),
        cell_type=types,
        vertex_count=count,
        boundary=bd,
    )


# -- complement regions ------------------------------------------------------


def region_of_class(t: Complex, cls: frozenset[str]) -> Complex:
    """Regular neighborhood in T'' of the subcomplex spanned by the class."""
    return regular_neighborhood(subcomplex_spanned(t, cls), t)


# -- spine certificate -------------------------------------------------------


@dataclass(frozen=True)
class RegionReport:
    class_index: int
    component_index: int
    kind: str  # "ball" or "collar"
    ok: bool
    faces: int


@dataclass(frozen=True)
class SpineCertificate:
    certificate: str  # "yes", "yes (heuristic)", or "unknown"
    vertices: int
    region_reports: tuple[RegionReport, ...]

    @property
    def is_yes(self) -> bool:
        return self.certificate.startswith("yes")


def certify_region_component(comp: Complex, seed: int = 0) -> tuple[str, bool, int]:
    """Certify one region component in T'' off the boundary: ``(kind, ok,
    faces)``, a ball when it collapses to a point."""
    return "ball", collapses_to_point(comp, seed=seed), len(comp.faces)


def certify_span_component(
    t: Complex, comp: Complex, boundary: Complex, seed: int = 0
) -> tuple[str, bool, int]:
    """Certify the region of the span component ``comp``: ``(kind, ok, faces)``.

    On the boundary of t, let L be the part of K = ``comp`` in it.  L is
    a union of whole boundary components: one that meets K has every
    vertex in K's class (``check_boundary_respect``), so it lies in the
    span, which is full, and being connected it lies in K.  The region
    is a regular neighbourhood of K in t, and it meets the boundary in a
    regular neighbourhood of L there.  If K collapses onto L, the region
    is a regular neighbourhood of L as well (Rourke-Sanderson, Cor. 3.30),
    and a regular neighbourhood of a union of boundary components is a
    collar on them (ibid., Ch. 3).  The region retracts onto K and a collar
    onto L, so Euler characteristics of K and L that differ are an exact
    "no", which ``collapses_onto`` applies first.

    Off the boundary, the region deformation-retracts onto K: an Euler
    characteristic other than 1 is an exact "no", and a collapsible K
    makes it a ball (Whitehead; Rourke-Sanderson, Cor. 3.27).  A stuck span
    is not an exact "no" in dimension 3 (the dunce hat has a 3-ball as a
    regular neighbourhood), so it falls back to
    ``certify_region_component`` on its region in T''.  ``faces`` counts
    K, or that region when the span fell back.
    """
    target = comp.faces & boundary.faces
    if target:
        return "collar", collapses_onto(comp, Complex(target), seed=seed), len(comp.faces)
    if euler_characteristic(comp) != 1:
        return "ball", False, len(comp.faces)
    if collapses_to_point(comp, seed=seed):
        return "ball", True, len(comp.faces)
    return certify_region_component(region_of_class(t, frozenset(comp.vertices)), seed=seed)


def verify_spine(s: SpineComplex, seed: int = 0) -> SpineCertificate:
    """Certify the spine by its complement: one ``certify_span_component``
    report per class and span component.  Balls and collars are sound for
    dimension at most 3 ("yes (heuristic)" above); a failed collapse yields
    "unknown", never "not a spine".  Closed input must pass
    ``is_closed_manifold`` too: in a pseudomanifold a collapsible region
    need not be a ball.  Input with a boundary gets no manifold check.
    """
    t, bd = s.ambient, s.boundary
    reports = tuple(
        RegionReport(ci, ki, *certify_span_component(t, comp, bd, seed=seed))
        for ci, cls in enumerate(s.partition.classes)
        for ki, comp in enumerate(connected_components(subcomplex_spanned(t, cls)))
    )
    ok = all(r.ok for r in reports) and (not bd.is_empty or is_closed_manifold(t))
    cert = ("yes" if t.dim <= 3 else "yes (heuristic)") if ok else "unknown"
    return SpineCertificate(cert, s.vertex_count, reports)
