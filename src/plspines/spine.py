"""Simple polyhedra dual to a triangulation and a vertex partition.

The dual spine is a subcomplex of the derived triangulation T'.  Cells are
recognized by a closed-form rule on chains: a chain of faces of T is a
spine cell exactly when its minimal face meets at least two partition
classes, and its type is d + 1 minus that number of classes.  ``dual_spine``
returns the spine with these types, both read in one pass over T' by
``assign_types``; it is the one construction of the dual
polyhedron, and the local models of :mod:`plspines.models` are built by it
too.  The tests check it against the literal union-of-links construction
(``dual_cells_direct`` in ``tests/helpers.py``) and the types against the
link oracle (:func:`plspines.strata.validate_types_against_links`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from plspines.collapse import collapses_onto, collapses_to_point
from plspines.core import (
    EMPTY,
    Complex,
    DerivedComplex,
    Face,
    InvariantViolation,
    connected_components,
    derived,
    derived_image,
    regular_neighborhood,
    subcomplex_spanned,
)
from plspines.partitions import VertexPartition
from plspines.recognize import boundary_complex, euler_characteristic, is_pure


@dataclass(frozen=True, eq=False)
class SpineComplex:
    """Dual spine: cells of T' with type labels and the vertex count."""

    ambient: Complex
    derived: DerivedComplex
    partition: VertexPartition
    cells: frozenset[Face]
    cell_type: Mapping[Face, int]
    vertex_count: int

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


def check_boundary_respect(t: Complex, p: VertexPartition) -> None:
    """Each boundary component's vertices must lie in one class."""
    bd = boundary_complex(t)
    if bd.is_empty:
        return
    for comp in connected_components(bd):
        classes = {p.class_of[v] for v in comp.vertices}
        if len(classes) > 1:
            raise ValueError(
                "partition does not respect the boundary: component with "
                f"vertices {comp.vertices[:4]}... meets {len(classes)} classes"
            )


def vertex_count(t: Complex, p: VertexPartition) -> int:
    """Top simplexes whose vertices lie in pairwise distinct classes."""
    d = t.dim
    class_of = p.class_of
    return sum(1 for f in t.facets if len({class_of[v] for v in f}) == d + 1)


def dual_spine(
    t: Complex, p: VertexPartition, check_boundary: bool = True
) -> SpineComplex:
    """Build the spine dual to (t, p) as a subcomplex of T', with the type
    of every cell.

    Requires t pure; when t has boundary the partition must respect it.
    """
    if not is_pure(t):
        raise ValueError("triangulation is not pure")
    if p.base.faces != t.faces:
        raise ValueError("partition is not over this complex")
    if check_boundary:
        check_boundary_respect(t, p)
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
    )


# -- complement regions ------------------------------------------------------


def region_of_class(t: Complex, cls: frozenset[str]) -> Complex:
    """Regular neighborhood in T'' of the subcomplex spanned by the class."""
    return regular_neighborhood(subcomplex_spanned(t, cls), t)


def boundary_in_t2(t: Complex) -> Complex:
    """The boundary of t re-expressed in T''; empty when t is closed."""
    bd = boundary_complex(t)
    if bd.is_empty:
        return EMPTY
    return derived(derived_image(derived(t), bd)).complex


def regions(
    t: Complex, p: VertexPartition
) -> tuple[tuple[frozenset[str], Complex], ...]:
    """The ``(class, region)`` pairs of (t, p): each class's region in T'',
    in class order.  Distinct regions share no face: by ``derived_star`` a
    face c of T'' is in a class's region exactly when the least face of T
    in the least T' face of c has its vertices in that class, and a face
    of T has that for at most one class."""
    if not is_pure(t):
        raise ValueError("triangulation is not pure")
    check_boundary_respect(t, p)
    return tuple((cls, region_of_class(t, cls)) for cls in p.classes)


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


def certify_region_component(
    comp: Complex, boundary2: Complex, seed: int = 0
) -> tuple[str, bool, int]:
    """Certify one region component: ``(kind, ok, faces)``, kind ball or collar."""
    target_faces = comp.faces & boundary2.faces
    if target_faces:
        target = Complex(target_faces)
        ok = collapses_onto(comp, target, seed=seed)
        kind = "collar"
    else:
        ok = collapses_to_point(comp, seed=seed)
        kind = "ball"
    return kind, ok, len(comp.faces)


def certify_class(t: Complex, cls: frozenset[str], seed: int = 0) -> bool:
    """Ball certificate for the region of one class of a closed manifold.

    The region is a regular neighborhood of the span of the class, so each
    region component deformation-retracts onto a span component, and it
    is a ball when that span component is collapsible (Whitehead;
    Rourke-Sanderson, Cor. 3.27).  A span component whose Euler
    characteristic is not 1 is an exact "no"; if every span component
    collapses the answer is "yes"; otherwise the regions in T'' are
    certified instead, so no answer is worse than theirs.

    A span that gets stuck (Euler characteristic 1, no free face) is not an
    exact "no" in dimension 3: a contractible 2-complex with no free face,
    such as the dunce hat or Bing's house, can still have a 3-ball as its
    regular neighbourhood, and that region can collapse.  So a stuck span
    falls back to the region rather than answering "no".
    """
    comps = connected_components(subcomplex_spanned(t, cls))
    if any(euler_characteristic(c) != 1 for c in comps):
        return False
    if all(collapses_to_point(c, seed=seed) for c in comps):
        return True
    return all(
        collapses_to_point(comp, seed=seed)
        for comp in connected_components(region_of_class(t, cls))
    )


def verify_spine(t: Complex, p: VertexPartition, seed: int = 0) -> SpineCertificate:
    """Certify that the dual spine is a spine by checking its complement.

    Interior region components must collapse to a point (a ball certificate,
    sound for dimension at most 3); components touching the boundary must
    collapse onto their boundary part (a collar certificate).  A failed
    collapse yields "unknown", never "not a spine".
    """
    bd2 = boundary_in_t2(t)
    reports = []
    all_ok = True
    for ci, (cls, mv) in enumerate(regions(t, p)):
        for ki, comp in enumerate(connected_components(mv)):
            kind, ok, nfaces = certify_region_component(comp, bd2, seed=seed)
            reports.append(RegionReport(ci, ki, kind, ok, nfaces))
            all_ok = all_ok and ok
    if all_ok:
        cert = "yes" if t.dim <= 3 else "yes (heuristic)"
    else:
        cert = "unknown"
    return SpineCertificate(cert, vertex_count(t, p), tuple(reports))
