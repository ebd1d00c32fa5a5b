"""Drilling a simple spine along a subpolyhedron, and hypersurface cutting.

Drilling removes from the spine the open regular neighborhood of a
subcomplex k and adds the neighborhood's frontier.  The spine lives in T'
and k in T or T'.  When the lift of k to T' is full in T' (every point
locus is), both are re-expressed in T'', the first derived subdivision of
T', where the simplicial neighborhood of k's image is a derived, hence
regular, neighborhood of k (Rourke and Sanderson, Introduction to
Piecewise-Linear Topology, Ch. 3).  Otherwise k's image in T'', which is
full there, is drilled the same way one level up, in T'''.  Either
neighborhood is read off the level below by the chain rule
(``core.derived_star``), so a full locus builds no T'' and no drill
builds T'''; only the spine and the locus are re-expressed.  At either
level the frontier of the neighborhood is the link of the locus's image
(proof at ``frontier_of``), so no coface table is built.  Off the
spine's closed 1-skeleton the vertex count is preserved; the count of the
result is recomputed from links (sound for ambient dimension at most 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from plspines.core import (
    Complex,
    Face,
    InvariantViolation,
    derived,
    derived_image,
    derived_star,
    subcomplex_spanned,
)
from plspines.recognize import boundary_complex, is_closed_pseudomanifold
from plspines.spine import SpineComplex
from plspines.strata import classify_all_links, classify_point_link, stratum_components


@dataclass(frozen=True, eq=False)
class DrillLevel:
    """The spine re-expressed in the derived subdivision of ``base``, T' or
    T''; that subdivision itself is not built."""

    base: Complex  # T' or T''
    spine: Complex  # the spine in derived(base)
    types: dict[str, int]  # vertex of spine -> type; {} when ambient dim > 3


def _level(base: Complex, spine: Complex, s: SpineComplex) -> DrillLevel:
    """Re-express ``spine``, a subcomplex of ``base``, in derived(base) and
    check that its link types count the vertices of the spine s."""
    fine = derived(spine).complex
    d = s.ambient.dim
    if d > 3:
        return DrillLevel(base, fine, {})
    types = classify_all_links(fine, d)
    count = sum(1 for t in types.values() if t == 0)
    if count != s.vertex_count:
        raise InvariantViolation(
            f"re-expressed spine has {count} vertices, expected {s.vertex_count}"
        )
    return DrillLevel(base, fine, types)


@dataclass(frozen=True, eq=False)
class DrillContext:
    """Shared towers for drilling one spine repeatedly."""

    spine: SpineComplex  # spine.derived is t -> T'
    level2: DrillLevel  # the spine in T''

    @cached_property
    def level3(self) -> DrillLevel:
        """The spine in T''', over T'' as base, built on the first drill
        along a locus whose lift to T' is not full."""
        return _level(derived(self.level2.base).complex, self.level2.spine, self.spine)


@dataclass(frozen=True, eq=False)
class DrillResult:
    complex: Complex  # drilled polyhedron, in T'' (in T''' for a non-full lift)
    neighborhood: Complex  # R, the regular neighborhood of k
    frontier: Complex
    vertices_before: int
    vertices_after: int | None  # None when types are unknown (ambient dim > 3)


def prepare(s: SpineComplex) -> DrillContext:
    return DrillContext(s, _level(s.derived.complex, s.as_complex(), s))


def _lift_to_prime(ctx: DrillContext, k: Complex) -> Complex:
    t = ctx.spine.ambient
    d1 = ctx.spine.derived
    tp = d1.complex
    if t.has_subcomplex(k):
        return derived_image(d1, k)
    if tp.has_subcomplex(k):
        return k
    raise ValueError(
        "drill locus must be a subcomplex of the triangulation or of its "
        "derived subdivision"
    )


def frontier_of(region: Complex, locus: Complex) -> Complex:
    """Frontier of the star ``region`` of ``locus`` in a derived
    subdivision K' of K: the faces of the star that miss the locus's
    vertices, i.e. the link of the locus.

    The frontier is the set of star faces with a coface in K' outside the
    star.  This equals the link when the locus is the derived image L' of
    a subcomplex L of K that is full in K.  A face meeting L' has only
    cofaces meeting L', all in the star.  A face of K' that contains a
    vertex (w) with w a vertex of K not in L lies outside the star: every
    chain through (w) consists of faces containing w, none in L.  So let f
    be a star face missing L', a chain of faces of K none in L, with least
    element mu.  As f lies in the star, f plus some (sigma) with sigma in
    L is a chain; sigma lies below mu (above it, mu would be in L), so mu
    is not a vertex.  By fullness mu has a vertex w not in L, (w) is a
    proper face of mu, and f plus (w) is a coface of f outside the star.

    ``drill`` uses this with K = T' when the lift of its locus to T' is
    full there (a vertex always is), and otherwise with K = T'' and L the
    lift's image in T'', full as every derived image is: a chain whose
    elements are faces of a subcomplex is a face of its derived image.
    """
    vs = set(locus.vertices)
    return Complex(frozenset(f for f in region.faces if vs.isdisjoint(f)))


def drill(ctx: DrillContext, k: Complex) -> DrillResult:
    """Drill the spine along k: remove the open regular neighborhood of k
    and add its frontier.

    Let kp be the lift of k to T'.  If kp is full in T', the simplicial
    neighborhood of its image in T'' is a derived neighborhood of kp, hence
    a regular neighborhood (Rourke and Sanderson, Ch. 3), with the link of
    the image as frontier (``frontier_of``); the spine and its vertex types
    are read in T''.  Otherwise kp's image in T'' is full in T'', and the
    same construction runs one level up, on the spine re-expressed in T'''
    (built on first use).  The neighborhood is ``derived_star`` of the
    level's base, T' or T'', so neither T'' nor T''' is built for it.
    Regular neighborhoods are unique up to PL homeomorphism fixing the
    locus, so both levels give PL homeomorphic drilled polyhedra, with the
    same vertex count.
    """
    kp = _lift_to_prime(ctx, k)
    if subcomplex_spanned(ctx.spine.derived.complex, kp.vertices) == kp:  # kp is full
        level, base_locus = ctx.level2, kp
    else:
        level, base_locus = ctx.level3, derived(kp).complex
    locus = derived(base_locus).complex
    rn = derived_star(level.base, base_locus.vertices)
    fr = frontier_of(rn, locus)
    faces = frozenset(
        f for f in level.spine.faces if f not in rn.faces
    ) | fr.faces
    result = Complex(faces)
    d = ctx.spine.ambient.dim
    after = None
    if d <= 3:
        outside = sum(
            1
            for v, t in level.types.items()
            if t == 0 and (v,) not in rn.faces
        )
        # links of the frontier vertices in one pass over the drilled faces
        links: dict[str, set[Face]] = {v: set() for v in fr.vertices}
        for f in faces:
            if len(f) > 1:
                for v in f:
                    if v in links:
                        links[v].add(tuple(x for x in f if x != v))
        inside = sum(
            1
            for v in fr.vertices
            if classify_point_link(Complex(frozenset(links[v])), d) == 0
        )
        after = outside + inside
    return DrillResult(
        complex=result,
        neighborhood=rn,
        frontier=fr,
        vertices_before=ctx.spine.vertex_count,
        vertices_after=after,
    )


def eligible_drill_vertices(ctx: DrillContext) -> tuple[str, ...]:
    """Vertices of T' off the spine's closed 1-skeleton and off the boundary:
    drilling there never changes the vertex count (ambient dim >= 3)."""
    s = ctx.spine
    skel: set[str] = set()
    for cell, tp in s.cell_type.items():
        if tp <= 1:
            skel.update(cell)
    bd = boundary_complex(s.ambient)
    bd_vertices = {s.derived.vertex_of_face[f] for f in bd.faces}
    return tuple(
        v
        for v in s.derived.complex.vertices
        if v not in skel and v not in bd_vertices
    )


def sample_drill_points(
    ctx: DrillContext, count: int, seed: int = 0
) -> list[Complex]:
    """Seeded sample of single-vertex drill loci off the 1-skeleton."""
    pool = eligible_drill_vertices(ctx)
    if not pool:
        raise ValueError("no eligible drill vertices")
    rng = random.Random(seed)
    picks = [pool[rng.randrange(len(pool))] for _ in range(count)]
    return [Complex(frozenset({(v,)})) for v in picks]


# -- cutting along a normal hypersurface ---------------------------------------


@dataclass(frozen=True)
class CutReport:
    vertices_before: int
    vertices_after: int
    non_increase_predicted: bool
    non_increase_holds: bool
    result: Complex  # the drilled spine; the spine in T'' for an empty surface


def cut_along_hypersurface(
    ctx: DrillContext, surface: Complex
) -> CutReport:
    """Drill the spine along a closed hypersurface contained in it.

    The surface must be a closed pseudomanifold union of closures of
    top-dimensional stratum components of the spine.  The ambient
    dimension must be 3, where the theorem that the vertex count never
    increases is stated, and the report asserts that theorem.
    """
    s = ctx.spine
    d = s.ambient.dim
    if d != 3:
        raise ValueError(f"hypersurface cutting requires ambient dimension 3, got {d}")
    if surface.is_empty:
        return CutReport(
            s.vertex_count, s.vertex_count, True, True, ctx.level2.spine
        )
    spine_cx = s.as_complex()
    if not spine_cx.has_subcomplex(surface):
        raise ValueError("surface is not a subcomplex of the spine")
    if not is_closed_pseudomanifold(surface):
        raise ValueError("surface is not a closed pseudomanifold")
    # check: union of closures of top stratum components
    top_dim = d - 1
    whole = True
    surf_tops = {f for f in surface.faces if len(f) == top_dim + 1}
    for comp in stratum_components(s):
        if comp.type != top_dim:
            continue
        cells = {c for c in comp.cells if len(c) == top_dim + 1}
        inter = cells & surf_tops
        if inter and inter != cells:
            whole = False
    predicted = whole
    res = drill(ctx, surface)
    after = res.vertices_after
    holds = after <= s.vertex_count
    if predicted and not holds:
        raise InvariantViolation(
            f"cut along a union of 2-components increased the vertex count "
            f"{s.vertex_count} -> {after}"
        )
    return CutReport(s.vertex_count, after, predicted, holds, res.complex)
