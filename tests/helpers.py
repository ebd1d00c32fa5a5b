"""Seeded random generators, oracles and theorem checks shared by the
test modules.

The oracles are independent constructions the package's own code is
checked against; the theorem checks assert what the paper proves of the
package's output.  No module under ``src/`` calls either.  Only the
dense GF(2) oracles import numpy, so ``run_cli`` runs where the package's
runtime alone is installed.
"""

from __future__ import annotations

import collections
import io
import itertools
import random
import sys
from dataclasses import dataclass
from typing import Sequence

from plspines.core import (
    EMPTY,
    Complex,
    DerivedComplex,
    Face,
    InvariantViolation,
    SimplicialMap,
    closure,
    closure_faces,
    connected_components,
    derived,
    derived_image,
    derived_vertex_label,
    face_link,
    from_facets,
    is_connected,
    join,
    link,
    proper_subfaces,
    star,
    subcomplex_spanned,
)
from plspines.cli import main
from plspines.collapse import collapses_onto
from plspines.drill import DrillContext, drill
from plspines.homology import (
    GF2Matrix,
    Z2ChainComplex,
    _bits,
    gf2_kernel_basis,
)
from plspines.models import LocalModel, boundary_sphere
from plspines.nerve import (
    ComponentPoset,
    NervePair,
    SteinFactorization,
    component_poset,
    nerve_of_poset,
    order_complex,
)
from plspines.partitions import VertexPartition, vertex_partition
from plspines.recognize import (
    boundary_complex,
    classify_graph,
    euler_characteristic,
    is_closed_pseudomanifold,
    is_pure,
    ridge_incidence,
)
from plspines.spine import (
    SpineComplex,
    assign_types,
    certify_span_component,
    dual_spine,
    region_of_class,
    vertex_count,
)
from plspines.strata import (
    LinkClassificationError,
    StratumComponent,
    cell_components,
    classify_all_links,
    classify_point_link,
    stratum_components,
)


def random_complex(rng: random.Random, max_vertices: int = 8, max_facets: int = 6,
                   max_facet_size: int = 4) -> Complex:
    """A small random complex: a few random facets on a small vertex pool."""
    n = rng.randint(1, max_vertices)
    pool = [f"w{i}" for i in range(n)]
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        k = rng.randint(1, min(max_facet_size, n))
        facets.append(rng.sample(pool, k))
    return from_facets(facets)


def random_pure_complex(rng: random.Random, dim: int, n_vertices: int,
                        n_facets: int) -> Complex:
    """A random pure complex of the given dimension."""
    pool = [f"w{i}" for i in range(n_vertices)]
    facets = set()
    guard = 0
    while len(facets) < n_facets and guard < 50 * n_facets:
        guard += 1
        facets.add(tuple(sorted(rng.sample(pool, dim + 1))))
    return from_facets(sorted(facets))


def random_simplicial_map(rng: random.Random, max_source_faces: int = 40) -> SimplicialMap:
    """A random valid simplicial map: target is generated from the image."""
    while True:
        src = random_complex(rng)
        if len(src) <= max_source_faces:
            break
    m = rng.randint(1, 5)
    labels = [f"z{i}" for i in range(m)]
    assign = {v: rng.choice(labels) for v in src.vertices}
    image_facets = [sorted({assign[v] for v in f}) for f in src.facets]
    tgt = from_facets(image_facets)
    return SimplicialMap(src, tgt, assign)


def random_partition_blocks(rng: random.Random, labels, max_classes: int | None = None):
    """Random set partition of the labels."""
    labels = list(labels)
    k = rng.randint(1, max_classes or len(labels))
    blocks: list[list[str]] = [[] for _ in range(k)]
    for v in labels:
        blocks[rng.randrange(k)].append(v)
    return [b for b in blocks if b]


def set_partitions(items: tuple[str, ...]):
    """All set partitions, in restricted-growth-string order."""
    n = len(items)

    def rec(i: int, blocks: list[list[str]]):
        if i == n:
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def is_pure_by_facets(cx: Complex) -> bool:
    """The purity oracle: every inclusion-maximal face has the top dimension."""
    if cx.is_empty:
        return False
    return all(len(f) == cx.dim + 1 for f in cx.facets)


def certify_class(t: Complex, cls: frozenset[str], seed: int = 0) -> bool:
    """Ball certificate for the region of one class of a closed manifold,
    span component by span component, every Euler characteristic first."""
    comps = connected_components(subcomplex_spanned(t, cls))
    if any(euler_characteristic(c) != 1 for c in comps):
        return False
    return all(certify_span_component(t, c, EMPTY, seed=seed)[1] for c in comps)


def class_first_search(t: Complex, cap: int = 100_000, seed: int = 0) -> tuple[int, tuple, bool]:
    """The search oracle: ``(best_count, canonical_key, proven_exhaustive)``
    from every class through ``certify_class`` and every partition of the
    certified classes, with no bound."""
    verts = t.vertices
    n = len(verts)
    exhaustive = 1 << n <= cap
    bit = {v: 1 << i for i, v in enumerate(verts)}
    facet_masks = [sum(bit[v] for v in f) for f in t.facets]

    # certified classes by their lowest vertex: (mask, labels, marked facets)
    by_low: list[list[tuple[int, tuple[str, ...], int]]] = [[] for _ in range(n)]
    for m in range(1, 1 << n) if exhaustive else (1 << i for i in range(n)):
        labels = tuple(v for v in verts if m & bit[v])
        if certify_class(t, frozenset(labels), seed=seed):
            marked = sum(1 << j for j, fm in enumerate(facet_masks) if (fm & m).bit_count() >= 2)
            by_low[(m & -m).bit_length() - 1].append((m, labels, marked))

    def partitions(rest: int, marked: int, key: tuple):
        # vertices are sorted, so classes come out in canonical order
        if not rest:
            yield len(facet_masks) - marked.bit_count(), key
            return
        for m, labels, k in by_low[(rest & -rest).bit_length() - 1]:
            if m & rest == m:
                yield from partitions(rest ^ m, marked | k, key + (labels,))

    count, key = min(partitions((1 << n) - 1, 0, ()))
    return count, key, exhaustive


def region_certified(t: Complex, cls) -> bool:
    """The T'' certificate of a class: every region component collapses."""
    from plspines.collapse import collapses_to_point
    from plspines.core import connected_components
    from plspines.spine import region_of_class

    return all(
        collapses_to_point(comp)
        for comp in connected_components(region_of_class(t, frozenset(cls)))
    )


def collar_certified_on_region(t: Complex, comp: Complex, seed: int = 0) -> bool:
    """The T'' collar certificate of a span component of t on its boundary:
    the region of ``comp`` collapses onto its faces in the boundary of t,
    re-derived twice."""
    region = region_of_class(t, frozenset(comp.vertices))
    bd2 = derived(derived(boundary_complex(t)).complex).complex
    return collapses_onto(region, Complex(region.faces & bd2.faces), seed=seed)


def boundary_respecting_partition(t: Complex, rng: random.Random) -> VertexPartition:
    """A random partition of t's vertices that puts each boundary component
    in one class: boundary components and interior vertices are dealt to
    a random number of classes."""
    units = [comp.vertices for comp in connected_components(boundary_complex(t))]
    on_boundary = {v for unit in units for v in unit}
    units += [(v,) for v in t.vertices if v not in on_boundary]
    k = rng.randint(1, len(units))
    blocks: list[list[str]] = [[] for _ in range(k)]
    for unit in units:
        blocks[rng.randrange(k)].extend(unit)
    return vertex_partition(t, [b for b in blocks if b])


def product(a: Complex, b: Complex) -> Complex:
    """The staircase triangulation of a x b, vertex (u, w) labelled
    ``u*w``: for each pair of facets, one simplex per monotone lattice path
    through their sorted vertices.  Labels are sorted the same way in every
    facet, so the simplexes of neighbouring facet pairs fit together."""
    facets = []
    for s in a.facets:
        for r in b.facets:
            p, q = len(s) - 1, len(r) - 1
            for ups in itertools.combinations(range(p + q), q):
                i = j = 0
                facet = [f"{s[0]}*{r[0]}"]
                for step in range(p + q):
                    if step in ups:
                        j += 1
                    else:
                        i += 1
                    facet.append(f"{s[i]}*{r[j]}")
                facets.append(facet)
    return from_facets(facets)


def rainbow_top_chain_count(t: Complex, poset) -> int:
    """The oracle for the top nerve simplexes, counted on T''' itself.

    Enumerates top simplexes of T''' directly (full chains of T''-faces) and
    keeps those whose component images form d+1 pairwise distinct faces of
    the pre-nerve; the nerve map is injective there, so this count must equal
    the number of top nerve simplexes.  Uses only the component assignment
    of the ``ComponentPoset``, not the Stein machinery.
    """
    dt = derived(t)
    dtt = derived(dt.complex)
    d3 = derived(dtt.complex)
    d = t.dim
    comp = poset.cell_component
    count = 0
    for face in d3.complex.faces:
        if len(face) != d + 1:
            continue
        images = {
            frozenset(comp[cell] for cell in chain_of(dtt, c2))
            for c2 in chain_of(d3, face)
        }
        if len(images) == d + 1:
            count += 1
    return count


def gf2_row_reduce(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The dense oracle: reduced row echelon form over GF(2); returns
    (R, pivot columns)."""
    import numpy as np

    R = (np.asarray(M, dtype=np.uint8) % 2).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        R[others] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def to_dense(M: GF2Matrix) -> np.ndarray:
    """The bit-packed matrix as a dense 0/1 array."""
    import numpy as np

    rows, cols = M.shape
    return np.array([[(c >> r) & 1 for c in M.columns] for r in range(rows)],
                    dtype=np.uint8).reshape(rows, cols)


def from_dense(D) -> GF2Matrix:
    """A 0/1 array (or nested lists) as a bit-packed matrix."""
    import numpy as np

    D = np.asarray(D, dtype=np.uint8)
    rows, cols = D.shape
    return GF2Matrix(rows, [sum(int(D[r, c]) << r for r in range(rows)) for c in range(cols)])


# -- complexes --------------------------------------------------------------


def validate_complex(cx: Complex) -> None:
    """Check canonical storage and downward closure; raises ValueError."""
    for f in cx.faces:
        if tuple(sorted(set(f))) != f or not f:
            raise ValueError(f"non-canonical face {f!r}")
        for s in proper_subfaces(f):
            if s not in cx.faces:
                raise ValueError(f"missing subface {s} of {f}")


def chain_of(dc: DerivedComplex, dface: Face) -> tuple[Face, ...]:
    """Decode a derived face into its chain of base faces, ascending."""
    face_of = {lab: f for f, lab in dc.vertex_of_face.items()}
    return tuple(sorted((face_of[v] for v in dface), key=len))


def _vertex_signature(cx: Complex) -> dict[str, tuple]:
    sig: dict[str, list[int]] = {v: [0] * (cx.dim + 1) for v in cx.vertices}
    for f in cx.faces:
        for v in f:
            sig[v][len(f) - 1] += 1
    return {v: tuple(s) for v, s in sig.items()}


def isomorphism(a: Complex, b: Complex, max_faces: int = 200) -> dict[str, str] | None:
    """Search for a face-preserving vertex bijection via backtracking.

    Only intended for small complexes; raises ValueError above max_faces.
    """
    if len(a) > max_faces or len(b) > max_faces:
        raise ValueError(f"isomorphism search capped at {max_faces} faces")
    if a.f_vector() != b.f_vector():
        return None
    siga, sigb = _vertex_signature(a), _vertex_signature(b)
    if sorted(siga.values()) != sorted(sigb.values()):
        return None
    by_sig: dict[tuple, list[str]] = {}
    for v, s in sigb.items():
        by_sig.setdefault(s, []).append(v)
    # most constrained vertices first
    order = sorted(a.vertices, key=lambda v: (len(by_sig[siga[v]]), v))
    b_faces = b.faces
    a_cof = a.proper_cofaces

    assign: dict[str, str] = {}
    used: set[str] = set()

    def ok(v: str) -> bool:
        for f in ((v,), *a_cof[(v,)]):
            if all(u in assign for u in f):
                if tuple(sorted(assign[u] for u in f)) not in b_faces:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in by_sig.get(siga[v], ()):
            if w in used:
                continue
            assign[v] = w
            used.add(w)
            if ok(v) and search(i + 1):
                return True
            del assign[v]
            used.discard(w)
        return False

    if search(0):
        inv_faces = {tuple(sorted(assign[u] for u in f)) for f in a.faces}
        if inv_faces != set(b.faces):
            raise InvariantViolation("isomorphism search produced a non-bijection")
        return dict(assign)
    return None


def isomorphic(a: Complex, b: Complex, max_faces: int = 200) -> bool:
    return isomorphism(a, b, max_faces=max_faces) is not None


# -- recognition ------------------------------------------------------------


def is_arc(g: Complex) -> bool:
    """A path with at least one edge."""
    if g.is_empty or g.dim != 1 or not is_connected(g):
        return False
    deg = {v: 0 for v in g.vertices}
    for f in g.faces:
        if len(f) == 2:
            deg[f[0]] += 1
            deg[f[1]] += 1
    ends = sorted(deg.values())
    nedges = sum(1 for f in g.faces if len(f) == 2)
    return (
        nedges == len(g.vertices) - 1
        and ends[0] == 1
        and ends[-1] <= 2
        and sum(1 for d in deg.values() if d == 1) == 2
    )


# -- per-dimension manifold checks, the oracle for is_closed_manifold -------


def is_closed_curve(cx: Complex) -> bool:
    return cx.dim == 1 and is_closed_pseudomanifold(cx)


def is_closed_surface(cx: Complex) -> bool:
    """Every edge in two triangles and every vertex link a single cycle."""
    if cx.dim != 2 or not is_closed_pseudomanifold(cx):
        return False
    return all(classify_graph(face_link((v,), cx)) == "circle" for v in cx.vertices)


def is_closed_3manifold(cx: Complex) -> bool:
    """Pure, two tetrahedra per triangle, and every vertex link a 2-sphere."""
    if cx.dim != 3 or not is_closed_pseudomanifold(cx):
        return False
    for v in cx.vertices:
        lk = face_link((v,), cx)
        if not (is_connected(lk) and euler_characteristic(lk) == 2 and is_closed_surface(lk)):
            return False
    return True


def wedge_of_tetra_boundaries() -> Complex:
    """Two boundaries of the tetrahedron sharing the vertex v0: a closed
    2-pseudomanifold, not a manifold, as the link of v0 is two circles."""
    bd = boundary_sphere(2)
    copy = [[v if v == "v0" else v + "'" for v in f] for f in bd.facets]
    return from_facets(list(bd.facets) + copy)


def is_surface_with_boundary(cx: Complex) -> bool:
    """Every edge in one or two triangles, some in one, and every vertex
    link a cycle or an arc."""
    if cx.dim != 2 or not is_pure(cx):
        return False
    rid = ridge_incidence(cx)
    if any(n not in (1, 2) for n in rid.values()):
        return False
    if not any(n == 1 for n in rid.values()):
        return False
    for v in cx.vertices:
        lk = face_link((v,), cx)
        if not (classify_graph(lk) == "circle" or is_arc(lk)):
            return False
    return True


# -- spines and their strata ------------------------------------------------


def dual_cells_direct(t: Complex, classes: Sequence[frozenset[str]]) -> frozenset[Face]:
    """The literal dual construction, the oracle for the chain rule: per
    top simplex, union the links in its derived subdivision of the faces
    spanned by the partition traces."""
    out: set[Face] = set()
    for sigma in t.facets:
        dsc = derived(from_facets([sigma]))
        for cls in classes:
            trace = sorted(cls.intersection(sigma))
            if not trace:
                continue
            img = derived_image(dsc, from_facets([trace]))
            out |= link(img, dsc.complex).faces
    return frozenset(out)


def regular_neighborhood_direct(sub: Complex, amb: Complex) -> Complex:
    """The oracle for ``core.regular_neighborhood`` and ``core.derived_star``:
    derive amb twice, and take the star of sub's image in the built T''."""
    d1 = derived(amb)
    d2 = derived(d1.complex)
    return star(derived_image(d2, derived_image(d1, sub)), d2.complex)


def regions(s: SpineComplex) -> tuple[tuple[frozenset[str], Complex], ...]:
    """The ``(class, region)`` pairs of the spine's pair: each class's
    region in T'', in class order.  Distinct regions share no face: by
    ``derived_star`` a face c of T'' is in a class's region exactly when
    the least face of T in the least T' face of c has its vertices in that
    class, and a face of T has that for at most one class."""
    return tuple((cls, region_of_class(s.ambient, cls)) for cls in s.partition.classes)


def spine_neighborhood(t: Complex, pairs) -> Complex:
    """Closure in T'' of the faces outside every region of ``pairs``,
    the ``(class, region)`` pairs of ``regions(s)``."""
    t2 = derived(derived(t).complex).complex
    covered = set().union(*(mv.faces for _, mv in pairs))
    return Complex(closure_faces(f for f in t2.faces if f not in covered))


def unchecked_spine(t: Complex, p: VertexPartition) -> SpineComplex:
    """The spine of (t, p) by the chain rule, without ``dual_spine``'s
    checks: the partition may split a boundary component of t."""
    dt = derived(t)
    count = vertex_count(t, p)
    types = assign_types(dt, p, count)
    return SpineComplex(t, dt, p, frozenset(types), types, count, boundary_complex(t))


def _cell_point_link(cell: Face, spine_cx: Complex) -> Complex:
    """Link of the cell's barycenter inside the spine: bd(cell) * lk(cell).

    The link avoids the cell's vertices, so the join never relabels.
    """
    return join(Complex(frozenset(proper_subfaces(cell))), face_link(cell, spine_cx))


def classify_link_lowdim(s: SpineComplex, cell: Face) -> int:
    """Type of a spine cell read off its barycenter's link."""
    if s.ambient.dim > 3:
        raise LinkClassificationError("link oracle requires ambient dim <= 3")
    if cell not in s.cells:
        raise ValueError(f"{cell} is not a spine cell")
    return classify_point_link(_cell_point_link(cell, s.as_complex()), s.ambient.dim)


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


def pi_boundary(n: int, k: int = 0) -> LocalModel:
    """Boundary of the local model: dual of a canonical partition of the
    n-sphere's n+2 vertices (n+1-k singletons, remaining vertices one class)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    amb = boundary_sphere(n)
    verts = list(amb.vertices)
    singles = [[v] for v in verts[: n + 1 - k]]
    rest = verts[n + 1 - k :]
    classes = singles + ([rest] if rest else [])
    part = vertex_partition(amb, classes)
    s = dual_spine(amb, part)
    model = s.as_complex()
    if model.dim != n - 1:
        raise InvariantViolation(
            f"pi_boundary({n},{k}) has dim {model.dim}, expected {n - 1}"
        )
    return LocalModel(s.derived.complex, model, n, k, part)


def spine_vertex_count_from_links(cx: Complex, ambient_dim: int) -> int:
    """Number of type-0 points of a simple complex of codimension one."""
    if cx.is_empty:
        return 0
    if ambient_dim == 1:
        return len(cx.vertices)
    return sum(1 for t in classify_all_links(cx, ambient_dim).values() if t == 0)


def cell_components_bfs(faces: Sequence[Face], label: Sequence) -> list[int]:
    """The oracle for ``strata.cell_components``: breadth-first search from
    each face not yet reached, through codim-1 subfaces and cofaces of the
    same label; components numbered in (label, least face) order."""
    index = {c: i for i, c in enumerate(faces)}
    steps = [(index[f], t) for t, c in enumerate(faces)
             for f in itertools.combinations(c, len(c) - 1) if f]
    nbrs: list[list[int]] = [[] for _ in faces]
    for s, t in steps:
        if label[s] == label[t]:
            nbrs[s].append(t)
            nbrs[t].append(s)
    found: list[list[int]] = []
    comp: list[int] = [-1] * len(faces)
    for v in range(len(faces)):
        if comp[v] < 0:
            comp[v] = len(found)
            queue, members = collections.deque([v]), [v]
            while queue:
                for u in nbrs[queue.popleft()]:
                    if comp[u] < 0:
                        comp[u] = comp[v]
                        queue.append(u)
                        members.append(u)
            found.append(members)
    order = sorted(range(len(found)), key=lambda i: (label[min(found[i])], min(found[i])))
    rank = {i: r for r, i in enumerate(order)}
    return [rank[i] for i in comp]


def _components_of_cells(cells: set[Face], neighbors) -> list[frozenset[Face]]:
    """Group cells, joining each cell to its neighbors that are cells too;
    components come ordered by their least cell."""
    groups: dict[Face, set[Face]] = {c: {c} for c in cells}
    for c in cells:
        for sub in neighbors(c):
            if sub not in cells or groups[sub] is groups[c]:
                continue
            big, small = sorted((groups[sub], groups[c]), key=len, reverse=True)
            big |= small
            for x in small:
                groups[x] = big
    unique = {id(g): frozenset(g) for g in groups.values()}
    return sorted(unique.values(), key=min)


def _complement_components(cx: Complex, cells) -> list[frozenset[Face]]:
    """Components of the faces of cx outside cells, joined by face inclusion."""
    return _components_of_cells(set(cx.faces).difference(cells), proper_subfaces)


def stratum_components_two_rule(s: SpineComplex) -> list[StratumComponent]:
    """The oracle for ``strata.stratum_components``: equal-type spine cells
    joined through their codim-1 faces, in (type, least cell) order, then
    the complement of the spine in T' joined by face inclusion."""
    d = s.ambient.dim
    types = s.cell_type

    def same_type_facets(c: Face):
        return (f for f in itertools.combinations(c, len(c) - 1) if types.get(f) == types[c])

    comps = _components_of_cells(set(s.cells), same_type_facets)
    comps.sort(key=lambda cells: (types[min(cells)], min(cells)))
    typed = [(types[min(cells)], cells) for cells in comps]
    typed += [(d, cells) for cells in _complement_components(s.derived.complex, s.cells)]
    return [StratumComponent(i, k, cells) for i, (k, cells) in enumerate(typed)]


def pair_components_two_rule(t: Complex, k: Complex) -> list[StratumComponent]:
    """The oracle for the components of ``pair_component_poset``: the
    vertex-connected components of k' by least vertex, each typed by its
    dimension, then the complement of k' in T' joined by face inclusion."""
    dt = derived(t)
    kcells = derived_image(dt, k).faces
    typed = [(sub.dim, sub.faces) for sub in connected_components(Complex(kcells))]
    typed += [(t.dim, cells) for cells in _complement_components(dt.complex, kcells)]
    return [StratumComponent(i, k, cells) for i, (k, cells) in enumerate(typed)]


def union_of_spans(t: Complex, p: VertexPartition) -> Complex:
    """The subcomplex of t spanned by each class, taken together."""
    return Complex(frozenset(f for f in t.faces if p.classes_meeting(f) == 1))


# -- Stein factorization and the nerve of a pair ----------------------------


def stein_h_assignment(sf: SteinFactorization) -> dict[str, str]:
    """h of the factorization as labels: derived source vertex -> middle
    vertex, rebuilt from the id vector ``sf.h``."""
    mlabels = sorted(sf.middle.vertices)
    return {derived_vertex_label(s): mlabels[m] for s, m in zip(sorted(sf.source.faces), sf.h)}


def stein_h(sf: SteinFactorization) -> SimplicialMap:
    """h of the factorization, from the derived source (built here) to the
    middle; constructing the map validates it."""
    return SimplicialMap(derived(sf.source).complex, sf.middle, stein_h_assignment(sf))


def stein_g(sf: SteinFactorization) -> SimplicialMap:
    """g of the factorization, from the middle to the derived target (built
    here); constructing the map validates it."""
    return SimplicialMap(sf.middle, derived(sf.target).complex, sf.g_assignment)


def stein_checks(sf: SteinFactorization) -> list[str]:
    """Violations of the two Stein properties; empty list when clean.
    Building h and g validates both as simplicial maps."""
    h = stein_h(sf)
    g = stein_g(sf)
    problems = []
    fibers: dict[str, list[Face]] = {m: [] for m in sf.middle.vertices}
    for face in h.source.faces:
        img = {h.assignment[v] for v in face}
        if len(img) == 1:
            fibers[img.pop()].append(face)
    for m, faces in fibers.items():
        sub = Complex(frozenset(faces))
        if sub.is_empty or len(connected_components(sub)) != 1:
            problems.append(f"fiber over {m} is not connected")
    for face in sf.middle.faces:
        if len(g.image(face)) != len(face):
            problems.append(f"g collapses the face {face}")
    return problems


def prenerve_simplicial_map(t: Complex, poset: ComponentPoset) -> SimplicialMap:
    """The pre-nerve map as a validated ``SimplicialMap`` T'' -> pre-nerve,
    with T'' built: the input of the Stein oracle, and the map that
    ``nerve._prenerve_map`` keeps on T' incidences without building T''."""
    dt = derived(t)
    dtt = derived(dt.complex)
    assign = {dtt.vertex_of_face[cell]: poset.cell_component[cell] for cell in dt.complex.faces}
    return SimplicialMap(dtt.complex, order_complex(poset), assign)


def pair_component_poset(t: Complex, k: Complex) -> ComponentPoset:
    """Components of a plain pair (t, k): connected components of k and of
    its complement.  Valid when each connected component of k is a single
    stratum (points, circles, closed submanifold pieces)."""
    if not t.has_subcomplex(k):
        raise ValueError("k is not a subcomplex of t")
    dt = derived(t)
    kcells = derived_image(dt, k).faces
    faces = sorted(dt.complex.faces)
    comp = cell_components(faces, [int(c not in kcells) for c in faces])
    cells: list[list[Face]] = [[] for _ in range(max(comp) + 1)]
    for c, i in zip(faces, comp):
        cells[i].append(c)
    return component_poset([
        StratumComponent(i, t.dim if cs[0] not in kcells else max(map(len, cs)) - 1, frozenset(cs))
        for i, cs in enumerate(cells)
    ])


def nerve_of_pair(t: Complex, k: Complex) -> NervePair:
    """The nerve of a plain pair (t, k); see ``pair_component_poset``."""
    return nerve_of_poset(t, pair_component_poset(t, k))


# -- hypersurfaces in simple polyhedra ----------------------------------------


def top_cycle_supports(cx: Complex) -> list[frozenset[Face]]:
    """Supports of all top-dimensional homology classes, zero class included.

    In the top dimension there are no boundaries, so classes are exactly the
    kernel vectors of the top boundary matrix.
    """
    if cx.is_empty:
        return [frozenset()]
    ch = Z2ChainComplex(cx)
    top = cx.dim
    basis = gf2_kernel_basis(ch.boundaries[top])
    faces = ch.bases[top]
    supports = []
    for picks in itertools.product((False, True), repeat=len(basis)):
        vec = 0
        for pick, v in zip(picks, basis):
            if pick:
                vec ^= v
        supports.append(frozenset(faces[i] for i in _bits(vec)))
    return sorted(set(supports), key=lambda s: (len(s), sorted(s)))


def hypersurface_from_class(
    cx: Complex, cycle: "frozenset[Face] | set[Face] | list[Face]"
) -> Complex:
    """The subcomplex representing a top-dimensional mod-2 class.

    The class is given by the set of top cells it supports; the result is
    their closure.  The support must be a closed hypersurface: each
    codimension-1 face of it in exactly two top cells, with the
    dimension-appropriate manifold check on top.  Failures report the
    offending face.
    """
    support = frozenset(cycle)
    if not support:
        return Complex(frozenset())
    top = cx.dim
    if any(len(f) != top + 1 for f in support):
        raise ValueError("cycle support must consist of top-dimensional cells")
    sub = closure(cx, support)
    rid = ridge_incidence(sub)
    bad = sorted(s for s, n in rid.items() if n != 2)
    if bad:
        raise ValueError(
            f"support is not a closed hypersurface: face {bad[0]} lies in "
            f"{rid[bad[0]]} top cells"
        )
    if sub.dim == 1 and not is_closed_curve(sub):
        raise ValueError("support fails the closed-curve link check")
    if sub.dim == 2 and not is_closed_surface(sub):
        for v in sub.vertices:
            if classify_graph(face_link((v,), sub)) != "circle":
                raise ValueError(f"support fails the surface link check at {v}")
        raise ValueError("support fails the closed-surface check")
    return sub


def disc_boundary(nd: LocalModel) -> Complex:
    """Trace of a normal disc on the boundary sphere of its simplex:
    the faces whose chains avoid the top simplex."""
    amb = nd.partition.base
    top = amb.facets[0]
    d = derived(amb)
    top_vertex = d.vertex_of_face[top]
    return Complex(
        frozenset(f for f in nd.model.faces if top_vertex not in f)
    )


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


# -- the command line ------------------------------------------------------


def run_cli(args, stdin: str | None = None) -> tuple[int, str, str]:
    """Run ``plspines <args>`` in this process, with ``stdin`` (default
    empty) on standard input; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, err
    try:
        main(list(args))
        code = 0
    except SystemExit as e:
        code = e.code or 0
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()
