"""Seeded random generators and oracles shared by the test modules.

The oracles are independent constructions the package's own code is
checked against; no module under ``src/`` calls them.
"""

import itertools
import random
from typing import Sequence

import numpy as np

from plspines.core import (
    Complex,
    DerivedComplex,
    Face,
    InvariantViolation,
    SimplicialMap,
    closure_faces,
    connected_components,
    derived,
    derived_image,
    derived_vertex_label,
    face_link,
    from_facets,
    is_connected,
    link,
    proper_subfaces,
    star,
)
from plspines.homology import GF2Matrix
from plspines.nerve import SteinFactorization
from plspines.partitions import VertexPartition
from plspines.recognize import classify_graph, is_pure, ridge_incidence
from plspines.spine import SpineComplex, assign_types, vertex_count
from plspines.strata import (
    LinkClassificationError,
    StratumComponent,
    _cell_point_link,
    classify_all_links,
    classify_point_link,
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


def region_certified(t: Complex, cls) -> bool:
    """The T'' certificate of a class: every region component collapses."""
    from plspines.collapse import collapses_to_point
    from plspines.core import connected_components
    from plspines.spine import region_of_class

    return all(
        collapses_to_point(comp)
        for comp in connected_components(region_of_class(t, frozenset(cls)))
    )


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
    rows, cols = M.shape
    return np.array([[(c >> r) & 1 for c in M.columns] for r in range(rows)],
                    dtype=np.uint8).reshape(rows, cols)


def from_dense(D) -> GF2Matrix:
    """A 0/1 array (or nested lists) as a bit-packed matrix."""
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
    a_vfaces = a.vertex_faces

    assign: dict[str, str] = {}
    used: set[str] = set()

    def ok(v: str) -> bool:
        for f in a_vfaces[v]:
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


def spine_neighborhood(t: Complex, regions) -> Complex:
    """Closure in T'' of the faces outside every region of ``regions``,
    the ``(class, region)`` pairs of ``spine.regions(s)``."""
    t2 = derived(derived(t).complex).complex
    covered = set().union(*(mv.faces for _, mv in regions))
    return Complex(closure_faces(f for f in t2.faces if f not in covered))


def unchecked_spine(t: Complex, p: VertexPartition) -> SpineComplex:
    """The spine of (t, p) by the chain rule, without ``dual_spine``'s
    checks: the partition may split a boundary component of t."""
    dt = derived(t)
    count = vertex_count(t, p)
    types = assign_types(dt, p, count)
    return SpineComplex(t, dt, p, frozenset(types), types, count)


def classify_link_lowdim(s: SpineComplex, cell: Face) -> int:
    """Type of a spine cell read off its barycenter's link."""
    if s.ambient.dim > 3:
        raise LinkClassificationError("link oracle requires ambient dim <= 3")
    if cell not in s.cells:
        raise ValueError(f"{cell} is not a spine cell")
    return classify_point_link(_cell_point_link(cell, s.as_complex()), s.ambient.dim)


def spine_vertex_count_from_links(cx: Complex, ambient_dim: int) -> int:
    """Number of type-0 points of a simple complex of codimension one."""
    if cx.is_empty:
        return 0
    if ambient_dim == 1:
        return len(cx.vertices)
    return sum(1 for t in classify_all_links(cx, ambient_dim).values() if t == 0)


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
    """The oracle for the components of ``nerve.pair_component_poset``: the
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


# -- Stein factorization ----------------------------------------------------


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
