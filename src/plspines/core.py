"""Finite abstract simplicial complexes and the basic PL toolkit.

Complexes are immutable: a face is a sorted tuple of string vertex labels
and a complex is a downward-closed family of faces.  Every operation here
is a pure function of its inputs, with all iteration orders fixed by the
canonical face order, so results are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping

Face = tuple[str, ...]


class InvariantViolation(RuntimeError):
    """A fact guaranteed by the theory failed to hold: an implementation bug."""


def canonical_face(vertices: Iterable[str]) -> Face:
    """Sort vertex labels into a canonical face tuple.

    Raises ValueError if a label repeats.
    """
    face = tuple(sorted(vertices))
    for a, b in zip(face, face[1:]):
        if a == b:
            raise ValueError(f"repeated vertex {a!r} in face {face}")
    if not all(isinstance(v, str) for v in face):
        raise ValueError(f"vertex labels must be strings: {face!r}")
    return face


def _face_key(face: Face) -> tuple[int, Face]:
    return (len(face), face)


# -- the face kernel: subfaces, closure -----------------------------------


def proper_subfaces(face: Face) -> Iterator[Face]:
    """Nonempty faces properly contained in face, by size then lexicographic."""
    for r in range(1, len(face)):
        yield from itertools.combinations(face, r)


def closure_faces(faces: Iterable[Face]) -> frozenset[Face]:
    """The given faces together with all their nonempty subfaces."""
    out: set[Face] = set()
    for f in faces:
        for r in range(1, len(f) + 1):
            out.update(itertools.combinations(f, r))
    return frozenset(out)


class Complex:
    """Immutable abstract simplicial complex over string vertex labels.

    The constructor trusts its input: faces must already be canonical
    (sorted, no duplicates) and downward closed.  Use :func:`from_facets`
    to build a complex from arbitrary face data.
    """

    __slots__ = (
        "faces",
        "_hash",
        "_dim",
        "_vertices",
        "_faces_sorted",
        "_cofaces",
        "_vertex_faces",
        "_facets",
    )

    def __init__(self, faces: Iterable[Face]):
        self.faces: frozenset[Face] = (
            faces if isinstance(faces, frozenset) else frozenset(faces)
        )
        self._hash = None
        self._dim = None
        self._vertices = None
        self._faces_sorted = None
        self._cofaces = None
        self._vertex_faces = None
        self._facets = None

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, face) -> bool:
        return face in self.faces

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.faces == other.faces

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.faces)
        return self._hash

    def __repr__(self) -> str:
        return f"Complex({len(self.faces)} faces, dim {self.dim})"

    @property
    def is_empty(self) -> bool:
        return not self.faces

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        if self._dim is None:
            self._dim = max((len(f) for f in self.faces), default=0) - 1
        return self._dim

    @property
    def vertices(self) -> tuple[str, ...]:
        if self._vertices is None:
            self._vertices = tuple(sorted({v for f in self.faces for v in f}))
        return self._vertices

    @property
    def faces_sorted(self) -> tuple[Face, ...]:
        """All faces in canonical order (by dimension, then lexicographic)."""
        if self._faces_sorted is None:
            self._faces_sorted = tuple(sorted(self.faces, key=_face_key))
        return self._faces_sorted

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        return tuple(f for f in self.faces_sorted if len(f) == k + 1)

    @property
    def facets(self) -> tuple[Face, ...]:
        """Inclusion-maximal faces, in canonical order."""
        if self._facets is None:
            cof = self.proper_cofaces
            self._facets = tuple(f for f in self.faces_sorted if not cof[f])
        return self._facets

    @property
    def proper_cofaces(self) -> Mapping[Face, tuple[Face, ...]]:
        """Map face -> all faces properly containing it, canonical order."""
        if self._cofaces is None:
            cof: dict[Face, list[Face]] = {f: [] for f in self.faces}
            for f in self.faces_sorted:
                for s in proper_subfaces(f):
                    cof[s].append(f)
            self._cofaces = {f: tuple(c) for f, c in cof.items()}
        return self._cofaces

    @property
    def vertex_faces(self) -> Mapping[str, tuple[Face, ...]]:
        """Map vertex label -> all faces containing it."""
        if self._vertex_faces is None:
            vf: dict[str, list[Face]] = {v: [] for v in self.vertices}
            for f in self.faces_sorted:
                for v in f:
                    vf[v].append(f)
            self._vertex_faces = {v: tuple(fs) for v, fs in vf.items()}
        return self._vertex_faces

    def has_subcomplex(self, sub: "Complex") -> bool:
        return sub.faces <= self.faces

    def f_vector(self) -> tuple[int, ...]:
        if not self.faces:
            return ()
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)


EMPTY = Complex(frozenset())


def point(label: str = "pt") -> Complex:
    return Complex(frozenset({(label,)}))


def from_facets(facets: Iterable[Iterable[str]]) -> Complex:
    """Downward closure of the given facets.

    Raises ValueError on an empty facet list, an empty facet, or a facet
    with a repeated vertex.
    """
    facet_list = [canonical_face(f) for f in facets]
    if not facet_list:
        raise ValueError("facet list is empty")
    if not all(facet_list):
        raise ValueError("empty facet")
    return Complex(closure_faces(facet_list))


def subcomplex_spanned(cx: Complex, vertices: Iterable[str]) -> Complex:
    """Full subcomplex induced on a vertex subset."""
    vs = set(vertices)
    return Complex(frozenset(f for f in cx.faces if set(f) <= vs))


def closure(cx: Complex, faces: Iterable[Face]) -> Complex:
    """Smallest subcomplex of cx containing the given faces."""
    faces = list(faces)
    missing = {f for f in faces if f not in cx.faces}
    if missing:
        raise ValueError(f"faces not in complex: {sorted(missing)[:3]}")
    return Complex(closure_faces(faces))


# -- simplicial maps ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimplicialMap:
    """Vertex assignment between complexes carrying faces to faces."""

    source: Complex
    target: Complex
    assignment: Mapping[str, str]

    def __post_init__(self):
        missing = [v for v in self.source.vertices if v not in self.assignment]
        if missing:
            raise ValueError(f"assignment misses source vertices {missing[:3]}")
        for f in self.source.faces:
            if self.image(f) not in self.target.faces:
                raise ValueError(f"image of face {f} is not a target face")

    def image(self, face: Face) -> Face:
        return tuple(sorted({self.assignment[v] for v in face}))

    def __repr__(self):
        return f"SimplicialMap({len(self.source)} -> {len(self.target)} faces)"


# -- derived complexes ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class DerivedComplex:
    """Derived complex of a base: one vertex per base face, chains as faces."""

    base: Complex
    complex: Complex
    vertex_of_face: Mapping[Face, str]


def derived_vertex_label(face: Face) -> str:
    return "(" + ",".join(face) + ")"


def derived_labels(faces: Iterable[Face]) -> dict[Face, str]:
    """Face -> its derived vertex label, in the order of ``faces``."""
    label = {f: derived_vertex_label(f) for f in faces}
    if len(set(label.values())) != len(label):
        # only possible when user labels mimic generated ones, e.g. "a,b"
        raise ValueError("vertex labels collide under derived naming")
    return label


def chains(above: Mapping, label: Mapping, least: Iterable) -> list[Face]:
    """Chains of a strict order whose least element is in ``least``, as
    sorted labels; ``above[x]`` lists every element greater than x.  Each
    chain is listed once, upward from its least element."""
    out: list[Face] = []
    for f in least:
        stack: list[tuple[tuple[str, ...], Hashable]] = [((label[f],), f)]
        while stack:
            labs, last = stack.pop()
            out.append(tuple(sorted(labs)))
            for g in above[last]:
                stack.append((labs + (label[g],), g))
    return out


@lru_cache(maxsize=32)
def derived(cx: Complex) -> DerivedComplex:
    """Complex of chains of faces of cx, with deterministic vertex labels."""
    label = derived_labels(cx.faces_sorted)
    dc = Complex(frozenset(chains(cx.proper_cofaces, label, cx.faces_sorted)))
    return DerivedComplex(cx, dc, label)


def derived_star(cx: Complex, vertices: Iterable[str]) -> Complex:
    """star(L', K') for K = cx and L a subcomplex of K with vertex set
    ``vertices``, read off K without building K': the chains of faces of K
    whose least face meets V(L).

    Star in rule: let c lie in a chain d through (l), l in L.  The least
    face of d lies inside l, so it is in L; the least face of c contains
    it, so it meets V(L).  Rule in star: let v be in V(L) and in the least
    face of c.  Then c with (v) added is a chain through the L'-vertex (v),
    so c is in the star.  So the star depends on L only through V(L).

    A coface of a face meeting V(L) meets V(L) too, so every chain walked
    here consists of faces in ``least``, and only those are labelled.
    """
    vf = cx.vertex_faces
    least = {f for v in vertices for f in vf[v]}
    return Complex(frozenset(chains(cx.proper_cofaces, derived_labels(least), least)))


def derived_image(dc: DerivedComplex, sub: Complex) -> Complex:
    """The subcomplex of dc.complex covering the subcomplex sub of the base."""
    if not dc.base.has_subcomplex(sub):
        raise ValueError("sub is not a subcomplex of the base")
    return derived(sub).complex


def derived_map(f: SimplicialMap) -> SimplicialMap:
    """The induced simplicial map between derived complexes."""
    dsrc = derived(f.source)
    dtgt = derived(f.target)
    assignment = {
        dsrc.vertex_of_face[face]: dtgt.vertex_of_face[f.image(face)]
        for face in f.source.faces
    }
    return SimplicialMap(dsrc.complex, dtgt.complex, assignment)


# -- star, link, regular neighborhood ------------------------------------


def star(sub: Complex, amb: Complex) -> Complex:
    """Minimal subcomplex of amb containing all faces that meet sub."""
    if not amb.has_subcomplex(sub):
        raise ValueError("sub is not a subcomplex of the ambient complex")
    vf = amb.vertex_faces
    touched: set[Face] = set()
    for v in sub.vertices:
        touched.update(vf.get(v, ()))
    return Complex(closure_faces(touched))


def link(sub: Complex, amb: Complex) -> Complex:
    """Faces of the star of sub that do not meet sub."""
    st = star(sub, amb)
    vs = set(sub.vertices)
    return Complex(frozenset(f for f in st.faces if not vs.intersection(f)))


def face_link(face: Face, cx: Complex) -> Complex:
    """Classic link of a single face: faces tau with tau * face in cx."""
    if face not in cx.faces:
        raise ValueError(f"{face} is not a face")
    out: set[Face] = set()
    for g in cx.proper_cofaces[face]:
        rest = tuple(v for v in g if v not in face)
        if rest:
            out.add(rest)
    return Complex(frozenset(out))


def vertex_links(faces: Iterable[Face], vertices: Iterable[str]) -> dict[str, Complex]:
    """Link of each given vertex, in the order of ``vertices``, in the
    complex with these faces: one pass over the faces, no coface table."""
    links: dict[str, set[Face]] = {v: set() for v in vertices}
    for f in faces:
        if len(f) > 1:
            for v in f:
                if v in links:
                    links[v].add(tuple(x for x in f if x != v))
    return {v: Complex(frozenset(lk)) for v, lk in links.items()}


def regular_neighborhood(sub: Complex, amb: Complex) -> Complex:
    """Star of the image of sub inside the second derived subdivision of amb.

    The result is a subcomplex of ``derived(derived(amb).complex).complex``,
    read off the first derived subdivision by ``derived_star``.
    """
    if not amb.has_subcomplex(sub):
        raise ValueError("sub is not a subcomplex of the ambient complex")
    d1 = derived(amb)
    return derived_star(d1.complex, [d1.vertex_of_face[f] for f in sub.faces])


# -- join, cone, suspension ----------------------------------------------


def _rename_disjoint(b: Complex, taken: set[str]) -> Complex:
    relabel = {v: v for v in b.vertices}
    while any(relabel[v] in taken for v in b.vertices):
        relabel = {v: relabel[v] + "*" for v in b.vertices}
    if all(relabel[v] == v for v in b.vertices):
        return b
    return Complex(
        frozenset(tuple(sorted(relabel[v] for v in f)) for f in b.faces)
    )


def join(a: Complex, b: Complex) -> Complex:
    """Join of two complexes; b is relabeled if vertex labels clash."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    b = _rename_disjoint(b, set(a.vertices))
    faces = set(a.faces) | set(b.faces)
    for s in a.faces:
        for t in b.faces:
            faces.add(tuple(sorted(s + t)))
    return Complex(frozenset(faces))


def cone(a: Complex, apex: str = "cone") -> Complex:
    return join(a, point(apex))


def suspension(a: Complex) -> Complex:
    return join(a, Complex(frozenset({("sus0",), ("sus1",)})))


# -- connectivity ---------------------------------------------------------


class _UnionFind:
    """Disjoint sets over orderable items; each root is its set's least member."""

    def __init__(self, items: Iterable[Hashable]):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def connected_components(cx: Complex) -> list[Complex]:
    """Connected components, sorted by their smallest vertex label."""
    if cx.is_empty:
        return []
    uf = _UnionFind(cx.vertices)
    for f in cx.faces:
        for v in f[1:]:
            uf.union(f[0], v)
    groups: dict[str, set[Face]] = {}
    for f in cx.faces:
        groups.setdefault(uf.find(f[0]), set()).add(f)
    return [Complex(frozenset(groups[r])) for r in sorted(groups)]


def is_connected(cx: Complex) -> bool:
    return len(connected_components(cx)) == 1
