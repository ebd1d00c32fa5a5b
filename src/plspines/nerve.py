"""Pre-nerve, Stein factorization, and the nerve of a pair.

Components of a pair (M, Y) are given as a partition of the cells of T'
(strata of a dual spine plus its complement components, or the components
of a plain subcomplex and of its complement).  The pre-nerve is the order
complex of the component poset under closure inclusion.  The pre-nerve map
sends each barycenter of a T'-face, i.e. each vertex of T'', to the
component holding that face's interior; the nerve is the Stein middle of
the derived map T''' -> (pre-nerve)'.  Stein runs on the face poset of the
source, T'' here: the vertices of T''' are the faces of T'' and its faces
are their chains, so fibers and middle are read off T'' and T''' is not
built (proofs at ``stein``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from plspines.core import (
    Complex,
    Face,
    InvariantViolation,
    SimplicialMap,
    _UnionFind,
    closure_faces,
    connected_components,
    derived,
    derived_image,
    derived_labels,
)
from plspines.partitions import VertexPartition
from plspines.spine import SpineComplex, dual_spine
from plspines.strata import (
    StratumComponent,
    assign_types,
    complement_components,
    stratum_components,
)


# -- Stein factorization -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SteinFactorization:
    """f' = g o h with h having connected fibers and g finite-to-one.

    ``h`` is validated against the derived source, which it builds, on
    first access; ``h_assignment`` is the same vertex map without it.
    """

    source: Complex  # source of f; h starts at its derived complex
    h_assignment: Mapping[str, str]
    g: SimplicialMap
    middle: Complex

    @cached_property
    def h(self) -> SimplicialMap:
        src = derived(self.source).complex
        return SimplicialMap(src, self.middle, self.h_assignment)


def stein(f: SimplicialMap) -> SteinFactorization:
    """Stein factorization of the derived map f' of f, read off the face
    poset of the source without building its derived complex.

    The vertices of the derived source are the faces s of the source,
    labelled ``derived_vertex_label(s)``, its faces are the chains of
    faces, and f' sends (s) to (f(s)).  Middle vertices are the connected
    components of the fibers of f', labelled ``w/i`` for the i-th
    component over w in order of least vertex; middle faces are the
    h-images of chains.  Three facts:

    1. Fibers.  If s < t and f(s) = f(t), every face between them has
       that image too, since images are monotone: f(s) <= f(r) <= f(t).
       So the fiber edge (s)(t) is a path of fiber edges (r)(r + one
       vertex), and fiber components are the classes of the pairs
       (t, t minus one vertex) with equal image.
    2. Middle.  Any subset of h(c) is h of a subchain of c: keep one
       preimage in c per element.  Every chain lies in a saturated chain
       (one vertex added per step) starting at a vertex, so the middle is
       the closure of the h-images of those.  The images of the saturated
       chains ending at t are those ending at the codim-1 faces of t, each
       with h(t) added.
    3. Checks.  g is validated as a simplicial map and g o h = f' is
       checked on every vertex.  Every middle face is h(c) for a chain c,
       so f'(c) = g(h(c)) is a face: together the two checks re-prove
       that f' is simplicial.
    """
    src = f.source
    dtgt = derived(f.target)
    label = derived_labels(src)
    img = {s: f.image(s) for s in src.faces}
    a = {label[s]: dtgt.vertex_of_face[img[s]] for s in src.faces}  # f'

    uf = _UnionFind(a)
    for t in src.faces_sorted:
        if len(t) > 1:
            for s in itertools.combinations(t, len(t) - 1):
                if img[s] == img[t]:
                    uf.union(label[s], label[t])
    g_assign: dict[str, str] = {}
    root_label: dict[str, str] = {}
    per_target: dict[str, int] = {}
    for v in sorted(a):  # each root is the least vertex of its component
        if uf.find(v) == v:
            i = per_target.get(a[v], 0)
            per_target[a[v]] = i + 1
            root_label[v] = f"{a[v]}/{i}"
            g_assign[root_label[v]] = a[v]
    h_assign = {v: root_label[uf.find(v)] for v in a}

    # h-images of the saturated chains from a vertex up to each face
    chains: dict[Face, set[frozenset[str]]] = {}
    for t in src.faces_sorted:
        m = h_assign[label[t]]
        if len(t) == 1:
            chains[t] = {frozenset((m,))}
        else:
            chains[t] = {
                c | {m}
                for s in itertools.combinations(t, len(t) - 1)
                for c in chains[s]
            }
    middle = Complex(
        closure_faces(tuple(sorted(c)) for cs in chains.values() for c in cs)
    )
    g = SimplicialMap(middle, dtgt.complex, g_assign)
    for v, w in a.items():
        if g_assign[h_assign[v]] != w:
            raise InvariantViolation("Stein factorization does not compose to f'")
    return SteinFactorization(src, h_assign, g, middle)


def stein_checks(sf: SteinFactorization) -> list[str]:
    """Violations of the two Stein properties; empty list when clean."""
    problems = []
    fibers: dict[str, list[Face]] = {m: [] for m in sf.middle.vertices}
    for face in sf.h.source.faces:
        img = {sf.h.assignment[v] for v in face}
        if len(img) == 1:
            fibers[img.pop()].append(face)
    for m, faces in fibers.items():
        sub = Complex(frozenset(faces))
        if sub.is_empty or len(connected_components(sub)) != 1:
            problems.append(f"fiber over {m} is not connected")
    for face in sf.middle.faces:
        if len(sf.g.image(face)) != len(face):
            problems.append(f"g collapses the face {face}")
    return problems


# -- component posets ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComponentPoset:
    """Stratum/complement components of a pair, ordered by closure inclusion."""

    components: tuple[StratumComponent, ...]
    labels: tuple[str, ...]
    less: frozenset[tuple[str, str]]
    cell_component: Mapping[Face, str]

    def label_of(self, comp_id: int) -> str:
        return self.labels[comp_id]


def component_poset(components: Sequence[StratumComponent]) -> ComponentPoset:
    labels = tuple(f"C{c.id}" for c in components)
    closures = [closure_faces(c.cells) for c in components]
    less: set[tuple[str, str]] = set()
    for i, ci in enumerate(components):
        for j, cj in enumerate(components):
            if i == j:
                continue
            if ci.cells <= closures[j]:
                less.add((labels[i], labels[j]))
    for a, b in less:
        if (b, a) in less:
            raise InvariantViolation(f"components {a} and {b} have equal closures")
    cell_component: dict[Face, str] = {}
    for lab, comp in zip(labels, components):
        for cell in comp.cells:
            cell_component[cell] = lab
    return ComponentPoset(tuple(components), labels, frozenset(less), cell_component)


def order_complex(poset: ComponentPoset) -> Complex:
    """Chains of the strict order, as a complex on the component labels."""
    above: dict[str, list[str]] = {a: [] for a in poset.labels}
    for a, b in sorted(poset.less):
        above[a].append(b)
    faces: list[Face] = []
    for a in poset.labels:
        stack: list[tuple[str, ...]] = [(a,)]
        while stack:
            chain = stack.pop()
            faces.append(tuple(sorted(chain)))
            for b in above[chain[-1]]:
                if all((x, b) in poset.less for x in chain):
                    stack.append(chain + (b,))
    return Complex(frozenset(faces))


def spine_component_poset(s: SpineComplex) -> ComponentPoset:
    if s.cell_type is None:
        s = assign_types(s)
    return component_poset(stratum_components(s))


def pair_component_poset(t: Complex, k: Complex) -> ComponentPoset:
    """Components of a plain pair (t, k): connected components of k and of
    its complement.  Valid when each connected component of k is a single
    stratum (points, circles, closed submanifold pieces)."""
    if not t.has_subcomplex(k):
        raise ValueError("k is not a subcomplex of t")
    dt = derived(t)
    kcells = derived_image(dt, k).faces if not k.is_empty else frozenset()
    comps: list[StratumComponent] = []
    next_id = 0
    for sub in connected_components(Complex(kcells)):
        comps.append(StratumComponent(next_id, sub.dim, sub.faces))
        next_id += 1
    for cells in complement_components(dt.complex, kcells):
        comps.append(StratumComponent(next_id, t.dim, cells))
        next_id += 1
    return component_poset(comps)


# -- nerve ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NervePair:
    prenerve: Complex
    poset: ComponentPoset
    nerve: Complex | None = None
    stein: SteinFactorization | None = None

    @property
    def nerve_map(self) -> SimplicialMap | None:
        """h of the Stein factorization, validated on first access."""
        return None if self.stein is None else self.stein.h


def _prenerve_map(t: Complex, poset: ComponentPoset) -> SimplicialMap:
    """T'' -> prenerve, sending a barycenter of a T'-face to its component."""
    dt = derived(t)
    dtt = derived(dt.complex)
    pn = order_complex(poset)
    assign = {
        dtt.vertex_of_face[cell]: poset.cell_component[cell]
        for cell in dt.complex.faces
    }
    return SimplicialMap(dtt.complex, pn, assign)


def _nerve_from_poset(t: Complex, poset: ComponentPoset) -> NervePair:
    pn_map = _prenerve_map(t, poset)
    sf = stein(pn_map)
    return NervePair(
        prenerve=pn_map.target,
        poset=poset,
        nerve=sf.middle,
        stein=sf,
    )


def prenerve(t: Complex, p: VertexPartition) -> NervePair:
    poset = spine_component_poset(assign_types(dual_spine(t, p)))
    return NervePair(prenerve=order_complex(poset), poset=poset)


def nerve(t: Complex, p: VertexPartition) -> NervePair:
    poset = spine_component_poset(assign_types(dual_spine(t, p)))
    return _nerve_from_poset(t, poset)


def prenerve_of_pair(t: Complex, k: Complex) -> NervePair:
    poset = pair_component_poset(t, k)
    return NervePair(prenerve=order_complex(poset), poset=poset)


def nerve_of_pair(t: Complex, k: Complex) -> NervePair:
    poset = pair_component_poset(t, k)
    return _nerve_from_poset(t, poset)


# -- nerve theorems as checks ----------------------------------------------------


@dataclass(frozen=True)
class NerveReport:
    ambient_dim: int
    nerve_dim: int
    vertex_count: int
    pseudomanifold_ok: bool
    dim_iff_vertices_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.pseudomanifold_ok and self.dim_iff_vertices_ok


def nerve_checks(np_: NervePair, vertex_count: int, ambient_dim: int) -> NerveReport:
    """Verify the structural facts about the nerve of a closed manifold pair:
    every codimension-1 simplex bounds zero or two top simplexes, the nerve
    dimension never exceeds the ambient one, and equality holds exactly when
    the spine has vertices."""
    if np_.nerve is None:
        raise ValueError("nerve not computed; call nerve() not prenerve()")
    n = np_.nerve
    d = ambient_dim
    failures = []
    counts: dict[Face, int] = {}
    for f in n.faces:
        if len(f) == d + 1:
            for s in itertools.combinations(f, d):
                counts[s] = counts.get(s, 0) + 1
    for s in n.faces_of_dim(d - 1):
        c = counts.get(s, 0)
        if c not in (0, 2):
            failures.append(f"codim-1 simplex {s} meets {c} top simplexes")
    pseudo_ok = not failures
    if n.dim > d:
        failures.append(f"nerve dim {n.dim} exceeds ambient dim {d}")
    dim_iff = (n.dim == d) == (vertex_count > 0)
    if not dim_iff:
        failures.append(
            f"nerve dim {n.dim} vs ambient {d} inconsistent with "
            f"vertex count {vertex_count}"
        )
    return NerveReport(
        ambient_dim=d,
        nerve_dim=n.dim,
        vertex_count=vertex_count,
        pseudomanifold_ok=pseudo_ok,
        dim_iff_vertices_ok=dim_iff,
        failures=tuple(failures),
    )


def rainbow_top_chain_count(t: Complex, poset: ComponentPoset) -> int:
    """Independent count of the top chains that map onto top nerve simplexes.

    Enumerates top simplexes of T''' directly (full chains of T''-faces) and
    keeps those whose component images form d+1 pairwise distinct faces of
    the pre-nerve; the nerve map is injective there, so this count must equal
    the number of top nerve simplexes.  Uses only the component assignment,
    not the Stein machinery.
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
            frozenset(comp[cell] for cell in dtt.chain_of(c2))
            for c2 in d3.chain_of(face)
        }
        if len(images) == d + 1:
            count += 1
    return count
