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
built.  Inside ``stein`` faces and middle vertices are int ids ranked by
their labels, chain images are int bitmasks, and only the chains ending
at facets are closed under subsets; labels return at the output (proofs
and layout at ``stein``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from plspines.core import (
    Complex,
    Face,
    InvariantViolation,
    SimplicialMap,
    _UnionFind,
    chains,
    closure_faces,
    derived,
    derived_image,
    derived_labels,
)
from plspines.recognize import ridge_incidence
from plspines.spine import SpineComplex
from plspines.strata import StratumComponent, cell_components, stratum_components


# -- Stein factorization -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SteinFactorization:
    """f' = g o h with h having connected fibers and g finite-to-one.

    h and g are kept as vertex maps, ``h_assignment`` from the derived
    source and ``g_assignment`` to the derived target; neither is built.
    """

    source: Complex  # source of f; h starts at its derived complex
    target: Complex  # target of f; g ends at its derived complex
    h_assignment: Mapping[str, str]
    g_assignment: Mapping[str, str]
    middle: Complex


def _facet_chain_images(
    layers: list[list[int]], below: list[list[int]], covered: bytearray, h: list[int]
) -> set[int]:
    """h-images of the saturated chains ending at facets, as bitmasks.

    Faces come in layers by size, each face with its codim-1 subfaces in
    ``below``; ``covered`` marks the faces that are such a subface.  The
    images ending at t are those ending below t with h(t) added, so one
    layer is kept at a time.
    """
    tops: set[int] = set()
    chains: dict[int, set[int]] = {}
    for layer in layers:
        prev, chains = chains, {}
        for t in layer:
            bit = 1 << h[t]
            cs = {c | bit for s in below[t] for c in prev[s]} or {bit}
            if covered[t]:
                chains[t] = cs
            else:
                tops |= cs
    return tops


def stein(f: SimplicialMap) -> SteinFactorization:
    """Stein factorization of the derived map f' of f, read off the face
    posets of source and target without building either derived complex.

    The vertices of the derived source are the faces s of the source,
    labelled ``derived_vertex_label(s)``, its faces are the chains of
    faces, and f' sends (s) to (f(s)).  Middle vertices are the connected
    components of the fibers of f', labelled ``w/i`` for the i-th
    component over w in order of least vertex; middle faces are the
    h-images of chains.  Four facts:

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
    3. Facets suffice.  A saturated chain ending at t extends, one vertex
       at a time, to a saturated chain ending at a facet F >= t, and its
       image only grows.  So the middle is the closure of the images at
       the facets alone; no purity is needed.  A face is a facet exactly
       when it is no codim-1 subface of another face, since downward
       closure puts a codim-1 step below any proper coface.
    4. Maps.  f was validated when it was built, so f' is simplicial.
       g o h = f' is checked on every vertex.  Every middle face is h(c)
       for a chain c, so g(h(c)) = f'(c) is a face: g is simplicial, and
       no map is validated face by face here.

    Layout: faces of the source are ints, numbered in the order of their
    derived labels, so the least id of a fiber component, its
    ``_UnionFind`` root, is its least label.  Middle vertices are ints
    numbered in the order of their ``w/i`` labels, and a chain image is
    an int bitmask over them; its set bits, lowest first, are a sorted
    middle face.  Labels come back only for ``middle``, ``g_assignment``
    and ``h_assignment``.
    """
    src = f.source
    tlabel = derived_labels(f.target.faces)
    label = derived_labels(src.faces)
    faces = sorted(label, key=label.__getitem__)
    n = len(faces)
    fid = {s: i for i, s in enumerate(faces)}
    a = [tlabel[f.image(s)] for s in faces]  # f'
    below: list[list[int]] = []  # codim-1 subfaces
    covered = bytearray(n)  # 1 for a codim-1 subface of some face
    layers: list[list[int]] = [[] for _ in range(src.dim + 1)]  # by size
    uf = _UnionFind(range(n))
    for t, face in enumerate(faces):
        layers[len(face) - 1].append(t)
        # a vertex has one "codim-1 subface", the empty tuple, which is dropped
        ids = [fid[s] for s in itertools.combinations(face, len(face) - 1) if s]
        below.append(ids)
        for s in ids:
            covered[s] = 1
            if a[s] == a[t]:
                uf.union(s, t)
    root = [uf.find(v) for v in range(n)]
    names: dict[int, str] = {}  # fiber component root -> its w/i label
    per_target: dict[str, int] = {}
    for v in range(n):
        if root[v] == v:
            i = per_target.get(a[v], 0)
            per_target[a[v]] = i + 1
            names[v] = f"{a[v]}/{i}"
    mlabels = sorted(names.values())
    mid = {lab: m for m, lab in enumerate(mlabels)}
    h = [mid[names[r]] for r in root]

    top_faces = []
    for c in _facet_chain_images(layers, below, covered, h):
        face = []
        while c:
            low = c & -c
            face.append(mlabels[low.bit_length() - 1])
            c ^= low
        top_faces.append(tuple(face))
    middle = Complex(closure_faces(top_faces))

    g_assign = {lab: a[r] for r, lab in names.items()}
    h_assign = {label[s]: mlabels[m] for s, m in zip(faces, h)}
    for m, w in zip(h, a):
        if g_assign[mlabels[m]] != w:
            raise InvariantViolation("Stein factorization does not compose to f'")
    return SteinFactorization(src, f.target, h_assign, g_assign, middle)


# -- component posets ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComponentPoset:
    """Stratum/complement components of a pair, ordered by closure inclusion."""

    components: tuple[StratumComponent, ...]
    labels: tuple[str, ...]
    less: frozenset[tuple[str, str]]
    cell_component: Mapping[Face, str]


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
    """Chains of the strict order, as a complex on the component labels;
    closure inclusion is transitive, so all above a chain's top extend it."""
    above: dict[str, list[str]] = {a: [] for a in poset.labels}
    for a, b in sorted(poset.less):
        above[a].append(b)
    return Complex(frozenset(chains(above, {a: a for a in poset.labels}, poset.labels)))


def pair_component_poset(t: Complex, k: Complex) -> ComponentPoset:
    """Components of a plain pair (t, k): connected components of k and of
    its complement.  Valid when each connected component of k is a single
    stratum (points, circles, closed submanifold pieces)."""
    if not t.has_subcomplex(k):
        raise ValueError("k is not a subcomplex of t")
    dt = derived(t)
    kcells = derived_image(dt, k).faces
    off_k = {c: int(c not in kcells) for c in dt.complex.faces}
    comps = [
        StratumComponent(i, t.dim if off else max(map(len, cells)) - 1, cells)
        for i, (off, cells) in enumerate(cell_components(dt.complex, off_k))
    ]
    return component_poset(comps)


# -- nerve ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NervePair:
    """The pre-nerve, the component poset it is the order complex of, and
    the nerve: the middle of the Stein factorization ``stein``."""

    prenerve: Complex
    poset: ComponentPoset
    nerve: Complex
    stein: SteinFactorization


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


def nerve_of_poset(t: Complex, poset: ComponentPoset) -> NervePair:
    """The nerve of the pair whose components (as cells of T') make up poset."""
    pn_map = _prenerve_map(t, poset)
    sf = stein(pn_map)
    return NervePair(
        prenerve=pn_map.target,
        poset=poset,
        nerve=sf.middle,
        stein=sf,
    )


def nerve(s: SpineComplex) -> NervePair:
    """The nerve of the pair (ambient, spine), strata by the chain rule."""
    return nerve_of_poset(s.ambient, component_poset(stratum_components(s)))


def nerve_of_pair(t: Complex, k: Complex) -> NervePair:
    """The nerve of a plain pair (t, k); see ``pair_component_poset``."""
    return nerve_of_poset(t, pair_component_poset(t, k))


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
    n = np_.nerve
    d = ambient_dim
    counts = ridge_incidence(n, d)
    failures = [
        f"codim-1 simplex {s} meets {counts[s]} top simplexes"
        for s in sorted(s for s, c in counts.items() if c not in (0, 2))
    ]
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

