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
built.  The middle is the order complex of the fiber components, ordered
by "a face of A lies in a face of B", and ``core.chains`` lists it as it
lists the pre-nerve.  Inside ``stein`` faces are int ids in tuple order
and middle vertices int ids in label order; h is returned as ids, and
labels return only in the middle and in g (proofs at ``stein``).
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

    Neither map is built.  ``h`` holds one middle-vertex id per face of
    ``sorted(source.faces)``; id i is the i-th of ``sorted(middle.vertices)``.
    ``g_assignment`` maps middle vertices to vertices of the derived target.
    """

    source: Complex  # source of f; h starts at its derived complex
    target: Complex  # target of f; g ends at its derived complex
    h: tuple[int, ...]
    g_assignment: Mapping[str, str]
    middle: Complex


def _codim1(face: Face, fid: Mapping[Face, int]) -> list[int]:
    """Ids of the nonempty codim-1 subfaces of face (none for a vertex)."""
    return [fid[s] for s in itertools.combinations(face, len(face) - 1) if s]


def stein(f: SimplicialMap) -> SteinFactorization:
    """Stein factorization of the derived map f' of f, read off the face
    posets of source and target without building either derived complex.

    The vertices of the derived source are the faces s of the source,
    labelled ``derived_vertex_label(s)``, its faces are the chains of
    faces, and f' sends (s) to (f(s)).  Middle vertices are the connected
    components of the fibers of f', labelled ``w/i`` for the i-th
    component over w in order of least face in tuple order, the order
    ``strata.cell_components`` lists them in; middle faces are the
    h-images of chains.  Four facts:

    1. Fibers.  If s < t and f(s) = f(t), every face between them has
       that image too, since images are monotone: f(s) <= f(r) <= f(t).
       So the fiber edge (s)(t) is a path of fiber edges (r)(r + one
       vertex), and fiber components are the classes of the pairs
       (t, t minus one vertex) with equal image.
    2. Order.  For fiber components A and B say A <= B when a face of A
       lies in a face of B.  Lemma: then every face of B contains a face
       of A.  B is joined by codim-1 steps of equal image (fact 1); a
       step up keeps the face of A below it.  A step down goes from t to
       t - x with f(t - x) = f(t); if x lies in the face a <= t of A, pick
       y in t - x with f(y) = f(x), and a -> a + y -> a + y - x are
       codim-1 steps of equal image, so a + y - x is a face of A inside
       t - x.  So <= is transitive; it is antisymmetric since A < B
       strictly grows the image; and walking a saturated chain from s to
       t shows it is the transitive closure of the codim-1 steps between
       components.
    3. Middle.  h of a chain is a chain of <=.  Conversely a chain
       A0 < ... < Ak lifts top-down, by the lemma, to a chain of faces
       with h-image exactly {A0, ..., Ak}.  So the middle is the order
       complex of <=, and ``chains`` lists it.  The image grows strictly
       along <=, so the closure is taken from the largest images down.
    4. Maps.  f was validated when it was built, so f' is simplicial.
       g o h = f' is checked on every vertex.  Every middle face is h(c)
       for a chain c, so g(h(c)) = f'(c) is a face: g is simplicial, and
       no map is validated face by face here.

    Face ids follow tuple order, so the least id of a fiber component,
    its ``_UnionFind`` root, is its least face.  Codim-1 subfaces are
    walked twice, for the fibers and for the order, and not stored.
    Middle vertices are ints numbered in the order of their ``w/i``
    labels; ``h`` is returned as those ids.
    """
    src = f.source
    tlabel = derived_labels(f.target.faces)
    faces = sorted(src.faces)
    fid = {s: i for i, s in enumerate(faces)}
    a = [tlabel[f.image(s)] for s in faces]  # f'
    # per-face scaffolding is deleted once used: the middle, built last,
    # would otherwise be allocated on top of it
    uf = _UnionFind(range(len(faces)))
    for t, face in enumerate(faces):
        for s in _codim1(face, fid):
            if a[s] == a[t]:
                uf.union(s, t)
    root = [uf.find(v) for v in range(len(faces))]
    del uf
    names: dict[int, str] = {}  # fiber component root -> its w/i label
    per_target: dict[str, int] = {}
    for v, r in enumerate(root):
        if r == v:
            i = per_target.get(a[v], 0)
            per_target[a[v]] = i + 1
            names[v] = f"{a[v]}/{i}"
    reps = sorted(names, key=names.__getitem__)  # middle id -> its root
    mid = {r: m for m, r in enumerate(reps)}
    h = tuple(mid[r] for r in root)
    del root

    # the order: codim-1 steps between components, closed from the top down
    above: list[set[int]] = [set() for _ in reps]
    for t, face in enumerate(faces):
        for s in _codim1(face, fid):
            if h[s] != h[t]:
                above[h[s]].add(h[t])
    del fid
    for m in sorted(range(len(reps)), key=lambda m: len(f.image(faces[reps[m]])), reverse=True):
        above[m] |= {c for b in above[m] for c in above[b]}
    mlabels = [names[r] for r in reps]
    middle = Complex(frozenset(chains(above, mlabels, range(len(reps)))))

    g = [a[r] for r in reps]
    for m, w in zip(h, a):
        if g[m] != w:
            raise InvariantViolation("Stein factorization does not compose to f'")
    return SteinFactorization(src, f.target, h, dict(zip(mlabels, g)), middle)


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

