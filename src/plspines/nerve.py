"""Pre-nerve, Stein factorization, and the nerve of a pair.

Components of a pair (M, Y) are given as a partition of the cells of T'
(the strata of a dual spine plus its complement components, or any other
components given to ``nerve_of_poset``).  The pre-nerve is the order
complex of the component poset under closure inclusion.  The pre-nerve map
sends each barycenter of a T'-face, i.e. each vertex of T'', to the
component holding that face's interior; the nerve is the Stein middle of
the derived map T''' -> (pre-nerve)'.  Stein runs on the face poset of the
source, T'' here: the vertices of T''' are the faces of T'' and its faces
are their chains, so fibers and middle are read off T'' and T''' is not
built.  The middle is the order complex of the fiber components, ordered
by "a face of A lies in a face of B", and ``core.chains`` lists it as it
lists the pre-nerve.  One ``strata.cell_components`` walk over the
codim-1 subfaces of T'' gives both the fiber components and the steps
that order them.  Inside ``stein`` faces are int ids in tuple order and
middle vertices int ids in label order; h is returned as ids, and labels
return only in the middle and in g (proofs at ``stein``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from plspines.core import (
    Complex,
    Face,
    InvariantViolation,
    SimplicialMap,
    chains,
    closure_faces,
    derived,
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

    Source faces are int ids in tuple order.  ``strata.cell_components``
    labels them by f' and, in one walk over codim-1 subfaces, returns the
    fiber components (fact 1) in (w, least face) order, so the components
    over w are consecutive and the i-th of them is ``w/i``, and the pairs
    of components one codim-1 step apart, which generate <= (fact 2).
    ``h`` is returned as middle-vertex ids, numbered in ``w/i`` order.
    """
    src = f.source
    tlabel = derived_labels(f.target.faces)
    faces = sorted(src.faces)
    a = [tlabel[f.image(s)] for s in faces]  # f'
    # per-face scaffolding is deleted once used: the middle, built last,
    # would otherwise be allocated on top of it
    comp, steps = cell_components(faces, a)
    least: dict[int, int] = {}  # fiber component -> its least face
    for v, k in enumerate(comp):
        least.setdefault(k, v)
    g = [a[least[k]] for k in range(len(least))]
    for k, w in zip(comp, a):
        if g[k] != w:
            raise InvariantViolation("Stein factorization does not compose to f'")
    names: list[str] = []
    first: dict[str, int] = {}  # w -> its first component; those over w are consecutive
    for k, w in enumerate(g):
        names.append(f"{w}/{k - first.setdefault(w, k)}")
    mid = {k: m for m, k in enumerate(sorted(range(len(names)), key=names.__getitem__))}
    h = tuple(mid[k] for k in comp)
    del comp

    # the order: codim-1 steps between components, closed from the top down
    above: list[set[int]] = [set() for _ in names]
    for x, y in steps:
        above[x].add(y)
    del steps
    for k in sorted(range(len(names)), key=lambda k: len(f.image(faces[least[k]])), reverse=True):
        above[k] |= {c for b in above[k] for c in above[b]}
    middle = Complex(frozenset(chains(above, names, range(len(names)))))
    return SteinFactorization(src, f.target, h, dict(sorted(zip(names, g))), middle)


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

