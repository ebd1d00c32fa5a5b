"""Pre-nerve, Stein factorization, and the nerve of a pair.

Components of a pair (M, Y) are given as a partition of the cells of T'
(the strata of a dual spine plus its complement components, or any other
components given to ``nerve_of_poset``).  The pre-nerve is the order
complex of the component poset under closure inclusion.  The pre-nerve map
sends each barycenter of a T'-face, i.e. each vertex of T'', to the
component holding that face's interior; the nerve is the Stein middle of
the derived map T''' -> (pre-nerve)'.  Stein reads fibers, names and
order off the source faces that f maps injectively and those with one
collision (fact 5 at ``stein``).  For the pre-nerve map these are the
chains of T' faces whose components are pairwise distinct or have one
adjacent equal pair, walked up the coface lists of T' (``PrenerveMap``),
so neither T'' nor T''' is built.  The middle is the order complex of the
fiber components, ordered by "a face of A lies in a face of B", and
``core.chains`` lists it as it lists the pre-nerve.  Inside ``stein``
faces are sorted tuples of int vertex ids and middle vertices int ids in
label order; labels return only in the middle and in g.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union

from plspines.core import (
    Complex,
    Face,
    InvariantViolation,
    SimplicialMap,
    _UnionFind,
    chains,
    closure_faces,
    derived,
    derived_labels,
)
from plspines.recognize import ridge_incidence
from plspines.spine import SpineComplex
from plspines.strata import StratumComponent, stratum_components

# A source face is the sorted tuple of its vertex ids.  Transversals are the
# f-injective faces and the swaps, pairs of them joined through a face with
# one collision (fact 5 at ``stein``).
Transversals = tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], tuple[int, ...]]]]


# -- Stein factorization -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SteinFactorization:
    """f' = g o h with h having connected fibers and g finite-to-one.

    Neither map is built.  ``g_assignment`` maps middle vertices to
    vertices of the derived target.  ``source`` and ``h`` are built on
    read, as only tests read them: ``h`` holds one middle-vertex id per
    face of ``sorted(source.faces)``, and id i is the i-th of
    ``sorted(middle.vertices)``.
    """

    f: Union[SimplicialMap, PrenerveMap]
    g_assignment: Mapping[str, str]
    middle: Complex

    @property
    def target(self) -> Complex:
        """Target of f; g ends at its derived complex."""
        return self.f.target

    @property
    def source(self) -> Complex:
        """Source of f; h starts at its derived complex."""
        return self.f.source

    @cached_property
    def h(self) -> tuple[int, ...]:
        # h of a face is h of its transversals (fact 5 at ``stein``)
        vertices, image, fid, comp = _fibers(self.f)[:4]
        vid = {v: i for i, v in enumerate(vertices)}
        out = []
        for s in sorted(self.source.faces):
            pick: dict[int, int] = {}
            for v in s:
                pick.setdefault(image[vid[v]], vid[v])
            out.append(comp[fid[tuple(sorted(pick.values()))]])
        return tuple(out)


def _scan(f: SimplicialMap) -> tuple[Sequence[str], list[int], Transversals]:
    """One scan of the source faces of a general map: its vertex labels in
    id order, each vertex's target vertex id, and its transversals."""
    vertices = f.source.vertices
    vid = {v: i for i, v in enumerate(vertices)}
    tid = {w: i for i, w in enumerate(f.target.vertices)}
    image = [tid[f.assignment[v]] for v in vertices]
    inj, swaps = [], []
    for s in f.source.faces:
        c = tuple(vid[v] for v in s)
        pick: dict[int, int] = {}  # target vertex -> first vertex over it
        hits = []
        for v in c:
            u = pick.setdefault(image[v], v)
            if u != v:
                hits.append((u, v))
        if not hits:
            inj.append(c)
        elif len(hits) == 1:
            (u, v), = hits
            swaps.append((tuple(x for x in c if x != u), tuple(x for x in c if x != v)))
    return vertices, image, (inj, swaps)


def _fibers(f: Union[SimplicialMap, PrenerveMap]):
    """The fiber components of f' on the f-injective faces (fact 5).

    Returns the source vertex labels in id order, each vertex's target
    vertex id (an index into ``f.target.vertices``), the f-injective faces
    numbered 0, 1, ..., each one's middle-vertex id, the middle labels in
    id order, and each middle vertex's g-image.
    """
    if isinstance(f, PrenerveMap):
        vertices, image, (inj, swaps) = f.vertices, f.image, f.transversals()
    else:
        vertices, image, (inj, swaps) = _scan(f)
    fid = {c: i for i, c in enumerate(inj)}
    uf = _UnionFind(range(len(inj)))
    for a, b in swaps:
        uf.union(fid[a], fid[b])
    del swaps
    root = [uf.find(i) for i in range(len(inj))]
    del uf
    least: dict[int, tuple[int, ...]] = {}  # component root -> its least face
    for c, r in zip(inj, root):
        if r not in least or c < least[r]:
            least[r] = c
    fw = {r: sorted(image[v] for v in c) for r, c in least.items()}
    for c, r in zip(inj, root):
        if sorted(image[v] for v in c) != fw[r]:
            raise InvariantViolation("Stein factorization does not compose to f'")
    tv = f.target.vertices
    tlabel = derived_labels(f.target.faces)
    w = {r: tlabel[tuple(tv[x] for x in fw[r])] for r in least}
    del fw
    reps = sorted(least, key=lambda r: (w[r], least[r]))
    names: list[str] = []
    first: dict[str, int] = {}  # w -> its first component; those over w are consecutive
    for k, r in enumerate(reps):
        names.append(f"{w[r]}/{k - first.setdefault(w[r], k)}")
    order = sorted(range(len(reps)), key=names.__getitem__)
    mid = {reps[k]: m for m, k in enumerate(order)}
    comp = [mid[r] for r in root]
    return vertices, image, fid, comp, [names[k] for k in order], [w[reps[k]] for k in order]


def stein(f: Union[SimplicialMap, PrenerveMap]) -> SteinFactorization:
    """Stein factorization of the derived map f' of f, read off the face
    posets of source and target without building either derived complex.

    f is a ``SimplicialMap`` or the pre-nerve map as a ``PrenerveMap``.
    The vertices of the derived source are the faces s of the source,
    labelled ``derived_vertex_label(s)``, its faces are the chains of
    faces, and f' sends (s) to (f(s)).  Middle vertices are the connected
    components of the fibers of f', labelled ``w/i`` for the i-th
    component over w in order of least f-injective face (fact 5) in tuple
    order; middle faces are the h-images of chains.  The least face of a
    component need not be f-injective: with facets abc and ad, f(a) = f(b),
    f(c) = f(d) and b < d < c, the components of abc and of ad over f(ac)
    come in one order by least face (abc < ad) and in the other by least
    f-injective face (ad < ac).  Five facts:

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
    4. Maps.  f was checked simplicial when it was built, so f' is
       simplicial.  g o h = f' is checked on every f-injective face and
       holds on the others through their transversals (fact 5).  Every
       middle face is h(c) for a chain c, so g(h(c)) = f'(c) is a face: g
       is simplicial, and no map is validated face by face here.
    5. Transversals.  Call a face f-injective when f is injective on its
       vertices.  A transversal of t picks one vertex of t over each
       vertex of f(t): an f-injective face with image f(t).
       a. Every fiber component holds an f-injective face.  From any t in
          it drop a vertex whose image is hit twice: the image stays, so
          by fact 1 the smaller face is in the same component.  Repeat.
       b. Two f-injective faces lie in one fiber component exactly when
          swaps join them.  A swap goes from x + v to x + v' with
          f(v) = f(v') through the face x + v + v', whose one collision
          is that pair: two codim-1 steps of equal image.  Conversely,
          two transversals of t are joined by swaps inside t, changing
          one pick at a time.  If s < t have equal image, a transversal
          of s is one of t.  So along a path of codim-1 steps of equal
          image (fact 1) neighbours share a transversal, and the
          transversals of its two ends are joined by swaps.
       c. <= is the transitive closure of the pairs (h(s - v), h(s)) for
          f-injective s.  Each is a codim-1 step of unequal image.  A
          codim-1 step s < s + x of unequal image has f(x) outside f(s);
          for a transversal r of s, r + x is f-injective and a transversal
          of s + x, so by (b) the step r < r + x joins the same two
          components.  Fact 2 ends the proof.
       So fibers, names, g and the order come from the f-injective faces
       and the swaps alone, and h of any face is h of its transversals.

    Source vertices are int ids in label order, so a face is the sorted
    tuple of its ids and tuple order is the source's face order.  A
    ``SimplicialMap`` gives its f-injective faces and swaps by one scan of
    ``f.source.faces``; a ``PrenerveMap`` walks them up the cofaces of T'.
    ``core._UnionFind`` unions the swaps over the f-injective faces, and
    the drops of (c) give the order.
    """
    vertices, image, fid, comp, names, g = _fibers(f)
    del vertices, image
    size = [0] * len(names)  # each middle vertex's image size
    steps: set[tuple[int, int]] = set()
    for c, k in zip(fid, comp):
        size[k] = len(c)
        if len(c) > 1:
            for p in range(len(c)):
                steps.add((comp[fid[c[:p] + c[p + 1:]]], k))
    del fid, comp

    # the order: the drop steps between components, closed from the top down
    above: list[set[int]] = [set() for _ in names]
    for x, y in steps:
        above[x].add(y)
    del steps
    for k in sorted(range(len(names)), key=size.__getitem__, reverse=True):
        above[k] |= {c for b in above[k] for c in above[b]}
    middle = Complex(frozenset(chains(above, names, range(len(names)))))
    return SteinFactorization(f, dict(sorted(zip(names, g))), middle)


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
class PrenerveMap:
    """The pre-nerve map T'' -> pre-nerve on int ids, T'' not built.

    Vertex i of T'' is a T' face, labelled ``vertices[i]``, with ids in
    label order; it goes to target vertex ``image[i]``, an index into
    ``target.vertices``, and ``above[i]`` lists the ids of its proper
    cofaces in T'.  ``source``, T'' itself, is built on read.
    """

    base: Complex  # T'
    target: Complex  # the pre-nerve
    vertices: tuple[str, ...]
    image: list[int]
    above: list[list[int]]

    @property
    def source(self) -> Complex:
        return derived(self.base).complex

    def transversals(self) -> Transversals:
        """The chains of T' faces with pairwise distinct images, and the
        swaps of those with one adjacent equal pair, walked upward.

        The map is monotone (``_prenerve_map``) and closure inclusion is
        antisymmetric, so equal images on a chain are adjacent: an
        f-injective chain is one with no adjacent equal pair, and a chain
        with one collision has exactly one.  A chain with two is never
        extended, since every chain above it has two as well.
        """
        image, above = self.image, self.above
        inj, swaps = [], []
        for i in range(len(above)):
            # (chain as sorted ids, its top, the equal pair or -1, -1)
            stack = [((i,), i, -1, -1)]
            while stack:
                c, top, a, b = stack.pop()
                if a < 0:
                    inj.append(c)
                else:
                    pa, pb = c.index(a), c.index(b)
                    swaps.append((c[:pa] + c[pa + 1:], c[:pb] + c[pb + 1:]))
                for j in above[top]:
                    if image[j] != image[top]:
                        pair = (a, b)
                    elif a < 0:
                        pair = (top, j)
                    else:
                        continue  # a second collision
                    p = bisect(c, j)
                    stack.append((c[:p] + (j,) + c[p:], j, *pair))
        return inj, swaps


@dataclass(frozen=True, eq=False)
class NervePair:
    """The pre-nerve, the component poset it is the order complex of, and
    the nerve: the middle of the Stein factorization ``stein``."""

    prenerve: Complex
    poset: ComponentPoset
    nerve: Complex
    stein: SteinFactorization


def _prenerve_map(t: Complex, poset: ComponentPoset) -> PrenerveMap:
    """T'' -> prenerve, sending a barycenter of a T'-face to its component,
    checked monotone on the incidences of T': if s < t, then
    comp s = comp t or (comp s, comp t) is in ``poset.less``.

    Monotone means simplicial.  A face of T'' is a chain s0 < ... < sk of
    T' faces, each pair an incidence, so its image is a set of pairwise
    comparable components: a chain of the transitive order ``less``, a
    face of the pre-nerve.  Conversely, let the map be simplicial and
    s < t.  The edge (s)(t) goes to a face, so comp s and comp t are equal
    or comparable.  If (comp t, comp s) were in ``less`` with the two
    different, t would lie in a cell r of comp s, with s < t < r and t
    off comp s.  No component built here does that: ``cell_components``
    joins faces of one label by codim-1 steps, and both labellings (the
    type, or d off the spine; k' against the rest for a plain pair) only
    grow from a face to its cofaces, so every face between s and r has
    their label and is joined to both by codim-1 steps through it.  So on
    these components the check is exactly "the map is simplicial", the
    check a ``SimplicialMap`` makes over every face of T''; other
    components are refused unless monotone, and a monotone map is
    simplicial.
    """
    dt = derived(t).complex
    label = derived_labels(dt.faces)  # T'' vertex labels, with the collision check
    cells = tuple(sorted(label, key=label.__getitem__))
    fid = {c: i for i, c in enumerate(cells)}
    pn = order_complex(poset)
    cid = {c: i for i, c in enumerate(pn.vertices)}
    image = [cid[poset.cell_component[c]] for c in cells]
    less = {(cid[a], cid[b]) for a, b in poset.less}
    cof = dt.proper_cofaces
    above = []
    for i, c in enumerate(cells):
        up = [fid[x] for x in cof[c]]
        for j in up:
            if image[i] != image[j] and (image[i], image[j]) not in less:
                edge = tuple(sorted((label[c], label[cells[j]])))
                raise ValueError(f"image of face {edge} is not a target face")
        above.append(up)
    return PrenerveMap(dt, pn, tuple(label[c] for c in cells), image, above)


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
    nerve_dim: int
    pseudomanifold_ok: bool | None  # None: T has boundary, the check does not apply
    dim_iff_vertices_ok: bool
    failures: tuple[str, ...]  # of the checks that apply

    @property
    def ok(self) -> bool:
        return not self.failures


def nerve_checks(np_: NervePair, s: SpineComplex) -> NerveReport:
    """Verify the structural facts about the nerve of the pair (T, s): the
    nerve dimension never exceeds d = dim T, and equality holds exactly
    when the spine has vertices.  The closed-manifold theorem, that every
    codimension-1 simplex bounds zero or two top simplexes, is checked only
    when T is closed; with a boundary ``pseudomanifold_ok`` is None."""
    n = np_.nerve
    d = s.ambient.dim
    failures = []
    pseudo_ok = None
    if s.boundary.is_empty:
        counts = ridge_incidence(n, d)
        failures = [
            f"codim-1 simplex {f} meets {counts[f]} top simplexes"
            for f in sorted(f for f, c in counts.items() if c not in (0, 2))
        ]
        pseudo_ok = not failures
    if n.dim > d:
        failures.append(f"nerve dim {n.dim} exceeds ambient dim {d}")
    dim_iff = (n.dim == d) == (s.vertex_count > 0)
    if not dim_iff:
        failures.append(
            f"nerve dim {n.dim} vs ambient {d} inconsistent with "
            f"vertex count {s.vertex_count}"
        )
    return NerveReport(n.dim, pseudo_ok, dim_iff, tuple(failures))
