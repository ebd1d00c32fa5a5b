"""Search over vertex partitions minimizing the spine vertex count.

Class first: a partition certifies exactly when each of its classes does,
since a region depends only on its own class.  The search works on vertex
bitmasks (bit i for ``t.vertices[i]``).  A class's span components are the
components of its induced 1-skeleton, which is exact because a component
of a full subcomplex is itself full; their Euler characteristics are read
from the faces' masks, and ``spine.certify_span_component`` is asked once
per distinct component with characteristic 1.

Only the partitions built from certified classes are enumerated, by
choosing the class of the lowest unassigned vertex, candidates in label
order.  Every candidate at a node holds that vertex, so the walk reaches
complete partitions in increasing ``canonical_key`` order, and the first
one found at a count has the least key for that count.  The rainbow
count is kept incremental: each class marks, as a bitmask over the
facets, the facets it meets in two or more vertices, and a facet is
rainbow exactly when no class marks it.  A facet left with fewer than
two unassigned vertices can be marked by no later class, so a node whose
unmarked such facets number at least the incumbent's count is pruned:
ties are not enumerated, and each complete partition reached beats the
incumbent outright.  The answer is the least ``(count, canonical_key)``.

The search is exhaustive, and proven so, when the 2**n vertex subsets of
an n-vertex complex fit the cap.  Above the cap only the singleton
classes are certified, so the answer is the discrete partition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from plspines.core import EMPTY, Complex, subcomplex_spanned
from plspines.partitions import VertexPartition, vertex_partition
from plspines.recognize import is_closed_manifold
from plspines.spine import certify_span_component


@dataclass(frozen=True)
class SearchResult:
    best_partition: VertexPartition
    best_count: int
    proven_exhaustive: bool
    # complete partitions the bounded enumeration reaches (not pruned):
    # each beats the one before it, and every class of each is certified
    partitions_examined: int

    @property
    def partitions_certified(self) -> int:
        """``partitions_examined``: only partitions of certified classes are
        enumerated.  Kept because the benchmark's trace harness reads it."""
        return self.partitions_examined


def _low(m: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (m & -m).bit_length() - 1


def _labels(verts: Sequence[str], m: int) -> tuple[str, ...]:
    return tuple(v for i, v in enumerate(verts) if m >> i & 1)


def skeleton_masks(t: Complex) -> tuple[list[int], list[tuple[int, int]]]:
    """t on vertex bitmasks: the mask of each vertex's neighbours, and each
    face's mask with its sign in the Euler characteristic."""
    bit = {v: 1 << i for i, v in enumerate(t.vertices)}
    adjacency = [0] * len(bit)
    signed = []
    for f in t.faces:
        signed.append((sum(bit[v] for v in f), 1 if len(f) % 2 else -1))
        if len(f) == 2:
            a, b = bit[f[0]], bit[f[1]]
            adjacency[_low(a)] |= b
            adjacency[_low(b)] |= a
    return adjacency, signed


def span_components(adjacency: Sequence[int], m: int) -> list[int]:
    """Vertex masks of the span components of the class ``m``, by lowest
    vertex: the components of the 1-skeleton induced on ``m``."""
    comps = []
    while m:
        comp = front = m & -m
        while front:
            reach = 0
            while front:
                reach |= adjacency[_low(front)]
                front &= front - 1
            front = reach & m & ~comp
            comp |= front
        comps.append(comp)
        m &= ~comp
    return comps


def span_euler_characteristic(signed: Iterable[tuple[int, int]], m: int) -> int:
    """Euler characteristic of the subcomplex spanned by the mask ``m``."""
    return sum(s for fm, s in signed if fm & m == fm)


def certified_classes(t: Complex, classes: Iterable[int], seed: int = 0) -> list[int]:
    """The class masks, in input order, whose regions in a closed manifold
    t are certified balls: every span component has Euler characteristic 1
    and passes ``certify_span_component``, each distinct one asked once."""
    adjacency, signed = skeleton_masks(t)
    chi = functools.cache(lambda c: span_euler_characteristic(signed, c))

    @functools.cache
    def ball(c: int) -> bool:
        comp = subcomplex_spanned(t, _labels(t.vertices, c))
        return certify_span_component(t, comp, EMPTY, seed=seed)[1]

    accepted = []
    for m in classes:
        comps = span_components(adjacency, m)
        if all(chi(c) == 1 for c in comps) and all(ball(c) for c in comps):
            accepted.append(m)
    return accepted


def search_min_vertices(t: Complex, cap: int = 100_000, seed: int = 0) -> SearchResult:
    """Minimize the vertex count over partitions with a "yes" certificate.

    Exhaustive (and proven so) when 2**(#vertices) fits the cap; otherwise
    the discrete partition.  Either way an answer exists: a singleton class
    spans a point, which is always certified, so the discrete partition is
    always enumerated.
    """
    if t.dim < 1 or not is_closed_manifold(t):
        raise ValueError("search requires a closed manifold triangulation of dimension >= 1")
    verts = t.vertices
    n = len(verts)
    exhaustive = 1 << n <= cap
    bit = {v: 1 << i for i, v in enumerate(verts)}
    facet_masks = [sum(bit[v] for v in f) for f in t.faces_of_dim(t.dim)]
    n_facets = len(facet_masks)

    @functools.cache
    def meets_twice(m: int) -> int:
        """Facets meeting ``m`` in two or more vertices: those a class ``m``
        marks, and those a class inside an unassigned set ``m`` still can."""
        return sum(1 << j for j, fm in enumerate(facet_masks) if (fm & m).bit_count() >= 2)

    # certified classes by their lowest vertex: (mask, labels, marked facets)
    by_low: list[list[tuple[int, tuple[str, ...], int]]] = [[] for _ in range(n)]
    classes = range(1, 1 << n) if exhaustive else (1 << i for i in range(n))
    for m in certified_classes(t, classes, seed=seed):
        by_low[_low(m)].append((m, _labels(verts, m), meets_twice(m)))
    for cands in by_low:
        cands.sort(key=lambda c: c[1])

    best: tuple[int, tuple] = (n_facets + 1, ())  # every partition beats it
    examined = 0

    def walk(rest: int, marked: int, key: tuple) -> None:
        # vertices are sorted, so classes come out in canonical order, and
        # candidates are in label order, so keys come out in increasing order
        nonlocal best, examined
        if n_facets - (marked | meets_twice(rest)).bit_count() >= best[0]:
            return
        if not rest:
            examined += 1
            best = (n_facets - marked.bit_count(), key)
            return
        for m, labels, k in by_low[_low(rest)]:
            if m & rest == m:
                walk(rest ^ m, marked | k, key + (labels,))

    walk((1 << n) - 1, 0, ())
    count, key = best
    return SearchResult(vertex_partition(t, key), count, exhaustive, examined)
