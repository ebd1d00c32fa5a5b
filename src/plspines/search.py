"""Search over vertex partitions minimizing the spine vertex count.

Class first: a partition certifies exactly when each of its classes does
(``spine.certify_class``), since a region depends only on its own class.
Every non-empty vertex class is certified once, and only the partitions
built from certified classes are enumerated, by choosing the class of the
lowest unassigned vertex.  The rainbow count is kept incremental: each
class marks, as a bitmask over the facets, the facets it meets in two or
more vertices, and a facet is rainbow exactly when no class marks it.
The least ``(count, canonical_key)`` wins.

The search is exhaustive, and proven so, when the 2**n vertex subsets of
an n-vertex complex fit the cap.  Above the cap only the singleton
classes are certified, so the answer is the discrete partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from plspines.core import Complex
from plspines.partitions import VertexPartition, vertex_partition
from plspines.recognize import is_closed_manifold
from plspines.spine import certify_class


@dataclass(frozen=True)
class SearchResult:
    best_partition: VertexPartition
    best_count: int
    proven_exhaustive: bool
    # partitions built from certified classes; each one is certified
    partitions_examined: int

    @property
    def partitions_certified(self) -> int:
        """``partitions_examined``: only partitions of certified classes are
        enumerated.  Kept because the benchmark's trace harness reads it."""
        return self.partitions_examined


def search_min_vertices(t: Complex, cap: int = 100_000, seed: int = 0) -> SearchResult:
    """Minimize the vertex count over partitions with a "yes" certificate.

    Exhaustive (and proven so) when 2**(#vertices) fits the cap; otherwise
    the discrete partition.  Either way an answer exists: a singleton class
    spans a point, which ``certify_class`` always accepts, so the discrete
    partition is always enumerated.
    """
    if t.dim < 1 or not is_closed_manifold(t):
        raise ValueError("search requires a closed manifold triangulation of dimension >= 1")
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

    examined = 0
    best = None
    for cand in partitions((1 << n) - 1, 0, ()):
        examined += 1
        if best is None or cand < best:
            best = cand
    count, key = best
    return SearchResult(vertex_partition(t, key), count, exhaustive, examined)
