"""Seeded random generators and oracles shared by the test modules."""

import random

import numpy as np

from plspines.core import Complex, SimplicialMap, derived, from_facets
from plspines.homology import GF2Matrix


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
            frozenset(comp[cell] for cell in dtt.chain_of(c2))
            for c2 in d3.chain_of(face)
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
