"""Benchmark inputs and the reference facts the output checks compare with.

Everything here is independent of the package under test: the generated
complexes are built by this file's own code, and catalogue files are read
with this file's own parser, so a change to the package cannot change an
input or the expected answer silently.  Every input file is hashed.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

Facet = tuple[str, ...]


def parse_facets(text: str) -> list[Facet]:
    """Facets of a complex file: ``dim <d>`` header, one facet per line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split()[0] != "dim":
        raise ValueError("complex file lacks its 'dim <d>' header")
    return [tuple(sorted(ln.split())) for ln in lines[1:]]


def format_facets(facets: list[Facet]) -> str:
    dim = max(len(f) for f in facets) - 1
    return f"dim {dim}\n" + "".join(" ".join(f) + "\n" for f in sorted(facets))


def circle_join_circle() -> list[Facet]:
    """S^1 * S^1 = S^3: each edge of one triangle joined to each edge of another."""
    a = itertools.combinations(("a0", "a1", "a2"), 2)
    b = list(itertools.combinations(("b0", "b1", "b2"), 2))
    return [ea + eb for ea in a for eb in b]


def octahedron() -> list[Facet]:
    """Boundary of the octahedron: one vertex from each antipodal pair."""
    return [tuple(sorted(t)) for t in itertools.product(("x0", "x1"), ("y0", "y1"), ("z0", "z1"))]


def barycentric(facets: list[Facet]) -> list[Facet]:
    """Facets of the order complex of the face poset of a pure complex.

    Each maximal chain of faces is a flag of one facet, so the flags come
    from the orderings of each facet's vertices.  New vertices are named
    ``v<i>`` by the rank of their face in (size, labels) order.
    """
    faces = sorted(
        {f for facet in facets for r in range(1, len(facet) + 1)
         for f in itertools.combinations(facet, r)},
        key=lambda f: (len(f), f),
    )
    name = {f: f"v{i}" for i, f in enumerate(faces)}
    out = set()
    for facet in facets:
        for order in itertools.permutations(facet):
            out.add(tuple(sorted(name[tuple(sorted(order[:k]))] for k in range(1, len(order) + 1))))
    return sorted(out)


def rainbow_count(facets: list[Facet], classes: list[list[str]]) -> int:
    """Facets meeting dim+1 distinct classes: the spine's vertex count.

    Raises ValueError unless ``classes`` partition the vertex set exactly.
    """
    cls = {}
    for i, c in enumerate(classes):
        for v in c:
            if v in cls:
                raise ValueError(f"vertex {v} lies in two classes")
            cls[v] = i
    verts = {v for f in facets for v in f}
    if set(cls) != verts:
        raise ValueError("classes do not partition the vertex set")
    d1 = max(len(f) for f in facets)
    return sum(1 for f in facets if len({cls[v] for v in f}) == d1)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
