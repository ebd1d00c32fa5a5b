"""Euler characteristics, graph and low-dimensional manifold recognition.

Manifold recognition is one rule, recursive in the dimension: a closed
d-manifold is a closed pseudomanifold whose vertex links, read in one
pass by ``core.vertex_links``, are (d-1)-spheres; above dimension 3 the
links are not checked.  The checks report False on non-manifold input
instead of raising.
"""

from __future__ import annotations

import itertools
from collections import Counter

from plspines.core import Complex, closure_faces, is_connected, vertex_links


def euler_characteristic(cx: Complex) -> int:
    return sum(1 if len(f) % 2 == 1 else -1 for f in cx.faces)


def is_pure(cx: Complex) -> bool:
    """Nonempty, and every face lies in a top-dimensional face."""
    if cx.is_empty:
        return False
    return closure_faces(f for f in cx.faces if len(f) == cx.dim + 1) == cx.faces


def ridge_incidence(cx: Complex, d: int | None = None) -> Counter:
    """Count, for each (d-1)-face, the d-faces containing it; d defaults to cx.dim."""
    d = cx.dim if d is None else d
    counts: Counter = Counter()
    for f in cx.faces:
        if len(f) == d + 1:
            for s in itertools.combinations(f, d):
                counts[s] += 1
    return counts


def boundary_complex(cx: Complex) -> Complex:
    """Closure of the codimension-1 faces lying in exactly one top face."""
    return Complex(closure_faces(s for s, n in ridge_incidence(cx).items() if n == 1))


def is_closed_pseudomanifold(cx: Complex) -> bool:
    if cx.is_empty or not is_pure(cx):
        return False
    return all(n == 2 for n in ridge_incidence(cx).values())


# -- graph homeomorphism classification ---------------------------------------


def _trace_arc(adj: dict[str, list[str]], start: str, first: str) -> tuple[str, int]:
    """Walk from ``start`` along ``first`` through degree-2 vertices; returns
    the vertex where the walk stops (a branch vertex, or ``start`` again)
    and the number of edges walked."""
    prev, cur, steps = start, first, 1
    while cur != start and len(adj[cur]) == 2:
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a
        steps += 1
    return cur, steps


def classify_graph(g: Complex) -> str | None:
    """Classify a 1-complex up to homeomorphism among the standard links.

    Returns "points2", "points3", "circle", "theta", or "K4"; None when the
    graph is none of these.  A connected graph with every degree 2 is a
    circle.  Otherwise every branch vertex (degree not 2) must have degree
    3, and every arc traced through the degree-2 vertices must cover the
    graph and end at another branch vertex than its start: two branch
    vertices make a theta, and four whose 12 ordered arc ends are distinct
    make K4.
    """
    if g.is_empty:
        return None
    if g.dim == 0:
        n = len(g.vertices)
        return {2: "points2", 3: "points3"}.get(n)
    if g.dim != 1:
        return None
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    edges = 0
    for f in g.faces:
        if len(f) == 2:
            a, b = f
            adj[a].append(b)
            adj[b].append(a)
            edges += 1
    branch = [v for v, nbrs in adj.items() if len(nbrs) != 2]
    if not branch:
        v = g.vertices[0]
        _, steps = _trace_arc(adj, v, adj[v][0])
        return "circle" if steps == edges else None
    if any(len(adj[v]) != 3 for v in branch):
        return None
    ends: set[tuple[str, str]] = set()
    walked = 0
    for v in branch:
        for w in adj[v]:
            end, steps = _trace_arc(adj, v, w)
            if end == v:
                return None
            ends.add((v, end))
            walked += steps
    if walked != 2 * edges:
        return None  # a circle component without branch vertices
    if len(branch) == 2:
        return "theta"
    if len(branch) == 4 and len(ends) == 12:
        return "K4"
    return None


# -- manifold recognition --------------------------------------------------


def _is_sphere(cx: Complex, k: int) -> bool:
    """Two points for k = 0; for k = 1, 2 a connected closed k-manifold,
    with Euler characteristic 2 when k = 2."""
    if k == 0:
        return cx.dim == 0 and len(cx.faces) == 2
    closed = cx.dim == k and is_connected(cx) and is_closed_manifold(cx)
    return closed and (k == 1 or euler_characteristic(cx) == 2)


def is_closed_manifold(cx: Complex) -> bool:
    """Nonempty for d = 0; for d >= 1 a closed pseudomanifold whose vertex
    links are (d-1)-spheres, the links checked only up to d = 3."""
    d = cx.dim
    if d <= 0:
        return d == 0
    if not is_closed_pseudomanifold(cx):
        return False
    if d > 3:
        return True
    return all(_is_sphere(lk, d - 1) for lk in vertex_links(cx.faces, cx.vertices).values())
