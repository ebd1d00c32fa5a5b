"""Euler characteristics and low-dimensional manifold recognition.

Manifold checks work by link recognition: two-point links in dimension 1,
cycle/arc links in dimension 2, and 2-sphere links in dimension 3.  Higher
dimensions fall back to a weaker pure + pseudomanifold test.  The checks
report False on non-manifold input instead of raising.
"""

from __future__ import annotations

import itertools
from collections import Counter

from plspines.core import Complex, closure_faces, face_link, is_connected


def euler_characteristic(cx: Complex) -> int:
    return sum(1 if len(f) % 2 == 1 else -1 for f in cx.faces)


def is_pure(cx: Complex, dim: int | None = None) -> bool:
    if cx.is_empty:
        return False
    d = cx.dim if dim is None else dim
    return all(len(f) == d + 1 for f in cx.facets)


def ridge_incidence(cx: Complex) -> Counter:
    """Count, for each codimension-1 face, the top faces containing it."""
    d = cx.dim
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


# -- graph-level link predicates ------------------------------------------


def _degrees(g: Complex) -> dict[str, int]:
    deg = {v: 0 for v in g.vertices}
    for f in g.faces:
        if len(f) == 2:
            deg[f[0]] += 1
            deg[f[1]] += 1
    return deg


def is_single_cycle(g: Complex) -> bool:
    if g.is_empty or g.dim != 1:
        return False
    deg = _degrees(g)
    return all(d == 2 for d in deg.values()) and is_connected(g)


# -- manifold recognition --------------------------------------------------


def is_closed_curve(cx: Complex) -> bool:
    return cx.dim == 1 and is_pure(cx) and all(
        len([f for f in cx.vertex_faces[v] if len(f) == 2]) == 2 for v in cx.vertices
    )


def is_closed_surface(cx: Complex) -> bool:
    """Every edge in two triangles and every vertex link a single cycle."""
    if cx.dim != 2 or not is_pure(cx):
        return False
    if any(n != 2 for n in ridge_incidence(cx).values()):
        return False
    return all(is_single_cycle(face_link((v,), cx)) for v in cx.vertices)


def is_closed_3manifold(cx: Complex) -> bool:
    """Pure, two tetrahedra per triangle, and every vertex link a 2-sphere."""
    if cx.dim != 3 or not is_pure(cx):
        return False
    if any(n != 2 for n in ridge_incidence(cx).values()):
        return False
    for v in cx.vertices:
        lk = face_link((v,), cx)
        if not (is_connected(lk) and euler_characteristic(lk) == 2 and is_closed_surface(lk)):
            return False
    return True


def is_closed_manifold(cx: Complex) -> bool:
    """Dimension-appropriate closed check; weaker pseudomanifold test above 3."""
    d = cx.dim
    if d <= 0:
        return not cx.is_empty and d == 0
    if d == 1:
        return is_closed_curve(cx)
    if d == 2:
        return is_closed_surface(cx)
    if d == 3:
        return is_closed_3manifold(cx)
    return is_closed_pseudomanifold(cx)
