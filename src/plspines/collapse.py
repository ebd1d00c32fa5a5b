"""Elementary collapses and greedy collapsibility certificates.

A free pair is a face properly contained in exactly one other face;
removing both is an elementary collapse.  The greedy driver removes free
pairs until none remain.  Collapsibility testing is a heuristic: a failed
run means "not collapsed", never "not collapsible", so certificates are
taken over several seeded restarts.
"""

from __future__ import annotations

import random

from plspines.core import Complex, Face, proper_subfaces

DEFAULT_RESTARTS = 32


def greedy_collapse(cx: Complex, seed: int = 0, keep: Complex | None = None) -> Complex:
    """Collapse free pairs until none remain; the scan order is seeded.

    Faces of ``keep`` are never removed, which turns the collapse into a
    collapse onto that subcomplex when it succeeds.
    """
    keep_faces = keep.faces if keep is not None else frozenset()
    live: set[Face] = set(cx.faces)
    cof: dict[Face, set[Face]] = {f: set() for f in live}
    for f in live:
        for s in proper_subfaces(f):
            cof[s].add(f)

    rng = random.Random(seed)
    queue = [f for f in cx.faces_sorted if len(cof[f]) == 1]
    rng.shuffle(queue)

    while queue:
        sigma = queue.pop()
        if sigma not in live or len(cof[sigma]) != 1 or sigma in keep_faces:
            continue
        (eta,) = cof[sigma]
        if eta in keep_faces:
            continue
        live.discard(sigma)
        live.discard(eta)
        for removed in (sigma, eta):
            for s in proper_subfaces(removed):
                c = cof.get(s)
                if c is None:
                    continue
                c.discard(removed)
                if s in live and len(c) == 1:
                    queue.append(s)
    return Complex(frozenset(live))


def collapses_to_point(
    cx: Complex, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> bool:
    """Heuristic ball certificate: some seeded run collapses cx to one vertex."""
    if cx.is_empty:
        return False
    if len(cx.faces) == 1:
        return True
    for s in range(restarts):
        out = greedy_collapse(cx, seed=seed + s)
        if len(out.faces) == 1:
            return True
    return False


def collapses_onto(
    cx: Complex, target: Complex, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> bool:
    """Heuristic certificate that cx collapses onto the subcomplex target."""
    if not cx.has_subcomplex(target):
        raise ValueError("target is not a subcomplex")
    if cx.faces == target.faces:
        return True
    for s in range(restarts):
        out = greedy_collapse(cx, seed=seed + s, keep=target)
        if out.faces == target.faces:
            return True
    return False
