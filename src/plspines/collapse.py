"""Elementary collapses and greedy collapsibility certificates.

A free pair is a face properly contained in exactly one other face;
removing both is an elementary collapse.  The greedy driver removes free
pairs until none remain.  A certificate first applies two exact
obstructions: an elementary collapse keeps the Euler characteristic, so
a complex whose characteristic differs from its target's (1 for a point)
is not collapsible onto it; and a greedy run that removes nothing finds
no free pair at all, so no scan order can remove anything either.  Past
those, a failed run means "not collapsed", never "not collapsible", and
certificates are taken over several seeded restarts.
"""

from __future__ import annotations

import random

from plspines.core import Complex, Face, proper_subfaces
from plspines.recognize import euler_characteristic

DEFAULT_RESTARTS = 32


def greedy_collapse(cx: Complex, seed: int = 0, keep: Complex | None = None) -> Complex:
    """Collapse free pairs until none remain; the scan order is seeded.

    Faces of ``keep`` are never removed, which turns the collapse into a
    collapse onto that subcomplex when it succeeds.
    """
    keep_faces = keep.faces if keep is not None else frozenset()
    live: set[Face] = set(cx.faces)
    cof = {f: set(c) for f, c in cx.proper_cofaces.items()}

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
                c = cof[s]
                c.discard(removed)
                if s in live and len(c) == 1:
                    queue.append(s)
    return Complex(frozenset(live))


def _restarts(
    cx: Complex, keep: Complex | None, size: int, restarts: int, seed: int
) -> bool:
    """Seeded greedy runs until one leaves ``size`` faces; a run that
    removes nothing finds no free pair, an exact "no" for every run."""
    for s in range(restarts):
        left = len(greedy_collapse(cx, seed=seed + s, keep=keep).faces)
        if left == size:
            return True
        if left == len(cx.faces):
            return False
    return False


def collapses_to_point(
    cx: Complex, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> bool:
    """Ball certificate: some seeded run collapses cx to one vertex.

    ``False`` is exact when the Euler characteristic is not 1 or when cx
    has no free pair; otherwise it only means no run collapsed cx.
    """
    if euler_characteristic(cx) != 1:
        return False
    if len(cx.faces) == 1:
        return True
    return _restarts(cx, None, 1, restarts, seed)


def collapses_onto(
    cx: Complex, target: Complex, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> bool:
    """Certificate that cx collapses onto the subcomplex target.

    ``False`` is exact when the Euler characteristics differ or when no
    free pair lies outside target; otherwise it only means no run reached
    it.  A run keeps every face of target, so it ends at target exactly
    when it leaves as many faces as target has.
    """
    if not cx.has_subcomplex(target):
        raise ValueError("target is not a subcomplex")
    if cx.faces == target.faces:
        return True
    if euler_characteristic(cx) != euler_characteristic(target):
        return False
    return _restarts(cx, target, len(target.faces), restarts, seed)
