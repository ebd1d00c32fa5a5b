"""Search over vertex partitions minimizing the spine vertex count.

Exhaustive when the Bell number of the vertex set fits the budget,
otherwise seeded simulated annealing over partition moves (merge two
classes, split a class, relocate one vertex).  Only partitions whose
complement certificate is "yes" count; certification is cached per class,
since a region depends only on its own class.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from plspines.core import Complex, InvariantViolation, connected_components
from plspines.partitions import VertexPartition, discrete, vertex_partition
from plspines.recognize import is_closed_manifold
from plspines.spine import (
    boundary_in_t2,
    certify_region_component,
    rainbow_count,
    region_of_class,
    vertex_count,
)


@dataclass(frozen=True)
class SearchBudget:
    exhaustive_cap: int = 100_000
    steps: int = 20_000
    restarts: int = 4
    pool: int = 32


@dataclass(frozen=True)
class SearchResult:
    best_partition: VertexPartition | None
    best_count: int | None
    proven_exhaustive: bool
    partitions_examined: int
    partitions_certified: int


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


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


class _ClassCertifier:
    """Caches, per class, whether its region components all certify."""

    def __init__(self, t: Complex, seed: int = 0):
        self.t = t
        self.seed = seed
        self.cache: dict[frozenset[str], bool] = {}
        self._bd2 = boundary_in_t2(t)

    def class_ok(self, cls: frozenset[str]) -> bool:
        got = self.cache.get(cls)
        if got is None:
            mv = region_of_class(self.t, cls)
            got = all(
                certify_region_component(comp, self._bd2, seed=self.seed)[1]
                for comp in connected_components(mv)
            )
            self.cache[cls] = got
        return got

    def certified(self, p: VertexPartition) -> bool:
        return all(self.class_ok(c) for c in p.classes)


def _anneal_once(t: Complex, steps: int, restarts: int, pool: int, seed: int):
    """One seeded annealing run; returns [(count, canonical_classes)]."""
    rng = random.Random(seed)
    verts = list(t.vertices)
    current = [[v] for v in verts]

    def count_of(blocks) -> int:
        return rainbow_count(t, {v: i for i, b in enumerate(blocks) for v in b})

    def propose(blocks):
        blocks = [list(b) for b in blocks]
        move = rng.randrange(3)
        if move == 0 and len(blocks) >= 2:  # merge
            i, j = rng.sample(range(len(blocks)), 2)
            blocks[i].extend(blocks[j])
            del blocks[j]
        elif move == 1:  # split
            i = rng.randrange(len(blocks))
            if len(blocks[i]) >= 2:
                b = blocks[i]
                rng.shuffle(b)
                cut = rng.randrange(1, len(b))
                blocks[i] = sorted(b[:cut])
                blocks.append(sorted(b[cut:]))
        else:  # relocate one vertex
            i = rng.randrange(len(blocks))
            v = rng.choice(sorted(blocks[i]))
            blocks[i].remove(v)
            if not blocks[i]:
                del blocks[i]
            j = rng.randrange(len(blocks) + 1)
            if j == len(blocks):
                blocks.append([v])
            else:
                blocks[j].append(v)
        return blocks

    def canon(blocks):
        return tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))

    best = current
    best_e = count_of(current)
    cur_e = best_e
    candidates = {canon(current): best_e}
    temp = max(1.0, best_e)
    per_restart = max(1, steps // max(1, restarts))
    for step in range(steps):
        if step and step % per_restart == 0:
            current = [list(b) for b in best]  # restart from best
            cur_e = best_e
            temp = max(1.0, best_e)
        prop = propose(current)
        e = count_of(prop)
        if e <= cur_e or rng.random() < math.exp(-(e - cur_e) / max(temp, 1e-9)):
            current, cur_e = prop, e
            key = canon(current)
            if key not in candidates:
                candidates[key] = e
            if e < best_e:
                best, best_e = [list(b) for b in current], e
        temp *= 0.995
    ranked = sorted(candidates.items(), key=lambda kv: (kv[1], kv[0]))
    return [(e, key) for key, e in ranked[:pool]]


def search_min_vertices(
    t: Complex,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
    jobs: int = 1,
) -> SearchResult:
    """Minimize the vertex count over partitions with a "yes" certificate.

    Exhaustive (and proven so) when Bell(#vertices) fits the budget cap;
    otherwise annealing proposes candidates that are then certified in
    ascending count order.  The discrete partition is always kept as a
    fallback candidate: for closed manifolds of dimension at most 3 it must
    certify, and if it does not the failure is reported as a bug.
    """
    if not is_closed_manifold(t):
        raise ValueError("search requires a closed manifold triangulation")
    verts = t.vertices
    certifier = _ClassCertifier(t, seed=seed)
    exhaustive = bell_number(len(verts)) <= budget.exhaustive_cap

    examined = 0
    if exhaustive:
        candidates = []
        for blocks in set_partitions(verts):
            examined += 1
            p = vertex_partition(t, blocks)
            candidates.append((vertex_count(t, p), p.canonical_key()))
        candidates.sort()
    else:
        if jobs > 1:
            seeds = [seed + i for i in range(jobs)]
            per_steps = max(1, budget.steps // jobs)
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                parts = list(
                    ex.map(
                        _anneal_worker,
                        [(t, per_steps, budget.restarts, budget.pool, s) for s in seeds],
                    )
                )
            merged: dict[tuple, int] = {}
            for part in parts:
                for e, key in part:
                    merged.setdefault(key, e)
            candidates = sorted((e, key) for key, e in merged.items())
            examined = per_steps * jobs
        else:
            candidates = _anneal_once(t, budget.steps, budget.restarts, budget.pool, seed)
            examined = budget.steps
        disc = discrete(t)
        key = disc.canonical_key()
        if key not in {k for _, k in candidates}:
            candidates.append((vertex_count(t, disc), key))
        candidates.sort()

    certified_checked = 0
    for count, key in candidates:
        p = vertex_partition(t, [list(c) for c in key])
        certified_checked += 1
        if certifier.certified(p):
            return SearchResult(p, count, exhaustive, examined, certified_checked)

    if t.dim <= 3:
        raise InvariantViolation(
            "no partition certified, but the discrete partition of a closed "
            "manifold of dimension <= 3 must certify"
        )
    return SearchResult(None, None, exhaustive, examined, certified_checked)


def _anneal_worker(args):
    t, steps, restarts, pool, s = args
    return _anneal_once(t, steps, restarts, pool, s)
