import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspines.core import connected_components, derived, subcomplex_spanned
from plspines.models import CATALOGUE, boundary_sphere, catalogue_names, named_triangulation
from plspines.partitions import discrete, vertex_partition
from plspines.recognize import euler_characteristic
from plspines.search import (
    certified_classes,
    search_min_vertices,
    skeleton_masks,
    span_components,
    span_euler_characteristic,
)
from plspines.spine import vertex_count
from helpers import certify_class, class_first_search, region_certified, set_partitions

CLOSED = [name for name, kind in CATALOGUE.items() if kind.startswith("closed")]
SPHERES = {f"boundary_sphere({d})": d for d in (2, 3)}


def test_set_partitions_count():
    items = tuple("abcd")
    assert sum(1 for _ in set_partitions(items)) == 15


def test_set_partitions_match_bell_numbers():
    counts = [sum(1 for _ in set_partitions(tuple("abcdefg")[:n])) for n in range(8)]
    assert counts == [1, 1, 2, 5, 15, 52, 203, 877]


def test_sphere_best_zero(sphere2):
    res = search_min_vertices(sphere2)
    assert res.proven_exhaustive
    assert res.best_count == 0


def test_open_manifold_rejected():
    disc = named_triangulation("D2_triangle")
    with pytest.raises(ValueError):
        search_min_vertices(disc)


def _brute_force(t):
    """Least (count, canonical key) over every set partition whose classes
    all pass the T'' region certificate."""
    ok = functools.lru_cache(maxsize=None)(lambda cls: region_certified(t, cls))
    best = None
    for blocks in set_partitions(t.vertices):
        p = vertex_partition(t, blocks)
        if all(ok(c) for c in p.classes):
            cand = (vertex_count(t, p), p.canonical_key())
            best = cand if best is None or cand < best else best
    return best


@pytest.mark.parametrize(
    "name", ["boundary_sphere(2)", "S2_tetra", "S2_oct", "RP2_6", "T2_7", "S3_pentachoron"]
)
def test_class_first_equals_brute_force(name):
    t = boundary_sphere(2) if name == "boundary_sphere(2)" else named_triangulation(name)
    res = search_min_vertices(t)
    assert res.proven_exhaustive
    assert (res.best_count, res.best_partition.canonical_key()) == _brute_force(t)


def test_cap_is_compared_with_the_subset_count(torus7):
    n = len(torus7.vertices)
    assert search_min_vertices(torus7, cap=2**n).proven_exhaustive
    assert not search_min_vertices(torus7, cap=2**n - 1).proven_exhaustive


@pytest.mark.parametrize("name", ["T2_7", "S3_pentachoron"])
def test_above_cap_returns_discrete(name):
    t = named_triangulation(name)
    res = search_min_vertices(t, cap=1)
    assert not res.proven_exhaustive
    assert res.best_partition == discrete(t)
    assert res.best_count == len(t.facets)
    assert res.partitions_examined == 1


@pytest.mark.parametrize(
    "name, cap",
    [(name, 100_000) for name in CLOSED + list(SPHERES)] + [("T2_7", 1), ("T2_7", 2**7)],
)
def test_bounded_search_equals_unbounded(name, cap):
    t = boundary_sphere(SPHERES[name]) if name in SPHERES else named_triangulation(name)
    res = search_min_vertices(t, cap=cap)
    got = (res.best_count, res.best_partition.canonical_key(), res.proven_exhaustive)
    assert got == class_first_search(t, cap=cap)


@pytest.mark.parametrize("name", ["T2_7", "RP2_6", "genus2_10", "S3_pentachoron"])
def test_certified_classes_equal_certify_class(name):
    t = named_triangulation(name)
    verts = t.vertices
    every = range(1, 1 << len(verts))
    expected = [
        m for m in every if certify_class(t, frozenset(v for i, v in enumerate(verts) if m >> i & 1))
    ]
    assert certified_classes(t, every) == expected


# Fixed example sequence: the suite's data does not change between runs.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mask_components_and_chi_equal_span_components(seed):
    rng = random.Random(seed)
    t = named_triangulation(rng.choice(catalogue_names()))
    if rng.randrange(2):
        t = derived(t).complex
    verts = t.vertices
    m = rng.getrandbits(len(verts))
    adjacency, signed = skeleton_masks(t)
    span = subcomplex_spanned(t, (v for i, v in enumerate(verts) if m >> i & 1))
    comps = connected_components(span)
    mask = lambda cx: sum(1 << verts.index(v) for v in cx.vertices)  # noqa: E731
    assert span_components(adjacency, m) == [mask(c) for c in comps]
    assert [span_euler_characteristic(signed, mask(c)) for c in comps] == [
        euler_characteristic(c) for c in comps
    ]
    assert span_euler_characteristic(signed, m) == euler_characteristic(span)
