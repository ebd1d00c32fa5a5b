import functools

import pytest

from plspines.models import boundary_sphere, named_triangulation
from plspines.partitions import discrete, vertex_partition
from plspines.search import search_min_vertices
from plspines.spine import vertex_count
from helpers import region_certified, set_partitions


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
