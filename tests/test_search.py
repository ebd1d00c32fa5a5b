import pytest

from plspines.models import named_triangulation
from plspines.search import (
    SearchBudget,
    bell_number,
    search_min_vertices,
    set_partitions,
)


def test_bell_numbers():
    assert [bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_set_partitions_count():
    items = tuple("abcd")
    assert sum(1 for _ in set_partitions(items)) == 15


def test_sphere_best_zero(sphere2):
    res = search_min_vertices(sphere2)
    assert res.proven_exhaustive
    assert res.best_count == 0


def test_open_manifold_rejected():
    disc = named_triangulation("D2_triangle")
    with pytest.raises(ValueError):
        search_min_vertices(disc)


def test_annealing_deterministic(sphere2):
    budget = SearchBudget(exhaustive_cap=1, steps=300, restarts=2)
    a = search_min_vertices(sphere2, budget, seed=5)
    b = search_min_vertices(sphere2, budget, seed=5)
    assert not a.proven_exhaustive
    assert a.best_count == b.best_count
    assert a.best_partition == b.best_partition


def test_annealing_monotone_under_budget(sphere2):
    small = SearchBudget(exhaustive_cap=1, steps=100, restarts=1)
    big = SearchBudget(exhaustive_cap=1, steps=800, restarts=1)
    a = search_min_vertices(sphere2, small, seed=3)
    b = search_min_vertices(sphere2, big, seed=3)
    assert b.best_count <= a.best_count


def test_annealing_falls_back_to_discrete(torus7):
    # tiny budget: the discrete partition is always kept as a candidate
    budget = SearchBudget(exhaustive_cap=1, steps=20, restarts=1)
    res = search_min_vertices(torus7, budget, seed=0)
    assert res.best_partition is not None


def test_parallel_jobs_deterministic(sphere2):
    budget = SearchBudget(exhaustive_cap=1, steps=200, restarts=2)
    a = search_min_vertices(sphere2, budget, seed=1, jobs=2)
    b = search_min_vertices(sphere2, budget, seed=1, jobs=2)
    assert a.best_count == b.best_count
    assert a.best_partition == b.best_partition

    odd = SearchBudget(exhaustive_cap=1, steps=201, restarts=2)
    assert search_min_vertices(sphere2, odd, seed=1, jobs=2).partitions_examined == 200
