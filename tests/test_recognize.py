import random

from hypothesis import given, settings
from hypothesis import strategies as st

from plspines.core import cone, face_link, from_facets, join, suspension, vertex_links
from plspines.models import boundary_sphere, catalogue_names, named_triangulation
from plspines.recognize import (
    boundary_complex,
    euler_characteristic,
    is_closed_manifold,
    is_closed_pseudomanifold,
    is_pure,
)
from helpers import (
    is_closed_3manifold,
    is_closed_curve,
    is_closed_surface,
    is_pure_by_facets,
    is_surface_with_boundary,
    random_complex,
    random_pure_complex,
    wedge_of_tetra_boundaries,
)


def test_sphere_chi_and_surface(sphere2):
    assert euler_characteristic(sphere2) == 2
    assert is_closed_surface(sphere2)


def test_torus_chi(torus7):
    assert euler_characteristic(torus7) == 0
    assert is_closed_surface(torus7)


def test_three_manifold(sphere3):
    assert is_closed_3manifold(sphere3)
    assert is_closed_manifold(sphere3)


def test_catalogue_kinds():
    checks = {
        "closed curve": is_closed_curve,
        "closed surface": is_closed_surface,
        "closed 3-manifold": is_closed_3manifold,
        "surface with boundary": is_surface_with_boundary,
    }
    from plspines.models import CATALOGUE

    for name, kind in CATALOGUE.items():
        cx = named_triangulation(name)
        assert checks[kind](cx), name


def test_non_pure_rejected():
    cx = from_facets([["a", "b", "c"], ["c", "d"]])
    assert not is_pure(cx)
    assert not is_closed_surface(cx)
    assert not is_closed_manifold(cx)


def test_disc_boundary():
    disc = named_triangulation("D2_triangle")
    bd = boundary_complex(disc)
    assert is_closed_curve(bd)
    assert len(bd.faces_of_dim(1)) == 3


def test_pinched_surface_rejected():
    # two triangles sharing only a vertex: links fail
    cx = from_facets([["a", "b", "c"], ["a", "d", "e"]])
    assert not is_closed_surface(cx)
    assert not is_surface_with_boundary(cx)


def test_pseudomanifold_dim4():
    bd4 = boundary_sphere(4)
    assert is_closed_pseudomanifold(bd4)
    assert is_closed_manifold(bd4)


def test_wedge_rejected():
    wedge = wedge_of_tetra_boundaries()
    assert is_closed_pseudomanifold(wedge)
    assert not is_closed_manifold(wedge)


def _by_dimension(cx) -> bool:
    """The oracle: one per-dimension check, weaker above dimension 3."""
    d = cx.dim
    if d <= 0:
        return not cx.is_empty and d == 0
    checks = {1: is_closed_curve, 2: is_closed_surface, 3: is_closed_3manifold}
    return checks.get(d, is_closed_pseudomanifold)(cx)


def _equivalence_input(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return random_complex(rng)
    if kind == 1:
        d = rng.randint(1, 3)
        return random_pure_complex(rng, d, rng.randint(d + 1, 8), rng.randint(1, 12))
    # suspensions, cones and joins of catalogue entries, up to dimension 7:
    # manifolds, closed pseudomanifolds that are not, and cones on both
    a, b = (named_triangulation(rng.choice(catalogue_names())) for _ in range(2))
    return rng.choice([suspension, cone, lambda a: join(a, b), lambda a: a])(a)


# Fixed example sequence: the suite's data does not change between runs.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_recursion_matches_per_dimension_checks(seed):
    cx = _equivalence_input(random.Random(seed))
    assert is_closed_manifold(cx) == _by_dimension(cx)
    links = vertex_links(cx.faces, cx.vertices)
    assert list(links) == list(cx.vertices)
    for v in cx.vertices:
        assert links[v] == face_link((v,), cx)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_purity_by_closure_matches_facets(seed):
    rng = random.Random(seed)
    if rng.randrange(2):
        cx = random_complex(rng)
    else:
        d = rng.randint(1, 3)
        cx = random_pure_complex(rng, d, rng.randint(d + 1, 8), rng.randint(1, 12))
    assert is_pure(cx) == is_pure_by_facets(cx)
