from plspines.core import from_facets
from plspines.models import boundary_sphere, named_triangulation
from plspines.recognize import (
    boundary_complex,
    euler_characteristic,
    is_closed_3manifold,
    is_closed_curve,
    is_closed_manifold,
    is_closed_pseudomanifold,
    is_closed_surface,
    is_pure,
)
from helpers import is_surface_with_boundary


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
