import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspines import collapse, spine
from plspines.collapse import (
    DEFAULT_RESTARTS,
    collapses_onto,
    collapses_to_point,
    greedy_collapse,
)
from plspines.core import connected_components, derived, from_facets
from plspines.models import named_triangulation, simplex
from plspines.partitions import single_class
from plspines.recognize import euler_characteristic
from plspines.search import search_min_vertices
from helpers import random_complex, validate_complex

# Fixed example sequence: the suite's data does not change between runs.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_triangle_collapses_to_point():
    assert collapses_to_point(simplex(2))


def test_cycle_has_no_free_faces():
    cyc = from_facets([["a", "b"], ["b", "c"], ["c", "a"]])
    out = greedy_collapse(cyc, seed=0)
    assert out.faces == cyc.faces


def test_derived_tetrahedron_collapses_all_seeds():
    d = derived(simplex(3)).complex
    for seed in range(8):
        out = greedy_collapse(d, seed=seed)
        assert len(out) == 1


def test_output_is_collapse_free_subcomplex():
    rng = random.Random(2)
    for _ in range(15):
        cx = random_complex(rng)
        out = greedy_collapse(cx, seed=rng.randrange(100))
        assert cx.has_subcomplex(out)
        validate_complex(out)
        # no remaining free pair
        cof = out.proper_cofaces
        assert all(len(cof[f]) != 1 for f in out.faces)


def test_deterministic_given_seed():
    rng = random.Random(9)
    for _ in range(5):
        cx = random_complex(rng)
        assert greedy_collapse(cx, seed=4).faces == greedy_collapse(cx, seed=4).faces


def test_collapse_onto_boundary_half():
    # a square made of two triangles collapses onto one boundary edge
    sq = from_facets([["a", "b", "c"], ["b", "c", "d"]])
    target = from_facets([["a", "b"]])
    assert collapses_onto(sq, target)


def test_collapse_onto_requires_subcomplex():
    sq = from_facets([["a", "b", "c"]])
    with pytest.raises(ValueError):
        collapses_onto(sq, from_facets([["x"]]))


def test_annulus_collapses_onto_boundary_circle():
    # prism around: hexagonal annulus between two triangles
    outer = ["a", "b", "c"]
    inner = ["x", "y", "z"]
    fac = []
    for i in range(3):
        fac.append([outer[i], outer[(i + 1) % 3], inner[i]])
        fac.append([outer[(i + 1) % 3], inner[i], inner[(i + 1) % 3]])
    ann = from_facets(fac)
    circle = from_facets([["x", "y"], ["y", "z"], ["z", "x"]])
    assert collapses_onto(ann, circle)
    assert not collapses_to_point(ann, restarts=8)


def _complex_and_subcomplex(seed):
    """A random complex and the closure of a nonempty subset of its facets."""
    rng = random.Random(seed)
    cx = random_complex(rng)
    facets = sorted(cx.facets)
    return cx, from_facets(rng.sample(facets, rng.randint(1, len(facets))))


@PROPERTY
@given(seeds, seeds)
def test_greedy_collapse_preserves_euler_characteristic(cx_seed, run_seed):
    cx, sub = _complex_and_subcomplex(cx_seed)
    chi = euler_characteristic(cx)
    assert euler_characteristic(greedy_collapse(cx, seed=run_seed)) == chi
    assert euler_characteristic(greedy_collapse(cx, seed=run_seed, keep=sub)) == chi


@PROPERTY
@given(seeds, seeds, seeds)
def test_stuck_run_is_stuck_for_every_seed(cx_seed, seed_a, seed_b):
    # a run removes nothing only when no free pair lies outside keep
    cx, sub = _complex_and_subcomplex(cx_seed)
    for keep in (None, sub):
        stuck_a = greedy_collapse(cx, seed=seed_a, keep=keep).faces == cx.faces
        stuck_b = greedy_collapse(cx, seed=seed_b, keep=keep).faces == cx.faces
        assert stuck_a == stuck_b


@PROPERTY
@given(seeds)
def test_certificates_agree_with_plain_restarts(cx_seed):
    # The exact obstructions only cut restarts short: the answer is the
    # one "some seeded greedy run reaches the target" would give.
    cx, sub = _complex_and_subcomplex(cx_seed)
    runs = range(DEFAULT_RESTARTS)
    to_point = len(cx.faces) == 1 or any(
        len(greedy_collapse(cx, seed=s).faces) == 1 for s in runs
    )
    onto = cx.faces == sub.faces or any(
        greedy_collapse(cx, seed=s, keep=sub).faces == sub.faces for s in runs
    )
    assert collapses_to_point(cx) == to_point
    assert collapses_onto(cx, sub) == onto


def _count_calls(monkeypatch, module, name, calls):
    """Append ``name`` to ``calls`` on every call of ``module.name``."""
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def greedy_runs(monkeypatch):
    """Counts the greedy runs the certificates make."""
    runs = []
    _count_calls(monkeypatch, collapse, "greedy_collapse", runs)
    return runs


def _single_class_component(name):
    t = named_triangulation(name)
    ((_, mv),) = spine.regions(t, single_class(t))
    (comp,) = connected_components(mv)
    return comp, spine.boundary_in_t2(t)


def test_torus_search_certifies_with_at_most_one_run_each(greedy_runs, monkeypatch):
    certify_calls = []
    for name in ("collapses_to_point", "collapses_onto"):
        _count_calls(monkeypatch, spine, name, certify_calls)
    res = search_min_vertices(named_triangulation("T2_7"))
    assert res.best_count == 6
    assert certify_calls
    assert len(greedy_runs) <= len(certify_calls)


def test_disc_collar_rejected_by_euler_characteristic(greedy_runs):
    # the whole disc onto its boundary circle: chi 1 against chi 0
    comp, bd2 = _single_class_component("D2_triangle")
    assert spine.certify_region_component(comp, bd2) == ("collar", False, len(comp.faces))
    assert greedy_runs == []


def test_closed_projective_plane_rejected_after_one_run(greedy_runs):
    # chi 1, but a closed surface has no free face
    comp, bd2 = _single_class_component("RP2_6")
    assert euler_characteristic(comp) == 1
    assert spine.certify_region_component(comp, bd2) == ("ball", False, len(comp.faces))
    assert len(greedy_runs) == 1
