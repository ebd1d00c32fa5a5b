"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Regression values for the exhaustive searches (criterion 6) were fixed by a
pre-build exhaustive oracle over all 877 partitions of the 7-vertex torus
and all 203 of the 6-vertex projective plane.
"""

import random
import zlib
from collections import Counter

from plspines.core import from_facets
from plspines.homology import betti
from plspines.models import boundary_sphere, enumerate_normal_discs, named_triangulation
from plspines.nerve import nerve, nerve_checks, stein
from plspines.partitions import discrete, one_vs_rest, vertex_partition
from plspines.recognize import is_closed_pseudomanifold
from plspines.search import search_min_vertices
from plspines.spine import dual_spine, verify_spine
from helpers import (
    hypersurface_from_class,
    is_closed_curve,
    nerve_of_pair,
    pi_boundary,
    rainbow_top_chain_count,
    random_partition_blocks,
    random_simplicial_map,
    stein_checks,
    top_cycle_supports,
    validate_types_against_links,
)

CLOSED_CATALOGUE = (
    "S1_triangle",
    "S2_tetra",
    "S2_oct",
    "RP2_6",
    "T2_7",
    "genus2_10",
    "S3_pentachoron",
)

# exhaustive-oracle regression values (see module docstring)
T2_7_MINIMUM = 6
RP2_6_MINIMUM = 4


def catalogue_spine_family():
    """The dual spines the catalogue criteria quantify over."""
    family = []
    for name in CLOSED_CATALOGUE:
        t = named_triangulation(name)
        parts = [("discrete", discrete(t)), ("one-vs-rest", one_vs_rest(t))]
        rng = random.Random(zlib.crc32(name.encode()))
        for i in range(2):
            blocks = random_partition_blocks(rng, t.vertices)
            parts.append((f"random{i}", vertex_partition(t, blocks)))
        for label, p in parts:
            family.append((name, label, t, p))
    return family


def test_criterion_1_pi_boundary_vertex_counts():
    for n in (1, 2, 3):
        t = boundary_sphere(n)
        s = dual_spine(t, discrete(t))
        type0 = sum(1 for v in s.cell_type.values() if v == 0)
        assert type0 == n + 2
        assert s.vertex_count == n + 2
    print("criterion 1: PASS - boundary local models have n+2 vertices, n=1..3")


def test_criterion_2_normal_disc_census():
    expected = {1: (3, {(2, 1): 3}), 2: (7, {(3, 1): 4, (2, 2): 3}),
                3: (15, {(4, 1): 5, (3, 2): 10})}
    for n, (total, breakdown) in expected.items():
        discs = enumerate_normal_discs(n)
        assert len(discs) == total
        assert Counter(d.type for d in discs) == breakdown
    print("criterion 2: PASS - normal disc census 3/7/15 with exact types")


def test_criterion_3_homology_bijection():
    for n in (2, 3):
        model = pi_boundary(n, 0).model
        assert betti(model, n - 1) == n + 1
        nonzero = [s for s in top_cycle_supports(model) if s]
        assert len(nonzero) == 2 ** (n + 1) - 1
        assert len(nonzero) == len(enumerate_normal_discs(n))
        for s in nonzero:
            sub = hypersurface_from_class(model, s)
            assert is_closed_pseudomanifold(sub)
    print("criterion 3: PASS - mod-2 classes biject with normal discs, n=2,3")


def test_criterion_4_circle_point_nerve():
    s1 = named_triangulation("S1_triangle")
    pt = from_facets([["a"]])
    full = nerve_of_pair(s1, pt)
    assert full.prenerve.f_vector() == (2, 1)  # a segment
    assert betti(full.nerve, 1) == 1
    assert is_closed_curve(full.nerve)
    print("criterion 4: PASS - (circle, point) has segment pre-nerve, circle nerve")


def test_criterion_5_stein_properties():
    rng = random.Random(424242)
    violations = 0
    for _ in range(100):
        f = random_simplicial_map(rng, max_source_faces=40)
        violations += len(stein_checks(stein(f)))
    assert violations == 0
    print("criterion 5: PASS - 100 random Stein factorizations, zero violations")


def test_criterion_6_surface_complexity_bounds():
    res_s2 = search_min_vertices(boundary_sphere(2))
    assert res_s2.proven_exhaustive and res_s2.best_count == 0

    t7 = named_triangulation("T2_7")
    res_t = search_min_vertices(t7)
    assert res_t.proven_exhaustive
    assert res_t.best_count >= 2  # torus complexity lower bound
    assert res_t.best_count == T2_7_MINIMUM  # frozen exhaustive regression

    rp = named_triangulation("RP2_6")
    res_rp = search_min_vertices(rp)
    assert res_rp.proven_exhaustive
    # dual spines are two-sided, so the projective plane's one-sided
    # zero-vertex spine is unreachable here: the bound is >= 1
    assert res_rp.best_count >= 1
    assert res_rp.best_count == RP2_6_MINIMUM  # frozen exhaustive regression
    print(
        "criterion 6: PASS - exhaustive minima: sphere 0, torus "
        f"{res_t.best_count} (>=2), projective plane {res_rp.best_count} (>=1)"
    )


def test_criterion_7_drilling_preserves_vertices(pentachoron_drill_ctx):
    from plspines.drill import drill, prepare, sample_drill_points

    checked = 0
    for name in CLOSED_CATALOGUE:
        t = named_triangulation(name)
        if t.dim != 3:
            continue
        for p in (discrete(t), one_vs_rest(t)):
            if not verify_spine(dual_spine(t, p)).is_yes:
                continue
            s = dual_spine(t, p)
            if p == discrete(t):
                ctx = pentachoron_drill_ctx
            else:
                ctx = prepare(s)
            for k in sample_drill_points(ctx, 20, seed=2026):
                res = drill(ctx, k)
                assert res.vertices_after == res.vertices_before
                checked += 1
    assert checked == 40
    print(f"criterion 7: PASS - {checked} off-skeleton drills, count preserved")


def test_criterion_8_nerve_theorems_on_catalogue():
    checked = 0
    for name, label, t, p in catalogue_spine_family():
        if not verify_spine(dual_spine(t, p)).is_yes:
            continue
        s = dual_spine(t, p)
        np_ = nerve(dual_spine(t, p))
        rep = nerve_checks(np_, s.vertex_count, t.dim)
        assert rep.pseudomanifold_ok, (name, label, rep.failures)
        assert rep.dim_iff_vertices_ok, (name, label, rep.failures)
        checked += 1
    assert checked >= 10
    print(f"criterion 8: PASS - nerve theorems hold on {checked} certified spines")


def test_criterion_9_type_formula_validation():
    cells = 0
    spines = 0
    for name, label, t, p in catalogue_spine_family():
        s = dual_spine(t, p)
        cells += validate_types_against_links(s)  # raises on any disagreement
        spines += 1
    print(
        f"criterion 9: PASS - type formula matches links on {cells} cells "
        f"across {spines} catalogue spines"
    )


def test_criterion_10_singular_simplex_count():
    t = boundary_sphere(2)
    np_ = nerve(dual_spine(t, discrete(t)))
    tops = len(np_.nerve.faces_of_dim(2))
    assert tops == 4 * 36  # one twice-subdivided simplex per spine vertex
    independent = rainbow_top_chain_count(t, np_.poset)
    assert independent == tops
    print(
        "criterion 10: PASS - nerve has 144 top simplexes, matching the "
        "independent chain count"
    )
