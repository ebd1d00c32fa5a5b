import itertools
import random

import pytest

from plspines.collapse import collapses_to_point
from plspines.core import derived, from_facets, join, suspension
from plspines.models import CATALOGUE, boundary_sphere, catalogue_names, named_triangulation, simplex
from plspines.partitions import discrete, one_vs_rest, single_class, vertex_partition
from plspines.recognize import euler_characteristic
from plspines import spine
from plspines.spine import (
    dual_spine,
    vertex_count,
    verify_spine,
)
from helpers import (
    certify_class,
    dual_cells_direct,
    random_partition_blocks,
    random_pure_complex,
    region_certified,
    regions,
    set_partitions,
    spine_neighborhood,
    unchecked_spine,
    validate_complex,
    wedge_of_tetra_boundaries,
)
from test_acceptance import catalogue_spine_family


class TestDualSpine:
    def test_k4_spine(self, sphere2, k4_spine):
        assert k4_spine.as_complex().f_vector() == (10, 12)
        assert k4_spine.vertex_count == 4
        assert euler_characteristic(k4_spine.as_complex()) == -2

    def test_equator(self, sphere2, equator_partition):
        s = dual_spine(sphere2, equator_partition)
        assert s.vertex_count == 0
        from helpers import is_closed_curve

        assert is_closed_curve(s.as_complex())

    def test_pentachoron(self, pentachoron_spine):
        assert pentachoron_spine.vertex_count == 5
        assert pentachoron_spine.as_complex().f_vector() == (25, 80, 60)

    def test_cells_form_subcomplex(self, k4_spine):
        validate_complex(k4_spine.as_complex())

    def test_not_pure_rejected(self):
        cx = from_facets([["a", "b", "c"], ["c", "d"]])
        with pytest.raises(ValueError):
            dual_spine(cx, discrete(cx))

    def test_boundary_respect_enforced(self):
        disc = named_triangulation("D2_triangle")
        with pytest.raises(ValueError):
            dual_spine(disc, discrete(disc))
        # single class respects the (connected) boundary
        s = dual_spine(disc, single_class(disc))
        assert s.as_complex().is_empty

    def test_chain_rule_matches_direct_on_random_cases(self):
        # the closed-form rule must coincide with the literal construction
        rng = random.Random(42)
        cases = 0
        while cases < 100:
            d = rng.randint(1, 3)
            t = random_pure_complex(
                rng, d, rng.randint(d + 2, 7), rng.randint(2, 8)
            )
            if t.dim != d:
                continue
            p = vertex_partition(t, random_partition_blocks(rng, t.vertices))
            s = unchecked_spine(t, p)
            assert s.cells == dual_cells_direct(t, p.classes), (t.facets, p)
            cases += 1
        # every set partition of the simplexes and spheres the local models
        # of plspines.models live on (94 cases)
        ambients = [simplex(n + 1) for n in range(3)] + [boundary_sphere(n) for n in (1, 2, 3)]
        for t in ambients:
            for blocks in set_partitions(t.vertices):
                p = vertex_partition(t, blocks)
                s = unchecked_spine(t, p)
                assert s.cells == dual_cells_direct(t, p.classes), (t.facets, p)
                cases += 1
        assert cases == 100 + 94


class TestVertexCount:
    def test_equator_zero(self, sphere2, equator_partition):
        assert vertex_count(sphere2, equator_partition) == 0

    def test_k4_four(self, sphere2):
        assert vertex_count(sphere2, discrete(sphere2)) == 4

    def test_torus_discrete_all_tricolored(self, torus7):
        assert vertex_count(torus7, discrete(torus7)) == 14

    def test_discrete_counts_all_top_simplexes(self):
        # witnesses the triangulation upper bound: every top simplex counts
        for name in ("S2_tetra", "T2_7", "RP2_6", "genus2_10", "S3_pentachoron"):
            t = named_triangulation(name)
            d = t.dim
            assert vertex_count(t, discrete(t)) == len(t.faces_of_dim(d))


class TestRegions:
    def test_equator_two_ball_regions(self, sphere2, equator_partition):
        dec = regions(dual_spine(sphere2, equator_partition))
        assert len(dec) == 2
        for _, mv in dec:
            assert collapses_to_point(mv)

    def test_discrete_four_disc_regions(self, sphere2):
        dec = regions(dual_spine(sphere2, discrete(sphere2)))
        assert len(dec) == 4
        for _, mv in dec:
            assert euler_characteristic(mv) == 1
            assert collapses_to_point(mv)

    def test_disc_single_class_covers_everything(self):
        disc = named_triangulation("D2_triangle")
        dec = regions(dual_spine(disc, single_class(disc)))
        assert len(dec) == 1
        assert dec[0][1].faces == derived(derived(disc).complex).complex.faces
        assert spine_neighborhood(disc, dec).is_empty

    def test_regions_partition_top_simplexes(self, sphere2, equator_partition, torus7):
        cases = [
            (sphere2, discrete(sphere2)),
            (sphere2, equator_partition),
            (torus7, discrete(torus7)),
            (torus7, one_vs_rest(torus7)),
        ]
        for t, p in cases:
            dec = regions(dual_spine(t, p))
            d2 = derived(derived(t).complex).complex
            nbhd = spine_neighborhood(t, dec)
            tops = d2.faces_of_dim(d2.dim)
            for f in tops:
                owners = sum(1 for _, mv in dec if f in mv.faces)
                in_nbhd = f in nbhd.faces
                assert owners + (1 if in_nbhd else 0) == 1

    @pytest.mark.parametrize("name", catalogue_names() + ("S1*S1",))
    def test_regions_pairwise_disjoint(self, name):
        # disjointness follows from the chain rule; regions() does not check it
        circle = boundary_sphere(1)
        t = join(circle, circle) if name == "S1*S1" else named_triangulation(name)
        parts = [discrete(t), one_vs_rest(t), single_class(t)] + [
            vertex_partition(t, random_partition_blocks(random.Random(seed), t.vertices))
            for seed in range(3)
        ]
        for p in parts:
            try:
                spine.check_boundary_respect(t, p)
            except ValueError:  # splits a boundary component
                continue
            dec = regions(dual_spine(t, p))
            for (_, a), (_, b) in itertools.combinations(dec, 2):
                assert a.faces.isdisjoint(b.faces)


class TestVerifySpine:
    def test_equator_yes(self, sphere2, equator_partition):
        cert = verify_spine(dual_spine(sphere2, equator_partition))
        assert cert.certificate == "yes"
        assert [r.kind for r in cert.region_reports] == ["ball", "ball"]

    def test_torus_discrete_yes(self, torus7):
        cert = verify_spine(dual_spine(torus7, discrete(torus7)))
        assert cert.certificate == "yes"
        assert cert.vertices == 14
        assert len(cert.region_reports) == 7

    def test_rp2_two_classes_unknown(self, rp2):
        cert = verify_spine(dual_spine(rp2, one_vs_rest(rp2)))
        assert cert.certificate == "unknown"
        # the non-disc region is the Moebius strip around the 5-vertex span
        failing = [r for r in cert.region_reports if not r.ok]
        assert len(failing) == 1

    def test_disc_boundary_collar(self):
        # disc, boundary class + inner vertex: collar region and ball region
        disc = from_facets(
            [["a", "b", "m"], ["b", "c", "m"], ["a", "c", "m"]]
        )
        p = vertex_partition(disc, [["a", "b", "c"], ["m"]])
        s = dual_spine(disc, p)
        cert = verify_spine(s)
        assert cert.certificate == "yes"
        kinds = sorted(r.kind for r in cert.region_reports)
        assert kinds == ["ball", "collar"]
        # the collar is certified on its region, the inner point on its span
        (collar,) = [r for r in cert.region_reports if r.kind == "collar"]
        (ball,) = [r for r in cert.region_reports if r.kind == "ball"]
        cls, region = regions(s)[collar.class_index]
        assert cls == frozenset("abc")
        assert collar.faces == len(region.faces)
        assert ball.faces == 1

    @pytest.mark.parametrize("build", [
        pytest.param(wedge_of_tetra_boundaries, id="wedge"),
        pytest.param(lambda: suspension(named_triangulation("T2_7")), id="suspension-T2_7"),
    ])
    def test_closed_non_manifold_unknown(self, build):
        # every region collapses, but in a closed pseudomanifold that is
        # not a manifold a collapsible region need not be a ball
        t = build()
        cert = verify_spine(dual_spine(t, discrete(t)))
        assert all(r.ok for r in cert.region_reports)
        assert cert.certificate == "unknown"

    @pytest.mark.parametrize("name,partition", [("T2_7", discrete), ("S3_pentachoron", one_vs_rest)])
    def test_collapsible_spans_build_no_region(self, monkeypatch, name, partition):
        # every span component is a point or a simplex: no region in T''
        t = named_triangulation(name)
        s = dual_spine(t, partition(t))
        built = []
        monkeypatch.setattr(spine, "region_of_class", lambda *a: built.append(a))
        assert verify_spine(s).certificate == "yes"
        assert built == []

    def test_yes_whenever_every_region_collapses(self):
        # the region certificate stays the oracle: a span decides only
        # what its region's certificate would, or turns "unknown" into "yes"
        checked = 0
        for name, label, t, p in catalogue_spine_family():
            if all(region_certified(t, cls) for cls in p.classes):
                assert verify_spine(dual_spine(t, p)).is_yes, (name, label)
                checked += 1
        assert checked == 19  # of the 28 pairs

    @pytest.mark.parametrize("name,partition", [
        ("T2_7", discrete), ("RP2_6", one_vs_rest), ("D2_triangle", single_class),
    ])
    def test_checks_nothing_dual_spine_checked(self, monkeypatch, name, partition):
        # a SpineComplex is a checked spine: verify_spine does not re-check
        # purity or boundary respect, nor recount the vertices
        t = named_triangulation(name)
        s = dual_spine(t, partition(t))
        calls = []
        for fn in ("is_pure", "check_boundary_respect", "vertex_count"):
            monkeypatch.setattr(spine, fn, lambda *a, fn=fn: calls.append(fn))
        verify_spine(s)
        assert calls == []


def _all_classes(t):
    verts = t.vertices
    for r in range(1, len(verts) + 1):
        yield from map(frozenset, itertools.combinations(verts, r))


class TestCertifyClass:
    @pytest.mark.parametrize("name", ["T2_7", "RP2_6", "genus2_10", "S3_pentachoron", "S2_oct"])
    def test_agrees_with_region_certificate(self, name):
        t = named_triangulation(name)
        for cls in _all_classes(t):
            assert certify_class(t, cls) == region_certified(t, cls), sorted(cls)

    def test_every_singleton_certifies(self):
        # search always has the discrete partition to fall back on
        for name, kind in CATALOGUE.items():
            if kind.startswith("closed"):
                t = named_triangulation(name)
                assert all(certify_class(t, frozenset({v})) for v in t.vertices), name

    def test_span_answers_every_genus2_class(self, monkeypatch):
        # 833 classes have a span component with chi != 1, the other 190
        # spans collapse: no class needs its region in T''
        t = named_triangulation("genus2_10")
        built = []
        monkeypatch.setattr(spine, "region_of_class", lambda *a: built.append(a))
        assert sum(certify_class(t, cls) for cls in _all_classes(t)) == 190
        assert built == []

    def test_stuck_span_falls_back_to_region(self, monkeypatch):
        # the whole RP2_6 spans a closed surface: chi 1 and no free pair
        t = named_triangulation("RP2_6")
        built = []
        orig = spine.region_of_class
        monkeypatch.setattr(spine, "region_of_class", lambda *a: built.append(a) or orig(*a))
        assert not certify_class(t, frozenset(t.vertices))
        assert built == [(t, frozenset(t.vertices))]
