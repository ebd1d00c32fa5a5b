import itertools
import random

import pytest

from plspines.collapse import collapses_to_point
from plspines.core import derived, from_facets, join
from plspines.models import CATALOGUE, boundary_sphere, catalogue_names, named_triangulation, simplex
from plspines.partitions import discrete, one_vs_rest, single_class, vertex_partition
from plspines.recognize import euler_characteristic
from plspines import spine
from plspines.spine import (
    certify_class,
    dual_spine,
    regions,
    vertex_count,
    verify_spine,
)
from helpers import (
    dual_cells_direct,
    random_partition_blocks,
    random_pure_complex,
    region_certified,
    set_partitions,
    spine_neighborhood,
    validate_complex,
)


class TestDualSpine:
    def test_k4_spine(self, sphere2, k4_spine):
        assert k4_spine.as_complex().f_vector() == (10, 12)
        assert k4_spine.vertex_count == 4
        assert euler_characteristic(k4_spine.as_complex()) == -2

    def test_equator(self, sphere2, equator_partition):
        s = dual_spine(sphere2, equator_partition)
        assert s.vertex_count == 0
        from plspines.recognize import is_closed_curve

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
            s = dual_spine(t, p, check_boundary=False)
            assert s.cells == dual_cells_direct(t, p.classes), (t.facets, p)
            cases += 1
        # every set partition of the simplexes and spheres the local models
        # of plspines.models live on (94 cases)
        ambients = [simplex(n + 1) for n in range(3)] + [boundary_sphere(n) for n in (1, 2, 3)]
        for t in ambients:
            for blocks in set_partitions(t.vertices):
                p = vertex_partition(t, blocks)
                s = dual_spine(t, p, check_boundary=False)
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
        dec = regions(sphere2, equator_partition)
        assert len(dec) == 2
        for _, mv in dec:
            assert collapses_to_point(mv)

    def test_discrete_four_disc_regions(self, sphere2):
        dec = regions(sphere2, discrete(sphere2))
        assert len(dec) == 4
        for _, mv in dec:
            assert euler_characteristic(mv) == 1
            assert collapses_to_point(mv)

    def test_disc_single_class_covers_everything(self):
        disc = named_triangulation("D2_triangle")
        dec = regions(disc, single_class(disc))
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
            dec = regions(t, p)
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
            dec = regions(t, p)
            for (_, a), (_, b) in itertools.combinations(dec, 2):
                assert a.faces.isdisjoint(b.faces)


class TestVerifySpine:
    def test_equator_yes(self, sphere2, equator_partition):
        cert = verify_spine(sphere2, equator_partition)
        assert cert.certificate == "yes"
        assert [r.kind for r in cert.region_reports] == ["ball", "ball"]

    def test_torus_discrete_yes(self, torus7):
        cert = verify_spine(torus7, discrete(torus7))
        assert cert.certificate == "yes"
        assert cert.vertices == 14
        assert len(cert.region_reports) == 7

    def test_rp2_two_classes_unknown(self, rp2):
        cert = verify_spine(rp2, one_vs_rest(rp2))
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
        cert = verify_spine(disc, p)
        assert cert.certificate == "yes"
        kinds = sorted(r.kind for r in cert.region_reports)
        assert kinds == ["ball", "collar"]


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
