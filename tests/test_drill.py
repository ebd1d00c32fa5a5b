import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspines.core import (
    Complex,
    closure,
    connected_components,
    derived,
    derived_image,
    face_link,
    from_facets,
    join,
    link,
    star,
    subcomplex_spanned,
)
from plspines.drill import (
    cut_along_hypersurface,
    drill,
    eligible_drill_vertices,
    frontier_of,
    prepare,
    sample_drill_points,
)
from plspines.homology import hypersurface_from_class, top_cycle_supports
from plspines.models import boundary_sphere, catalogue_names, named_triangulation
from plspines.partitions import discrete, one_vs_rest, single_class
from plspines.recognize import boundary_complex
from plspines.search import search_min_vertices
from plspines.spine import dual_spine, verify_spine
from plspines.strata import classify_all_links, classify_point_link
from helpers import (
    random_complex,
    random_pure_complex,
    regular_neighborhood_direct,
    spine_vertex_count_from_links,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def equator_ctx(sphere2, equator_partition):
    s = dual_spine(sphere2, equator_partition)
    return prepare(s)


class TestDrillSurface:
    def test_off_spine_point_adds_circle(self, equator_ctx):
        from plspines.recognize import is_closed_curve

        res = drill(equator_ctx, Complex(frozenset({("(v0)",)})))
        assert res.vertices_before == 0
        assert res.vertices_after == 0
        assert len(connected_components(res.complex)) == 2
        # the frontier of a vertex star in a surface is a circle
        assert is_closed_curve(res.frontier)
        assert spine_vertex_count_from_links(res.complex, 2) == 0

    def test_on_spine_point_creates_two_vertices(self, equator_ctx):
        # the dimension-2 exception: a spine point is always on the 1-skeleton
        res = drill(equator_ctx, Complex(frozenset({("(v0,v2)",)})))
        assert res.vertices_after == 2
        assert spine_vertex_count_from_links(res.complex, 2) == 2

    def test_cells_outside_neighborhood_unchanged(self, equator_ctx):
        res = drill(equator_ctx, Complex(frozenset({("(v0)",)})))
        outside = {
            f for f in equator_ctx.level2.spine.faces if f not in res.neighborhood.faces
        }
        assert outside <= res.complex.faces


class TestDrill3Manifold:
    def test_point_in_two_stratum_preserves_vertices(self, pentachoron_drill_ctx):
        # a barycenter inside a 2-component of the spine, off the 1-skeleton
        ctx = pentachoron_drill_ctx
        s = ctx.spine
        on_spine = [
            v
            for v in eligible_drill_vertices(ctx)
            if (v,) in s.cells and s.cell_type[(v,)] == 2
        ]
        assert on_spine
        res = drill(ctx, Complex(frozenset({(on_spine[0],)})))
        assert (res.vertices_before, res.vertices_after) == (5, 5)

    def test_seeded_points_preserve_vertices(self, pentachoron_drill_ctx):
        pts = sample_drill_points(pentachoron_drill_ctx, 5, seed=11)
        for k in pts:
            res = drill(pentachoron_drill_ctx, k)
            assert res.vertices_after == res.vertices_before == 5

    def test_full_simplicity_check_once(self, pentachoron_drill_ctx):
        (k,) = sample_drill_points(pentachoron_drill_ctx, 1, seed=3)
        res = drill(pentachoron_drill_ctx, k)
        assert spine_vertex_count_from_links(res.complex, 3) == 5

    def test_bad_locus_rejected(self, pentachoron_drill_ctx):
        with pytest.raises(ValueError):
            drill(pentachoron_drill_ctx, from_facets([["nope"]]))


class TestCut:
    def test_empty_surface_unchanged(self, pentachoron_drill_ctx):
        rep = cut_along_hypersurface(pentachoron_drill_ctx, Complex(frozenset()))
        assert rep.vertices_before == rep.vertices_after == 5

    def test_dimension_two_rejected(self, equator_ctx):
        circle = equator_ctx.spine.as_complex()
        with pytest.raises(ValueError, match="dimension 3, got 2"):
            cut_along_hypersurface(equator_ctx, circle)

    def test_dimension_four_rejected(self):
        # the non-increase theorem is stated for d = 3: a valid cut in d = 4
        # is refused as input, not reported as a bug
        t = boundary_sphere(4)
        s = dual_spine(t, one_vs_rest(t))
        with pytest.raises(ValueError, match="dimension 3, got 4"):
            cut_along_hypersurface(prepare(s), s.as_complex())

    def test_cut_never_increases_count(self, pentachoron_drill_ctx):
        ctx = pentachoron_drill_ctx
        spine_cx = ctx.spine.as_complex()
        sups = [s for s in top_cycle_supports(spine_cx) if s]
        for s in (sups[0], sups[-1]):
            surf = hypersurface_from_class(spine_cx, s)
            rep = cut_along_hypersurface(ctx, surf)
            assert rep.non_increase_predicted
            assert rep.vertices_after <= rep.vertices_before

    def test_non_pseudomanifold_surface_rejected(self, pentachoron_drill_ctx):
        import itertools

        ctx = pentachoron_drill_ctx
        one_top = [c for c in sorted(ctx.spine.cells, key=len) if len(c) == 3][:1]
        sub = Complex(frozenset(
            f for c in one_top
            for r in range(1, len(c) + 1)
            for f in itertools.combinations(c, r)
        ))
        with pytest.raises(ValueError, match="pseudomanifold"):
            cut_along_hypersurface(ctx, sub)


def _coface_frontier(region: Complex, ambient: Complex) -> Complex:
    """The oracle: faces of region with a coface in ambient outside it."""
    cof = ambient.proper_cofaces
    return Complex(frozenset(
        f for f in region.faces if any(c not in region.faces for c in cof[f])
    ))


class TestFrontierIsLink:
    # Fixed example sequence: the suite's data does not change between runs.
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(seeds, st.booleans())
    def test_random_subcomplexes(self, seed, pure):
        rng = random.Random(seed)
        if pure:
            dim = rng.randint(1, 3)
            t = random_pure_complex(rng, dim, rng.randint(dim + 1, 7), rng.randint(1, 4))
        else:
            t = random_complex(rng, max_facets=4)
        faces = t.faces_sorted
        k = closure(t, rng.sample(faces, rng.randint(1, min(4, len(faces)))))
        d1 = derived(t)
        d2 = derived(d1.complex)
        rn = regular_neighborhood_direct(k, t)
        locus = derived_image(d2, derived_image(d1, k))
        assert frontier_of(rn, locus).faces == _coface_frontier(rn, d2.complex).faces
        # one level down: the star in T' of the image of a full subcomplex
        full = subcomplex_spanned(t, k.vertices)
        locus = derived_image(d1, full)
        rn = star(locus, d1.complex)
        assert frontier_of(rn, locus).faces == _coface_frontier(rn, d1.complex).faces

    @pytest.mark.parametrize("name", catalogue_names())
    def test_sampled_drills_on_catalogue(self, name, pentachoron_drill_ctx):
        t = named_triangulation(name)
        if name == "S3_pentachoron":
            ctx = pentachoron_drill_ctx
        else:
            # a partition must not split a boundary component
            p = discrete(t) if boundary_complex(t).is_empty else single_class(t)
            ctx = prepare(dual_spine(t, p))
        for k in sample_drill_points(ctx, 3, seed=1):
            res = drill(ctx, k)
            expected = _coface_frontier(res.neighborhood, derived(ctx.level2.base).complex)
            assert res.frontier.faces == expected.faces
            assert res.vertices_after == _face_link_count(ctx.level2, res, t.dim)


def _face_link_count(level, res, d) -> int:
    """The oracle: the vertex count with each frontier link from face_link."""
    outside = sum(
        1 for v, tp in level.types.items()
        if tp == 0 and (v,) not in res.neighborhood.faces
    )
    return outside + sum(
        1 for v in res.frontier.vertices
        if classify_point_link(face_link((v,), res.complex), d) == 0
    )


class _ThirdDerivedDrill:
    """The oracle: drilling as it was done in T''' for every locus.

    The neighbourhood is ``regular_neighborhood_direct(kp, T')``, the spine
    and its vertex types are read in T''', the frontier is the link of the
    locus's image there, and each frontier vertex is classified from
    ``face_link`` in the drilled complex.
    """

    def __init__(self, ctx):
        self.tp = ctx.spine.derived.complex
        self.d2 = derived(self.tp)
        self.d3 = derived(self.d2.complex)
        self.dim = ctx.spine.ambient.dim
        self.spine = derived_image(self.d3, derived_image(self.d2, ctx.spine.as_complex()))
        self.types = classify_all_links(self.spine, self.dim)

    def vertices_after(self, kp):
        rn = regular_neighborhood_direct(kp, self.tp)
        fr = link(derived_image(self.d3, derived_image(self.d2, kp)), self.d3.complex)
        drilled = Complex(frozenset(f for f in self.spine.faces if f not in rn.faces) | fr.faces)
        outside = sum(1 for v, tp in self.types.items() if tp == 0 and (v,) not in rn.faces)
        return outside + sum(
            1 for v in fr.vertices
            if classify_point_link(face_link((v,), drilled), self.dim) == 0
        )


def _circle(prefix):
    return from_facets([[f"{prefix}0", f"{prefix}1"], [f"{prefix}1", f"{prefix}2"],
                        [f"{prefix}0", f"{prefix}2"]])


CLOSED = [n for n in catalogue_names() if boundary_complex(named_triangulation(n)).is_empty]


def _closed_ctx(name, pentachoron_drill_ctx):
    if name == "S3_pentachoron":
        return pentachoron_drill_ctx
    t = join(_circle("a"), _circle("b")) if name == "S1*S1" else named_triangulation(name)
    return prepare(dual_spine(t, discrete(t)))


class TestDrillAgainstThirdDerived:
    @pytest.mark.parametrize("name", CLOSED + ["S1*S1"])
    def test_every_prime_vertex(self, name, pentachoron_drill_ctx):
        # every vertex of T', on and off the spine's 1-skeleton, including
        # those where drilling changes the count
        ctx = _closed_ctx(name, pentachoron_drill_ctx)
        oracle = _ThirdDerivedDrill(ctx)
        for v in ctx.spine.derived.complex.vertices:
            kp = Complex(frozenset({(v,)}))
            assert drill(ctx, kp).vertices_after == oracle.vertices_after(kp), v
        assert "level3" not in vars(ctx)

    @pytest.mark.parametrize("name", ["S2_tetra", "S2_oct", "S3_pentachoron"])
    def test_non_full_locus_drills_in_third_derived(self, name, pentachoron_drill_ctx):
        # the three edges of a T' triangle, without the triangle
        ctx = _closed_ctx(name, pentachoron_drill_ctx)
        tp = ctx.spine.derived.complex
        tri = tp.faces_of_dim(2)[0]
        kp = closure(tp, itertools.combinations(tri, 2))
        assert subcomplex_spanned(tp, kp.vertices) != kp  # not full
        res = drill(ctx, kp)
        level = ctx.level3
        assert res.complex.faces <= derived(level.base).complex.faces
        assert res.vertices_after == _ThirdDerivedDrill(ctx).vertices_after(kp)
        assert res.vertices_after == _face_link_count(level, res, ctx.spine.ambient.dim)
        if ctx.spine.ambient.dim == 2:
            expected = _coface_frontier(res.neighborhood, derived(level.base).complex)
            assert res.frontier.faces == expected.faces


def _derived_calls(monkeypatch) -> list[Complex]:
    """Route ``derived`` in every plspines module through a spy; returns
    the list of complexes it is called on."""
    seen = []

    def spy(cx):
        seen.append(cx)
        return derived(cx)

    for name, mod in list(sys.modules.items()):
        if name.startswith("plspines") and getattr(mod, "derived", None) is derived:
            monkeypatch.setattr(mod, "derived", spy)
    return seen


def test_point_drills_never_build_third_derived(monkeypatch, pentachoron_spine):
    t2 = derived(pentachoron_spine.derived.complex).complex
    seen = _derived_calls(monkeypatch)
    ctx = prepare(pentachoron_spine)
    for k in sample_drill_points(ctx, 20, seed=0):
        assert drill(ctx, k).vertices_after == 5
    assert seen and all(cx != t2 for cx in seen)
    assert "level3" not in vars(ctx)


def _point_drills(t):
    ctx = prepare(dual_spine(t, discrete(t)))
    for k in sample_drill_points(ctx, 20, seed=0):
        drill(ctx, k)


def _non_full_drill(t):
    ctx = prepare(dual_spine(t, discrete(t)))
    tp = ctx.spine.derived.complex
    drill(ctx, closure(tp, itertools.combinations(tp.faces_of_dim(2)[0], 2)))


@pytest.mark.parametrize("job,name,level", [
    (lambda t: verify_spine(t, discrete(t)), "T2_7", 1),
    (lambda t: verify_spine(t, single_class(t)), "D2_triangle", 1),
    # RP2_6's whole-vertex class gets stuck on its span and falls back to its
    # region; no class of T2_7 reaches its region
    (search_min_vertices, "RP2_6", 1),
    (_point_drills, "S3_pentachoron", 1),
    (_non_full_drill, "S2_oct", 2),
], ids=["verify-spine T2_7", "verify-spine D2_triangle single", "search RP2_6",
        "point drills", "non-full drill"])
def test_stars_are_read_off_the_level_below(monkeypatch, job, name, level):
    # a star in K' is read off K, so K (T' or T'') is never derived for it
    t = named_triangulation(name)
    below = t
    for _ in range(level):
        below = derived(below).complex
    seen = _derived_calls(monkeypatch)
    job(t)
    assert seen and all(cx != below for cx in seen)
