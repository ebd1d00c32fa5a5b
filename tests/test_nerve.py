import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plspines.nerve
from plspines.core import (
    Complex,
    SimplicialMap,
    _UnionFind,
    canonical_face,
    derived,
    derived_labels,
    derived_map,
    derived_vertex_label,
    from_facets,
)
from plspines.homology import betti
from plspines.io import parse_complex
from plspines.models import named_triangulation
from plspines.nerve import (
    _prenerve_map,
    component_poset,
    nerve,
    nerve_checks,
    nerve_of_pair,
    pair_component_poset,
    stein,
)
from plspines.partitions import discrete, one_vs_rest, single_class
from plspines.recognize import is_closed_curve
from plspines.search import search_min_vertices
from plspines.spine import dual_spine, vertex_count
from plspines.strata import cell_components, stratum_components
from helpers import (
    is_arc,
    isomorphic,
    rainbow_top_chain_count,
    random_simplicial_map,
    stein_checks,
    stein_h,
    stein_h_assignment,
)

GOLDEN = Path(__file__).parent / "golden"


class TestStein:
    def test_identity_middle_is_derived_source(self):
        from plspines.core import derived

        cx = from_facets([["a", "b", "c"]])
        f = SimplicialMap(cx, cx, {v: v for v in cx.vertices})
        sf = stein(f)
        assert isomorphic(sf.middle, derived(cx).complex)
        assert stein_checks(sf) == []

    def test_hexagon_fold_middle_is_circle(self):
        hexa = from_facets([[f"h{i}", f"h{(i + 1) % 6}"] for i in range(6)])
        seg = from_facets([["x", "y"]])
        fold = SimplicialMap(
            hexa, seg, {f"h{i}": ("x" if i % 2 == 0 else "y") for i in range(6)}
        )
        sf = stein(fold)
        assert is_closed_curve(sf.middle)
        assert sf.middle.f_vector() == (12, 12)
        # g identifies opposite arcs: derived target has 3 vertices, with
        # computed fiber sizes 3 + 3 + 6
        from collections import Counter

        sizes = sorted(Counter(sf.g_assignment.values()).values())
        assert sizes == [3, 3, 6]
        assert stein_checks(sf) == []

    def test_disjoint_triangles_identified(self):
        two = from_facets([["a1", "b1", "c1"], ["a2", "b2", "c2"]])
        one = from_facets([["a", "b", "c"]])
        f = SimplicialMap(
            two, one, {f"{x}{i}": x for x in "abc" for i in (1, 2)}
        )
        sf = stein(f)
        # fibers are already connected per component: two derived triangles
        assert len(sf.middle.faces_of_dim(2)) == 12
        assert stein_checks(sf) == []
        from plspines.core import connected_components

        assert len(connected_components(sf.middle)) == 2

    def test_random_maps_have_stein_properties(self):
        # acceptance-grade property: connected h-fibers, dimension-preserving g
        rng = random.Random(2024)
        for _ in range(100):
            f = random_simplicial_map(rng, max_source_faces=40)
            sf = stein(f)
            assert stein_checks(sf) == []


def _stein_on_derived_source(f: SimplicialMap):
    """The oracle: Stein factorization computed on the derived source.

    Fibers are the union-find classes of the same-image edges of the
    derived source, each named at its first face in tuple order, and the
    middle holds the h-image of every derived face.  Returns the h and g
    assignments and the middle faces.
    """
    fd = derived_map(f)
    src, a = fd.source, fd.assignment
    uf = _UnionFind(src.vertices)
    for face in src.faces:
        if len(face) == 2 and a[face[0]] == a[face[1]]:
            uf.union(*face)
    root_label, g_assign, per_target = {}, {}, {}
    for s in sorted(f.source.faces):
        r = uf.find(derived_vertex_label(s))
        if r not in root_label:
            i = per_target.get(a[r], 0)
            per_target[a[r]] = i + 1
            root_label[r] = f"{a[r]}/{i}"
            g_assign[root_label[r]] = a[r]
    h_assign = {v: root_label[uf.find(v)] for v in src.vertices}
    middle = frozenset(tuple(sorted({h_assign[v] for v in face})) for face in src.faces)
    return h_assign, g_assign, middle


def _assert_matches_oracle(f: SimplicialMap):
    h_assign, g_assign, middle = _stein_on_derived_source(f)
    sf = stein(f)
    assert stein_h_assignment(sf) == h_assign
    assert dict(sf.g_assignment) == g_assign
    assert sf.middle.faces == middle


# Labels where one is a prefix of another: "(a,b)" sorts before "(ab)",
# so label order differs from the (size, labels) order of the faces.
PREFIX_LABELS = ("a", "a0", "ab", "b", "b0", "ba", "c", "c0")
# "*" sorts below ",": "(a*)" comes before "(a,b)" though ("a", "b") comes
# before ("a*",), so label order differs from the tuple order of the faces.
STAR_LABELS = ("a", "a*", "b", "b*", "c", "c*", "d", "d*")


def _relabelled(f: SimplicialMap, rng: random.Random,
                labels: tuple[str, ...] = PREFIX_LABELS) -> SimplicialMap:
    """f with source and target vertices renamed to labels."""

    def rename(cx: Complex) -> tuple[Complex, dict[str, str]]:
        new = dict(zip(cx.vertices, rng.sample(labels, len(cx.vertices))))
        return Complex(canonical_face(new[v] for v in face) for face in cx.faces), new

    src, src_name = rename(f.source)
    tgt, tgt_name = rename(f.target)
    return SimplicialMap(src, tgt, {src_name[v]: tgt_name[w] for v, w in f.assignment.items()})


def _optimum(t):
    return search_min_vertices(t).best_partition


class TestSteinOnFacePoset:
    # Fixed example sequence: the suite's data does not change between runs.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_maps_match_derived_source(self, seed):
        rng = random.Random(seed)
        f = random_simplicial_map(rng, max_source_faces=40)
        for g in (f, _relabelled(f, rng)):
            _assert_matches_oracle(g)
            assert dict(stein_h(stein(g)).assignment) == _stein_on_derived_source(g)[0]

    # Faces are numbered in tuple order and the w/i names count components
    # by least face; with STAR_LABELS that order is not the label order.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_star_labels_match_derived_source(self, seed):
        rng = random.Random(seed)
        f = random_simplicial_map(rng, max_source_faces=40)
        _assert_matches_oracle(_relabelled(f, rng, STAR_LABELS))

    # The fibers are the components ``strata.cell_components`` forms with
    # the faces labelled by f', and the i-th of them over w is named w/i.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_fibers_are_cell_components_in_order(self, seed):
        rng = random.Random(seed)
        f = random_simplicial_map(rng, max_source_faces=40)
        for g in (f, _relabelled(f, rng, STAR_LABELS)):
            sf = stein(g)
            mlabels = sorted(sf.middle.vertices)
            fibers: dict[str, set] = {}
            for s, m in zip(sorted(g.source.faces), sf.h):
                fibers.setdefault(mlabels[m], set()).add(s)
            label = {s: derived_vertex_label(g.image(s)) for s in g.source.faces}
            named, count = {}, {}
            for w, cells in cell_components(g.source, label):
                i = count[w] = count.get(w, -1) + 1
                named[f"{w}/{i}"] = cells
            assert {frozenset(c) for c in fibers.values()} == set(named.values())
            assert fibers == named

    def test_stein_labels_only_the_target(self, monkeypatch):
        # the source faces are numbered in tuple order; derived labels name
        # only the target's faces, the vertices g maps to
        t = parse_complex((GOLDEN / "S1_join_S1.cplx").read_text())
        f = _prenerve_map(t, component_poset(stratum_components(dual_spine(t, discrete(t)))))
        seen = []

        def spy(faces):
            seen.append(faces)
            return derived_labels(faces)

        monkeypatch.setattr(plspines.nerve, "derived_labels", spy)
        stein(f)
        assert seen == [f.target.faces]

    # The lemma ``stein`` builds the middle on: if a face of the fiber
    # component A lies in a face of B, every face of B contains a face of A.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_face_of_a_component_contains_one_below(self, seed):
        rng = random.Random(seed)
        f = random_simplicial_map(rng, max_source_faces=40)
        for g in (f, _relabelled(f, rng)):
            h_assign = _stein_on_derived_source(g)[0]
            h = {s: h_assign[derived_vertex_label(s)] for s in g.source.faces}
            fiber: dict[str, list] = {}
            for s, m in h.items():
                fiber.setdefault(m, []).append(set(s))
            for t in g.source.faces:
                for s in itertools.combinations(t, len(t) - 1):
                    if s and h[s] != h[t]:
                        for t2 in fiber[h[t]]:
                            assert any(s2 <= t2 for s2 in fiber[h[s]]), (s, t, t2)

    @pytest.mark.parametrize("name, partition", [
        pytest.param("T2_7", discrete, id="T2_7"),
        pytest.param("RP2_6", discrete, id="RP2_6"),
        pytest.param("S3_pentachoron", discrete, id="S3_pentachoron"),
        # fibers that merge many T'' faces
        pytest.param("T2_7", single_class, id="T2_7-single"),
        pytest.param("S3_pentachoron", one_vs_rest, id="S3_pentachoron-one_vs_rest"),
        pytest.param("genus2_10", _optimum, id="genus2_10-optimum"),
    ])
    def test_discrete_prenerve_maps_match_derived_source(self, name, partition):
        t = named_triangulation(name)
        poset = component_poset(stratum_components(dual_spine(t, partition(t))))
        _assert_matches_oracle(_prenerve_map(t, poset))

    def test_pair_prenerve_map_matches_derived_source(self):
        # the nerve of a circle and a point is a circle over a segment: two
        # fiber components over each interior vertex, named w/0 and w/1
        t = named_triangulation("S1_triangle")
        f = _prenerve_map(t, pair_component_poset(t, from_facets([["a"]])))
        _assert_matches_oracle(f)
        assert any(m.endswith("/1") for m in stein(f).middle.vertices)

    def test_nerve_never_builds_third_derived(self, monkeypatch):
        t = named_triangulation("S3_pentachoron")
        t2 = derived(derived(t).complex).complex
        seen = []

        def spy(cx):
            seen.append(cx)
            return derived(cx)

        monkeypatch.setattr(plspines.nerve, "derived", spy)
        np_ = nerve(dual_spine(t, discrete(t)))
        assert seen and all(cx != t2 for cx in seen)
        assert np_.stein.source == t2
        h = stein_h(np_.stein)  # validated against T''', built here
        assert h.source == derived(t2).complex
        assert h.target == np_.nerve


class TestPrenerve:
    def test_circle_point_pair_is_segment(self):
        s1 = named_triangulation("S1_triangle")
        pt = from_facets([["a"]])
        np_ = nerve_of_pair(s1, pt)
        assert np_.prenerve.f_vector() == (2, 1)

    def test_equator_prenerve_is_path(self, sphere2, equator_partition):
        np_ = nerve(dual_spine(sphere2, equator_partition))
        assert np_.prenerve.f_vector() == (3, 2)
        assert is_arc(np_.prenerve)

    def test_k4_prenerve_has_full_chains(self, sphere2):
        np_ = nerve(dual_spine(sphere2, discrete(sphere2)))
        assert np_.prenerve.dim == 2
        assert len(np_.prenerve.faces_of_dim(2)) > 0


class TestNerve:
    def test_circle_point_nerve_is_circle(self):
        s1 = named_triangulation("S1_triangle")
        pt = from_facets([["a"]])
        np_ = nerve_of_pair(s1, pt)
        assert is_closed_curve(np_.nerve)
        assert betti(np_.nerve, 1) == 1

    def test_equator_nerve_is_subdivided_path(self, sphere2, equator_partition):
        np_ = nerve(dual_spine(sphere2, equator_partition))
        assert np_.nerve.dim == 1
        assert betti(np_.nerve, 1) == 0

    def test_k4_nerve_dim_two(self, sphere2):
        np_ = nerve(dual_spine(sphere2, discrete(sphere2)))
        assert np_.nerve.dim == 2
        # for the discrete partition the nerve reproduces T''
        from plspines.core import derived

        t2 = derived(derived(sphere2).complex).complex
        assert np_.nerve.f_vector() == t2.f_vector()

    def test_nerve_map_surjective_with_connected_fibers(self, sphere2):
        np_ = nerve(dual_spine(sphere2, discrete(sphere2)))
        assert set(stein_h(np_.stein).assignment.values()) == set(np_.nerve.vertices)
        assert stein_checks(np_.stein) == []


    def test_nerve_validates_only_the_prenerve_map(self, monkeypatch, sphere2):
        # g comes back as a vertex map: the pre-nerve map, Stein's input, is
        # the one SimplicialMap built and validated
        s = dual_spine(sphere2, discrete(sphere2))
        built = []
        real = SimplicialMap.__post_init__

        def spy(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(SimplicialMap, "__post_init__", spy)
        np_ = nerve(s)
        assert len(built) == 1
        assert built[0].target is np_.prenerve


class TestNerveChecks:
    def test_equator_report(self, sphere2, equator_partition):
        np_ = nerve(dual_spine(sphere2, equator_partition))
        rep = nerve_checks(np_, 0, 2)
        assert rep.ok
        assert rep.nerve_dim == 1

    def test_k4_report(self, sphere2):
        np_ = nerve(dual_spine(sphere2, discrete(sphere2)))
        rep = nerve_checks(np_, 4, 2)
        assert rep.ok
        assert rep.nerve_dim == 2

    def test_torus_best_spine_report(self, torus7):
        from plspines.partitions import vertex_partition

        p = vertex_partition(
            torus7, [["t0"], ["t1", "t2", "t4"], ["t3", "t5", "t6"]]
        )
        np_ = nerve(dual_spine(torus7, p))
        rep = nerve_checks(np_, vertex_count(torus7, p), 2)
        assert rep.ok
        assert rep.nerve_dim == 2


class TestSingularSimplexCount:
    def test_k4_top_nerve_simplex_count(self, sphere2):
        np_ = nerve(dual_spine(sphere2, discrete(sphere2)))
        tops = len(np_.nerve.faces_of_dim(2))
        # one singular simplex per spine vertex, each contributing the 36
        # triangles of a twice-subdivided triangle
        assert tops == 4 * 36
        assert rainbow_top_chain_count(sphere2, np_.poset) == tops
