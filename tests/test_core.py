import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspines.core import (
    Complex,
    SimplicialMap,
    closure,
    cone,
    connected_components,
    derived,
    derived_image,
    derived_map,
    derived_star,
    face_link,
    from_facets,
    join,
    link,
    point,
    regular_neighborhood,
    star,
    subcomplex_spanned,
    suspension,
)
from plspines.collapse import collapses_to_point
from plspines.models import boundary_sphere, simplex
from plspines.recognize import euler_characteristic
from helpers import chain_of, is_arc, isomorphic, random_complex, regular_neighborhood_direct


def brute_chain_count(cx):
    """Independent oracle: count chains by direct containment testing."""
    faces = list(cx.faces)
    below = {f: [g for g in faces if set(g) < set(f)] for f in faces}
    total = 0
    stack = [(f,) for f in faces]
    while stack:
        ch = stack.pop()
        total += 1
        for g in below[ch[-1]]:
            stack.append(ch + (g,))
    return total


class TestFromFacets:
    def test_triangle_closure(self):
        cx = from_facets([["a", "b", "c"]])
        assert len(cx) == 7
        assert cx.f_vector() == (3, 3, 1)

    def test_three_cycle(self):
        cx = from_facets([["a", "b"], ["b", "c"], ["c", "a"]])
        assert len(cx) == 6
        assert cx.dim == 1

    def test_boundary_tetrahedron(self):
        cx = from_facets(
            [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
        )
        assert len(cx) == 14

    def test_errors(self):
        with pytest.raises(ValueError):
            from_facets([])
        with pytest.raises(ValueError):
            from_facets([["a", "a"]])


class TestDerived:
    def test_simplex2(self):
        d = derived(simplex(2))
        assert len(d.complex.vertices) == 7
        assert len(d.complex.faces_of_dim(2)) == 6

    def test_three_cycle_hexagon(self):
        cx = from_facets([["a", "b"], ["b", "c"], ["c", "a"]])
        d = derived(cx)
        assert d.complex.f_vector() == (6, 6)

    def test_boundary_tetra_chain_oracle(self):
        cx = boundary_sphere(2)
        d = derived(cx)
        assert len(d.complex.vertices) == 14
        assert len(d.complex.faces_of_dim(2)) == 24
        assert len(d.complex) == brute_chain_count(cx)

    def test_vertex_per_face_and_dim(self):
        rng = random.Random(5)
        for _ in range(10):
            cx = random_complex(rng)
            d = derived(cx)
            assert len(d.complex.vertices) == len(cx.faces)
            assert d.complex.dim == cx.dim

    def test_equal_complexes_share_one_cache_entry(self):
        # derived's lru_cache keys on Complex.__hash__ and __eq__
        a = from_facets([["a", "b", "c"], ["c", "d"]])
        b = Complex(frozenset(a.faces))
        assert a is not b and a == b and hash(a) == hash(b)
        assert derived(a) is derived(b)

    def test_chain_decode(self):
        d = derived(simplex(1))
        for f in d.complex.faces:
            ch = chain_of(d, f)
            for a, b in zip(ch, ch[1:]):
                assert set(a) < set(b)


class TestDerivedMap:
    def test_identity(self):
        s = simplex(1)
        f = SimplicialMap(s, s, {v: v for v in s.vertices})
        fd = derived_map(f)
        assert all(fd.assignment[v] == v for v in fd.source.vertices)

    def test_collapse_to_point(self):
        s = simplex(1)
        p = point("q")
        f = SimplicialMap(s, p, {v: "q" for v in s.vertices})
        fd = derived_map(f)
        assert len(fd.source.vertices) == 3
        assert set(fd.assignment.values()) == {"(q)"}

    def test_hexagon_fold_table(self):
        hexa = from_facets([[f"h{i}", f"h{(i + 1) % 6}"] for i in range(6)])
        seg = from_facets([["x", "y"]])
        fold = SimplicialMap(
            hexa, seg, {f"h{i}": ("x" if i % 2 == 0 else "y") for i in range(6)}
        )
        fd = derived_map(fold)
        # vertex barycenters alternate; edge barycenters all hit the edge
        assert fd.assignment["(h0)"] == "(x)"
        assert fd.assignment["(h1)"] == "(y)"
        for i in range(6):
            e = tuple(sorted((f"h{i}", f"h{(i + 1) % 6}")))
            lab = "(" + ",".join(e) + ")"
            assert fd.assignment[lab] == "(x,y)"


class TestStarLink:
    def test_link_vertex_in_sphere(self, sphere2):
        lk = link(subcomplex_spanned(sphere2, ["v0"]), sphere2)
        assert lk.f_vector() == (3, 3)

    def test_star_vertex_in_simplex(self):
        s = simplex(2)
        st = star(subcomplex_spanned(s, ["v0"]), s)
        assert st.faces == s.faces

    def test_link_edge_in_sphere3_oracle(self, sphere3):
        # oracle: faces disjoint from the edge whose union with it is a face
        expected = {
            f
            for f in sphere3.faces
            if not set(f) & {"v0", "v1"}
            and tuple(sorted(set(f) | {"v0", "v1"})) in sphere3.faces
        }
        fl = face_link(("v0", "v1"), sphere3)
        assert set(fl.faces) == expected
        assert fl.f_vector() == (3, 3)
        # the subcomplex-level link is coarser: it also keeps faces of the
        # star that merely avoid the edge, here the opposite triangle
        lk = link(from_facets([["v0", "v1"]]), sphere3)
        assert fl.faces < lk.faces
        assert ("v2", "v3", "v4") in lk.faces

    def test_star_equals_join_of_sub_and_link_on_induced(self):
        # holds for induced subcomplexes: every star face splits as
        # (face of sub) u (face of link)
        rng = random.Random(11)
        for _ in range(20):
            cx = random_complex(rng)
            verts = list(cx.vertices)
            sub = subcomplex_spanned(cx, rng.sample(verts, rng.randint(1, len(verts))))
            st = star(sub, cx)
            lk = link(sub, cx)
            built = set(sub.faces) | set(lk.faces)
            for s in sub.faces:
                for t in lk.faces:
                    u = tuple(sorted(s + t))
                    if u in cx.faces:
                        built.add(u)
            assert built == set(st.faces)


class TestRegularNeighborhood:
    def test_point_in_cycle_is_arc(self):
        cyc = from_facets([["a", "b"], ["b", "c"], ["c", "a"]])
        rn = regular_neighborhood(subcomplex_spanned(cyc, ["a"]), cyc)
        assert is_arc(rn)

    def test_vertex_in_segment_is_end_arc(self):
        seg = simplex(1)
        rn = regular_neighborhood(subcomplex_spanned(seg, ["v0"]), seg)
        assert is_arc(rn)
        # a closed sub-arc at the v0 end, missing the far endpoint
        assert ("((v0))",) in rn.faces
        assert ("((v1))",) not in rn.faces

    def test_vertex_in_sphere_is_disc(self, sphere2):
        rn = regular_neighborhood(subcomplex_spanned(sphere2, ["v0"]), sphere2)
        assert euler_characteristic(rn) == 1
        assert collapses_to_point(rn)

    # Fixed example sequence: the suite's data does not change between runs.
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_chain_rule_matches_star_in_built_derived(self, seed):
        # L may be empty or not full; the oracle builds K' and takes the star
        rng = random.Random(seed)
        cx = random_complex(rng)
        faces = cx.faces_sorted
        sub = closure(cx, rng.sample(faces, rng.randint(0, min(4, len(faces)))))
        d = derived(cx)
        sub_d = derived_image(d, sub)
        assert derived_star(cx, sub.vertices) == star(sub_d, d.complex)
        # the plain scan reads no coface table
        assert star(sub_d, d.complex) == closure(
            d.complex, (f for f in d.complex.faces if set(f) & set(sub_d.vertices))
        )
        assert regular_neighborhood(sub, cx) == regular_neighborhood_direct(sub, cx)

    def test_derived_star_labels_only_the_faces_it_walks(self, sphere2, monkeypatch):
        import plspines.core as core

        tp = derived(sphere2).complex
        v = tp.vertices[0]
        labelled = []
        orig = core.derived_vertex_label
        monkeypatch.setattr(core, "derived_vertex_label", lambda f: labelled.append(f) or orig(f))
        derived_star(tp, [v])
        assert sorted(labelled) == sorted([(v,), *tp.proper_cofaces[(v,)]])

    def test_derived_star_rejects_colliding_labels_it_walks(self):
        cx = from_facets([["a,b"], ["a", "b"]])
        # "(a,b)" labels both the edge ab and the vertex "a,b"; the star of
        # (a) walks only the first
        assert derived_star(cx, ["a"]).vertices == ("(a)", "(a,b)")
        with pytest.raises(ValueError, match="collide"):
            derived_star(cx, ["a", "a,b"])


class TestJoinConeSuspension:
    def test_s0_join_s0(self):
        s0 = Complex(frozenset({("a",), ("b",)}))
        s0b = Complex(frozenset({("c",), ("d",)}))
        j = join(s0, s0b)
        assert j.f_vector() == (4, 4)
        assert euler_characteristic(j) == 0

    def test_cone_over_cycle(self):
        cyc = from_facets([["a", "b"], ["b", "c"], ["c", "a"]])
        c = cone(cyc)
        assert len(c.vertices) == 4
        assert euler_characteristic(c) == 1
        assert collapses_to_point(c)

    def test_suspension_of_sphere_boundary(self):
        from helpers import is_closed_surface

        s = suspension(boundary_sphere(1))
        assert is_closed_surface(s)
        assert euler_characteristic(s) == 2
        assert s.f_vector() == (5, 9, 6)

    def test_label_clash_renamed(self):
        a = from_facets([["a", "b"]])
        b = from_facets([["a", "c"]])
        j = join(a, b)
        assert len(j.vertices) == 4
        assert j.dim == 3

    def test_join_associative_up_to_iso(self):
        rng = random.Random(3)
        for _ in range(5):
            a = random_complex(rng, max_vertices=3, max_facets=2, max_facet_size=2)
            b = random_complex(rng, max_vertices=2, max_facets=2, max_facet_size=2)
            c = random_complex(rng, max_vertices=2, max_facets=1, max_facet_size=2)
            left = join(join(a, b), c)
            right = join(a, join(b, c))
            assert isomorphic(left, right)

    def test_double_suspension_is_circle_join(self):
        x = from_facets([["a", "b"]])
        four_cycle = from_facets([["p", "q"], ["q", "r"], ["r", "s"], ["s", "p"]])
        assert isomorphic(suspension(suspension(x)), join(four_cycle, x))


class TestEulerInvariance:
    def test_chi_invariant_under_derived(self):
        rng = random.Random(7)
        for _ in range(20):
            cx = random_complex(rng)
            assert euler_characteristic(cx) == euler_characteristic(derived(cx).complex)


class TestComponents:
    def test_two_pieces(self):
        cx = from_facets([["a", "b"], ["c", "d"]])
        comps = connected_components(cx)
        assert len(comps) == 2

    def test_isolated_vertex(self):
        cx = from_facets([["a", "b"], ["z"]])
        assert len(connected_components(cx)) == 2


class TestDerivedImage:
    def test_image_is_subcomplex(self, sphere2):
        d = derived(sphere2)
        sub = subcomplex_spanned(sphere2, ["v0", "v1"])
        img = derived_image(d, sub)
        assert d.complex.has_subcomplex(img)
