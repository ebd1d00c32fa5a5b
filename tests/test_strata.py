import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspines.models import catalogue_names, named_triangulation
from plspines.partitions import discrete, one_vs_rest, single_class, vertex_partition
from plspines.recognize import classify_graph
from plspines.spine import dual_spine
from plspines.strata import (
    LinkClassificationError,
    cell_components,
    stratum_components,
)
from helpers import (
    cell_components_bfs,
    classify_link_lowdim,
    pair_component_poset,
    pair_components_two_rule,
    pi_boundary,
    random_complex,
    spine_vertex_count_from_links,
    stratum_components_two_rule,
    union_of_spans,
    unchecked_spine,
    validate_types_against_links,
)


class TestAssignTypes:
    def test_strata_reexports_the_spine_rule(self):
        # bench/traced_cli.py wraps the rule through plspines.strata
        import plspines.spine
        import plspines.strata

        assert plspines.strata.assign_types is plspines.spine.assign_types

    def test_equator_all_type_one(self, sphere2, equator_partition):
        s = dual_spine(sphere2, equator_partition)
        assert set(s.cell_type.values()) == {1}

    def test_k4_types(self, k4_spine):
        counts = Counter(k4_spine.cell_type.values())
        assert counts[0] == 4
        assert counts[1] == 18  # six open edges, each three cells of T'

    def test_pentachoron_type0_cells_are_tetra_barycenters(self, pentachoron_spine):
        zeros = [c for c, t in pentachoron_spine.cell_type.items() if t == 0]
        assert len(zeros) == 5
        fov = {lab: f for f, lab in pentachoron_spine.derived.vertex_of_face.items()}
        for cell in zeros:
            assert len(cell) == 1
            assert len(fov[cell[0]]) == 4


class TestClassifyLink:
    def test_k4_vertices_type0(self, k4_spine):
        for cell, tp in k4_spine.cell_type.items():
            assert classify_link_lowdim(k4_spine, cell) == tp

    def test_theta_and_circle_links(self, pentachoron_spine):
        got = Counter(
            classify_link_lowdim(pentachoron_spine, c) for c in pentachoron_spine.cells
        )
        assert got[0] == 5
        assert got[1] > 0 and got[2] > 0

    def test_graph_classifier(self):
        from plspines.core import from_facets, Complex

        theta = Complex(
            frozenset({("p",), ("q",), ("m1",), ("m2",), ("m3",),
                       ("m1", "p"), ("m1", "q"), ("m2", "p"), ("m2", "q"),
                       ("m3", "p"), ("m3", "q")})
        )
        assert classify_graph(theta) == "theta"
        cyc = from_facets([["a", "b"], ["b", "c"], ["c", "a"]])
        assert classify_graph(cyc) == "circle"
        k4 = from_facets(
            [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]
        )
        assert classify_graph(k4) == "K4"
        dumbbell = from_facets([["a", "b"], ["a", "c"], ["b", "c"],
                                ["a", "d"], ["d", "e"], ["e", "a"]])
        assert classify_graph(dumbbell) is None
        k4_subdivided = from_facets(
            [["a", "m"], ["m", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
             ["c", "d"]]
        )
        assert classify_graph(k4_subdivided) == "K4"

    @pytest.mark.parametrize(
        "facets",
        [
            # handcuff: two circles joined by an arc
            [["a", "b"], ["b", "c"], ["c", "a"], ["c", "d"],
             ["d", "e"], ["e", "f"], ["f", "d"]],
            # theta plus a disjoint circle
            [["p", "m1"], ["m1", "q"], ["p", "m2"], ["m2", "q"], ["p", "q"],
             ["x", "y"], ["y", "z"], ["z", "x"]],
            # four cubic vertices, a-b and c-d doubled
            [["a", "b"], ["a", "m1"], ["m1", "b"], ["a", "c"], ["b", "d"],
             ["c", "d"], ["c", "m2"], ["m2", "d"]],
            # two disjoint circles
            [["a", "b"], ["b", "c"], ["c", "a"], ["x", "y"], ["y", "z"], ["z", "x"]],
        ],
        ids=["handcuff", "theta_and_circle", "doubled_arc", "two_circles"],
    )
    def test_graph_classifier_rejects(self, facets):
        from plspines.core import from_facets

        assert classify_graph(from_facets(facets)) is None

    def test_unrecognized_link_raises(self):
        from plspines.core import from_facets

        with pytest.raises(LinkClassificationError):
            from plspines.strata import classify_point_link

            classify_point_link(from_facets([["a"], ["b"], ["c"], ["d"]]), 2)


class TestStratumComponents:
    def test_equator_components(self, sphere2, equator_partition):
        s = dual_spine(sphere2, equator_partition)
        comps = stratum_components(s)
        by_type = Counter(c.type for c in comps)
        assert by_type == {1: 1, 2: 2}

    def test_k4_components(self, k4_spine):
        comps = stratum_components(k4_spine)
        by_type = Counter(c.type for c in comps)
        assert by_type == {0: 4, 1: 6, 2: 4}

    def test_type0_component_count_is_vertex_count(self, pentachoron_spine):
        comps = stratum_components(pentachoron_spine)
        assert sum(1 for c in comps if c.type == 0) == pentachoron_spine.vertex_count

    def test_strata_are_pure_of_their_dimension(self, k4_spine, pentachoron_spine):
        for s in (k4_spine, pentachoron_spine):
            d = s.ambient.dim
            for comp in stratum_components(s):
                if comp.type == d:
                    continue
                top = max(len(c) for c in comp.cells)
                assert top - 1 == comp.type
                # every cell lies under a top cell of the component
                tops = [c for c in comp.cells if len(c) == top]
                for c in comp.cells:
                    assert any(set(c) <= set(tc) for tc in tops)

    def test_torus_best_partition_components(self, torus7):
        # frozen from the exhaustive search: the 6-vertex optimum
        p = vertex_partition(
            torus7, [["t0"], ["t1", "t2", "t4"], ["t3", "t5", "t6"]]
        )
        s = dual_spine(torus7, p)
        assert s.vertex_count == 6
        by_type = Counter(c.type for c in stratum_components(s))
        assert by_type == {0: 6, 1: 9, 2: 3}


class TestOracleAgreement:
    def test_formula_matches_links_catalogue(self):
        # the central validation of the derived type rule, d <= 3
        for name in ("S2_tetra", "S2_oct", "RP2_6", "T2_7", "genus2_10",
                     "S3_pentachoron"):
            t = named_triangulation(name)
            for p in (discrete(t), one_vs_rest(t)):
                s = dual_spine(t, p)
                assert validate_types_against_links(s) == len(s.cells)

    def test_pi_boundary_vertex_counts(self):
        # the boundary of the local model is simple with n+2 vertices
        for n in (1, 2, 3):
            m = pi_boundary(n, 0)
            assert spine_vertex_count_from_links(m.model, n) == n + 2


class TestComponentRule:
    def test_one_rule_matches_the_two_rule_oracle(self):
        # ids, types and cells of the strata and of a plain pair's components
        # equal the parent's two rules, so the component order is pinned too
        for name in catalogue_names():
            t = named_triangulation(name)
            for p in (discrete(t), single_class(t), one_vs_rest(t)):
                s = unchecked_spine(t, p)
                assert stratum_components(s) == stratum_components_two_rule(s), name
                k = union_of_spans(t, p)
                got = list(pair_component_poset(t, k).components)
                assert got == pair_components_two_rule(t, k), name


class TestCellComponents:
    # Fixed example sequence: the suite's data does not change between runs.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_breadth_first_oracle(self, seed):
        # ids and their (label, least face) order, with int labels (the
        # strata) and str labels
        rng = random.Random(seed)
        faces = sorted(random_complex(rng).faces)
        pool = rng.choice([(0, 1, 2), ("(b)", "(a,b)", "(a)")])[: rng.randint(1, 3)]
        label = [rng.choice(pool) for _ in faces]
        comp = cell_components(faces, label)
        assert comp == cell_components_bfs(faces, label)
        least = [comp.index(k) for k in range(max(comp) + 1)]
        assert least == sorted(least, key=lambda v: (label[v], v))
