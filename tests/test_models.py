import random

import pytest

from plspines.collapse import collapses_to_point
from plspines.models import (
    boundary_sphere,
    dual_model,
    named_triangulation,
    pi_boundary,
    simplex,
)
from plspines.partitions import vertex_partition
from plspines.recognize import classify_graph, euler_characteristic, is_closed_curve
from helpers import isomorphic, random_partition_blocks


class TestGenerators:
    def test_simplex_counts(self):
        assert len(simplex(2)) == 7
        assert simplex(0).f_vector() == (1,)

    def test_boundary_sphere_counts(self):
        assert boundary_sphere(1).f_vector() == (3, 3)
        assert boundary_sphere(3).f_vector() == (5, 10, 10, 5)
        assert len(boundary_sphere(3)) == 30

    def test_negative_dim(self):
        with pytest.raises(ValueError):
            simplex(-1)


class TestDualModel:
    def test_tripod(self):
        amb = simplex(2)
        p = vertex_partition(amb, [[v] for v in amb.vertices])
        m = dual_model(1, p)
        # center plus 3 legs
        assert m.model.f_vector() == (4, 3)
        degs = sorted(
            sum(1 for f in m.model.faces if len(f) == 2 and v in f)
            for v in m.model.vertices
        )
        assert degs == [1, 1, 1, 3]

    def test_normal_square(self):
        amb = simplex(3)
        p = vertex_partition(amb, [["v0", "v1"], ["v2", "v3"]])
        m = dual_model(2, p)
        assert euler_characteristic(m.model) == 1
        assert collapses_to_point(m.model)
        # boundary of the square disc is an 8-gon
        from plspines.recognize import boundary_complex

        bd = boundary_complex(m.model)
        assert is_closed_curve(bd)
        assert len(bd.faces_of_dim(1)) == 8

    def test_one_class_empty(self):
        amb = simplex(3)
        p = vertex_partition(amb, [list(amb.vertices)])
        m = dual_model(2, p)
        assert m.model.is_empty

    def test_dimension_rule(self):
        rng = random.Random(13)
        for n in range(1, 5):
            amb = simplex(n + 1)
            for _ in range(6):
                blocks = random_partition_blocks(rng, amb.vertices)
                p = vertex_partition(amb, blocks)
                m = dual_model(n, p)
                if len(p.classes) == 1:
                    assert m.model.is_empty
                else:
                    assert m.model.dim == n


class TestPiBoundary:
    def test_three_points(self):
        m = pi_boundary(1, 0)
        assert m.model.f_vector() == (3,)

    def test_k4(self):
        m = pi_boundary(2, 0)
        assert classify_graph(m.model) == "K4"

    def test_circle(self):
        m = pi_boundary(2, 2)
        assert classify_graph(m.model) == "circle"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pi_boundary(2, 3)

    def test_suspension_chi_relation(self):
        # chi of the k-th suspension built directly matches the model's chi
        from plspines.core import suspension

        for n in range(1, 5):
            for k in range(1, n + 1):
                inner = pi_boundary(n - k, 0).model if n - k >= 1 else None
                if inner is None:
                    continue
                sus = inner
                for _ in range(k):
                    sus = suspension(sus)
                assert euler_characteristic(sus) == euler_characteristic(
                    pi_boundary(n, k).model
                )

    def test_same_type_partitions_isomorphic(self):
        # two partitions with the same class sizes give isomorphic duals
        amb = simplex(3)
        p1 = vertex_partition(amb, [["v0", "v1"], ["v2", "v3"]])
        p2 = vertex_partition(amb, [["v0", "v2"], ["v1", "v3"]])
        m1, m2 = dual_model(2, p1), dual_model(2, p2)
        assert m1.model.f_vector() == m2.model.f_vector()
        assert isomorphic(m1.model, m2.model)


class TestCatalogue:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_triangulation("nope")

    def test_t2_counts(self, torus7):
        assert torus7.f_vector() == (7, 21, 14)
        assert euler_characteristic(torus7) == 0

    def test_rp2_counts(self, rp2):
        assert rp2.f_vector() == (6, 15, 10)
        assert euler_characteristic(rp2) == 1

    def test_genus2_counts(self):
        g2 = named_triangulation("genus2_10")
        assert g2.f_vector() == (10, 36, 24)
        assert euler_characteristic(g2) == -2
