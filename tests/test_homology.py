import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plspines
from plspines.core import InvariantViolation, from_facets
from plspines.homology import (
    GF2Matrix,
    Z2ChainComplex,
    betti,
    betti_all,
    gf2_kernel_basis,
    gf2_rank,
)
from plspines.collapse import collapses_to_point
from plspines.models import enumerate_normal_discs
from plspines.recognize import is_closed_pseudomanifold
from helpers import (
    disc_boundary,
    from_dense,
    gf2_row_reduce,
    hypersurface_from_class,
    is_closed_curve,
    is_closed_surface,
    pi_boundary,
    random_complex,
    to_dense,
    top_cycle_supports,
)

# Fixed example sequence: the suite's data does not change between runs.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _kernel_rows(K: list[int], cols: int) -> np.ndarray:
    """Kernel vectors (bit j is column j) as the rows of a dense array."""
    return np.array([[(v >> j) & 1 for j in range(cols)] for v in K],
                    dtype=np.uint8).reshape(len(K), cols)


class TestGF2:
    def test_rank(self):
        M = from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert gf2_rank(M) == 2

    def test_kernel(self):
        M = from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        K = _kernel_rows(gf2_kernel_basis(M), 3)
        assert K.shape[0] == 1
        assert not ((to_dense(M) @ K.T) % 2).any()


def _assert_agrees_with_oracle(M: GF2Matrix) -> None:
    D = to_dense(M)
    rank = gf2_rank(M)
    assert rank == len(gf2_row_reduce(D)[1])
    K = _kernel_rows(gf2_kernel_basis(M), D.shape[1])
    assert K.shape[0] == D.shape[1] - rank
    assert not ((D.astype(np.int64) @ K.T) % 2).any()
    assert len(gf2_row_reduce(K)[1]) == K.shape[0]  # independent


@PROPERTY
@given(seeds, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_rank_and_kernel_agree_with_dense_oracle_on_random_matrices(seed, rows, cols):
    rng = random.Random(seed)
    density = rng.random()
    M = GF2Matrix(rows, [
        sum(1 << r for r in range(rows) if rng.random() < density) for _ in range(cols)
    ])
    _assert_agrees_with_oracle(M)


@PROPERTY
@given(seeds)
def test_rank_and_kernel_agree_with_dense_oracle_on_boundaries(seed):
    for M in Z2ChainComplex(random_complex(random.Random(seed))).boundaries:
        _assert_agrees_with_oracle(M)


class TestBetti:
    def test_circle(self):
        assert betti(from_facets([["a", "b"], ["b", "c"], ["c", "a"]]), 1) == 1

    def test_torus(self, torus7):
        assert betti_all(torus7) == [1, 2, 1]

    def test_rp2(self, rp2):
        assert betti_all(rp2) == [1, 1, 1]

    def test_pi_boundaries(self):
        assert betti(pi_boundary(2, 0).model, 1) == 3
        assert betti(pi_boundary(3, 0).model, 2) == 4

    def test_boundary_squared_zero(self, sphere3):
        Z2ChainComplex(sphere3)  # raises if dd != 0

    def test_each_rank_computed_once(self, torus7, monkeypatch):
        from plspines import homology

        calls = []
        inner = homology.gf2_rank

        def counted(M):
            calls.append(M.shape)
            return inner(M)

        monkeypatch.setattr(homology, "gf2_rank", counted)
        assert betti_all(torus7) == [1, 2, 1]
        assert len(calls) == 2


class TestBoundarySquaredCheck:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("pick", ["incidence", "non-incidence"])
    def test_one_flipped_entry_is_caught(self, sphere3, k, pick):
        ch = Z2ChainComplex(sphere3)
        M = ch.boundaries[k]
        D = to_dense(M)
        rows, cols = np.nonzero(D if pick == "incidence" else 1 - D)
        for i in range(0, len(rows), max(1, len(rows) // 7)):
            r, c = int(rows[i]), int(cols[i])
            M.columns[c] ^= 1 << r
            with pytest.raises(InvariantViolation, match="boundary of boundary"):
                ch._check_dd()
            M.columns[c] ^= 1 << r
        ch._check_dd()


def _dense_dd_is_zero(boundaries) -> bool:
    """The oracle: products of consecutive boundaries as dense matrices."""
    return all(
        not ((to_dense(boundaries[k - 1]).astype(np.int64) @ to_dense(boundaries[k])) % 2).any()
        for k in range(2, len(boundaries))
    )


@PROPERTY
@given(seeds, st.integers(min_value=0, max_value=3))
def test_sparse_dd_check_agrees_with_dense_product(seed, flips):
    rng = random.Random(seed)
    ch = Z2ChainComplex(random_complex(rng))
    for _ in range(flips):
        k = rng.randrange(1, len(ch.boundaries)) if len(ch.boundaries) > 1 else 0
        M = ch.boundaries[k]
        if M.size:
            r, c = rng.randrange(M.shape[0]), rng.randrange(M.shape[1])
            M.columns[c] ^= 1 << r
    try:
        ch._check_dd()
        sparse_zero = True
    except InvariantViolation:
        sparse_zero = False
    assert sparse_zero == _dense_dd_is_zero(ch.boundaries)


class TestNormalDiscs:
    @pytest.mark.parametrize(
        "n,total,breakdown",
        [
            (1, 3, {(2, 1): 3}),
            (2, 7, {(3, 1): 4, (2, 2): 3}),
            (3, 15, {(4, 1): 5, (3, 2): 10}),
        ],
    )
    def test_census(self, n, total, breakdown):
        discs = enumerate_normal_discs(n)
        assert len(discs) == total == 2 ** (n + 1) - 1
        from collections import Counter

        assert Counter(d.type for d in discs) == breakdown

    def test_every_disc_is_a_ball(self):
        for n in (1, 2, 3):
            for d in enumerate_normal_discs(n):
                assert collapses_to_point(d.model)

    def test_disc_boundaries_are_closed_pseudomanifolds(self):
        for n in (2, 3):
            for d in enumerate_normal_discs(n):
                bd = disc_boundary(d)
                assert is_closed_pseudomanifold(bd)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_normal_discs(0)


class TestHypersurfaces:
    def test_zero_class_empty(self):
        bp2 = pi_boundary(2, 0).model
        assert hypersurface_from_class(bp2, frozenset()).is_empty

    def test_k4_classes_are_circles(self):
        bp2 = pi_boundary(2, 0).model
        sups = [s for s in top_cycle_supports(bp2) if s]
        assert len(sups) == 7
        lengths = sorted(len(s) for s in sups)
        # subdivided triangles have 6 edges, subdivided 4-cycles have 8
        assert lengths == [6, 6, 6, 6, 8, 8, 8]
        for s in sups:
            assert is_closed_curve(hypersurface_from_class(bp2, s))

    def test_pi3_classes_match_normal_disc_boundaries(self):
        bp3 = pi_boundary(3, 0).model
        sups = [s for s in top_cycle_supports(bp3) if s]
        assert len(sups) == 15
        surfaces = [hypersurface_from_class(bp3, s) for s in sups]
        assert all(is_closed_surface(s) for s in surfaces)
        disc_bds = {
            frozenset(disc_boundary(d).faces) for d in enumerate_normal_discs(3)
        }
        assert {frozenset(s.faces) for s in surfaces} == disc_bds

    def test_invalid_support_reports_face(self):
        bp2 = pi_boundary(2, 0).model
        edges = sorted(f for f in bp2.faces if len(f) == 2)
        with pytest.raises(ValueError, match="lies in"):
            hypersurface_from_class(bp2, frozenset(edges[:1]))

    def test_class_count_matches_normal_disc_count(self):
        # nonzero classes number 2^(n+1) - 1, the normal-disc count
        for n in (2, 3):
            model = pi_boundary(n, 0).model
            assert betti(model, n - 1) == n + 1
            nonzero = [s for s in top_cycle_supports(model) if s]
            assert len(nonzero) == 2 ** (n + 1) - 1 == len(enumerate_normal_discs(n))


class TestLayering:
    """``homology`` sits on ``core`` alone, so any module may import it."""

    def test_imports_only_core_from_the_package(self):
        from plspines import homology

        tree = ast.parse(Path(homology.__file__).read_text())
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        names |= {
            ("plspines." if n.level else "") + (n.module or "")
            for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
        }
        assert {m for m in names if m.split(".")[0] == "plspines"} == {"plspines.core"}

    def test_import_leaves_models_unloaded(self):
        src = str(Path(plspines.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, plspines.homology; print('plspines.models' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout == "False\n"
