"""Chain complexes over the two-element field, normal discs, and the
hypersurface-homology correspondence on simple polyhedra.

Matrices over GF(2) are bit-packed, one Python int per column: bit r of
column j is entry (r, j).  Boundaries are built straight from the face
index, ranks and kernels come from one column reduction keyed by each
column's lowest set bit, and no dense matrix is ever built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from plspines.core import Complex, Face, InvariantViolation, closure, derived, face_link
from plspines.models import LocalModel, dual_model, simplex
from plspines.partitions import VertexPartition, vertex_partition
from plspines.recognize import (
    classify_graph,
    is_closed_curve,
    is_closed_surface,
    ridge_incidence,
)


# -- GF(2) linear algebra -----------------------------------------------------


class GF2Matrix:
    """A rows x len(columns) matrix over GF(2); column j is the int whose
    bit r is entry (r, j)."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows: int, columns: list[int]):
        self.rows = rows
        self.columns = columns

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, len(self.columns)

    @property
    def size(self) -> int:
        """rows x cols, the dense measure the traced ``homology.gf2_rank_cells``
        reports; not the reduction's work (its XORs of bit-packed columns)."""
        return self.rows * len(self.columns)


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _reduce(M: GF2Matrix) -> tuple[int, list[int]]:
    """Column-reduce M by lowest set bit; return (rank, kernel basis).

    Each column is XORed with the stored reduced column whose lowest bit
    matches its own until its lowest bit is new (a pivot) or it vanishes.
    The combination of original columns behind each reduced column is
    tracked (bit j means column j), and every vanished column gives its
    combination as a kernel vector: cols - rank of them, independent since
    the one from column j has j as its highest bit.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, col in enumerate(M.columns):
        combo = 1 << j
        while col:
            low = col & -col
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (col, combo)
                break
            col ^= hit[0]
            combo ^= hit[1]
        else:
            kernel.append(combo)
    return len(pivots), kernel


def gf2_rank(M: GF2Matrix) -> int:
    return _reduce(M)[0]


def gf2_kernel_basis(M: GF2Matrix) -> list[int]:
    """Basis of the null space of M over GF(2); bit j of a vector is column j."""
    return _reduce(M)[1]


# -- chain complexes ----------------------------------------------------------


class Z2ChainComplex:
    """Per-dimension face bases and bit-packed boundary matrices over GF(2)."""

    def __init__(self, cx: Complex):
        self.complex = cx
        self.bases: list[list[Face]] = [
            list(cx.faces_of_dim(k)) for k in range(cx.dim + 1)
        ]
        self.index: list[dict[Face, int]] = [
            {f: i for i, f in enumerate(b)} for b in self.bases
        ]
        self.boundaries: list[GF2Matrix] = [GF2Matrix(0, [0] * len(self.bases[0]))]
        for k in range(1, cx.dim + 1):
            idx = self.index[k - 1]
            columns = []
            for f in self.bases[k]:
                col = 0
                for s in itertools.combinations(f, k):
                    col ^= 1 << idx[s]
                columns.append(col)
            self.boundaries.append(GF2Matrix(len(self.bases[k - 1]), columns))
        self._ranks: dict[int, int] = {}
        self._check_dd()

    def _check_dd(self) -> None:
        """Raise unless every product of consecutive boundaries vanishes.

        Column j of the product of the boundaries in degrees k-1 and k is
        the XOR of the degree-(k-1) columns at the set bits of column j of
        the degree-k boundary, so the cost is the number of incidences, not
        the matrix sizes.
        """
        for k in range(2, len(self.boundaries)):
            below = self.boundaries[k - 1].columns
            for col in self.boundaries[k].columns:
                acc = 0
                for r in _bits(col):
                    acc ^= below[r]
                if acc:
                    raise InvariantViolation("boundary of boundary is nonzero")

    def rank(self, k: int) -> int:
        """Rank of the degree-k boundary, computed once; zero outside 1..dim."""
        if not 1 <= k <= self.complex.dim:
            return 0
        if k not in self._ranks:
            self._ranks[k] = gf2_rank(self.boundaries[k])
        return self._ranks[k]

    def betti(self, k: int) -> int:
        if k < 0 or k > self.complex.dim:
            return 0
        return len(self.bases[k]) - self.rank(k) - self.rank(k + 1)


def betti(cx: Complex, k: int) -> int:
    """Rank of H_k over the two-element field."""
    if cx.is_empty:
        return 0
    return Z2ChainComplex(cx).betti(k)


def betti_all(cx: Complex) -> list[int]:
    if cx.is_empty:
        return []
    ch = Z2ChainComplex(cx)
    return [ch.betti(k) for k in range(cx.dim + 1)]


# -- hypersurfaces in simple polyhedra ----------------------------------------


def top_cycle_supports(cx: Complex) -> list[frozenset[Face]]:
    """Supports of all top-dimensional homology classes, zero class included.

    In the top dimension there are no boundaries, so classes are exactly the
    kernel vectors of the top boundary matrix.
    """
    if cx.is_empty:
        return [frozenset()]
    ch = Z2ChainComplex(cx)
    top = cx.dim
    basis = gf2_kernel_basis(ch.boundaries[top])
    faces = ch.bases[top]
    supports = []
    for picks in itertools.product((False, True), repeat=len(basis)):
        vec = 0
        for pick, v in zip(picks, basis):
            if pick:
                vec ^= v
        supports.append(frozenset(faces[i] for i in _bits(vec)))
    return sorted(set(supports), key=lambda s: (len(s), sorted(s)))


def hypersurface_from_class(
    cx: Complex, cycle: "frozenset[Face] | set[Face] | list[Face]"
) -> Complex:
    """The subcomplex representing a top-dimensional mod-2 class.

    The class is given by the set of top cells it supports; the result is
    their closure.  The support must be a closed hypersurface: each
    codimension-1 face of it in exactly two top cells, with the
    dimension-appropriate manifold check on top.  Failures report the
    offending face.
    """
    support = frozenset(cycle)
    if not support:
        return Complex(frozenset())
    top = cx.dim
    if any(len(f) != top + 1 for f in support):
        raise ValueError("cycle support must consist of top-dimensional cells")
    sub = closure(cx, support)
    rid = ridge_incidence(sub)
    bad = sorted(s for s, n in rid.items() if n != 2)
    if bad:
        raise ValueError(
            f"support is not a closed hypersurface: face {bad[0]} lies in "
            f"{rid[bad[0]]} top cells"
        )
    if sub.dim == 1 and not is_closed_curve(sub):
        raise ValueError("support fails the closed-curve link check")
    if sub.dim == 2 and not is_closed_surface(sub):
        for v in sub.vertices:
            if classify_graph(face_link((v,), sub)) != "circle":
                raise ValueError(f"support fails the surface link check at {v}")
        raise ValueError("support fails the closed-surface check")
    return sub


# -- normal discs -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NormalDisc:
    """Disc dual to a two-class vertex partition of a simplex."""

    ambient_simplex: Complex
    partition: VertexPartition
    disc: Complex
    type: tuple[int, int]


def enumerate_normal_discs(n: int) -> list[NormalDisc]:
    """One normal disc per two-class partition of the (n+1)-simplex's
    vertices; there are 2^(n+1) - 1 of them."""
    if n < 1:
        raise ValueError("normal discs need n >= 1")
    amb = simplex(n + 1)
    verts = amb.vertices
    out: list[NormalDisc] = []
    seen: set[frozenset[str]] = set()
    for r in range(1, len(verts)):
        for side in itertools.combinations(verts, r):
            v1 = frozenset(side)
            v2 = frozenset(verts) - v1
            if v1 in seen or v2 in seen:
                continue
            seen.add(v1)
            part = vertex_partition(amb, [sorted(v1), sorted(v2)])
            model: LocalModel = dual_model(n, part)
            kind = tuple(sorted((len(v1), len(v2)), reverse=True))
            out.append(NormalDisc(amb, part, model.model, kind))
    expected = 2 ** (n + 1) - 1
    if len(out) != expected:
        raise InvariantViolation(
            f"enumerated {len(out)} normal discs, expected {expected}"
        )
    return out


def disc_boundary(nd: NormalDisc) -> Complex:
    """Trace of a normal disc on the boundary sphere of its simplex:
    the faces whose chains avoid the top simplex."""
    amb = nd.ambient_simplex
    top = amb.facets[0]
    d = derived(amb)
    top_vertex = d.vertex_of_face[top]
    return Complex(
        frozenset(f for f in nd.disc.faces if top_vertex not in f)
    )
