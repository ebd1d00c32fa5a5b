"""Chain complexes over the two-element field, normal discs, and the
hypersurface-homology correspondence on simple polyhedra."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from plspines.core import Complex, Face, InvariantViolation, closure
from plspines.models import LocalModel, dual_model, simplex
from plspines.partitions import VertexPartition, vertex_partition
from plspines.recognize import is_closed_curve, is_closed_surface, ridge_incidence


# -- GF(2) linear algebra -----------------------------------------------------


def gf2_row_reduce(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (R, pivot columns)."""
    R = (np.asarray(M, dtype=np.uint8) % 2).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        R[others] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def gf2_rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    return len(gf2_row_reduce(M)[1])


def gf2_kernel_basis(M: np.ndarray) -> np.ndarray:
    """Basis of the null space of M over GF(2), rows are basis vectors."""
    rows, cols = M.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    if rows == 0:
        return np.eye(cols, dtype=np.uint8)
    R, pivots = gf2_row_reduce(M)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            if R[r, fc]:
                basis[i, pc] = 1
    return basis


# -- chain complexes ----------------------------------------------------------


class Z2ChainComplex:
    """Per-dimension face bases and boundary matrices over GF(2)."""

    def __init__(self, cx: Complex):
        self.complex = cx
        self.bases: list[list[Face]] = [
            list(cx.faces_of_dim(k)) for k in range(cx.dim + 1)
        ]
        self.index: list[dict[Face, int]] = [
            {f: i for i, f in enumerate(b)} for b in self.bases
        ]
        self.boundaries: list[np.ndarray] = []
        for k in range(cx.dim + 1):
            nk = len(self.bases[k])
            nk1 = len(self.bases[k - 1]) if k > 0 else 0
            M = np.zeros((nk1, nk), dtype=np.uint8)
            if k > 0:
                idx = self.index[k - 1]
                for j, f in enumerate(self.bases[k]):
                    for s in itertools.combinations(f, k):
                        M[idx[s], j] ^= 1
            self.boundaries.append(M)
        self._ranks: dict[int, int] = {}
        self._check_dd()

    def _check_dd(self) -> None:
        """Raise unless every product of consecutive boundaries vanishes.

        Column j of the product of the boundaries in degrees k-1 and k is
        the XOR of the degree-(k-1) columns at the nonzero rows of column j
        of the degree-k boundary; columns are Python-int bitsets, so the
        cost is the number of incidences, not the matrix sizes.
        """
        supports = [_column_supports(M) for M in self.boundaries]
        for k in range(2, len(supports)):
            bits = [sum(1 << r for r in rows) for rows in supports[k - 1]]
            for rows in supports[k]:
                acc = 0
                for r in rows:
                    acc ^= bits[r]
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


def _column_supports(M: np.ndarray) -> list[list[int]]:
    """Rows of the odd entries of each column of M."""
    out: list[list[int]] = [[] for _ in range(M.shape[1])]
    cols, rows = np.nonzero(M.T & 1)
    for c, r in zip(cols.tolist(), rows.tolist()):
        out[c].append(r)
    return out


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
    for bits in itertools.product((0, 1), repeat=basis.shape[0]):
        if basis.shape[0] == 0:
            vec = np.zeros(len(faces), dtype=np.uint8)
        else:
            vec = np.zeros(len(faces), dtype=np.uint8)
            for b, row in zip(bits, basis):
                if b:
                    vec ^= row
        supports.append(frozenset(f for f, x in zip(faces, vec) if x))
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
            from plspines.core import face_link
            from plspines.recognize import is_single_cycle

            if not is_single_cycle(face_link((v,), sub)):
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
    from plspines.core import derived

    amb = nd.ambient_simplex
    top = amb.facets[0]
    d = derived(amb)
    top_vertex = d.vertex_of_face[top]
    return Complex(
        frozenset(f for f in nd.disc.faces if top_vertex not in f)
    )
