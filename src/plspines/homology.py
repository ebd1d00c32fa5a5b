"""Chain complexes and Betti numbers over the two-element field.

Matrices over GF(2) are bit-packed, one Python int per column: bit r of
column j is entry (r, j).  Boundaries are built straight from the face
index, ranks and kernels come from one column reduction keyed by each
column's lowest set bit, and no dense matrix is ever built.

The module imports nothing from the package but ``core``, so every other
module may import it at module top.
"""

from __future__ import annotations

import itertools

from plspines.core import Complex, Face, InvariantViolation


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
