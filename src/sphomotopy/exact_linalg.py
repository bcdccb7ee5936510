"""Deterministic exact linear algebra over the rationals.

Every kernel, image, complement and splitting in the package funnels
through the reduced row echelon form computed here. RREF is unique, so
all outputs are canonical: identical inputs give bit-identical results,
which is what makes the downstream constructions reproducible.

Matrices are stored sparsely (one ``{col: Fraction}`` dict per row); the
elimination itself runs on integer-cleared rows and divides by the pivot
only when it emits the result.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import NotInImage

_ZERO = Fraction(0)


class RationalMatrix:
    """Sparse matrix with exact rational entries, acting on column vectors."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [{} for _ in range(nrows)]

    @classmethod
    def from_rows(cls, dense_rows, ncols=None):
        rows = []
        width = ncols
        for r in dense_rows:
            if isinstance(r, dict):
                rows.append({c: Fraction(v) for c, v in r.items() if v})
            else:
                r = list(r)
                width = len(r) if width is None else width
                rows.append({c: Fraction(v) for c, v in enumerate(r) if v})
        if width is None:
            raise ValueError("ncols required for dict rows")
        return cls(len(rows), width, rows)

    @classmethod
    def from_columns(cls, columns, nrows: int):
        rows = [{} for _ in range(nrows)]
        ncols = 0
        for j, col in enumerate(columns):
            ncols = j + 1
            items = col.items() if isinstance(col, dict) else enumerate(col)
            for i, v in items:
                if v:
                    rows[i][j] = Fraction(v)
        return cls(nrows, ncols, rows)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, [{i: Fraction(1)} for i in range(n)])

    def columns(self):
        """One ``{row: value}`` dict per column, in one pass over the entries."""
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def to_dense(self):
        return [
            [self.rows[i].get(j, _ZERO) for j in range(self.ncols)]
            for i in range(self.nrows)
        ]

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        out = []
        for row in self.rows:
            s = _ZERO
            for c, v in row.items():
                x = vec[c]
                if x:
                    s += v * x
            out.append(s)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.rows)})"


def _int_rows(rows):
    """Clear denominators rowwise; kernel input. Stored zeros are dropped."""
    out = []
    for row in rows:
        cols = sorted(c for c in row if row[c])
        if not cols:
            continue
        den = lcm(*(row[c].denominator for c in cols))
        nums = [int(row[c] * den) for c in cols]
        out.append((cols, nums))
    return out


# -- the elimination kernel ----------------------------------------------------
#
# Rows enter as integer-cleared sparse vectors: parallel sequences
# ``(cols, nums)`` with ``cols`` strictly increasing. Every combined row is
# divided by its content, so coefficients stay small.


def _strip(cols, nums):
    g = 0
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            return cols, nums
    if g > 1:
        nums = [v // g for v in nums]
    return cols, nums


def _combine(tc, tn, pc, pn, a, b):
    # a*target - b*pivot over sorted column lists
    rc = []
    rn = []
    i = j = 0
    li = len(tc)
    lj = len(pc)
    while i < li and j < lj:
        ci = tc[i]
        cj = pc[j]
        if ci < cj:
            rc.append(ci)
            rn.append(a * tn[i])
            i += 1
        elif ci > cj:
            rc.append(cj)
            rn.append(-b * pn[j])
            j += 1
        else:
            v = a * tn[i] - b * pn[j]
            if v:
                rc.append(ci)
                rn.append(v)
            i += 1
            j += 1
    while i < li:
        rc.append(tc[i])
        rn.append(a * tn[i])
        i += 1
    while j < lj:
        rc.append(pc[j])
        rn.append(-b * pn[j])
        j += 1
    return rc, rn


def _echelon_rows(int_rows):
    """Return ``(pivot_cols, rref_rows)`` for integer sparse rows.

    ``int_rows`` is a list of ``(cols, nums)`` pairs (see ``_int_rows``).
    ``rref_rows[i]`` is a ``{col: Fraction}`` dict with a unit entry at
    ``pivot_cols[i]``; pivot columns are strictly increasing.
    """
    by_lead = {}
    seq = 0
    for cols, nums in int_rows:
        if cols:
            by_lead.setdefault(cols[0], []).append((len(cols), seq, cols, nums))
            seq += 1
    pivots = []
    while by_lead:
        col = min(by_lead)
        bucket = by_lead.pop(col)
        bucket.sort(key=lambda r: (r[0], r[1]))
        _, _, pc, pn = bucket[0]
        a0 = pn[0]
        for _, _, tc, tn in bucket[1:]:
            b0 = tn[0]
            g = gcd(a0, b0)
            rc, rn = _combine(tc, tn, pc, pn, a0 // g, b0 // g)
            rc, rn = _strip(rc, rn)
            if rc:
                by_lead.setdefault(rc[0], []).append((len(rc), seq, rc, rn))
                seq += 1
        pivots.append((col, pc, pn))

    # clear pivot columns above each pivot, right to left
    for i in range(len(pivots) - 1, 0, -1):
        ci, pci, pni = pivots[i]
        a0 = pni[0]
        for j in range(i):
            cj, tc, tn = pivots[j]
            k = bisect_left(tc, ci)
            if k < len(tc) and tc[k] == ci:
                b0 = tn[k]
                g = gcd(a0, b0)
                rc, rn = _combine(tc, tn, pci, pni, a0 // g, b0 // g)
                rc, rn = _strip(rc, rn)
                pivots[j] = (cj, rc, rn)

    pivot_cols = []
    out = []
    for col, cols, nums in pivots:
        pivot_cols.append(col)
        lead = nums[0]
        out.append({c: Fraction(v, lead) for c, v in zip(cols, nums)})
    return pivot_cols, out


def rref(m: RationalMatrix):
    """Reduced row echelon form and its pivot columns.

    Zero rows are dropped from the result; ``len(pivots)`` is the rank.
    """
    pivots, rows = _echelon_rows(_int_rows(m.rows))
    return RationalMatrix(len(rows), m.ncols, rows), pivots


def rank(m: RationalMatrix) -> int:
    return len(_echelon_rows(_int_rows(m.rows))[0])


def kernel_basis(m: RationalMatrix):
    """Canonical null-space basis: one vector per free column, free entry 1.

    Empty list iff the matrix is injective on columns.
    """
    pivots, rows = _echelon_rows(_int_rows(m.rows))
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        vec = [_ZERO] * m.ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v = rows[i].get(f)
            if v:
                vec[p] = -v
        basis.append(tuple(vec))
    return basis


def cokernel_complement_indices(image_gens, ambient_dim: int):
    """Non-pivot positions of the RREF of ``span(image_gens)``."""
    rows = []
    for g in image_gens:
        items = g.items() if isinstance(g, dict) else enumerate(g)
        rows.append({c: Fraction(v) for c, v in items if v})
    pivots, _ = _echelon_rows(_int_rows(rows))
    pivot_set = set(pivots)
    return [j for j in range(ambient_dim) if j not in pivot_set]


def _solve_augmented(m: RationalMatrix, bs):
    """RREF of [m | b_0 ... b_{k-1}]; returns (pivots, rows)."""
    rows = [dict(r) for r in m.rows]
    for k, b in enumerate(bs):
        col = m.ncols + k
        items = b.items() if isinstance(b, dict) else enumerate(b)
        for i, v in items:
            if v:
                if i >= m.nrows:
                    raise ValueError("right side longer than matrix height")
                rows[i][col] = Fraction(v)
    return _echelon_rows(_int_rows(rows))


def preimage_many(m: RationalMatrix, bs):
    """Solve ``m x = b`` for several right sides with one elimination.

    Free variables are set to zero, so the solution is canonical.
    Raises NotInImage if any right side is outside the column space.
    """
    bs = list(bs)
    pivots, rows = _solve_augmented(m, bs)
    # a row whose matrix part vanished expresses a functional that kills
    # the column space: any right side it touches is inconsistent
    null_rows = [i for i, p in enumerate(pivots) if p >= m.ncols]
    sols = []
    for k in range(len(bs)):
        col = m.ncols + k
        for i in null_rows:
            if rows[i].get(col):
                raise NotInImage(f"vector {k} not in the column space")
        vec = [_ZERO] * m.ncols
        for i, p in enumerate(pivots):
            if p < m.ncols:
                v = rows[i].get(col)
                if v:
                    vec[p] = v
        sols.append(tuple(vec))
    return sols


def preimage(m: RationalMatrix, b):
    """Canonical solution of ``m x = b`` (free variables zero)."""
    return preimage_many(m, [b])[0]
