"""Deterministic exact linear algebra over the rationals.

Every kernel, image, complement and splitting in the package funnels
through the reduced row echelon form computed here. RREF is unique, so
all outputs are canonical: identical inputs give bit-identical results,
which is what makes the downstream constructions reproducible.

Rows, columns and vectors are sparse ``{index: Fraction}`` dicts without
zero entries (``int`` values are rationals too), in and out: ``rank``
takes a list of vectors, ``kernel_basis`` the list of a matrix's columns,
and kernel vectors come back in the same form. The elimination itself,
``_echelon_rows``, is the only one; it runs on private integer-cleared
``(cols, nums)`` rows and divides by the pivot only when it emits the
result. ``dga``, which assembles its differentials in integers, hands
such rows to it directly. ``RationalMatrix`` and the preimage solver,
which takes and returns dense vectors, are kept only for the benchmark's
layer tracer.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import NotInImage

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalMatrix:
    """Sparse rows with exact rational entries: the d-block record that
    ``dga.DGA.d_matrix`` returns and the left side of ``preimage_many``.

    Nothing in the package computes with it; it is kept only because the
    benchmark's layer tracer reads ``rows`` and ``ncols`` from the
    ``d_matrix`` result and wraps ``preimage_many``.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

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
        nums = [row[c].numerator * (den // row[c].denominator) for c in cols]
        out.append((cols, nums))
    return out


def _cleared(vec: dict):
    """``(den, {key: int})`` with ``vec = ints / den``, den the lcm of the
    denominators of the rational values of ``vec``."""
    den = lcm(*(v.denominator for v in vec.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in vec.items()}


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


def rank(vectors) -> int:
    """Dimension of the span of the sparse ``vectors``."""
    return len(_echelon_rows(_int_rows(vectors))[0])


def kernel_basis(columns, nrows: int):
    """Canonical null-space basis of the matrix with the sparse ``columns``
    (each over ``range(nrows)``): one sparse vector per free column f,
    with entry 1 at f and -rref[i][f] at each pivot p_i. f is the
    vector's largest index.

    Empty list iff the matrix is injective on columns.
    """
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return _kernel_vectors(*_echelon_rows(_int_rows(rows)), len(columns))


def _kernel_vectors(pivots, rows, ncols: int):
    """``kernel_basis`` from the output of ``_echelon_rows``."""
    pivot_set = set(pivots)
    basis = {f: {f: _ONE} for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, rows):
        for f, v in row.items():
            if f != p:  # an RREF row is zero at the other pivot columns
                basis[f][p] = -v
    return list(basis.values())


def _kills(int_rows, vectors) -> bool:
    """Whether the matrix with rows ``int_rows`` maps every one of
    ``vectors`` to zero; both are integer ``(cols, nums)`` pairs.

    One sparse product: each matrix entry meets the vector entries in its
    column, and nothing else is touched.
    """
    by_col: dict = {}
    for k, (cols, nums) in enumerate(vectors):
        for j, v in zip(cols, nums):
            by_col.setdefault(j, []).append((k, v))
    for cols, nums in int_rows:
        acc: dict = {}
        for j, a in zip(cols, nums):
            hits = by_col.get(j)
            if hits:
                for k, v in hits:
                    acc[k] = acc.get(k, 0) + a * v
        if any(acc.values()):
            return False
    return True


def cokernel_complement_indices(image_gens, ambient_dim: int):
    """Non-pivot positions of the RREF of ``span(image_gens)``, given as
    sparse vectors."""
    pivots, _ = _echelon_rows(_int_rows(image_gens))
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
