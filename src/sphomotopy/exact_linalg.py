"""Deterministic exact linear algebra over the rationals.

Every kernel, image, complement and splitting in the package funnels
through the reduced row echelon form computed here. RREF is unique, so
all outputs are canonical: identical inputs give bit-identical results,
which is what makes the downstream constructions reproducible.

The public functions take sparse ``{index: int}`` dicts without zero
entries (empty ones are dropped): ``rank`` a list of vectors,
``kernel_basis`` a matrix's columns, and kernel vectors come back in the
same form. The one elimination, ``_echelon_rows``, takes integer
``(cols, nums)`` rows and returns each RREF row as the primitive integer
vector with a positive pivot entry; a caller that needs the unit pivot
divides by it. ``RationalMatrix`` and the preimage solver, which takes
and returns dense rational vectors, are kept only for the benchmark's
layer tracer.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import NotInImage

_ZERO = Fraction(0)


class RationalMatrix:
    """Sparse rows over a common denominator: the matrix ``rows / den``.
    It is the d-block record that ``dga.DGA.d_matrix`` returns and the
    left side of ``preimage_many``.

    Nothing in the package computes with it; it is kept only because the
    benchmark's layer tracer reads ``rows`` and ``ncols`` from the
    ``d_matrix`` result and wraps ``preimage_many``.
    """

    __slots__ = ("nrows", "ncols", "rows", "den")

    def __init__(self, nrows: int, ncols: int, rows, den: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.den = den

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.rows)})"


def _row(pairs):
    """The integer row ``(cols, nums)`` of ``(col, int)`` pairs with distinct
    columns, as tuples (untracked by the collector); ``((), ())`` if none."""
    return tuple(zip(*sorted(pairs))) or ((), ())


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
    """Return ``(pivot_cols, rows)`` for integer sparse rows.

    ``int_rows`` is a list of ``(cols, nums)`` pairs (see ``_row``).
    ``rows[i]`` is a ``{col: int}`` dict, the i-th RREF row scaled to the
    unique primitive vector with a positive entry at ``pivot_cols[i]``;
    pivot columns are strictly increasing.
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
        bucket.sort()  # by length, then seq, which is unique
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

    # clear the other pivot columns of each row, bottom row first: the rows
    # below are reduced already, so subtracting one clears its pivot column
    # and brings in no other pivot column
    where = {col: k for k, (col, _, _) in enumerate(pivots)}
    for i in range(len(pivots) - 2, -1, -1):
        ci, tc, tn = pivots[i]
        held = [pivots[where[c]] for c in tc[1:] if c in where]
        for cj, pc, pn in held:
            a0 = pn[0]
            b0 = tn[bisect_left(tc, cj)]
            g = gcd(a0, b0)
            tc, tn = _strip(*_combine(tc, tn, pc, pn, a0 // g, b0 // g))
        if held:
            pivots[i] = (ci, tc, tn)

    out = []
    for _, cols, nums in pivots:
        cols, nums = _strip(cols, nums)
        if nums[0] < 0:
            nums = [-v for v in nums]
        out.append(dict(zip(cols, nums)))
    return [col for col, _, _ in pivots], out


def rank(vectors) -> int:
    """Dimension of the span of the sparse ``vectors``."""
    return len(_echelon_rows([_row(v.items()) for v in vectors if v])[0])


def kernel_basis(columns, nrows: int):
    """Null-space basis of the matrix with the sparse ``columns`` (each
    over ``range(nrows)``): per free column f, a positive multiple of the
    canonical vector, which is 1 at f and -rref[i][f] at each pivot p_i.
    f is the vector's largest index.

    Empty list iff the matrix is injective on columns.
    """
    rows = [[] for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i].append((j, v))
    return _kernel_vectors(*_echelon_rows([_row(r) for r in rows if r]), len(columns))


def _kernel_vectors(pivots, rows, ncols: int):
    """``kernel_basis`` from the output of ``_echelon_rows``: den times
    each canonical vector, den the lcm of the rows' pivot entries."""
    den = lcm(*(row[p] for p, row in zip(pivots, rows)))
    pivot_set = set(pivots)
    basis = {f: {f: den} for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, rows):
        s = den // row[p]
        for f, v in row.items():
            if f != p:  # an RREF row is zero at the other pivot columns
                basis[f][p] = -v * s
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
    sparse integer vectors."""
    pivots, _ = _echelon_rows([_row(v.items()) for v in image_gens if v])
    pivot_set = set(pivots)
    return [j for j in range(ambient_dim) if j not in pivot_set]


def _solve_augmented(m: RationalMatrix, bs):
    """RREF of [den·m | den·b_0 ... den·b_{k-1}], with ``m.rows`` standing
    for den·m; returns (pivots, rows)."""
    rows = [dict(r) for r in m.rows]
    for k, b in enumerate(bs):
        col = m.ncols + k
        items = b.items() if isinstance(b, dict) else enumerate(b)
        for i, v in items:
            if v:
                if i >= m.nrows:
                    raise ValueError("right side longer than matrix height")
                rows[i][col] = Fraction(v) * m.den
    return _echelon_rows([_row((c, v) for c, v in _cleared(r)[1].items() if v)
                          for r in rows if any(r.values())])


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
                    vec[p] = Fraction(v, rows[i][p])
        sols.append(tuple(vec))
    return sols
