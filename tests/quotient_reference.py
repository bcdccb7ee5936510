"""Whole-degree reference for the quotient ring, which ``dga`` row-reduces
one (degree, weight) block at a time."""

from fractions import Fraction

from sphomotopy.dga import as_element

from cleared import echelon
from relation_reference import homogeneous


def whole_degree_quotient(ring, relations, n):
    """One elimination over every r·m product of degree n, r over the
    integer images ``relations`` the ring was built from.

    Returns ``(transversal, rows)``: the non-pivot monomials in basis
    order, and ``{pivot monomial: RREF row as {monomial: Fraction}}`` in
    pivot order.
    """
    gs = ring.gs
    monos = gs.basis(n)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for image in relations:
        r = as_element(gs, image)
        dr = homogeneous(r, gs.degree)
        if dr is None or dr > n:
            continue
        for m in gs.basis(n - dr):
            prod = r * as_element(gs, (1, {m: 1}))
            if not prod.is_zero():
                rows.append({index[mm]: c for mm, c in prod.terms.items()})
    pivots, rref_rows = echelon(rows)
    pivot_set = set(pivots)
    transversal = [m for i, m in enumerate(monos) if i not in pivot_set]
    # the kernel's rows are primitive integer multiples of the RREF rows
    return transversal, {monos[p]: {monos[c]: Fraction(v, row[p])
                                    for c, v in row.items()}
                         for p, row in zip(pivots, rref_rows)}
