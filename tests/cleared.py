"""Integer inputs for ``exact_linalg`` from rational ones, and the
canonical vectors back from its integer kernel vectors.

``exact_linalg`` takes sparse ``{index: int}`` vectors. Scaling a row
leaves its span, the RREF and the complement positions alone, so rows are
cleared one at a time. Scaling single columns would change a kernel, but
scaling the whole matrix does not, so a matrix handed over for its kernel
is cleared by one common factor.
"""

from fractions import Fraction
from math import lcm

from sphomotopy import exact_linalg as ela


def _scaled(vec, den):
    return {j: int(v * den) for j, v in vec.items() if v}


def cleared_rows(rows):
    """Each sparse rational row times the lcm of its denominators, with
    zero entries left out."""
    return [_scaled(row, lcm(*(Fraction(v).denominator for v in row.values())))
            for row in rows]


def cleared_matrix(columns):
    """The sparse rational columns times the lcm of all their
    denominators, with zero entries left out: the same kernel."""
    den = lcm(*(Fraction(v).denominator for col in columns for v in col.values()))
    return [_scaled(col, den) for col in columns]


def integer_image(x):
    """The integer image ``(den, {monomial: int})`` of an ``Element``, the
    form ``DGA.add_generator`` and ``DGA(gs, relations=...)`` take."""
    return ela._cleared(x.terms)


def echelon(rows):
    """``_echelon_rows`` of sparse rational rows."""
    return ela._echelon_rows([ela._row(r.items()) for r in cleared_rows(rows)])


def canonical(vec):
    """An integer kernel vector divided by its entry at its largest index,
    the free column: the canonical kernel vector, in ``Fraction``s."""
    lead = vec[max(vec)]
    return {j: Fraction(v, lead) for j, v in vec.items()}
