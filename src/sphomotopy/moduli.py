"""Cohomology ring of the rank-2, odd-determinant moduli space.

The ring for genus g is presented as the free graded-commutative algebra
on one degree-2 class, 2g degree-3 classes and one degree-4 class, modulo
an explicit relation subspace E. The invariant subring is a complete
intersection on three even classes cut out by a triple of recursively
defined polynomials. Everything is computed in exact rational arithmetic
and every dimension count is cross-checked against an independent closed
form before being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .dga import DGA
from .errors import ValidationFailure
from .free_gca import Element, GeneratorSet


# -- generator sets ----------------------------------------------------------


def invariant_generators(g: int) -> GeneratorSet:
    """α (deg 2), β (deg 4), γ (deg 6); all torus-invariant."""
    gs = GeneratorSet(g)
    gs.add("α", 2)
    gs.add("β", 4)
    gs.add("γ", 6)
    return gs


def full_generators(g: int) -> GeneratorSet:
    """α, γ_1..γ_2g, β; γ_i carries weight +L_i for i <= g, else -L_{i-g}."""
    gs = GeneratorSet(g)
    gs.add("α", 2)
    for i in range(1, 2 * g + 1):
        w = [0] * g
        if i <= g:
            w[i - 1] = 1
        else:
            w[i - g - 1] = -1
        gs.add(f"γ{i}", 3, w)
    gs.add("β", 4)
    return gs


# -- the relation polynomials -------------------------------------------------


@dataclass(frozen=True)
class QTriple:
    """The generating triple of the invariant relation ideal at genus g."""

    g: int
    q1: Element
    q2: Element
    q3: Element

    @property
    def triple(self):
        return (self.q1, self.q2, self.q3)


def q_polynomials(g: int, gs: GeneratorSet | None = None) -> QTriple:
    """Run the defining recursion from (1, 0, 0) up to genus g.

    Degrees come out as 2g, 2g+2, 2g+4.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if gs is None:
        gs = invariant_generators(g)
    alpha, beta, gamma = gs.gen("α"), gs.gen("β"), gs.gen("γ")
    q1, q2, q3 = gs.unit(), gs.zero(), gs.zero()
    for r in range(g):
        q1, q2, q3 = (
            alpha * q1 + (r * r) * q2,
            beta * q1 + Fraction(2 * r, r + 1) * q3,
            gamma * q1,
        )
    out = QTriple(g, q1, q2, q3)
    degrees = (q1.degree(), q2.degree(), q3.degree())
    if degrees != (2 * g, 2 * g + 2, 2 * g + 4):
        raise ValidationFailure(f"relation degrees {degrees} are off for genus {g}")
    return out


def symplectic_form_element(gs: GeneratorSet, g: int) -> Element:
    """ω = Σ γ_i γ_{i+g}, the invariant 2-form in the odd classes."""
    out = gs.zero()
    for i in range(1, g + 1):
        out = out + gs.gen(f"γ{i}") * gs.gen(f"γ{i + g}")
    return out


def gamma_expansion(gs: GeneratorSet, g: int) -> Element:
    """γ written in the odd classes: -2 Σ γ_i γ_{i+g}."""
    return (-2) * symplectic_form_element(gs, g)


def expand_invariant(poly: Element, gs_full: GeneratorSet, g: int) -> Element:
    """Substitute α -> α, β -> β, γ -> -2 Σ γ_i γ_{i+g} into an invariant
    polynomial, landing in the full generator set."""
    alpha, beta = gs_full.gen("α"), gs_full.gen("β")
    gam = gamma_expansion(gs_full, g)
    src = poly.gs
    out = gs_full.zero()
    for m, c in poly.terms.items():
        exps = dict(m.even)
        a = exps.get(src["α"].ordinal, 0)
        b = exps.get(src["β"].ordinal, 0)
        cc = exps.get(src["γ"].ordinal, 0)
        term = gs_full.unit(c)
        term = term * alpha ** a * beta ** b * gam ** cc
        out = out + term
    return out


# -- primitive parts of the exterior algebra ----------------------------------


def primitive_basis(g: int, k: int):
    """Kernel basis of multiplication by ω^{g-k+1} on the k-fold products
    of the odd classes. Dimension C(2g,k) - C(2g,k-2)."""
    if not 0 <= k <= g:
        raise ValueError("need 0 <= k <= g")
    gs = full_generators(g)
    if k == 0:
        return [gs.unit()]
    src = [m for m in gs.basis(3 * k) if m.even == () and m.odd.bit_count() == k]
    power = g - k + 1
    omega_pow = symplectic_form_element(gs, g) ** power
    dst_deg = 3 * (k + 2 * power)
    dst = [m for m in gs.basis(dst_deg)
           if m.even == () and m.odd.bit_count() == k + 2 * power]
    index = {m: i for i, m in enumerate(dst)}
    from . import exact_linalg as ela

    columns = []
    for m in src:
        prod = omega_pow * Element(gs, {m: Fraction(1)})
        columns.append({index[mm]: c for mm, c in prod.terms.items()})
    mat = ela.RationalMatrix.from_columns(columns, len(dst))
    vecs = ela.kernel_basis(mat)
    expected = primitive_dimension(g, k)
    if len(vecs) != expected:
        raise ValidationFailure(
            f"primitive part ({g},{k}) has dimension {len(vecs)} != {expected}")
    return [Element(gs, {src[i]: v for i, v in vec.items()})
            for vec in vecs]


def primitive_dimension(g: int, k: int) -> int:
    """Closed-form dimension of the k-th primitive part."""
    return comb(2 * g, k) - (comb(2 * g, k - 2) if k >= 2 else 0)


# -- the relation subspace and the full ring ----------------------------------


def relation_subspace_E(g: int):
    """Basis of the subspace generating the full relation ideal.

    Ordered blocks: the genus-g relation of degree 2g, the one of degree
    2g+2, then the genus-(g-k) lead relation times the k-th primitive part
    for k = 1..g-1, then the g-th primitive part itself.
    """
    if g < 2:
        raise ValueError("the full ring needs genus >= 2")
    gs = full_generators(g)
    qg = q_polynomials(g)
    out = [expand_invariant(qg.q1, gs, g), expand_invariant(qg.q2, gs, g)]
    for k in range(1, g):
        lead = expand_invariant(q_polynomials(g - k).q1, gs, g)
        for p in primitive_basis(g, k):
            out.append(lead * _transplant(p, gs))
    for p in primitive_basis(g, g):
        out.append(_transplant(p, gs))
    return out


def _transplant(x: Element, gs: GeneratorSet) -> Element:
    # primitive_basis builds its own generator set with identical layout
    return Element(gs, dict(x.terms))


def build_cohomology_algebra(g: int) -> DGA:
    """Quotient of the free algebra by the ideal on E, degrees 0..6g-6.

    Validates the expected top class, Poincaré duality and the degree-2/3
    dimensions; failure signals a bug, not a user error.
    """
    if g < 2:
        raise ValueError("the full ring needs genus >= 2")
    gs = full_generators(g)
    ring = DGA(gs, {}, relations=relation_subspace_E(g))
    top = 6 * g - 6
    betti = [ring.dim(n) for n in range(top + 1)]
    for n in range(top + 1, top + 4):
        if ring.dim(n) != 0:
            raise ValidationFailure(f"nonzero dimension {ring.dim(n)} above top degree")
    if betti[top] != 1:
        raise ValidationFailure(f"top degree dimension {betti[top]} != 1")
    if betti[2] != 1 or betti[3] != 2 * g:
        raise ValidationFailure("degree 2/3 dimensions are off")
    for n in range(top + 1):
        if betti[n] != betti[top - n]:
            raise ValidationFailure(f"Poincaré duality fails at degree {n}")
    return ring


# -- invariant subring ---------------------------------------------------------


def hilbert_complete_intersection(g: int, up_to: int):
    """Coefficients of (1-t^2g)(1-t^(2g+2))(1-t^(2g+4)) /
    ((1-t^2)(1-t^4)(1-t^6)) through degree ``up_to``."""
    coeffs = [0] * (up_to + 1)
    coeffs[0] = 1
    for d in (2 * g, 2 * g + 2, 2 * g + 4):
        if d <= up_to:
            nxt = coeffs[:]
            for i in range(d, up_to + 1):
                nxt[i] -= coeffs[i - d]
            coeffs = nxt
    for d in (2, 4, 6):
        for i in range(d, up_to + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


def invariant_ring(g: int, check_up_to: int | None = None) -> DGA:
    """The invariant subring as a quotient of the polynomial algebra on
    α, β, γ by the genus-g relation triple.

    The rowwise dimension count is verified against the complete-
    intersection closed form before the ring is returned.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    gs = invariant_generators(g)
    ring = DGA(gs, {}, relations=list(q_polynomials(g, gs).triple))
    hi = check_up_to if check_up_to is not None else 6 * g - 6 + 2
    expected = hilbert_complete_intersection(g, hi)
    for n in range(hi + 1):
        if ring.dim(n) != expected[n]:
            raise ValidationFailure(
                f"invariant ring dimension at degree {n}: "
                f"{ring.dim(n)} != closed form {expected[n]}")
    return ring


# -- Betti numbers, two ways ----------------------------------------------------


def betti_decomposition(g: int):
    """Betti numbers from the primitive-part decomposition: the k-th
    primitive part (sitting in degree 3k) tensored with the genus-(g-k)
    complete intersection, summed over k = 0..g-1. Pure combinatorics."""
    top = 6 * g - 6
    out = [0] * (top + 1)
    for k in range(g):
        dim_k = primitive_dimension(g, k)
        hilb = hilbert_complete_intersection(g - k, top)
        for n in range(top + 1):
            if n - 3 * k >= 0 and hilb[n - 3 * k]:
                out[n] += dim_k * hilb[n - 3 * k]
    return out


def betti_numbers(g: int):
    """Betti numbers computed two independent ways and cross-checked."""
    ring = build_cohomology_algebra(g)
    betti = [ring.dim(n) for n in range(6 * g - 5)]
    formula = betti_decomposition(g)
    if betti != formula:
        raise ValidationFailure(
            f"Betti cross-check failed: quotient {betti} vs "
            f"decomposition {formula}")
    return betti
