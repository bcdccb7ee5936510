"""Cohomology ring of the rank-2, odd-determinant moduli space.

The ring for genus g is presented as the free graded-commutative algebra
on one degree-2 class, 2g degree-3 classes and one degree-4 class, modulo
an explicit relation subspace E. The invariant subring is a complete
intersection on three even classes cut out by a triple of recursively
defined polynomials. Everything is computed in exact rational arithmetic
and every dimension count is cross-checked against an independent closed
form before being trusted.

The full ring is built and checked once, in ``_full_ring``, for the model
and the Betti numbers alike; a whole degree is row-reduced when first read.
The checks row-reduce only the dominant weight blocks of the relation
ideal I. Through degree 3g a block's rows are the products r·m of the
relations with cofactors. E lies in degrees 2g..3g, so above 3g every
cofactor is divisible by a generator x and I^n_w = Σ_x x·I^{n-deg x}_u
with u = w - weight(x). The certified Weyl symmetry φ_u maps the
dominant block I_{rep(u)} onto I_u, so the block is spanned by the
products x·φ_u(ρ) over the RREF rows ρ of the lower dominant blocks; RREF
is unique, so it does not depend on which spanning rows go in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import sub

from . import exact_linalg as ela
from .dga import DGA
from .errors import ValidationFailure
from .free_gca import Element, GeneratorSet, Monomial, _bits
from .sp_characters import _dominant_orbit_rep


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
    src = _odd_products(gs, k)
    power = g - k + 1
    omega_pow = symplectic_form_element(gs, g) ** power
    dst = _odd_products(gs, k + 2 * power)
    index = {m: i for i, m in enumerate(dst)}
    columns = []
    for m in src:
        prod = omega_pow * Element(gs, {m: Fraction(1)})
        columns.append({index[mm]: c for mm, c in prod.terms.items()})
    vecs = ela.kernel_basis(columns, len(dst))
    expected = primitive_dimension(g, k)
    if len(vecs) != expected:
        raise ValidationFailure(
            f"primitive part ({g},{k}) has dimension {len(vecs)} != {expected}")
    return [Element(gs, {src[i]: v for i, v in vec.items()})
            for vec in vecs]


def _odd_products(gs: GeneratorSet, k: int) -> list:
    """The k-fold products of the odd classes in basis order: by weight,
    then by monomial."""
    ms = [Monomial((), sum(1 << o for o in c))
          for c in combinations(range(len(gs.odd)), k)]
    return sorted(ms, key=lambda m: (gs.weight(m), m))


def primitive_dimension(g: int, k: int) -> int:
    """Closed-form dimension of the k-th primitive part."""
    return comb(2 * g, k) - (comb(2 * g, k - 2) if k >= 2 else 0)


# -- the relation subspace ----------------------------------------------------


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


# -- Weyl symmetry of the relation ideal -----------------------------------------


def _coxeter_generators(g: int) -> list:
    """The Coxeter generators of the signed permutations W, as signed
    permutations of the odd ordinals (γ_i has ordinal i-1): ``perm[o]`` is
    ``(ordinal, sign)`` of the image of the o-th odd class.

    s_i (i < g) swaps γ_i with γ_{i+1} and γ_{i+g} with γ_{i+g+1}; s_g
    sends γ_g to γ_2g and γ_2g to -γ_g. Each is symplectic for
    ω = Σ γ_i γ_{i+g}, fixes α and β, and acts on weights as the
    corresponding reflection.
    """
    out = []
    for i in range(g - 1):
        perm = [(o, 1) for o in range(2 * g)]
        perm[i], perm[i + 1] = (i + 1, 1), (i, 1)
        perm[i + g], perm[i + g + 1] = (i + g + 1, 1), (i + g, 1)
        out.append(perm)
    perm = [(o, 1) for o in range(2 * g)]
    perm[g - 1], perm[2 * g - 1] = (2 * g - 1, 1), (g - 1, -1)
    out.append(perm)
    return out


def _permute_odd(perm: list, mask: int):
    """``(sign, mask)`` of the image of the odd product on ``mask``: the
    images' signs times the sign of sorting the images into place."""
    sign = 1
    images = []
    for o in _bits(mask):
        o, s = perm[o]
        sign *= s
        images.append(o)
    for i, a in enumerate(images):
        for b in images[i + 1:]:
            if a > b:
                sign = -sign
    return sign, sum(1 << o for o in images)


def _signed_permutation(u) -> list:
    """φ_u, the signed permutation of the odd classes that takes the
    dominant representative rep(u) of the weight u to u, in the form of
    ``_coxeter_generators``.

    φ_u is a permutation π of 1..g with |u_{π(i)}| = rep(u)_i, applied to
    both halves (γ_i -> γ_{π(i)}, γ_{i+g} -> γ_{π(i)+g}), followed by the
    flip γ_j -> γ_{j+g}, γ_{j+g} -> -γ_j at each j with u_j < 0. On
    weights, L_i goes to ±L_{π(i)} with the sign of u_{π(i)}, so the
    weight-rep(u) monomials go to weight-u ones. π is a product of
    s_1..s_{g-1}, and the flip at j is s_g conjugated by the permutation
    swapping j and g, so φ_u lies in the group of the Coxeter generators:
    it preserves ω = Σ γ_i γ_{i+g}, fixes α and β, and maps I onto I once
    ``_certify_weyl_stable`` has passed.
    """
    g = len(u)
    perm = [None] * (2 * g)
    # a stable sort: π is the identity where u is dominant
    for i, j in enumerate(sorted(range(g), key=lambda j: -abs(u[j]))):
        if u[j] < 0:
            perm[i], perm[i + g] = (j + g, 1), (j, -1)
        else:
            perm[i], perm[i + g] = (j, 1), (j + g, 1)
    return perm


def _certify_weyl_stable(ring: DGA, g: int):
    """Raise unless each Coxeter generator maps the span of the relations
    into itself.

    The span is graded by (degree, weight), and a generator s maps the
    (d, w) part into the (d, s·w) part, so the check is one rank per
    part. Each s induces a degree-preserving algebra automorphism φ_s of
    the free algebra, so φ_s(E) ⊆ span E ⊆ I gives φ_s(I^n) ⊆ I^n and,
    I^n being finite-dimensional, φ_s(I^n) = I^n.
    """
    gs = ring.gs
    ranks: dict = {}  # (degree, weight) -> rank of that part of the span
    for s, perm in enumerate(_coxeter_generators(g), 1):
        moved = {}  # odd mask -> (sign, mask)
        # the relations as degree -> weight -> [(position, integer terms)]
        for d, parts in ring._rel_groups.items():
            for w, rels in parts.items():
                images = []
                for _, terms in rels:
                    image = []
                    for m, c in terms:
                        if m.odd not in moved:
                            moved[m.odd] = _permute_odd(perm, m.odd)
                        sign, mask = moved[m.odd]
                        image.append((Monomial(m.even, mask), sign * c))
                    images.append(image)
                key = (d, gs.weight(images[0][0][0]))
                target = [terms for _, terms in parts.get(key[1], ())]
                if key not in ranks:
                    ranks[key] = _span_rank(target)
                if _span_rank(target + images) != ranks[key]:
                    raise ValidationFailure(
                        f"Weyl certificate failed: s{s} maps a relation of degree "
                        f"{d} and weight {w} out of the span of the relations")


def _span_rank(vecs: list) -> int:
    """Rank of the span of vectors given as ``(monomial, int)`` pairs."""
    index: dict = {}
    rows = []
    for v in vecs:
        row = sorted((index.setdefault(m, len(index)), c) for m, c in v)
        rows.append(tuple(zip(*row)))  # (cols, nums)
    return len(ela._echelon_rows(rows)[0])


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


# -- the full ring and its Betti numbers, two ways ----------------------------


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


def build_cohomology_algebra(g: int, budget: int | None = None) -> DGA:
    """The full ring, certified by ``_full_ring``. A degree is row-reduced
    in full only when it is first read."""
    return _full_ring(g, budget)[0]


def betti_numbers(g: int, budget: int | None = None):
    """b_0..b_{6g-6} of the full ring, cross-checked by ``_full_ring``."""
    return _full_ring(g, budget)[1]


def _full_ring(g: int, budget: int | None):
    """``(ring, betti)``: the quotient of the free algebra by the ideal on
    E, and its Betti numbers, once every postcondition has passed.

    The dimensions come from the dominant weight blocks only. Once the
    relation ideal I is certified Weyl-stable, every φ_w (w ∈ W)
    preserves I and maps the weight-μ block of the free algebra onto the
    weight-wμ block up to signs, so dim A^n_μ = dim A^n_{wμ} and
    dim A^n = Σ over the weights μ of the free degree-n basis of
    dim A^n_{dominant rep of μ}. Failure signals a bug, not a user error.

    The dominant blocks of I come from ``_dominant_blocks``. E lies in
    degrees 2g..3g, so for n > 3g every product e·m (e ∈ E) has a cofactor
    m of positive degree, m = ±x·m' for a generator x, and e·m = ±x·(e·m')
    lies in x·I^{n-deg x}: I^n = Σ_x x·I^{n-deg x}, and weight by weight
    I^n_w = Σ_x x·I^{n-deg x}_u with u = w - weight(x). The certificate
    runs first, and φ_u (``_signed_permutation``) is a product of the
    Coxeter generators it certifies, so φ_u(I^k_{rep(u)}) = I^k_u. The rows
    x·φ_u(ρ), ρ over the RREF rows of I^{n-deg x}_{rep(u)}, therefore span
    I^n_w, and the RREF, being unique, is the one of all products r·m.
    """
    if g < 2:
        raise ValueError("the full ring needs genus >= 2")
    gs = full_generators(g)
    # the checks enumerate the free bases through degree 6g-3: refuse
    # before forming products
    gs.check_budget(range(6 * g - 2), budget)
    ring = DGA(gs, {}, relations=relation_subspace_E(g))
    _certify_weyl_stable(ring, g)
    blocks = _dominant_blocks(ring, g)
    dims = []
    for n in range(6 * g - 2):
        reps = Counter(_dominant_orbit_rep(w) for w in gs.basis_by_weight(n))
        dims.append(sum(k * (len(blocks[n, rep][0]) - len(blocks[n, rep][1]))
                        for rep, k in reps.items()))
    _check_ring_dims(g, dims)
    betti = dims[:6 * g - 5]
    formula = betti_decomposition(g)
    if betti != formula:
        raise ValidationFailure(
            f"Betti cross-check failed: quotient {betti} vs "
            f"decomposition {formula}")
    return ring, betti


def _dominant_blocks(ring: DGA, g: int) -> dict:
    """``{(n, w): (monos, pivot_cols, rows)}`` for each dominant weight w
    of the free degree-n basis, n = 0..6g-3: the block's free monomials,
    and the pivot columns and rows of the RREF of I^n_w, each row as
    integer ``(cols, nums)`` cleared of its denominators.

    Through degree 3g the RREF is ``ring._quotient_block``'s, over the
    same positions. Above it, the block is row-reduced from x·φ_u(ρ) for
    each generator x, u = w - weight(x), and ρ the rows of the block
    (n - deg x, rep(u)), which is dominant and built already; see
    ``_full_ring`` for why they span I^n_w. Both x·(-) and φ_u are
    injective on monomials where the product does not vanish, so a row's
    terms map term by term without summing. Either way the RREF rows are
    cleared once, here.
    """
    gs = ring.gs
    mul = gs.mul_monomials
    gens = [(gs.monomial_of(x), x.degree, x.weight) for x in gs.gens]
    blocks: dict = {}
    for n in range(6 * g - 2):
        for w, monos in gs.basis_by_weight(n).items():
            if w != _dominant_orbit_rep(w):
                continue
            if n <= 3 * g:
                pivot_cols, rref = ring._quotient_block(n, w)
            else:
                index = {m: i for i, m in enumerate(monos)}
                products = []
                for xm, dx, wx in gens:
                    u = tuple(map(sub, w, wx))
                    low = blocks.get((n - dx, _dominant_orbit_rep(u)))
                    if low is None or not low[2]:
                        continue
                    perm = _signed_permutation(u)
                    moved: dict = {}  # odd mask -> (sign, mask) under φ_u
                    images = []  # lower column -> (sign, column) of x·φ_u
                    for m in low[0]:
                        if m.odd not in moved:
                            moved[m.odd] = _permute_odd(perm, m.odd)
                        s, mask = moved[m.odd]
                        sx, mm = mul(xm, Monomial(m.even, mask))
                        images.append((s * sx, index[mm]) if sx else (0, 0))
                    for cols, nums in low[2]:
                        row = []
                        for c, v in zip(cols, nums):
                            s, col = images[c]
                            if s:
                                row.append((col, s * v))
                        if row:
                            row.sort()
                            products.append(tuple(zip(*row)))
                pivot_cols, rref = ela._echelon_rows(products)
            # tuples of ints: the collector untracks them, so the blocks,
            # which live as long as this loop, do not bring a full
            # collection forward
            rows = []
            for row in rref:
                nums = ela._cleared(row)[1]
                rows.append((tuple(nums), tuple(nums.values())))
            blocks[n, w] = (monos, pivot_cols, rows)
    return blocks


def _check_ring_dims(g: int, dims: list):
    """The postconditions on dim A^n for n = 0..6g-3: zero above the top
    degree 6g-6, a one-dimensional top class, the degree-2/3 dimensions
    and Poincaré duality."""
    top = 6 * g - 6
    for n in range(top + 1, top + 4):
        if dims[n] != 0:
            raise ValidationFailure(f"nonzero dimension {dims[n]} above top degree")
    if dims[top] != 1:
        raise ValidationFailure(f"top degree dimension {dims[top]} != 1")
    if dims[2] != 1 or dims[3] != 2 * g:
        raise ValidationFailure("degree 2/3 dimensions are off")
    for n in range(top + 1):
        if dims[n] != dims[top - n]:
            raise ValidationFailure(f"Poincaré duality fails at degree {n}")
