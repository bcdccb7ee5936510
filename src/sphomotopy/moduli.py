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
The checks enumerate and row-reduce only the dominant weight blocks of
the relation ideal I, with the one recursion ``dga.ideal_block`` that
builds every block of the ring: I^n_w is spanned by the relations of
degree n and weight w and the products x·ρ, x a generator and ρ over
spanning rows of I^{n-deg x}_u, u = w - weight(x). Here the rows of I_u
are those of the dominant block I_{rep(u)}, moved by the certified Weyl
symmetry φ_u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import comb

from . import exact_linalg as ela
from .dga import DGA, ideal_block
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

    q1: Element
    q2: Element
    q3: Element


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
    out = QTriple(q1, q2, q3)
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
    """Canonical kernel basis of multiplication by ω^{g-k+1} on the
    k-fold products of the odd classes. Dimension C(2g,k) - C(2g,k-2)."""
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
        # ω has integer coefficients, and so has ω^{g-k+1}·m
        columns.append({index[mm]: c.numerator for mm, c in prod.terms.items()})
    vecs = ela.kernel_basis(columns, len(dst))
    expected = primitive_dimension(g, k)
    if len(vecs) != expected:
        raise ValidationFailure(
            f"primitive part ({g},{k}) has dimension {len(vecs)} != {expected}")
    return [Element(gs, {src[i]: Fraction(v, den) for i, v in vec.items()})
            for vec in vecs for den in (vec[max(vec)],)]


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


def _move_terms(perm: list, terms, moved: dict) -> list:
    """φ on terms: ``[(φ(m), ±c)]`` for the ``(monomial, c)`` pairs
    ``terms``, φ the signed permutation ``perm`` of the odd classes;
    ``moved`` memoizes ``_permute_odd`` by odd mask."""
    out = []
    for m, c in terms:
        hit = moved.get(m.odd)
        if hit is None:
            hit = moved[m.odd] = _permute_odd(perm, m.odd)
        out.append((Monomial(m.even, hit[1]), hit[0] * c))
    return out


def _signed_permutation(u) -> list:
    """φ_u, the signed permutation of the odd classes that takes the
    dominant representative rep(u) of the weight u to u: ``perm[o]`` is
    ``(ordinal, sign)`` of the image of the o-th odd class (γ_i has
    ordinal i-1).

    φ_u is a permutation π of 1..g with |u_{π(i)}| = rep(u)_i, applied to
    both halves (γ_i -> γ_{π(i)}, γ_{i+g} -> γ_{π(i)+g}), followed by the
    flip γ_j -> γ_{j+g}, γ_{j+g} -> -γ_j at each j with u_j < 0. On
    weights, L_i goes to ±L_{π(i)} with the sign of u_{π(i)}, so the
    weight-rep(u) monomials go to weight-u ones. With ρ = (g, ..., 1), the
    simple reflection s_i (i < g) is φ of ρ with entries i and i+1 swapped,
    and s_g (the flip at g) is φ of ρ with its last entry negated. π is a
    product of s_1..s_{g-1}, and the flip at j is s_g conjugated by the
    permutation swapping j and g, so φ_u lies in the group of the simple
    reflections: it preserves ω = Σ γ_i γ_{i+g}, fixes α and β, and maps I
    onto I once ``_certify_weyl_stable`` has passed.
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
    """Raise unless each simple reflection (see ``_signed_permutation``)
    maps the span of the relations into itself.

    The span is graded by (degree, weight), and a reflection s maps the
    (d, w) part into the (d, s·w) part. So for each degree d the images of
    the degree-d relations under every s are collected by the weight they
    land in, and each destination part must keep its rank when they are
    added: the span is unchanged iff every image lies in it. Each s
    induces a degree-preserving algebra automorphism φ_s of the free
    algebra, so φ_s(E) ⊆ span E ⊆ I gives φ_s(I^n) ⊆ I^n and, I^n being
    finite-dimensional, φ_s(I^n) = I^n.
    """
    gs = ring.gs
    rho = list(range(g, 0, -1))
    reflected = [rho[:i] + [rho[i + 1], rho[i]] + rho[i + 2:] for i in range(g - 1)]
    # each with its memo: odd mask -> (sign, mask) under s
    reflections = [(_signed_permutation(u), {}) for u in reflected + [rho[:-1] + [-1]]]
    for d, parts in ring.relation_groups.items():
        images: dict = {}  # weight -> images of the degree-d relations there
        for perm, moved in reflections:
            for terms in chain.from_iterable(parts.values()):
                image = _move_terms(perm, terms, moved)
                images.setdefault(gs.weight(image[0][0]), []).append(image)
        for w, vecs in images.items():
            target = parts.get(w, [])
            if _span_rank(target + vecs) != _span_rank(target):
                raise ValidationFailure(
                    f"Weyl certificate failed: a simple reflection maps a relation "
                    f"of degree {d} to weight {w}, out of the span of the relations")


def _span_rank(vecs: list) -> int:
    """Rank of the span of vectors given as ``(monomial, int)`` pairs."""
    index: dict = {}
    rows = [ela._row((index.setdefault(m, len(index)), c) for m, c in v)
            for v in vecs]
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
    q = q_polynomials(g, gs)
    ring = DGA(gs, relations=[q.q1, q.q2, q.q3])
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

    The dimensions come from the dominant weight blocks only. γ_i adds
    ±L_i at most once and α, β have weight 0, so every weight of the free
    algebra has entries in {-1, 0, 1}, and its dominant weights are
    μ_j = (1^j, 0^{g-j}), j = 0..g. φ_u maps the free (n, rep(u)) block
    one to one onto the (n, u) block up to signs, so the weights of the
    free degree-n basis are the W-orbits of the μ_j whose block is not
    empty, and the orbit of μ_j has C(g, j)·2^j weights. Once the relation
    ideal I is certified Weyl-stable, φ_u preserves I too, so
    dim A^n_u = dim A^n_{rep(u)} and dim A^n = Σ_j C(g, j)·2^j·dim A^n_{μ_j}.
    Failure signals a bug, not a user error.

    The dominant blocks come from ``_dominant_blocks``: their free
    monomials from their shape, and I by the recursion of
    ``dga.ideal_block``, which reads each lower block I^k_u as φ_u of the
    dominant block I^k_{rep(u)}. The certificate runs first, and φ_u
    (``_signed_permutation``) is a product of the simple reflections it
    certifies, so φ_u(I^k_{rep(u)}) = I^k_u: the moved rows span I^k_u,
    and the RREF, being unique, is the ring's own.
    """
    if g < 2:
        raise ValueError("the full ring needs genus >= 2")
    gs = full_generators(g)
    # refuse before forming products, on the counts through degree 6g-3:
    # the model path reads whole degrees of the free algebra
    gs.check_budget(range(6 * g - 2), budget)
    ring = DGA(gs, relations=relation_subspace_E(g))
    _certify_weyl_stable(ring, g)
    dims = [0] * (6 * g - 2)
    for (n, w), (monos, pivot_cols, _) in _dominant_blocks(ring, g).items():
        j = sum(w)
        dims[n] += comb(g, j) * 2 ** j * (len(monos) - len(pivot_cols))
    _check_ring_dims(g, dims)
    betti = dims[:6 * g - 5]
    formula = betti_decomposition(g)
    if betti != formula:
        raise ValidationFailure(
            f"Betti cross-check failed: quotient {betti} vs "
            f"decomposition {formula}")
    return ring, betti


def _dominant_blocks(ring: DGA, g: int) -> dict:
    """``{(n, μ_j): (monos, pivot_cols, rows)}`` for n = 0..6g-3 and each
    dominant weight μ_j = (1^j, 0^{g-j}) whose free degree-n block is not
    empty (see ``_full_ring``): the block's free monomials, built from
    their shape (``_free_block``), and ``dga.ideal_block`` of I^n_{μ_j},
    which reads I^k_u as the dominant block (k, rep(u)), built already,
    moved by φ_u.
    """
    gs = ring.gs
    blocks: dict = {}
    evens: dict = {}  # shared by the blocks, see _free_block

    def lower(k, u):
        low = blocks.get((k, _dominant_orbit_rep(u)))
        if low is None or not low[2]:
            return None
        return _move_terms(_signed_permutation(u), zip(low[0], repeat(1)),
                           {}), low[2]

    for n in range(6 * g - 2):
        for j in range(g + 1):
            w = (1,) * j + (0,) * (g - j)
            monos = _free_block(g, n, j, evens)
            if monos:
                blocks[n, w] = (monos, *ideal_block(gs, ring.relation_groups,
                                                    n, w, lower, monos))
    return blocks


def _free_block(g: int, n: int, j: int, evens: dict) -> list:
    """The monomials of ``full_generators(g)`` of degree n and weight μ_j,
    in basis order.

    Coordinate i of a monomial's weight is [γ_i present] - [γ_{i+g}
    present], so a monomial of weight μ_j holds γ_1..γ_j, and for each
    i > j both of γ_i, γ_{i+g} or neither, say k such pairs; the rest is
    α^a·β^b with 2a + 4b = n - 3j - 6k. (α and β have even ordinals 0
    and 1, γ_i odd ordinal i-1.) ``evens`` memoizes the α^a·β^b of each
    leftover degree, so the blocks share them.
    """
    out = []
    for k in range(g - j + 1):
        left = n - 3 * j - 6 * k
        if left < 0:
            break
        ev = evens.get(left)
        if ev is None:
            ev = evens[left] = [] if left % 2 else [
                tuple((o, e) for o, e in ((0, (left - 4 * b) // 2), (1, b)) if e)
                for b in range(left // 4 + 1)]
        for pairs in combinations(range(j, g), k):
            odd = (1 << j) - 1 + sum((1 << i) | (1 << (i + g)) for i in pairs)
            out += [Monomial(e, odd) for e in ev]
    return sorted(out)


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
