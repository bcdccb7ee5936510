"""Cohomology ring of the rank-2, odd-determinant moduli space.

The ring for genus g is presented as the free graded-commutative algebra
on one degree-2 class, 2g degree-3 classes and one degree-4 class, modulo
an explicit relation subspace E. The invariant subring is a complete
intersection on three even classes cut out by a triple of recursively
defined polynomials. Everything is exact: the relations of both rings are
integer images ``(den, {monomial: int})``, the form ``DGA`` takes, and
every dimension count is cross-checked against an independent closed
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

from itertools import combinations, repeat
from math import comb, gcd, lcm
from typing import NamedTuple

from . import exact_linalg as ela
from .dga import DGA, ideal_block, image_sum
from .errors import ValidationFailure
from .free_gca import ONE, GeneratorSet, Monomial, _bits
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


class QTriple(NamedTuple):
    """The generating triple of the invariant relation ideal at genus g,
    as integer images ``(den, {monomial: int})`` over
    ``invariant_generators(g)``."""

    q1: tuple
    q2: tuple
    q3: tuple


def q_polynomials(g: int) -> QTriple:
    """Run the defining recursion from (1, 0, 0) up to genus g, in
    integer images: the step (q1, q2, q3) -> (α·q1 + r²·q2,
    β·q1 + (2r/(r+1))·q3, γ·q1) takes q3 over the den (r+1)·den.

    Degrees come out as 2g, 2g+2, 2g+4.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    gs = invariant_generators(g)
    alpha, beta, gamma = ((1, {gs.monomial_of(x): 1}) for x in ("α", "β", "γ"))
    q1, q2, q3 = (1, {ONE: 1}), (1, {}), (1, {})
    for r in range(g):
        q1, q2, q3 = (
            image_sum([(1, _product(gs, alpha, q1)), (r * r, q2)]),
            image_sum([(1, _product(gs, beta, q1)), (2 * r, ((r + 1) * q3[0], q3[1]))]),
            _product(gs, gamma, q1),
        )
    degrees = tuple(sorted({gs.degree(m) for m in q[1]}) for q in (q1, q2, q3))
    if degrees != ([2 * g], [2 * g + 2], [2 * g + 4]):
        raise ValidationFailure(f"relation degrees {degrees} are off for genus {g}")
    return QTriple(q1, q2, q3)


def expand_invariant(polys, gs_full: GeneratorSet, g: int) -> list:
    """Substitute α -> α, β -> β, γ -> -2ω (ω = Σ γ_i γ_{i+g}) into each
    invariant polynomial of ``polys``, integer images over
    ``invariant_generators(g)``, landing in the full generator set, as
    integer images ``(den, {monomial: int})``.

    The powers of ω are built once, in integers, and shared. α^a·β^b·γ^c
    goes to (-2)^c·α^a·β^b·ω^c, and distinct (a, b, c) of one degree give
    disjoint monomials, so the terms are placed without summing.
    """
    a_o, b_o = gs_full["α"].ordinal, gs_full["β"].ordinal
    # γ_i has odd ordinal i-1, and γ_i·γ_{i+g} is in basis order
    omega = (1, {Monomial((), (1 << i) | (1 << (i + g))): 1 for i in range(g)})
    src = invariant_generators(g)
    pa, pb, pc = src["α"].ordinal, src["β"].ordinal, src["γ"].ordinal
    powers = [(1, {ONE: 1})]  # ω^0, ω^1, ...
    out = []
    for den, ints in polys:
        terms = {}
        for m, c in ints.items():
            exps = dict(m.even)
            cc = exps.get(pc, 0)
            while len(powers) <= cc:
                powers.append(_product(gs_full, powers[-1], omega))
            even = tuple(sorted((o, e) for o, e in ((a_o, exps.get(pa, 0)),
                                                    (b_o, exps.get(pb, 0))) if e))
            scale = c * (-2) ** cc
            for om, v in powers[cc][1].items():
                terms[Monomial(even, om.odd)] = scale * v
        out.append((den, terms))
    return out


def _product(gs: GeneratorSet, a, b):
    """The product of two integer images ``(den, {monomial: int})``."""
    mul = gs.mul_monomials
    out: dict = {}
    for ma, ca in a[1].items():
        for mb, cb in b[1].items():
            sign, m = mul(ma, mb)
            if sign:
                v = out.get(m, 0) + sign * ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
    return a[0] * b[0], out


# -- primitive parts of the exterior algebra ----------------------------------


def primitive_basis(g: int, k: int) -> list:
    """Canonical kernel basis of the contraction Λ: Λ^k -> Λ^{k-2} on the
    k-fold products of the odd classes, as integer images
    ``(den, {monomial: int})``, each vector divided by its entry at its
    largest index. Dimension C(2g,k) - C(2g,k-2).

    Λ(γ_I) = Σ_i ε_i γ_{I∖{i,i+g}} over the i with γ_i, γ_{i+g} in I,
    ε_i the sign of γ_iγ_{i+g}·γ_{I∖{i,i+g}}: the adjoint of L = ω·(-)
    in the monomial basis. On Λ^k, k <= g, ker Λ = ker L^{g-k+1}, the
    primitive part (Lefschetz), and the canonical kernel basis depends
    only on the kernel and the column order.
    """
    if not 0 <= k <= g:
        raise ValueError("need 0 <= k <= g")
    if k == 0:
        return [(1, {ONE: 1})]
    gs = full_generators(g)
    src = _odd_products(gs, k)
    # per i: the mask of γ_iγ_{i+g}, and of the ordinals strictly between
    pairs = [((1 << i) | (1 << (i + g)), (1 << (i + g)) - (1 << (i + 1)))
             for i in range(g)]
    index: dict = {}  # odd mask of Λ^{k-2} -> row
    columns = []
    for m in src:
        col = {}
        for pair, between in pairs:
            if m.odd & pair == pair:
                rest = m.odd ^ pair
                col[index.setdefault(rest, len(index))] = \
                    -1 if (rest & between).bit_count() & 1 else 1
        columns.append(col)
    vecs = ela.kernel_basis(columns, len(index))
    expected = primitive_dimension(g, k)
    if len(vecs) != expected:
        raise ValidationFailure(
            f"primitive part ({g},{k}) has dimension {len(vecs)} != {expected}")
    out = []
    for vec in vecs:
        c = gcd(*vec.values())
        out.append((vec[max(vec)] // c, {src[i]: v // c for i, v in vec.items()}))
    return out


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


def relation_subspace_E(g: int) -> list:
    """Basis of the subspace generating the full relation ideal, as
    integer images ``(den, {monomial: int})`` over ``full_generators(g)``.

    Ordered blocks: the genus-g relation of degree 2g, the one of degree
    2g+2, then the genus-(g-k) lead relation times the k-th primitive part
    for k = 1..g-1, then the g-th primitive part itself.
    """
    if g < 2:
        raise ValueError("the full ring needs genus >= 2")
    gs = full_generators(g)
    qg = q_polynomials(g)
    first, second, *leads = expand_invariant(
        [qg.q1, qg.q2] + [q_polynomials(g - k).q1 for k in range(1, g)], gs, g)
    out = [first, second]
    for k, lead in enumerate(leads, 1):
        out += [_product(gs, lead, p) for p in primitive_basis(g, k)]
    return out + primitive_basis(g, g)


# -- Weyl symmetry of the relation ideal -----------------------------------------


def _permute_odd(perm: list, mask: int):
    """``(sign, mask)`` of the image of the odd product on ``mask``: the
    images' signs times the sign of sorting the images into place, whose
    inversions are counted as each image is placed."""
    sign = 1
    placed = 0
    for o in _bits(mask):
        o, s = perm[o]
        if (placed >> o).bit_count() & 1:  # the images placed above o
            s = -s
        sign *= s
        placed |= 1 << o
    return sign, placed


def _move_terms(perm: list, terms, moved: dict) -> list:
    """φ on terms: ``[(φ(m), ±c)]`` for the ``(monomial, c)`` pairs
    ``terms``, φ the signed permutation ``perm`` of the odd classes;
    ``moved`` memoizes ``_permute_odd`` by odd mask."""
    new = tuple.__new__  # a Monomial without the namedtuple's own __new__
    out = []
    for m, c in terms:
        hit = moved.get(m.odd)
        if hit is None:
            hit = moved[m.odd] = _permute_odd(perm, m.odd)
        out.append((new(Monomial, (m.even, hit[1])), hit[0] * c))
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


def _simple_reflections(g: int) -> list:
    """``[(perm, act)]`` for s_1..s_g: the signed permutation of the odd
    classes (see ``_signed_permutation``) and its action on weights. s_i
    (i < g) swaps entries i and i+1, and s_g negates the last entry."""
    rho = list(range(g, 0, -1))
    out = []
    for i in range(g - 1):
        u = rho[:i] + [rho[i + 1], rho[i]] + rho[i + 2:]
        out.append((_signed_permutation(u),
                    lambda w, i=i: w[:i] + (w[i + 1], w[i]) + w[i + 2:]))
    out.append((_signed_permutation(rho[:-1] + [-1]), lambda w: w[:-1] + (-w[-1],)))
    return out


def _certify_weyl_stable(ring: DGA, g: int):
    """Raise unless each simple reflection (see ``_signed_permutation``)
    maps the span of the relations into itself.

    The span is graded by (degree, weight), and a reflection s maps the
    (d, w) part into the (d, s·w) part. So for each degree d the images of
    the degree-d relations under every s are collected by the weight they
    land in, and each must lie in the span of the destination part: its
    RREF is taken once, and every image must reduce to 0 against it
    (``_in_span``). Each s induces a degree-preserving algebra
    automorphism φ_s of the free algebra, so φ_s(E) ⊆ span E ⊆ I gives
    φ_s(I^n) ⊆ I^n and, I^n being finite-dimensional, φ_s(I^n) = I^n.
    """
    # each with its memo: odd mask -> (sign, mask) under s
    reflections = [(perm, act, {}) for perm, act in _simple_reflections(g)]
    for d, parts in ring.relation_groups.items():
        images: dict = {}  # weight -> images of the degree-d relations there
        for perm, act, moved in reflections:
            for w, rels in parts.items():
                images.setdefault(act(w), []).extend(
                    _move_terms(perm, terms, moved) for terms in rels)
        for w, vecs in images.items():
            if not _in_span(parts.get(w, ()), vecs):
                raise ValidationFailure(
                    f"Weyl certificate failed: a simple reflection maps a relation "
                    f"of degree {d} to weight {w}, out of the span of the relations")


def _in_span(target, vecs) -> bool:
    """Whether every one of ``vecs`` lies in the span of ``target``, all
    given as ``(monomial, int)`` pairs.

    The target is row-reduced once. Its RREF rows ρ_p, scaled to the
    entry L at their pivot p (L the lcm of the pivot entries), are zero
    at the other pivots, so v is in the span iff L·v = Σ_p v[p]·ρ_p, and
    a v with a monomial outside the target's support is not.
    """
    index: dict = {}
    pivot_cols, rref = ela._echelon_rows(
        [ela._row((index.setdefault(m, len(index)), c) for m, c in t) for t in target])
    L = lcm(*(row[p] for p, row in zip(pivot_cols, rref)))
    scaled = {p: [(j, v * (L // row[p])) for j, v in row.items()]
              for p, row in zip(pivot_cols, rref)}
    for vec in vecs:
        coords = {}
        for m, c in vec:
            j = index.get(m)
            if j is None:
                return False
            coords[j] = c
        acc = {j: L * c for j, c in coords.items()}
        for p, c in coords.items():
            for j, r in scaled.get(p, ()):
                acc[j] = acc.get(j, 0) - c * r
        if any(acc.values()):
            return False
    return True


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
    ring = DGA(invariant_generators(g), relations=q_polynomials(g))
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
    moved by φ_u. Each (k, u) is moved once, with one φ_u and one memo of
    its odd masks per u.
    """
    gs = ring.gs
    blocks: dict = {}
    evens: dict = {}  # shared by the blocks, see _free_block
    moved: dict = {}  # k -> {u: what lower(k, u) returns}
    phis: dict = {}  # u -> (φ_u, its memo: odd mask -> (sign, mask))
    reach = max(x.degree for x in gs.gens)  # degree n reads k >= n - reach

    def lower(k, u):
        at = moved.setdefault(k, {})
        if u not in at:
            low = blocks.get((k, _dominant_orbit_rep(u)))
            if low is None or not low[2]:
                at[u] = None
            else:
                if u not in phis:
                    phis[u] = (_signed_permutation(u), {})
                perm, memo = phis[u]
                at[u] = _move_terms(perm, zip(low[0], repeat(1)), memo), low[2]
        return at[u]

    for n in range(6 * g - 2):
        moved.pop(n - reach - 1, None)
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
    new = tuple.__new__  # a Monomial without the namedtuple's own __new__
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
            out += [new(Monomial, (e, odd)) for e in ev]
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
