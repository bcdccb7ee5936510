"""Differential graded algebras on a generator set.

Two flavours share the class:

* free DGAs — ``DGA(gs)`` starts with d = 0 on its generators and grows
  only through ``add_generator``, which adjoins a generator with its
  image; d extends by the graded Leibniz rule. These are the degreewise
  models under construction;
* quotient rings — ``DGA(gs, relations=...)``, a free algebra modulo a
  homogeneous relation subspace, with d = 0; used for the cohomology
  rings the models map into. The relations come as integer images
  ``(den, {monomial: int})``, the form of the differentials, and each is
  checked to be homogeneous in degree and weight. The ring is the
  model's target as it stands: it carries its per-weight bases and the
  reduced form of every monomial.

A free DGA keeps each generator's differential as an integer image
``(den, {monomial: int})`` and assembles d(m) from them as the Leibniz
sum over m's factors, in integers, on every call (``_d_int``); nothing
is kept per monomial. A block of d is
assembled once per cohomology block, over the target monomials its
images hit, and is not kept; it goes to the elimination as the integer
rows of den·d, with den the lcm of the block's denominators: RREF and
the canonical kernel vectors do not change under row scaling, although
they do under column scaling. The cohomology block keeps those rows for
the model's d²=0 check. ``Element``s are built only at the API edge
(``d_monomial``, ``reduce``, ``as_element``).

A quotient keeps one record per degree, read off the row-reduced degree-n
part of the ideal I the relations generate. I splits into (degree,
weight) blocks, and ``ideal_block`` row-reduces each from the relations
in it and generator multiples of the lower blocks' integer RREF rows.
The record holds each block's canonical monomial transversal (the
non-pivot monomials), for each pivot monomial its reduced form over the
transversal, an integer image read off its RREF row, and the RREF rows
themselves, which the blocks of higher degrees read. Reduction replaces
each pivot monomial by its form, in one pass. It is the linear
projection whose kernel is the ideal, so a product may be reduced once,
after all its factors are multiplied: reduce(reduce(a)·b) = reduce(a·b).
A degree's record is built when it is first read, after the lower ones.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import sub
from typing import NamedTuple

from . import exact_linalg as ela
from .errors import InternalInconsistency, ValidationFailure
from .free_gca import Element, GeneratorSet, Monomial, _bits


class CohomologyBlock(NamedTuple):
    """Coboundaries and canonical cohomology representatives in one
    (degree, weight) block.

    ``representative_vectors`` are sparse ``{position: int}`` vectors over
    ``monomials``. Each is den·z_k, z_k a canonical cocycle basis vector
    and den one positive integer for the block. ``coordinates`` gives each
    coboundary in the canonical basis z_k; the coboundaries are the pivot
    columns of d, independent and spanning (see ``DGA.cohomology``).
    ``positions`` says which z_k each representative is.
    ``d_rows`` are the rows of d: n -> n+1 the cocycles were computed
    from, as integer ``(cols, nums)`` pairs over the positions of
    ``monomials`` (see ``DGA._d_rows``); the model checks d²=0 against
    them.
    """

    degree: int
    weight: tuple | None
    monomials: list
    representative_vectors: list
    coordinates: list
    positions: list
    d_rows: list

    @property
    def dim(self) -> int:
        return len(self.representative_vectors)


_ZERO = (1, {})  # the zero integer image, d of a cocycle; never mutated


def as_element(gs, image) -> Element:
    """The ``Element`` view of an integer image ``(den, {monomial: int})``;
    like the ``Element`` constructors, it imports ``fractions`` on call."""
    from fractions import Fraction
    den, terms = image
    return Element(gs, {m: Fraction(c, den) for m, c in terms.items()})


def image_sum(pairs):
    """Σ c·image over ``pairs`` of an int c and an integer image
    ``(den, {key: int})``, as an integer image in lowest terms: its den is
    the lcm of the reduced values' denominators."""
    pairs = list(pairs)
    den = lcm(*(d for _, (d, _) in pairs))
    acc: dict = {}
    for c, (d, terms) in pairs:
        s = c * (den // d)
        for k, v in terms.items():
            acc[k] = acc.get(k, 0) + s * v
    acc = {k: v for k, v in acc.items() if v}
    g = gcd(den, *acc.values())
    return (den, acc) if g == 1 else (den // g, {k: v // g for k, v in acc.items()})


def element_sum(gs, x: Element, image_of) -> Element:
    """The ``Element`` view of Σ c·image_of(m) over the terms c·m of ``x``,
    summed in integer images."""
    den, ints = ela._cleared(x.terms)
    total, terms = image_sum((c, image_of(m)) for m, c in ints.items())
    return as_element(gs, (den * total, terms))


def _relation_blocks(gs, relations) -> list:
    """The (degree, weight) of each relation ``(pos, terms)``, read off one
    packed int per term; raises ``ValidationFailure`` at the first
    relation whose terms differ in degree, else in weight.

    A factor x packs to P(x) = deg x + Σ_i w_i(x)·B^i, B = 2^k. P is
    additive, and a term's P is the sum of two memos, by even part and by
    odd mask. Each field of a term lies within the bound of Σ over its
    factors of max(deg x, |w_i(x)|), and B exceeds twice the bound, so
    the fields are balanced base-B digits: two terms have the same P iff
    they have the same degree and weight, which are the digits of P.
    """
    evens = {m.even for _, terms in relations for m in terms}
    odds = {m.odd for _, terms in relations for m in terms}
    even_size, odd_size = ([max((x.degree, *map(abs, x.weight))) for x in xs]
                           for xs in (gs.even, gs.odd))
    # an odd factor comes at most once
    bound = max((sum(e * even_size[o] for o, e in ev) for ev in evens), default=0) \
        + sum(odd_size)
    k = (2 * bound + 1).bit_length()
    pe, po = ([x.degree + sum(w << k * i for i, w in enumerate(x.weight, 1)) for x in xs]
              for xs in (gs.even, gs.odd))
    evens = {ev: sum(e * pe[o] for o, e in ev) for ev in evens}
    odds = {od: sum(po[o] for o in _bits(od)) for od in odds}
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    for pos, terms in relations:
        keys = {evens[e] + odds[o] for e, o in terms}
        if len(keys) > 1:
            degs = sorted({gs.degree(m) for m in terms})
            raise ValidationFailure(f"relation {pos}: " + (
                f"inhomogeneous element: degrees {degs}" if len(degs) > 1
                else "element is not weight-homogeneous"))
        key, digits = keys.pop(), []
        for _ in range(gs.weight_len + 1):
            digits.append(((key + half) & mask) - half)
            key = (key - digits[-1]) >> k
        out.append((digits[0], tuple(digits[1:])))
    return out


def ideal_block(gs, relation_groups, n: int, w, lower, monos):
    """``(pivot_cols, rows)``: the RREF of I^n_w, the weight-w block of the
    degree-n part of the ideal I that ``relation_groups`` (see
    ``DGA.relation_groups``) generates, over the positions of ``monos``,
    the free block's monomials in basis order, as primitive integer rows.

    I^n = E^n + Σ_x x·I^{n-|x|} over the generators x, since e·m =
    ±x·(e·m') for e ∈ E and m = ±x·m' of positive degree. So the block is
    row-reduced from the relations of degree n and weight w and the
    products x·ρ, ρ over spanning rows of I^{n-|x|}_{w-weight(x)}; RREF is
    unique, so which spanning rows go in does not matter. ``lower(k, u)``
    gives them: None if I^k_u is zero, else ``(columns, rows)``, integer
    ``(cols, nums)`` rows over columns that are ``(monomial, ±1)`` pairs,
    read once in order. x·(-) is injective where the product does not
    vanish, so terms map one by one without summing.
    """
    mul = gs.mul_monomials
    new = tuple.__new__  # a Monomial without the namedtuple's own __new__
    index = {m: i for i, m in enumerate(monos)}
    rows = [ela._row((index[m], c) for m, c in terms)
            for terms in relation_groups.get(n, {}).get(w, ())]
    for x in gs.gens:
        low = lower(n - x.degree, tuple(map(sub, w, x.weight))) \
            if x.degree <= n else None
        if low is None:
            continue
        columns, low_rows = low
        images = []  # lower column -> (sign, column) of x·(-)
        if x.degree % 2:
            # x·m = ±(m.even, m.odd | bit): x moves past m's odd factors
            # below it
            bit = 1 << x.ordinal
            below = bit - 1
            for m, s in columns:
                odd = m.odd
                if odd & bit:
                    images.append((0, 0))
                else:
                    images.append((-s if (odd & below).bit_count() & 1 else s,
                                   index[new(Monomial, (m.even, odd | bit))]))
        else:
            xm = gs.monomial_of(x)
            for m, s in columns:
                sx, mm = mul(xm, m)
                images.append((s * sx, index[mm]) if sx else (0, 0))
        for cols, nums in low_rows:
            row = []
            for c, v in zip(cols, nums):
                s, col = images[c]
                if s:
                    row.append((col, s * v))
            if row:
                rows.append(ela._row(row))
    pivot_cols, rref = ela._echelon_rows(rows)
    # tuples of ints: the collector untracks them, so the blocks a caller
    # keeps do not bring a full collection forward
    return pivot_cols, [ela._row(row.items()) for row in rref]


class DGA:
    def __init__(self, gs: GeneratorSet, *, relations=None):
        """A free DGA, or with ``relations``, a list of integer images
        ``(den, {monomial: int})`` each homogeneous in degree and weight,
        the quotient by the ideal they generate."""
        self.gs = gs
        # generator index -> d as (den, {monomial: int})
        self._d_gen: dict[int, tuple] = {g.index: _ZERO for g in gs.gens}
        # ((degree, weight), its free monomials), see add_generator
        self._guard: tuple = (None, set())
        # degree -> (by_weight, pivots, ideal), see _quotient_data
        self._records: dict = {}
        # (n, weight) -> (source length, pivot columns) of the d(n) block
        self._d_pivots: dict = {}
        # degree -> weight -> the relations there as integer term lists;
        # None for a free DGA
        self.relation_groups = None if relations is None else {}
        rels = [(pos, terms) for pos, (_, terms) in enumerate(relations or ())
                if terms]
        for (_, terms), (n, w) in zip(rels, _relation_blocks(gs, rels)):
            # den·r: scaling a row leaves the RREF alone
            self.relation_groups.setdefault(n, {}).setdefault(w, []).append(
                list(terms.items()))

    # -- construction ------------------------------------------------------

    def add_generator(self, name, degree, weight, d_image):
        """Append a generator with its differential, the integer image
        ``(den, {monomial: int})``, the one way a free DGA gets a nonzero
        differential; returns the generator and keeps the image itself.

        Only the block is checked here: every term of d_image must be a
        monomial of the free (degree+1, weight) block, so that d maps
        every (degree, weight) block into one block. The set of the last
        block's monomials is kept, and read again on a miss: a block only
        grows. The model construction checks d(d(v)) = 0 for a whole block.
        """
        gs = self.gs
        w = tuple(weight) if weight is not None else (0,) * gs.weight_len
        key, block = self._guard
        terms = d_image[1]
        if terms and (key != (degree + 1, w) or not block.issuperset(terms)):
            block = set(gs.basis_by_weight(degree + 1).get(w, ()))
            self._guard = ((degree + 1, w), block)
            if not block.issuperset(terms):
                raise InternalInconsistency(
                    f"d({name}) leaves the ({degree + 1}, {w}) block")
        g = gs.add(name, degree, w)
        self._d_gen[g.index] = d_image
        return g

    # -- differential -------------------------------------------------------

    def _d_int(self, m: Monomial):
        """d(m) as ``(den, {monomial: int})``, assembled on every call.

        The Leibniz sum over m's factors: with m = E·y_1⋯y_k, E the even
        part and the odd y_j ascending,
        d(m) = Σ_{x^e in E} e·d(x)·(m/x) + Σ_j (-1)^(j-1) d(y_j)·(m/y_j).
        d(x) is odd and E/x even, so d(x) goes first with no sign; d(y_j)
        is even and commutes with every factor. den is the lcm of the
        factors' denominators, even where part of the sum cancels: a
        larger den scales a whole block or column by a positive integer,
        which no RREF, kernel basis, span or complement sees.
        """
        gs, d_gen = self.gs, self._d_gen
        parts = []  # (multiplicity or sign, d(factor), m without the factor)
        for i, (o, e) in enumerate(m.even):
            image = d_gen[gs.even[o].index]
            if image[1]:
                rest = m.even[:i] + (((o, e - 1),) if e > 1 else ()) + m.even[i + 1:]
                parts.append((e, image, Monomial(rest, m.odd)))
        sign = 1
        for o in _bits(m.odd):
            image = d_gen[gs.odd[o].index]
            if image[1]:
                parts.append((sign, image, Monomial(m.even, m.odd ^ (1 << o))))
            sign = -sign
        if not parts:
            return _ZERO
        den = lcm(*(image[0] for _, image, _ in parts))
        mul = gs.mul_monomials
        out = {}
        for k, (den_x, terms), rest in parts:
            s = k * (den // den_x)
            for t, c in terms.items():
                sign, mm = mul(t, rest)
                if sign:
                    v = out.get(mm, 0) + sign * s * c
                    if v:
                        out[mm] = v
                    else:
                        del out[mm]
        return (den, out) if out else _ZERO

    def d_monomial(self, m: Monomial) -> Element:
        """d(m) as an ``Element``: an uncached view of the integer form."""
        return as_element(self.gs, self._d_int(m))

    def check_d_squared(self):
        """Generators v with d(d(v)) != 0: with d(v) = (1/den)·Σ c_m·m,
        den·d(d(v)) is the integer sum Σ c_m·d(m) of ``image_sum``."""
        return [g.name for g in self.gs.gens if image_sum(
            (c, self._d_int(m)) for m, c in self._d_gen[g.index][1].items())[1]]

    # -- bases ---------------------------------------------------------------

    def is_quotient(self) -> bool:
        return self.relation_groups is not None

    def basis_by_weight(self, n: int) -> dict:
        """{weight: monomials} of the degree-n basis, weights unsorted."""
        if not self.is_quotient():
            return self.gs.basis_by_weight(n)
        return (self._records.get(n) or self._quotient_data(n))[0]

    def basis(self, n: int, weight=None) -> list[Monomial]:
        by_w = self.basis_by_weight(n)
        if weight is None:
            # the transversal order: monomials are sorted by weight first
            return [m for w in sorted(by_w) for m in by_w[w]]
        return list(by_w.get(tuple(weight), ()))

    def dim(self, n: int) -> int:
        return sum(map(len, self.basis_by_weight(n).values()))

    def _quotient_data(self, n: int):
        """``(by_weight, pivots, ideal)`` of the quotient in degree n, built
        after the lower degrees.

        ``by_weight`` maps each weight with a nonzero block to its sorted
        transversal monomials (the non-pivot columns); ``pivots`` maps each
        pivot monomial to its reduced form, the integer image
        ``(p, {transversal monomial: -v})`` of its primitive RREF row
        p·pivot + Σ v·t. That row has gcd 1, so the form is in lowest terms.
        ``ideal`` maps each weight with a nonzero block of I to its free
        monomials and its RREF rows, as ``ideal_block`` returns them.
        The ideal is block-diagonal over weights, and the RREF of a
        block-diagonal matrix is the union of its blocks' RREFs; RREF is
        unique, so eliminating block by block gives the degree-wide result.
        The degree-wide basis is sorted by weight first, so a block's own
        column order is the degree-wide one.
        """
        records = self._records
        if n in records:
            return records[n]
        for k in range(n):
            if k not in records:
                self._quotient_data(k)

        def lower(k, u):
            block = records[k][2].get(u)
            return block and (zip(block[0], repeat(1)), block[1])

        by_weight, pivots, ideal = {}, {}, {}
        for w, monos in sorted(self.gs.basis_by_weight(n).items()):
            pivot_cols, rows = ideal_block(self.gs, self.relation_groups, n, w,
                                           lower, monos)
            # an RREF row starts at its pivot, and is zero at the others
            for cols, nums in rows:
                pivots[monos[cols[0]]] = (nums[0], {monos[c]: -v for c, v in
                                                    zip(cols[1:], nums[1:])})
            if rows:
                ideal[w] = (monos, rows)
            pivot_set = set(pivot_cols)
            transversal = [m for i, m in enumerate(monos) if i not in pivot_set]
            if transversal:
                by_weight[w] = transversal
        records[n] = by_weight, pivots, ideal
        return records[n]

    def reduced_monomial(self, m: Monomial):
        """The reduced form of m as an integer image: m itself off the
        pivots, else its pivot form (see ``_quotient_data``), not mutated."""
        n = self.gs.degree(m)
        form = (self._records.get(n) or self._quotient_data(n))[1].get(m)
        return form or (1, {m: 1})

    def reduce(self, x: Element) -> Element:
        """Canonical form of ``x`` in the quotient (identity for free DGAs),
        the ``Element`` view of the sum of its terms' reduced forms."""
        return element_sum(self.gs, x, self.reduced_monomial) if self.is_quotient() else x

    # -- cohomology -----------------------------------------------------------

    def d_matrix(self, n: int, weight=None):
        """(source basis, target monomials, matrix of d: n -> n+1) in the
        block, assembled on every call.

        The target monomials are the ones the sources' images hit, in
        first-hit order, one nonzero row each. ``mat.rows`` are the integer
        rows of den·d with den = ``mat.den``, the lcm of the sources'
        denominators. Columns are filled in source order, so each row's
        columns are increasing.
        """
        src = self.basis(n, weight)
        images = [self._d_int(m) for m in src]
        den = lcm(*(dm for dm, _ in images))
        hit: dict = {}  # target monomial -> its row
        for j, (dm, terms) in enumerate(images):
            s = den // dm
            for mm, c in terms.items():
                row = hit.get(mm)
                if row is None:
                    hit[mm] = {j: c * s}
                else:
                    row[j] = c * s
        return src, list(hit), ela.RationalMatrix(len(hit), len(src),
                                                  list(hit.values()), den)

    def _d_rows(self, n: int, w):
        """The source basis of ``d_matrix(n, w)`` and the matrix's rows as
        integer ``(cols, nums)`` pairs: RREF and the kernel do not change
        under row scaling."""
        src, _, mat = self.d_matrix(n, w)
        return src, [(tuple(row), tuple(row.values())) for row in mat.rows]

    def _coboundary_rows(self, n: int, w, src) -> list:
        """d of the degree-(n-1) sources at the pivot columns of the
        d: n-1 -> n block, as integer rows over the positions of ``src``,
        the block's degree-n basis. The pivots are those that
        ``cohomology(n-1, w)`` recorded on the same sources, else those of
        one elimination of the block; an empty block gives no rows. d keeps
        to the block: ``add_generator`` checks every image."""
        low = self.basis(n - 1, w) if n > 0 else []
        size, pivots = self._d_pivots.get((n - 1, w), (0, ()))
        if size != len(low):
            pivots = ela._echelon_rows(self._d_rows(n - 1, w)[1])[0]
        index = {m: i for i, m in enumerate(src)}
        return [ela._row((index[mm], c) for mm, c in self._d_int(low[p])[1].items())
                for p in pivots]

    def cohomology(self, n: int, weight=None) -> CohomologyBlock:
        """Exact coboundaries and a canonical basis of cohomology.

        The cocycles get the canonical kernel basis z_k of d(n): z_k is 1
        at its free column f_k, which is its last nonzero entry, and 0 at
        the other free columns. A cocycle b is therefore Σ_k b[f_k]·z_k.
        The coboundaries are the pivot columns of d(n-1), cleared of
        denominators: independent integer vectors spanning its image (see
        ``_coboundary_rows``). The representatives are the z_k, as the
        integer vectors den·z_k, at the non-pivot positions of the RREF of
        the coboundaries' coordinates, which depends only on their span,
        so the choice is reproducible and, blockwise, weight-pure.

        The pivot columns of an RREF are its leftmost independent columns.
        A generator adjoined since ``cohomology(n-1, w)`` recorded them
        adds no source monomial if the source length is unchanged, and d
        of the old sources is as it was, so they are still those columns.
        """
        w = tuple(weight) if weight is not None else None
        src, up_rows = self._d_rows(n, w)
        pivots, rref = ela._echelon_rows(up_rows)
        self._d_pivots[n, w] = (len(src), pivots)
        z_vecs = ela._kernel_vectors(pivots, rref, len(src))
        b_in = self._coboundary_rows(n, w, src)
        # B ⊆ Z: d(n) kills the pivot columns of d(n-1), which span the rest
        if b_in and not ela._kills(up_rows, b_in):
            raise InternalInconsistency("coboundaries do not lie in cocycles")
        free = {max(z): k for k, z in enumerate(z_vecs)}
        coords = [{free[c]: v for c, v in zip(*b) if c in free} for b in b_in]
        reps_idx = ela.cokernel_complement_indices(coords, len(z_vecs)) \
            if coords else list(range(len(z_vecs)))
        if len(reps_idx) != len(z_vecs) - len(b_in):
            raise InternalInconsistency("coboundaries are dependent in cocycles")
        return CohomologyBlock(
            degree=n,
            weight=w,
            monomials=src,
            representative_vectors=[z_vecs[k] for k in reps_idx],
            coordinates=coords,
            positions=reps_idx,
            d_rows=up_rows,
        )
