"""Differential graded algebras on a generator set.

Two flavours share the class:

* free DGAs — differential given on generators, extended by the graded
  Leibniz rule; used for the degreewise models under construction;
* quotient rings — a free algebra modulo a homogeneous relation
  subspace, with zero differential; used for the cohomology rings the
  models map into. The ring is the model's target as it stands: it
  carries its per-weight bases, reduction, products and the coordinates
  of an element in one (degree, weight) block.

A free DGA keeps each generator's differential as an integer image
``(den, {monomial: int})`` and assembles d(m) from it with the Leibniz
rule on the last factor, in integers, once per monomial. A block of d is
assembled once per cohomology block and is not kept; it goes to the
elimination as integer rows, cleared one row (target monomial) at a time:
RREF and the canonical kernel vectors do not change under row scaling,
although they do under column scaling. The cohomology block keeps those
rows for the model's d²=0 check. ``Element``s are built only at the API
edge (``d_monomial``, ``apply_d``, cohomology representatives on
request).

A quotient keeps one record per degree, read off the row-reduced span of
the relations in that degree. Every relation has one degree and one
weight, so that span splits into (degree, weight) blocks, and each block
is row-reduced on its own. The record holds each block's canonical
monomial transversal (the non-pivot monomials) and, for each pivot
monomial, its reduced form over the transversal. Reduction replaces each
pivot monomial by its form, in one pass; multiplication is
multiply-then-reduce, which is well defined because the relations are
homogeneous.
A degree's record is built when the degree is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import sub

from . import exact_linalg as ela
from .errors import InternalInconsistency, ValidationFailure
from .free_gca import ONE, Element, GeneratorSet, Monomial


@dataclass
class CohomologyBlock:
    """Coboundaries and canonical cohomology representatives in one
    (degree, weight) block.

    ``coboundary_vectors`` and ``representative_vectors`` are sparse
    ``{position: rational}`` vectors over ``monomials``; the coboundary
    vectors are independent and span the coboundaries, as pivot columns
    of d or as RREF rows (see ``DGA.cohomology``). ``coboundaries`` and
    ``representatives`` are the same as ``Element``s, built on first use.
    ``coordinates`` gives each coboundary vector in the canonical basis of
    the cocycles, and ``positions`` says which cocycle basis vector each
    representative is. ``d_rows`` are the rows of d: n -> n+1 the cocycles
    were computed from, as integer ``(cols, nums)`` pairs over the
    positions of ``monomials`` (see ``DGA._d_rows``); the model checks
    d²=0 against them.
    """

    degree: int
    weight: tuple | None
    monomials: list
    coboundary_vectors: list
    representative_vectors: list
    coordinates: list
    positions: list
    d_rows: list
    gs: GeneratorSet

    @property
    def dim(self) -> int:
        return len(self.representative_vectors)

    def _elements(self, vecs):
        src = self.monomials
        return [Element(self.gs, {src[i]: v for i, v in vec.items()})
                for vec in vecs]

    @cached_property
    def coboundaries(self) -> list:
        return self._elements(self.coboundary_vectors)

    @cached_property
    def representatives(self) -> list:
        return self._elements(self.representative_vectors)


_NO_D = (1, {})  # the integer differential of a cocycle; never mutated


class DGA:
    def __init__(self, gs: GeneratorSet, differential=None, relations=None):
        self.gs = gs
        self.relations = list(relations) if relations else None
        # generator index, resp. monomial -> d as (den, {monomial: int})
        self._d_gen: dict[int, tuple] = {g.index: _NO_D for g in gs.gens}
        self._d_cache: dict = {ONE: _NO_D}
        # one object per monomial that occurs as a term of some d(m)
        self._terms: dict = {}
        # degree -> (by_weight, pivots), see _quotient_data
        self._quot_cache: dict = {}
        # (n, weight) -> (source length, pivot columns) of the d(n) block
        self._d_pivots: dict = {}
        for name, img in (differential or {}).items():
            g = gs[name]
            if not img.is_zero():
                try:
                    deg, wt = img.degree(), img.weight()
                except ValueError as exc:
                    raise ValidationFailure(f"d({name}): {exc}") from None
                if deg != g.degree + 1:
                    raise ValidationFailure(
                        f"d({name}) must be homogeneous of degree {g.degree + 1}")
                if wt != g.weight:
                    raise ValidationFailure(
                        f"d({name}) must preserve the weight {g.weight}")
            self._d_gen[g.index] = ela._cleared(img.terms)
        if self.relations is not None:
            if any(terms for _, terms in self._d_gen.values()):
                raise ValidationFailure(
                    "quotient targets must carry the zero differential")
            # degree -> weight -> [(position, integer terms)], see _quotient_block
            self._rel_groups: dict = {}
            for pos, r in enumerate(self.relations):
                try:
                    deg, wt = r.degree(), r.weight()
                except ValueError as exc:
                    raise ValidationFailure(f"relation {pos}: {exc}") from None
                if deg is None:
                    continue
                # integer multiple of r: scaling a row leaves the RREF alone
                _, terms = ela._cleared(r.terms)
                self._rel_groups.setdefault(deg, {}).setdefault(wt, []).append(
                    (pos, list(terms.items())))
        bad = self.check_d_squared()
        if bad:
            raise ValidationFailure(f"d·d != 0 on generators: {bad}")

    # -- construction ------------------------------------------------------

    def add_generator(self, name, degree, weight, d_image: Element):
        """Append a generator with its differential (model growth path).

        Nothing is checked here: the model construction checks d(d(v)) = 0
        for a whole block at once, and ``d_matrix`` rejects a differential
        that leaves its (degree, weight) block.
        """
        g = self.gs.add(name, degree, weight)
        self._d_gen[g.index] = ela._cleared(d_image.terms)
        return g

    # -- differential -------------------------------------------------------

    def _d_int(self, m: Monomial):
        """d(m) as ``(den, {monomial: int})``, cached per monomial.

        Leibniz on the last factor: m = rest·g with g the last odd
        generator, or the last even one if m has no odd factor, and
        d(rest·g) = d(rest)·g + (-1)^|rest| rest·d(g). The terms are
        interned: many d(m) share a term, and a term's odd mask can be
        thousands of bits long.
        """
        cached = self._d_cache.get(m)
        if cached is not None:
            return cached
        gs = self.gs
        if m.odd:
            top = 1 << (m.odd.bit_length() - 1)
            rest = Monomial(m.even, m.odd ^ top)
            gen = gs.odd[top.bit_length() - 1]
            sign_g = -1 if rest.odd.bit_count() & 1 else 1
        else:
            o, e = m.even[-1]
            rest = Monomial(m.even[:-1] + (((o, e - 1),) if e > 1 else ()), 0)
            gen = gs.even[o]
            sign_g = 1
        den_r, t_r = self._d_int(rest)
        den_g, t_g = self._d_gen[gen.index]
        if not t_r and not t_g:
            self._d_cache[m] = _NO_D
            return _NO_D
        den = lcm(den_r, den_g)
        mul = gs.mul_monomials
        term = self._terms.setdefault
        out = {}
        if t_r:
            # t ↦ t·g is injective where it does not vanish
            gm = gs.monomial_of(gen)
            s = den // den_r
            for t, c in t_r.items():
                sign, mm = mul(t, gm)
                if sign:
                    out[term(mm, mm)] = sign * s * c
        if t_g:
            s = sign_g * (den // den_g)
            for t, c in t_g.items():
                sign, mm = mul(rest, t)
                if sign:
                    mm = term(mm, mm)
                    v = out.get(mm, 0) + sign * s * c
                    if v:
                        out[mm] = v
                    else:
                        del out[mm]
        res = (den, out) if out else _NO_D
        self._d_cache[m] = res
        return res

    def d_monomial(self, m: Monomial) -> Element:
        """d(m) as an ``Element``: an uncached view of the integer form."""
        den, terms = self._d_int(m)
        return Element(self.gs, {mm: Fraction(c, den) for mm, c in terms.items()})

    def apply_d(self, x: Element) -> Element:
        out = self.gs.zero()
        for m, c in x.terms.items():
            out = out + self.d_monomial(m).scale(c)
        return out

    def check_d_squared(self):
        """Generators v with d(d(v)) != 0."""
        return [g.name for g in self.gs.gens
                if not self.apply_d(self.d_monomial(self.gs.monomial_of(g))).is_zero()]

    # -- bases ---------------------------------------------------------------

    def is_quotient(self) -> bool:
        return self.relations is not None

    def basis_by_weight(self, n: int) -> dict:
        """{weight: monomials} of the degree-n basis, weights unsorted."""
        if not self.is_quotient():
            return self.gs.basis_by_weight(n)
        return (self._quot_cache.get(n) or self._quotient_data(n))[0]

    def basis(self, n: int, weight=None) -> list[Monomial]:
        by_w = self.basis_by_weight(n)
        if weight is None:
            # the transversal order: monomials are sorted by weight first
            return [m for w in sorted(by_w) for m in by_w[w]]
        return list(by_w.get(tuple(weight), ()))

    def dim(self, n: int) -> int:
        return sum(map(len, self.basis_by_weight(n).values()))

    def coords_block(self, x: Element, n: int, w) -> dict:
        """Sparse coordinates over the weight-w block of the degree-n basis."""
        block = self.basis_by_weight(n).get(w, [])
        index = {m: i for i, m in enumerate(block)}
        out = {}
        for m, c in x.terms.items():
            try:
                out[index[m]] = c
            except KeyError:
                raise InternalInconsistency(
                    f"target element leaves the ({n}, {w}) block") from None
        return out

    def _quotient_data(self, n: int):
        """``(by_weight, pivots)`` of the quotient in degree n.

        ``by_weight`` maps each weight with a nonzero block to its sorted
        transversal monomials (the non-pivot columns); ``pivots`` maps each
        pivot monomial to its reduced form ``{transversal monomial: Fraction}``.
        The span of the products r·m is block-diagonal over weights, and
        the RREF of a block-diagonal matrix is the union of its blocks'
        RREFs; RREF is unique, so eliminating block by block gives the
        degree-wide result. The degree-wide basis is sorted by weight
        first, so a block's own column order is the degree-wide one.
        """
        cached = self._quot_cache.get(n)
        if cached is not None:
            return cached
        by_weight = {}
        pivots = {}
        for w, monos in sorted(self.gs.basis_by_weight(n).items()):
            pivot_cols, rref = self._quotient_block(n, w)
            # an RREF row is zero at the other pivot columns
            for p, row in zip(pivot_cols, rref):
                pivots[monos[p]] = {monos[c]: -v for c, v in row.items() if c != p}
            pivot_set = set(pivot_cols)
            transversal = [m for i, m in enumerate(monos) if i not in pivot_set]
            if transversal:
                by_weight[w] = transversal
        cached = (by_weight, pivots)
        self._quot_cache[n] = cached
        return cached

    def _quotient_block(self, n: int, w):
        """``(pivot_cols, rref)`` of the relations' span in the weight-w
        block of degree n, uncached, over the positions of the block's
        free monomials ``gs.basis_by_weight(n)[w]``; see ``_echelon_rows``.

        The block's rows are the products r·m with m of weight
        w - weight(r), found by lookup in the relations grouped by
        (degree, weight), and they go in in the relations' order.
        """
        gs = self.gs
        mul = gs.mul_monomials
        monos = gs.basis_by_weight(n)[w]
        found = []  # (relation position, terms, cofactors)
        for dr, groups in self._rel_groups.items():
            if dr > n:
                continue
            cofactors = gs.basis_by_weight(n - dr)
            # look up the weight pairs summing to w from the smaller side
            swap = len(cofactors) < len(groups)
            small, big = (cofactors, groups) if swap else (groups, cofactors)
            for wa, a in small.items():
                b = big.get(tuple(map(sub, w, wa)))
                if b:
                    rels, ms = (b, a) if swap else (a, b)
                    found.extend((pos, terms, ms) for pos, terms in rels)
        found.sort(key=lambda f: f[0])
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for _, terms, ms in found:
            for m in ms:
                # mr ↦ mr·m is injective, so no two terms of r share a
                # product monomial and no coefficients need summing
                row = []
                odd = m.odd
                for mr, c in terms:
                    if mr.odd & odd:
                        continue  # an odd square: the product vanishes
                    sign, mm = mul(mr, m)
                    row.append((index[mm], sign * c))
                if row:
                    row.sort()
                    rows.append(tuple(zip(*row)))  # (cols, nums)
        return ela._echelon_rows(rows)

    def reduce(self, x: Element) -> Element:
        """Canonical form of ``x`` in the quotient (identity for free DGAs).

        One pass over the terms: a pivot monomial is replaced by its
        reduced form, which has no pivot monomial in it.
        """
        if not self.is_quotient() or x.is_zero():
            return x
        gs = self.gs
        cache = self._quot_cache
        out: dict = {}
        for m, c in x.terms.items():
            n = gs.degree(m)
            form = (cache.get(n) or self._quotient_data(n))[1].get(m)
            if form is None:
                form = ((m, c),)
            else:
                form = [(t, c * v) for t, v in form.items()]
            for t, v in form:
                if t in out:
                    v += out[t]
                    if not v:
                        del out[t]
                        continue
                out[t] = v
        return Element(gs, out)

    def multiply(self, x: Element, y: Element) -> Element:
        return self.reduce(x * y)

    # -- cohomology -----------------------------------------------------------

    def d_matrix(self, n: int, weight=None):
        """(source basis, target basis, matrix of d: n -> n+1) in the block,
        assembled on every call.

        Entries are exact: ``int`` where the source monomial's differential
        is integral, ``Fraction`` elsewhere.
        """
        src = self.basis(n, weight)
        dst = self.basis(n + 1, weight)
        index = {m: i for i, m in enumerate(dst)}
        rows = [{} for _ in dst]
        d_int = self._d_int
        try:
            for j, m in enumerate(src):
                den, terms = d_int(m)
                if den == 1:
                    for mm, c in terms.items():
                        rows[index[mm]][j] = c
                else:
                    for mm, c in terms.items():
                        rows[index[mm]][j] = Fraction(c, den)
        except KeyError:
            raise InternalInconsistency(
                "differential left the (degree, weight) block") from None
        return src, dst, ela.RationalMatrix(len(dst), len(src), rows)

    def _d_rows(self, n: int, w):
        """The source basis of ``d_matrix(n, w)`` and the matrix's nonzero
        rows as integer ``(cols, nums)`` pairs, each cleared of its own
        denominators: RREF and the kernel do not change under row scaling."""
        src, _, mat = self.d_matrix(n, w)
        return src, ela._int_rows(mat.rows)

    def _coboundary_rows(self, n: int, w, src) -> list:
        """The columns of d: n-1 -> n in the block, as integer rows over
        the positions of ``src``, the block's degree-n basis; a zero column
        gives ``((), ())``."""
        index = {m: i for i, m in enumerate(src)}
        d_int = self._d_int
        out = []
        for m in self.basis(n - 1, w):
            try:
                row = sorted((index[mm], c) for mm, c in d_int(m)[1].items())
            except KeyError:
                raise InternalInconsistency(
                    "differential left the (degree, weight) block") from None
            out.append(tuple(zip(*row)) if row else ((), ()))
        return out

    def cohomology(self, n: int, weight=None) -> CohomologyBlock:
        """Exact coboundaries and a canonical basis of cohomology.

        The cocycles get the canonical kernel basis z_k of d(n): z_k is 1
        at its free column f_k, which is its last nonzero entry, and 0 at
        the other free columns. A cocycle b is therefore Σ_k b[f_k]·z_k.
        The coboundaries are independent vectors that span the image of
        d(n-1): its pivot columns, cleared of denominators, when the
        elimination of d(n-1) on the same source is on record, else the
        RREF rows of its image. The representatives are the z_k at the
        non-pivot positions of the RREF of the coboundaries' coordinates,
        which depends only on their span, so the choice is reproducible
        and, blockwise, weight-pure.

        The pivot columns of an RREF are its leftmost independent columns.
        A generator adjoined since the record was made adds no source
        monomial if the source length is unchanged, and d of the old
        sources is as it was, so those columns are still the leftmost
        independent ones.
        """
        w = tuple(weight) if weight is not None else None
        src, up_rows = self._d_rows(n, w)
        pivots, rref = ela._echelon_rows(up_rows)
        self._d_pivots[n, w] = (len(src), pivots)
        z_vecs = ela._kernel_vectors(pivots, rref, len(src))
        b_in = self._coboundary_rows(n, w, src) if n > 0 else []
        # B ⊆ Z: d(n) kills every column of d(n-1)
        if b_in and not ela._kills(up_rows, b_in):
            raise InternalInconsistency("coboundaries do not lie in cocycles")
        record = self._d_pivots.get((n - 1, w))
        if record is not None and record[0] == len(b_in):
            b_rows = [dict(zip(*b_in[p])) for p in record[1]]
        else:
            b_rows = ela._echelon_rows(b_in)[1]
        free = [max(z) for z in z_vecs]
        coords = [{k: b[f] for k, f in enumerate(free) if f in b}
                  for b in b_rows]
        reps_idx = ela.cokernel_complement_indices(coords, len(z_vecs)) \
            if coords else list(range(len(z_vecs)))
        if len(reps_idx) != len(z_vecs) - len(b_rows):
            raise InternalInconsistency("coboundaries are dependent in cocycles")
        return CohomologyBlock(
            degree=n,
            weight=w,
            monomials=src,
            coboundary_vectors=b_rows,
            representative_vectors=[z_vecs[k] for k in reps_idx],
            coordinates=coords,
            positions=reps_idx,
            d_rows=up_rows,
            gs=self.gs,
        )
