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
rule on the last factor, in integers, once per monomial. The blocks of d
go to the elimination as integer rows, cleared one row (target monomial)
at a time: RREF and the canonical kernel vectors do not change under row
scaling, although they do under column scaling. ``Element``s are built
only at the API edge (``d_monomial``, ``apply_d``, cohomology
representatives on request).

A quotient is represented per degree by a canonical monomial transversal:
the non-pivot monomials after row-reducing the span of the relations in
that degree. Every relation has one degree and one weight, so that span
splits into (degree, weight) blocks, and each block is row-reduced on its
own. Multiplication is multiply-then-reduce, which is well defined
because the relations are homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import exact_linalg as ela
from .errors import InternalInconsistency, ValidationFailure
from .free_gca import ONE, Element, GeneratorSet, Monomial


@dataclass
class CohomologyBlock:
    """Coboundaries and canonical cohomology representatives in one
    (degree, weight) block.

    ``coboundary_vectors`` and ``representative_vectors`` are sparse
    ``{position: Fraction}`` vectors over ``monomials``; ``coboundaries``
    and ``representatives`` are the same as ``Element``s, built on first
    use. ``coordinates`` gives each coboundary in the canonical basis of
    the cocycles, and ``positions`` says which cocycle basis vector each
    representative is.
    """

    degree: int
    weight: tuple | None
    monomials: list
    coboundary_vectors: list
    representative_vectors: list
    coordinates: list
    positions: list
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
    def __init__(self, gs: GeneratorSet, differential=None, relations=None,
                 check: bool = True):
        self.gs = gs
        self.d_of: dict[int, Element] = {}
        self.relations = list(relations) if relations else None
        # generator index, resp. monomial -> d as (den, {monomial: int})
        self._d_gen: dict[int, tuple] = {}
        self._d_cache: dict = {ONE: _NO_D}
        self._dmat_cache: dict = {}
        self._quot_cache: dict = {}
        self._quot_index: dict = {}
        self._weight_cache: dict = {}
        if differential:
            for name, img in differential.items():
                self._set_d(gs[name].index, img, check)
        for g in gs.gens:
            if g.index not in self.d_of:
                self._set_d(g.index, gs.zero(), False)
        if self.relations is not None:
            if any(not x.is_zero() for x in self.d_of.values()):
                raise ValidationFailure(
                    "quotient targets must carry the zero differential")
            self._int_relations = []
            for pos, r in enumerate(self.relations):
                try:
                    deg, wt = r.degree(), r.weight()
                except ValueError as exc:
                    raise ValidationFailure(f"relation {pos}: {exc}") from None
                if deg is None:
                    continue
                # integer multiple of r: scaling a row leaves the RREF alone
                _, terms = ela._cleared(r.terms)
                self._int_relations.append((deg, wt, list(terms.items())))
        if check:
            bad = self.check_d_squared()
            if bad:
                raise ValidationFailure(f"d·d != 0 on generators: {bad}")

    # -- construction ------------------------------------------------------

    def _set_d(self, index: int, img: Element, check: bool):
        g = self.gs.gens[index]
        if check and not img.is_zero():
            try:
                deg, wt = img.degree(), img.weight()
            except ValueError as exc:
                raise ValidationFailure(f"d({g.name}): {exc}") from None
            if deg != g.degree + 1:
                raise ValidationFailure(
                    f"d({g.name}) must be homogeneous of degree {g.degree + 1}")
            if wt != g.weight:
                raise ValidationFailure(
                    f"d({g.name}) must preserve the weight {g.weight}")
        self.d_of[index] = img
        self._d_gen[index] = ela._cleared(img.terms)

    def add_generator(self, name, degree, weight, d_image: Element | None,
                      check: bool = True):
        """Append a generator with its differential (model growth path).

        ``check=False`` skips the homogeneity and d(d(v)) = 0 checks; the
        model construction makes both for a whole block at once.
        """
        g = self.gs.add(name, degree, weight)
        # d: n -> n+1 changes only where basis n or n+1 gains monomials;
        # the differentials of the monomials already cached stay as they are
        for key in [k for k in self._dmat_cache if k[0] >= degree - 1]:
            del self._dmat_cache[key]
        img = d_image if d_image is not None else self.gs.zero()
        self._set_d(g.index, img, check)
        if check and not self.apply_d(img).is_zero():
            raise ValidationFailure(f"d(d({name})) != 0")
        return g

    # -- differential -------------------------------------------------------

    def _d_int(self, m: Monomial):
        """d(m) as ``(den, {monomial: int})``, cached per monomial.

        Leibniz on the last factor: m = rest·g with g the last odd
        generator, or the last even one if m has no odd factor, and
        d(rest·g) = d(rest)·g + (-1)^|rest| rest·d(g).
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
        out = {}
        if t_r:
            # t ↦ t·g is injective where it does not vanish
            gm = gs.monomial_of(gen)
            s = den // den_r
            for t, c in t_r.items():
                sign, mm = mul(t, gm)
                if sign:
                    out[mm] = sign * s * c
        if t_g:
            s = sign_g * (den // den_g)
            for t, c in t_g.items():
                sign, mm = mul(rest, t)
                if sign:
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

    def check_d_squared(self, max_degree=None):
        """Generators of degree <= max_degree with d(d(v)) != 0."""
        bad = []
        for g in self.gs.gens:
            if max_degree is not None and g.degree > max_degree:
                continue
            if not self.apply_d(self.d_of[g.index]).is_zero():
                bad.append(g.name)
        return bad

    # -- bases ---------------------------------------------------------------

    def is_quotient(self) -> bool:
        return self.relations is not None

    def basis_by_weight(self, n: int) -> dict:
        """{weight: monomials} of the degree-n basis, weights unsorted."""
        if not self.is_quotient():
            return self.gs.basis_by_weight(n)
        cached = self._weight_cache.get(n)
        if cached is None:
            monos, transversal, _, _ = self._quotient_data(n)
            cached = {}
            for i in transversal:
                cached.setdefault(self.gs.weight(monos[i]), []).append(monos[i])
            self._weight_cache[n] = cached
        return cached

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
        """(monomials, transversal indices, pivot->row, rref rows) at degree n.

        The span of the products r·m is block-diagonal over weights, and
        the RREF of a block-diagonal matrix is the union of its blocks'
        RREFs; RREF is unique, so eliminating block by block gives the
        degree-wide result.
        """
        cached = self._quot_cache.get(n)
        if cached is not None:
            return cached
        gs = self.gs
        mul = gs.mul_monomials
        monos = gs.basis(n)
        index = {m: i for i, m in enumerate(monos)}
        blocks: dict = {}
        for dr, wr, terms in self._int_relations:
            if dr > n:
                continue
            for wm, ms in gs.basis_by_weight(n - dr).items():
                rows = blocks.setdefault(
                    tuple(a + b for a, b in zip(wr, wm)), [])
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
        pairs = []
        for rows in blocks.values():
            if rows:
                pairs.extend(zip(*ela._echelon_rows(rows)))
        pairs.sort(key=lambda pr: pr[0])
        pivot_row = dict(pairs)
        rref_rows = [row for _, row in pairs]
        transversal = [i for i in range(len(monos)) if i not in pivot_row]
        cached = (monos, transversal, pivot_row, rref_rows)
        self._quot_cache[n] = cached
        self._quot_index[n] = index
        return cached

    def reduce(self, x: Element) -> Element:
        """Canonical form of ``x`` in the quotient (identity for free DGAs)."""
        if not self.is_quotient() or x.is_zero():
            return x
        gs = self.gs
        by_degree: dict[int, dict] = {}
        for m, c in x.terms.items():
            by_degree.setdefault(gs.degree(m), {})[m] = c
        out = gs.zero()
        for n, terms in by_degree.items():
            monos, _, pivot_row, _ = self._quotient_data(n)
            index = self._quot_index[n]
            coords = {index[m]: c for m, c in terms.items()}
            for p in sorted(pivot_row):
                c = coords.get(p)
                if not c:
                    continue
                for col, v in pivot_row[p].items():
                    nv = coords.get(col, 0) - c * v
                    if nv:
                        coords[col] = nv
                    else:
                        coords.pop(col, None)
            out = out + Element(gs, {monos[i]: c for i, c in coords.items() if c})
        return out

    def multiply(self, x: Element, y: Element) -> Element:
        return self.reduce(x * y)

    # -- cohomology -----------------------------------------------------------

    def d_matrix(self, n: int, weight=None):
        """(source basis, target basis, matrix of d: n -> n+1) in the block.

        Entries are exact: ``int`` where the source monomial's differential
        is integral, ``Fraction`` elsewhere.
        """
        key = (n, tuple(weight) if weight is not None else None)
        cached = self._dmat_cache.get(key)
        if cached is not None:
            return cached[:3]
        src = self.basis(n, weight)
        dst = self.basis(n + 1, weight)
        index = {m: i for i, m in enumerate(dst)}
        rows = [{} for _ in dst]
        fractional = set()
        d_int = self._d_int
        try:
            for j, m in enumerate(src):
                den, terms = d_int(m)
                if den == 1:
                    for mm, c in terms.items():
                        rows[index[mm]][j] = c
                else:
                    for mm, c in terms.items():
                        i = index[mm]
                        rows[i][j] = Fraction(c, den)
                        fractional.add(i)
        except KeyError:
            raise InternalInconsistency(
                "differential left the (degree, weight) block") from None
        mat = ela.RationalMatrix(len(dst), len(src), rows)
        self._dmat_cache[key] = (src, dst, mat, fractional)
        return src, dst, mat

    def _d_rows(self, n: int, w):
        """The source basis of ``d_matrix(n, w)`` and the matrix's rows as
        integer ``(cols, nums)`` pairs, each cleared of its own
        denominators: RREF and the kernel do not change under row scaling."""
        src, _, mat = self.d_matrix(n, w)
        fractional = self._dmat_cache[(n, w)][3]
        out = []
        # the columns went in in order, so every row's keys are sorted
        for i, row in enumerate(mat.rows):
            if not row:
                continue
            if i in fractional:
                row = ela._cleared(row)[1]
            out.append((list(row), list(row.values())))
        return src, out

    def kills(self, n: int, w, vectors) -> bool:
        """Whether d: n -> n+1 maps each of ``vectors`` to zero; they are
        integer ``(cols, nums)`` pairs over the positions of ``basis(n, w)``."""
        return ela._kills(self._d_rows(n, w)[1], vectors)

    def _coboundary_rows(self, n: int, w, src) -> list:
        """The columns of d: n-1 -> n in the block, as integer rows over
        the positions of ``src``, the block's degree-n basis."""
        index = {m: i for i, m in enumerate(src)}
        d_int = self._d_int
        out = []
        for m in self.basis(n - 1, w):
            terms = d_int(m)[1]
            if terms:
                try:
                    row = sorted((index[mm], c) for mm, c in terms.items())
                except KeyError:
                    raise InternalInconsistency(
                        "differential left the (degree, weight) block") from None
                out.append(tuple(zip(*row)))
        return out

    def cohomology(self, n: int, weight=None) -> CohomologyBlock:
        """Exact coboundaries and a canonical basis of cohomology.

        The cocycles get the canonical kernel basis z_k of d(n): z_k is 1
        at its free column f_k, which is its last nonzero entry, and 0 at
        the other free columns. A cocycle b is therefore Σ_k b[f_k]·z_k.
        The coboundaries are the RREF rows of the image of d(n-1), and the
        representatives are the z_k at the non-pivot positions of the
        coboundaries' coordinates, so the choice is reproducible and,
        blockwise, weight-pure.
        """
        w = tuple(weight) if weight is not None else None
        src, up_rows = self._d_rows(n, w)
        z_vecs = ela._kernel_vectors(*ela._echelon_rows(up_rows), len(src))
        b_in = self._coboundary_rows(n, w, src) if n > 0 else []
        # B ⊆ Z: d(n) kills every column of d(n-1)
        if b_in and not ela._kills(up_rows, b_in):
            raise InternalInconsistency("coboundaries do not lie in cocycles")
        _, b_rows = ela._echelon_rows(b_in)
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
            gs=self.gs,
        )
