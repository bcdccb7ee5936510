"""Differential graded algebras on a generator set.

Two flavours share the class:

* free DGAs — differential given on generators, extended by the graded
  Leibniz rule; used for the degreewise models under construction;
* quotient rings — a free algebra modulo a homogeneous relation
  subspace, with zero differential; used for the cohomology rings the
  models map into. The ring is the model's target as it stands: it
  carries its per-weight bases, reduction, products and the coordinates
  of an element in one (degree, weight) block.

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
from math import lcm

from . import exact_linalg as ela
from .errors import InternalInconsistency, ValidationFailure
from .free_gca import Element, GeneratorSet, Monomial


@dataclass
class CohomologyBlock:
    """Coboundaries and canonical cohomology representatives in one
    (degree, weight) block.

    ``coordinates`` gives each coboundary in the canonical basis of the
    cocycles, and ``positions`` says which cocycle basis vector each
    representative is.
    """

    degree: int
    weight: tuple | None
    monomials: list
    coboundaries: list
    representatives: list
    coordinates: list
    positions: list

    @property
    def dim(self) -> int:
        return len(self.representatives)


class DGA:
    def __init__(self, gs: GeneratorSet, differential=None, relations=None,
                 check: bool = True):
        self.gs = gs
        self.d_of: dict[int, Element] = {}
        self.relations = list(relations) if relations else None
        self._dmono_cache: dict = {}
        self._dmat_cache: dict = {}
        self._quot_cache: dict = {}
        self._quot_index: dict = {}
        self._weight_cache: dict = {}
        if differential:
            for name, img in differential.items():
                self._set_d(gs[name].index, img, check)
        for g in gs.gens:
            self.d_of.setdefault(g.index, gs.zero())
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
                den = lcm(*(c.denominator for c in r.terms.values()))
                self._int_relations.append(
                    (deg, wt, [(m, int(c * den)) for m, c in r.terms.items()]))
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

    def add_generator(self, name, degree, weight, d_image: Element | None,
                      check: bool = True):
        """Append a generator with its differential (model growth path)."""
        g = self.gs.add(name, degree, weight)
        # d: n -> n+1 changes only where basis n or n+1 gains monomials
        for key in [k for k in self._dmat_cache if k[0] >= degree - 1]:
            del self._dmat_cache[key]
        img = d_image if d_image is not None else self.gs.zero()
        self._set_d(g.index, img, check)
        if check and not self.apply_d(img).is_zero():
            raise ValidationFailure(f"d(d({name})) != 0")
        return g

    # -- differential -------------------------------------------------------

    def d_monomial(self, m: Monomial) -> Element:
        cached = self._dmono_cache.get(m)
        if cached is not None:
            return cached
        gs = self.gs
        out = gs.zero()
        # even factors: the prefix has even degree, so no sign; the e
        # occurrences of one generator contribute identical terms
        for k, (o, e) in enumerate(m.even):
            dg = self.d_of[gs.even[o].index]
            if dg.is_zero():
                continue
            rest_even = m.even[:k] + (((o, e - 1),) if e > 1 else ()) + m.even[k + 1:]
            rest = Element(gs, {Monomial(rest_even, m.odd): Fraction(e)})
            out = out + dg * rest
        # odd factors: sign is (-1)^(number of odd factors to the left)
        mask = m.odd
        passed = 0
        while mask:
            low = mask & -mask
            o = low.bit_length() - 1
            mask ^= low
            dg = self.d_of[gs.odd[o].index]
            if not dg.is_zero():
                before = Element(gs, {Monomial(m.even, m.odd & (low - 1)): Fraction(1)})
                after = Element(gs, {Monomial((), mask): Fraction(1)})
                term = (before * dg) * after
                out = out + (term if passed % 2 == 0 else -term)
            passed += 1
        self._dmono_cache[m] = out
        return out

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
        """(source basis, target basis, matrix of d: n -> n+1) in the block."""
        key = (n, tuple(weight) if weight is not None else None)
        cached = self._dmat_cache.get(key)
        if cached is not None:
            return cached
        src = self.basis(n, weight)
        dst = self.basis(n + 1, weight)
        index = {m: i for i, m in enumerate(dst)}
        columns = []
        for m in src:
            dx = self.d_monomial(m)
            col = {}
            for mm, c in dx.terms.items():
                try:
                    col[index[mm]] = c
                except KeyError:
                    raise InternalInconsistency(
                        "differential left the (degree, weight) block") from None
            columns.append(col)
        mat = ela.RationalMatrix.from_columns(columns, len(dst))
        cached = (src, dst, mat)
        self._dmat_cache[key] = cached
        return cached

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
        src, _, up = self.d_matrix(n, w)
        z_vecs = ela.kernel_basis(up)
        b_rows = []
        if n > 0:
            # the columns of d: n-1 -> n span B^n
            _, _, down = self.d_matrix(n - 1, w)
            _, b_rows = ela._echelon_rows(ela._int_rows(down.columns()))
        if b_rows:
            # B ⊆ Z: d(n) kills every coboundary
            up_cols = up.columns()
            for b in b_rows:
                image: dict = {}
                for j, c in b.items():
                    for i, v in up_cols[j].items():
                        image[i] = image.get(i, 0) + c * v
                if any(image.values()):
                    raise InternalInconsistency(
                        "coboundaries do not lie in cocycles")
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
            coboundaries=[Element(self.gs, {src[i]: v for i, v in b.items()})
                          for b in b_rows],
            representatives=[
                Element(self.gs, {src[i]: v for i, v in z_vecs[k].items()})
                for k in reps_idx],
            coordinates=coords,
            positions=reps_idx,
        )
