"""Free graded-commutative algebras on weighted generators.

An algebra here is the tensor product of a polynomial algebra on the
even-degree generators with an exterior algebra on the odd-degree ones.
Each generator carries a torus weight (an integer vector); degrees and
weights are additive under the product, and the product carries the sign
rule: moving an odd generator past k odd generators contributes (-1)^k,
and odd squares vanish.

Monomials are value objects independent of later generator additions, so
a generator set may be extended append-only (the degreewise model
construction relies on this) without invalidating anything already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .errors import BudgetExceeded


class Monomial(NamedTuple):
    """Canonical product of generators.

    ``even`` maps even-generator ordinals to exponents as a sorted tuple of
    pairs; ``odd`` is a bitmask over odd-generator ordinals.
    """

    even: tuple
    odd: int


ONE = Monomial((), 0)


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    weight: tuple
    index: int
    ordinal: int  # position among generators of the same parity

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


def _merge_sign(mask_a: int, mask_b: int) -> int:
    """Parity of inversions when interleaving two disjoint ascending masks."""
    sign = 0
    b = mask_b
    while b:
        low = b & -b
        j = low.bit_length() - 1
        sign ^= (mask_a >> (j + 1)).bit_count() & 1
        b ^= low
    return sign


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GeneratorSet:
    """Ordered, append-only collection of generators.

    The creation order is canonical: it fixes the monomial order and hence
    every echelon-based choice downstream.
    """

    def __init__(self, weight_len: int):
        self.weight_len = weight_len
        self.gens: list[Generator] = []
        self.even: list[Generator] = []
        self.odd: list[Generator] = []
        self._by_name: dict[str, Generator] = {}
        self._basis_cache: dict = {}
        self._count_cache: dict = {}

    def add(self, name: str, degree: int, weight=None) -> Generator:
        if name in self._by_name:
            raise ValueError(f"duplicate generator name {name!r}")
        if degree < 1:
            raise ValueError("generator degree must be positive")
        w = tuple(weight) if weight is not None else (0,) * self.weight_len
        if len(w) != self.weight_len:
            raise ValueError("weight length mismatch")
        pool = self.odd if degree % 2 else self.even
        g = Generator(name, degree, w, len(self.gens), len(pool))
        self.gens.append(g)
        pool.append(g)
        self._by_name[name] = g
        # degrees are positive, so only bases of degree >= g.degree change
        for cache in (self._basis_cache, self._count_cache):
            for k in [k for k in cache if k >= degree]:
                del cache[k]
        return g

    def __len__(self):
        return len(self.gens)

    def __getitem__(self, name: str) -> Generator:
        return self._by_name[name]

    # -- monomial queries ------------------------------------------------

    def monomial_of(self, g: Generator | str) -> Monomial:
        if isinstance(g, str):
            g = self._by_name[g]
        if g.is_odd:
            return Monomial((), 1 << g.ordinal)
        return Monomial(((g.ordinal, 1),), 0)

    def degree(self, m: Monomial) -> int:
        d = sum(self.even[o].degree * e for o, e in m.even)
        d += sum(self.odd[o].degree for o in _bits(m.odd))
        return d

    def weight(self, m: Monomial) -> tuple:
        w = [0] * self.weight_len
        for o, e in m.even:
            gw = self.even[o].weight
            for i in range(self.weight_len):
                w[i] += e * gw[i]
        for o in _bits(m.odd):
            gw = self.odd[o].weight
            for i in range(self.weight_len):
                w[i] += gw[i]
        return tuple(w)

    def word_length(self, m: Monomial) -> int:
        return sum(e for _, e in m.even) + m.odd.bit_count()

    def mul_monomials(self, a: Monomial, b: Monomial):
        """Product with sign; returns (0, None) when an odd square appears."""
        if a.odd & b.odd:
            return 0, None
        sign = -1 if _merge_sign(a.odd, b.odd) else 1
        if not a.even:
            ev = b.even
        elif not b.even:
            ev = a.even
        else:
            acc = dict(a.even)
            for o, e in b.even:
                acc[o] = acc.get(o, 0) + e
            ev = tuple(sorted(acc.items()))
        return sign, Monomial(ev, a.odd | b.odd)

    # -- enumeration -----------------------------------------------------

    def basis(self, degree: int, weight=None) -> list[Monomial]:
        """All monomials of the exact degree (and weight), canonical order."""
        if degree < 0:
            return []
        by_w = self.basis_by_weight(degree)
        if weight is None:
            out = []
            for w in sorted(by_w):
                out.extend(by_w[w])
            return out
        return list(by_w.get(tuple(weight), ()))

    def basis_by_weight(self, degree: int) -> dict:
        cached = self._basis_cache.get(degree)
        if cached is None:
            groups = self._enumerate(degree)
            for ms in groups.values():
                ms.sort()
            # the sorted basis, grouped by weight in order of first appearance
            cached = dict(sorted(groups.items(), key=lambda kv: kv[1][0]))
            self._basis_cache[degree] = cached
        return cached

    def _enumerate(self, degree: int) -> dict:
        """{weight: monomials} of the exact degree, unordered."""
        # iterative: each state picks the next included generator, so the
        # stack depth is the word length, not the generator count; the
        # weight is carried along, one vector addition per state. A state
        # is pushed only if it is complete or its next generator still fits.
        order = sorted(self.gens, key=lambda g: (g.degree, g.index))
        n = len(order)
        next_deg = [g.degree for g in order[1:]] + [degree + 1]
        out: dict = {}
        stack = [(0, degree, ONE, (0,) * self.weight_len)]
        while stack:
            i, remaining, mono, w = stack.pop()
            if remaining == 0:
                # canonical key: exponent table in generator order, then odd mask
                out.setdefault(w, []).append(
                    Monomial(tuple(sorted(mono.even)), mono.odd))
                continue
            for j in range(i, n):
                g = order[j]
                d = g.degree
                if d > remaining:
                    break  # ascending degrees: nothing later fits either
                fits = next_deg[j]
                gw = g.weight
                if g.is_odd:
                    rem = remaining - d
                    if rem == 0 or fits <= rem:
                        stack.append((j + 1, rem,
                                      Monomial(mono.even, mono.odd | (1 << g.ordinal)),
                                      tuple(map(add, w, gw))))
                else:
                    e = 1
                    we = w
                    rem = remaining - d
                    while rem >= 0:
                        we = tuple(map(add, we, gw))
                        if rem == 0 or fits <= rem:
                            stack.append((j + 1, rem,
                                          Monomial(mono.even + ((g.ordinal, e),),
                                                   mono.odd), we))
                        e += 1
                        rem -= d
        return out

    def count_monomials(self, degree: int) -> int:
        """Monomial count by series coefficients; no enumeration."""
        counts = self._count_cache.get(degree)
        if counts is None:
            counts = [1] + [0] * degree
            for g in self.gens:
                d = g.degree
                if d > degree:
                    continue
                if g.is_odd:
                    for i in range(degree, d - 1, -1):
                        counts[i] += counts[i - d]
                else:
                    for i in range(d, degree + 1):
                        counts[i] += counts[i - d]
            self._count_cache[degree] = counts
        return counts[degree]

    def check_budget(self, degrees, budget: int):
        """Raise BudgetExceeded at the first degree with more monomials
        than ``budget``; counts only, nothing is enumerated."""
        for deg in degrees:
            est = self.count_monomials(deg)
            if est > budget:
                raise BudgetExceeded(deg, est, budget)

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def unit(self, coeff=1) -> "Element":
        return Element(self, {ONE: Fraction(coeff)} if coeff else {})

    def gen(self, name: str) -> "Element":
        return Element(self, {self.monomial_of(name): Fraction(1)})

    def element(self, terms: dict) -> "Element":
        return Element(self, {m: Fraction(c) for m, c in terms.items() if c})


class Element:
    """Finite rational linear combination of monomials."""

    __slots__ = ("gs", "terms")

    def __init__(self, gs: GeneratorSet, terms: dict):
        self.gs = gs
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Degree if homogeneous, else raises."""
        degs = {self.gs.degree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element: degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def weight(self):
        ws = {self.gs.weight(m) for m in self.terms}
        if len(ws) > 1:
            raise ValueError("element is not weight-homogeneous")
        return ws.pop() if ws else None

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m, 0) + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Element(self.gs, terms)

    def __neg__(self):
        return Element(self.gs, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Element":
        c = Fraction(c)
        if not c:
            return Element(self.gs, {})
        return Element(self.gs, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other: "Element") -> "Element":
        gs = self.gs
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, m = gs.mul_monomials(ma, mb)
                if sign == 0:
                    continue
                v = out.get(m, 0) + sign * ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Element(gs, out)

    def __pow__(self, n: int) -> "Element":
        result = self.gs.unit()
        for _ in range(n):
            result = result * self
        return result

    def word_component(self, k: int, at_least: bool = True) -> "Element":
        gs = self.gs
        if at_least:
            keep = {m: c for m, c in self.terms.items() if gs.word_length(m) >= k}
        else:
            keep = {m: c for m, c in self.terms.items() if gs.word_length(m) == k}
        return Element(gs, keep)

    def render(self) -> str:
        if not self.terms:
            return "0"
        gs = self.gs
        keyed = sorted(self.terms.items(), key=lambda t: (gs.degree(t[0]), t[0]))
        pieces = []
        for i, (m, c) in enumerate(keyed):
            body = render_monomial(gs, m)
            mag = abs(c)
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}·{body}"
            if i == 0:
                pieces.append(piece if c > 0 else f"-{piece}")
            else:
                pieces.append(f" + {piece}" if c > 0 else f" - {piece}")
        return "".join(pieces)

    def __repr__(self):
        return f"<Element {self.render()}>"


def render_monomial(gs: GeneratorSet, m: Monomial) -> str:
    """Even factors joined by '·' with '^' powers, odd names concatenated."""
    parts = []
    for o, e in m.even:
        name = gs.even[o].name
        parts.append(name if e == 1 else f"{name}^{e}")
    odd = "".join(gs.odd[o].name for o in _bits(m.odd))
    if odd:
        parts.append(odd)
    return "·".join(parts) if parts else "1"
