"""Free graded-commutative algebras on weighted generators.

An algebra here is the tensor product of a polynomial algebra on the
even-degree generators with an exterior algebra on the odd-degree ones.
Each generator carries a torus weight (an integer vector); degrees and
weights are additive under the product, and the product carries the sign
rule: moving an odd generator past k odd generators contributes (-1)^k,
and odd squares vanish.

Monomials are value objects independent of later generator additions, so
a generator set grows append-only (the degreewise model construction
relies on this). A degree's basis is built once and extended, not
rebuilt, when generators are added: each monomial is made exactly once.
Sizes come from the Poincaré series alone (``_series``), which the budget
check reads before anything is enumerated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import NamedTuple

from .errors import BudgetExceeded
from .exact_linalg import _cleared

DEFAULT_BUDGET = 500_000


def configured_budget() -> int:
    raw = os.environ.get("SPHOMOTOPY_BUDGET", str(DEFAULT_BUDGET))
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            f"SPHOMOTOPY_BUDGET must be an integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"SPHOMOTOPY_BUDGET must be at least 1, got {budget}")
    return budget


class Monomial(NamedTuple):
    """Canonical product of generators.

    ``even`` maps even-generator ordinals to exponents as a sorted tuple of
    pairs; ``odd`` is a bitmask over odd-generator ordinals.
    """

    even: tuple
    odd: int


ONE = Monomial((), 0)


@dataclass(frozen=True, slots=True)
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
        zero = (0,) * weight_len
        # degree -> (generators covered, groups, view), see _built
        self._bases: dict = {0: (0, {zero: [ONE]}, {zero: [ONE]})}

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
        # the bases catch up with the new generator when next read
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
        # tuple.__new__ skips the namedtuple's Python-level __new__
        return sign, tuple.__new__(Monomial, (ev, a.odd | b.odd))

    # -- bases -----------------------------------------------------------

    def basis(self, degree: int) -> list[Monomial]:
        """All monomials of the exact degree, by weight, then canonical order."""
        by_w = self.basis_by_weight(degree)
        return [m for w in sorted(by_w) for m in by_w[w]]

    def basis_by_weight(self, degree: int) -> dict:
        """{weight: sorted monomials}, weights in the order of their first
        monomial. The dict and its lists never change; ``add`` makes new ones."""
        return self._built(degree)[2]

    def _built(self, degree: int):
        """``(generators covered, groups, view)`` of the degree, brought up
        to all generators, one at a time in index order.

        The basis over g_0..g_k is the one over g_0..g_{k-1} plus g_k^e·m
        for each m of degree D - e·deg(g_k) whose generators all come
        before g_k (e = 1 for odd g_k), so every monomial is made once.
        ``groups`` keeps each weight's monomials in the order they were
        made, which is by last generator: the m wanted for g_k are a prefix
        of each group of the lower degree, and the groups are in the order
        their first monomials were made, so the scan stops at the first
        group without such an m.
        """
        built = self._bases.get(degree)
        if built is not None and built[0] == len(self.gens):
            return built
        count, groups, view = built or (0, {}, {})
        last = self._last_index
        new: dict = {}
        lowers: dict = {}  # lower degree -> its groups
        ends: dict = {}  # (lower degree, weight) -> length of the prefix
        for k in range(count, len(self.gens)):
            g = self.gens[k]
            d, odd = g.degree, g.degree % 2
            for e in range(1, min(degree // d, 1 if odd else degree) + 1):
                low = degree - e * d
                lower = lowers.get(low)
                if lower is None:
                    lower = lowers[low] = self._built(low)[1]
                shift = [e * c for c in g.weight]
                bit, tail = 1 << g.ordinal, ((g.ordinal, e),)
                for w, ms in lower.items():
                    if last(ms[0]) >= k:
                        break
                    p = ends.get((low, w), 1)
                    while p < len(ms) and last(ms[p]) < k:
                        p += 1
                    ends[low, w] = p
                    new.setdefault(tuple(map(add, w, shift)), []).extend(
                        [Monomial(m.even, m.odd | bit) for m in ms[:p]] if odd
                        else [Monomial(m.even + tail, m.odd) for m in ms[:p]])
        for w, ms in new.items():
            groups.setdefault(w, []).extend(ms)  # groups are never handed out
            new[w] = sorted(view.get(w, []) + ms)
        if new:
            view = dict(sorted({**view, **new}.items(), key=lambda kv: kv[1][0]))
        built = (len(self.gens), groups, view)
        self._bases[degree] = built
        return built

    def _last_index(self, m: Monomial) -> int:
        """Index of the last generator in m; -1 for ONE."""
        return max(self.even[m.even[-1][0]].index if m.even else -1,
                   self.odd[m.odd.bit_length() - 1].index if m.odd else -1)

    def _series(self, top: int) -> list:
        """Monomial counts of degrees 0..top by series coefficients."""
        counts = [1] + [0] * top
        for g in self.gens:
            d = g.degree
            if g.is_odd:
                for i in range(top, d - 1, -1):
                    counts[i] += counts[i - d]
            else:
                for i in range(d, top + 1):
                    counts[i] += counts[i - d]
        return counts

    def check_budget(self, degrees, budget: int | None = None):
        """Raise BudgetExceeded at the first degree with more monomials
        than ``budget`` (default ``configured_budget()``); counts only,
        nothing is enumerated. A degree past the series makes one to 2·deg."""
        if budget is None:
            budget = configured_budget()
        counts: list = []
        for deg in degrees:
            if deg >= len(counts):
                counts = self._series(max(2 * deg, 8))
            est = counts[deg]
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

    def word_component(self, k: int) -> "Element":
        """The terms of word length at least k."""
        gs = self.gs
        return Element(gs, {m: c for m, c in self.terms.items()
                            if gs.word_length(m) >= k})

    def render(self) -> str:
        den, terms = _cleared(self.terms)
        return render_terms(self.gs, terms, den)

    def __repr__(self):
        return f"<Element {self.render()}>"


def render_terms(gs: GeneratorSet, terms: dict, den: int) -> str:
    """The combination Σ (c/den)·m over ``terms`` ``{monomial: int}`` as
    text: terms by degree, then monomial, each c/den in lowest terms;
    '+'/'-' between them and unit coefficients left out."""
    if not terms:
        return "0"
    keyed = sorted(terms.items(), key=lambda t: (gs.degree(t[0]), t[0]))
    pieces = []
    for m, c in keyed:
        body = render_monomial(gs, m)
        g = gcd(c, den)
        mag = str(abs(c) // g) + ("" if g == den else f"/{den // g}")
        if body == "1":
            piece = mag
        elif mag == "1":
            piece = body
        else:
            piece = f"{mag}·{body}"
        if pieces:
            pieces.append(f" + {piece}" if c > 0 else f" - {piece}")
        else:
            pieces.append(piece if c > 0 else f"-{piece}")
    return "".join(pieces)


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
