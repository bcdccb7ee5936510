"""Weight and character arithmetic for the rank-g symplectic group.

Labels are g-tuples of nonnegative integers; the corresponding highest
weight in the standard orthogonal basis of the weight lattice is the
reversed partial-sum vector. Characters are finite weight-multiplicity
maps, invariant under signed coordinate permutations (the type-C Weyl
group).

Multiplicities come from the Freudenthal recursion, which is integer
exact; the Weyl dimension formula is kept alongside as an independent
cross-check, not as the source of truth.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotACharacter


def highest_weight(label) -> tuple:
    """(a_1..a_g) -> (a_1+...+a_g, a_2+...+a_g, ..., a_g)."""
    g = len(label)
    out = []
    total = 0
    for i in range(g - 1, -1, -1):
        total += label[i]
        out.append(total)
    return tuple(reversed(out))


def label_of_weight(w) -> tuple:
    """Inverse of ``highest_weight``; requires a dominant weight. The
    weight of length 0 (rank 0) is the label of the trivial character."""
    g = len(w)
    if any(w[i] < w[i + 1] for i in range(g - 1)) or min(w, default=0) < 0:
        raise ValueError(f"{w} is not dominant")
    return tuple(w[i] - (w[i + 1] if i + 1 < g else 0) for i in range(g))


def dominance_leq(x, y) -> bool:
    """Partial order: the highest-weight difference is a nonnegative
    rational combination of positive roots, i.e. all partial sums of
    hw(y) - hw(x) are nonnegative. For g = 2 this is the pair of
    inequalities a+b <= c+d, a+2b <= c+2d."""
    hx, hy = highest_weight(x), highest_weight(y)
    s = 0
    for i in range(len(hx)):
        s += hy[i] - hx[i]
        if s < 0:
            return False
    return True


def _positive_roots(g: int):
    roots = []
    for i in range(g):
        for j in range(i + 1, g):
            r = [0] * g
            r[i], r[j] = 1, -1
            roots.append(tuple(r))
            r2 = [0] * g
            r2[i], r2[j] = 1, 1
            roots.append(tuple(r2))
        r3 = [0] * g
        r3[i] = 2
        roots.append(tuple(r3))
    return roots


def _rho(g: int) -> tuple:
    return tuple(range(g, 0, -1))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def irrep_dimension(label) -> int:
    """Weyl dimension formula: the product of <λ+ρ, a> over the positive
    roots a, divided exactly by the product of <ρ, a>, which is positive."""
    g = len(label)
    lam = highest_weight(label)
    rho = _rho(g)
    lam_rho = tuple(l + r for l, r in zip(lam, rho))
    num = den = 1
    for a in _positive_roots(g):
        num *= _dot(lam_rho, a)
        den *= _dot(rho, a)
    if num % den or num <= 0:
        raise ValueError(f"bad dimension {num}/{den} for {label}")
    return num // den


def _dominant_orbit_rep(w) -> tuple:
    return tuple(sorted((abs(x) for x in w), reverse=True))


def weyl_orbit(w):
    """All signed permutations of the weight, each made once: the
    positions are filled left to right from the multiset of absolute
    values, one distinct value (and, if nonzero, each sign) at a time."""
    left: dict = {}
    for x in w:
        left[abs(x)] = left.get(abs(x), 0) + 1
    out = set()

    def fill(prefix, k):
        if not k:
            out.add(prefix)
            return
        for v, c in left.items():
            if c:
                left[v] = c - 1
                fill(prefix + (v,), k - 1)
                if v:
                    fill(prefix + (-v,), k - 1)
                left[v] = c

    fill((), len(w))
    return out


def _dominant_weights_below(lam):
    """Dominant weights mu <= lam with lam - mu in the root lattice
    (coordinate sum even)."""
    g = len(lam)
    psums_lam = [sum(lam[: i + 1]) for i in range(g)]
    parity = sum(lam) % 2
    out = []

    def rec(i, prefix, prefix_sum):
        if i == g:
            if prefix_sum % 2 == parity:
                out.append(tuple(prefix))
            return
        hi = min(prefix[-1] if prefix else psums_lam[0], psums_lam[i] - prefix_sum)
        for v in range(hi, -1, -1):
            rec(i + 1, prefix + [v], prefix_sum + v)

    rec(0, [], 0)
    return out


def _level(lam, mu) -> int:
    # coefficient sum of lam - mu over the simple roots
    g = len(lam)
    diff = [lam[i] - mu[i] for i in range(g)]
    total = 0
    run = 0
    for i in range(g - 1):
        run += diff[i]
        total += run
    total += sum(diff) // 2
    return total


@lru_cache(maxsize=None)
def _dominant_multiplicities(label) -> dict:
    """Freudenthal recursion: multiplicities at the dominant weights."""
    g = len(label)
    lam = highest_weight(label)
    rho = _rho(g)
    roots = _positive_roots(g)
    lam_rho = tuple(l + r for l, r in zip(lam, rho))
    c_lam = _dot(lam_rho, lam_rho)
    norm_lam = _dot(lam, lam)
    mults = {lam: 1}
    order = sorted(_dominant_weights_below(lam), key=lambda m: _level(lam, m))
    for mu in order:
        if mu == lam:
            continue
        acc = 0
        for a in roots:
            k = 1
            while True:
                nu = tuple(m + k * x for m, x in zip(mu, a))
                if _dot(nu, nu) > norm_lam:
                    break
                mult_nu = mults.get(_dominant_orbit_rep(nu), 0)
                if mult_nu:
                    acc += mult_nu * _dot(nu, a)
                k += 1
        mu_rho = tuple(m + r for m, r in zip(mu, rho))
        denom = c_lam - _dot(mu_rho, mu_rho)
        if acc == 0:
            continue
        if denom <= 0 or (2 * acc) % denom:
            raise ValueError(f"Freudenthal failure at {mu} for {label}")
        mults[mu] = (2 * acc) // denom
    return {m: v for m, v in mults.items() if v}


def irrep_character(label) -> dict:
    """Full weight-multiplicity map, spread over Weyl orbits."""
    char = {}
    for mu, mult in _dominant_multiplicities(tuple(label)).items():
        for w in weyl_orbit(mu):
            char[w] = mult
    return char


def decompose(char: dict) -> dict:
    """Greedy highest-weight peeling.

    Repeatedly takes the lexicographically largest dominant weight with
    positive multiplicity, subtracts the full character of that
    irreducible, and records it. That weight is dominance-maximal: every
    positive root (e_i - e_j, e_i + e_j, 2e_i) has a positive first
    nonzero coordinate, so a weight above it in dominance is also above
    it lexicographically. The decomposition is unique, so the peel order
    does not change the result.
    Raises NotACharacter when a multiplicity goes negative or a residue
    without dominant support remains.
    """
    remaining = {w: m for w, m in char.items() if m}
    for m in remaining.values():
        if m < 0:
            raise NotACharacter("negative input multiplicity")
    out: dict = {}
    while remaining:
        top = max((w for w in remaining if w == _dominant_orbit_rep(w)),
                  default=None)
        if top is None:
            raise NotACharacter("nonzero residue without dominant weights")
        lab, mult = label_of_weight(top), remaining[top]
        for w, m in irrep_character(lab).items():
            v = remaining.get(w, 0) - mult * m
            if v < 0:
                raise NotACharacter(f"multiplicity below zero at weight {w}")
            if v:
                remaining[w] = v
            else:
                remaining.pop(w, None)
        out[lab] = mult  # top is gone from remaining, so lab comes once
    return out


def n_bound(label) -> int:
    """Lowest model degree that can carry the g=2 irreducible (a,b):
    2a+4b+1 when b >= 1 or (a,b) = (1,0), else 2a+2."""
    if len(label) != 2:
        raise ValueError("the degree bound is specific to g = 2")
    a, b = label
    if b >= 1 or (a, b) == (1, 0):
        return 2 * a + 4 * b + 1
    return 2 * a + 2


def render_label(label) -> str:
    return "Γ(" + ",".join(str(a) for a in label) + ")"
