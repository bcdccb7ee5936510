import random
from fractions import Fraction

import pytest

from sphomotopy import free_gca as fg
from sphomotopy.errors import BudgetExceeded
from sphomotopy.moduli import _free_block, full_generators


@pytest.fixture
def gs2():
    return full_generators(2)


def test_odd_anticommute(gs2):
    g1, g2 = gs2.gen("γ1"), gs2.gen("γ2")
    assert g1 * g2 == -(g2 * g1)
    assert not (g1 * g2).is_zero()


def test_odd_square_vanishes(gs2):
    g1 = gs2.gen("γ1")
    assert (g1 * g1).is_zero()


def test_even_central(gs2):
    a, g1 = gs2.gen("α"), gs2.gen("γ1")
    assert a * g1 == g1 * a


def test_basis_degree_zero(gs2):
    assert gs2.basis(0) == [fg.ONE]


def test_basis_degree_six(gs2):
    monos = gs2.basis(6)
    assert len(monos) == 8
    rendered = {fg.render_monomial(gs2, m) for m in monos}
    assert rendered == {"α^3", "α·β", "γ1γ2", "γ1γ3", "γ1γ4",
                        "γ2γ3", "γ2γ4", "γ3γ4"}


def test_basis_degree_five(gs2):
    rendered = {fg.render_monomial(gs2, m) for m in gs2.basis(5)}
    assert rendered == {"α·γ1", "α·γ2", "α·γ3", "α·γ4"}


def test_basis_weight_partition(gs2):
    for degree in range(0, 10):
        by_w = gs2.basis_by_weight(degree)
        merged = [m for w in sorted(by_w) for m in by_w[w]]
        assert merged == gs2.basis(degree)
        for w, monos in by_w.items():
            assert all(gs2.weight(m) == w for m in monos)


def test_count_matches_enumeration(gs2):
    for degree in range(0, 12):
        assert gs2._series(degree)[degree] == len(gs2.basis(degree))


def test_filtration(gs2):
    a, g1, g2, b = (gs2.gen(n) for n in ("α", "γ1", "γ2", "β"))
    x = a + g1 * g2
    assert x.word_component(2) == g1 * g2
    assert a.word_component(2).is_zero()
    y = b + a * b + a * a * a
    assert y.word_component(2) == a * b + a * a * a


def test_render_grammar(gs2):
    a, b, g1, g3 = (gs2.gen(n) for n in ("α", "β", "γ1", "γ3"))
    assert (a * a * b - 2 * (g1 * g3)).render() == "-2·γ1γ3 + α^2·β"
    assert (a * g1).render() == "α·γ1"
    assert gs2.zero().render() == "0"
    assert gs2.unit().render() == "1"
    assert (Fraction(4, 3) * a).render() == "4/3·α"


def _random_element(rng, gs, max_degree=7, nterms=3):
    out = gs.zero()
    for _ in range(nterms):
        degree = rng.randint(0, max_degree)
        basis = gs.basis(degree)
        if not basis:
            continue
        m = rng.choice(basis)
        out = out + fg.Element(gs, {m: Fraction(rng.randint(-4, 4))})
    return out


def _homogeneous_random(rng, gs, degree):
    basis = gs.basis(degree)
    terms = {}
    for m in rng.sample(basis, min(3, len(basis))):
        c = rng.randint(-4, 4)
        if c:
            terms[m] = Fraction(c)
    return fg.Element(gs, terms)


@pytest.mark.parametrize("seed", range(10))
def test_product_associative(seed, gs2):
    rng = random.Random(seed)
    x = _random_element(rng, gs2)
    y = _random_element(rng, gs2)
    z = _random_element(rng, gs2)
    assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("seed", range(10))
def test_graded_commutativity(seed, gs2):
    rng = random.Random(50 + seed)
    dx, dy = rng.randint(2, 6), rng.randint(2, 6)
    x = _homogeneous_random(rng, gs2, dx)
    y = _homogeneous_random(rng, gs2, dy)
    sign = -1 if (dx % 2 and dy % 2) else 1
    assert x * y == sign * (y * x)


@pytest.mark.parametrize("seed", range(10))
def test_degree_weight_additive(seed, gs2):
    rng = random.Random(90 + seed)
    dx, dy = rng.randint(2, 5), rng.randint(2, 5)
    x = _homogeneous_random(rng, gs2, dx)
    y = _homogeneous_random(rng, gs2, dy)
    p = x * y
    if p.is_zero() or x.is_zero() or y.is_zero():
        return
    assert p.degree() == dx + dy
    for m in p.terms:
        wx = {gs2.weight(mm) for mm in x.terms}
        wy = {gs2.weight(mm) for mm in y.terms}
        assert gs2.weight(m) in {
            tuple(a + b for a, b in zip(w1, w2)) for w1 in wx for w2 in wy}


def test_duplicate_name_rejected():
    gs = fg.GeneratorSet(0)
    gs.add("x", 2)
    with pytest.raises(ValueError):
        gs.add("x", 4)


def test_append_only_extension_preserves_monomials(gs2):
    m = gs2.basis(6)[0]
    deg_before = gs2.degree(m)
    gs2.add("extra", 5, (0, 0))
    assert gs2.degree(m) == deg_before
    assert m in gs2.basis(6)


def _reference_by_weight(gs, degree):
    """Every monomial of the degree from a plain recursion over the
    generators, sorted, then grouped by ``weight()`` in that order."""
    monos = []

    def extend(k, remaining, even, odd):
        if remaining == 0:
            monos.append(fg.Monomial(tuple(sorted(even)), odd))
            return
        if k == len(gs.gens):
            return
        g = gs.gens[k]
        extend(k + 1, remaining, even, odd)
        if g.is_odd:
            if g.degree <= remaining:
                extend(k + 1, remaining - g.degree, even, odd | 1 << g.ordinal)
        else:
            for e in range(1, remaining // g.degree + 1):
                extend(k + 1, remaining - e * g.degree,
                       even + [(g.ordinal, e)], odd)

    extend(0, degree, [], 0)
    by_w = {}
    for m in sorted(monos):
        by_w.setdefault(gs.weight(m), []).append(m)
    return by_w


def test_bases_extend_across_interleaved_adds():
    """Reads and adds interleaved: each read equals the plain recursion,
    and a dict or list handed out before an ``add`` is left as it was."""
    gs = fg.GeneratorSet(2)
    gs.add("a", 2, (0, 0))
    gs.add("x", 3, (1, 0))
    handed = []

    def read(degrees):
        for d in degrees:
            got = gs.basis_by_weight(d)
            assert list(got.items()) == list(_reference_by_weight(gs, d).items()), d
            handed.append((got, [(w, list(ms)) for w, ms in got.items()]))
        for got, seen in handed:
            assert [(w, list(ms)) for w, ms in got.items()] == seen

    read([0, 3, 6, 7])
    gs.add("y", 3, (-1, 0))  # odd, the degree of x
    gs.add("b", 4, (0, 1))
    read([12, 5, 6, 2])  # a high degree first: it builds what it needs
    gs.add("z", 3, (1, 0))  # odd, the degree and weight of x
    gs.add("u", 5, (1, 1))
    gs.add("c", 2, (1, -1))  # even, out of degree order
    read(range(13))
    gs.add("v", 7, (0, 0))
    gs.add("e", 4, (0, 1))  # even, the degree and weight of b
    read(range(15))
    assert gs._series(14)[14] == len(gs.basis(14))


def _model_generators():
    # the full ring's even generators have weight zero; a model's do not
    from sphomotopy import moduli, sullivan

    return sullivan.build(moduli.build_cohomology_algebra(2), 7).dga.gs


@pytest.mark.parametrize("make_gs", [lambda: full_generators(2),
                                     lambda: full_generators(3),
                                     lambda: full_generators(4),
                                     _model_generators],
                         ids=["full-2", "full-3", "full-4", "model-2-to-7"])
def test_enumerated_weights_match_weight_grouping(make_gs):
    gs = make_gs()
    for degree in range(13):
        got = gs.basis_by_weight(degree)
        want = _reference_by_weight(gs, degree)
        # same weights in the same order, same monomials in the same order
        assert list(got.items()) == list(want.items()), degree
        assert sum(map(len, got.values())) == gs._series(degree)[degree]


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_block_equals_its_slice_of_the_degree(genus):
    """The dominant block built from its shape (``moduli._free_block``)
    is the list the whole degree holds for μ_j, in the same order, and []
    where the degree has no such weight."""
    gs = full_generators(genus)
    evens = {}
    empty = 0
    for n in range(6 * genus - 2):
        by_w = gs.basis_by_weight(n)
        for j in range(genus + 1):
            w = (1,) * j + (0,) * (genus - j)
            want = by_w.get(w, [])
            assert _free_block(genus, n, j, evens) == want, (n, j)
            empty += not want
    assert empty


def _first_over(gs, degrees, budget):
    """(degree, estimate) where a count per degree first exceeds
    ``budget``, or None."""
    for deg in degrees:
        est = gs._series(deg)[deg]
        if est > budget:
            return deg, est
    return None


@pytest.mark.parametrize("genus", [2, 4, 9, 25])
@pytest.mark.parametrize("budget", [1, 60, 10_000, 500_000, 10**30])
def test_check_budget_refuses_where_the_per_degree_count_does(genus, budget):
    """One series for many degrees raises at the same degree, with the
    same estimate, as counting each degree on its own; ascending and not."""
    gs = full_generators(genus)
    for degrees in (range(6 * genus + 4), [30, 4, 61, 2, 17, 9, 0, 130, 5]):
        want = _first_over(gs, degrees, budget)
        if want is None:
            gs.check_budget(degrees, budget)
            continue
        with pytest.raises(BudgetExceeded) as err:
            gs.check_budget(degrees, budget)
        assert (err.value.degree, err.value.estimate) == want


def test_check_budget_doubles_its_series(monkeypatch):
    """A scan of degrees 0..6g+3 makes a new series only at a degree past
    the last one's top, and to at least twice that top: a handful of
    series, not one per degree."""
    gs = full_generators(40)
    tops = []
    series = fg.GeneratorSet._series

    def counted(self, top):
        tops.append(top)
        return series(self, top)

    monkeypatch.setattr(fg.GeneratorSet, "_series", counted)
    gs.check_budget(range(6 * 40 + 4), 10**60)
    assert tops and all(b >= 2 * a for a, b in zip(tops, tops[1:])), tops
