import random
from fractions import Fraction

import pytest

from sphomotopy import free_gca as fg
from sphomotopy.moduli import full_generators


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
        assert gs2.count_monomials(degree) == len(gs2.basis(degree))


def test_filtration(gs2):
    a, g1, g2, b = (gs2.gen(n) for n in ("α", "γ1", "γ2", "β"))
    x = a + g1 * g2
    assert x.word_component(2) == g1 * g2
    assert a.word_component(2).is_zero()
    y = a * b + a * a * a
    assert y.word_component(2, at_least=False) == a * b


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
