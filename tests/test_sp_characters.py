import random
from collections import Counter
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from operator import add

import pytest

from sphomotopy import sp_characters as sp
from sphomotopy.errors import NotACharacter


def test_dominance_paper_pairs():
    assert sp.dominance_leq((0, 1), (2, 0))
    assert not sp.dominance_leq((1, 1), (2, 0))
    for m in range(4, 9):
        assert sp.dominance_leq((m - 3, 1), (m - 1, 0))


def test_dominance_is_partial_order():
    labels = [(a, b) for a in range(6) for b in range(6)]
    for x in labels:
        assert sp.dominance_leq(x, x)
    rng = random.Random(7)
    for _ in range(4000):
        x, y, z = rng.choice(labels), rng.choice(labels), rng.choice(labels)
        if sp.dominance_leq(x, y) and sp.dominance_leq(y, x):
            assert x == y
        if sp.dominance_leq(x, y) and sp.dominance_leq(y, z):
            assert sp.dominance_leq(x, z)


def test_dimensions():
    assert sp.irrep_dimension((0, 0)) == 1
    assert sp.irrep_dimension((1, 0)) == 4  # the standard representation
    assert sp.irrep_dimension((0, 1)) == 5
    assert sp.irrep_dimension((2, 0)) == 10
    assert sp.irrep_dimension((1, 1)) == 16


def test_dimension_formula_g2_pq():
    # closed form p*q*(p²-q²)/6 with p = a+b+2, q = b+1
    for a in range(5):
        for b in range(5):
            p, q = a + b + 2, b + 1
            assert sp.irrep_dimension((a, b)) == p * q * (p * p - q * q) // 6


def test_standard_character():
    assert sp.irrep_character((1, 0)) == {
        (1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}


def test_wedge_primitive_character():
    assert sp.irrep_character((0, 1)) == {
        (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): 1}


def test_trivial_character():
    assert sp.irrep_character((0, 0)) == {(0, 0): 1}
    assert sp.decompose({(): 3}) == {(): 3}  # rank 0: the weight of length 0


@pytest.mark.parametrize("g", [2, 3])
def test_freudenthal_total_matches_weyl_dimension(g):
    for label in product(range(4), repeat=g):
        char = sp.irrep_character(label)
        assert sum(char.values()) == sp.irrep_dimension(label)


@pytest.mark.parametrize("g", [2, 3])
def test_characters_weyl_symmetric(g):
    for label in product(range(3), repeat=g):
        char = sp.irrep_character(label)
        for w, m in char.items():
            for orbit_point in sp.weyl_orbit(w):
                assert char.get(orbit_point) == m


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_weyl_orbit_matches_brute_force(g):
    """Every weight with entries in -2..2: the orbit made one distinct
    value at a time is the set of all signed permutations."""
    for w in product(range(-2, 3), repeat=g):
        brute = {tuple(s * x for s, x in zip(signs, p))
                 for p in permutations(w)
                 for signs in product((1, -1), repeat=g)}
        assert sp.weyl_orbit(w) == brute, w


def test_weyl_orbit_of_repeated_entries_is_small():
    # 50! permutations of one value: the orbit is made without them
    assert sp.weyl_orbit((0,) * 50) == {(0,) * 50}
    assert sp.decompose({(0,) * 12: 1}) == {(0,) * 12: 1}


@pytest.mark.parametrize("g", [2, 3])
def test_decompose_roundtrip(g):
    for label in product(range(4), repeat=g):
        assert sp.decompose(sp.irrep_character(label)) == {label: 1}


def test_decompose_zero():
    assert sp.decompose({}) == {}
    assert sp.decompose({(0, 0): 0}) == {}


# the weights of the standard representation of Sp(4), with multiplicity
STD = [w for w, m in sp.irrep_character((1, 0)).items() for _ in range(m)]


def weight_sums(combos) -> Counter:
    """The character whose weights are the sums of the combinations."""
    return Counter(tuple(map(sum, zip(*combo))) for combo in combos)


def tensor_decompose(x, y):
    """The decomposition of the tensor product of two irreducibles, from
    the product of their characters."""
    char = Counter()
    for (w1, m1), (w2, m2) in product(sp.irrep_character(x).items(),
                                      sp.irrep_character(y).items()):
        char[tuple(map(add, w1, w2))] += m1 * m2
    return sp.decompose(char)


def test_decompose_wedge_square_of_standard():
    assert sp.decompose(weight_sums(combinations(STD, 2))) == {(0, 1): 1, (0, 0): 1}


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_decompose_sym_power_of_standard(a):
    assert sp.decompose(weight_sums(combinations_with_replacement(STD, a))) == \
        {(a, 0): 1}


def test_tensor_examples():
    assert tensor_decompose((0, 1), (1, 0)) == {(1, 1): 1, (1, 0): 1}
    assert tensor_decompose((2, 0), (0, 0)) == {(2, 0): 1}


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_tensor_negative_containment(g, k):
    e1_scaled = tuple([k - 2] + [0] * (g - 1))
    e2 = tuple([0, 1] + [0] * (g - 2))
    forbidden = tuple([k] + [0] * (g - 1))
    assert forbidden not in tensor_decompose(e1_scaled, e2)


@pytest.mark.parametrize("seed", range(8))
def test_cartan_component_multiplicity_one(seed):
    rng = random.Random(seed)
    g = rng.choice([2, 3])
    x = tuple(rng.randint(0, 2) for _ in range(g))
    y = tuple(rng.randint(0, 2) for _ in range(g))
    td = tensor_decompose(x, y)
    cartan = tuple(a + b for a, b in zip(x, y))
    assert td[cartan] == 1
    for label in td:
        assert sp.dominance_leq(label, cartan)


def test_tensor_dimension_additive():
    x, y = (1, 1), (2, 0)
    td = tensor_decompose(x, y)
    total = sum(sp.irrep_dimension(l) * m for l, m in td.items())
    assert total == sp.irrep_dimension(x) * sp.irrep_dimension(y)


def test_not_a_character():
    with pytest.raises(NotACharacter):
        sp.decompose({(1, 0): 1})  # not Weyl symmetric
    with pytest.raises(NotACharacter):
        sp.decompose({(0, 0): -1})


def test_n_bound_values():
    assert sp.n_bound((1, 0)) == 3
    assert sp.n_bound((0, 1)) == 5
    assert sp.n_bound((2, 0)) == 6
    assert sp.n_bound((0, 0)) == 2
    assert sp.n_bound((1, 1)) == 7
    assert sp.n_bound((3, 0)) == 8
    assert sp.n_bound((2, 1)) == 9


def test_render_label():
    assert sp.render_label((2, 1)) == "Γ(2,1)"
    assert sp.render_label((0, 1, 0)) == "Γ(0,1,0)"
