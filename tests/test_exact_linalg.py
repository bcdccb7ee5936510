import random
from fractions import Fraction

import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy.errors import NotInImage

F = Fraction


def sparse(vec):
    """``{index: Fraction}`` form of a dense sequence, zeros left out."""
    return {j: F(v) for j, v in enumerate(vec) if v}


def dense(rows):
    """Matrix from dense rows of numbers (stored sparsely)."""
    return ela.RationalMatrix.from_rows([sparse(r) for r in rows], len(rows[0]))


def test_rref_identity():
    m = ela.RationalMatrix.identity(2)
    r, pivots = ela.rref(m)
    assert r.to_dense() == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_rank_one():
    r, pivots = ela.rref(dense([[1, 2], [2, 4]]))
    assert r.to_dense() == [[1, 2]]
    assert pivots == [0]


def test_rref_swap():
    r, pivots = ela.rref(dense([[0, 1], [1, 0]]))
    assert r.to_dense() == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_kernel_identity_empty():
    assert ela.kernel_basis(ela.RationalMatrix.identity(3)) == []


def test_kernel_line():
    assert ela.kernel_basis(dense([[1, 1]])) == [{0: F(-1), 1: F(1)}]


def test_kernel_zero_matrix_full():
    basis = ela.kernel_basis(dense([[0, 0, 0]]))
    assert len(basis) == 3
    assert basis[0] == {0: 1}


def test_kernel_vectors_stay_sparse():
    # one pivot: each kernel vector is its free entry plus at most the
    # pivot entry, however wide the matrix
    m = ela.RationalMatrix.from_rows([{700: F(3)}], 2000)
    basis = ela.kernel_basis(m)
    assert len(basis) == 1999
    assert all(len(v) <= 2 for v in basis)


def complement(gens, dim):
    """Unit vectors at the complement positions: they span a complement."""
    return [{j: F(1)}
            for j in ela.cokernel_complement_indices(map(sparse, gens), dim)]


def test_cokernel_complement_cases():
    assert complement([(1, 0), (0, 1)], 2) == []
    assert complement([], 2) == [{0: 1}, {1: 1}]
    assert complement([(1, 1, 0)], 3) == [{1: 1}, {2: 1}]


def test_echelon_unit_pivots():
    rows = [([0, 2], [3, 6]), ([1, 2], [2, -4])]
    pivots, rref = ela._echelon_rows(rows)
    assert pivots == [0, 1]
    for p, row in zip(pivots, rref):
        assert row[p] == 1


def test_preimage_identity():
    m = ela.RationalMatrix.identity(3)
    assert ela.preimage(m, (5, -2, 7)) == (5, -2, 7)


def test_preimage_scalar():
    assert ela.preimage(dense([[2]]), (1,)) == (F(1, 2),)


def test_preimage_free_vars_zero():
    assert ela.preimage(dense([[1, 1]]), (3,)) == (3, 0)


def test_preimage_not_in_image():
    with pytest.raises(NotInImage):
        ela.preimage(dense([[1, 0], [0, 0]]), (0, 1))


def test_preimage_many_mixed_consistency():
    # one inconsistent side must not mask or corrupt the others
    m = dense([[1, 0], [0, 0]])
    sols = ela.preimage_many(m, [(2, 0)])
    assert sols == [(2, 0)]
    with pytest.raises(NotInImage):
        ela.preimage_many(m, [(0, 1), (2, 0)])
    with pytest.raises(NotInImage):
        ela.preimage_many(m, [(2, 0), (0, 1)])


def _random_matrix(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = F(rng.randint(-6, 6), rng.randint(1, 4))
        rows.append(row)
    return ela.RationalMatrix(nrows, ncols, rows)


@pytest.mark.parametrize("seed", range(12))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    assert ela.rank(m) + len(ela.kernel_basis(m)) == m.ncols


@pytest.mark.parametrize("seed", range(12))
def test_preimage_roundtrip(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    x = sparse(rng.randint(-5, 5) for _ in range(m.ncols))
    b = m.apply(x)
    sol = ela.preimage(m, b)
    assert m.apply(sparse(sol)) == b


@pytest.mark.parametrize("seed", range(12))
def test_complement_plus_image_spans(seed):
    rng = random.Random(200 + seed)
    dim = rng.randint(1, 7)
    gens = [tuple(F(rng.randint(-4, 4)) for _ in range(dim))
            for _ in range(rng.randint(0, 5))]
    comp = complement(gens, dim)
    gens = [sparse(v) for v in gens]
    stacked = ela.RationalMatrix.from_rows(gens + comp, ncols=dim)
    r = ela.rank(ela.RationalMatrix.from_rows(gens, ncols=dim))
    assert r + len(comp) == dim
    assert ela.rank(stacked) == dim


def test_kernel_vectors_are_killed():
    rng = random.Random(3)
    m = _random_matrix(rng, 5, 7)
    for v in ela.kernel_basis(m):
        assert m.apply(v) == {}


def test_deterministic_repeat():
    rng = random.Random(42)
    m = _random_matrix(rng, 6, 8)
    first = ela.rref(m)
    second = ela.rref(ela.RationalMatrix(m.nrows, m.ncols,
                                         [dict(r) for r in m.rows]))
    assert first[0] == second[0] and first[1] == second[1]


def test_entries_lowest_terms():
    r, _ = ela.rref(dense([[F(2, 4), F(6, 8)]]))
    for row in r.rows:
        for v in row.values():
            assert v == Fraction(v.numerator, v.denominator)
            assert v.denominator > 0
