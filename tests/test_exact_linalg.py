import random
from fractions import Fraction
from math import gcd

import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy.errors import NotInImage

from cleared import canonical, cleared_matrix, cleared_rows, echelon

F = Fraction


def sparse(vec):
    """``{index: Fraction}`` form of a dense sequence, zeros left out."""
    return {j: F(v) for j, v in enumerate(vec) if v}


def rows_of(rows):
    """Sparse rows from dense rows of numbers."""
    return [sparse(r) for r in rows]


def kernel(rows, ncols):
    """``kernel_basis`` of the matrix with sparse rational ``rows``, handed
    over as its columns, cleared by one common factor."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            columns[j][i] = v
    return ela.kernel_basis(cleared_matrix(columns), len(rows))


def unit(pivots, rows):
    """The RREF itself: each integer row of ``_echelon_rows`` divided by
    its pivot entry."""
    return [{c: F(v, row[p]) for c, v in row.items()}
            for p, row in zip(pivots, rows)]


def rref(rows):
    """``(rref rows, pivot columns)`` of the matrix with sparse rational
    ``rows``."""
    pivots, out = echelon(rows)
    return unit(pivots, out), pivots


def dense_rows(out, width):
    """Sparse rows as dense rows of ``width`` entries."""
    return [[row.get(j, 0) for j in range(width)] for row in out]


def identity(n):
    return [{i: F(1)} for i in range(n)]


def test_rref_identity():
    r, pivots = rref(identity(2))
    assert dense_rows(r, 2) == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_rank_one():
    r, pivots = rref(rows_of([[1, 2], [2, 4]]))
    assert dense_rows(r, 2) == [[1, 2]]
    assert pivots == [0]


def test_rref_swap():
    r, pivots = rref(rows_of([[0, 1], [1, 0]]))
    assert dense_rows(r, 2) == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_kernel_identity_empty():
    assert kernel(identity(3), 3) == []


def test_kernel_line():
    assert kernel(rows_of([[1, 1]]), 2) == [{0: -1, 1: 1}]


def test_kernel_vectors_are_integer_multiples_of_the_canonical_ones():
    # the RREF is [[1, 0, 3/2], [0, 1, -1/3]]: the canonical vector
    # (-3/2, 1/3, 1) times 6, the lcm of the pivot entries 2 and 3
    basis = ela.kernel_basis([{0: 2}, {1: 3}, {0: 3, 1: -1}], 2)
    assert basis == [{2: 6, 0: -9, 1: 2}]
    assert all(type(v) is int for v in basis[0].values())
    assert canonical(basis[0]) == {0: F(-3, 2), 1: F(1, 3), 2: 1}


def test_empty_vectors_skip_the_elimination(monkeypatch):
    seen = []
    echelon_rows = ela._echelon_rows
    monkeypatch.setattr(ela, "_echelon_rows",
                        lambda rows: seen.append(len(rows)) or echelon_rows(rows))
    assert ela.rank([{}, {1: 2}, {}]) == 1
    assert ela.cokernel_complement_indices([{}, {0: 1}], 2) == [1]
    assert len(ela.kernel_basis([{}, {0: 1}, {}], 4)) == 2
    assert seen == [1, 1, 1]


def test_kernel_zero_matrix_full():
    basis = kernel(rows_of([[0, 0, 0]]), 3)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_vectors_stay_sparse():
    # one pivot: each kernel vector is its free entry plus at most the
    # pivot entry, however wide the matrix
    basis = kernel([{700: F(3)}], 2000)
    assert len(basis) == 1999
    assert all(len(v) <= 2 for v in basis)


def complement(gens, dim):
    """Unit vectors at the complement positions: they span a complement."""
    return [{j: 1} for j in ela.cokernel_complement_indices(
        cleared_rows(map(sparse, gens)), dim)]


def test_cokernel_complement_cases():
    assert complement([(1, 0), (0, 1)], 2) == []
    assert complement([], 2) == [{0: 1}, {1: 1}]
    assert complement([(1, 1, 0)], 3) == [{1: 1}, {2: 1}]


@pytest.mark.parametrize("rows, want", [
    ([([0, 2], [3, 6]), ([1, 2], [2, -4])], [{0: 1, 2: 2}, {1: 1, 2: -2}]),
    ([([0, 1], [2, 3])], [{0: 1, 1: F(3, 2)}]),
    ([([0, 1], [4, 6])], [{0: 1, 1: F(3, 2)}]),
    ([([0, 1], [-2, 3])], [{0: 1, 1: F(-3, 2)}]),
    ([([1, 3], [-6, 4]), ([0, 1, 2], [1, 1, 1])],
     [{0: 1, 2: 1, 3: F(2, 3)}, {1: 1, 3: F(-2, 3)}]),
], ids=["unit", "non-unit", "content", "negative-lead", "two-rows"])
def test_echelon_rows_primitive_positive_pivot(rows, want):
    """Each row is a primitive integer vector with a positive pivot entry
    and is the RREF row ``want`` after division by that entry; the two
    together fix the row."""
    pivots, got = ela._echelon_rows(rows)
    assert pivots == [min(row) for row in want]
    for p, row in zip(pivots, got):
        assert all(type(v) is int for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
    assert unit(pivots, got) == want


def matrix(rows):
    """The solver's matrix record from dense rows of numbers."""
    return ela.RationalMatrix(len(rows), len(rows[0]), rows_of(rows), 1)


def apply(m, vec):
    """``m`` times the sparse column vector ``vec``, as a sparse vector."""
    out = {}
    for i, row in enumerate(m.rows):
        s = sum(v * vec[c] for c, v in row.items() if c in vec)
        if s:
            out[i] = s
    return out


def test_preimage_identity():
    m = ela.RationalMatrix(3, 3, identity(3), 1)
    assert ela.preimage_many(m, [(5, -2, 7)])[0] == (5, -2, 7)


def test_preimage_scalar():
    assert ela.preimage_many(matrix([[2]]), [(1,)])[0] == (F(1, 2),)


def test_preimage_over_common_denominator():
    # rows / den: the matrix [[1/2, 3/2]] stored as [[1, 3]] over 2
    m = ela.RationalMatrix(1, 2, [{0: 1, 1: 3}], 2)
    assert ela.preimage_many(m, [(1,)])[0] == (2, 0)


def test_preimage_free_vars_zero():
    assert ela.preimage_many(matrix([[1, 1]]), [(3,)])[0] == (3, 0)


def test_preimage_not_in_image():
    with pytest.raises(NotInImage):
        ela.preimage_many(matrix([[1, 0], [0, 0]]), [(0, 1)])[0]


def test_preimage_many_mixed_consistency():
    # one inconsistent side must not mask or corrupt the others
    m = matrix([[1, 0], [0, 0]])
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
    return ela.RationalMatrix(nrows, ncols, rows, 1)


@pytest.mark.parametrize("seed", range(12))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    assert ela.rank(cleared_rows(m.rows)) + len(kernel(m.rows, m.ncols)) == m.ncols


@pytest.mark.parametrize("seed", range(12))
def test_preimage_roundtrip(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    x = sparse(rng.randint(-5, 5) for _ in range(m.ncols))
    b = apply(m, x)
    sol = ela.preimage_many(m, [b])[0]
    assert apply(m, sparse(sol)) == b


@pytest.mark.parametrize("seed", range(12))
def test_complement_plus_image_spans(seed):
    rng = random.Random(200 + seed)
    dim = rng.randint(1, 7)
    gens = [tuple(F(rng.randint(-4, 4)) for _ in range(dim))
            for _ in range(rng.randint(0, 5))]
    comp = complement(gens, dim)
    gens = cleared_rows(sparse(v) for v in gens)
    r = ela.rank(gens)
    assert r + len(comp) == dim
    assert ela.rank(gens + comp) == dim


def test_kernel_vectors_are_killed():
    rng = random.Random(3)
    m = _random_matrix(rng, 5, 7)
    for v in kernel(m.rows, m.ncols):
        assert apply(m, v) == {}


def test_deterministic_repeat():
    rng = random.Random(42)
    m = _random_matrix(rng, 6, 8)
    first = rref(m.rows)
    second = rref([dict(r) for r in m.rows])
    assert first[0] == second[0] and first[1] == second[1]


def test_entries_lowest_terms():
    r, _ = rref(rows_of([[F(2, 4), F(6, 8)]]))
    for row in r:
        for v in row.values():
            assert v == Fraction(v.numerator, v.denominator)
            assert v.denominator > 0
