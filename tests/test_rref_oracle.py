"""The exact RREF and kernel against an independent implementation, sympy's."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from sphomotopy import exact_linalg as ela  # noqa: E402


@st.composite
def rational_matrices(draw):
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    # an entry is nonzero when its draw falls below the cutoff: sparse,
    # half-full and nearly dense matrices all occur
    cutoff = draw(st.sampled_from([2, 5, 9]))
    entry = st.tuples(st.integers(0, 9), st.integers(-9, 9), st.integers(1, 6))
    return [[Fraction(num, den) if k < cutoff else Fraction(0)
             for k, num, den in draw(st.lists(entry, min_size=ncols,
                                              max_size=ncols))]
            for _ in range(nrows)]


def _rows(dense):
    return [dict(enumerate(row)) for row in dense]


def _columns(dense):
    return [dict(enumerate(col)) for col in zip(*dense)]


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


SETTINGS = hypothesis.settings(max_examples=300, derandomize=True,
                               database=None, deadline=None)


@SETTINGS
@hypothesis.given(rational_matrices())
def test_rref_matches_sympy(dense):
    pivots, got = ela._echelon_rows(ela._int_rows(_rows(dense)))
    want, want_pivots = sympy.Matrix(dense).rref()
    assert pivots == list(want_pivots)
    assert [[row.get(j, 0) for j in range(len(dense[0]))] for row in got] == [
        [_fraction(x) for x in want.row(i)]
        for i in range(len(want_pivots))]


@SETTINGS
@hypothesis.given(rational_matrices())
def test_kernel_matches_sympy(dense):
    # sympy's nullspace vector for a free column is 1 there and -rref at
    # the pivots: the canonical basis, in the same order
    want = [{i: _fraction(x) for i, x in enumerate(v) if x}
            for v in sympy.Matrix(dense).nullspace()]
    assert ela.kernel_basis(_columns(dense), len(dense)) == want
