"""The exact RREF against an independent implementation, sympy's."""

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


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(rational_matrices())
def test_rref_matches_sympy(dense):
    got, pivots = ela.rref(ela.RationalMatrix.from_rows(dense))
    want, want_pivots = sympy.Matrix(dense).rref()
    assert pivots == list(want_pivots)
    assert got.to_dense() == [
        [Fraction(int(x.p), int(x.q)) for x in want.row(i)]
        for i in range(len(want_pivots))]
