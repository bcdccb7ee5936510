"""One (degree, weight) block enumerated on its own against its slice of
the whole degree, on random generator sets whose even and odd generators
both carry weights, so that the bound on an even generator's exponent
matters."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from sphomotopy.free_gca import GeneratorSet  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=150, derandomize=True,
                               database=None, deadline=None)


@st.composite
def generator_sets(draw):
    size = draw(st.integers(1, 3))
    weight = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    weighted = weight.filter(any)
    gens = [(draw(st.sampled_from([1, 3, 5])), draw(weighted)),
            (draw(st.sampled_from([2, 4])), draw(weighted))]
    gens += draw(st.lists(st.tuples(st.integers(1, 5), weight), max_size=4))
    gs = GeneratorSet(size)
    for k in draw(st.permutations(range(len(gens)))):
        gs.add(f"x{k}", *gens[k])
    return gs


@SETTINGS
@hypothesis.given(generator_sets())
def test_block_equals_its_slice_of_the_degree(gs):
    for n in range(11):
        by_w = gs.basis_by_weight(n)
        # each weight of the degree, and each one step away from one
        weights = set(by_w)
        for w in by_w:
            for i in range(gs.weight_len):
                for step in (-1, 1):
                    weights.add(w[:i] + (w[i] + step,) + w[i + 1:])
        for w in weights:
            assert gs.basis(n, w) == by_w.get(w, []), (n, w)
