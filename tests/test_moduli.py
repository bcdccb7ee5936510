from fractions import Fraction

import pytest

from sphomotopy import moduli, sullivan
from sphomotopy.dga import DGA
from sphomotopy.errors import ValidationFailure
from sphomotopy.free_gca import Element, Monomial
from sphomotopy.sp_characters import _dominant_orbit_rep

import relation_reference
from quotient_reference import whole_degree_quotient


def test_q_polynomials_genus_1():
    gs = moduli.invariant_generators(1)
    q = moduli.q_polynomials(1, gs)
    assert q.q1 == gs.gen("α")
    assert q.q2 == gs.gen("β")
    assert q.q3 == gs.gen("γ")


def test_q_polynomials_genus_2():
    gs = moduli.invariant_generators(2)
    q = moduli.q_polynomials(2, gs)
    a, b, c = gs.gen("α"), gs.gen("β"), gs.gen("γ")
    assert q.q1 == a * a + b
    assert q.q2 == a * b + c
    assert q.q3 == a * c


def test_q_polynomials_genus_3():
    # one more recursion step by hand
    gs = moduli.invariant_generators(3)
    q = moduli.q_polynomials(3, gs)
    a, b, c = gs.gen("α"), gs.gen("β"), gs.gen("γ")
    assert q.q1 == a ** 3 + 5 * (a * b) + 4 * c
    assert q.q2 == a * a * b + b * b + Fraction(4, 3) * (a * c)
    assert q.q3 == a * a * c + b * c


@pytest.mark.parametrize("g", [2, 3, 4])
def test_q_degrees(g):
    q = moduli.q_polynomials(g)
    assert (q.q1.degree(), q.q2.degree(), q.q3.degree()) == \
        (2 * g, 2 * g + 2, 2 * g + 4)


def test_primitive_dimensions():
    assert len(moduli.primitive_basis(2, 0)) == 1
    assert len(moduli.primitive_basis(2, 1)) == 4
    assert len(moduli.primitive_basis(2, 2)) == 5
    assert [len(moduli.primitive_basis(3, k)) for k in range(4)] == [1, 6, 14, 14]


def test_primitive_basis_killed_by_form_power():
    g, k = 2, 2
    basis = moduli.primitive_basis(g, k)
    gs = basis[0].gs
    omega = moduli.symplectic_form_element(gs, g)
    for p in basis:
        assert (omega * p).is_zero()


def test_relation_subspace_size_and_expansion():
    E = moduli.relation_subspace_E(2)
    assert len(E) == 11  # 1 + 1 + 4 + 5
    gs = E[0].gs
    a, b = gs.gen("α"), gs.gen("β")
    g1, g2, g3, g4 = (gs.gen(f"γ{i}") for i in range(1, 5))
    assert E[0] == a * a + b
    assert E[1] == a * b - 2 * (g1 * g3) - 2 * (g2 * g4)
    assert min(e.degree() for e in E) == 4  # lowest relation degree is 2g


@pytest.mark.parametrize("g", [2, 3, 4])
def test_relation_subspace_matches_filtered_enumeration(g):
    """The odd products enumerated directly give the same primitive
    parts, in the same order, as filtering whole free-algebra bases."""
    for k in range(g + 1):
        assert moduli.primitive_basis(g, k) == \
            relation_reference.primitive_basis(g, k), k
    got, ref = moduli.relation_subspace_E(g), relation_reference.relation_subspace_E(g)
    assert got == ref
    assert [e.render() for e in got] == [e.render() for e in ref]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_relations_are_weight_homogeneous(g):
    for e in moduli.relation_subspace_E(g):
        assert e.weight() is not None


def _assert_blocked_matches_whole_degree(ring, g):
    for n in range(6 * g - 2):
        by_weight, pivots = ring._quotient_data(n)
        ref_transversal, ref_rows = whole_degree_quotient(ring, n)
        # blocks: nonempty, in sorted weight order, concatenating to the
        # transversal
        assert list(by_weight) == sorted(by_weight), n
        assert all(by_weight.values()), n
        assert [m for ms in by_weight.values() for m in ms] == ref_transversal, n
        # pivot rows, in pivot order: the RREF row of p is p minus its
        # reduced form
        assert list(pivots) == list(ref_rows), n
        for p, row in ref_rows.items():
            form = {t: -v for t, v in pivots[p].items()}
            assert {p: 1, **form} == row, (n, p)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_blocked_quotient_matches_whole_degree_full_ring(g):
    _assert_blocked_matches_whole_degree(moduli.build_cohomology_algebra(g), g)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_blocked_quotient_matches_whole_degree_invariant_ring(g):
    _assert_blocked_matches_whole_degree(moduli.invariant_ring(g), g)


def test_betti_genus_2():
    assert moduli.betti_numbers(2) == [1, 0, 1, 4, 1, 0, 1]


def test_betti_genus_3_frozen():
    # frozen from the combinatorial decomposition path evaluated by hand
    assert moduli.betti_numbers(3) == [1, 0, 1, 6, 2, 6, 16, 6, 2, 6, 1, 0, 1]


@pytest.mark.parametrize("g", [2, 3])
def test_betti_cross_check_and_duality(g):
    betti = moduli.betti_numbers(g)
    top = 6 * g - 6
    assert betti == list(reversed(betti))
    assert betti[3] == 2 * g
    assert betti == moduli.betti_decomposition(g)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_dominant_blocks_match_full_ring(g):
    """The dominant-block Betti numbers equal the dimensions of the whole
    ring, and on the whole ring every block has the dimension of its
    dominant representative: the shortcut against the full elimination,
    independently of the Weyl certificate."""
    ring = moduli.build_cohomology_algebra(g)
    assert moduli.betti_numbers(g) == [ring.dim(n) for n in range(6 * g - 5)]
    for n in range(6 * g - 2):
        by_weight = ring.basis_by_weight(n)
        for w in ring.gs.basis_by_weight(n):
            rep = _dominant_orbit_rep(w)
            assert len(by_weight.get(w, ())) == len(by_weight.get(rep, ())), (n, w)


def _echelon(pivot_cols, rows):
    """``(pivot_cols, rref)`` in the form of ``DGA._quotient_block`` from a
    block of ``moduli._dominant_blocks``, whose rows are cleared."""
    rref = []
    for p, (cols, nums) in zip(pivot_cols, rows):
        assert cols[0] == p
        rref.append({c: Fraction(v, nums[0]) for c, v in zip(cols, nums)})
    return pivot_cols, rref


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_dominant_blocks_above_3g_match_all_products(g):
    """Above degree 3g a dominant block is row-reduced from generator
    multiples of lower RREF rows moved by φ_u. Every block, its rows
    cleared of denominators, has the pivot columns and the RREF of the
    block built from every product r·m."""
    ring = moduli.build_cohomology_algebra(g)
    gs = ring.gs
    blocks = moduli._dominant_blocks(ring, g)
    flipped = permuted = False
    for (n, w), block in blocks.items():
        assert w == _dominant_orbit_rep(w)
        assert _echelon(*block[1:]) == ring._quotient_block(n, w), (n, w)
        if n <= 3 * g:
            continue
        for x in gs.gens:
            u = tuple(a - b for a, b in zip(w, x.weight))
            if (n - x.degree, _dominant_orbit_rep(u)) not in blocks:
                continue
            flipped |= min(u) < 0
            perm = moduli._signed_permutation(u)
            permuted |= any(o % g != i % g for i, (o, _) in enumerate(perm))
    assert flipped and permuted


@pytest.mark.parametrize("g", [3, 4])
def test_signed_permutation_moves_rep_to_weight(g):
    """For every weight u of the free algebra through degree 6g-3, φ_u maps
    each monomial of weight rep(u) to one of weight u, preserves
    ω = Σ γ_i γ_{i+g} and fixes α and β."""
    gs = moduli.full_generators(g)
    omega = moduli.symplectic_form_element(gs, g)
    weights = {w for n in range(6 * g - 2) for w in gs.basis_by_weight(n)}
    for u in weights:
        perm = moduli._signed_permutation(u)
        rep = _dominant_orbit_rep(u)
        for n in range(6 * g - 2):
            for m in gs.basis_by_weight(n).get(rep, ()):
                sign, mask = moduli._permute_odd(perm, m.odd)
                assert sign in (1, -1)
                assert gs.weight(Monomial(m.even, mask)) == u, (u, m)
        image = {}
        for m, c in omega.terms.items():
            sign, mask = moduli._permute_odd(perm, m.odd)
            image[Monomial(m.even, mask)] = sign * c
        assert image == omega.terms, u
        for name in ("α", "β"):
            m = gs.monomial_of(name)
            assert moduli._permute_odd(perm, m.odd) == (1, m.odd)


def _drop_relation(monkeypatch, drop):
    """Make ``relation_subspace_E`` leave out E[drop]."""
    full = moduli.relation_subspace_E
    monkeypatch.setattr(moduli, "relation_subspace_E",
                        lambda g: [e for i, e in enumerate(full(g)) if i != drop])


@pytest.mark.parametrize("build", [moduli.betti_numbers,
                                   moduli.build_cohomology_algebra])
def test_weyl_certificate_rejects_unstable_relations(monkeypatch, build):
    # E[2] is the genus-2 lead relation times γ4, the first vector of the
    # first primitive part; s_1 maps the relation on γ5 to it
    _drop_relation(monkeypatch, 2)
    with pytest.raises(ValidationFailure, match="^Weyl certificate failed"):
        build(3)


def test_model_reads_only_the_degrees_it_needs():
    """The ring's checks row-reduce dominant blocks only; a whole degree is
    row-reduced when the model first reads it."""
    target = sullivan.moduli_target(4)
    sullivan.build(target, 6)
    assert target._quot_cache
    assert max(target._quot_cache) <= 7


def test_relations_die_in_quotient():
    ring = moduli.build_cohomology_algebra(2)
    for e in moduli.relation_subspace_E(2):
        assert ring.reduce(Element(ring.gs, dict(e.terms))).is_zero()


def test_genus2_ring_identities():
    ring = moduli.build_cohomology_algebra(2)
    gs = ring.gs
    a, b = gs.gen("α"), gs.gen("β")
    assert ring.reduce(b + a * a).is_zero()  # β = -α²
    gamma = moduli.gamma_expansion(gs, 2)
    assert ring.reduce(gamma - a ** 3).is_zero()  # γ = α³
    g1, g2, g3 = gs.gen("γ1"), gs.gen("γ2"), gs.gen("γ3")
    quarter = Fraction(1, 4)
    assert ring.reduce(g1 * g3 + quarter * a ** 3).is_zero()
    assert ring.reduce(g3 * g1 - quarter * a ** 3).is_zero()
    assert ring.reduce(g1 * g2).is_zero()


@pytest.mark.parametrize("g", [2, 3])
def test_relation_subspace_is_minimal(g):
    """Dropping any single basis vector of E strictly grows some dimension."""
    E = moduli.relation_subspace_E(g)
    gs_template = moduli.full_generators(g)
    top = 6 * g - 6
    reference = moduli.betti_numbers(g)
    for drop in range(len(E)):
        gs = moduli.full_generators(g)
        relations = [Element(gs, dict(e.terms))
                     for i, e in enumerate(E) if i != drop]
        ring = DGA(gs, {}, relations=relations)
        dims = [ring.dim(n) for n in range(top + 1)]
        assert any(dims[n] > reference[n] for n in range(top + 1)), \
            f"dropping E[{drop}] changed nothing"
    assert gs_template is not None


def test_invariant_ring_hilbert_genus_2():
    ring = moduli.invariant_ring(2)
    assert [ring.dim(n) for n in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]


def test_invariant_ring_genus_1_is_ground_field():
    ring = moduli.invariant_ring(1)
    assert ring.dim(0) == 1
    assert all(ring.dim(n) == 0 for n in range(1, 8))


def test_invariant_ring_genus_3_total_dimension():
    # closed form: (6*8*10)/(2*4*6) = 10 classes in total
    coeffs = moduli.hilbert_complete_intersection(3, 12)
    assert sum(coeffs) == 10
    assert coeffs == [1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1]
    ring = moduli.invariant_ring(3)
    assert [ring.dim(n) for n in range(13)] == coeffs


def test_hilbert_genus_2_closed_form():
    assert moduli.hilbert_complete_intersection(2, 6) == [1, 0, 1, 0, 1, 0, 1]
