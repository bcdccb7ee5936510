from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from sphomotopy import moduli, sullivan
from sphomotopy.dga import DGA, as_element
from sphomotopy.errors import ValidationFailure
from sphomotopy.free_gca import GeneratorSet, Monomial
from sphomotopy.sp_characters import _dominant_orbit_rep, weyl_orbit

import relation_reference
from cleared import integer_image
from quotient_reference import whole_degree_quotient


def test_q_polynomials_genus_1():
    gs = moduli.invariant_generators(1)
    q1, q2, q3 = relation_reference.q_elements(1)
    assert q1 == gs.gen("α")
    assert q2 == gs.gen("β")
    assert q3 == gs.gen("γ")


def test_q_polynomials_genus_2():
    gs = moduli.invariant_generators(2)
    q1, q2, q3 = relation_reference.q_elements(2)
    a, b, c = gs.gen("α"), gs.gen("β"), gs.gen("γ")
    assert q1 == a * a + b
    assert q2 == a * b + c
    assert q3 == a * c


def test_q_polynomials_genus_3():
    # one more recursion step by hand
    gs = moduli.invariant_generators(3)
    q1, q2, q3 = relation_reference.q_elements(3)
    a, b, c = gs.gen("α"), gs.gen("β"), gs.gen("γ")
    assert q1 == a * a * a + 5 * (a * b) + 4 * c
    assert q2 == a * a * b + b * b + Fraction(4, 3) * (a * c)
    assert q3 == a * a * c + b * c
    # the images are in lowest terms: 3·q2 over den 3
    assert moduli.q_polynomials(3).q2[0] == 3


@pytest.mark.parametrize("g", [2, 3, 4])
def test_q_degrees(g):
    q = relation_reference.q_elements(g)
    assert [relation_reference.homogeneous(p, p.gs.degree) for p in q] == \
        [2 * g, 2 * g + 2, 2 * g + 4]


def test_primitive_dimensions():
    assert len(moduli.primitive_basis(2, 0)) == 1
    assert len(moduli.primitive_basis(2, 1)) == 4
    assert len(moduli.primitive_basis(2, 2)) == 5
    assert [len(moduli.primitive_basis(3, k)) for k in range(4)] == [1, 6, 14, 14]


def test_primitive_basis_killed_by_form_power():
    g, k = 2, 2
    gs = moduli.full_generators(g)
    omega = relation_reference.symplectic_form_element(gs, g)
    for p in moduli.primitive_basis(g, k):
        assert (omega * as_element(gs, p)).is_zero()


def test_relation_subspace_size_and_expansion():
    gs = moduli.full_generators(2)
    E = [as_element(gs, e) for e in moduli.relation_subspace_E(2)]
    assert len(E) == 11  # 1 + 1 + 4 + 5
    a, b = gs.gen("α"), gs.gen("β")
    g1, g2, g3, g4 = (gs.gen(f"γ{i}") for i in range(1, 5))
    assert E[0] == a * a + b
    assert E[1] == a * b - 2 * (g1 * g3) - 2 * (g2 * g4)
    # lowest relation degree is 2g
    assert min(relation_reference.homogeneous(e, gs.degree) for e in E) == 4


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_relation_subspace_matches_filtered_enumeration(g):
    """The kernel of the contraction on the odd products enumerated
    directly gives the same primitive parts, in the same order, as the
    kernel of ω^{g-k+1} on filtered whole free-algebra bases, and the
    integer relations are the reference's ``Element`` products."""
    gs = moduli.full_generators(g)
    for k in range(g + 1):
        assert [as_element(gs, p) for p in moduli.primitive_basis(g, k)] == \
            relation_reference.primitive_basis(g, k), k
    got = [as_element(gs, e) for e in moduli.relation_subspace_E(g)]
    ref = relation_reference.relation_subspace_E(g)
    assert got == ref
    assert [e.render() for e in got] == [e.render() for e in ref]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_relations_are_weight_homogeneous(g):
    gs = moduli.full_generators(g)
    for e in moduli.relation_subspace_E(g):
        assert relation_reference.homogeneous(as_element(gs, e), gs.weight) is not None


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_simple_reflections_act_on_weights_as_on_relations(g):
    """The certificate reads the weight a relation part lands in off the
    part's weight: s_i swaps entries i and i+1, s_g negates the last.
    That is the weight of every moved relation."""
    ring = DGA(moduli.full_generators(g), relations=moduli.relation_subspace_E(g))
    gs = ring.gs
    for perm, act in moduli._simple_reflections(g):
        for parts in ring.relation_groups.values():
            for w, rels in parts.items():
                for terms in rels:
                    for m, _ in moduli._move_terms(perm, terms, {}):
                        assert gs.weight(m) == act(w), (g, w, m)


def _assert_blocked_matches_whole_degree(ring, relations, last):
    top = 6 * ring.gs.weight_len - 6
    for n in range(last + 1):
        by_weight, pivots, _ = ring._quotient_data(n)
        ref_transversal, ref_rows = whole_degree_quotient(ring, relations, n)
        # blocks: nonempty, in sorted weight order, concatenating to the
        # transversal
        assert list(by_weight) == sorted(by_weight), n
        assert all(by_weight.values()), n
        assert [m for ms in by_weight.values() for m in ms] == ref_transversal, n
        # above the top degree the ideal is the whole degree
        assert n <= top or not by_weight, n
        # pivot rows, in pivot order: the RREF row of p is p minus its
        # reduced form
        assert list(pivots) == list(ref_rows), n
        for p, row in ref_rows.items():
            den, form = pivots[p]
            assert {p: 1, **{t: Fraction(-v, den) for t, v in form.items()}} == row, \
                (n, p)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_blocked_quotient_matches_whole_degree_full_ring(g):
    _assert_blocked_matches_whole_degree(moduli.build_cohomology_algebra(g),
                                         moduli.relation_subspace_E(g), 6 * g - 3)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_blocked_quotient_matches_whole_degree_invariant_ring(g):
    _assert_blocked_matches_whole_degree(moduli.invariant_ring(g),
                                         moduli.q_polynomials(g), 6 * g - 3)


@pytest.mark.parametrize("ring, relations, last", [
    (moduli.build_cohomology_algebra, moduli.relation_subspace_E, (2, 15)),
    (moduli.build_cohomology_algebra, moduli.relation_subspace_E, (3, 13)),
    (moduli.invariant_ring, moduli.q_polynomials, (2, 15)),
], ids=["full-2", "full-3", "inv-2"])
def test_blocked_quotient_matches_whole_degree_past_6g_3(ring, relations, last):
    """The recursion reads every lower degree, and the deep genus-2 model
    reads the ring past degree 6g-3."""
    g, top = last
    _assert_blocked_matches_whole_degree(ring(g), relations(g), top)


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


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_dominant_blocks_count_the_weights_of_each_degree(g):
    """The count the dimensions were once read with, by the dominant
    representative of each weight of the whole free degree, against the
    blocks ``_dominant_blocks`` builds: the representatives are the
    μ_j = (1^j, 0^{g-j}) it keeps, each counted C(g, j)·2^j = |W·μ_j|
    times, and that count gives the Betti numbers."""
    ring = moduli.build_cohomology_algebra(g)
    blocks = moduli._dominant_blocks(ring, g)
    dims = []
    for n in range(6 * g - 2):
        reps = Counter(_dominant_orbit_rep(w)
                       for w in ring.gs.basis_by_weight(n))
        assert set(reps) == {w for k, w in blocks if k == n}, n
        for mu, count in reps.items():
            j = sum(mu)
            assert mu == (1,) * j + (0,) * (g - j)
            assert count == comb(g, j) * 2 ** j == len(weyl_orbit(mu)), (n, mu)
        dims.append(sum(count * (len(blocks[n, mu][0]) - len(blocks[n, mu][1]))
                        for mu, count in reps.items()))
    assert dims[:6 * g - 5] == moduli.betti_numbers(g)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_betti_numbers_enumerate_no_whole_degree(monkeypatch, g):
    """The Betti path enumerates the dominant blocks one by one and never
    a whole degree of the free algebra."""
    def whole_degree(self, degree):
        raise AssertionError(f"degree {degree} enumerated in full")

    monkeypatch.setattr(GeneratorSet, "_built", whole_degree)
    assert moduli.betti_numbers(g) == moduli.betti_decomposition(g)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_dominant_blocks_above_3g_match_all_products(g):
    """In every degree a dominant block is row-reduced from the relations
    and generator multiples of lower RREF rows moved by φ_u. Every block
    has the free monomials, pivot columns and primitive integer RREF rows
    of the ring's own record of the block, which reads its lower blocks
    unmoved; the ring's blocks match the elimination of every product r·m
    (``test_blocked_quotient_matches_whole_degree_full_ring``)."""
    ring = moduli.build_cohomology_algebra(g)
    gs = ring.gs
    blocks = moduli._dominant_blocks(ring, g)
    flipped = permuted = False
    for (n, w), block in blocks.items():
        assert w == _dominant_orbit_rep(w)
        monos, rows = ring._quotient_data(n)[2].get(
            w, (gs.basis_by_weight(n)[w], []))
        assert block == (monos, [cols[0] for cols, _ in rows], rows), (n, w)
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
    omega = relation_reference.symplectic_form_element(gs, g)
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


@pytest.mark.parametrize("build", [moduli.betti_numbers,
                                   moduli.build_cohomology_algebra])
def test_weyl_certificate_rejects_a_flip_into_an_empty_part(monkeypatch, build):
    # α·γ1γ2γ3 has degree 11, where E has no other relation; s_1 and s_2
    # fix it up to sign, and only s_3 moves it, to the empty weight (1, 1, -1)
    full = moduli.relation_subspace_E

    def with_extra(g):
        gs = moduli.full_generators(g)
        return full(g) + [integer_image(
            gs.gen("α") * gs.gen("γ1") * gs.gen("γ2") * gs.gen("γ3"))]

    monkeypatch.setattr(moduli, "relation_subspace_E", with_extra)
    with pytest.raises(ValidationFailure, match="^Weyl certificate failed"):
        build(3)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_simple_reflections_are_signed_permutations_of_reflected_rho(g):
    """s_i (i < g) swaps γ_i with γ_{i+1} and γ_{i+g} with γ_{i+g+1}; s_g
    sends γ_g to γ_2g and γ_2g to -γ_g. Each is φ of ρ = (g, ..., 1) with
    the matching reflection applied (ordinals: γ_i is i-1)."""
    rho = list(range(g, 0, -1))
    for i in range(g - 1):
        perm = [(o, 1) for o in range(2 * g)]
        perm[i], perm[i + 1] = (i + 1, 1), (i, 1)
        perm[i + g], perm[i + g + 1] = (i + g + 1, 1), (i + g, 1)
        u = rho[:]
        u[i], u[i + 1] = u[i + 1], u[i]
        assert moduli._signed_permutation(u) == perm, (g, i)
    perm = [(o, 1) for o in range(2 * g)]
    perm[g - 1], perm[2 * g - 1] = (2 * g - 1, 1), (g - 1, -1)
    assert moduli._signed_permutation(rho[:-1] + [-1]) == perm


def test_model_reads_only_the_degrees_it_needs():
    """The ring's checks enumerate and row-reduce dominant blocks only; a
    whole degree is enumerated and row-reduced when the model first
    reads it."""
    target = moduli.build_cohomology_algebra(4)
    sullivan.build(target, 6)
    assert target._records
    assert max(target._records) <= 7
    assert max(target.gs._bases) <= 7


def test_relations_die_in_quotient():
    ring = moduli.build_cohomology_algebra(2)
    for e in moduli.relation_subspace_E(2):
        assert ring.reduce(as_element(ring.gs, e)).is_zero()


def test_genus2_ring_identities():
    ring = moduli.build_cohomology_algebra(2)
    gs = ring.gs
    a, b = gs.gen("α"), gs.gen("β")
    assert ring.reduce(b + a * a).is_zero()  # β = -α²
    gamma = relation_reference.gamma_expansion(gs, 2)
    assert ring.reduce(gamma - a * a * a).is_zero()  # γ = α³
    g1, g2, g3 = gs.gen("γ1"), gs.gen("γ2"), gs.gen("γ3")
    quarter = Fraction(1, 4)
    assert ring.reduce(g1 * g3 + quarter * (a * a * a)).is_zero()
    assert ring.reduce(g3 * g1 - quarter * (a * a * a)).is_zero()
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
        ring = DGA(gs, relations=[e for i, e in enumerate(E) if i != drop])
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
