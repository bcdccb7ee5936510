import dataclasses
from fractions import Fraction

import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli, sp_characters, sullivan, tables
from sphomotopy.dga import DGA, CohomologyBlock
from sphomotopy.errors import (BudgetExceeded, InternalInconsistency,
                               TargetNotOneConnected, ValidationFailure)
from sphomotopy.free_gca import Element, GeneratorSet, Monomial


def sphere_target():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    h = gs.gen("h")
    return DGA(gs, {}, relations=[h * h])


@pytest.fixture(scope="module")
def g2_model():
    return sullivan.build(sullivan.moduli_target(2), 7)


def test_sphere_two_stage_model():
    model = sullivan.build(sphere_target(), 6)
    assert model.dims() == {2: 1, 3: 1, 4: 0, 5: 0, 6: 0}
    v2 = model.stage(2).generators[0]
    v3 = model.stage(3).generators[0]
    assert v2.part == "C" and v2.d_image.is_zero()
    assert v3.part == "N" and v3.rho_image.is_zero()
    gs = model.dga.gs
    h = gs.gen(v2.name)
    assert v3.d_image == h * h
    assert model.verify_quasi_iso(6).ok


def test_not_one_connected_rejected():
    gs = GeneratorSet(0)
    gs.add("t", 1)
    gs.add("x", 2)
    x = gs.gen("x")
    with pytest.raises(TargetNotOneConnected, match="degree-1"):
        sullivan.MinimalModel(DGA(gs, {}, relations=[x * x]))


def test_nonzero_differential_target_rejected():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    gs.add("y", 3)
    x = gs.gen("x")
    with pytest.raises(ValidationFailure):
        sullivan.MinimalModel(DGA(gs, {"y": x * x}))
    # a quotient ring with a differential cannot be built at all
    with pytest.raises(ValidationFailure, match="zero differential"):
        DGA(gs, {"y": x * x}, relations=[x * x * x])


def test_free_target_rejected():
    """A 1-connected free algebra with zero differential is not a quotient
    ring, so it is no target."""
    gs = GeneratorSet(0)
    gs.add("x", 2)
    with pytest.raises(ValidationFailure, match="quotient ring"):
        sullivan.MinimalModel(DGA(gs, {}))


def test_g2_stage_dimensions(g2_model):
    assert g2_model.dims() == {2: 1, 3: 4, 4: 4, 5: 6, 6: 15, 7: 30}


def test_g2_low_degree_decompositions(g2_model):
    for n in range(2, 8):
        assert g2_model.stage(n).irreps() == tables.GENUS2_LOW_DEGREE[n]


def test_g2_stage4_transgression_is_iso(g2_model):
    # the degree-4 differentials span the degree-3 times degree-2 block
    gens = g2_model.stage(4).generators
    assert all(g.part == "N" for g in gens)
    images = [g.d_image for g in gens]
    gs = g2_model.dga.gs
    basis = gs.basis(5)
    index = {m: i for i, m in enumerate(basis)}
    rows = [{index[m]: c for m, c in img.terms.items()} for img in images]
    assert ela.rank(rows) == 4


def test_g2_stage5_kernel_shape(g2_model):
    stage = g2_model.stage(5)
    assert stage.dim == 6
    assert all(g.part == "N" for g in stage.generators)
    assert stage.irreps() == {(0, 1): 1, (0, 0): 1}


def test_g2_quasi_iso_through_7(g2_model):
    report = g2_model.verify_quasi_iso(7)
    assert report.ok, report.failures()


def test_g2_model_cohomology_matches_betti(g2_model):
    betti = moduli.betti_numbers(2)
    dims = [g2_model.dga.cohomology(n).dim for n in range(7)]
    assert dims == betti
    # the degree-6 class is the cube of the degree-2 generator
    blk = g2_model.dga.cohomology(6)
    assert blk.dim == 1
    gs = g2_model.dga.gs
    h = gs.gen(g2_model.stage(2).generators[0].name)
    h3 = h * h * h
    basis = blk.monomials
    index = {m: i for i, m in enumerate(basis)}
    b_rows = [{index[m]: c for m, c in e.terms.items()} for e in blk.coboundaries]
    h3_row = {index[m]: c for m, c in h3.terms.items()}
    rank_b = ela.rank(b_rows)
    rank_bh = ela.rank(b_rows + [h3_row])
    assert rank_bh == rank_b + 1  # h³ is not a coboundary


def test_model_properties_hold(g2_model):
    assert g2_model.dga.check_d_squared() == []
    assert g2_model.check_minimality() == []
    for s in g2_model.stages:
        for g in s.generators:
            assert g2_model.rho_star(g.d_image).is_zero()
            if g.part == "N":
                assert g.rho_image.is_zero()
            if not g.d_image.is_zero():
                assert g.d_image.weight() == g.weight


def test_weights_preserved_by_d(g2_model):
    gs = g2_model.dga.gs
    for gen in gs.gens:
        img = g2_model.dga.d_monomial(gs.monomial_of(gen))
        if not img.is_zero():
            assert img.weight() == gen.weight
            assert img.degree() == gen.degree + 1


def test_dropped_generator_fails_injectivity():
    """Rebuilding stage 4 with one generator removed breaks the
    degree-5 injectivity condition."""
    target = sullivan.moduli_target(2)
    full = sullivan.build(target, 4)
    crippled = sullivan.MinimalModel(sullivan.moduli_target(2))
    for n in (2, 3):
        crippled.extend_stage(n)
    bucket = []
    for g in full.stage(4).generators[:-1]:
        d_img = Element(crippled.dga.gs, dict(g.d_image.terms))
        crippled._register(bucket, g.name, 4, g.weight, g.part, d_img,
                           crippled.target.gs.zero())
    crippled.stages.append(sullivan.MinimalModelStage(4, bucket))
    report = crippled.verify_quasi_iso(4)
    assert not report.ok
    assert any(e["degree"] == 5 and not e["injective"] for e in report.entries)


def test_genus3_low_degrees():
    model = sullivan.build(sullivan.moduli_target(3), 7)
    table = tables.low_degree_table(3)
    for n in range(2, 8):
        assert model.stage(n).irreps() == table[n]
    # the first kernel generator transgresses to the lead relation
    gen5 = model.stage(5).generators[0]
    gs = model.dga.gs
    q1 = moduli.q_polynomials(3)
    expanded = moduli.expand_invariant(q1.q1, moduli.full_generators(3), 3)
    # compare through the structure map: both must die in the target and
    # have the same monomial support pattern of degrees
    assert gen5.d_image.degree() == 6
    assert model.rho_star(gen5.d_image).is_zero()
    assert len(gen5.d_image.terms) == len(expanded.terms)


def _reference_c_plan(model, n):
    """The C part of stage n recomputed from the current model: H^n, the
    induced map, and the complement of its image."""
    A = model.target
    a_blocks = A.basis_by_weight(n)
    plan = []
    for w in sorted(set(a_blocks) | set(model.dga.gs.basis_by_weight(n))):
        blk = model.dga.cohomology(n, w)
        vecs = [A.coords_block(model.rho_star(rep), n, w)
                for rep in blk.representatives]
        a_basis = a_blocks.get(w, [])
        if vecs:
            assert ela.rank(vecs) == len(vecs)  # injective on H^n
        for pos in ela.cokernel_complement_indices(vecs, len(a_basis)):
            plan.append((w, Element(A.gs, {a_basis[pos]: Fraction(1)})))
    return plan


@pytest.mark.parametrize("g, top", [(2, 9), (3, 7)])
def test_reused_c_plan_matches_recomputation(g, top):
    model = sullivan.MinimalModel(sullivan.moduli_target(g))
    c_gens = 0
    for n in range(2, top + 1):
        want = _reference_c_plan(model, n)
        stage = model.extend_stage(n)
        got = [(gen.weight, gen.rho_image) for gen in stage.generators
               if gen.part == "C"]
        assert got == want, n
        c_gens += len(got)
    assert c_gens > 1


def test_transgression_into_coboundaries_rejected(monkeypatch):
    """A kernel class that were already a coboundary would leave H^{n+1}
    as it is, so the induced map would not become injective there."""
    cohomology = DGA.cohomology

    def kernel_claimed_bounding(self, n, weight=None):
        blk = cohomology(self, n, weight)
        blk.coordinates = blk.coordinates + [{p: Fraction(1)}
                                             for p in blk.positions]
        return blk

    model = sullivan.MinimalModel(sphere_target())
    model.extend_stage(2)
    monkeypatch.setattr(DGA, "cohomology", kernel_claimed_bounding)
    with pytest.raises(InternalInconsistency, match="not injective on H"):
        model.extend_stage(3)


def _bump_below_free(vecs):
    """Add 1 at the smallest entry of every vector with two or more
    entries: for a canonical kernel vector that entry is a pivot column,
    so the bumped vector leaves the kernel."""
    out = []
    for v in vecs:
        v = dict(v)
        if len(v) > 1:
            p = min(v)
            v[p] += 1
        out.append(v)
    return out


def test_noncocycle_differential_detected(monkeypatch):
    """d²=0 is checked as one product of the assembled d(n+1) block with
    the new differentials, so representatives that the elimination got
    wrong cannot become differentials."""
    cohomology = DGA.cohomology

    def off_kernel(self, n, weight=None):
        blk = cohomology(self, n, weight)
        return dataclasses.replace(
            blk, representative_vectors=_bump_below_free(blk.representative_vectors))

    target = sullivan.moduli_target(2)
    monkeypatch.setattr(DGA, "cohomology", off_kernel)
    with pytest.raises(InternalInconsistency, match=r"d\(d\(v\)\) != 0"):
        sullivan.build(target, 8)


def test_differential_outside_rho_kernel_detected(monkeypatch):
    """ρ∘d=0 is checked as the block's ρ* matrix times each kernel vector,
    so a kernel the elimination got wrong cannot become differentials."""
    kernel_basis = ela.kernel_basis
    target = sullivan.moduli_target(2)
    monkeypatch.setattr(ela, "kernel_basis",
                        lambda columns, nrows:
                        _bump_below_free(kernel_basis(columns, nrows)))
    with pytest.raises(InternalInconsistency,
                       match="structure map fails to kill"):
        sullivan.build(target, 8)


def test_stage_after_hand_built_stages_rejected():
    model = sullivan.invariant_model(2, 13)
    with pytest.raises(ValueError):
        model.extend_stage(14)


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as err:
        sullivan.build(sullivan.moduli_target(2), 8, budget=10)
    assert err.value.estimate > err.value.budget
    assert err.value.degree >= 2


def test_invariant_model_genus_2():
    model = sullivan.invariant_model(2, 13)
    gens = [(g.degree, g.name, g.d_image.render())
            for s in model.stages for g in s.generators]
    assert [t[0] for t in gens] == [2, 3, 4, 5, 6, 7]
    q = moduli.q_polynomials(2)
    by_degree = {t[0]: t[2] for t in gens}
    assert by_degree[3] == q.q1.render()
    assert by_degree[5] == q.q2.render()
    assert by_degree[7] == q.q3.render()
    assert by_degree[2] == by_degree[4] == by_degree[6] == "0"


def test_invariant_model_genus_1_target_trivial():
    target = sullivan.invariant_target(1)
    model = sullivan.build(target, 8)
    assert all(s.dim == 0 for s in model.stages)
    assert model.verify_quasi_iso(8).ok


def test_invariant_finite_model_needs_genus_2():
    with pytest.raises(ValueError):
        sullivan.invariant_model(1, 13)


def _corrupt_invariant_triple(monkeypatch, **extra):
    """Add ``extra[name]`` to the named polynomials of the relation triple
    that ``invariant_model`` transgresses to; the target ring keeps the
    true triple. Each extra is a function of the triple's generator set."""
    q_polynomials = moduli.q_polynomials

    def corrupted(g, gs=None):
        q = q_polynomials(g, gs)
        if gs is not None:
            return q
        return dataclasses.replace(q, **{
            name: getattr(q, name) + make(q.q1.gs) for name, make in extra.items()})

    monkeypatch.setattr(moduli, "q_polynomials", corrupted)


def test_invariant_transgression_outside_rho_kernel_detected(monkeypatch):
    """ρ*(d(f)) = 0 is checked for the hand-written transgressions: here
    d(f1) = α² + 2β, and ρ*(d(f1)) = β is not zero in the ring."""
    _corrupt_invariant_triple(monkeypatch, q1=lambda gs: gs.gen("β"))
    with pytest.raises(InternalInconsistency,
                       match=r"structure map fails to kill d\(f1\)"):
        sullivan.invariant_model(2, 13)


def test_invariant_transgression_off_cocycles_detected(monkeypatch):
    """d(d(f)) = 0 is checked for the hand-written transgressions: here
    d(f3) gains f1·f2, which ρ* kills, but d(f1·f2) = q1·f2 - f1·q2."""
    f1f2 = Monomial((), 0b11)  # the model's odd generators, in order
    _corrupt_invariant_triple(
        monkeypatch, q3=lambda gs: Element(gs, {f1f2: Fraction(1)}))
    with pytest.raises(InternalInconsistency, match=r"d\(d\(v\)\) != 0"):
        sullivan.invariant_model(2, 13)


def test_word_length_one_differential_detected():
    """Minimality is a block identity in ``_kernel_part``: a new d(v) with
    an entry at a generator's position of the block is rejected. The
    synthetic block puts the cocycle v2 of the sphere model there, so the
    ρ∘d=0 and d²=0 identities both hold."""
    model = sullivan.build(sphere_target(), 3)
    gs = model.dga.gs
    v2 = gs.monomial_of(model.stage(2).generators[0].name)
    assert model.dga.basis(2, ()) == [v2]
    one = {0: Fraction(1)}
    blk = CohomologyBlock(degree=2, weight=(), monomials=[v2],
                          coboundary_vectors=[], representative_vectors=[one],
                          coordinates=[], positions=[0],
                          d_rows=model.dga._d_rows(2, ())[1], gs=gs)
    with pytest.raises(InternalInconsistency, match="word-length-1 term"):
        model._kernel_part(blk, [{}], [one])


def test_rho_star_is_reduced(g2_model):
    """``rho_star`` returns reduced forms without reducing at the end:
    every monomial image is reduced, and so is a combination of them."""
    A = g2_model.target
    total = g2_model.dga.gs.zero()
    for n in range(2, 8):
        for k, m in enumerate(g2_model.dga.gs.basis(n)):
            x = g2_model.dga.gs.element({m: k + 1})
            total = total + x
            image = g2_model.rho_star(x)
            assert image == A.reduce(image), m
    image = g2_model.rho_star(total)
    assert not image.is_zero()
    assert image == A.reduce(image)


def test_generic_build_matches_invariant_model_genus_4():
    """Away from the small-genus degeneracy the degreewise construction
    finds the same six generators; each transgression is the matching
    relation modulo the ideal of the earlier ones."""
    target = sullivan.invariant_target(4, check_up_to=13)
    generic = sullivan.build(target, 11)
    degrees = sorted(g.degree for s in generic.stages for g in s.generators)
    assert degrees == [2, 4, 6, 7, 9, 11]
    assert generic.check_minimality() == []
    d_by_degree = {g.degree: g.d_image for s in generic.stages
                   for g in s.generators}
    q = moduli.q_polynomials(4)
    gs_inv = q.q1.gs
    for deg, poly, earlier in ((7, q.q1, []), (9, q.q2, [q.q1]),
                               (11, q.q3, [q.q1, q.q2])):
        img = d_by_degree[deg]
        basis = gs_inv.basis(deg + 1)
        index = {m: i for i, m in enumerate(basis)}

        def vec(e):
            return {index[m]: c for m, c in e.terms.items()}

        span = []
        for rel in earlier:
            for m in gs_inv.basis(deg + 1 - rel.degree()):
                prod = rel * Element(gs_inv, {m: 1})
                if not prod.is_zero():
                    span.append(vec(prod))
        r0 = ela.rank(span)
        img_vec = vec(Element(gs_inv, dict(img.terms)))
        assert ela.rank(span + [img_vec]) == r0 + 1  # transgression is new
        assert ela.rank(span + [vec(poly)]) == r0 + 1
        # ... and matches the relation
        assert ela.rank(span + [vec(poly), img_vec]) == r0 + 1


def test_leading_terms_hold_deeper():
    """Past the tabulated range: the dominance-maximal summand keeps the
    predicted label with multiplicity one, and every summand respects the
    degree bound. Dimensions are frozen as a regression guard."""
    model = sullivan.build(sullivan.moduli_target(2), 12)
    assert [model.stage(n).dim for n in range(2, 13)] == \
        [1, 4, 4, 6, 15, 30, 60, 120, 260, 564, 1200]
    for n in range(8, 13):
        irreps = model.stage(n).irreps()
        lead = tables.leading_label(n)
        maximal = [l for l in irreps
                   if not any(u != l and sp_characters.dominance_leq(l, u)
                              for u in irreps)]
        assert maximal == [lead] and irreps[lead] == 1
        assert all(n >= sp_characters.n_bound(l) for l in irreps)


def test_json_dump_shape(g2_model):
    dump = g2_model.to_json_dict(genus=2)
    assert dump["genus"] == 2
    stages = dump["stages"]
    assert [s["degree"] for s in stages] == list(range(2, 8))
    assert stages[1]["dim"] == 4
    assert stages[1]["irreps"] == [{"label": [1, 0], "mult": 1}]
    gen = stages[0]["generators"][0]
    assert set(gen) == {"name", "degree", "weight", "part", "d_image", "rho_image"}


def test_deterministic_rebuild(g2_model):
    again = sullivan.build(sullivan.moduli_target(2), 7)
    a = again.to_json_dict()
    b = g2_model.to_json_dict()
    assert a == b
