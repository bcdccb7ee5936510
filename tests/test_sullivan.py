import sys
import types
from fractions import Fraction

import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli, sp_characters, sullivan, tables
from sphomotopy.dga import DGA, CohomologyBlock, as_element
from sphomotopy.errors import (BudgetExceeded, InternalInconsistency,
                               TargetNotOneConnected, ValidationFailure)
from sphomotopy.free_gca import ONE, Element, GeneratorSet, Monomial

from cleared import cleared_rows, integer_image
from relation_reference import homogeneous, q_elements


def sphere_target():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    h = gs.gen("h")
    return DGA(gs, relations=[integer_image(h * h)])


def d_of(model, g):
    """d(g) as an ``Element``, read through the model DGA."""
    return model.dga.d_monomial(model.dga.gs.monomial_of(g))


def rho_of(model, g):
    """ρ(g) as an ``Element``, read through the structure map."""
    return model.rho_star(model.dga.gs.gen(g.name))


def parts(model):
    """Each generator's part, by name: "C" when ρ(g) != 0, the rule that
    ``json_stages`` writes it by."""
    return {g.name: "N" if rho_of(model, g).is_zero() else "C"
            for g in model.dga.gs.gens}


@pytest.fixture(scope="module")
def g2_model():
    return sullivan.build(moduli.build_cohomology_algebra(2), 7)


def test_sphere_two_stage_model():
    model = sullivan.build(sphere_target(), 6)
    assert [s.dim for s in model.stages] == [1, 1, 0, 0, 0]
    v2 = model.stage(2).generators[0]
    v3 = model.stage(3).generators[0]
    assert parts(model) == {v2.name: "C", v3.name: "N"}
    assert d_of(model, v2).is_zero() and rho_of(model, v3).is_zero()
    gs = model.dga.gs
    h = gs.gen(v2.name)
    assert d_of(model, v3) == h * h
    assert model.verify_quasi_iso(6).ok


def test_rank_zero_model_decomposes_and_dumps():
    """The sphere target's weights have length 0: each stage is a sum of
    trivial representations, labelled by the empty tuple."""
    stages = sullivan.build(sphere_target(), 4).to_json_dict()["stages"]
    assert [s["irreps"] for s in stages] == [[{"label": [], "mult": 1}]] * 2 + [[]]


@pytest.mark.parametrize("n", [0, 1, 7, -1])
def test_stage_outside_the_built_degrees_rejected(n):
    # stages start at degree 2, so n = 0 and 1 must not wrap round to the
    # last stages
    model = sullivan.build(sphere_target(), 6)
    assert [model.stage(k).degree for k in range(2, 7)] == [2, 3, 4, 5, 6]
    with pytest.raises(ValueError, match=r"degree %d: built degrees 2\.\.6" % n):
        model.stage(n)


def test_stage_of_an_empty_model_rejected():
    model = sullivan.MinimalModel(sphere_target())
    with pytest.raises(ValueError, match="built no degrees"):
        model.stage(2)


def test_not_one_connected_rejected():
    gs = GeneratorSet(0)
    gs.add("t", 1)
    gs.add("x", 2)
    x = gs.gen("x")
    with pytest.raises(TargetNotOneConnected, match="degree-1"):
        sullivan.MinimalModel(DGA(gs, relations=[integer_image(x * x)]))


def test_nonzero_differential_target_rejected():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    x = gs.gen("x")
    dga = DGA(gs)
    dga.add_generator("y", 3, None, integer_image(x * x))
    with pytest.raises(ValidationFailure, match="quotient ring"):
        sullivan.MinimalModel(dga)


def test_free_target_rejected():
    """A 1-connected free algebra with zero differential is not a quotient
    ring, so it is no target."""
    gs = GeneratorSet(0)
    gs.add("x", 2)
    with pytest.raises(ValidationFailure, match="quotient ring"):
        sullivan.MinimalModel(DGA(gs))


def test_empty_relations_give_a_quotient_ring():
    """``relations=[]`` is the quotient by the zero ideal, a target like
    any other ring; only ``DGA(gs)`` is free."""
    gs = GeneratorSet(0)
    gs.add("x", 2)
    model = sullivan.build(DGA(gs, relations=[]), 4)
    assert [s.dim for s in model.stages] == [1, 0, 0]


def test_g2_stage_dimensions(g2_model):
    assert [s.dim for s in g2_model.stages] == [1, 4, 4, 6, 15, 30]


def test_g2_low_degree_decompositions(g2_model):
    for n in range(2, 8):
        assert g2_model.stage(n).irreps() == tables.GENUS2_LOW_DEGREE[n]


def test_g2_stage4_transgression_is_iso(g2_model):
    # the degree-4 differentials span the degree-3 times degree-2 block
    gens = g2_model.stage(4).generators
    part = parts(g2_model)
    assert all(part[g.name] == "N" for g in gens)
    images = [d_of(g2_model, g) for g in gens]
    gs = g2_model.dga.gs
    basis = gs.basis(5)
    index = {m: i for i, m in enumerate(basis)}
    rows = [{index[m]: c for m, c in img.terms.items()} for img in images]
    assert ela.rank(cleared_rows(rows)) == 4


def test_g2_stage5_kernel_shape(g2_model):
    stage = g2_model.stage(5)
    assert stage.dim == 6
    part = parts(g2_model)
    assert all(part[g.name] == "N" for g in stage.generators)
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
    index = {m: i for i, m in enumerate(blk.monomials)}
    b_rows = [dict(zip(*b))
              for b in g2_model.dga._coboundary_rows(6, None, blk.monomials)]
    h3_row = {index[m]: c.numerator for m, c in h3.terms.items()}
    rank_b = ela.rank(b_rows)
    rank_bh = ela.rank(b_rows + [h3_row])
    assert rank_bh == rank_b + 1  # h³ is not a coboundary


def test_model_properties_hold(g2_model):
    assert g2_model.dga.check_d_squared() == []
    assert g2_model.check_minimality() == []
    part = parts(g2_model)
    for s in g2_model.stages:
        for g in s.generators:
            d = d_of(g2_model, g)
            assert g2_model.rho_star(d).is_zero()
            if part[g.name] == "N":
                assert rho_of(g2_model, g).is_zero()
            if not d.is_zero():
                assert homogeneous(d, d.gs.weight) == g.weight


def test_weights_preserved_by_d(g2_model):
    gs = g2_model.dga.gs
    for gen in gs.gens:
        img = g2_model.dga.d_monomial(gs.monomial_of(gen))
        if not img.is_zero():
            assert homogeneous(img, gs.weight) == gen.weight
            assert homogeneous(img, gs.degree) == gen.degree + 1


def test_dropped_generator_fails_injectivity():
    """Rebuilding stage 4 with one generator removed breaks the
    degree-5 injectivity condition."""
    target = moduli.build_cohomology_algebra(2)
    full = sullivan.build(target, 4)
    crippled = sullivan.MinimalModel(moduli.build_cohomology_algebra(2))
    for _ in (2, 3):
        crippled.extend_stage()
    # monomials are value objects: the image reads the same in both
    bucket = [crippled._register(g.name, 4, g.weight, full.dga._d_gen[g.index], None)
              for g in full.stage(4).generators[:-1]]
    crippled.stages.append(sullivan.MinimalModelStage(4, bucket))
    report = crippled.verify_quasi_iso(4)
    assert not report.ok
    assert any(e["degree"] == 5 and not e["injective"] for e in report.entries)


def test_genus3_low_degrees():
    model = sullivan.build(moduli.build_cohomology_algebra(3), 7)
    table = tables.low_degree_table(3)
    for n in range(2, 8):
        assert model.stage(n).irreps() == table[n]
    # the first kernel generator transgresses to the lead relation
    gen5 = model.stage(5).generators[0]
    gs = model.dga.gs
    q1 = moduli.q_polynomials(3)
    _, expanded = moduli.expand_invariant([q1.q1], moduli.full_generators(3), 3)[0]
    # compare through the structure map: both must die in the target and
    # have the same monomial support pattern of degrees
    d5 = d_of(model, gen5)
    assert homogeneous(d5, gs.degree) == 6
    assert model.rho_star(d5).is_zero()
    assert len(d5.terms) == len(expanded)


def _reference_c_plan(model, n):
    """The C part of stage n recomputed from the current model: H^n, the
    induced map as ``rho_star`` of each representative ``Element``, and the
    complement of its image."""
    A = model.target
    a_blocks = A.basis_by_weight(n)
    plan = []
    for w in sorted(set(a_blocks) | set(model.dga.gs.basis_by_weight(n))):
        blk = model.dga.cohomology(n, w)
        a_basis = a_blocks.get(w, [])
        index = {m: i for i, m in enumerate(a_basis)}
        vecs = []
        for rep in blk.representative_vectors:
            x = Element(model.dga.gs,
                        {blk.monomials[i]: c for i, c in rep.items()})
            vecs.append({index[m]: c
                         for m, c in model.rho_star(x).terms.items()})
        vecs = cleared_rows(vecs)
        if vecs:
            assert ela.rank(vecs) == len(vecs)  # injective on H^n
        for pos in ela.cokernel_complement_indices(vecs, len(a_basis)):
            plan.append((w, Element(A.gs, {a_basis[pos]: Fraction(1)})))
    return plan


@pytest.mark.parametrize("g, top", [(2, 9), (3, 7)])
def test_reused_c_plan_matches_recomputation(g, top):
    model = sullivan.MinimalModel(moduli.build_cohomology_algebra(g))
    c_gens = 0
    for n in range(2, top + 1):
        want = _reference_c_plan(model, n)
        stage = model.extend_stage()
        part = parts(model)
        got = [(gen.weight, rho_of(model, gen)) for gen in stage.generators
               if part[gen.name] == "C"]
        assert got == want, n
        c_gens += len(got)
    assert c_gens > 1


def test_transgression_into_coboundaries_rejected(monkeypatch):
    """A kernel class that were already a coboundary would leave H^{n+1}
    as it is, so the induced map would not become injective there."""
    cohomology = DGA.cohomology

    def kernel_claimed_bounding(self, n, weight=None):
        blk = cohomology(self, n, weight)
        return blk._replace(
            coordinates=blk.coordinates + [{p: 1} for p in blk.positions])

    model = sullivan.MinimalModel(sphere_target())
    model.extend_stage()
    monkeypatch.setattr(DGA, "cohomology", kernel_claimed_bounding)
    with pytest.raises(InternalInconsistency, match="not injective on H"):
        model.extend_stage()


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
        return blk._replace(
            representative_vectors=_bump_below_free(blk.representative_vectors))

    target = moduli.build_cohomology_algebra(2)
    monkeypatch.setattr(DGA, "cohomology", off_kernel)
    with pytest.raises(InternalInconsistency, match=r"d\(d\(v\)\) != 0"):
        sullivan.build(target, 8)


def test_differential_outside_rho_kernel_detected(monkeypatch):
    """ρ∘d=0 is checked as the block's ρ* matrix times each kernel vector,
    so a kernel the elimination got wrong cannot become differentials."""
    kernel_basis = ela.kernel_basis
    target = moduli.build_cohomology_algebra(2)
    monkeypatch.setattr(ela, "kernel_basis",
                        lambda columns, nrows:
                        _bump_below_free(kernel_basis(columns, nrows)))
    with pytest.raises(InternalInconsistency,
                       match="structure map fails to kill"):
        sullivan.build(target, 8)


@pytest.mark.parametrize("g, top, most", [(2, 10, 100), (3, 9, 300)])
def test_model_build_makes_few_fractions(g, top, most):
    """Past the ring, the model runs on integer vectors from the d block
    to the stored images. The few ``Fraction``s left are the ring's: the
    degree records it builds when first read, and the ρ images reduced
    in it. Genus 2 to degree 10 made 6,680 when the kernel vectors and
    the representatives were ``Fraction`` dicts."""
    ring = moduli.build_cohomology_algebra(g)
    new = Fraction.__new__.__code__
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is new:
            made += 1

    sys.setprofile(count)
    try:
        sullivan.build(ring, top)
    finally:
        sys.setprofile(None)
    assert made <= most


def _fraction_rref(rows):
    """Gauss-Jordan over ``Fraction``s on sparse rows: ``{pivot: RREF
    row}`` in pivot order, each row 1 at its pivot."""
    done: dict = {}
    for row in rows:
        r = {j: Fraction(v) for j, v in row.items() if v}
        for p, prow in done.items():  # prow is 0 at the other pivots
            c = r.get(p)
            if c:
                for j, v in prow.items():
                    r[j] = r.get(j, 0) - c * v
                r = {j: v for j, v in r.items() if v}
        if not r:
            continue
        p = min(r)
        lead = r[p]
        r = {j: v / lead for j, v in r.items()}
        for q, qrow in done.items():
            c = qrow.get(p)
            if c:
                for j, v in r.items():
                    qrow[j] = qrow.get(j, 0) - c * v
                done[q] = {j: v for j, v in qrow.items() if v}
        done[p] = r
    return dict(sorted(done.items()))


def _fraction_kernel(rows, ncols):
    """The canonical kernel basis of the matrix with sparse ``rows``: per
    free column f, 1 at f and -rref[p][f] at each pivot p."""
    rref = _fraction_rref(rows)
    return [{f: Fraction(1), **{p: -row[f] for p, row in rref.items() if f in row}}
            for f in range(ncols) if f not in rref]


def _reference_kernel_part(model, blk):
    """The N generators' differentials of one block in ``Fraction``s: the
    canonical cocycles z from the RREF of the block's d rows, the exact ρ*
    columns of the representatives from ``rho_of_monomial``, the canonical
    kernel of ρ*, and each Σ kv·z cleared of its denominators."""
    src = blk.monomials
    z = _fraction_kernel([dict(zip(*row)) for row in blk.d_rows], len(src))
    reps = [z[k] for k in blk.positions]
    index = {m: i for i, m in enumerate(model.target.basis(blk.degree, blk.weight))}
    rho_rows = [{} for _ in index]
    for k, rep in enumerate(reps):
        for j, c in rep.items():
            for t, v in as_element(model.target.gs,
                                   model.rho_of_monomial(src[j])).terms.items():
                row = rho_rows[index[t]]
                row[k] = row.get(k, 0) + c * v
    out = []
    for kv in _fraction_kernel(rho_rows, len(reps)):
        vec: dict = {}
        for k, c in kv.items():
            for i, v in reps[k].items():
                vec[i] = vec.get(i, 0) + c * v
        out.append((blk.weight, ela._cleared({src[i]: v for i, v in vec.items() if v})))
    return out


@pytest.mark.parametrize("g, top", [(2, 10), (3, 9)])
def test_kernel_part_matches_fraction_reference(g, top, monkeypatch):
    """The integer N pass gives the differentials that the exact rational
    computation gives, block by block, and its vectors hold only ints."""
    kernel_part = sullivan.MinimalModel._kernel_part
    images = []

    def checked(self, blk, rho_cols, kernel):
        got = kernel_part(self, blk, rho_cols, kernel)
        for vecs in (blk.representative_vectors, blk.coordinates, rho_cols,
                     kernel, [terms for _, (_, terms) in got]):
            assert all(type(v) is int for vec in vecs for v in vec.values())
        assert got == _reference_kernel_part(self, blk), (blk.degree, blk.weight)
        images.extend(got)
        return got

    monkeypatch.setattr(sullivan.MinimalModel, "_kernel_part", checked)
    sullivan.build(moduli.build_cohomology_algebra(g), top)
    assert len(images) > 100
    assert any(den > 1 for _, (den, _) in images)


def test_stage_after_hand_built_stages_rejected():
    model = sullivan.invariant_model(2, 13)
    with pytest.raises(ValueError, match="built by hand"):
        model.extend_stage()


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as err:
        sullivan.build(moduli.build_cohomology_algebra(2), 8, budget=10)
    assert err.value.estimate > err.value.budget
    assert err.value.degree >= 2


def test_invariant_model_genus_2():
    model = sullivan.invariant_model(2, 13)
    gens = [(g.degree, g.name, d_of(model, g).render())
            for s in model.stages for g in s.generators]
    assert [t[0] for t in gens] == [2, 3, 4, 5, 6, 7]
    by_degree = {t[0]: t[2] for t in gens}
    assert [by_degree[3], by_degree[5], by_degree[7]] == \
        [q.render() for q in q_elements(2)]
    assert by_degree[2] == by_degree[4] == by_degree[6] == "0"


def test_d_matrix_read_once_per_cohomology_block_in_invariant_model(
        monkeypatch):
    """``verify_quasi_iso`` reads each d block once: the coboundaries take
    their pivots from the record of the block below, so no elimination on
    the spot reads a d block a second time."""
    calls = {"d_matrix": 0, "cohomology": 0}

    def counted(name):
        original = getattr(DGA, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(DGA, name, counted(name))
    sullivan.invariant_model(4, 22)
    assert calls["d_matrix"] == calls["cohomology"] > 0


def test_invariant_model_genus_1_target_trivial():
    target = moduli.invariant_ring(1)
    model = sullivan.build(target, 8)
    assert all(s.dim == 0 for s in model.stages)
    assert model.verify_quasi_iso(8).ok


def test_invariant_finite_model_needs_genus_2():
    with pytest.raises(ValueError):
        sullivan.invariant_model(1, 13)


def _corrupt_invariant_triple(monkeypatch, **extra):
    """Add ``extra[name]`` to the named polynomials of the relation triple
    that ``invariant_model`` transgresses to; the target ring, built in
    ``moduli``, keeps the true triple. Each extra is a function of the
    triple's generator set."""

    def corrupted(g):
        q = moduli.q_polynomials(g)
        gs = moduli.invariant_generators(g)
        return q._replace(**{name: integer_image(as_element(gs, getattr(q, name))
                                                 + make(gs))
                             for name, make in extra.items()})

    monkeypatch.setattr(sullivan, "moduli", types.SimpleNamespace(
        **{**vars(moduli), "q_polynomials": corrupted}))


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
    one = {0: 1}
    blk = CohomologyBlock(degree=2, weight=(), monomials=[v2],
                          representative_vectors=[one],
                          coordinates=[], positions=[0],
                          d_rows=model.dga._d_rows(2, ())[1])
    with pytest.raises(InternalInconsistency, match="word-length-1 term"):
        model._kernel_part(blk, [{}], [one])


def test_rho_columns_reject_foreign_terms(monkeypatch):
    """The ρ* columns are read over the positions of the target block; an
    image term outside the block is an error, in the model loop too."""
    target = sphere_target()
    h = target.gs.gen("h")
    model = sullivan.MinimalModel(target)
    model.extend_stage()
    blk = model.dga.cohomology(2, ())
    assert model._rho_columns(blk, target.basis(2, ())) == [{0: 1}]
    monkeypatch.setattr(model, "rho_of_monomial", lambda m: integer_image(h * h))
    with pytest.raises(InternalInconsistency,
                       match=r"leaves the \(2, \(\)\) block"):
        model._rho_columns(blk, target.basis(2, ()))
    # stage 3 reads H^4, where v2² maps to h: a degree-2 term
    monkeypatch.setattr(model, "rho_of_monomial", lambda m: integer_image(h))
    with pytest.raises(InternalInconsistency,
                       match=r"leaves the \(4, \(\)\) block"):
        model.extend_stage()


def _reference_rho(model):
    """ρ by its recursive definition: ρ(1) = 1 and ρ(rest·g) =
    reduce(ρ(rest)·ρ(g)), with g the last odd factor, or the last even one
    if there is none, and ρ(g) the generator's target monomial in
    ``model.rho``, or 0. Also returns the list of the monomials whose last
    product is not reduced."""
    A = model.target
    gs = model.dga.gs
    rho = model.rho
    images = {g.index: as_element(A.gs, (1, {rho[g.index]: 1} if g.index in rho
                                             else {}))
              for g in gs.gens}
    cache = {ONE: A.gs.unit()}
    unreduced = []

    def rho(m):
        if m in cache:
            return cache[m]
        if m.odd:
            top = 1 << (m.odd.bit_length() - 1)
            rest = Monomial(m.even, m.odd ^ top)
            gen = gs.odd[top.bit_length() - 1]
        else:
            o, e = m.even[-1]
            rest = Monomial(m.even[:-1] + (((o, e - 1),) if e > 1 else ()), 0)
            gen = gs.even[o]
        product = rho(rest) * images[gen.index]
        cache[m] = out = A.reduce(product)
        if out != product:
            unreduced.append(m)
        return out
    return rho, unreduced


@pytest.mark.parametrize("make, top", [
    (lambda: sullivan.build(moduli.build_cohomology_algebra(2), 9), 9),
    (lambda: sullivan.build(moduli.build_cohomology_algebra(3), 7), 7),
    (lambda: sullivan.invariant_model(2, 13), 13),
], ids=["genus2-9", "genus3-7", "invariant-genus2-13"])
def test_rho_is_the_algebra_map(make, top):
    """``rho_of_monomial`` reduces one product of the factors' target
    monomials; it agrees with reducing after every factor on every model
    monomial, products that the reduction changes included."""
    model = make()
    reference, unreduced = _reference_rho(model)
    checked = nonzero = 0
    for n in range(top + 1):
        for m in model.dga.gs.basis(n):
            got = as_element(model.target.gs, model.rho_of_monomial(m))
            assert got == reference(m), (n, m)
            checked += 1
            nonzero += not got.is_zero()
    assert nonzero > 1 and checked > nonzero
    assert unreduced


def test_rho_star_is_reduced(g2_model):
    """``rho_star`` returns reduced forms without reducing at the end:
    every monomial image is reduced, and so is a combination of them."""
    A = g2_model.target
    total = g2_model.dga.gs.zero()
    for n in range(2, 8):
        for k, m in enumerate(g2_model.dga.gs.basis(n)):
            x = as_element(g2_model.dga.gs, (1, {m: k + 1}))
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
    target = moduli.invariant_ring(4, check_up_to=13)
    generic = sullivan.build(target, 11)
    degrees = sorted(g.degree for s in generic.stages for g in s.generators)
    assert degrees == [2, 4, 6, 7, 9, 11]
    assert generic.check_minimality() == []
    d_by_degree = {g.degree: d_of(generic, g) for s in generic.stages
                   for g in s.generators}
    q1, q2, q3 = q_elements(4)
    gs_inv = moduli.invariant_generators(4)
    for deg, poly, earlier in ((7, q1, []), (9, q2, [q1]), (11, q3, [q1, q2])):
        img = d_by_degree[deg]
        basis = gs_inv.basis(deg + 1)
        index = {m: i for i, m in enumerate(basis)}

        def vec(e):
            return cleared_rows([{index[m]: c for m, c in e.terms.items()}])[0]

        span = []
        for rel in earlier:
            for m in gs_inv.basis(deg + 1 - homogeneous(rel, gs_inv.degree)):
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
    model = sullivan.build(moduli.build_cohomology_algebra(2), 12)
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


@pytest.mark.parametrize("make", [
    lambda: sullivan.build(moduli.build_cohomology_algebra(2), 12),
    lambda: sullivan.build(moduli.build_cohomology_algebra(3), 11),
    *(lambda g=g: sullivan.invariant_model(g, max(13, 2 * g + 3))
      for g in range(2, 6)),
    lambda: sullivan.build(moduli.invariant_ring(1), 8),
], ids=["genus2-12", "genus3-11", *(f"invariant-genus{g}" for g in range(2, 6)),
        "invariant-genus1-8"])
def test_stages_list_the_model_generators(make):
    """The stages, in order, list the model DGA's own generators by degree:
    in the order they were adjoined, which is rising degree for ``build``;
    ``invariant_model`` adjoins the even cocycles first. Each generator's
    part is read off the model: "C" exactly when ρ(v) != 0, which is
    exactly when d(v) = 0, as ``json_stages`` writes it."""
    model = make()
    gens = [g for s in model.stages for g in s.generators]
    assert gens == sorted(model.dga.gs.gens, key=lambda g: g.degree)
    assert all(g.degree == s.degree for s in model.stages for g in s.generators)
    written = [gen["part"] for _, gens in model.json_stages() for gen in gens]
    part = parts(model)
    assert written == [part[g.name] for g in gens]
    for g, part in zip(gens, written):
        assert (part == "C") == (not rho_of(model, g).is_zero()) == \
            d_of(model, g).is_zero(), g.name


def test_json_stages_let_go_of_each_rendered_stage():
    """Once the model is dropped, a stage's iterator holds the only other
    reference to each of its images, and lets go when it is exhausted, so
    a streamed dump does not keep every differential to the end."""
    model = sullivan.build(moduli.build_cohomology_algebra(2), 7)
    stages = model.json_stages()
    image = model.dga._d_gen[model.stage(7).generators[0].index]
    assert image[1]
    del model
    held = sys.getrefcount(image)
    assert sum(1 for _ in stages[-1][1]) == 30
    assert sys.getrefcount(image) == held - 1


def test_generator_records_have_slots(g2_model):
    assert not hasattr(g2_model.dga.gs.gens[0], "__dict__")
    assert not hasattr(g2_model.stages[0].generators[0], "__dict__")
    assert not hasattr(g2_model.stages[0], "__dict__")
    assert not hasattr(g2_model.dga.cohomology(2), "__dict__")


def test_deterministic_rebuild(g2_model):
    again = sullivan.build(moduli.build_cohomology_algebra(2), 7)
    a = again.to_json_dict()
    b = g2_model.to_json_dict()
    assert a == b
