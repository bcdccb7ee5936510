"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass. Degree caps are configurable through SPHOMOTOPY_THM63_MAXDEG (the
genus-2 deep build, default 13).
"""

import json
import os
import time
from itertools import combinations, combinations_with_replacement, product

import pytest

from sphomotopy import cli, moduli, sp_characters, sullivan, tables
from sphomotopy.errors import BudgetExceeded

from relation_reference import q_elements
from test_sp_characters import STD, tensor_decompose, weight_sums

G2_MAXDEG = int(os.environ.get("SPHOMOTOPY_THM63_MAXDEG", "13"))


def report(num, desc, ok):
    print(f"[ACCEPTANCE] criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {desc}"


def d_render(model, g):
    """d(g) as text, read through the model DGA."""
    return model.dga.d_monomial(model.dga.gs.monomial_of(g)).render()


@pytest.fixture(scope="module")
def g2_deep():
    return sullivan.build(moduli.build_cohomology_algebra(2), G2_MAXDEG)


@pytest.fixture(scope="module")
def g3_model():
    return sullivan.build(moduli.build_cohomology_algebra(3), 7)


@pytest.fixture(scope="module")
def g4_model():
    return sullivan.build(moduli.build_cohomology_algebra(4), 9)


def test_criterion_1_betti(capsys):
    t0 = time.perf_counter()
    code = cli.main(["betti", "--genus", "2", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = (code == 0
          and payload["betti"] == [1, 0, 1, 4, 1, 0, 1]
          and payload["cross_check"] == "ok"
          and elapsed < 1.0)
    with capsys.disabled():
        report(1, f"Betti reproduction, {elapsed:.3f}s", ok)


def test_criterion_2_relations(capsys):
    t0 = time.perf_counter()
    gs1 = moduli.invariant_generators(1)
    ok = q_elements(1) == [gs1.gen("α"), gs1.gen("β"), gs1.gen("γ")]
    gs2 = moduli.invariant_generators(2)
    a, b, c = gs2.gen("α"), gs2.gen("β"), gs2.gen("γ")
    ok = ok and q_elements(2) == [a * a + b, a * b + c, a * c]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(2, f"relation triples genus 1 and 2, {elapsed:.3f}s", ok)


def test_criterion_3_genus2_low_degrees(capsys):
    t0 = time.perf_counter()
    model = sullivan.build(moduli.build_cohomology_algebra(2), 7)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    for n in range(2, 8):
        ok = ok and model.stage(n).irreps() == tables.GENUS2_LOW_DEGREE[n]
    with capsys.disabled():
        report(3, f"genus-2 decompositions through degree 7, {elapsed:.1f}s", ok)


def test_criterion_4_leading_terms(capsys, g2_deep):
    ok = G2_MAXDEG >= 8
    for n in range(8, G2_MAXDEG + 1):
        irreps = g2_deep.stage(n).irreps()
        expected = tables.leading_label(n)
        maximal = [l for l in irreps
                   if not any(u != l and sp_characters.dominance_leq(l, u)
                              for u in irreps)]
        ok = ok and maximal == [expected] and irreps.get(expected) == 1
    with capsys.disabled():
        report(4, f"leading representations, degrees 8..{G2_MAXDEG}", ok)


def test_criterion_5_degree_bound(capsys, g2_deep):
    ok = True
    for s in g2_deep.stages:
        for label in s.irreps():
            ok = ok and s.degree >= sp_characters.n_bound(label)
    with capsys.disabled():
        report(5, f"degree bound on all summands through {G2_MAXDEG}", ok)


def test_criterion_6_higher_genus_tables(capsys, g3_model, g4_model):
    ok = True
    t3 = tables.low_degree_table(3)
    for n in range(2, 8):
        ok = ok and g3_model.stage(n).irreps() == t3[n]
    t4 = tables.low_degree_table(4)
    for n in range(2, 10):
        ok = ok and g4_model.stage(n).irreps() == t4[n]
    with capsys.disabled():
        report(6, "genus-3 table through 7 and genus-4 table through 9", ok)


def test_criterion_7_invariant_models(capsys):
    ok = True
    q2 = [q.render() for q in q_elements(2)]
    model2 = sullivan.invariant_model(2, 13)
    gens2 = {g.degree: d_render(model2, g)
             for s in model2.stages for g in s.generators}
    ok = ok and sorted(gens2) == [2, 3, 4, 5, 6, 7]
    ok = ok and [gens2[3], gens2[5], gens2[7]] == q2
    ok = ok and gens2[2] == gens2[4] == gens2[6] == "0"

    q3 = [q.render() for q in q_elements(3)]
    depth = 2 * (2 * 3 + 3)  # 18
    try:
        model3 = sullivan.invariant_model(3, depth)
    except BudgetExceeded:
        depth = 13
        model3 = sullivan.invariant_model(3, depth)
    gens3 = {g.degree: d_render(model3, g)
             for s in model3.stages for g in s.generators}
    ok = ok and sorted(gens3) == [2, 4, 5, 6, 7, 9]
    ok = ok and [gens3[5], gens3[7], gens3[9]] == q3
    ok = ok and gens3[2] == gens3[4] == gens3[6] == "0"
    with capsys.disabled():
        report(7, f"invariant models (genus 2 to 13, genus 3 to {depth})", ok)


def test_criterion_8a_d_squared(capsys, g2_deep, g3_model, g4_model):
    ok = all(m.dga.check_d_squared() == []
             for m in (g2_deep, g3_model, g4_model))
    with capsys.disabled():
        report("8a", "d²=0 on all generators of every built model", ok)


def test_criterion_8b_minimality(capsys, g2_deep, g3_model, g4_model):
    ok = all(m.check_minimality() == [] for m in (g2_deep, g3_model, g4_model))
    with capsys.disabled():
        report("8b", "all differentials have word length >= 2", ok)


def test_criterion_8c_quasi_iso(capsys, g2_deep, g3_model, g4_model):
    # stagewise conditions are asserted during every build; this is the
    # independent recomputation over the finished models
    ok = (g2_deep.verify_quasi_iso(G2_MAXDEG).ok
          and g3_model.verify_quasi_iso(7).ok
          and g4_model.verify_quasi_iso(9).ok)
    with capsys.disabled():
        report("8c", "induced map iso/injective at every degree", ok)


def test_criterion_8d_rho_kills_kernel_part(capsys, g2_deep, g3_model, g4_model):
    ok = True
    for m in (g2_deep, g3_model, g4_model):
        gs = m.dga.gs
        for s in m.stages:
            for g in s.generators:
                if not m.dga.d_monomial(gs.monomial_of(g)).is_zero():
                    ok = ok and m.rho_star(gs.gen(g.name)).is_zero()
    with capsys.disabled():
        report("8d", "structure map vanishes on every kernel part", ok)


def test_criterion_8e_hyperbolicity_signal(capsys, g2_deep, g3_model, g4_model):
    ok = True
    for m, g in ((g2_deep, 2), (g3_model, 3), (g4_model, 4)):
        top = max(s.degree for s in m.stages)
        for n in range(2 * g - 1, top + 1):
            ok = ok and m.stage(n).dim > 0
    with capsys.disabled():
        report("8e", "nonzero homotopy in every degree from 2g-1 up", ok)


def test_criterion_8i_nontrivial_representation(capsys, g2_deep, g3_model,
                                                g4_model):
    """The abstract: π_n ⊗ C is a non-trivial Sp(2g, C)-representation for
    n >= 2g-1. The model shows an irrep other than the trivial one in
    every built degree n >= 2g (n >= 3 at genus 2), while π_{2g-1} is the
    one-dimensional trivial representation at genus 3 and 4."""
    ok = True
    for m, g in ((g2_deep, 2), (g3_model, 3), (g4_model, 4)):
        top = max(s.degree for s in m.stages)
        for n in range(2 * g if g > 2 else 3, top + 1):
            ok = ok and any(any(label) for label in m.stage(n).irreps())
    for m, g in ((g3_model, 3), (g4_model, 4)):
        ok = ok and m.stage(2 * g - 1).irreps() == {(0,) * g: 1}
    with capsys.disabled():
        report("8i", "a non-trivial irrep in π_n for n >= 2g; π_{2g-1} "
               "trivial at genus 3, 4", ok)


def test_criterion_8f_character_roundtrip(capsys):
    ok = True
    for g in (2, 3):
        for label in product(range(4), repeat=g):
            ok = ok and sp_characters.decompose(
                sp_characters.irrep_character(label)) == {label: 1}
    with capsys.disabled():
        report("8f", "decompose after character is the identity", ok)


def test_criterion_8g_tensor_identities(capsys):
    wedge = weight_sums(combinations(STD, 2))
    ok = sp_characters.decompose(wedge) == {(0, 1): 1, (0, 0): 1}
    for a in (2, 3, 4):
        sym = weight_sums(combinations_with_replacement(STD, a))
        ok = ok and sp_characters.decompose(sym) == {(a, 0): 1}
    ok = ok and tensor_decompose((0, 1), (1, 0)) == {(1, 1): 1, (1, 0): 1}
    with capsys.disabled():
        report("8g", "wedge, symmetric and tensor identities", ok)


def test_criterion_8h_negative_containments(capsys):
    ok = True
    for g in (2, 3):
        for k in (2, 3, 4):
            x = tuple([k - 2] + [0] * (g - 1))
            y = tuple([0, 1] + [0] * (g - 2))
            forbidden = tuple([k] + [0] * (g - 1))
            ok = ok and forbidden not in tensor_decompose(x, y)
    with capsys.disabled():
        report("8h", "forbidden labels absent from tensor products", ok)
