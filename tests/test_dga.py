import gc
import re
import tracemalloc
from fractions import Fraction

import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli, sullivan
from sphomotopy.dga import DGA
from sphomotopy.errors import InternalInconsistency, ValidationFailure
from sphomotopy.free_gca import Element, GeneratorSet, Monomial

from cleared import canonical, integer_image
from quotient_reference import whole_degree_quotient


@pytest.fixture
def sphere_model():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    x = gs.gen("x")
    dga = DGA(gs)
    dga.add_generator("y", 3, None, integer_image(x * x))
    return dga


def test_leibniz_on_product(sphere_model):
    gs = sphere_model.gs
    x, y = gs.gen("x"), gs.gen("y")
    assert sphere_model.apply_d(x * y) == x * x * x


def test_d_zero_on_closed_odd_pair():
    gs = moduli.full_generators(2)
    d = DGA(gs)
    g1, g2 = gs.gen("γ1"), gs.gen("γ2")
    assert d.apply_d(g1 * g2).is_zero()


def test_invariant_model_differential():
    q = moduli.q_polynomials(2)
    gs = GeneratorSet(2)
    gs.add("α", 2)
    gs.add("β", 4)
    gs.add("γ", 6)
    d = DGA(gs)
    # the relation polynomials live on the same even ordinals
    for name, degree, image in (("f1", 3, q.q1), ("f2", 5, q.q2),
                                ("f3", 7, q.q3)):
        d.add_generator(name, degree, None, image)
    assert d.apply_d(gs.gen("f1")) == gs.gen("α") ** 2 + gs.gen("β")
    assert d.check_d_squared() == []


def test_d_squared_violation_detected():
    # d(c) = a*b with d(b) = a^2 gives d(d(c)) = a^3 != 0
    gs = GeneratorSet(0)
    gs.add("a", 2)
    a = gs.gen("a")
    broken = DGA(gs)
    broken.add_generator("b", 3, None, integer_image(a * a))
    b = gs.gen("b")
    # add_generator checks only that d(c) stays in c's block
    broken.add_generator("c", 4, None, integer_image(a * b))
    assert broken.check_d_squared() == ["c"]


def test_sphere_cohomology(sphere_model):
    dims = [sphere_model.cohomology(n).dim for n in range(6)]
    assert dims == [1, 0, 1, 0, 0, 0]


def test_quotient_target_cohomology_is_ring():
    ring = moduli.build_cohomology_algebra(2)
    for n in range(8):
        assert ring.cohomology(n).dim == ring.dim(n)


def _rings():
    yield from (moduli.build_cohomology_algebra(g) for g in (2, 3))
    yield from (moduli.invariant_ring(g) for g in (2, 3, 4, 5))


RING_IDS = ["full-2", "full-3", "inv-2", "inv-3", "inv-4", "inv-5"]


@pytest.mark.parametrize("ring", _rings(), ids=RING_IDS)
def test_quotient_basis_by_weight_splits_transversal(ring):
    """The per-weight blocks of ``_quotient_data``, in sorted weight order,
    are the whole-degree transversal; each block is the weight filter of
    the basis."""
    gs = ring.gs
    top = 6 * gs.weight_len - 3
    for n in range(top + 1):
        by_w, _ = ring._quotient_data(n)
        transversal, _ = whole_degree_quotient(ring, n)
        assert ring.basis_by_weight(n) is by_w
        assert list(by_w) == sorted(by_w), n
        basis = [m for w in by_w for m in by_w[w]]
        assert basis == transversal == ring.basis(n), n
        assert ring.dim(n) == len(basis)
        for w, block in by_w.items():
            assert block == [m for m in basis if gs.weight(m) == w], (n, w)
            assert ring.basis(n, w) == block


@pytest.mark.parametrize("ring", _rings(), ids=RING_IDS)
def test_quotient_reduce_matches_whole_degree(ring):
    """``reduce`` of every monomial is the reduction read off one
    whole-degree elimination: a transversal monomial stays, a pivot p
    becomes p minus its RREF row."""
    gs = ring.gs
    for n in range(6 * gs.weight_len - 2):
        transversal, rows = whole_degree_quotient(ring, n)
        assert len(transversal) + len(rows) == len(gs.basis(n))
        for m in gs.basis(n):
            row = rows.get(m)
            want = {m: 1} if row is None else \
                {t: -v for t, v in row.items() if t != m}
            assert ring.reduce(gs.element({m: 1})) == gs.element(want), (n, m)


def test_d_matrix_sees_added_generator():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    d = DGA(gs)
    for n in range(6):
        d.d_matrix(n)
    x = gs.gen("x")
    d.add_generator("y", 3, None, integer_image(x * x))
    # a block read before the generator came sees it now: d(y) = x²
    src, dst, mat = d.d_matrix(3)
    assert src == gs.basis(3) and dst == gs.basis(4)
    assert mat.rows == [{0: 1}]


def test_d_matrix_rows_are_the_hit_monomials():
    """d_matrix rows are the target monomials the images hit, in
    first-hit order, and no basis of the target degree is built."""
    gs = GeneratorSet(0)
    for name, degree in (("x", 2), ("y", 3)):
        gs.add(name, degree)
    x, y = gs.gen("x"), gs.gen("y")
    d = DGA(gs)
    d.add_generator("z", 3, None, integer_image(x * x))
    d.add_generator("u", 4, None, integer_image(x * y))
    # the block check of d(z) read the degree-4 basis; d_matrix must not
    del gs._bases[4]
    src, dst, mat = d.d_matrix(3)
    assert src == [Monomial((), 0b01), Monomial((), 0b10)]  # y, z
    assert dst == [Monomial(((0, 2),), 0)] and mat.rows == [{1: 1}]
    assert (mat.nrows, mat.ncols, mat.den) == (1, 2, 1)
    assert 4 not in gs._bases


@pytest.mark.parametrize("degree, weight, image", [
    (4, None, lambda x, y: x * x),       # degree 4, not 5
    (3, (1,), lambda x, y: x * x),       # weight (0,), not (1,)
    (4, (0,), lambda x, y: x * y + y),   # one term of degree 3
    (3, None, lambda x, y: x * x + x),   # inhomogeneous: x has degree 2
], ids=["degree", "weight", "mixed", "inhomogeneous"])
def test_add_generator_rejects_an_image_off_its_block(degree, weight, image):
    gs = GeneratorSet(1)
    gs.add("x", 2, (0,))
    gs.add("y", 3, (0,))
    x, y = gs.gen("x"), gs.gen("y")
    dga = DGA(gs)
    with pytest.raises(InternalInconsistency, match=r"d\(v\) leaves the"):
        dga.add_generator("v", degree, weight, integer_image(image(x, y)))
    assert len(gs) == 2  # nothing was adjoined


def test_weight_blocks_sum_to_total():
    gs = moduli.full_generators(2)
    d = DGA(gs)
    for n in range(2, 8):
        total = d.cohomology(n).dim
        by_w = gs.basis_by_weight(n)
        assert sum(d.cohomology(n, w).dim for w in by_w) == total


def test_euler_characteristic_with_boundary_term(sphere_model):
    # alternating sum of dims equals alternating sum of cohomology dims
    # up to the image leaking out of the truncation window
    top = 9
    lhs = rhs = 0
    for n in range(top + 1):
        sign = -1 if n % 2 else 1
        lhs += sign * len(sphere_model.basis(n))
        rhs += sign * sphere_model.cohomology(n).dim
    _, _, up = sphere_model.d_matrix(top)
    boundary = ela.rank(up.rows)
    assert lhs == rhs + (-1 if top % 2 else 1) * boundary


def test_quotient_reduce_multiply():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    h = gs.gen("h")
    ring = DGA(gs, relations=[integer_image(h * h)])
    assert ring.reduce(h * h).is_zero()
    # reduce is a projection onto the transversal, with the ideal as kernel
    assert ring.reduce(ring.reduce(h) * h).is_zero()
    assert ring.reduce(h) == h
    assert [ring.dim(n) for n in range(5)] == [1, 0, 1, 0, 0]


def test_quotient_reduce_across_degrees():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    gs.add("k", 4)
    h, k = gs.gen("h"), gs.gen("k")
    ring = DGA(gs, relations=[integer_image(h * h - k)])
    # the pivots are h² in degree 4 and h·k in degree 6, so h² becomes k
    # and h·k becomes h³; the second call reuses the cached index
    x = h + h * h + h * k
    assert ring.reduce(x) == h + k + h * h * h
    assert ring.reduce(x) == h + k + h * h * h
    assert ring.reduce(h * h * h - h * k).is_zero()


def test_mixed_weight_relation_rejected():
    gs = moduli.full_generators(2)
    mixed = gs.gen("γ1") + gs.gen("γ2")  # degree 3, weights L1 and L2
    with pytest.raises(ValidationFailure,
                       match="^relation 1: element is not weight-homogeneous$"):
        DGA(gs, relations=[integer_image(gs.gen("α") * gs.gen("α")),
                           integer_image(mixed)])


@pytest.mark.parametrize("mixed, degrees", [
    (lambda a, b, g1: a * a * a + b, "[4, 6]"),  # weight 0 both
    (lambda a, b, g1: g1 + g1 * a, "[3, 5]"),  # weight L1 both
    (lambda a, b, g1: g1 + a * a, "[3, 4]"),  # the weights differ too
], ids=["even", "odd", "weight-too"])
def test_mixed_degree_relation_rejected(mixed, degrees):
    gs = moduli.full_generators(2)
    x = mixed(gs.gen("α"), gs.gen("β"), gs.gen("γ1"))
    with pytest.raises(ValidationFailure, match=re.escape(
            f"relation 1: inhomogeneous element: degrees {degrees}")):
        DGA(gs, relations=[integer_image(gs.gen("β")), integer_image(x)])


def test_coboundary_coordinates_read_off_free_columns():
    """b = Σ_k b[f_k]·z_k for every coboundary b, where z_k is the
    canonical kernel vector of d(n) with free column f_k."""
    dga = sullivan.build(moduli.build_cohomology_algebra(2), 8).dga
    checked = 0
    for n in range(9):
        for w in sorted(dga.gs.basis_by_weight(n)):
            blk = dga.cohomology(n, w)
            src, dst, up = dga.d_matrix(n, w)
            columns = [{} for _ in src]
            for i, row in enumerate(up.rows):
                for j, v in row.items():
                    columns[j][i] = v
            z_vecs = [canonical(z) for z in ela.kernel_basis(columns, len(dst))]
            free = [max(i for i, v in z.items() if v) for z in z_vecs]
            assert all(z[f] == 1 for f, z in zip(free, z_vecs))
            for b, coords in zip(blk.coboundary_vectors, blk.coordinates):
                vec = [0] * len(src)
                for i, c in b.items():
                    vec[i] = c
                assert coords == {k: vec[f] for k, f in enumerate(free) if vec[f]}
                recon = [sum(vec[f] * z.get(i, 0) for f, z in zip(free, z_vecs))
                         for i in range(len(src))]
                assert recon == vec
                checked += 1
    assert checked > 50


def test_coboundaries_from_recorded_pivot_columns():
    """Each coboundary vector is d of a degree-(n-1) source at a pivot
    column recorded by the d(n-1) elimination. With the record cleared,
    the pivots come from an elimination on the spot, which gives the same
    coboundaries, representatives and positions."""
    dga = sullivan.build(moduli.build_cohomology_algebra(2), 8).dga
    reused = empty = 0
    for n in range(10):
        for w in sorted(dga.gs.basis_by_weight(n)):
            low = dga.basis(n - 1, w) if n > 0 else []
            record = dga._d_pivots.get((n - 1, w))
            blk = dga.cohomology(n, w)
            if not low:
                assert blk.coboundary_vectors == []
                empty += 1
                continue
            assert record[0] == len(low), (n, w)
            index = {m: i for i, m in enumerate(blk.monomials)}
            assert blk.coboundary_vectors == [
                {index[m]: c for m, c in dga._d_int(low[p])[1].items()}
                for p in record[1]], (n, w)
            reused += 1
            del dga._d_pivots[n - 1, w]
            ref = dga.cohomology(n, w)
            assert (n - 1, w) not in dga._d_pivots  # nothing kept
            dga._d_pivots[n - 1, w] = record
            assert blk.coboundary_vectors == ref.coboundary_vectors, (n, w)
            assert blk.positions == ref.positions, (n, w)
            assert blk.representative_vectors == ref.representative_vectors, (n, w)
    assert reused > 30 and empty > 0


def test_d_int_once_per_d_block_source_and_recorded_pivot(monkeypatch):
    """A model build applies d once to each source of the d blocks it
    assembles and once to each pivot source its coboundaries come from,
    and never assembles d of a whole lower block for them."""
    target = moduli.build_cohomology_algebra(3)
    seen = {"d_int": 0, "d_matrix": 0, "cohomology": 0, "sources": 0,
            "pivots": 0, "columns": 0}
    d_int, d_matrix, cohomology = DGA._d_int, DGA.d_matrix, DGA.cohomology

    def counted_d_int(self, m):
        seen["d_int"] += 1
        return d_int(self, m)

    def counted_d_matrix(self, n, weight=None):
        out = d_matrix(self, n, weight)
        seen["d_matrix"] += 1
        seen["sources"] += len(out[0])
        return out

    def counted_cohomology(self, n, weight=None):
        blk = cohomology(self, n, weight)
        seen["cohomology"] += 1
        seen["pivots"] += len(blk.coboundary_vectors)
        seen["columns"] += len(self.basis(n - 1, weight)) if n > 0 else 0
        return blk

    monkeypatch.setattr(DGA, "_d_int", counted_d_int)
    monkeypatch.setattr(DGA, "d_matrix", counted_d_matrix)
    monkeypatch.setattr(DGA, "cohomology", counted_cohomology)
    sullivan.build(target, 9)
    # every pivot set was on record: no d block was assembled twice
    assert seen["d_matrix"] == seen["cohomology"] > 0
    assert seen["d_int"] == seen["sources"] + seen["pivots"]
    # d of every lower column would be more
    assert seen["columns"] > seen["pivots"] > 0


def test_pivot_record_of_a_grown_source_is_not_used():
    """A generator that adds a source monomial to d(4) leaves its recorded
    pivot columns stale: H^5 comes out as if nothing had been recorded."""
    def algebra(record_first):
        gs = GeneratorSet(0)
        gs.add("x", 2)
        x = gs.gen("x")
        dga = DGA(gs)
        dga.add_generator("y", 3, None, integer_image(x * x))
        dga.add_generator("z", 3, None, integer_image(gs.zero()))
        z = gs.gen("z")
        if record_first:
            dga.cohomology(4)  # records d(4) on the source [x²]
        dga.add_generator("v", 4, None, integer_image(x * z))
        return dga

    grown, ref = algebra(True).cohomology(5), algebra(False).cohomology(5)
    assert grown.dim == ref.dim == 0  # d(v) = x·z, and x·y is not closed
    assert grown.coboundary_vectors == ref.coboundary_vectors == [{1: 1}]


def test_coboundary_outside_cocycles_detected():
    # d(b) = a² and d(c) = a·b + e give d(d(c)) = a³, so the coboundary
    # a·b + e of degree 5 is not a cocycle; it still has the nonzero
    # coordinate 1 on the cocycle e, so only the explicit check sees it
    gs = GeneratorSet(0)
    gs.add("a", 2)
    a = gs.gen("a")
    broken = DGA(gs)
    broken.add_generator("b", 3, None, integer_image(a * a))
    broken.add_generator("e", 5, None, integer_image(gs.zero()))
    b, e = gs.gen("b"), gs.gen("e")
    # add_generator checks only that d(c) stays in c's block
    broken.add_generator("c", 4, None, integer_image(a * b + e))
    assert broken.check_d_squared() == ["c"]
    with pytest.raises(InternalInconsistency):
        broken.cohomology(5)


def test_stage_computes_only_next_degree_cohomology(monkeypatch):
    """Stage n reads its C part off stage n-1, so it computes cohomology in
    degree n+1 only."""
    calls = []
    current = []
    cohomology = DGA.cohomology
    extend_stage = sullivan.MinimalModel.extend_stage

    def traced_cohomology(self, n, weight=None):
        calls.append((current[-1], n))
        return cohomology(self, n, weight)

    def traced_extend_stage(self, n):
        current.append(n)
        return extend_stage(self, n)

    monkeypatch.setattr(DGA, "cohomology", traced_cohomology)
    monkeypatch.setattr(sullivan.MinimalModel, "extend_stage",
                        traced_extend_stage)
    sullivan.build(moduli.build_cohomology_algebra(2), 8)
    # the empty model has no degree-3 monomials, so stage 2 computes none
    assert {stage for stage, _ in calls} == set(range(3, 9))
    assert all(n == stage + 1 for stage, n in calls)


def test_build_enumerates_no_basis_above_max_degree_plus_one():
    """The top stage's d(D+1) blocks are assembled over the monomials they
    hit: the free basis of degree D+2 is never built."""
    for genus, top in ((2, 8), (3, 7)):
        gs = sullivan.build(moduli.build_cohomology_algebra(genus), top).dga.gs
        assert top + 1 in gs._bases and top + 2 not in gs._bases


def _reference_d(dga, m):
    """d(m) by Element arithmetic: even factors first (no sign), then the
    odd factors in order, each with the sign of the odd factors before it."""
    gs = dga.gs
    out = gs.zero()
    for k, (o, e) in enumerate(m.even):
        rest_even = m.even[:k] + (((o, e - 1),) if e > 1 else ()) + m.even[k + 1:]
        rest = Element(gs, {Monomial(rest_even, m.odd): Fraction(e)})
        out = out + dga.d_monomial(gs.monomial_of(gs.even[o])) * rest
    passed = 0
    for o in range(m.odd.bit_length()):
        low = 1 << o
        if not m.odd & low:
            continue
        before = Element(gs, {Monomial(m.even, m.odd & (low - 1)): Fraction(1)})
        after = Element(gs, {Monomial((), m.odd & ~(2 * low - 1)): Fraction(1)})
        term = before * dga.d_monomial(gs.monomial_of(gs.odd[o])) * after
        out = out + (-term if passed % 2 else term)
        passed += 1
    return out


def test_assembling_d_keeps_nothing():
    """d(m) is assembled on each call and nothing of it stays behind: d of
    about 2,000 products of two generators, each dropped once made, leaves
    the traced memory where it was."""
    dga = sullivan.build(moduli.build_cohomology_algebra(3), 8).dga
    gs = dga.gs
    gens = [gs.monomial_of(g) for g in gs.gens]
    monos = [p for i, a in enumerate(gens) for b in gens[i:]
             for s, p in (gs.mul_monomials(a, b),) if s]
    assert len(monos) > 2000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in monos:
            dga.d_monomial(m)
        gc.collect()  # empties the interpreter's free lists of tuples, dicts
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 50_000


# genus 2 has N generators with fractional differentials by degree 10;
# genus 3 has none by degree 8
@pytest.mark.parametrize("genus, top, fractions", [(2, 10, True), (3, 8, False)])
def test_integer_d_matrix_matches_element_reference(genus, top, fractions):
    """Every (degree, weight) block of the integer-assembled differential
    equals the one built from Element products, entry by entry."""
    dga = sullivan.build(moduli.build_cohomology_algebra(genus), top).dga
    blocks = fractional = 0
    for n in range(top + 1):
        for w in sorted(dga.gs.basis_by_weight(n)):
            src, dst, mat = dga.d_matrix(n, w)
            assert (mat.nrows, mat.ncols) == (len(dst), len(src))
            index = {m: i for i, m in enumerate(dst)}
            want = [{} for _ in dst]
            for j, m in enumerate(src):
                for mm, c in _reference_d(dga, m).terms.items():
                    want[index[mm]][j] = c
            # integer rows of den·d, columns increasing, none of them zero
            assert all(type(v) is int for row in mat.rows for v in row.values())
            assert all(row and list(row) == sorted(row) for row in mat.rows)
            got = [{j: Fraction(v, mat.den) for j, v in row.items()}
                   for row in mat.rows]
            assert got == want, (n, w)
            blocks += 1
            fractional += any(v.denominator > 1
                              for row in got for v in row.values())
    assert blocks > 50
    assert bool(fractional) == fractions
