from fractions import Fraction

import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli, sullivan
from sphomotopy.dga import DGA
from sphomotopy.errors import InternalInconsistency, ValidationFailure
from sphomotopy.free_gca import Element, GeneratorSet, Monomial

from quotient_reference import whole_degree_quotient


@pytest.fixture
def sphere_model():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    gs.add("y", 3)
    x = gs.gen("x")
    return DGA(gs, {"y": x * x})


def test_leibniz_on_product(sphere_model):
    gs = sphere_model.gs
    x, y = gs.gen("x"), gs.gen("y")
    assert sphere_model.apply_d(x * y) == x * x * x


def test_d_zero_on_closed_odd_pair():
    gs = moduli.full_generators(2)
    d = DGA(gs, {})
    g1, g2 = gs.gen("γ1"), gs.gen("γ2")
    assert d.apply_d(g1 * g2).is_zero()


def test_invariant_model_differential():
    q = moduli.q_polynomials(2)
    gs = GeneratorSet(2)
    gs.add("α", 2)
    gs.add("β", 4)
    gs.add("γ", 6)
    gs.add("f1", 3)
    gs.add("f2", 5)
    gs.add("f3", 7)
    d = DGA(gs, {"f1": Element(gs, dict(q.q1.terms)),
                 "f2": Element(gs, dict(q.q2.terms)),
                 "f3": Element(gs, dict(q.q3.terms))})
    assert d.apply_d(gs.gen("f1")) == gs.gen("α") ** 2 + gs.gen("β")
    assert d.check_d_squared() == []


def test_inhomogeneous_differential_rejected():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    gs.add("y", 3)
    x = gs.gen("x")
    with pytest.raises(ValidationFailure):
        DGA(gs, {"y": x * x + x})


def test_wrong_degree_differential_rejected():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    gs.add("y", 4)
    x = gs.gen("x")
    with pytest.raises(ValidationFailure):
        DGA(gs, {"y": x * x})


def test_d_squared_violation_detected():
    # d(c) = a*b with d(b) = a^2 gives d(d(c)) = a^3 != 0
    gs = GeneratorSet(0)
    gs.add("a", 2)
    gs.add("b", 3)
    a, b = gs.gen("a"), gs.gen("b")
    broken = DGA(gs, {"b": a * a})
    # add_generator checks nothing
    broken.add_generator("c", 4, None, a * b)
    assert broken.check_d_squared() == ["c"]
    # construction-time rejection of the same data
    gs2 = GeneratorSet(0)
    gs2.add("a", 2)
    gs2.add("b", 3)
    gs2.add("c", 4)
    a2, b2 = gs2.gen("a"), gs2.gen("b")
    with pytest.raises(ValidationFailure):
        DGA(gs2, {"b": a2 * a2, "c": a2 * b2})


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


def test_coords_block_rejects_foreign_terms():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    h = gs.gen("h")
    ring = DGA(gs, {}, relations=[h * h * h])
    assert ring.coords_block(h * h, 4, ()) == {0: 1}
    with pytest.raises(InternalInconsistency, match="leaves the"):
        ring.coords_block(h, 4, ())


def test_d_matrix_sees_added_generator():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    d = DGA(gs, {})
    for n in range(6):
        d.d_matrix(n)
    x = gs.gen("x")
    d.add_generator("y", 3, None, x * x)
    # a block read before the generator came sees it now: d(y) = x²
    src, dst, mat = d.d_matrix(3)
    assert src == gs.basis(3) and dst == gs.basis(4)
    assert mat.rows == [{0: 1}]


def test_weight_blocks_sum_to_total():
    gs = moduli.full_generators(2)
    d = DGA(gs, {})
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
    ring = DGA(gs, {}, relations=[h * h])
    assert ring.reduce(h * h).is_zero()
    assert ring.multiply(h, h).is_zero()
    assert ring.reduce(h) == h
    assert [ring.dim(n) for n in range(5)] == [1, 0, 1, 0, 0]


def test_quotient_reduce_across_degrees():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    gs.add("k", 4)
    h, k = gs.gen("h"), gs.gen("k")
    ring = DGA(gs, {}, relations=[h * h - k])
    # the pivots are h² in degree 4 and h·k in degree 6, so h² becomes k
    # and h·k becomes h³; the second call reuses the cached index
    x = h + h * h + h * k
    assert ring.reduce(x) == h + k + h * h * h
    assert ring.reduce(x) == h + k + h * h * h
    assert ring.reduce(h * h * h - h * k).is_zero()


def test_mixed_weight_relation_rejected():
    gs = moduli.full_generators(2)
    mixed = gs.gen("γ1") + gs.gen("γ2")  # degree 3, weights L1 and L2
    with pytest.raises(ValidationFailure, match="^relation 1: "):
        DGA(gs, {}, relations=[gs.gen("α") * gs.gen("α"), mixed])


def test_coboundary_coordinates_read_off_free_columns():
    """b = Σ_k b[f_k]·z_k for every coboundary b, where z_k is the
    canonical kernel vector of d(n) with free column f_k."""
    dga = sullivan.build(sullivan.moduli_target(2), 8).dga
    checked = 0
    for n in range(9):
        for w in sorted(dga.gs.basis_by_weight(n)):
            blk = dga.cohomology(n, w)
            src, dst, up = dga.d_matrix(n, w)
            columns = [{} for _ in src]
            for i, row in enumerate(up.rows):
                for j, v in row.items():
                    columns[j][i] = v
            z_vecs = ela.kernel_basis(columns, len(dst))
            free = [max(i for i, v in z.items() if v) for z in z_vecs]
            assert all(z[f] == 1 for f, z in zip(free, z_vecs))
            index = {m: i for i, m in enumerate(src)}
            for b, coords in zip(blk.coboundaries, blk.coordinates):
                vec = [0] * len(src)
                for m, c in b.terms.items():
                    vec[index[m]] = c
                assert coords == {k: vec[f] for k, f in enumerate(free) if vec[f]}
                recon = [sum(vec[f] * z.get(i, 0) for f, z in zip(free, z_vecs))
                         for i in range(len(src))]
                assert recon == vec
                checked += 1
    assert checked > 50


def test_coboundaries_from_recorded_pivot_columns():
    """A block whose d(n-1) elimination is on record takes its coboundaries
    from the pivot columns; recomputing it with the record cleared, by
    eliminating the image, gives the same representatives, the same
    positions and the same span of coboundaries."""
    dga = sullivan.build(sullivan.moduli_target(2), 8).dga
    reused = fallback = 0
    for n in range(10):
        for w in sorted(dga.gs.basis_by_weight(n)):
            record = dga._d_pivots.get((n - 1, w))
            blk = dga.cohomology(n, w)
            if record is None or record[0] != len(dga.basis(n - 1, w)):
                fallback += 1
                continue
            reused += 1
            del dga._d_pivots[n - 1, w]
            ref = dga.cohomology(n, w)
            dga._d_pivots[n - 1, w] = record
            assert blk.positions == ref.positions, (n, w)
            assert blk.representative_vectors == ref.representative_vectors, (n, w)
            # one span has one RREF, and each set is independent
            span = ela._echelon_rows(ela._int_rows(blk.coboundary_vectors))
            assert span == ela._echelon_rows(ela._int_rows(ref.coboundary_vectors))
            assert len(span[0]) == len(blk.coboundary_vectors) \
                == len(ref.coboundary_vectors)
    assert reused > 30 and fallback > 0


def test_pivot_record_of_a_grown_source_is_not_used():
    """A generator that adds a source monomial to d(4) leaves its recorded
    pivot columns stale: H^5 comes out as if nothing had been recorded."""
    def algebra(record_first):
        gs = GeneratorSet(0)
        for name, degree in (("x", 2), ("y", 3), ("z", 3)):
            gs.add(name, degree)
        x, z = gs.gen("x"), gs.gen("z")
        dga = DGA(gs, {"y": x * x})
        if record_first:
            dga.cohomology(4)  # records d(4) on the source [x²]
        dga.add_generator("v", 4, None, x * z)
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
    gs.add("b", 3)
    gs.add("e", 5)
    a, b, e = gs.gen("a"), gs.gen("b"), gs.gen("e")
    broken = DGA(gs, {"b": a * a})
    # add_generator checks nothing
    broken.add_generator("c", 4, None, a * b + e)
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
    sullivan.build(sullivan.moduli_target(2), 8)
    # the empty model has no degree-3 monomials, so stage 2 computes none
    assert {stage for stage, _ in calls} == set(range(3, 9))
    assert all(n == stage + 1 for stage, n in calls)


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


# genus 2 has N generators with fractional differentials by degree 10;
# genus 3 has none by degree 8
@pytest.mark.parametrize("genus, top, fractions", [(2, 10, True), (3, 8, False)])
def test_integer_d_matrix_matches_element_reference(genus, top, fractions):
    """Every (degree, weight) block of the integer-assembled differential
    equals the one built from Element products, entry by entry."""
    dga = sullivan.build(sullivan.moduli_target(genus), top).dga
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
            got = [{j: Fraction(v) for j, v in row.items()} for row in mat.rows]
            assert got == want, (n, w)
            blocks += 1
            fractional += any(Fraction(v).denominator > 1
                              for row in mat.rows for v in row.values())
    assert blocks > 50
    assert bool(fractional) == fractions
