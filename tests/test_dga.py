import pytest

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli, sullivan
from sphomotopy.dga import DGA
from sphomotopy.errors import InternalInconsistency, ValidationFailure
from sphomotopy.free_gca import GeneratorSet


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
    from sphomotopy.free_gca import Element
    d = DGA(gs, {"f1": Element(gs, dict(q.q1.terms)),
                 "f2": Element(gs, dict(q.q2.terms)),
                 "f3": Element(gs, dict(q.q3.terms))})
    assert d.apply_d(gs.gen("f1")) == gs.gen("α") ** 2 + gs.gen("β")
    assert d.check_d_squared(7) == []


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
    gs.add("c", 4)
    a, b = gs.gen("a"), gs.gen("b")
    broken = DGA(gs, {"b": a * a, "c": a * b}, check=False)
    assert broken.check_d_squared() == ["c"]
    assert broken.check_d_squared(max_degree=3) == []
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


@pytest.mark.parametrize("ring", _rings(),
                         ids=["full-2", "full-3", "inv-2", "inv-3", "inv-4", "inv-5"])
def test_quotient_basis_by_weight_splits_transversal(ring):
    """The per-weight blocks, in sorted weight order, are the transversal of
    ``_quotient_data``; each block is the weight filter of the basis."""
    gs = ring.gs
    top = 6 * gs.weight_len - 3
    for n in range(top + 1):
        monos, transversal, _, _ = ring._quotient_data(n)
        by_w = ring.basis_by_weight(n)
        basis = [m for w in sorted(by_w) for m in by_w[w]]
        assert basis == [monos[i] for i in transversal] == ring.basis(n), n
        assert ring.dim(n) == len(basis)
        for w, block in by_w.items():
            assert block == [m for m in basis if gs.weight(m) == w], (n, w)
            assert ring.basis(n, w) == block


def test_coords_block_rejects_foreign_terms():
    gs = GeneratorSet(0)
    gs.add("h", 2)
    h = gs.gen("h")
    ring = DGA(gs, {}, relations=[h * h * h])
    assert ring.coords_block(h * h, 4, ()) == {0: 1}
    with pytest.raises(InternalInconsistency, match="leaves the"):
        ring.coords_block(h, 4, ())


def test_d_matrix_cache_dropped_where_bases_grow():
    gs = GeneratorSet(0)
    gs.add("x", 2)
    d = DGA(gs, {})
    for n in range(6):
        d.d_matrix(n)
    x = gs.gen("x")
    d.add_generator("y", 3, None, x * x)
    assert sorted(k[0] for k in d._dmat_cache) == [0, 1]
    # the rebuilt block sees the new generator: d(y) = x²
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
    boundary = ela.rank(up)
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
            src, _, up = dga.d_matrix(n, w)
            z_vecs = ela.kernel_basis(up)
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


def test_coboundary_outside_cocycles_detected():
    # d(b) = a² and d(c) = a·b + e give d(d(c)) = a³, so the coboundary
    # a·b + e of degree 5 is not a cocycle; it still has the nonzero
    # coordinate 1 on the cocycle e, so only the explicit check sees it
    gs = GeneratorSet(0)
    gs.add("a", 2)
    gs.add("b", 3)
    gs.add("c", 4)
    gs.add("e", 5)
    a, b, e = gs.gen("a"), gs.gen("b"), gs.gen("e")
    broken = DGA(gs, {"b": a * a, "c": a * b + e}, check=False)
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
