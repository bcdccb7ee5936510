import pytest

from sphomotopy import moduli
from sphomotopy.dga import DGA
from sphomotopy.errors import ValidationFailure
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
    ring = moduli.build_cohomology_algebra(2).dga
    for n in range(8):
        assert ring.cohomology(n).dim == ring.dim(n)


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
    from sphomotopy import exact_linalg as ela
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
