"""Reference for the relation subspace, in ``Element`` arithmetic: the
primitive parts as the kernel of ω^{g-k+1}·(-) on the k-fold odd products,
read off by filtering whole free-algebra bases, and the invariant
polynomials expanded by ``Element`` products, with ω = Σ γ_i γ_{i+g} and
γ = -2ω written as ``Element``s. ``moduli`` takes the kernel of the
contraction on the odd products, enumerated directly, and builds the
relations in integers."""

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli
from sphomotopy.dga import as_element
from sphomotopy.free_gca import Element

from cleared import canonical, cleared_matrix


def symplectic_form_element(gs, g):
    """ω = Σ γ_i γ_{i+g}, the invariant 2-form in the odd classes."""
    out = gs.zero()
    for i in range(1, g + 1):
        out = out + gs.gen(f"γ{i}") * gs.gen(f"γ{i + g}")
    return out


def gamma_expansion(gs, g):
    """γ written in the odd classes: -2 Σ γ_i γ_{i+g}."""
    return (-2) * symplectic_form_element(gs, g)


def q_elements(g):
    """The relation triple of ``moduli.q_polynomials(g)`` as ``Element``s
    over ``moduli.invariant_generators(g)``."""
    gs = moduli.invariant_generators(g)
    return [as_element(gs, q) for q in moduli.q_polynomials(g)]


def primitive_basis(g, k):
    """Kernel of ω^{g-k+1} on the k-fold odd products, with source and
    target monomials filtered out of ``gs.basis``."""
    gs = moduli.full_generators(g)
    if k == 0:
        return [gs.unit()]
    src = [m for m in gs.basis(3 * k) if m.even == () and m.odd.bit_count() == k]
    power = g - k + 1
    omega_pow = symplectic_form_element(gs, g) ** power
    dst = [m for m in gs.basis(3 * (k + 2 * power))
           if m.even == () and m.odd.bit_count() == k + 2 * power]
    index = {m: i for i, m in enumerate(dst)}
    columns = []
    for m in src:
        prod = omega_pow * gs.element({m: 1})
        columns.append({index[mm]: c for mm, c in prod.terms.items()})
    vecs = ela.kernel_basis(cleared_matrix(columns), len(dst))
    return [Element(gs, {src[i]: v for i, v in canonical(vec).items()})
            for vec in vecs]


def expand_invariant(poly, gs_full, g):
    """α -> α, β -> β, γ -> -2 Σ γ_i γ_{i+g} in an invariant polynomial."""
    alpha, beta = gs_full.gen("α"), gs_full.gen("β")
    gam = gamma_expansion(gs_full, g)
    src = poly.gs
    out = gs_full.zero()
    for m, c in poly.terms.items():
        exps = dict(m.even)
        out = out + gs_full.unit(c) * alpha ** exps.get(src["α"].ordinal, 0) \
            * beta ** exps.get(src["β"].ordinal, 0) \
            * gam ** exps.get(src["γ"].ordinal, 0)
    return out


def relation_subspace_E(g):
    """The relation subspace in the order ``moduli.relation_subspace_E``
    documents, from the reference primitive parts."""
    gs = moduli.full_generators(g)
    q1, q2, _ = q_elements(g)
    out = [expand_invariant(q1, gs, g), expand_invariant(q2, gs, g)]
    for k in range(1, g):
        lead = expand_invariant(q_elements(g - k)[0], gs, g)
        out.extend(lead * Element(gs, dict(p.terms)) for p in primitive_basis(g, k))
    out.extend(Element(gs, dict(p.terms)) for p in primitive_basis(g, g))
    return out
