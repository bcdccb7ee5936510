"""Reference for the relation subspace, in ``Element`` arithmetic: the
primitive parts as the kernel of ω^{g-k+1}·(-) on the k-fold odd products,
read off by filtering whole free-algebra bases, and the invariant
polynomials expanded by ``Element`` products. ``moduli`` takes the kernel
of the contraction on the odd products, enumerated directly, and builds
the relations in integers."""

from sphomotopy import exact_linalg as ela
from sphomotopy import moduli
from sphomotopy.free_gca import Element

from cleared import canonical, cleared_matrix


def primitive_basis(g, k):
    """Kernel of ω^{g-k+1} on the k-fold odd products, with source and
    target monomials filtered out of ``gs.basis``."""
    gs = moduli.full_generators(g)
    if k == 0:
        return [gs.unit()]
    src = [m for m in gs.basis(3 * k) if m.even == () and m.odd.bit_count() == k]
    power = g - k + 1
    omega_pow = moduli.symplectic_form_element(gs, g) ** power
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
    gam = moduli.gamma_expansion(gs_full, g)
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
    qg = moduli.q_polynomials(g)
    out = [expand_invariant(qg.q1, gs, g), expand_invariant(qg.q2, gs, g)]
    for k in range(1, g):
        lead = expand_invariant(moduli.q_polynomials(g - k).q1, gs, g)
        out.extend(lead * Element(gs, dict(p.terms)) for p in primitive_basis(g, k))
    out.extend(Element(gs, dict(p.terms)) for p in primitive_basis(g, g))
    return out
