"""Reference for the relation subspace: the primitive parts read off by
filtering whole free-algebra bases, which ``moduli`` replaced by a direct
enumeration of the odd products."""

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


def relation_subspace_E(g):
    """The relation subspace in the order ``moduli.relation_subspace_E``
    documents, from the reference primitive parts."""
    gs = moduli.full_generators(g)
    qg = moduli.q_polynomials(g)
    out = [moduli.expand_invariant(qg.q1, gs, g),
           moduli.expand_invariant(qg.q2, gs, g)]
    for k in range(1, g):
        lead = moduli.expand_invariant(moduli.q_polynomials(g - k).q1, gs, g)
        out.extend(lead * Element(gs, dict(p.terms)) for p in primitive_basis(g, k))
    out.extend(Element(gs, dict(p.terms)) for p in primitive_basis(g, g))
    return out
