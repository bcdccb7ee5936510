"""Degreewise minimal model construction for zero-differential targets.

The target is a quotient ring (``DGA`` with relations), used as it
stands: the model reads the ring's per-weight bases and reduces in it
directly. The ring must be 1-connected: A^0 is the ground field and
A^1 = 0.

The target's differential is zero, so the structure map ρ sends each
generator to one basis monomial of the ring (C part) or to 0 (N part),
and the ρ* matrix of a cohomology block is read off its representative
vectors with one reduced monomial product per source monomial.

Stage n adjoins two kinds of generators to the free model built so far:

* C-part: a canonical complement of the image of the induced map on
  degree-n cohomology, one generator per missed target basis element,
  with zero differential and the basis element as structure-map image;
* N-part: the kernel of the induced map on degree-(n+1) cohomology, one
  generator per canonical kernel vector, whose differential is the
  canonical cocycle representative of that kernel class and whose
  structure-map image is zero (the target differential vanishes, so there
  is nothing to correct).

Only the N part computes cohomology. The model has no degree-1
generators, so the degree-n generators leave the degree-(n+1) cochains
and cocycles unchanged and only add their differentials to the
coboundaries; the structure map kills coboundaries, so the image of the
induced map on the next stage's H^{n+1} is the image the N pass just
computed. Stage n therefore stores the complement of that image, and
stage n+1 reads its C part from it. Injectivity on the next stage's
H^{n+1} is certified in the N pass by a rank: the new differentials are
independent modulo the coboundaries.

The postconditions on the new generators are checked once per weight
block, against the inputs rather than the elimination: the assembled
d(n+1) block times the new differentials is zero (d²=0), the ρ* matrix
of the block times each kernel vector is zero (ρ∘d=0), and the new
differentials vanish at the block's monomials of word length < 2
(minimality).

All splittings are the echelon-canonical complements from
``exact_linalg``, computed one torus-weight block at a time. Blockwise
computation keeps every choice weight-pure, so the generator weights of
each stage form the character of the corresponding symplectic module and
the stage decompositions are choice-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import exact_linalg as ela
from . import moduli, sp_characters
from .dga import _ZERO, DGA, as_element, element_sum, image_sum
from .errors import (InternalInconsistency, TargetNotOneConnected,
                     ValidationFailure)
from .free_gca import (ONE, Element, GeneratorSet, Monomial, _bits,
                       configured_budget, render_terms)


def _combination(coeffs: dict, vectors) -> dict:
    """Σ c·vectors[j] over the items (j, c) of ``coeffs``, of sparse
    vectors ``{index: value}``, without zero entries."""
    out: dict = {}
    for j, c in coeffs.items():
        for i, v in vectors[j].items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


@dataclass(slots=True)
class StageGenerator:
    """One generator of a stage. ``d_int`` is the model DGA's own integer
    image ``(den, {monomial: int})`` of d(v), and ``rho`` the target
    monomial ρ(v), or None when ρ(v) = 0; ``d_image`` and ``rho_image``
    are ``Element`` views of them, built on access."""

    name: str
    degree: int
    weight: tuple
    part: str  # 'C' or 'N'
    d_int: tuple
    rho: Monomial | None
    gs: GeneratorSet = field(repr=False)
    target_gs: GeneratorSet = field(repr=False)

    @property
    def d_image(self) -> Element:
        return as_element(self.gs, self.d_int)

    @property
    def rho_image(self) -> Element:
        return self.target_gs.element({} if self.rho is None else {self.rho: 1})


@dataclass
class MinimalModelStage:
    degree: int
    generators: list

    @property
    def dim(self) -> int:
        return len(self.generators)

    def character(self) -> dict:
        char: dict = {}
        for g in self.generators:
            char[g.weight] = char.get(g.weight, 0) + 1
        return char

    def irreps(self) -> dict:
        return sp_characters.decompose(self.character())


class MinimalModel:
    def __init__(self, target: DGA, budget: int | None = None):
        if not target.is_quotient():
            raise ValidationFailure("the target must be a quotient ring")
        if target.basis(0) != [ONE]:
            raise TargetNotOneConnected("degree-0 part is not the ground field")
        if target.dim(1) != 0:
            raise TargetNotOneConnected("degree-1 part is nonzero")
        self.target = target
        self.budget = budget if budget is not None else configured_budget()
        self.dga = DGA(GeneratorSet(target.gs.weight_len))
        self.stages: list[MinimalModelStage] = []
        # generator index -> its target monomial; absent when ρ(g) = 0
        self.rho: dict[int, Monomial] = {}
        # the generators with ρ(g) != 0: a mask of odd ordinals and a set
        # of even ordinals, so a monomial with any other factor maps to 0
        # before any product
        self._rho_odd = 0
        self._rho_even: set = set()
        # (n, {weight: complement positions in A^n_w}) for the next stage;
        # H^2 of the empty model is 0
        self._complements: tuple = (2, {})

    # -- structure map -------------------------------------------------------

    def rho_of_monomial(self, m: Monomial):
        """Image of a model monomial in the target, as an integer image
        ``(den, {monomial: int})``: the sign times the reduced form
        (``DGA.reduced_monomial``) of the product of its factors' target
        monomials, taken in the monomial's factor order (even factors,
        then odd ones ascending).

        Reducing once at the end is reducing after every factor, since
        reduction is the projection whose kernel is the ideal. A factor
        that maps to 0, found by the masks of the generators that do not,
        or an odd square in the product, gives 0. Nothing is cached: the
        model loop reads each monomial's image once.
        """
        gs, rho, A = self.dga.gs, self.rho, self.target
        if m.odd & ~self._rho_odd or not self._rho_even.issuperset(
                [o for o, _ in m.even]):
            return _ZERO
        monos = []
        for o, e in m.even:
            monos += [rho[gs.even[o].index]] * e
        monos += [rho[gs.odd[o].index] for o in _bits(m.odd)]
        mul = A.gs.mul_monomials
        sign, prod = 1, ONE
        for mono in monos:
            s, prod = mul(prod, mono)
            if not s:
                return _ZERO
            sign *= s
        den, form = A.reduced_monomial(prod)
        return (den, form) if sign > 0 else (den, {t: -v for t, v in form.items()})

    def rho_star(self, x: Element) -> Element:
        """ρ(x) as an ``Element``: the view of the integer sum of the
        reduced images of its terms, which is reduced too."""
        return element_sum(self.target.gs, x, self.rho_of_monomial)

    # -- construction ----------------------------------------------------------

    def _rho_columns(self, blk, a_block) -> list:
        """The ρ* matrix of a cohomology block: for each representative
        vector over ``blk.monomials``, its image as a sparse integer vector
        over the positions of ``a_block``, the target's basis in the
        block's (degree, weight). The representatives share positions, so
        each position's image is computed once; the integer images are
        rescaled to the lcm of their dens, which scales the whole matrix."""
        index = {m: i for i, m in enumerate(a_block)}
        src, reps = blk.monomials, blk.representative_vectors
        images = {j: self.rho_of_monomial(src[j])
                  for j in {j for rep in reps for j in rep}}
        if any(not terms.keys() <= index.keys() for _, terms in images.values()):
            raise InternalInconsistency(
                f"target element leaves the ({blk.degree}, {blk.weight}) block")
        den = lcm(*(d for d, _ in images.values()))
        for j, (d, terms) in images.items():
            images[j] = {index[t]: v * (den // d) for t, v in terms.items()}
        return [_combination(rep, images) for rep in reps]

    def _register(self, stage_gens, name, degree, weight, part, d_image,
                  rho_mono):
        """Adjoin one generator with d(g) the integer image ``d_image``
        ``(den, {monomial: int})`` and ρ(g) the target monomial
        ``rho_mono``, or 0 if it is None. ``DGA.add_generator`` checks that
        d(g) stays in the generator's block; the other postconditions are
        the caller's: block identities in ``extend_stage``, direct checks
        in ``invariant_model``."""
        g = self.dga.add_generator(name, degree, weight, d_image)
        if rho_mono is not None:
            self.rho[g.index] = rho_mono
            if g.is_odd:
                self._rho_odd |= 1 << g.ordinal
            else:
                self._rho_even.add(g.ordinal)
        stage_gens.append(StageGenerator(name, degree, g.weight, part, d_image,
                                         rho_mono, self.dga.gs, self.target.gs))

    def extend_stage(self, n: int) -> MinimalModelStage:
        """Compute and adjoin the degree-n generators.

        Requires all earlier stages, built by this method: the C part is
        the complement stored by stage n-1. Performs the stagewise
        consistency checks (injectivity of the induced map on the next
        stage's H^{n+1}, weight preservation) as it goes.
        """
        if n < 2:
            raise ValueError("stages start at degree 2")
        if self.stages and self.stages[-1].degree != n - 1:
            raise ValueError("stages must be built consecutively")
        if not self.stages and n != 2:
            raise ValueError("first stage is degree 2")
        gs = self.dga.gs
        gs.check_budget((n, n + 1, n + 2), self.budget)
        A = self.target
        stage_gens: list[StageGenerator] = []
        counters: dict = {}

        def fresh_name(w):
            k = counters.get(w, 0)
            counters[w] = k + 1
            return f"v{n}_" + ",".join(str(c) for c in w) + f"_{k}"

        # C part: complement of the induced image in target degree n, as
        # the previous stage's N pass found it
        degree, complements = self._complements
        if degree != n:
            raise ValueError(f"stage {n - 1} was not built by extend_stage")
        c_plan = []
        for w, a_basis in sorted(A.basis_by_weight(n).items()):
            for pos in complements.get(w, range(len(a_basis))):
                c_plan.append((w, a_basis[pos]))

        # N part: kernel of the induced map on degree-(n+1) cohomology. Its
        # image is also the image on the next stage's H^{n+1}: the degree-n
        # generators leave Z^{n+1} alone and ρ* kills coboundaries.
        n_plan = []
        complements = {}
        a_next = A.basis_by_weight(n + 1)
        for w in sorted(gs.basis_by_weight(n + 1)):
            blk = self.dga.cohomology(n + 1, w)
            if blk.dim == 0:
                continue
            a_block = a_next.get(w, [])
            cols = self._rho_columns(blk, a_block)
            a_dim = len(a_block)
            complements[w] = ela.cokernel_complement_indices(cols, a_dim)
            kernel = ela.kernel_basis(cols, a_dim)
            # injectivity on the next stage's H^{n+1}: rank ρ* = dim H - #N
            # (the complement and the kernel come from two eliminations),
            # and the new d(v) are independent modulo B, so the next stage's
            # H^{n+1} has dimension dim H - #N as well
            if a_dim - len(complements[w]) != blk.dim - len(kernel):
                raise InternalInconsistency(
                    f"image and kernel ranks disagree on H^{n + 1} at weight {w}")
            if kernel:
                rows = blk.coordinates + [
                    {blk.positions[j]: c for j, c in kv.items()}
                    for kv in kernel]
                if ela.rank(rows) != len(rows):
                    raise InternalInconsistency(
                        f"induced map not injective on H^{n + 1} at weight {w}")
                n_plan.extend(self._kernel_part(blk, cols, kernel))

        # register after all cohomology in the old algebra is computed
        for w, mono in c_plan:
            self._register(stage_gens, fresh_name(w), n, w, "C", _ZERO, mono)
        for w, d_img in n_plan:
            self._register(stage_gens, fresh_name(w), n, w, "N", d_img, None)
        stage = MinimalModelStage(n, stage_gens)
        self.stages.append(stage)
        self._complements = (n + 1, complements)
        return stage

    def _kernel_part(self, blk, rho_cols, kernel) -> list:
        """The N generators' differentials for one block of H^{n+1}, as
        ``(weight, (den, {monomial: int}))`` pairs, after the postconditions
        are checked for the whole block against its inputs:

        * ρ∘d = 0: the ρ* matrix ``rho_cols`` (one target vector per
          representative) kills every kernel vector;
        * minimality: no d(v) has an entry at a position of
          ``blk.monomials`` of word length < 2;
        * d²=0: the rows of the d(n+1) block that the cocycles were
          computed from (``blk.d_rows``) kill every d(v), one integer
          product.

        Each d(v) is the primitive form of Σ kv·rep, a positive multiple of
        the canonical d(v), which is 1 at its last position: den times it,
        den that last entry.
        """
        if any(_combination(kv, rho_cols) for kv in kernel):
            raise InternalInconsistency(
                f"structure map fails to kill a differential at weight {blk.weight}")
        reps = blk.representative_vectors
        vecs = [ela._strip(*ela._row(_combination(kv, reps).items())) for kv in kernel]
        src = blk.monomials
        gs = self.dga.gs
        low = {i for i, m in enumerate(src) if gs.word_length(m) < 2}
        if low and any(not low.isdisjoint(cols) for cols, _ in vecs):
            raise InternalInconsistency(
                f"a new differential has a word-length-1 term at weight {blk.weight}")
        if not ela._kills(blk.d_rows, vecs):
            raise InternalInconsistency(
                f"d(d(v)) != 0 for a new generator at weight {blk.weight}")
        return [(blk.weight, (nums[-1], {src[i]: c for i, c in zip(cols, nums)}))
                for cols, nums in vecs]

    # -- reports ---------------------------------------------------------------

    def stage(self, n: int) -> MinimalModelStage:
        """The degree-n stage; stages are built from degree 2 on."""
        if not 2 <= n < 2 + len(self.stages):
            built = (f"degrees 2..{self.stages[-1].degree}" if self.stages
                     else "no degrees")
            raise ValueError(f"no stage of degree {n}: built {built}")
        return self.stages[n - 2]

    def dims(self) -> dict:
        return {s.degree: s.dim for s in self.stages}

    def verify_quasi_iso(self, up_to: int) -> "QuasiIsoReport":
        """Recompute cohomology of the built model and the induced map,
        degree by degree: isomorphism through ``up_to``, injectivity one
        degree above."""
        entries = []
        A = self.target
        for i in range(0, up_to + 2):
            weights = set(self.dga.gs.basis_by_weight(i)) | \
                set(A.basis_by_weight(i))
            dim_h = dim_a = 0
            injective = surjective = True
            for w in sorted(weights):
                blk = self.dga.cohomology(i, w)
                a_block = A.basis_by_weight(i).get(w, [])
                vecs = self._rho_columns(blk, a_block)
                a_dim = len(a_block)
                rk = ela.rank(vecs) if vecs else 0
                dim_h += blk.dim
                dim_a += a_dim
                injective &= rk == blk.dim
                surjective &= rk == a_dim
            mode = "iso" if i <= up_to else "inj"
            ok = injective and (surjective or mode == "inj")
            entries.append({"degree": i, "dim_model": dim_h, "dim_target": dim_a,
                            "injective": injective, "surjective": surjective,
                            "required": mode, "ok": ok})
        return QuasiIsoReport(entries)

    def check_minimality(self) -> list:
        """Generators whose differential has a word-length-1 term."""
        word_length = self.dga.gs.word_length
        return [g.name for s in self.stages for g in s.generators
                if any(word_length(m) < 2 for m in g.d_int[1])]

    def json_stages(self) -> list:
        """Per stage, its header ``{degree, dim, irreps}`` and a lazy
        iterator of its generators as plain data, each image rendered from
        its integer form. Every stage is decomposed before this returns, so
        a stage whose weights form no character raises before anything is
        rendered."""
        gs, tgs = self.dga.gs, self.target.gs

        def head(s):
            irreps = sorted(s.irreps().items(), reverse=True)
            return {"degree": s.degree, "dim": s.dim,
                    "irreps": [{"label": list(l), "mult": m} for l, m in irreps]}

        return [(head(s), ({
            "name": g.name,
            "degree": g.degree,
            "weight": list(g.weight),
            "part": g.part,
            "d_image": render_terms(gs, g.d_int[1], g.d_int[0]),
            "rho_image": "0" if g.rho is None else
            render_terms(tgs, {g.rho: 1}, 1),
        } for g in s.generators)) for s in self.stages]

    def to_json_dict(self, genus=None) -> dict:
        """The stages of ``json_stages``, materialized."""
        out = {"stages": [{**head, "generators": list(gens)}
                          for head, gens in self.json_stages()]}
        if genus is not None:
            out["genus"] = genus
        return out


class QuasiIsoReport:
    def __init__(self, entries):
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(e["ok"] for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e["ok"]]

    def __repr__(self):
        status = "ok" if self.ok else f"FAILED at {self.failures()}"
        return f"<QuasiIsoReport through {len(self.entries) - 2}: {status}>"


def build(target: DGA, max_degree: int,
          budget: int | None = None) -> MinimalModel:
    """Run the construction from degree 2 through ``max_degree``."""
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    model = MinimalModel(target, budget)
    for n in range(2, max_degree + 1):
        model.extend_stage(n)
    return model


def invariant_model(g: int, max_degree: int,
                    budget: int | None = None) -> MinimalModel:
    """The finite model of the invariant subring: cocycles α, β, γ plus
    odd classes f1, f2, f3 transgressing to the relation triple.

    The model is written down directly from the relation recursion and
    then verified to be a model: d²=0 by construction and the induced
    cohomology map is checked degreewise through ``max_degree``. For
    genus >= 4 it coincides with the degreewise construction; for genus
    2 and 3 part of the relation triple has linear terms, so this
    presentation is a (non-minimal) finite model exhibiting ellipticity.
    """
    if g < 2:
        # the genus-1 invariant ring is the ground field; its model is
        # trivial and the odd generators below would land in degree 1
        raise ValueError("the finite invariant model needs genus >= 2")
    if max_degree < 2 * g + 3:
        raise ValueError("max_degree must reach the last generator degree")
    # the stages' budget, before the ring (its α, β, γ are among these six)
    gens = GeneratorSet(0)
    for k, deg in enumerate((2, 4, 6, 2 * g - 1, 2 * g + 1, 2 * g + 3)):
        gens.add(str(k), deg)
    gens.check_budget(range(2, max_degree + 3), budget)
    A = moduli.invariant_ring(g, check_up_to=max_degree + 2)
    model = MinimalModel(A, budget)
    q = moduli.q_polynomials(g)
    zero_w = (0,) * g
    # registration order puts the even cocycles first: their classes can
    # appear linearly in the relation polynomials when the genus is small;
    # the relation images live on even ordinals matching ours
    plan = [
        ("α", 2, "C", _ZERO, "α"),
        ("β", 4, "C", _ZERO, "β"),
        ("γ", 6, "C", _ZERO, "γ"),
        ("f1", 2 * g - 1, "N", q.q1, None),
        ("f2", 2 * g + 1, "N", q.q2, None),
        ("f3", 2 * g + 3, "N", q.q3, None),
    ]
    by_degree: dict = {}
    for name, deg, part, d_img, rho_name in plan:
        rho_mono = None if rho_name is None else A.gs.monomial_of(rho_name)
        bucket: list[StageGenerator] = by_degree.setdefault(deg, [])
        model._register(bucket, name, deg, zero_w, part, d_img, rho_mono)
    # the transgressions are written down, not derived: check them
    bad = model.dga.check_d_squared()
    if bad:
        raise InternalInconsistency(f"d(d(v)) != 0 for {bad}")
    for name, _, _, (_, terms), _ in plan:
        if image_sum((c, model.rho_of_monomial(m)) for m, c in terms.items())[1]:
            raise InternalInconsistency(f"structure map fails to kill d({name})")
    model.stages = [MinimalModelStage(n, by_degree.get(n, []))
                    for n in range(2, max_degree + 1)]
    report = model.verify_quasi_iso(max_degree)
    if not report.ok:
        raise ValidationFailure(
            f"invariant model is not a model: {report.failures()}")
    return model
