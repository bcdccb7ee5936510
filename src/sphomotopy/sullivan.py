"""Degreewise minimal model construction for zero-differential targets.

The target is a quotient ring (``DGA`` with relations), used as it
stands: the model reads the ring's per-weight bases and block
coordinates and reduces and multiplies in it directly. The ring must be
1-connected: A^0 is the ground field and A^1 = 0.

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

from dataclasses import dataclass
from fractions import Fraction

from . import exact_linalg as ela
from . import moduli, sp_characters
from .dga import DGA
from .errors import (InternalInconsistency, TargetNotOneConnected,
                     ValidationFailure)
from .free_gca import ONE, Element, GeneratorSet, Monomial, configured_budget


@dataclass
class StageGenerator:
    name: str
    degree: int
    weight: tuple
    part: str  # 'C' or 'N'
    d_image: Element
    rho_image: Element


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
        self.dga = DGA(GeneratorSet(target.gs.weight_len), {})
        self.stages: list[MinimalModelStage] = []
        self.rho: dict[int, Element] = {}
        self._rho_mono_cache: dict = {}
        self._rho_zero_odd = 0
        self._rho_zero_even: set = set()
        # (n, {weight: complement positions in A^n_w}) for the next stage;
        # H^2 of the empty model is 0
        self._complements: tuple = (2, {})

    # -- structure map -------------------------------------------------------

    def rho_of_monomial(self, m: Monomial) -> Element:
        """Image of a model monomial in the target (product of generator
        images, reduced)."""
        if m == ONE:
            return self.target.gs.unit()
        if m.odd & self._rho_zero_odd:
            return self.target.gs.zero()
        for o, _ in m.even:
            if o in self._rho_zero_even:
                return self.target.gs.zero()
        cached = self._rho_mono_cache.get(m)
        if cached is not None:
            return cached
        gs = self.dga.gs
        if m.odd:
            low_top = 1 << (m.odd.bit_length() - 1)
            rest = Monomial(m.even, m.odd ^ low_top)
            gen = gs.odd[low_top.bit_length() - 1]
        else:
            o, e = m.even[-1]
            rest_even = m.even[:-1] + (((o, e - 1),) if e > 1 else ())
            rest = Monomial(rest_even, 0)
            gen = gs.even[o]
        out = self.target.multiply(self.rho_of_monomial(rest), self.rho[gen.index])
        self._rho_mono_cache[m] = out
        return out

    def rho_star(self, x: Element) -> Element:
        out = self.target.gs.zero()
        for m, c in x.terms.items():
            out = out + self.rho_of_monomial(m).scale(c)
        # each image is reduced, and so is a combination of reduced forms
        return out

    # -- construction ----------------------------------------------------------

    def _check_budget(self, n: int):
        self.dga.gs.check_budget((n, n + 1, n + 2), self.budget)

    def _register(self, stage_gens, name, degree, weight, part, d_image,
                  rho_image):
        """Adjoin one generator. Its postconditions are the caller's: block
        identities in ``extend_stage``, direct checks in ``invariant_model``."""
        g = self.dga.add_generator(name, degree, weight, d_image)
        self.rho[g.index] = rho_image
        if rho_image.is_zero():
            if g.is_odd:
                self._rho_zero_odd |= 1 << g.ordinal
            else:
                self._rho_zero_even.add(g.ordinal)
        stage_gens.append(StageGenerator(name, degree, tuple(weight), part,
                                         d_image, rho_image))

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
        self._check_budget(n)
        gs = self.dga.gs
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
            cols = [A.coords_block(self.rho_star(rep), n + 1, w)
                    for rep in blk.representatives]
            a_dim = len(a_next.get(w, []))
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
            if kernel:
                n_plan.extend(self._kernel_part(blk, cols, kernel))

        # register after all cohomology in the old algebra is computed
        for w, mono in c_plan:
            rho_img = Element(A.gs, {mono: Fraction(1)})
            self._register(stage_gens, fresh_name(w), n, w, "C",
                           gs.zero(), rho_img)
        for w, d_img in n_plan:
            if d_img.weight() != w:
                raise InternalInconsistency("differential image off-weight")
            self._register(stage_gens, fresh_name(w), n, w, "N",
                           d_img, A.gs.zero())
        stage = MinimalModelStage(n, stage_gens)
        self.stages.append(stage)
        self._complements = (n + 1, complements)
        return stage

    def _kernel_part(self, blk, rho_cols, kernel) -> list:
        """The N generators' differentials for one block of H^{n+1}, as
        ``(weight, d_image)`` pairs, after the postconditions are checked
        for the whole block against its inputs:

        * ρ∘d = 0: the ρ* matrix ``rho_cols`` (one target vector per
          representative) kills every kernel vector;
        * minimality: no d(v) has an entry at a position of
          ``blk.monomials`` of word length < 2;
        * d²=0: the rows of the d(n+1) block that the cocycles were
          computed from (``blk.d_rows``) kill every d(v), one integer
          product with the d(v) cleared of their denominators.
        """
        for kv in kernel:
            image: dict = {}
            for j, c in kv.items():
                for i, v in rho_cols[j].items():
                    image[i] = image.get(i, 0) + c * v
            if any(image.values()):
                raise InternalInconsistency(
                    f"structure map fails to kill a differential at weight {blk.weight}")
        reps = blk.representative_vectors
        vecs = []
        for kv in kernel:
            vec: dict = {}
            for j, c in kv.items():
                for i, v in reps[j].items():
                    vec[i] = vec.get(i, 0) + c * v
            vecs.append({i: v for i, v in vec.items() if v})
        src = blk.monomials
        gs = self.dga.gs
        low = {i for i, m in enumerate(src) if gs.word_length(m) < 2}
        if low and any(not low.isdisjoint(vec) for vec in vecs):
            raise InternalInconsistency(
                f"a new differential has a word-length-1 term at weight {blk.weight}")
        ints = [(list(iv), list(iv.values()))
                for _, iv in map(ela._cleared, vecs)]
        if not ela._kills(blk.d_rows, ints):
            raise InternalInconsistency(
                f"d(d(v)) != 0 for a new generator at weight {blk.weight}")
        return [(blk.weight, Element(gs, {src[i]: v for i, v in vec.items()}))
                for vec in vecs]

    # -- reports ---------------------------------------------------------------

    def stage(self, n: int) -> MinimalModelStage:
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
                vecs = [A.coords_block(self.rho_star(rep), i, w)
                        for rep in blk.representatives]
                a_dim = len(A.basis_by_weight(i).get(w, []))
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
        bad = []
        for s in self.stages:
            for g in s.generators:
                if not g.d_image.is_zero() and \
                        g.d_image != g.d_image.word_component(2, at_least=True):
                    bad.append(g.name)
        return bad

    def to_json_dict(self, genus=None) -> dict:
        stages = []
        for s in self.stages:
            irreps = sorted(s.irreps().items(), reverse=True)
            stages.append({
                "degree": s.degree,
                "dim": s.dim,
                "irreps": [{"label": list(l), "mult": m} for l, m in irreps],
                "generators": [
                    {
                        "name": g.name,
                        "degree": g.degree,
                        "weight": list(g.weight),
                        "part": g.part,
                        "d_image": g.d_image.render(),
                        "rho_image": g.rho_image.render(),
                    }
                    for g in s.generators
                ],
            })
        out = {"stages": stages}
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


# -- named targets -------------------------------------------------------------


def moduli_target(g: int, budget: int | None = None) -> DGA:
    return moduli.build_cohomology_algebra(g, budget)


def invariant_target(g: int, check_up_to: int | None = None) -> DGA:
    return moduli.invariant_ring(g, check_up_to=check_up_to)


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
    A = invariant_target(g, check_up_to=max_degree + 2)
    model = MinimalModel(A, budget)
    q = moduli.q_polynomials(g)
    gs = model.dga.gs
    zero_w = (0,) * g
    # registration order puts the even cocycles first: their classes can
    # appear linearly in the relation polynomials when the genus is small
    plan = [
        ("α", 2, "C", None, "α"),
        ("β", 4, "C", None, "β"),
        ("γ", 6, "C", None, "γ"),
        ("f1", 2 * g - 1, "N", q.q1, None),
        ("f2", 2 * g + 1, "N", q.q2, None),
        ("f3", 2 * g + 3, "N", q.q3, None),
    ]
    by_degree: dict = {}
    for name, deg, part, d_poly, rho_name in plan:
        if d_poly is None:
            d_img = gs.zero()
            rho_img = Element(A.gs, {A.gs.monomial_of(rho_name): Fraction(1)})
        else:
            # relation polynomials live on even ordinals matching ours
            d_img = Element(gs, dict(d_poly.terms))
            rho_img = A.gs.zero()
        bucket: list[StageGenerator] = by_degree.setdefault(deg, [])
        model._register(bucket, name, deg, zero_w, part, d_img, rho_img)
    # the transgressions are written down, not derived: check them
    bad = model.dga.check_d_squared()
    if bad:
        raise InternalInconsistency(f"d(d(v)) != 0 for {bad}")
    for gens in by_degree.values():
        for gen in gens:
            if not model.rho_star(gen.d_image).is_zero():
                raise InternalInconsistency(
                    f"structure map fails to kill d({gen.name})")
    for n in range(2, max_degree + 1):
        model._check_budget(n)
        model.stages.append(MinimalModelStage(n, by_degree.get(n, [])))
    report = model.verify_quasi_iso(max_degree)
    if not report.ok:
        raise ValidationFailure(
            f"invariant model is not a model: {report.failures()}")
    return model
