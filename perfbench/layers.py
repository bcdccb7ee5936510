"""Span tracer for the traced benchmark runs.

The tracer wraps, from outside the library, the module-level functions and
methods through which one sphomotopy module calls another. Each call
becomes a span: name, start, end and the enclosing span. Spans are kept in
parallel arrays in memory and written out once, after the measured region.

A layer is a module. A span's self time is its duration minus the time its
child spans cover; what a count hook spends after the wrapped call returns
is charged to nobody, so it shows up as tracing overhead and not as a
layer's time.
"""

from __future__ import annotations

import importlib
import json
from array import array
from functools import wraps
from time import perf_counter

# (module, attribute path, span name). Every entry is a boundary that
# another module calls through, so a patched class attribute or module
# global is what the caller actually looks up.
BOUNDARIES = [
    ("sphomotopy.cli", "main", "cli.main"),
    ("sphomotopy.moduli", "build_cohomology_algebra", "moduli.build_cohomology_algebra"),
    ("sphomotopy.moduli", "relation_subspace_E", "moduli.relation_subspace_E"),
    ("sphomotopy.free_gca", "Element.__mul__", "free_gca.mul"),
    ("sphomotopy.free_gca", "GeneratorSet.basis_by_weight", "free_gca.basis_by_weight"),
    ("sphomotopy.dga", "DGA._quotient_data", "dga.quotient_data"),
    ("sphomotopy.dga", "DGA.reduce", "dga.reduce"),
    ("sphomotopy.dga", "DGA.d_matrix", "dga.d_matrix"),
    ("sphomotopy.dga", "DGA.cohomology", "dga.cohomology"),
    ("sphomotopy.dga", "DGA.d_monomial", "dga.d_monomial"),
    ("sphomotopy.exact_linalg", "_echelon_rows", "exact_linalg.echelon"),
    ("sphomotopy.exact_linalg", "kernel_basis", "exact_linalg.kernel"),
    ("sphomotopy.exact_linalg", "preimage_many", "exact_linalg.preimage"),
    ("sphomotopy.exact_linalg", "cokernel_complement_indices", "exact_linalg.complement"),
    ("sphomotopy.exact_linalg", "rank", "exact_linalg.rank"),
    ("sphomotopy.sullivan", "build", "sullivan.build"),
    ("sphomotopy.sullivan", "MinimalModel.extend_stage", "sullivan.extend_stage"),
    ("sphomotopy.sullivan", "MinimalModel.rho_star", "sullivan.rho_star"),
    ("sphomotopy.sullivan", "MinimalModel._register", "sullivan.register"),
    ("sphomotopy.sullivan", "MinimalModel.to_json_dict", "sullivan.to_json_dict"),
    ("sphomotopy.sp_characters", "decompose", "sp_characters.decompose"),
    ("sphomotopy.cli", "json.dumps", "cli.json_dumps"),
]

# spans whose metric is the inclusive time of the outermost calls
_INCLUSIVE = ("moduli.build_cohomology_algebra", "moduli.relation_subspace_E",
              "sullivan.build", "sullivan.extend_stage", "sullivan.register",
              "sp_characters.decompose")


def _echelon_counts(c, args, result):
    rows = args[0]
    pivots, out_rows = result
    c["echelon_rows_in"] += len(rows)
    c["echelon_rank_out"] += len(pivots)
    c["echelon_max_rows"] = max(c["echelon_max_rows"], len(rows))
    bits = c["max_coeff_bits"]
    for row in out_rows:
        for v in row.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    c["max_coeff_bits"] = bits


def _d_matrix_counts(c, args, result):
    mat = result[2]
    c["d_matrix_nnz"] += sum(len(r) for r in mat.rows)
    c["d_matrix_max_cols"] = max(c["d_matrix_max_cols"], mat.ncols)


def _cohomology_counts(c, args, result):
    c["cohomology_zero"] += result.dim == 0


def _build_counts(c, args, result):
    c["generators"] += sum(s.dim for s in result.stages)


def _decompose_counts(c, args, result):
    c["irreps"] += sum(result.values())


_HOOKS = {
    "exact_linalg.echelon": _echelon_counts,
    "dga.d_matrix": _d_matrix_counts,
    "dga.cohomology": _cohomology_counts,
    "sullivan.build": _build_counts,
    "sp_characters.decompose": _decompose_counts,
}


class Tracer:
    """Records spans around every entry of ``BOUNDARIES`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.release = array("d")  # end plus the count hook's time
        self.counts = {key: 0 for key in (
            "echelon_rows_in", "echelon_rank_out", "echelon_max_rows",
            "max_coeff_bits", "d_matrix_nnz", "d_matrix_max_cols",
            "cohomology_zero", "generators", "irreps")}
        self._stack = [-1]
        self._patched = []

    def install(self):
        for module, path, span in BOUNDARIES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, _HOOKS.get(span)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, hook):
        nid = len(self.names)
        self.names.append(span)
        names, parents, starts, ends, releases = (
            self.name, self.parent, self.start, self.end, self.release)
        stack, counts = self._stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            releases.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                releases[idx] = t1
            if hook is not None:
                hook(counts, args, result)
                releases[idx] = perf_counter()
            return result

        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced sample whose wall time was ``wall_s``.

        ``trace.coverage`` counts the self time of every span but the
        ``cli.main`` root, whose self time is the work no boundary below
        it covers. ``trace.overhead_s`` needs an untraced sample and is
        filled in by the caller.
        """
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += self.release[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        for i in range(n):
            calls[name[i]] += 1
            self_s[name[i]] += end[i] - start[i] - covered[i]
        by_name = {s: i for i, s in enumerate(self.names)}
        inclusive = {s: 0.0 for s in _INCLUSIVE}
        longest = {s: 0.0 for s in _INCLUSIVE}
        for i in range(n):
            span = self.names[name[i]]
            if span not in inclusive:
                continue
            p = parent[i]
            while p >= 0 and name[p] != name[i]:
                p = parent[p]
            if p < 0:  # outermost call of this function
                inclusive[span] += end[i] - start[i]
                longest[span] = max(longest[span], end[i] - start[i])

        def c(span):
            return calls[by_name[span]]

        def s(span):
            return self_s[by_name[span]]

        cnt = self.counts
        cohomology_calls = c("dga.cohomology")
        return {
            "moduli.ring_s": inclusive["moduli.build_cohomology_algebra"],
            "moduli.relations_s": inclusive["moduli.relation_subspace_E"],
            "free_gca.mul_calls": c("free_gca.mul"),
            "free_gca.mul_s": s("free_gca.mul"),
            "free_gca.basis_calls": c("free_gca.basis_by_weight"),
            "free_gca.basis_s": s("free_gca.basis_by_weight"),
            "dga.quotient_calls": c("dga.quotient_data"),
            "dga.quotient_s": s("dga.quotient_data"),
            "dga.reduce_calls": c("dga.reduce"),
            "dga.reduce_s": s("dga.reduce"),
            "dga.d_matrix_calls": c("dga.d_matrix"),
            "dga.d_matrix_s": s("dga.d_matrix"),
            "dga.d_matrix_nnz": cnt["d_matrix_nnz"],
            "dga.d_matrix_max_cols": cnt["d_matrix_max_cols"],
            "dga.cohomology_calls": cohomology_calls,
            "dga.cohomology_s": s("dga.cohomology"),
            "dga.cohomology_zero_ratio":
                cnt["cohomology_zero"] / cohomology_calls if cohomology_calls else 0.0,
            "dga.d_monomial_calls": c("dga.d_monomial"),
            "dga.d_monomial_s": s("dga.d_monomial"),
            "exact_linalg.echelon_calls": c("exact_linalg.echelon"),
            "exact_linalg.echelon_s": s("exact_linalg.echelon"),
            "exact_linalg.echelon_rows_in": cnt["echelon_rows_in"],
            "exact_linalg.echelon_rank_out": cnt["echelon_rank_out"],
            "exact_linalg.echelon_useful_ratio":
                cnt["echelon_rank_out"] / cnt["echelon_rows_in"]
                if cnt["echelon_rows_in"] else 0.0,
            "exact_linalg.echelon_max_rows": cnt["echelon_max_rows"],
            "exact_linalg.max_coeff_bits": cnt["max_coeff_bits"],
            "exact_linalg.kernel_s": s("exact_linalg.kernel"),
            "exact_linalg.preimage_s": s("exact_linalg.preimage"),
            "exact_linalg.complement_s": s("exact_linalg.complement"),
            "exact_linalg.rank_s": s("exact_linalg.rank"),
            "sullivan.build_s": inclusive["sullivan.build"],
            "sullivan.stage_max_s": longest["sullivan.extend_stage"],
            "sullivan.generators": cnt["generators"],
            "sullivan.rho_star_calls": c("sullivan.rho_star"),
            "sullivan.rho_star_s": s("sullivan.rho_star"),
            "sullivan.register_s": inclusive["sullivan.register"],
            "sp_characters.decompose_calls": c("sp_characters.decompose"),
            "sp_characters.decompose_s": inclusive["sp_characters.decompose"],
            "sp_characters.irreps": cnt["irreps"],
            "cli.render_s": s("sullivan.to_json_dict") + s("cli.json_dumps"),
            "trace.coverage": (sum(self_s) - s("cli.main")) / wall_s,
        }

    def dump(self, path):
        """Write the spans: one JSON header line, then the raw arrays in
        the order the header lists them (native byte order)."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                             ["end", "d"], ["release", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.release):
                arr.tofile(fh)
