"""Command-line front end.

Subcommands:

* ``betti``          Betti table of the full ring, computed two ways.
* ``relations``      the relation triple and the relation subspace basis.
* ``minimal-model``  stagewise model of the full ring or the invariant
                     subring, as a table or a JSON dump.
* ``verify``         golden verification suites; exit code 0 iff PASS.

``--budget`` caps the number of monomials any single degree may
enumerate, counted from the generator degrees before any generator set
is built. ``main`` resolves it once, before the command runs: the flag,
else SPHOMOTOPY_BUDGET, else 500000; a value that is not an integer of
at least 1, from either source, is an error for every command. A verify
suite with no checks in the requested range fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import moduli, sp_characters, sullivan, tables
from .errors import SphomotopyError
from .free_gca import DEFAULT_BUDGET, check_budget, render_terms


def cmd_betti(args) -> int:
    if args.genus < 2:
        raise ValueError("betti: the full ring needs --genus >= 2")
    # raises on a mismatch between the two paths
    betti = moduli.betti_numbers(args.genus, args.budget)
    if args.format == "json":
        print(json.dumps({"genus": args.genus, "betti": betti, "cross_check": "ok"}))
    else:
        row = " ".join(str(b) for b in betti)
        print(f"genus {args.genus} Betti numbers (degrees 0..{6 * args.genus - 6})")
        print("  quotient ring:  " + row)
        print("  decomposition:  " + row)
        print("  cross-check: ok")
    return 0


def cmd_relations(args) -> int:
    g = args.genus
    if g >= 2:
        # the primitive parts enumerate only odd products, through degree
        # 3g; the counts through degree 6g+3 guard the relation recursion,
        # whose cost grows with g, and refuse a large genus before it runs
        check_budget(moduli.full_degrees(g), range(6 * g + 4), args.budget)
    degrees = [2 * g, 2 * g + 2, 2 * g + 4]
    payload = {"genus": g, "degrees": degrees, "q": _render_triple(g)}
    if g >= 2:
        gs = moduli.full_generators(g)
        payload["E"] = [render_terms(gs, terms, den)
                        for den, terms in moduli.relation_subspace_E(g)]
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(f"genus {g} relation triple (degrees {degrees[0]}, {degrees[1]}, {degrees[2]}):")
        for name, poly in zip(("q1", "q2", "q3"), payload["q"]):
            print(f"  {name} = {poly}")
        if g >= 2:
            print(f"relation subspace E ({len(payload['E'])} elements):")
            for e in payload["E"]:
                print(f"  {e}")
    return 0


def _render_triple(g: int) -> list:
    q = moduli.q_polynomials(g)  # checks the genus before the generators need it
    gs = moduli.invariant_generators(g)
    return [render_terms(gs, terms, den) for den, terms in q]


def _build_model(args) -> sullivan.MinimalModel:
    if args.target == "invariant":
        if args.genus < 1:
            raise ValueError("invariant target needs --genus >= 1")
        if args.genus == 1:
            # trivial invariant ring: the degreewise construction returns
            # the (empty) honest model
            return sullivan.build(moduli.invariant_ring(1), args.max_degree,
                                  args.budget)
        return sullivan.invariant_model(args.genus, args.max_degree, args.budget)
    if args.genus < 2:
        raise ValueError("full target needs --genus >= 2")
    target = moduli.build_cohomology_algebra(args.genus, args.budget)
    return sullivan.build(target, args.max_degree, args.budget)


def cmd_minimal_model(args) -> int:
    # the model is built and every stage decomposed before the first write,
    # so an error prints alone; the output then goes out one generator at a
    # time
    stages = _build_model(args).json_stages()
    if args.format == "json":
        write = sys.stdout.write
        # the bytes of json.dumps(dump, ensure_ascii=False), key order
        # target, stages, genus, max_degree
        write('{"target": ' + json.dumps(args.target) + ', "stages": [')
        for i, (head, gens) in enumerate(stages):
            write((", " if i else "") + json.dumps(head, ensure_ascii=False)[:-1]
                  + ', "generators": [')
            for j, g in enumerate(gens):
                write((", " if j else "") + json.dumps(g, ensure_ascii=False))
            write("]}")
        write(f'], "genus": {args.genus}, "max_degree": {args.max_degree}}}\n')
        return 0
    print(f"minimal model stages, genus {args.genus}, target {args.target}, "
          f"through degree {args.max_degree}")
    for head, gens in stages:
        labels = ", ".join(
            f"{sp_characters.render_label(i['label'])}"
            + (f"×{i['mult']}" if i["mult"] > 1 else "")
            for i in head["irreps"])
        print(f"  V^{head['degree']}: dim {head['dim']}"
              + (f"  [{labels}]" if labels else ""))
        for g in gens:
            rho = f"  rho: {g['rho_image']}" if g["rho_image"] != "0" else ""
            print(f"    {g['name']}  d: {g['d_image']}{rho}")
    return 0


# -- verification suites -------------------------------------------------------
#
# A suite yields one (name, expected, got, ok) tuple per check.


def _genus2_model(args, max_degree: int) -> sullivan.MinimalModel:
    # the reference tables behind these suites are for genus 2 only
    if args.genus is not None and args.genus != 2:
        raise ValueError(f"the {args.suite} suite runs genus 2 only, "
                         f"got --genus {args.genus}")
    return sullivan.build(moduli.build_cohomology_algebra(2, args.budget),
                          max_degree, args.budget)


def _table_checks(model, table, degrees, name):
    """Compare each stage's irreducibles with the table; ``name`` is a
    format string taking the degree."""
    for n in degrees:
        got, want = model.stage(n).irreps(), table[n]
        yield name.format(n), _fmt_irreps(want), _fmt_irreps(got), got == want


def _suite_low_degrees(args):
    top = 7 if args.max_degree is None else min(args.max_degree, 7)
    return _table_checks(_genus2_model(args, top), tables.GENUS2_LOW_DEGREE,
                         range(2, top + 1), "stage {} decomposition")


def _suite_leading(args):
    max_degree = 10 if args.max_degree is None else args.max_degree
    model = _genus2_model(args, max_degree)
    for n in range(8, max_degree + 1):
        irreps = model.stage(n).irreps()
        expected = tables.leading_label(n)
        maximal = [l for l in irreps
                   if not any(u != l and sp_characters.dominance_leq(l, u)
                              for u in irreps)]
        yield (f"degree {n} leading label",
               f"{sp_characters.render_label(expected)} ×1",
               ", ".join(sp_characters.render_label(l) for l in maximal)
               + f" (mult {irreps.get(expected, 0)})",
               maximal == [expected] and irreps.get(expected) == 1)


def _suite_degree_bound(args):
    max_degree = 10 if args.max_degree is None else args.max_degree
    for s in _genus2_model(args, max_degree).stages:
        bad = [l for l in s.irreps() if s.degree < sp_characters.n_bound(l)]
        yield (f"degree {s.degree} lower bound", "every summand above its bound",
               "violations: " + (", ".join(map(str, bad)) if bad else "none"),
               not bad)


def _suite_higher_genus(args):
    if args.genus is not None and args.genus <= 2:
        raise ValueError("the higher-genus suite needs --genus >= 3")
    g = args.genus if args.genus is not None else 3
    max_degree = 2 * g + 1 if args.max_degree is None else args.max_degree
    model = sullivan.build(moduli.build_cohomology_algebra(g, args.budget),
                           max_degree, args.budget)
    return _table_checks(model, tables.low_degree_table(g),
                         range(2, min(max_degree, 2 * g + 1) + 1),
                         f"genus {g} stage {{}}")


def _suite_invariant_model(args):
    g = 2 if args.genus is None else args.genus
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = 13 if g == 2 else 2 * (2 * g + 3)
    model = sullivan.invariant_model(g, max_degree, args.budget)
    expected = {2: "0", 4: "0", 6: "0",
                **dict(zip((2 * g - 1, 2 * g + 1, 2 * g + 3), _render_triple(g)))}
    degs = {gen["degree"]: gen["d_image"]
            for _, gens in model.json_stages() for gen in gens}
    want = tables.invariant_generator_degrees(g)
    yield (f"genus {g} generator degrees", str(want), str(sorted(degs)),
           sorted(degs) == want)
    for deg in sorted(expected):
        yield (f"genus {g} differential at degree {deg}", expected[deg],
               degs.get(deg, "<missing>"), degs.get(deg) == expected[deg])
    # invariant_model raises unless it is a model
    yield (f"genus {g} quasi-isomorphism through {max_degree}", "verified",
           "verified", True)


def _fmt_irreps(d: dict) -> str:
    if not d:
        return "0"
    return " + ".join(
        sp_characters.render_label(l) + (f"×{m}" if m > 1 else "")
        for l, m in sorted(d.items(), reverse=True))


SUITES = {
    "low-degrees": _suite_low_degrees,
    "leading": _suite_leading,
    "degree-bound": _suite_degree_bound,
    "higher-genus": _suite_higher_genus,
    "invariant-model": _suite_invariant_model,
}


def cmd_verify(args) -> int:
    # every check runs before anything prints, so an error prints alone
    checks = [dict(zip(("name", "expected", "got", "ok"), c))
              for c in SUITES[args.suite](args)]
    ok = bool(checks) and all(c["ok"] for c in checks)
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "ok": ok, "checks": checks},
                         ensure_ascii=False))
    else:
        for c in checks:
            mark = "PASS" if c["ok"] else "FAIL"
            print(f"  [{mark}] {c['name']}: expected {c['expected']}, got {c['got']}")
        if not checks:
            print("  no checks in the requested range")
        print(("PASS" if ok else "FAIL") + f" suite {args.suite}")
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphomotopy", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, genus_required=True):
        sp.add_argument("--genus", type=int, required=genus_required)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--budget", type=int)

    b = sub.add_parser("betti", help="Betti table, two computation paths")
    common(b)
    b.set_defaults(func=cmd_betti)

    r = sub.add_parser("relations", help="relation triple and subspace basis")
    common(r)
    r.set_defaults(func=cmd_relations)

    m = sub.add_parser("minimal-model", help="build the stagewise model")
    common(m)
    m.add_argument("--max-degree", type=int, required=True)
    m.add_argument("--target", choices=("full", "invariant"), default="full")
    m.set_defaults(func=cmd_minimal_model)

    v = sub.add_parser("verify", help="run a golden verification suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    common(v, genus_required=False)
    v.add_argument("--max-degree", type=int)
    v.set_defaults(func=cmd_verify)
    return p


def _budget(flag) -> int:
    """The run's budget: the flag, else SPHOMOTOPY_BUDGET, else the default."""
    name = "--budget" if flag is not None else "SPHOMOTOPY_BUDGET"
    raw = flag if flag is not None else os.environ.get(name, DEFAULT_BUDGET)
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"{name} must be at least 1, got {budget}")
    return budget


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        args.budget = _budget(args.budget)
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return rc
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SphomotopyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
