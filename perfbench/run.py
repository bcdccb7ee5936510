#!/usr/bin/env python3
"""Outside-in benchmark of the sphomotopy command line.

    python3 perfbench/run.py --workload g2-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 600
    python3 perfbench/run.py compare OLD.json NEW.json

Run it from anywhere; it benchmarks the ``src/`` tree next to this
directory. Each sample calls ``sphomotopy.cli.main(argv)`` for one fixed
workload in a fresh interpreter (``sample.py``), one sample at a time: a
closed loop with one client and one thread. Fresh interpreters keep
module-level caches from warming across samples. Every sample's output is
checked (``workloads.py``) before its time counts.

``--trace 0`` reports the end-to-end metrics, medians over the samples:
``wall_s`` and ``cpu_s`` from calling ``cli.main`` to verified output,
``peak_rss_mb`` (``ru_maxrss``) and ``setup_s`` (interpreter start plus
``import sphomotopy.cli``, also measured by import-only samples).
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics of ``layers.py``; the counts among them (units
``count`` and ``bits``) must repeat exactly, within the run and across
runs of the same source tree. Metric names and units are read from
``BENCHMARK.json``.

``--seed`` shuffles the order of the samples (workloads, repetitions,
import-only samples); the program's inputs are fixed by the workload.
Lines before the last one are a human-readable table; the last line is
the JSON result. The full result, with every sample and its provenance,
goes to ``.perfbench_out/``. ``compare`` prints the change between two such
files and refuses files whose backend or Python version differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "bits")
RUNS_UNTRACED = 3     # fewest untraced samples per workload in a run
RUNS_TRACED = 2       # fewest traced samples per workload in a traced run
SETUP_PER_ROUND = 4   # import-only samples per round
HARD_LIMIT_S = 150.0  # no sample starts later unless --seconds is longer


def provenance() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "SPHOMOTOPY_BUDGET": os.environ.get("SPHOMOTOPY_BUDGET"),
        "SPHOMOTOPY_PURE": os.environ.get("SPHOMOTOPY_PURE"),
    }


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def manifest_units(section: str) -> dict:
    """Metric names and units of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def spawn(workload, mode, timeout) -> dict:
    """One sample in a fresh interpreter; returns its record, whose
    ``failures`` list is empty when the sample succeeded."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "sample.py"), SRC,
           workload or "-", mode]
    if mode == "trace":
        cmd.append(os.path.join(OUT, f"{workload}.spans"))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"failures": []}
    fails = record.setdefault("failures", [])
    if "t_ready" not in record and not fails:
        fails.append("the sample printed no record")
    if proc.returncode != 0:
        fails.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    elif "Traceback" in proc.stderr:
        fails.append("stderr: " + proc.stderr.strip()[-2000:])
    if "t_ready" in record:
        record["setup_s"] = record["t_ready"] - t_spawn
        if not record["module_file"].startswith(SRC + os.sep):
            fails.append(f"imported {record['module_file']}, not the tree under {SRC}")
    return record


def run_samples(names, trace, seconds, rng) -> dict:
    """Run rounds of samples until ``seconds`` are used; each round holds
    one item per workload and kind in seeded random order."""
    kinds = ["trace", "run"] if trace else ["run"]
    need = {"trace": RUNS_TRACED, "run": RUNS_TRACED if trace else RUNS_UNTRACED}
    samples = {n: {"run": [], "trace": []} for n in names}
    setup = []
    durations: dict = {}
    limit = max(HARD_LIMIT_S, seconds)
    t_begin = time.monotonic()
    while True:
        rnd = [(k, n) for n in names for k in kinds]
        if not trace:
            rnd += [("setup", None)] * SETUP_PER_ROUND
        rng.shuffle(rnd)
        for kind, name in rnd:
            elapsed = time.monotonic() - t_begin
            past = durations.get((kind, name), [])
            end = elapsed + (statistics.median(past) if past else 0.0)
            short = any(len(samples[n][k]) < need[k] for n in names for k in kinds)
            if end > limit or (end > seconds and not short):
                return {"samples": samples, "setup": setup}
            t0 = time.monotonic()
            rec = spawn(name, kind, timeout=max(5.0, limit + 20 - elapsed))
            durations.setdefault((kind, name), []).append(time.monotonic() - t0)
            if kind == "setup":
                setup.append(rec)
            else:
                samples[name][kind].append(rec)


def percentile_note(values) -> str:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "-"
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return f"p{p}={sorted(values)[rank - 1]:.4f}"


def summarize(name, trace, data, counts_seen, units) -> dict:
    """Metrics of one workload, with the failure list and sample counts.
    The shared import-only samples count in the run's totals, not here."""
    runs = data["samples"][name]["run"]
    traced = data["samples"][name]["trace"]
    failures = list(dict.fromkeys(f for rec in runs + traced for f in rec["failures"]))
    good = [r for r in runs if not r["failures"]]
    good_traced = [r for r in traced if not r["failures"]]
    need = RUNS_TRACED if trace else RUNS_UNTRACED
    if len(good) < need:
        failures.append(f"{len(good)} good untraced samples, {need} needed")
    if trace and len(good_traced) < RUNS_TRACED:
        failures.append(f"{len(good_traced)} good traced samples, {RUNS_TRACED} needed")
    probes = [r for r in data["setup"] if not r["failures"]]
    series = {}
    for key, unit in units.items():
        if key == "setup_s":
            series[key] = [r["setup_s"] for r in good + probes]
        elif key == "trace.overhead_s":
            # the k-th traced and untraced samples ran in the same round,
            # next to each other, so their difference sees the least drift
            series[key] = [t["wall_s"] - u["wall_s"] for t, u in zip(traced, runs)
                           if not t["failures"] and not u["failures"]]
        elif trace:
            series[key] = [r["layers"][key] for r in good_traced]
        else:
            series[key] = [r[key] for r in good]
        if not series[key]:
            failures.append(f"no good sample measured {key}")
        elif unit in COUNT_UNITS and len(set(series[key])) > 1:
            failures.append(f"{key} drifted across traced samples: {series[key]}")
    counts = {k: v[0] for k, v in series.items() if units[k] in COUNT_UNITS and v}
    failures.extend(counts_seen(name, counts))
    metrics = {k: (v[0] if units[k] in COUNT_UNITS else statistics.median(v))
               if v else 0.0 for k, v in series.items()}
    return {"correct": not failures, "attempted": len(runs) + len(traced),
            "failed": len(runs) + len(traced) - len(good) - len(good_traced),
            "failures": failures, "metrics": metrics, "series": series}


def counts_ledger(tree: str):
    """Cross-run determinism: counts of a traced run must equal those an
    earlier traced run recorded for the same source tree."""
    def check(name, counts):
        if not counts:
            return []
        path = os.path.join(OUT, f"counts-{name}-{tree[:16]}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                before = json.load(fh)
            return [f"{k} is {counts.get(k)}, an earlier run of this tree had {v}"
                    for k, v in before.items() if counts.get(k) != v]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    return check


def print_table(results, units, probes):
    print(f"{'workload':10} {'metric':36} {'unit':6} {'median':>14}  {'tail':16} n")
    for name, res in results.items():
        for key, unit in units.items():
            vals = res["series"][key]
            print(f"{name:10} {key:36} {unit:6} {res['metrics'][key]:14.6g}  "
                  f"{percentile_note(vals) if unit == 's' else '-':16} {len(vals)}")
        rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"{name:10} {'error_rate':36} {'ratio':6} {rate:14.6g}  "
              f"{'-':16} {res['attempted']}")
        for f in res["failures"]:
            print(f"{name:10} FAILED: {f}")
    if probes:
        failed = [r for r in probes if r["failures"]]
        print(f"{'setup':10} {'error_rate':36} {'ratio':6} "
              f"{len(failed) / len(probes):14.6g}  {'-':16} {len(probes)}")
        for f in dict.fromkeys(f for r in failed for f in r["failures"]):
            print(f"{'setup':10} FAILED: {f}")


def compare(old_path, new_path) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for key in ("backend", "python"):
        if old["provenance"].get(key) != new["provenance"].get(key):
            print(f"refusing to compare: {key} {old['provenance'].get(key)} "
                  f"vs {new['provenance'].get(key)}", file=sys.stderr)
            return 2
    print(f"{'workload':10} {'metric':36} {'old':>14} {'new':>14} {'change':>9}  bound")
    for name, res in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for key, value in res["metrics"].items():
            base = before["metrics"].get(key)
            if base is None:
                continue
            change = (value - base) / base if base else 0.0
            bound = bounds.get(key)
            verdict = "" if bound is None else f"{bound:.0%}" + (
                " WORSE" if change > bound else "")
            print(f"{name:10} {key:36} {base:14.6g} {value:14.6g} {change:+9.1%}  {verdict}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare OLD.json NEW.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sphomotopy", "cli.py")):
        print(f"no sphomotopy source tree at {SRC}", file=sys.stderr)
        return 2
    units = manifest_units("per_layer" if args.trace else "end_to_end")
    os.makedirs(OUT, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance()
    data = run_samples(names, args.trace, args.seconds, random.Random(args.seed))
    check_counts = counts_ledger(prov["src_sha256"])
    results = {n: summarize(n, args.trace, data, check_counts, units) for n in names}

    records = data["setup"] + [r for n in names for kind in ("run", "trace")
                               for r in data["samples"][n][kind]]
    prov["backend"] = ",".join(sorted({r["backend"] for r in records
                                       if "backend" in r})) or None
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "workloads": results, "samples": data},
                  fh, indent=1)

    print_table(results, units, data["setup"])
    correct = (all(r["correct"] for r in results.values())
               and not any(r["failures"] for r in data["setup"]))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "metrics": {(f"{n}.{k}" if len(names) > 1 else k): {"value": v, "unit": units[k]}
                    for n in names for k, v in results[n]["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
