"""The benchmark's workloads: fixed CLI inputs and their correctness checks.

Each check reads the captured stdout of one ``cli.main`` call and returns
a list of failure messages (empty when the output is correct). Checks use
sources that do not depend on the run wherever they exist: the golden
file, the reference tables, the closed-form Betti numbers, and the sha256
of the stdout bytes recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    argv: tuple
    sha256: str  # of the UTF-8 bytes cli.main writes to stdout
    check: Callable[[str, dict], list]


def _irreps(stage: dict) -> dict:
    return {tuple(i["label"]): i["mult"] for i in stage["irreps"]}


def _stage_degrees(dump: dict, genus: int, max_degree: int) -> list:
    fails = []
    if dump.get("genus") != genus or dump.get("max_degree") != max_degree:
        fails.append(f"header is genus {dump.get('genus')}, "
                     f"max_degree {dump.get('max_degree')}")
    degrees = [s["degree"] for s in dump["stages"]]
    if degrees != list(range(2, max_degree + 1)):
        fails.append(f"stage degrees {degrees}")
    return fails


def _check_g2_deep(root: str, dump: dict) -> list:
    from sphomotopy import sp_characters, tables

    fails = _stage_degrees(dump, 2, 12)
    if fails:
        return fails
    stages = {s["degree"]: s for s in dump["stages"]}
    golden_path = os.path.join(root, "tests", "golden", "genus2_model_deg6.json")
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)["stages"]
    if [stages[n] for n in range(2, 7)] != golden:
        fails.append("stages 2-6 differ from the golden file")
    for n in range(2, 8):
        if _irreps(stages[n]) != tables.GENUS2_LOW_DEGREE[n]:
            fails.append(f"stage {n} decomposition differs from the table")
    for n in range(8, 13):
        irreps = _irreps(stages[n])
        maximal = [l for l in irreps
                   if not any(u != l and sp_characters.dominance_leq(l, u)
                              for u in irreps)]
        lead = tables.leading_label(n)
        if maximal != [lead] or irreps.get(lead) != 1:
            fails.append(f"degree {n}: maximal labels {maximal}, expected {lead} x1")
    for s in dump["stages"]:
        bad = [l for l in _irreps(s) if s["degree"] < sp_characters.n_bound(l)]
        if bad:
            fails.append(f"degree {s['degree']}: summands below the bound {bad}")
    return fails


def _check_g4_wide(root: str, dump: dict) -> list:
    from sphomotopy import tables

    fails = _stage_degrees(dump, 4, 15)
    if fails:
        return fails
    table = tables.low_degree_table(4)
    for s in dump["stages"][:8]:  # degrees 2..9
        if _irreps(s) != table[s["degree"]]:
            fails.append(f"stage {s['degree']} decomposition differs from the table")
    return fails


def _check_betti_g5(root: str, dump: dict) -> list:
    from sphomotopy import moduli

    fails = []
    betti = dump.get("betti")
    if dump.get("genus") != 5 or dump.get("cross_check") != "ok":
        fails.append(f"genus {dump.get('genus')}, cross_check {dump.get('cross_check')}")
    if betti != moduli.betti_decomposition(5):
        fails.append("Betti numbers differ from the closed form")
    if betti != betti[::-1]:
        fails.append("Betti numbers are not Poincaré-symmetric")
    if len(betti) != 25 or betti[-1] != 1:
        fails.append(f"top class: {len(betti) - 1} degrees, top Betti {betti[-1]}")
    return fails


WORKLOADS = {
    # g2-deep is not listed in BENCHMARK.json, so that the listed workloads
    # get 60 s runs within the benchmark's total time; it stays runnable
    # (--workload g2-deep or all) for traces of its few large weight blocks.
    "g2-deep": Workload(
        argv=("minimal-model", "--genus", "2", "--max-degree", "12", "--format", "json"),
        sha256="265bc0534359fa4f0cf1175614d467c1bd85bd1435061246c476b8c2d826675e",
        check=_check_g2_deep,
    ),
    "g4-wide": Workload(
        argv=("minimal-model", "--genus", "4", "--max-degree", "15", "--format", "json"),
        sha256="0c3b1b5b262b6393ef8adffa64d07c1642f00c1b43f810a29bb1ded2c37a032d",
        check=_check_g4_wide,
    ),
    "betti-g5": Workload(
        argv=("betti", "--genus", "5", "--format", "json"),
        sha256="fe39880ed9b741b06d994280036f8fc858a8649aea625da6951e4785a88a6c80",
        check=_check_betti_g5,
    ),
}
