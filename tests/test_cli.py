import json
import os
import subprocess
import sys

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sphomotopy", *args],
        capture_output=True, text=True,
    )


def test_betti_text():
    res = run_cli("betti", "--genus", "2")
    assert res.returncode == 0
    assert "1 0 1 4 1 0 1" in res.stdout
    assert "cross-check: ok" in res.stdout


def test_betti_json():
    res = run_cli("betti", "--genus", "2", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload == {"genus": 2, "betti": [1, 0, 1, 4, 1, 0, 1],
                       "cross_check": "ok"}


def test_betti_genus_1_usage_error():
    res = run_cli("betti", "--genus", "1")
    assert res.returncode != 0


def test_relations_genus_2():
    res = run_cli("relations", "--genus", "2")
    assert res.returncode == 0
    assert "q1 = α^2 + β" in res.stdout
    assert "q2 = α·β + γ" in res.stdout
    assert "q3 = α·γ" in res.stdout
    assert "11 elements" in res.stdout


def test_relations_genus_1():
    res = run_cli("relations", "--genus", "1", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["q"] == ["α", "β", "γ"]
    assert payload["degrees"] == [2, 4, 6]
    assert "E" not in payload


def test_relations_genus_3_degree_header():
    res = run_cli("relations", "--genus", "3")
    assert "degrees 6, 8, 10" in res.stdout


def test_minimal_model_json_schema():
    res = run_cli("minimal-model", "--genus", "2", "--max-degree", "5",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["genus"] == 2
    assert payload["max_degree"] == 5
    stages = payload["stages"]
    assert [s["degree"] for s in stages] == [2, 3, 4, 5]
    assert [s["dim"] for s in stages] == [1, 4, 4, 6]
    v5 = stages[-1]
    assert {"label": [0, 1], "mult": 1} in v5["irreps"]
    for gen in v5["generators"]:
        assert gen["degree"] == 5
        assert len(gen["weight"]) == 2


def test_minimal_model_invariant_target():
    res = run_cli("minimal-model", "--genus", "2", "--target", "invariant",
                  "--max-degree", "13", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    degrees = [g["degree"] for s in payload["stages"] for g in s["generators"]]
    assert degrees == [2, 3, 4, 5, 6, 7]


def test_minimal_model_invariant_genus_1_is_trivial():
    res = run_cli("minimal-model", "--genus", "1", "--target", "invariant",
                  "--max-degree", "6", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert all(s["dim"] == 0 for s in payload["stages"])


def test_budget_exceeded_clean_error():
    res = run_cli("minimal-model", "--genus", "2", "--max-degree", "8",
                  "--budget", "10")
    assert res.returncode == 1
    assert "budget exceeded at degree" in res.stderr
    assert "estimated" in res.stderr


def test_betti_budget_exceeded_clean_error():
    res = run_cli("betti", "--genus", "4", "--budget", "100")
    assert res.returncode == 1
    assert "budget exceeded at degree" in res.stderr


@pytest.mark.parametrize("argv", [
    ("relations", "--genus", "0"),
    ("minimal-model", "--genus", "2", "--max-degree", "1"),
    ("minimal-model", "--genus", "2", "--target", "invariant",
     "--max-degree", "3"),
    ("verify", "--suite", "invariant-model", "--genus", "1"),
], ids=["relations-genus-0", "model-degree-1", "invariant-degree-3",
        "verify-invariant-genus-1"])
def test_bad_input_one_line_error(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_verify_empty_suite_fails():
    res = run_cli("verify", "--suite", "leading", "--max-degree", "7",
                  "--format", "json")
    assert res.returncode != 0
    payload = json.loads(res.stdout)
    assert payload["ok"] is False and payload["checks"] == []


@pytest.mark.parametrize("suite", ["low-degrees", "degree-bound", "invariant-model"])
def test_verify_suites_pass(suite):
    res = run_cli("verify", "--suite", suite)
    assert res.returncode == 0, res.stdout + res.stderr
    assert f"PASS suite {suite}" in res.stdout


def test_verify_leading_custom_cap():
    res = run_cli("verify", "--suite", "leading", "--max-degree", "9",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 2  # degrees 8 and 9


def test_verify_higher_genus_3():
    res = run_cli("verify", "--suite", "higher-genus", "--genus", "3")
    assert res.returncode == 0
    assert "PASS suite higher-genus" in res.stdout


@pytest.mark.parametrize("genus", ["2", "0"])
def test_verify_higher_genus_rejects_low_genus(genus):
    res = run_cli("verify", "--suite", "higher-genus", "--genus", genus)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "PASS" not in res.stdout


def test_golden_model_dump():
    """The genus-2 dump must match the stored golden file byte for byte
    (names, weights, differentials and structure-map images included)."""
    with open(os.path.join(GOLDEN_DIR, "genus2_model_deg6.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)
    res = run_cli("minimal-model", "--genus", "2", "--max-degree", "6",
                  "--format", "json")
    assert json.loads(res.stdout) == golden
