import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import sphomotopy
from sphomotopy import cli, sullivan

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# the child interpreter imports the package this process imported
SRC_DIR = os.path.dirname(os.path.dirname(sphomotopy.__file__))


def run_cli(*args, timeout=None):
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sphomotopy", *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
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


def test_model_ring_budget_exceeded_clean_error():
    # the full ring's checks enumerate through degree 6g-3 = 39, so the
    # budget refuses before the ring is built, however low --max-degree is
    res = run_cli("minimal-model", "--genus", "7", "--max-degree", "3",
                  "--budget", "1000", timeout=30)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: monomial budget exceeded")
    assert res.stdout == ""


def test_relations_budget_exceeded_clean_error():
    res = run_cli("relations", "--genus", "8", "--budget", "10")
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: monomial budget exceeded")
    assert res.stdout == ""


@pytest.mark.parametrize("argv", [
    ("relations", "--genus", "0"),
    ("minimal-model", "--genus", "2", "--max-degree", "1"),
    ("minimal-model", "--genus", "2", "--target", "invariant",
     "--max-degree", "3"),
    ("verify", "--suite", "invariant-model", "--genus", "1"),
    ("betti", "--genus", "1"),
    ("minimal-model", "--genus", "1", "--max-degree", "4"),
    ("minimal-model", "--genus", "0", "--target", "invariant",
     "--max-degree", "4"),
], ids=["relations-genus-0", "model-degree-1", "invariant-degree-3",
        "verify-invariant-genus-1", "betti-genus-1", "full-model-genus-1",
        "invariant-model-genus-0"])
def test_bad_input_one_line_error(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
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


@pytest.mark.parametrize("argv", [
    ("--suite", "invariant-model", "--genus", "0"),
    ("--suite", "invariant-model", "--max-degree", "0"),
    ("--suite", "leading", "--max-degree", "0"),
    ("--suite", "degree-bound", "--max-degree", "0"),
    ("--suite", "higher-genus", "--max-degree", "0"),
], ids=["invariant-genus-0", "invariant-degree-0", "leading-degree-0",
        "degree-bound-degree-0", "higher-genus-degree-0"])
def test_verify_explicit_zero_is_not_replaced_by_default(argv):
    res = run_cli("verify", *argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "PASS" not in res.stdout


@pytest.mark.parametrize("argv", [
    ("--suite", "low-degrees", "--genus", "5", "--max-degree", "3"),
    ("--suite", "low-degrees", "--genus", "3"),
    ("--suite", "leading", "--genus", "7", "--max-degree", "8"),
    ("--suite", "degree-bound", "--genus", "9"),
    ("--suite", "degree-bound", "--genus", "0"),
], ids=["low-degrees-genus-5", "low-degrees-genus-3", "leading-genus-7",
        "degree-bound-genus-9", "degree-bound-genus-0"])
def test_verify_genus2_suites_reject_other_genus(argv):
    res = run_cli("verify", *argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "genus 2 only" in res.stderr
    assert "PASS" not in res.stdout


@pytest.mark.parametrize("argv, degrees", [
    (("--max-degree", "3"), [2, 3]),
    (("--max-degree", "5", "--genus", "2"), [2, 3, 4, 5]),
    (("--max-degree", "9"), [2, 3, 4, 5, 6, 7]),
], ids=["max-3", "max-5-genus-2", "max-9-capped"])
def test_verify_low_degrees_honours_max_degree(argv, degrees):
    res = run_cli("verify", "--suite", "low-degrees", *argv, "--format", "json")
    assert res.returncode == 0, res.stdout + res.stderr
    payload = json.loads(res.stdout)
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]] == \
        [f"stage {n} decomposition" for n in degrees]


def test_verify_low_degrees_explicit_zero_rejected():
    res = run_cli("verify", "--suite", "low-degrees", "--max-degree", "0")
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "PASS" not in res.stdout


def test_betti_mismatch_is_one_error_line(monkeypatch, capsys):
    """A disagreement between the two Betti paths, which only a bug can
    cause, ends in one ``error:`` line and exit 1."""
    from sphomotopy import moduli

    monkeypatch.setattr(moduli, "betti_decomposition",
                        lambda g: [1, 0, 1, 4, 1, 0, 2])
    assert cli.main(["betti", "--genus", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: Betti cross-check failed")
    assert out.err.count("\n") == 1


def test_weyl_certificate_failure_is_one_error_line(monkeypatch, capsys):
    """Relations that are not Weyl-stable, which only a bug can produce,
    end in the certificate's one ``error:`` line and exit 1."""
    from sphomotopy import moduli

    full = moduli.relation_subspace_E
    monkeypatch.setattr(moduli, "relation_subspace_E",
                        lambda g: full(g)[:2] + full(g)[3:])
    assert cli.main(["betti", "--genus", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: Weyl certificate failed")
    assert out.err.count("\n") == 1


def test_non_integer_budget_variable_rejected(monkeypatch, capsys):
    monkeypatch.setenv("SPHOMOTOPY_BUDGET", "abc")
    with pytest.raises(ValueError, match="SPHOMOTOPY_BUDGET"):
        sullivan.configured_budget()
    assert cli.main(["betti", "--genus", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_flag_rejected(capsys, budget):
    assert cli.main(["betti", "--genus", "2", "--budget", budget]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --budget must be at least 1, got {budget}\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_variable_rejected(monkeypatch, capsys, budget):
    monkeypatch.setenv("SPHOMOTOPY_BUDGET", budget)
    assert cli.main(["betti", "--genus", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: SPHOMOTOPY_BUDGET must be at least 1, got {budget}\n"


def test_golden_model_dump():
    """The genus-2 dump must match the stored golden file byte for byte
    (names, weights, differentials and structure-map images included)."""
    with open(os.path.join(GOLDEN_DIR, "genus2_model_deg6.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)
    res = run_cli("minimal-model", "--genus", "2", "--max-degree", "6",
                  "--format", "json")
    assert json.loads(res.stdout) == golden


def _perfbench_workloads(monkeypatch):
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["g2-deep", "betti-g5"])
def test_workload_output_bytes(monkeypatch, capsys, name):
    """The genus-2 model through degree 12 and the genus-5 Betti numbers
    print exactly the bytes the benchmark recorded; the golden file covers
    only degrees up to 6."""
    workload = _perfbench_workloads(monkeypatch)[name]
    assert cli.main(list(workload.argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == workload.sha256
