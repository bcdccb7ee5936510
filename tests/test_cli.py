import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import sphomotopy
from sphomotopy import cli, moduli, sullivan

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# the child interpreter imports the package this process imported
SRC_DIR = os.path.dirname(os.path.dirname(sphomotopy.__file__))


def _child_env():
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "sphomotopy", *args],
        capture_output=True, text=True, timeout=timeout, env=_child_env(),
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


@pytest.mark.parametrize("argv", [
    ("minimal-model", "--target", "invariant"),
    ("verify", "--suite", "invariant-model"),
], ids=["minimal-model", "verify"])
def test_invariant_budget_refuses_before_the_ring(monkeypatch, capsys, argv):
    """The invariant target checks every stage's budget before it builds
    its ring, which row-reduces each degree through max-degree + 2."""
    def no_ring(*args, **kwargs):
        raise AssertionError("the ring is built before the budget check")

    monkeypatch.setattr(moduli, "invariant_ring", no_ring)
    assert cli.main([*argv, "--genus", "2", "--max-degree", "400",
                     "--budget", "100"]) == 1
    out = capsys.readouterr()
    assert out.err == ("error: monomial budget exceeded at degree 36: "
                       "estimated 101 monomials > budget 100\n")
    assert out.out == ""


def test_relations_budget_exceeded_clean_error():
    res = run_cli("relations", "--genus", "8", "--budget", "10")
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: monomial budget exceeded")
    assert res.stdout == ""


@pytest.mark.parametrize("argv", [
    ("betti", "--genus", "300"),
    ("relations", "--genus", "300"),
    ("minimal-model", "--genus", "300", "--max-degree", "3"),
    ("verify", "--suite", "higher-genus", "--genus", "300"),
], ids=["betti", "relations", "minimal-model", "verify"])
def test_default_budget_refuses_genus_300_first(monkeypatch, argv):
    """Every command checks the default budget before its first costly
    step: the relation recursion alone takes about a minute at genus 300."""
    monkeypatch.delenv("SPHOMOTOPY_BUDGET", raising=False)
    res = run_cli(*argv, timeout=10)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: monomial budget exceeded")
    assert res.stdout == ""


def test_invariant_model_genus_12_is_quick():
    """The genus-12 stages are trivial representations; decomposing them
    must not walk the 12! permutations of a zero weight."""
    res = run_cli("minimal-model", "--genus", "12", "--target", "invariant",
                  "--max-degree", "27", timeout=10)
    assert res.returncode == 0, res.stderr
    assert "V^27: dim 1  [Γ(0,0,0,0,0,0,0,0,0,0,0,0)]" in res.stdout


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


@pytest.mark.parametrize("genus", [5, 6])
def test_verify_higher_genus_gap_then_trivial_line(capsys, genus):
    """A is free below degree 2g, so V^n = 0 for 5 <= n <= 2g-2 and
    V^{2g-1} is the trivial line spanned by q1 (README, "Non-triviality
    against the abstract"); the suite checks stages 2..2g+1."""
    assert cli.main(["verify", "--suite", "higher-genus", "--genus",
                     str(genus), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    got = {c["name"]: c["got"] for c in payload["checks"]}
    assert payload["ok"] and len(got) == 2 * genus
    assert all(got[f"genus {genus} stage {n}"] == "0"
               for n in range(5, 2 * genus - 1))
    trivial = "Γ(" + ",".join("0" * genus) + ")"
    assert got[f"genus {genus} stage {2 * genus - 1}"] == trivial


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_model_stage_no_character_is_one_error_line(monkeypatch, capsys, fmt):
    """A last stage whose weights form no character, which only a bug can
    cause, ends in one ``error:`` line before any stage is written."""
    from sphomotopy.errors import NotACharacter

    irreps = sullivan.MinimalModelStage.irreps

    def failing(stage):
        if stage.degree == 5:
            raise NotACharacter("multiplicity below zero")
        return irreps(stage)

    monkeypatch.setattr(sullivan.MinimalModelStage, "irreps", failing)
    assert cli.main(["minimal-model", "--genus", "2", "--max-degree", "5",
                     "--format", fmt]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: multiplicity below zero\n"


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


# Hand-checked outputs beside the benchmark's workloads, each pinned by the
# sha256 of its whole stdout; JSON unless the command names a format.
COMMAND_BYTES = {
    "betti-g6": ("betti --genus 6",
                 "8f276d4d50aeb5b3a156ad50642692c5b4b003872f7f6ba15179aab8b3fc4ffe"),
    "model-g3": ("minimal-model --genus 3 --max-degree 12",
                 "2442ebd3dc746ea27ab8c463f315480adfba9c1a567b64dece5c74f4daab7c24"),
    "model-g5": ("minimal-model --genus 5 --max-degree 11",
                 "0fff62589f5331eb018a675137b9b79f32f061be57a4b62e0466af2246aae2ee"),
    "invariant-g2": ("minimal-model --genus 2 --target invariant --max-degree 13",
                     "357cf0519fff2a6ca491f52b0935d8e067ee0ee74f8d14150d362961a0be9ce7"),
    "invariant-g3": ("minimal-model --genus 3 --target invariant --max-degree 12",
                     "91403950db045a58d6426a18f76abf6c67a86c94a55e1717e39884f7872afda1"),
    "model-g2-text": ("minimal-model --genus 2 --max-degree 8 --format text",
                      "6bb2d61d5804478d156cab9e3f852642d7dd1873e7d82215b965a724c206a658"),
    "invariant-g3-text": ("minimal-model --genus 3 --target invariant "
                          "--max-degree 12 --format text",
                          "39ffe174a768c4161dd7ec97b2338e924f1717989058e0ab96c3e7af0e9dee66"),
    "relations-g3": ("relations --genus 3",
                     "8a49cafe212404a5cf43b1878f0bdc23b35c1f02f1f33377b0d6528deaba89ae"),
    "relations-g5": ("relations --genus 5 --format json",
                     "a3be4617a746586abcf3161ef40d14fa30d4d4a73578cc3d8529e99d68566b14"),
    "verify-low-degrees": ("verify --suite low-degrees",
                           "07cbae686f9d731e341caddd6b202796a7714a3c257eaff05b6eef090edf79d8"),
    "verify-leading": ("verify --suite leading",
                       "c33f29b69c63fdeb26c2ae1bf3333d9a9e22d2f64182ae3c7eacd0d0c2c810b7"),
    "verify-degree-bound": ("verify --suite degree-bound",
                            "73fdbee827b088549f5fffb7d21b6efcd0da822200b2512f1d56aa9afb491191"),
    "verify-higher-genus": ("verify --suite higher-genus",
                            "829aba8357a52c4cda4662b67c855430a8c36ab837099cdeb37bc4086f89a2ae"),
    "verify-invariant-model": ("verify --suite invariant-model",
                               "567590a669a449e72292cea18ce06756a647e6f93b9b8925a41ce4e2414da7ed"),
    "verify-invariant-model-g5": ("verify --suite invariant-model --genus 5",
                                  "3ac527e800f8a644d353f789863637c3eda7f566cfc5b84783793cd747c91635"),
    "relations-g6": ("relations --genus 6",
                     "c620c25d3712088de734aba0cf3d4e7f15d926ca78cd1c5cdd057e4c428eccf2"),
    "relations-g4-text": ("relations --genus 4 --format text",
                          "ad0cdf51793c7f28d69aeba58470f1a91dee1a20026285eda41b12bbc97b30a2"),
}


@pytest.mark.parametrize("name", ["g2-deep", "betti-g5", *COMMAND_BYTES])
def test_workload_output_bytes(monkeypatch, capsys, name):
    """The genus-2 model through degree 12 and the genus-5 Betti numbers
    print exactly the bytes the benchmark recorded (the golden file covers
    only degrees up to 6), and each hand-checked command its pinned bytes."""
    if name in COMMAND_BYTES:
        command, sha256 = COMMAND_BYTES[name]
        argv = command.split()
        if "--format" not in argv:
            argv += ["--format", "json"]
    else:
        workload = _perfbench_workloads(monkeypatch)[name]
        argv, sha256 = list(workload.argv), workload.sha256
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("command", [
    "minimal-model --genus 3 --max-degree 10 --format json",
    "minimal-model --genus 3 --max-degree 10 --format text",
    "minimal-model --genus 4 --target invariant --max-degree 20",
    "betti --genus 4",
    "relations --genus 4 --format json",
    "relations --genus 4 --format text",
    "verify --suite invariant-model --genus 5",
])
def test_no_run_builds_a_fraction(monkeypatch, capsys, command):
    """From the relations to the rendered text every run computes in
    integer images; ``Fraction`` is left to the ``Element`` views."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 on
        coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, *args: built.append(args) or coprime(cls, *args)))
    assert Fraction(1, 2) and built == [(1, 2)]  # the count is live
    built.clear()
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out
    assert built == []


class _RecordingStdout:
    """A stdout that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_minimal_model_streams_one_generator_at_a_time(monkeypatch):
    # a return to printing the whole dump at once fails the size bound
    out = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["minimal-model", "--genus", "3", "--max-degree", "10",
                     "--format", "json"]) == 0
    data = "".join(out.writes).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == \
        "20d7912cdaf52b2b9bd8395f2778d4d2a2b34bace054d867e1d7a2c530bee5e4"
    assert max(len(w.encode("utf-8")) for w in out.writes) < 0.02 * len(data)


@pytest.mark.parametrize("genus, max_degree, target", [
    (2, 7, "full"),
    (3, 12, "invariant"),
])
def test_minimal_model_stream_is_the_dump(monkeypatch, genus, max_degree, target):
    argv = ["minimal-model", "--genus", str(genus), "--max-degree",
            str(max_degree), "--target", target, "--format", "json"]
    out = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == 0
    model = cli._build_model(cli.make_parser().parse_args(argv))
    dump = {"target": target, **model.to_json_dict(genus=genus),
            "max_degree": max_degree}
    assert json.loads("".join(out.writes)) == dump


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_is_quiet(fmt):
    # the output (165 KB as text) is larger than a pipe's buffer, so the
    # writer meets the closed pipe whatever the scheduling
    proc = subprocess.Popen(
        [sys.executable, "-m", "sphomotopy", "minimal-model", "--genus", "3",
         "--max-degree", "12", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert err == b""
