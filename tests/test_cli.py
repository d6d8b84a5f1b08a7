"""Command-line interface: commands, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lieembed.cli import main


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def test_analyze_wave15(run):
    code, out, err = run(["analyze", "wave15"])
    assert code == 0
    payload = json.loads(out)
    assert payload["semisimple"] is True
    assert payload["killing"]["signature"] == {"pos": 8, "neg": 7, "zero": 0}
    assert payload["radical_dim"] == 0


def test_analyze_g2_text(run):
    code, out, _ = run(["analyze", "g2", "--format", "text"])
    assert code == 0
    assert "semisimple: yes" in out


def test_analyze_abelian_file(run, tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "brackets": []}))
    code, out, _ = run(["analyze", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["radical_dim"] == 2  # radical is everything


def test_parse_error_exit_2(run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["analyze", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("data", [b"[" * 100000 + b"]" * 100000,
                                  b"\xff\xfe{}"])
def test_unreadable_json_exit_2(run, tmp_path, data):
    path = tmp_path / "deep.json"
    path.write_bytes(data)
    for argv in (["analyze", str(path)], ["verify", "--corpus", str(path)]):
        code, out, err = run(argv)
        assert code == 2 and out == "" and err.startswith("error:")


def test_bad_jacobi_exit_3(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 3, "basis": ["a", "b", "c"],
        "brackets": [{"i": 0, "j": 1, "c": {"2": "1"}},
                     {"i": 0, "j": 2, "c": {"0": "1"}},
                     {"i": 1, "j": 2, "c": {"1": "1"}}]}))
    code, _, err = run(["analyze", str(path)])
    assert code == 3
    assert "Jacobi" in err


def test_component_index_out_of_range_exit_3(run, tmp_path):
    path = tmp_path / "range.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "c": {"5": "1"}}]}))
    code, _, err = run(["analyze", str(path)])
    assert code == 3
    assert "component index 5" in err
    assert "Traceback" not in err


def test_extension_too_high_exit_4(run, tmp_path):
    # ad(h) acts on <x, y, z> as the companion matrix of t^3 - 2
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({
        "dim": 4, "basis": ["h", "x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "c": {"2": "1"}},
                     {"i": 0, "j": 2, "c": {"3": "1"}},
                     {"i": 0, "j": 3, "c": {"1": "2"}}]}))
    code, _, err = run(["roots", str(path), "--cartan", "h"])
    assert code == 4
    assert "tower" in err or "extension" in err.lower()


def test_embed_precondition_exit_5(run):
    code, _, err = run(["embed", "wave15", "--mode", "nilpotent",
                        "--subspace", "e2"])
    assert code == 5
    assert "precondition" in err


@pytest.mark.parametrize("argv", [
    ["embed", "wave15", "--mode", "torus", "--subspace", "e2+1/0*e6"],
    ["analyze", "so(1,0)"],
    ["analyze", "so(x,2)"],
    ["analyze", "so(-1,3)", "--format", "text"],
    ["analyze", "so(3,-1)"],
    ["analyze", "so(2,2,1)"],
    ["analyze", "so()"],
    ["analyze", "so(2)"],
    # more digits than int() converts by default on Python >= 3.11
    ["analyze", "so(" + "9" * 5000 + ",1)"],
    # neither a catalog name nor a readable file
    ["analyze", "x" * 5000],
    ["analyze", "no/such/" + "x" * 60 + ".json"],
])
def test_malformed_input_exit_2(run, argv):
    code, _, err = run(argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.encode()) < 200  # the input name is cut to 40 characters
    if argv[1].startswith("so("):
        assert err == (f"error: invalid algebra name {argv[1][:40]!r}: expected "
                       "so(p,q) with integers 0 <= p, q <= 9999 and p + q >= 2\n")
    elif argv[1].startswith("no/"):
        assert err == (f"error: cannot read input {argv[1][:40]!r}: "
                       "No such file or directory\n")


@pytest.mark.parametrize("table,message", [
    ({"dim": 2, "basis": ["a", "a"], "brackets": []},
     "repeated basis name 'a'"),
    ({"dim": 2, "basis": ["a", "b"],
      "brackets": [{"i": 0, "j": 1, "c": {"1": "1"}},
                   {"i": 0, "j": 1, "c": {"0": "1"}}]},
     "two brackets entries for the pair (0, 1)"),
    ({"dim": "2", "basis": ["a", "b"], "brackets": []},
     "dim must be an integer, got '2'"),
    ({"dim": 2, "basis": ["a", 2], "brackets": []},
     "basis names must be strings, got 2"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": True, "j": 1, "c": {"0": "1"}}]},
     "bracket indices must be integers, got (True, 1)"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0.0, "j": 1, "c": {"0": "1"}}]},
     "bracket indices must be integers, got (0.0, 1)"),
], ids=["repeated basis name", "repeated bracket pair", "string dim",
        "integer basis name", "boolean index", "float index"])
def test_inconsistent_table_exit_2(run, tmp_path, table, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(["analyze", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: malformed algebra JSON: {message}\n"


@pytest.mark.parametrize("name", ["wave15", "wave16", "g2", "so(2,2)", "so(1,3)",
                                  "so(4,0)"])
def test_analyze_json_pinned(run, name):
    """The whole analyze payload, the Killing determinant string included."""
    pinned = json.loads((Path(__file__).parent / "data" / "analyze_pinned.json")
                        .read_text())[name]
    code, out, err = run(["analyze", name, "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(pinned, indent=2, sort_keys=True) + "\n"


_CLI_PINNED = json.loads((Path(__file__).parent / "data" / "cli_pinned.json").read_text())


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(_CLI_PINNED))
def test_readme_command_stdout_pinned(run, command, fmt):
    """The README commands the benchmark's cli workload runs, embed traces
    included, print byte for byte what they printed before subspaces kept
    scaled integer rows."""
    code, out, err = run(command.split() + ["--format", fmt])
    assert (code, err) == (0, "")
    assert out == _CLI_PINNED[command][fmt]


def test_zero_denominator_in_table_exit_2(run, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "c": {"1": "1/0"}}]}))
    code, _, err = run(["analyze", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_non_numeric_coefficient_in_table_exit_2(run, tmp_path):
    path = tmp_path / "abc.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "c": {"1": "abc"}}]}))
    code, out, err = run(["analyze", str(path)])
    assert code == 2
    assert out == "" and err.startswith("error:") and "abc" in err


@pytest.mark.parametrize("coef", ["1e3000000", "0.5", "1E2", "1_0"])
def test_exponent_or_decimal_coefficient_in_table_exit_2(run, tmp_path, coef):
    import time
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "c": {"1": coef}}]}))
    start = time.perf_counter()
    code, out, err = run(["analyze", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and err.startswith("error:") and coef in err


def test_unrecognized_root_system_exit_5(run):
    code, out, err = run(["dynkin", "so(2,2)", "--cartan", "e1", "--cartan",
                          "e6", "--positive-system", "as-given"])
    assert code == 5
    assert out == ""
    assert err.startswith("error: precondition failed:")
    assert "Traceback" not in err


def test_search_budget_exhausted_exit_5(run):
    code, _, err = run(["embed", "wave15", "--mode", "compact-torus",
                        "--subspace", "e15", "--budget", "1"])
    assert code == 5
    assert "within budget 1" in err


def test_search_budget_zero_tries_no_candidate(run):
    code, out, err = run(["embed", "wave15", "--mode", "nilpotent",
                          "--subspace", "e8", "--budget", "0"])
    assert (code, out) == (5, "")
    assert "within budget 0" in err


def test_negative_budget_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["embed", "wave15", "--mode", "nilpotent", "--subspace", "e8",
              "--budget", "-1"])
    assert exc.value.code == 2
    assert "not a nonnegative integer: '-1'" in capsys.readouterr().err


def test_closed_stdout_keeps_exit_code_and_quiet_stderr():
    """A reader that closes the pipe before any output (``| head -1`` that
    has already read its line) neither turns into a traceback on stderr
    nor changes the exit code."""
    with subprocess.Popen([sys.executable, "-m", "lieembed", "vf-brackets", "g2",
                           "--format", "text"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def test_embed_nilpotent_wave(run):
    code, out, _ = run(["embed", "wave15", "--mode", "nilpotent",
                        "--subspace", "e8,e10,e11,e12"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["maximal"]) == 6
    assert len(payload["cartan"]["cartan"]) == 3
    assert payload["trace"]["steps"][0]["rule"] == "3.3/step4-eigenvector"


def test_embed_torus_so22(run):
    code, out, _ = run(["embed", "so(2,2)", "--mode", "torus",
                        "--subspace", "e2", "--format", "text"])
    assert code == 0
    assert "maximal real torus: <e2, e5>" in out


def test_embed_g2_nilpotent(run):
    code, out, _ = run(["embed", "g2", "--mode", "nilpotent",
                        "--subspace", "X14,X13,X12", "--format", "text"])
    assert code == 0
    assert "maximal nilpotent: <X5, X9, X11, X12, X13, X14>" in out
    assert "split cartan: <X6, X8>" in out


def test_subspace_spec_parsing(run):
    code, out, _ = run(["embed", "wave15", "--mode", "abelian-nilpotent",
                        "--subspace", "e8+e10, e11, -e13+e6"])
    assert code == 5  # -e13+e6 is not nilpotent: precondition error path
    code, out, _ = run(["embed", "wave15", "--mode", "abelian-nilpotent",
                        "--subspace", "e8+e10"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["maximal"]) == 4


def test_roots_and_dynkin(run):
    code, out, _ = run(["roots", "so(4,0)", "--cartan", "e1,e6"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["roots"]) == 4
    code, out, _ = run(["dynkin", "so(4,0)", "--cartan", "e1,e6"])
    assert json.loads(out)["type"] == "A1xA1"
    code, out, _ = run(["dynkin", "g2", "--cartan", "X6,X8",
                        "--ambient", "X5,X14,X13,X12,X11,X9",
                        "--positive-system", "as-given"])
    assert json.loads(out)["type"] == "G2"


def test_repeated_cartan_joins_values(run):
    joined = run(["roots", "so(2,2)", "--cartan", "e1,e6", "--format", "text"])
    repeated = run(["roots", "so(2,2)", "--cartan", "e1", "--cartan", "e6",
                    "--format", "text"])
    last_only = run(["roots", "so(2,2)", "--cartan", "e6", "--format", "text"])
    assert repeated == joined
    assert repeated[0] == 0 and repeated != last_only
    assert len([ln for ln in repeated[1].splitlines() if ln.startswith("root ")]) == 4


def test_repeated_ambient_joins_values(run):
    base = ["dynkin", "g2", "--cartan", "X6,X8", "--positive-system", "as-given"]
    joined = run(base + ["--ambient", "X5,X14,X13,X12,X11,X9"])
    repeated = run(base + ["--ambient", "X5,X14,X13", "--ambient", "X12,X11,X9"])
    assert repeated == joined
    assert json.loads(repeated[1])["type"] == "G2"
    # an empty --ambient still means the whole algebra
    whole = ["roots", "so(2,2)", "--cartan", "e1,e6"]
    assert run(whole + ["--ambient", ""]) == run(whole)


def test_zero_ambient_gives_empty_decomposition(run):
    args = ["roots", "so(2,2)", "--cartan", "e1,e6", "--ambient", "e1-e1"]
    code, out, err = run(args)
    assert code == 0 and "Traceback" not in err
    payload = json.loads(out)
    assert payload["roots"] == [] and payload["zero_space"] == []
    assert run(args + ["--format", "text"])[1].strip() == "zero space: <>"


def test_vf_brackets(run, golden_corpus):
    code, out, _ = run(["vf-brackets", "wave16"])
    assert code == 0
    expected = next(c["expect"] for c in golden_corpus["cases"]
                    if c["kind"] == "table" and c["catalog"] == "wave16")
    assert json.loads(out) == expected


def test_vf_invariants(run):
    code, out, _ = run(["vf-invariants", "wave16", "--fields", "e8,e10,e11"])
    assert code == 0
    assert json.loads(out)["invariant_count"] == 2
    code, out, _ = run(["vf-invariants", "wave16",
                        "--fields", "e7-e16,e8,e9"])
    assert json.loads(out)["invariant_count"] == 3


def test_verify_shipped_corpus(run):
    code, out, _ = run(["verify"])
    assert code == 0
    assert "FAIL" not in out


def test_verify_corrupted_corpus(run, tmp_path, golden_corpus):
    corrupted = json.loads(json.dumps(golden_corpus))
    case = next(c for c in corrupted["cases"] if c["kind"] == "analyze")
    case["expect"]["radical_dim"] = 99
    path = tmp_path / "bad_corpus.json"
    path.write_text(json.dumps(corrupted))
    code, out, _ = run(["verify", "--corpus", str(path)])
    assert code == 1
    assert "FAIL" in out and "radical_dim" in out


def test_verify_unknown_catalog_fails_case(run, tmp_path, golden_corpus):
    corpus = {"cases": [{"name": "nope-table", "kind": "table",
                         "catalog": "nope", "expect": {}},
                        next(c for c in golden_corpus["cases"]
                             if c["kind"] == "analyze")]}
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(corpus))
    code, out, err = run(["verify", "--corpus", str(path)])
    assert code == 1
    assert "FAIL  nope-table\n      error: unknown catalog 'nope'" in out
    assert "1/2 cases passed" in out
    assert "Traceback" not in err


def test_verify_empty_corpus(run, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"cases": []}))
    code, out, _ = run(["verify", "--corpus", str(path)])
    assert code == 0
    assert "0/0" in out


def test_verify_deterministic_byte_identical():
    cmd = [sys.executable, "-m", "lieembed", "verify"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_embed_deterministic_byte_identical():
    cmd = [sys.executable, "-m", "lieembed", "embed", "wave15",
           "--mode", "nilpotent", "--subspace", "e8,e10,e11,e12"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("argv", [
    ["vf-brackets", "nope"],
    ["vf-invariants", "nope", "--fields", "e1"],
])
def test_unknown_catalog_exit_2(run, argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == "error: unknown catalog 'nope'\n"


def test_vf_invariants_unknown_field_exit_2(run):
    code, _, err = run(["vf-invariants", "wave16", "--fields", "e8,e99"])
    assert code == 2
    assert err == "error: unknown basis name 'e99'\n"


def test_non_object_table_exit_2(run, tmp_path):
    path = tmp_path / "a.json"
    path.write_text("[1, 2]")
    code, out, err = run(["analyze", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed algebra JSON:")


@pytest.mark.parametrize("corpus", [[1, 2], {"cases": [1]}, {"cases": {}}])
def test_verify_non_object_corpus_exit_2(run, tmp_path, corpus):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, err = run(["verify", "--corpus", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("name,key,value,diff", [
    ("so22-embed-torus", "subspace", None, "KeyError('subspace')"),
    ("so22-embed-torus", "subspace", [["1", "0"]],
     "ValueError('coordinate length != dim')"),
    ("so22-roots", "cartan", [["1/0", "1", "0", "0", "0", "0"]],
     "ZeroDivisionError('Fraction(1, 0)')"),
])
def test_verify_malformed_case_fails(run, tmp_path, golden_corpus, name, key,
                                     value, diff):
    case = json.loads(json.dumps(next(c for c in golden_corpus["cases"]
                                      if c["name"] == name)))
    case["name"] = "bad"
    if value is None:
        del case[key]
    else:
        case[key] = value
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"cases": [case]}))
    code, out, err = run(["verify", "--corpus", str(path)])
    assert code == 1 and err == ""
    assert out == f"FAIL  bad\n      error: malformed case: {diff}\n0/1 cases passed\n"


def test_non_integer_seed_exit_2(run, monkeypatch):
    monkeypatch.setenv("LIEEMBED_SEED", "abc")
    code, out, err = run(["embed", "wave15", "--mode", "compact-torus",
                          "--subspace", "e15"])
    assert code == 2 and out == ""
    assert err == "error: LIEEMBED_SEED must be an integer, got 'abc'\n"

