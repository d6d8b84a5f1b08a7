"""Command-line interface: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
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


@pytest.mark.parametrize("limit", [None, "0", "640"])
def test_over_long_key_and_coefficient(tmp_path, limit):
    """A component key with more digits than dim is an out-of-range index
    (exit 3), and a coefficient with more than 4300 digits in its numerator
    or denominator a parse error that names the limit (exit 2), whatever
    the interpreter's limit on converting decimal strings to int; a
    coefficient of 641 to 4300 digits loads under every limit, in a table
    and in an element on the command line."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    path = tmp_path / "long.json"

    def analyze(comp):
        path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"],
                                    "brackets": [{"i": 0, "j": 1, "c": comp}]}))
        return subprocess.run([sys.executable, "-m", "lieembed", "analyze", str(path)],
                              capture_output=True, text=True, env=env)

    cases = [({"1" + "0" * 5000: "1"}, 3, "component index 10000000000000000000... "
              "(5001 digits) outside 0..1"),
             ({"-" + "9" * 5000: "1"}, 3, "component index -9999999999999999999... "
              "(5000 digits) outside 0..1"),
             ({"1": "1" * 4301}, 2, "more than 4300 digits in a rational p/q"),
             ({"1": "1/" + "3" * 4301}, 2, "more than 4300 digits in a rational p/q"),
             ({"1": "7" * 700 + "/" + "0" * 700}, 2, "zero denominator in '777")]
    for comp, code, message in cases:
        proc = analyze(comp)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert len(proc.stderr) < 200
    # [a, b] = c*b: the same answer for every c != 0, however many digits
    short = analyze({"1": "-2/3"})
    assert short.returncode == 0 and json.loads(short.stdout)["radical_dim"] == 2
    for c in ("1/" + "3" * 640, "-" + "1" * 641, "1" * 4300 + "/" + "7" * 4300):
        proc = analyze({"1": c})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, short.stdout, "")
    # the same limits on the coefficients of an element on the command line,
    # where a subspace is its span, whatever the scale

    def embed(spec):
        return subprocess.run([sys.executable, "-m", "lieembed", "embed", "wave15",
                               "--mode", "compact-torus", f"--subspace={spec}"],
                              capture_output=True, text=True, env=env)

    unit = embed("e15")
    assert unit.returncode == 0 and unit.stdout
    for spec in ("3" * 700 + "/7*e15", "-" + "1" * 4300 + "e15"):
        proc = embed(spec)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, unit.stdout, "")
    for spec, message in (("1" * 4301 + "e15", "more than 4300 digits in a rational p/q"),
                          ("3" * 700 + "/0*e15", "zero denominator in '333")):
        proc = embed(spec)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert len(proc.stderr) < 200


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


def test_abelian_nilpotent_jordan_step_over_a_surd_exit_4(run, tmp_path):
    """Dense so(3,1) under the seeded change of basis "fz:so31:2": the 3.2
    loop adjoins an eigenvector over Q(sqrt 3), and the next pass's Jordan
    step meets a radical row over that field.  That is a stated
    ExtensionDegreeTooHigh (exit 4), not min_poly's ValueError."""
    import random
    from test_exactlin import _perfbench_module
    rebase = _perfbench_module("rebase")
    names, table = rebase.so_pq(3, 1)
    P = rebase.unimodular(len(names), random.Random("fz:so31:2"))
    path = tmp_path / "so31-2.json"
    path.write_text(json.dumps(rebase.table_to_json(
        names, rebase.rebase(table, P, rebase.inverse(P)))))
    code, out, err = run(["embed", str(path), "--mode", "abelian-nilpotent"])
    assert (code, out) == (4, "")
    assert err == ("error: scalar tower exceeded: a Jordan decomposition of an element "
                   "over Q(sqrt(3)), not Q\n")


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
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "c": {" 1": "1", "1": "2"}}]},
     "bracket component keys must be canonical decimal integers, got ' 1'"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "c": {"1.5": "1"}}]},
     "bracket component keys must be canonical decimal integers, got '1.5'"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "c": ["1"]}]},
     "bracket components must be an object, got list"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "c": {"1": True}}]},
     "not a rational: True"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "c": {"1": False}}]},
     "not a rational: False"),
    ({"dim": 2, "basis": "ab", "brackets": []},
     "basis must be a list of names, got str"),
], ids=["repeated basis name", "repeated bracket pair", "string dim",
        "integer basis name", "boolean index", "float index", "aliased component keys",
        "decimal component key", "list of components", "boolean coefficient true",
        "boolean coefficient false", "string basis"])
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


@pytest.mark.parametrize("algebra,mode,spec", [
    ("wave16", "torus", "e2,e7,e16"),
    ("so(0,2)", "torus", "e1"),
    ("so(0,2)", "compact-torus", "e1"),
    ("wave16", "compact-torus", "e3+2*e11,e8+1/4*e9,e13,e16"),
])
def test_torus_output_round_trips(run, algebra, mode, spec):
    """A torus mode's output, fed back as its input, gives the same output.
    e16 of wave16 and e1 of so(0,2) are central: ad x = 0 is nilpotent and
    semisimple at once, so both torus modes take such an element."""
    code, out, err = run(["embed", algebra, "--mode", mode, "--format", "text"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0].split(": ")[1] == "<" + spec.replace(",", ", ") + ">"
    assert run(["embed", algebra, "--mode", mode, "--subspace", spec,
                "--format", "text"]) == (0, out, "")


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


@pytest.mark.parametrize("algebra, cartan, root", [
    ("wave15", "e7m16,e2,e14", "(-1, -1, 0)"),
    ("so(2,2)", "e1,e6", "((0+-1*sqrt(-1)), (0+-1*sqrt(-1)))")])
def test_as_given_roots_with_a_root_and_its_negative_exit_5(run, algebra, cartan, root):
    """Every root of a whole-algebra decomposition comes with its negative,
    so no as-given root is simple; the first such root is named."""
    code, out, err = run(["dynkin", algebra, "--cartan", cartan,
                          "--positive-system", "as-given"])
    assert code == 5 and out == ""
    assert err.startswith(f"error: precondition failed: the as-given roots hold both {root} ")
    assert "Traceback" not in err


@pytest.mark.parametrize("algebra, cartan, ambient, root", [
    ("g2", "X6,X8", "X5,X14,X13,X12,X11,X9", "(-1, 0)"),
    ("wave15", "e7m16,e2", "e2,e4-e15,e6-e13,e7m16,e8,e10,e11,e12,e14", "(-1, -1)")])
def test_first_nonzero_on_a_one_sided_ambient_exit_5(run, algebra, cartan, ambient, root):
    """The paper's one-sided G2 and B2 ambients without ``--positive-system
    as-given``: the first root with no negative is named, and no diagram of
    half the positive roots is printed."""
    code, out, err = run(["dynkin", algebra, "--cartan", cartan, "--ambient", ambient])
    assert code == 5 and out == ""
    assert err.startswith(f"error: precondition failed: the root {root} has no negative ")
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


def test_terms_after_the_first_need_a_sign(run):
    """A term after the first starts with + or -: "e8 e10" is not the one
    vector e8+e10, and "e1*e2" is not e1+e2.  The README forms parse as
    before."""
    from fractions import Fraction as F

    from lieembed.cli import parse_combination, parse_subspace_spec
    from lieembed.vecfield import algebra_by_name
    for spec in ("e8 e10", "e1*e2"):
        code, out, err = run(["embed", "wave15", "--mode", "abelian-nilpotent",
                              "--subspace", spec])
        assert (code, out) == (2, "") and err.startswith("error: expected + or - before")
    L = algebra_by_name("wave15")
    assert parse_subspace_spec(L, "e8+e10, e11, -e13+e6") == [
        L.element({"e8": 1, "e10": 1}), L.element({"e11": 1}),
        L.element({"e13": -1, "e6": 1})]
    assert parse_combination("2e12+1/2*e5") == {"e12": F(2), "e5": F(1, 2)}
    assert parse_combination("3/7*e15") == {"e15": F(3, 7)}


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


def _semidirect_table(path, images):
    """x acting on v1..vn by [x, v_i] = sum_j images[i][j] v_j."""
    n = len(images)
    brackets = [{"i": 0, "j": i + 1,
                 "c": {str(j + 1): str(c) for j, c in enumerate(row) if c}}
                for i, row in enumerate(images)]
    path.write_text(json.dumps({"dim": n + 1,
                                "basis": ["x"] + [f"v{i}" for i in range(1, n + 1)],
                                "brackets": brackets}))
    return str(path)


def test_roots_of_a_degree_six_product_in_one_field(run, tmp_path):
    """ad(x) on Q^6 is the companion matrix of (t^2-2)(t^2-2t-1)(t^2-4t+2):
    six roots a + b*sqrt(2), a in {0, 1, 2}, b = +-1, each on a line."""
    c = [4, 0, -20, 12, 7, -6]  # the product, monic, constant term first
    images = [[int(j == i + 1) for j in range(6)] for i in range(5)] + [[-x for x in c]]
    code, out, _ = run(["roots", _semidirect_table(tmp_path / "q6.json", images),
                        "--cartan", "x"])
    assert code == 0
    payload = json.loads(out)
    assert [(r["root"], r["dim"]) for r in payload["roots"]] == [
        ([{"a": str(a), "b": str(b), "d": 2}], 1) for a in (0, 1, 2) for b in (-1, 1)]
    assert len(payload["zero_space"]) == 1


@pytest.mark.parametrize("n", [5, 10 ** 12 + 39, 10 ** 16 + 61])
def test_roots_over_a_large_imaginary_field(run, tmp_path, n):
    """[x, v1] = v2, [x, v2] = -n*v1: roots +-sqrt(-n) for the primes n,
    with the same output at every size, in well under a second."""
    path = _semidirect_table(tmp_path / "rot.json", [[0, 1], [-n, 0]])
    start = time.perf_counter()
    code, out, _ = run(["roots", path, "--cartan", "x", "--format", "text"])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines() == [
        f"root ((0+-1*sqrt(-{n}))): dim 1 <v1+((0+1/{n}*sqrt(-{n})))*v2>",
        f"root ((0+1*sqrt(-{n}))): dim 1 <v1+((0+-1/{n}*sqrt(-{n})))*v2>",
        "zero space: <x>"]


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
    ("so22-embed-torus", "subspace", [[True, 0, 0, 0, 0, 0]],
     "TypeError('not a rational: True')"),
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


def test_verify_ignores_lieembed_seed(run, monkeypatch):
    """The candidate search has no seed setting and lieembed reads no
    environment variable, so this one changes nothing."""
    monkeypatch.setenv("LIEEMBED_SEED", "abc")
    code, out, err = run(["verify"])
    assert (code, err) == (0, "")
    assert out.endswith("\n27/27 cases passed\n")

