"""Operations layer: the CLI and ``verify`` share one path, and no input
ends in a traceback."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieembed import ops
from lieembed.cli import load_algebra, main, parse_element, parse_subspace_spec
from lieembed.corpus import GOLDEN_KEYS, CaseResult, run_case
from lieembed.errors import LieEmbedError, NotASubalgebra
from lieembed.vecfield import algebra_by_name

# a fifth of the active profile: 20 examples locally, 100 under the ci profile
FUZZ = settings(max_examples=settings.default.max_examples // 5, deadline=None)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _spec(L, rows):
    return ",".join(L.format_element(L.element(v)) for v in rows)


def _cli_requests(case):
    """The CLI commands that make the same ops calls as a golden case."""
    kind = case["kind"]
    if kind == "table":
        return [["vf-brackets", case["catalog"]]]
    if kind == "invariants":
        W = algebra_by_name(case["catalog"])
        fields = _spec(W, [W.element({n: c for c, n in combo})
                           for combo in case["fields"]])
        return [["vf-invariants", case["catalog"], "--fields", fields]]
    L = algebra_by_name(case["algebra"])
    if kind == "analyze":
        return [["analyze", case["algebra"]]]
    if kind == "embed":
        return [["embed", case["algebra"], "--mode", case["mode"],
                 "--subspace", _spec(L, case["subspace"])]]
    args = [case["algebra"], "--cartan", _spec(L, case["cartan"])]
    if case.get("ambient"):
        args += ["--ambient", _spec(L, case["ambient"])]
    requests = [["roots"] + args]
    if "dynkin" in case["expect"]:
        requests.append(["dynkin"] + args + [
            "--positive-system", case.get("positive_system", "first-nonzero")])
    return requests


def test_cli_json_matches_every_golden_case(golden_corpus):
    kinds = set()
    for case in golden_corpus["cases"]:
        payload = {}
        for argv in _cli_requests(case):
            code, out, err = _main(argv + ["--format", "json"])
            assert code == 0, (case["name"], err)
            payload.update(json.loads(out))
        for key, want in case["expect"].items():
            assert GOLDEN_KEYS[key](payload) == want, (case["name"], key)
        kinds.add(case["kind"])
    assert kinds == {"table", "analyze", "embed", "roots", "invariants"}


def test_analyze_computes_the_radical_once(monkeypatch):
    import lieembed.liecore as liecore
    from lieembed.liecore import LieAlgebra, Subspace
    calls = []
    real_radical = liecore.radical

    def counted(obj):
        calls.append(obj)
        return real_radical(obj)
    monkeypatch.setattr(liecore, "radical", counted)
    monkeypatch.setattr(ops, "radical", counted, raising=False)  # a direct call
    for name in ("wave15", "wave16", "g2"):
        L = LieAlgebra.from_json(algebra_by_name(name).to_json(), name=name)
        calls.clear()
        payload, text = ops.analyze(L)
        assert calls == [Subspace.full(L)]
        assert payload["radical"] == real_radical(L).to_json()
        assert f"radical: {real_radical(L)} (dim {payload['radical_dim']})" in text


@pytest.mark.parametrize("name", ["wave15", "g2"])
def test_analyze_of_a_semisimple_algebra_takes_no_kernel(name, monkeypatch):
    """radical reads the kept Killing signature: a perfect algebra with
    zero == 0 is semisimple, so no null space of the Killing matrix is
    computed; the payload is the pinned one."""
    import lieembed.exactlin as exactlin
    import lieembed.liecore as liecore
    from lieembed.liecore import LieAlgebra
    kernels = []
    for module in (exactlin, liecore):
        real = module._kernel_ints
        monkeypatch.setattr(module, "_kernel_ints",
                            lambda rows, d, width, real=real:
                            kernels.append(rows) or real(rows, d, width))
    L = LieAlgebra.from_json(algebra_by_name(name).to_json(), name=name)
    payload, _ = ops.analyze(L)
    assert kernels == []
    pinned = json.loads((Path(__file__).parent / "data" / "analyze_pinned.json")
                        .read_text())[name]
    assert json.loads(json.dumps(payload)) == pinned
    assert L.killing_data() is L.killing_data()  # eliminated once, kept


# _scaled_vector calls of the nilpotent embed below: 758 are the Fraction
# rows of the ad matrices handed to restrict and kernel_of in rootsys (with
# Fraction tuples as subspace state the same request made 3,922); 19 are
# linear_solver scaling its input, the 15 columns of the ad map and 4 Jordan
# parts pulled back through it
SCALED_VECTOR_CALLS = 777


def test_nilpotent_embed_scales_few_fraction_vectors(monkeypatch):
    """Subspaces keep scaled integer rows, so a nilpotent embed of wave15
    turns few Fraction tuples into ints; the count is pinned so that a
    round trip through Fraction cannot come back unnoticed."""
    import lieembed.exactlin as exactlin
    import lieembed.liecore as liecore
    from lieembed.liecore import LieAlgebra
    # built before counting: algebra_by_name keeps the catalog algebras
    L = LieAlgebra.from_json(algebra_by_name("wave15").to_json(), name="wave15")
    calls = []
    real = exactlin._scaled_vector
    for module in (exactlin, liecore):
        monkeypatch.setattr(module, "_scaled_vector", lambda v: calls.append(v) or real(v))
    vectors = parse_subspace_spec(L, "e8,e10,e11,e12")
    payload, _ = ops.embed(L, "nilpotent", vectors)
    assert payload["maximal"] and len(calls) == SCALED_VECTOR_CALLS


def test_analyze_eliminates_the_killing_matrix_once(monkeypatch):
    """One symmetric elimination gives the signature and the determinant;
    no second signature (killing_signature) and no determinant routine."""
    import lieembed.exactlin as exactlin
    import lieembed.liecore as liecore
    from lieembed.liecore import LieAlgebra
    calls = []
    real_signature = exactlin.symmetric_signature

    def counted(m):
        calls.append(m)
        return real_signature(m)

    def forbidden(*args):
        raise AssertionError("killing_signature eliminates the Killing matrix again")

    for module in (exactlin, liecore, ops):
        monkeypatch.setattr(module, "symmetric_signature", counted, raising=False)
    monkeypatch.setattr(liecore, "killing_signature", forbidden)
    assert not hasattr(exactlin, "determinant")
    for name in ("wave15", "wave16", "g2", "so(2,2)"):
        L = LieAlgebra.from_json(algebra_by_name(name).to_json(), name=name)
        calls.clear()
        payload, _ = ops.analyze(L)
        assert calls == [L.killing_matrix()]
        pos, neg, zero, det = real_signature(L.killing_matrix())
        assert payload["killing"] == {
            "determinant": ops.format_rat(det),
            "signature": {"pos": pos, "neg": neg, "zero": zero}}


def test_other_library_errors_are_failed_preconditions():
    assert ops.error_exit(NotASubalgebra("bracket leaves the subspace")) == (
        5, "error: precondition failed: bracket leaves the subspace")


# ----------------------------------------------------------------------------
# fuzzing: every input gives a result or a documented exit code


_ELEMENT_TEXT = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="e123456m+-*/ ,0", max_size=20),
    st.integers(4290, 4310).map(lambda n: "9" * n + "*e1"))


@FUZZ
@given(_ELEMENT_TEXT)
def test_fuzz_element_parsing(text):
    L = algebra_by_name("wave15")
    for parse in (parse_element, parse_subspace_spec):
        try:
            result = parse(L, text)
        except LieEmbedError as exc:
            assert ops.error_exit(exc)[0] == ops.EXIT_PARSE
        else:
            vectors = result if parse is parse_subspace_spec else [result]
            assert all(len(v) == L.dim for v in vectors)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
_SCALAR = st.sampled_from(["0", "1", "-1", "1/2", "1/0", "abc", "2", "1e3000000",
                           "-2E5", "0.5", ".5", "1.5e2", "1_000"])
_TABLE = st.fixed_dictionaries({
    "dim": st.integers(0, 3) | _JSON,
    "basis": st.lists(st.text(min_size=1, max_size=2), max_size=3) | _JSON,
    "brackets": st.lists(st.fixed_dictionaries({
        "i": st.integers(-1, 3) | _JSON, "j": st.integers(-1, 3) | _JSON,
        "c": st.dictionaries(st.sampled_from(["0", "1", "2", "9", "x"]),
                             _SCALAR | _JSON, max_size=3) | _JSON}),
        max_size=3) | _JSON})


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "algebra.json"


@FUZZ
@given(_JSON | _TABLE)
def test_fuzz_json_table_loader(json_path, obj):
    json_path.write_text(json.dumps(obj))
    code, _, err = _main(["analyze", str(json_path)])
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err == "")


_COUNT = st.integers(-2, 3).map(str) | st.text(max_size=3)


@FUZZ
@given(st.builds("so({},{})".format, _COUNT, _COUNT) | st.text(max_size=8))
def test_fuzz_so_pq_names(name):
    try:
        L = load_algebra(name)
    except LieEmbedError as exc:
        assert ops.error_exit(exc)[0] == ops.EXIT_PARSE
        return
    code, _, _ = _main(["analyze", name])
    assert code == 0 and L.dim >= 1


_ROWS = st.lists(st.lists(_SCALAR | st.integers(-2, 2) | _JSON, min_size=3,
                          max_size=3) | st.lists(_SCALAR, max_size=4),
                 max_size=3)
_CASE = st.fixed_dictionaries(
    {"name": st.text(max_size=4),
     "kind": st.sampled_from(["table", "analyze", "embed", "roots",
                              "invariants", "other"]),
     "expect": st.dictionaries(st.sampled_from(sorted(GOLDEN_KEYS) + ["x"]),
                               _JSON, max_size=3) | _JSON},
    optional={"algebra": st.sampled_from(["so(2,1)", "so(3,0)", "nope",
                                          "so(x,1)"]) | _JSON,
              "catalog": st.sampled_from(["wave16", "nope"]) | _JSON,
              "mode": st.sampled_from(["torus", "compact-torus", "nilpotent",
                                       "abelian-nilpotent", "x"]),
              "subspace": _ROWS, "cartan": _ROWS, "ambient": _ROWS,
              "positive_system": st.sampled_from(["as-given", "first-nonzero"]),
              "fields": st.lists(st.lists(st.tuples(
                  _SCALAR, st.sampled_from(["e1", "e8", "e16", "zz"])),
                  max_size=2), max_size=3) | _JSON})


@FUZZ
@given(_CASE)
def test_fuzz_corpus_cases(case):
    result = run_case(case)
    assert isinstance(result, CaseResult)
    assert result.passed == (not result.diffs)
    assert all(d.startswith("error: ") or ": got " in d for d in result.diffs)
