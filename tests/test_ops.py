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
from lieembed.corpus import GOLDEN_KEYS, CaseResult, _vectors, run_case
from lieembed.errors import LieEmbedError, NotAPositiveSystem, NotASubalgebra
from lieembed.vecfield import algebra_by_name
from matrixops import killing_matrix, scaled

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


def test_first_nonzero_refuses_a_one_sided_root_set(golden_corpus):
    """The first-nonzero rule halves a root set closed under negation.  On
    the two one-sided golden ambients (the wave B2 and the g2 G2 of the
    paper) it raises NotAPositiveSystem naming a root whose negative is
    missing, through ops.dynkin and through the CLI with or without
    ``--positive-system first-nonzero`` (exit 5, nothing on stdout),
    instead of labelling half the positive roots A1 and A1xA1; as-given
    still gives B2 and G2."""
    cases = [c for c in golden_corpus["cases"] if c.get("positive_system") == "as-given"]
    assert sorted(c["name"] for c in cases) == ["g2-restricted-G2", "wave-restricted-B2"]
    for case in cases:
        L = algebra_by_name(case["algebra"])
        rsd = ops.decompose(L, _vectors(L, case["cartan"]), _vectors(L, case["ambient"]))
        values = {r.values for r in rsd.roots}
        with pytest.raises(NotAPositiveSystem, match="no negative among the roots"
                           ) as info:
            ops.dynkin(rsd, "first-nonzero")
        named = [r for r in rsd.roots if str(info.value).startswith(f"the root {r} ")]
        assert len(named) == 1 and (-named[0]).values not in values, case["name"]
        assert ops.dynkin(rsd, "as-given")[0]["type"] == case["expect"]["dynkin"]
        dynkin = next(argv for argv in _cli_requests(case) if argv[0] == "dynkin")
        assert dynkin[-2:] == ["--positive-system", "as-given"]
        for argv in (dynkin[:-2], dynkin[:-1] + ["first-nonzero"]):
            code, out, err = _main(argv)
            assert (code, out) == (5, ""), (case["name"], argv)
            assert err == f"error: precondition failed: {info.value}\n"


def test_analyze_computes_the_radical_once(monkeypatch):
    import lieembed.liecore as liecore
    from lieembed.liecore import LieAlgebra, Subspace
    calls = []
    real_radical, real_series = liecore.radical, liecore._radical_series

    def counted(obj):
        calls.append(obj)
        return real_series(obj)
    # radical and levi_decomposition both read the series
    monkeypatch.setattr(liecore, "_radical_series", counted)
    for name in ("wave15", "wave16", "g2"):
        L = LieAlgebra.from_json(algebra_by_name(name).to_json(), name=name)
        calls.clear()
        payload, text = ops.analyze(L)
        assert calls == [Subspace.full(L)]
        assert payload["radical"] == real_radical(L).to_json()
        assert f"radical: {real_radical(L)} (dim {payload['radical_dim']})" in text


@pytest.mark.parametrize("name", ["wave15", "g2"])
def test_analyze_of_a_semisimple_algebra_takes_no_kernel(name, monkeypatch):
    """radical reads the kept Killing signature first: zero == 0 alone
    makes the algebra semisimple (Cartan's criterion), so no null space of
    the Killing matrix is computed; the payload is the pinned one."""
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


_EMBED_PINNED = json.loads((Path(__file__).parent / "data" / "embed_pinned.json").read_text())


@pytest.mark.parametrize("case", _EMBED_PINNED,
                         ids=lambda c: f"{c['algebra']}-{c['mode']}-{c['subspace'] or 'zero'}")
def test_embed_payload_and_text_pinned(case):
    """Abelian-nilpotent and nilpotent embeds that no golden case covers,
    traces included, as they were before the two modes shared one loop."""
    L = load_algebra(case["algebra"])
    payload, text = ops.embed(L, case["mode"], parse_subspace_spec(L, case["subspace"]))
    assert json.loads(json.dumps(payload)) == case["json"]
    assert text == case["text"]


def test_embed_pinned_cases_reach_every_nilpotent_rule():
    from lieembed import embed
    rules = {s["rule"] for c in _EMBED_PINNED for s in c["json"]["trace"]["steps"]}
    assert rules == {embed.RULE_AB_DERIVED, embed.RULE_AB_JORDAN, embed.RULE_AB_EIGEN,
                     embed.RULE_NIL_DERIVED, embed.RULE_NIL_JORDAN, embed.RULE_NIL_EIGEN}


# _scaled_vector calls of the nilpotent embed below, by caller: 26 joint
# weights in torus_split (one per weight of its two calls), 6 spanning
# vectors, 5 elements whose ad columns spectrum reads, 3 torus elements
# whose scaled form and ad columns are kept under ("ad", h) (embed's
# eigenvector step reads one of them through rootsys.joint_eigenspaces,
# and both torus_split calls read all three), 4 Jordan elements whose ad
# columns also give their spectrum, and 2 Killing norms of screened
# candidates.  The Killing form, the ad map and the Jordan pull-back read
# integer tables and scale no further vector.  With the eigenvector
# step's element scaled again for the torus the request made 47 calls,
# with the torus's ad columns read again by the second torus_split 50,
# with a Fraction ad matrix and semisimple part per Jordan element 56,
# with Fraction Killing and ad matrices and Fraction weight rows 126, with
# Fraction ad matrices handed to restrict and kernel_of 777, and with
# Fraction tuples as subspace state 3,922
SCALED_VECTOR_CALLS = 46


def test_nilpotent_embed_scales_few_fraction_vectors(monkeypatch):
    """Subspaces keep scaled integer rows, so a nilpotent embed of wave15
    turns few Fraction tuples into ints; the count is pinned so that a
    round trip through Fraction cannot come back unnoticed.  Every
    lieembed module that binds _scaled_vector is patched, so a by-name
    import cannot hide calls."""
    import importlib
    import pkgutil
    import lieembed
    import lieembed.exactlin as exactlin
    from lieembed.liecore import LieAlgebra
    # built before counting: algebra_by_name keeps the catalog algebras
    L = LieAlgebra.from_json(algebra_by_name("wave15").to_json(), name="wave15")
    calls = []
    real = exactlin._scaled_vector
    patched = set()
    for info in pkgutil.iter_modules(lieembed.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lieembed.{info.name}")
        if hasattr(module, "_scaled_vector"):
            monkeypatch.setattr(module, "_scaled_vector", lambda v: calls.append(v) or real(v))
            patched.add(info.name)
    assert {"exactlin", "liecore"} <= patched
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
        den, rows = L.killing_table()
        assert calls == [(den, 0, rows)]
        pos, neg, zero, det = real_signature(scaled(killing_matrix(L)))
        assert payload["killing"] == {
            "determinant": ops.format_rat(det),
            "signature": {"pos": pos, "neg": neg, "zero": zero}}


def test_one_store_keeps_every_kind_once(wave16):
    """On a cold copy of wave16, analyze, a nilpotent embed and a roots call
    leave every kind of kept result in the algebra's one store
    (LieAlgebra.kept), and repeating them adds no entry and makes none
    again."""
    from lieembed.liecore import LieAlgebra
    L = LieAlgebra.from_json(wave16.to_json(), name="wave16")

    def requests():
        ops.analyze(L)
        ops.embed(L, "nilpotent", parse_subspace_spec(L, "e8,e10,e11,e12"))
        ops.roots(ops.decompose(L, parse_subspace_spec(L, "e7,e2,e14"), None))

    requests()
    kept = dict(L._store)
    assert {key[0] for key in kept} == {"killing_table", "killing_data", "ad_map",
                                        "spectrum", "eigenspaces", "series", "ad"}
    requests()
    assert L._store.keys() == kept.keys()
    assert all(L._store[key] is value for key, value in kept.items())


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

