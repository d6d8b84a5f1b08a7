"""Golden-corpus verification: each stored case runs the ``ops`` call that
the CLI makes for the same inputs, and each expected key is diffed against
one value read from the payload (``GOLDEN_KEYS``).  Cases carry provenance
metadata; the shipped corpus lives in ``data/golden.json``."""

from __future__ import annotations

import json

from . import ops
from .errors import LieEmbedError, ParseError, Record
from .exactlin import rat
from .vecfield import algebra_by_name

# golden key -> its value in the payload of the case's ops call
GOLDEN_KEYS = {
    "dim": lambda p: p["dim"],
    "basis": lambda p: p["basis"],
    "brackets": lambda p: p["brackets"],
    "killing_signature": lambda p: [p["killing"]["signature"][k]
                                    for k in ("pos", "neg", "zero")],
    "killing_det_nonzero": lambda p: p["killing"]["determinant"] != "0",
    "radical_dim": lambda p: p["radical_dim"],
    "torus": lambda p: p["max_real_torus"] if p["mode"] == "torus" else p["torus"],
    "cartan": lambda p: p["cartan"]["cartan"],
    "real_part": lambda p: p["cartan"]["real_part"],
    "compact_part": lambda p: p["cartan"]["compact_part"],
    "maximal": lambda p: p["maximal"],
    "roots": lambda p: [{"root": r["root"], "dim": r["dim"]} for r in p["roots"]],
    "spaces": lambda p: [r["space"] for r in p["roots"]],
    "zero_dim": lambda p: len(p["zero_space"]),
    "dynkin": lambda p: p["type"],
    "count": lambda p: p["invariant_count"],
}


class CaseResult(Record):
    __slots__ = ("name", "passed", "diffs")  # str, bool, list of str

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}"
        for d in self.diffs:
            out += f"\n      {d}"
        return out


def load_shipped_corpus() -> dict:
    # imported here, not at the top: only verify reads the corpus, and
    # importlib.resources loads inspect on Python 3.12 and later
    from importlib import resources
    data = resources.files("lieembed").joinpath("data/golden.json").read_text()
    return json.loads(data)


def _vectors(L, rows) -> list:
    return [L.element(list(map(rat, row))) for row in rows]


def _payload(case: dict) -> dict:
    """The payload of the ops call that a case's inputs make."""
    kind = case["kind"]
    if kind == "table":
        return ops.vf_brackets(case["catalog"])[0]
    if kind == "invariants":
        combos = [{name: rat(c) for c, name in combo} for combo in case["fields"]]
        return ops.vf_invariants(case["catalog"], combos)[0]
    L = algebra_by_name(case["algebra"])
    if kind == "analyze":
        return ops.analyze(L)[0]
    if kind == "embed":
        return ops.embed(L, case["mode"], _vectors(L, case["subspace"]))[0]
    if kind != "roots":
        raise ParseError(f"unknown case kind {kind!r}")
    ambient = case.get("ambient")
    rsd = ops.decompose(L, _vectors(L, case["cartan"]),
                        _vectors(L, ambient) if ambient else None)
    payload = ops.roots(rsd)[0]
    if "dynkin" in case["expect"]:
        positive_system = case.get("positive_system", "first-nonzero")
        payload.update(ops.dynkin(rsd, positive_system)[0])
    return payload


def run_case(case: dict) -> CaseResult:
    """One case; a library error or a malformed case is a diff line."""
    diffs: list = []
    try:
        payload = _payload(case)
        for key, want in case["expect"].items():
            got = GOLDEN_KEYS[key](payload)
            if got != want:
                diffs.append(f"{key}: got {got!r}, expected {want!r}")
    except LieEmbedError as exc:
        diffs.append(ops.error_exit(exc)[1])
    except ops.MALFORMED as exc:
        diffs.append(f"error: malformed case: {exc!r}")
    return CaseResult(str(case.get("name")), not diffs, diffs)


def run_corpus(corpus: dict) -> tuple[list[CaseResult], bool]:
    cases = corpus.get("cases", []) if isinstance(corpus, dict) else None
    if not (isinstance(cases, list) and all(isinstance(c, dict) for c in cases)):
        raise ParseError("a corpus is an object whose 'cases' is a list of objects")
    results = [run_case(c) for c in cases]
    results.sort(key=lambda r: r.name)
    return results, all(r.passed for r in results)
