"""Golden-corpus verification: run stored cases and diff against expected
values.  Cases carry provenance metadata; the shipped corpus lives in
``data/golden.json``."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from .errors import LieEmbedError
from .exactlin import rat
from .liecore import LieAlgebra, Subspace, killing_signature, radical
from .rootsys import (dynkin_type, restricted_roots,
                      root_space_decomposition, simple_roots, is_positive)
from .embed import (embed_abelian_nilpotent, embed_compact_torus,
                    embed_nilpotent, embed_real_torus)
from .vecfield import (algebra_by_name, catalog_by_name, invariant_count,
                       structure_constants)


@dataclass
class CaseResult:
    name: str
    passed: bool
    diffs: list

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}"
        for d in self.diffs:
            out += f"\n      {d}"
        return out


def load_shipped_corpus() -> dict:
    data = resources.files("lieembed").joinpath("data/golden.json").read_text()
    return json.loads(data)


def _parse_subspace(L: LieAlgebra, vectors) -> Subspace:
    return Subspace(L, [L.element(list(map(rat, v))) for v in vectors])


def _lookup(find, name: str):
    """A catalog or algebra by name; an unknown name fails the case."""
    try:
        return find(name)
    except KeyError as exc:
        raise LieEmbedError(exc.args[0]) from None


def _diff(label: str, got, want, diffs: list) -> bool:
    if got != want:
        diffs.append(f"{label}: got {got!r}, expected {want!r}")
        return False
    return True


def run_case(case: dict) -> CaseResult:
    kind = case["kind"]
    diffs: list = []
    try:
        if kind == "table":
            L = structure_constants(_lookup(catalog_by_name, case["catalog"]))
            _diff("table", L.to_json(), case["expect"], diffs)
        elif kind == "analyze":
            L = _lookup(algebra_by_name, case["algebra"])
            exp = case["expect"]
            if "killing_signature" in exp:
                _diff("killing_signature", list(killing_signature(L)),
                      exp["killing_signature"], diffs)
            if "radical_dim" in exp:
                _diff("radical_dim", radical(L).dim, exp["radical_dim"], diffs)
            if "killing_det_nonzero" in exp:
                from .exactlin import determinant
                _diff("killing_det_nonzero",
                      determinant(L.killing_matrix()) != 0,
                      exp["killing_det_nonzero"], diffs)
        elif kind == "embed":
            L = _lookup(algebra_by_name, case["algebra"])
            sub = _parse_subspace(L, case["subspace"])
            mode = case["mode"]
            exp = case["expect"]
            if mode == "torus":
                torus, cd, _ = embed_real_torus(L, sub)
                got = {"torus": torus.to_json(), "cartan": cd.cartan.to_json(),
                       "real_part": cd.real_part.to_json(),
                       "compact_part": cd.compact_part.to_json()}
            elif mode == "compact-torus":
                cd = embed_compact_torus(L, sub)
                got = {"cartan": cd.cartan.to_json(),
                       "real_part": cd.real_part.to_json(),
                       "compact_part": cd.compact_part.to_json()}
            elif mode == "abelian-nilpotent":
                result, _ = embed_abelian_nilpotent(L, sub)
                got = {"maximal": result.to_json()}
            elif mode == "nilpotent":
                result, torus, cd, _ = embed_nilpotent(L, sub)
                got = {"maximal": result.to_json(), "torus": torus.to_json(),
                       "cartan": cd.cartan.to_json()}
            else:
                raise LieEmbedError(f"unknown embed mode {mode}")
            for key, want in exp.items():
                _diff(key, got.get(key), want, diffs)
        elif kind == "roots":
            L = _lookup(algebra_by_name, case["algebra"])
            basis = [L.element(list(map(rat, v))) for v in case["cartan"]]
            if case.get("ambient"):
                ambient = _parse_subspace(L, case["ambient"])
                rsd = restricted_roots(ambient, basis)
            else:
                rsd = root_space_decomposition(L, basis)
            got_roots = [{"root": r.to_json(), "dim": s.dim}
                         for r, s in rsd.pairs]
            exp = case["expect"]
            if "roots" in exp:
                _diff("roots", got_roots, exp["roots"], diffs)
            if "spaces" in exp:
                got_spaces = [s.to_json() for _r, s in rsd.pairs]
                _diff("spaces", got_spaces, exp["spaces"], diffs)
            if "dynkin" in exp:
                if case.get("positive_system") == "as-given":
                    pos = rsd.roots
                else:
                    pos = [r for r in rsd.roots if is_positive(r)]
                diag = dynkin_type(simple_roots(pos), pos)
                _diff("dynkin", diag.type_label, exp["dynkin"], diffs)
            if "zero_dim" in exp:
                _diff("zero_dim", rsd.zero_space.dim, exp["zero_dim"], diffs)
        elif kind == "invariants":
            cat = _lookup(catalog_by_name, case["catalog"])
            names = [f.name for f in cat.fields]
            fields = []
            for combo in case["fields"]:
                coeffs = [rat(0)] * len(names)
                for coef, name in combo:
                    coeffs[names.index(name)] = rat(coef)
                fields.append(cat.combination(coeffs))
            got = invariant_count(fields, len(cat.variables))
            _diff("count", got, case["expect"]["count"], diffs)
        else:
            raise LieEmbedError(f"unknown case kind {kind!r}")
    except LieEmbedError as exc:
        diffs.append(f"error: {exc}")
    return CaseResult(case["name"], not diffs, diffs)


def run_corpus(corpus: dict) -> tuple[list[CaseResult], bool]:
    results = [run_case(c) for c in corpus.get("cases", [])]
    results.sort(key=lambda r: r.name)
    return results, all(r.passed for r in results)
