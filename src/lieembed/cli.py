"""Command-line front end.

Commands: analyze, embed, roots, dynkin, vf-brackets, vf-invariants, verify.
stdout carries data (JSON by default), stderr carries diagnostics.  Exit
codes: 0 success, 1 verification mismatch, 2 parse error, 3 invalid
structure constants in the input (index out of range or bad Jacobi), 4
scalar-tower overflow, 5 embedding precondition failure (including a
candidate search that exhausts its budget, and a root system that matches
no Dynkin diagram).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (DegenerateRoot, ExtensionDegreeTooHigh,
                     InvalidStructureConstants, NoCompactFound,
                     NoRealSemisimpleFound, NotAbelianNilpotent, NotATorus,
                     NotNilpotent, NotSplit, UnrecognizedBondPattern,
                     UnrecognizedDiagram)
from .exactlin import determinant, format_rat
from .liecore import (LieAlgebra, Subspace, killing_signature,
                      levi_decomposition, radical)
from .rootsys import (dynkin_type, is_positive, restricted_roots,
                      root_space_decomposition, simple_roots)
from .embed import (embed_abelian_nilpotent, embed_compact_torus,
                    embed_nilpotent, embed_real_torus)
from .vecfield import (algebra_by_name, catalog_by_name, invariant_count,
                       structure_constants)
from . import corpus as corpus_mod

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_EXTENSION = 4
EXIT_PRECONDITION = 5

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*(?P<name>[A-Za-z]\w*)")


class CliError(Exception):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


def parse_element(L: LieAlgebra, text: str):
    """One linear combination over basis names, e.g. ``-e13+e6`` or
    ``2e12+1/2*e5``."""
    pos = 0
    coords = {}
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise CliError(f"cannot parse element term at {text[pos:]!r}",
                           EXIT_PARSE)
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise CliError(f"zero denominator in {m.group('coef')!r}",
                           EXIT_PARSE) from None
        name = m.group("name")
        if name not in L.basis_names:
            raise CliError(f"unknown basis name {name!r}", EXIT_PARSE)
        coords[name] = coords.get(name, Fraction(0)) + sign * coef
        pos = m.end()
    if not coords:
        raise CliError("empty element", EXIT_PARSE)
    return L.element(coords)


def parse_subspace_spec(L: LieAlgebra, spec: str):
    return [parse_element(L, part) for part in spec.split(",") if part.strip()]


def load_algebra(ref: str) -> LieAlgebra:
    """Catalog name (wave15, wave16, g2, so(p,q)) or a JSON file path."""
    try:
        return algebra_by_name(ref)
    except KeyError:
        pass
    except ValueError as exc:  # a malformed so(p,q) name
        raise CliError(f"invalid algebra name {ref!r}: {exc}", EXIT_PARSE)
    try:
        with open(ref) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read input {ref!r}: {exc}", EXIT_PARSE)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {ref!r}: {exc}", EXIT_PARSE)
    try:
        return LieAlgebra.from_json(obj, name=ref)
    except InvalidStructureConstants as exc:
        raise CliError(f"invalid algebra: {exc}", EXIT_INVARIANT)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed algebra JSON: {exc}", EXIT_PARSE)


def _emit(payload: dict, fmt: str, text_lines=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in (text_lines or []):
            print(line)


def _subspace_text(L: LieAlgebra, sub: Subspace) -> str:
    return "<" + ", ".join(L.format_element(r) for r in sub.rows) + ">"


def cmd_analyze(args) -> int:
    L = load_algebra(args.input)
    sig = killing_signature(L)
    det = determinant(L.killing_matrix())
    rad = radical(L)
    ld = levi_decomposition(Subspace.full(L))
    payload = {
        "algebra": L.name or args.input,
        "dim": L.dim,
        "basis": list(L.basis_names),
        "killing": {"determinant": format_rat(det),
                    "signature": {"pos": sig[0], "neg": sig[1], "zero": sig[2]}},
        "radical": rad.to_json(),
        "radical_dim": rad.dim,
        "levi": ld.levi.to_json(),
        "levi_dim": ld.levi.dim,
        "semisimple": rad.dim == 0,
    }
    text = [
        f"algebra {payload['algebra']} (dim {L.dim})",
        f"killing determinant: {format_rat(det)}",
        f"killing signature: +{sig[0]} -{sig[1]} 0:{sig[2]}",
        f"radical: {_subspace_text(L, rad)} (dim {rad.dim})",
        f"levi: {_subspace_text(L, ld.levi)} (dim {ld.levi.dim})",
        f"semisimple: {'yes' if rad.dim == 0 else 'no'}",
    ]
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_embed(args) -> int:
    L = load_algebra(args.input)
    vectors = parse_subspace_spec(L, args.subspace) if args.subspace else []
    sub = Subspace(L, vectors)
    opts = {"seed": args.seed, "budget": args.budget}
    if args.mode == "torus":
        torus, cd, trace = embed_real_torus(L, sub, **opts)
        payload = {"mode": args.mode, "max_real_torus": torus.to_json(),
                   "cartan": cd.to_json(), "trace": trace.to_json()}
        text = [f"maximal real torus: {_subspace_text(L, torus)}",
                f"cartan: {_subspace_text(L, cd.cartan)}",
                f"  real part: {_subspace_text(L, cd.real_part)}",
                f"  compact part: {_subspace_text(L, cd.compact_part)}"]
    elif args.mode == "compact-torus":
        cd = embed_compact_torus(L, sub, **opts)
        payload = {"mode": args.mode, "cartan": cd.to_json()}
        text = [f"maximally compact cartan: {_subspace_text(L, cd.cartan)}"]
    elif args.mode == "abelian-nilpotent":
        result, trace = embed_abelian_nilpotent(L, sub, **opts)
        payload = {"mode": args.mode, "maximal": result.to_json(),
                   "trace": trace.to_json()}
        text = [f"maximal abelian nilpotent: {_subspace_text(L, result)}"]
    else:
        result, torus, cd, trace = embed_nilpotent(L, sub, **opts)
        payload = {"mode": args.mode, "maximal": result.to_json(),
                   "torus": torus.to_json(), "cartan": cd.to_json(),
                   "trace": trace.to_json()}
        text = [f"maximal nilpotent: {_subspace_text(L, result)}",
                f"torus: {_subspace_text(L, torus)}",
                f"split cartan: {_subspace_text(L, cd.cartan)}"]
    _emit(payload, args.format, text)
    return EXIT_OK


def _decomposition(args, L):
    basis = parse_subspace_spec(L, ",".join(args.cartan))
    ambient = ",".join(args.ambient or ())
    if ambient:
        return restricted_roots(Subspace(L, parse_subspace_spec(L, ambient)), basis)
    return root_space_decomposition(L, basis)


def cmd_roots(args) -> int:
    L = load_algebra(args.input)
    rsd = _decomposition(args, L)
    payload = rsd.to_json()
    text = []
    for r, s in rsd.pairs:
        text.append(f"root {r}: dim {s.dim} {_subspace_text(L, s)}")
    text.append(f"zero space: {_subspace_text(L, rsd.zero_space)}")
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_dynkin(args) -> int:
    L = load_algebra(args.input)
    rsd = _decomposition(args, L)
    if args.positive_system == "as-given":
        positives = rsd.roots
    else:
        positives = [r for r in rsd.roots if is_positive(r)]
    simples = simple_roots(positives)
    diag = dynkin_type(simples, positives)
    payload = diag.to_json()
    text = [f"type: {diag.type_label}",
            f"simple roots: {', '.join(str(r) for r in simples)}"]
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_vf_brackets(args) -> int:
    cat = catalog_by_name(args.catalog)
    L = structure_constants(cat)
    payload = L.to_json()
    text = []
    for (i, j), comp in sorted(L.brackets.items()):
        lhs = f"[{L.basis_names[i]},{L.basis_names[j]}]"
        rhs = " + ".join(f"{format_rat(c)}*{L.basis_names[k]}"
                         for k, c in sorted(comp.items()))
        text.append(f"{lhs} = {rhs}")
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_vf_invariants(args) -> int:
    cat = catalog_by_name(args.catalog)
    L = structure_constants(cat)
    names = [f.name for f in cat.fields]
    fields = []
    for part in args.fields.split(","):
        if not part.strip():
            continue
        coords = parse_element(L, part)
        fields.append(cat.combination(coords))
    count = invariant_count(fields, len(cat.variables))
    payload = {"n_vars": len(cat.variables), "fields": len(fields),
               "invariant_count": count}
    _emit(payload, args.format, [f"invariants: {count}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.corpus:
        try:
            with open(args.corpus) as fh:
                corpus = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read corpus: {exc}", EXIT_PARSE)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid corpus JSON: {exc}", EXIT_PARSE)
    else:
        corpus = corpus_mod.load_shipped_corpus()
    results, ok = corpus_mod.run_corpus(corpus)
    for r in results:
        print(r.summary())
    print(f"{sum(r.passed for r in results)}/{len(results)} cases passed")
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lieembed",
        description="Exact structural analysis and embedding algorithms for "
                    "real Lie algebras given by structure constants or "
                    "polynomial vector fields.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("analyze", help="Killing form, radical, Levi part")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("embed", help="run an embedding procedure")
    sp.add_argument("input")
    sp.add_argument("--mode", required=True,
                    choices=("torus", "compact-torus", "abelian-nilpotent",
                             "nilpotent"))
    sp.add_argument("--subspace", default="",
                    help="comma-separated combinations, e.g. 'e8+e10, e11'")
    sp.add_argument("--seed", type=int, default=None,
                    help="search seed (default LIEEMBED_SEED or 0)")
    sp.add_argument("--budget", type=int, default=10_000,
                    help="canonical search budget (candidate count)")
    common(sp)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("roots", help="root space decomposition")
    sp.add_argument("input")
    sp.add_argument("--cartan", required=True, action="append",
                    help="ordered torus basis, e.g. 'e7m16,e2'; repeated "
                         "options are joined in order")
    sp.add_argument("--ambient", action="append",
                    help="restrict to this subalgebra span; repeated "
                         "options are joined")
    common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("dynkin", help="simple roots and diagram label")
    sp.add_argument("input")
    sp.add_argument("--cartan", required=True, action="append")
    sp.add_argument("--ambient", action="append")
    sp.add_argument("--positive-system", choices=("first-nonzero", "as-given"),
                    default="first-nonzero", dest="positive_system",
                    help="'as-given' treats all decomposition roots as the "
                         "positive system (one-sided ambient)")
    common(sp)
    sp.set_defaults(func=cmd_dynkin)

    sp = sub.add_parser("vf-brackets", help="structure constants of a catalog")
    sp.add_argument("catalog")
    common(sp)
    sp.set_defaults(func=cmd_vf_brackets)

    sp = sub.add_parser("vf-invariants", help="joint invariant count")
    sp.add_argument("catalog")
    sp.add_argument("--fields", required=True,
                    help="comma-separated field combinations")
    common(sp)
    sp.set_defaults(func=cmd_vf_invariants)

    sp = sub.add_parser("verify", help="run the golden corpus")
    sp.add_argument("--corpus", default="",
                    help="corpus JSON path (default: shipped corpus)")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ExtensionDegreeTooHigh as exc:
        print(f"error: scalar tower exceeded: {exc}", file=sys.stderr)
        return EXIT_EXTENSION
    except (NotATorus, NotNilpotent, NotAbelianNilpotent, NotSplit,
            NoCompactFound, NoRealSemisimpleFound, DegenerateRoot,
            UnrecognizedBondPattern, UnrecognizedDiagram) as exc:
        print(f"error: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvalidStructureConstants as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
