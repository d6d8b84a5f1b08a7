"""Command-line front end.

Commands: analyze, embed, roots, dynkin, vf-brackets, vf-invariants, verify.
Each command parses its arguments into one ``ops`` call and prints the
payload.  stdout carries data (JSON by default), stderr carries
diagnostics.  Exit codes: 0 success, 1 verification mismatch, 2 parse
error (including an unknown catalog and a JSON document whose top level
is not an object), 3 invalid structure constants in the input (index out
of range or bad Jacobi), 4 scalar-tower overflow, 5 embedding precondition
failure (including a candidate search that exhausts its budget, and a root
system that matches no Dynkin diagram).  Every result depends only on the
command's arguments and input files; no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import corpus as corpus_mod
from . import ops
from .embed import DEFAULT_BUDGET
from .errors import InvalidStructureConstants, LieEmbedError, ParseError
from .exactlin import rat
from .liecore import LieAlgebra
from .vecfield import algebra_by_name

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*(?P<name>[A-Za-z]\w*)")


def parse_combination(text: str, names=None) -> dict:
    """Name -> coefficient map of one linear combination, e.g. ``-e13+e6``
    or ``2e12+1/2*e5``; names outside ``names`` (when given) are errors, and
    so is a term after the first that does not start with ``+`` or ``-``."""
    pos = 0
    coords = {}
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot parse element term at {text[pos:]!r}")
        if pos and not m.group("sign"):
            raise ParseError(f"expected + or - before {text[pos:].strip()[:40]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = rat(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {m.group('coef')[:40]!r}") from None
        name = m.group("name")
        if names is not None and name not in names:
            raise ParseError(f"unknown basis name {name!r}")
        coords[name] = coords.get(name, Fraction(0)) + sign * coef
        pos = m.end()
    if not coords:
        raise ParseError("empty element")
    return coords


def parse_element(L: LieAlgebra, text: str):
    return L.element(parse_combination(text, L.basis_names))


def parse_subspace_spec(L: LieAlgebra, spec: str):
    return [parse_element(L, part) for part in spec.split(",") if part.strip()]


def load_algebra(ref: str) -> LieAlgebra:
    """Catalog name (wave15, wave16, g2, so(p,q)) or a JSON file path."""
    try:
        return algebra_by_name(ref)
    except KeyError:
        pass
    except ValueError as exc:  # a malformed so(p,q) name
        raise ParseError(f"invalid algebra name {ref[:40]!r}: {exc}") from None
    try:
        with open(ref) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read input {ref[:40]!r}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, too deep
        raise ParseError(f"invalid JSON in {ref[:40]!r}: {exc}") from None
    try:
        return LieAlgebra.from_json(obj, name=ref)
    except InvalidStructureConstants:
        raise
    except ops.MALFORMED as exc:
        raise ParseError(f"malformed algebra JSON: {exc}") from None


def _write(lines) -> None:
    """Print the lines to stdout, the one place the commands write data.
    When the reader has gone (``| head -1``), later writes and the flush at
    exit go to the null device, so the command keeps its own exit code."""
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(result, fmt: str) -> int:
    payload, text = result
    _write([json.dumps(payload, indent=2, sort_keys=True)] if fmt == "json" else text)
    return ops.EXIT_OK


def cmd_analyze(args) -> int:
    return _emit(ops.analyze(load_algebra(args.input)), args.format)


def cmd_embed(args) -> int:
    L = load_algebra(args.input)
    return _emit(ops.embed(L, args.mode, parse_subspace_spec(L, args.subspace),
                           args.budget), args.format)


def cmd_roots(args) -> int:
    """``roots`` and ``dynkin``: both read one decomposition."""
    L = load_algebra(args.input)
    ambient = ",".join(args.ambient or ())
    rsd = ops.decompose(L, parse_subspace_spec(L, ",".join(args.cartan)),
                        parse_subspace_spec(L, ambient) if ambient else None)
    if args.command == "dynkin":
        return _emit(ops.dynkin(rsd, args.positive_system), args.format)
    return _emit(ops.roots(rsd), args.format)


def cmd_vf_brackets(args) -> int:
    return _emit(ops.vf_brackets(args.catalog), args.format)


def cmd_vf_invariants(args) -> int:
    combos = [parse_combination(part) for part in args.fields.split(",")
              if part.strip()]
    return _emit(ops.vf_invariants(args.catalog, combos), args.format)


def cmd_verify(args) -> int:
    if args.corpus:
        try:
            with open(args.corpus) as fh:
                corpus = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read corpus: {exc}") from None
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, too deep
            raise ParseError(f"invalid corpus JSON: {exc}") from None
    else:
        corpus = corpus_mod.load_shipped_corpus()
    results, ok = corpus_mod.run_corpus(corpus)
    _write([*(r.summary() for r in results),
            f"{sum(r.passed for r in results)}/{len(results)} cases passed"])
    return ops.EXIT_OK if ok else ops.EXIT_MISMATCH


def _budget(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return int(text)


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
    sp.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
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
    sp.set_defaults(func=cmd_roots)

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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LieEmbedError as exc:
        code, line = ops.error_exit(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
