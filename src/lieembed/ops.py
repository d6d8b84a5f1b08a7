"""Operations layer: one request -> payload function per request kind.

Each function returns ``(payload, text)``: the JSON object that
``--format json`` prints and the lines that ``--format text`` prints.  The
CLI parses its arguments into these calls, and ``corpus.run_case`` turns
each golden case into the same call, so ``lieembed verify`` checks the code
the CLI runs.  ``ERRORS`` maps library errors to exit codes.
"""

from __future__ import annotations

from .embed import (DEFAULT_BUDGET, embed_abelian_nilpotent,
                    embed_compact_torus, embed_nilpotent, embed_real_torus)
from .errors import (ExtensionDegreeTooHigh, InvalidStructureConstants,
                     LieEmbedError, ParseError, UnknownName)
from .exactlin import determinant, format_rat
from .liecore import (LieAlgebra, Subspace, killing_signature,
                      levi_decomposition)
from .rootsys import (dynkin_type, is_positive, restricted_roots,
                      root_space_decomposition, simple_roots)
from .vecfield import algebra_by_name, catalog_by_name, invariant_count

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_EXTENSION = 4
EXIT_PRECONDITION = 5

# first match wins; every other library error is a failed precondition
ERRORS = (
    (InvalidStructureConstants, EXIT_INVARIANT, "invalid algebra: "),
    ((ParseError, UnknownName), EXIT_PARSE, ""),
    (ExtensionDegreeTooHigh, EXIT_EXTENSION, "scalar tower exceeded: "),
    (LieEmbedError, EXIT_PRECONDITION, "precondition failed: "),
)
# what malformed JSON input (a table or a corpus case) raises on the way in
MALFORMED = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def error_exit(exc: LieEmbedError) -> tuple[int, str]:
    """Exit code and ``error:`` line of a library error."""
    code, prefix = next((c, p) for t, c, p in ERRORS if isinstance(exc, t))
    return code, f"error: {prefix}{exc}"


def analyze(L: LieAlgebra):
    pos, neg, zero = killing_signature(L)
    det = format_rat(determinant(L.killing_matrix()))
    ld = levi_decomposition(Subspace.full(L))
    rad, levi = ld.radical, ld.levi
    payload = {"algebra": L.name, "dim": L.dim, "basis": list(L.basis_names),
               "killing": {"determinant": det,
                           "signature": {"pos": pos, "neg": neg, "zero": zero}},
               "radical": rad.to_json(), "radical_dim": rad.dim,
               "levi": levi.to_json(), "levi_dim": levi.dim,
               "semisimple": rad.dim == 0}
    text = [f"algebra {L.name} (dim {L.dim})",
            f"killing determinant: {det}",
            f"killing signature: +{pos} -{neg} 0:{zero}",
            f"radical: {rad} (dim {rad.dim})",
            f"levi: {levi} (dim {levi.dim})",
            f"semisimple: {'yes' if rad.dim == 0 else 'no'}"]
    return payload, text


def embed(L: LieAlgebra, mode: str, vectors, seed=None, budget=DEFAULT_BUDGET):
    """Grow the span of ``vectors`` by one of the four embedding modes."""
    sub = Subspace(L, vectors)
    opts = {"seed": seed, "budget": budget}
    if mode == "torus":
        torus, cd, trace = embed_real_torus(L, sub, **opts)
        payload = {"max_real_torus": torus.to_json(), "cartan": cd.to_json(),
                   "trace": trace.to_json()}
        text = [f"maximal real torus: {torus}", f"cartan: {cd.cartan}",
                f"  real part: {cd.real_part}",
                f"  compact part: {cd.compact_part}"]
    elif mode == "compact-torus":
        cd = embed_compact_torus(L, sub, **opts)
        payload = {"cartan": cd.to_json()}
        text = [f"maximally compact cartan: {cd.cartan}"]
    elif mode == "abelian-nilpotent":
        result, trace = embed_abelian_nilpotent(L, sub, **opts)
        payload = {"maximal": result.to_json(), "trace": trace.to_json()}
        text = [f"maximal abelian nilpotent: {result}"]
    elif mode == "nilpotent":
        result, torus, cd, trace = embed_nilpotent(L, sub, **opts)
        payload = {"maximal": result.to_json(), "torus": torus.to_json(),
                   "cartan": cd.to_json(), "trace": trace.to_json()}
        text = [f"maximal nilpotent: {result}", f"torus: {torus}",
                f"split cartan: {cd.cartan}"]
    else:
        raise ParseError(f"unknown embed mode {mode!r}")
    payload["mode"] = mode
    return payload, text


def decompose(L: LieAlgebra, cartan, ambient):
    """Root space decomposition under the ordered ``cartan`` vectors, of L
    when ``ambient`` is None and else of the span of the ``ambient`` vectors."""
    if ambient is None:
        return root_space_decomposition(L, cartan)
    return restricted_roots(Subspace(L, ambient), cartan)


def roots(rsd):
    text = [f"root {r}: dim {s.dim} {s}" for r, s in rsd.pairs]
    return rsd.to_json(), text + [f"zero space: {rsd.zero_space}"]


def dynkin(rsd, positive_system: str):
    """Simple roots and diagram label; ``as-given`` takes every root of the
    decomposition as positive (a one-sided ambient)."""
    if positive_system == "as-given":
        positives = rsd.roots
    else:
        positives = [r for r in rsd.roots if is_positive(r)]
    simples = simple_roots(positives)
    diag = dynkin_type(simples, positives)
    return diag.to_json(), [f"type: {diag.type_label}",
                            f"simple roots: {', '.join(map(str, simples))}"]


def vf_brackets(catalog: str):
    L = algebra_by_name(catalog_by_name(catalog).name)
    text = []
    for (i, j), comp in sorted(L.brackets.items()):
        rhs = " + ".join(f"{format_rat(c)}*{L.basis_names[k]}"
                         for k, c in sorted(comp.items()))
        text.append(f"[{L.basis_names[i]},{L.basis_names[j]}] = {rhs}")
    return L.to_json(), text


def vf_invariants(catalog: str, combos):
    """Joint invariant count of the fields given as field-name ->
    coefficient maps over the catalog."""
    cat = catalog_by_name(catalog)
    names = [f.name for f in cat.fields]
    unknown = [n for combo in combos for n in combo if n not in names]
    if unknown:
        raise ParseError(f"unknown basis name {unknown[0]!r}")
    fields = [cat.combination([combo.get(n, 0) for n in names])
              for combo in combos]
    count = invariant_count(fields, len(cat.variables))
    payload = {"n_vars": len(cat.variables), "fields": len(fields),
               "invariant_count": count}
    return payload, [f"invariants: {count}"]
