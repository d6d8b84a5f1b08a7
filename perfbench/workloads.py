"""The three workloads: their requests and the expected answers.

Expected answers come from the shipped golden corpus, from so(p, q) theory
where the corpus has no case, or from arithmetic in ``rebase``; never from
lieembed output.  Nothing here imports lieembed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import rebase

# ----------------------------------------------------------------------------
# verify: the shipped corpus, case by case


def verify_plan(golden: dict) -> dict:
    """Each case must come back under its own name with no diffs."""
    return {"expect": [{"name": c["name"], "passed": True, "diffs": []}
                       for c in golden["cases"]]}


# ----------------------------------------------------------------------------
# cli: the README commands other than ``verify``, one process each


def _check_analyze(text, case):
    sig = next(ln for ln in text.splitlines() if ln.startswith("killing signature:"))
    pos, neg, zero = sig.split(":", 1)[1].split()
    radical = next(ln for ln in text.splitlines() if ln.startswith("radical:"))
    got = {"killing_signature": [int(pos[1:]), int(neg[1:]), int(zero.split(":")[1])],
           "radical_dim": int(radical.rsplit("(dim ", 1)[1].rstrip(")"))}
    want = {k: case["expect"][k] for k in ("killing_signature", "radical_dim")}
    return got, want


def _check_embed(text, case):
    out = json.loads(text)
    exp = case["expect"]
    got = {}
    for key in exp:
        if key == "torus":
            got[key] = out["max_real_torus"] if "max_real_torus" in out else out["torus"]
        elif key == "maximal":
            got[key] = out["maximal"]
        else:
            got[key] = out["cartan"][key]
    return got, exp


# A3 is the only reduced rank-3 root system with 12 roots, and root spaces
# of a Cartan subalgebra are lines, so roots and zero space pin the label
ROOT_COUNT = {"A3": 12}


def _check_roots_absolute(text, case):
    out = json.loads(text)
    got = {"zero_dim": len(out["zero_space"]),
           "root_dims": sorted(r["dim"] for r in out["roots"])}
    want = {"zero_dim": case["expect"]["zero_dim"],
            "root_dims": [1] * ROOT_COUNT[case["expect"]["dynkin"]]}
    return got, want


def _check_dynkin(text, case):
    return {"dynkin": json.loads(text)["type"]}, {"dynkin": case["expect"]["dynkin"]}


def _check_table(text, case):
    return json.loads(text), case["expect"]


def _check_invariants(text, case):
    return json.loads(text)["invariant_count"], case["expect"]["count"]


# (arguments, golden case with the same inputs, check)
CLI_COMMANDS = (
    (["analyze", "wave15", "--format", "text"], "wave15-analyze", _check_analyze),
    (["embed", "wave15", "--mode", "nilpotent", "--subspace", "e8,e10,e11,e12"],
     "wave-embed-nilpotent", _check_embed),
    (["embed", "so(2,2)", "--mode", "torus", "--subspace", "e2"],
     "so22-embed-torus", _check_embed),
    (["embed", "wave15", "--mode", "compact-torus", "--subspace", "e15"],
     "wave-embed-compact-torus", _check_embed),
    (["roots", "wave15", "--cartan", "e7m16,e2,e14"], "wave-absolute-A3",
     _check_roots_absolute),
    (["dynkin", "g2", "--cartan", "X6,X8", "--ambient", "X5,X14,X13,X12,X11,X9",
      "--positive-system", "as-given"], "g2-restricted-G2", _check_dynkin),
    (["vf-brackets", "wave16"], "wave16-commutator-table", _check_table),
    (["vf-invariants", "wave16", "--fields", "e8,e10,e11"], "invariants-L1,0",
     _check_invariants),
)


def cli_plan(golden: dict) -> list:
    """Commands with their golden cases."""
    cases = {c["name"]: c for c in golden["cases"]}
    return [{"argv": argv, "case": cases[name], "check": check}
            for argv, name, check in CLI_COMMANDS]


def cli_order(seed: int, index: int) -> list:
    """The seeded command order of pass ``index``."""
    n = len(CLI_COMMANDS)
    return random.Random(f"cli:{seed}:{index}").sample(range(n), n)


def cli_output_ok(command: dict, stdout: str) -> bool:
    try:
        got, want = command["check"](stdout, command["case"])
    except (ValueError, KeyError, IndexError, StopIteration):
        return False
    return got == want


# ----------------------------------------------------------------------------
# rebased: JSON tables under a seeded unimodular change of basis


def _sorted_roots(roots):
    return sorted(roots, key=lambda r: json.dumps(r, sort_keys=True))


def _i(x):
    return {"a": "0", "b": str(x), "d": -1}


def _r(x):
    return {"a": str(x), "b": "0", "d": 0}


def _so_requests(cases, p, q, roots_case, torus_case, rank_real):
    """so(p, q) requests, p + q = 4: Killing signature (pq, dim so(p) +
    dim so(q), 0), semisimple, rank 2, complex type D2 = A1xA1."""
    dim = (p + q) * (p + q - 1) // 2
    compact = p * (p - 1) // 2 + q * (q - 1) // 2
    torus = cases[torus_case]
    cartan = torus["expect"]["cartan"]
    reqs = [{"id": "analyze", "kind": "analyze",
             "expect": {"killing_signature": [p * q, compact, 0],
                        "radical_dim": 0, "levi_dim": dim}}]
    if roots_case:
        rc = cases[roots_case]
        roots = {"roots": _sorted_roots(rc["expect"]["roots"]), "zero_dim": 2}
        cartan = rc["cartan"]
    else:
        # so(1,3) on <boost e1, rotation e6>: roots (+-1, +-i)
        roots = {"roots": _sorted_roots([{"root": [_r(a), _i(b)], "dim": 1}
                                         for a in (-1, 1) for b in (-1, 1)]),
                 "zero_dim": 2}
    reqs.append({"id": "roots", "kind": "roots", "cartan": cartan, "expect": roots})
    reqs.append({"id": "dynkin", "kind": "dynkin", "cartan": cartan,
                 "positive_system": "first-nonzero", "expect": {"dynkin": "A1xA1"}})
    reqs.append({"id": "embed-torus", "kind": "embed-torus",
                 "subspace": torus["subspace"],
                 "expect": {"torus_dim": len(torus["expect"]["torus"]),
                            "cartan_dim": len(torus["expect"]["cartan"]),
                            "real_dim": rank_real, "compact_dim": 2 - rank_real}})
    return reqs


def _roots_request(case, kind):
    req = {"id": f"{kind}:{case['name']}", "kind": kind, "cartan": case["cartan"],
           "ambient": case.get("ambient")}
    if kind == "dynkin":
        req["positive_system"] = case.get("positive_system", "first-nonzero")
        req["expect"] = {"dynkin": case["expect"]["dynkin"]}
    else:
        req["expect"] = {"zero_dim": case["expect"]["zero_dim"]}
        if "roots" in case["expect"]:
            req["expect"]["roots"] = _sorted_roots(case["expect"]["roots"])
    return req


def _base_algebras(golden: dict) -> dict:
    """name -> (basis names, table, requests in the original basis)."""
    cases = {c["name"]: c for c in golden["cases"]}
    n16, t16 = rebase.table_from_json(cases["wave16-commutator-table"]["expect"])
    wave15 = rebase.wave15_from_wave16(n16, t16)
    g2 = rebase.table_from_json(cases["g2-commutator-table"]["expect"])

    def analyze(case, dim):
        exp = case["expect"]
        return {"id": "analyze", "kind": "analyze",
                "expect": {"killing_signature": exp["killing_signature"],
                           "radical_dim": exp["radical_dim"], "levi_dim": dim}}

    a3 = _roots_request(cases["wave-absolute-A3"], "roots")
    a3["expect"]["root_dims"] = [1] * ROOT_COUNT[cases["wave-absolute-A3"]["expect"]["dynkin"]]
    wave_reqs = [analyze(cases["wave15-analyze"], 15), a3,
                 _roots_request(cases["wave-absolute-A3"], "dynkin"),
                 _roots_request(cases["wave-restricted-B2"], "roots"),
                 _roots_request(cases["wave-restricted-B2"], "dynkin")]
    g2_reqs = [analyze(cases["g2-analyze"], 14),
               _roots_request(cases["g2-restricted-G2"], "roots"),
               _roots_request(cases["g2-restricted-G2"], "dynkin")]
    return {
        "wave15": (*wave15, wave_reqs),
        "g2": (*g2, g2_reqs),
        "so(2,2)": (*rebase.so_pq(2, 2),
                    _so_requests(cases, 2, 2, "so22-roots", "so22-embed-torus", 2)),
        "so(1,3)": (*rebase.so_pq(1, 3),
                    _so_requests(cases, 1, 3, None, "so13-embed-torus", 1)),
        "so(4,0)": (*rebase.so_pq(4, 0),
                    _so_requests(cases, 4, 0, "so4-roots-dynkin", "so4-embed-torus", 0)),
    }


def _vectors(rows, Pinv):
    return [[rebase.fmt(x) for x in rebase.row_times([Fraction(v) for v in row], Pinv)]
            for row in rows]


# Sessions a pass opens on each algebra, each under its own basis change.
# The so(p,q) requests are the median ones and cost a few ms each, so a pass
# takes several draws of them: their median then rests on ten or more basis
# changes a run rather than three, for about a sixth of the pass time.
SESSIONS = {"wave15": 1, "g2": 1, "so(2,2)": 3, "so(1,3)": 3, "so(4,0)": 3}


def rebased_plan(golden: dict, seed: int, draw: int = 0) -> dict:
    """Tables and request vectors in a seeded basis f_a = sum_k P[a][k] e_k;
    pass ``draw`` of a run with ``seed`` gets its own basis changes.

    Returns ``{"algebras": [...]}`` for the child process (tables and
    vectors only) plus ``expect``, the answers in request order.
    """
    algebras, expect = [], []
    for name, (names, table, reqs) in _base_algebras(golden).items():
        n = len(names)
        for session in range(SESSIONS[name]):
            P = rebase.unimodular(
                n, random.Random(f"rebased:{seed}:{draw}:{name}:{session}"))
            Pinv = rebase.inverse(P)
            out = []
            for req in reqs:
                moved = {k: v for k, v in req.items() if k != "expect"}
                for key in ("cartan", "ambient", "subspace"):
                    if moved.get(key):
                        moved[key] = _vectors(moved[key], Pinv)
                out.append(moved)
            moved_table = rebase.rebase(table, P, Pinv)
            algebras.append({"name": name, "table": rebase.table_to_json(names, moved_table),
                             "requests": out})
            expect.append({"dim": n})
            expect.extend(req["expect"] for req in reqs)
    return {"algebras": algebras, "expect": expect}


def rebased_output_ok(output: dict, want: dict) -> bool:
    got = dict(output)
    if "roots" in got:
        got["roots"] = _sorted_roots(got["roots"])
        got["root_dims"] = sorted(r["dim"] for r in got["roots"])
    return all(got.get(k) == v for k, v in want.items())
