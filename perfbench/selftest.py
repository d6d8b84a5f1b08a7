#!/usr/bin/env python3
"""Self-tests of the benchmark (not of lieembed).

Usage (from the repository root): python3 perfbench/selftest.py

1. The tracer catches every binding: on one ``verify`` pass its call counts
   for rref, min_poly and structure_constants equal cProfile's.
2. Each workload's output check can fail: one corrupted expected value is
   one failed request.
3. The ``rebased`` generator: the identity change of basis reproduces the
   golden wave16 and g2 tables entry for entry, the same seed gives
   byte-identical inputs, and another seed or another pass different ones.
4. Traced passes see ``structure_constants`` on ``verify`` and ``cli`` and
   never on ``rebased``.

Prints one PASS/FAIL line per check; exits 1 if any failed.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import rebase
import run
import workloads

COUNTED = ("exactlin.rref", "exactlin.min_poly", "vecfield.structure_constants")
FAR = float("inf")


def check(label: str, ok: bool, detail="") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f": {detail}" if detail else ""))
    return ok


def one_pass(name: str, golden: dict, seed: int = 1, trace: bool = False):
    wl = run.Workload(name, seed, golden)
    results, reports, _ = wl.run_pass(0, trace, time.monotonic() + run.DEADLINE_S)
    return sum(not r["ok"] for r in results), reports


def tracer_matches_cprofile(golden: dict) -> bool:
    expect = workloads.verify_plan(golden)["expect"]
    same = lambda got, want: got == want  # noqa: E731
    _, traced, _ = run.child_pass("verify", {}, expect, same, True, FAR)
    _, profiled, _ = run.child_pass("verify", {"profile": list(COUNTED)}, expect, same,
                                    False, FAR)
    got = {k: traced[0]["trace"]["calls"].get(k, 0) for k in COUNTED}
    want = profiled[0]["profile"]
    return check("tracer call counts equal cProfile on one verify pass",
                 got == want and all(want.values()), f"traced {got}, cProfile {want}")


def corrupted_verify(golden: dict) -> bool:
    bad = copy.deepcopy(golden)
    case = next(c for c in bad["cases"] if c["name"] == "wave-absolute-A3")
    case["expect"]["dynkin"] = "A2"
    expect = workloads.verify_plan(golden)["expect"]
    with run.fresh_dir() as tmp:
        path = tmp / "corpus.json"
        path.write_text(json.dumps(bad))
        results, _, _ = run.child_pass("verify", {"corpus": str(path)}, expect,
                                       lambda got, want: got == want, False, FAR)
    failed = sum(not r["ok"] for r in results)
    return check("verify: a corrupted Dynkin label is one failed request", failed == 1,
                 f"{failed} failed")


def corrupted_cli(golden: dict) -> bool:
    bad = copy.deepcopy(golden)
    case = next(c for c in bad["cases"] if c["name"] == "g2-restricted-G2")
    case["expect"]["dynkin"] = "B2"
    failed, _ = one_pass("cli", bad)
    return check("cli: a corrupted Dynkin label is one failed request", failed == 1,
                 f"{failed} failed")


def corrupted_rebased(golden: dict) -> bool:
    bad = copy.deepcopy(golden)
    case = next(c for c in bad["cases"] if c["name"] == "wave-restricted-B2")
    root = next(r for r in case["expect"]["roots"] if r["dim"] == 2)
    root["dim"] = 1
    failed, _ = one_pass("rebased", bad)
    return check("rebased: a corrupted root multiplicity is one failed request",
                 failed == 1, f"{failed} failed")


def generator(golden: dict) -> bool:
    cases = {c["name"]: c for c in golden["cases"]}
    ok = True
    for name in ("wave16", "g2"):
        table = cases[f"{name}-commutator-table"]["expect"]
        names, t = rebase.table_from_json(table)
        n = len(names)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        same = rebase.table_to_json(names, rebase.rebase(t, eye, rebase.inverse(eye))) == table
        ok &= check(f"rebased: identity basis reproduces the golden {name} table", same)
    plan = lambda seed, draw=0: json.dumps(  # noqa: E731
        workloads.rebased_plan(golden, seed, draw)).encode()
    ok &= check("rebased: the same seed gives byte-identical inputs", plan(7) == plan(7))
    ok &= check("rebased: another seed gives different inputs", plan(7) != plan(8))
    ok &= check("rebased: another pass gives different inputs", plan(7) != plan(7, 1))
    return ok


def structure_constants_reach(golden: dict) -> bool:
    ok = True
    for name, want_calls in (("verify", True), ("cli", True), ("rebased", False)):
        _, reports = one_pass(name, golden, trace=True)
        calls = sum(r["trace"]["calls"].get("vecfield.structure_constants", 0)
                    for r in reports)
        ok &= check(f"{name}: traced structure_constants calls {'>' if want_calls else '=='} 0",
                    bool(reports) and (calls > 0) == want_calls, f"{calls} calls")
    return ok


def main() -> int:
    if not run.GOLDEN.is_file():
        print(f"error: lieembed sources not found under {run.SRC}", file=sys.stderr)
        return 2
    golden = json.loads(run.GOLDEN.read_text())
    results = [generator(golden), tracer_matches_cprofile(golden),
               corrupted_verify(golden), corrupted_cli(golden),
               corrupted_rebased(golden), structure_constants_reach(golden)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
