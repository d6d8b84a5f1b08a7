"""One pass of the ``verify`` or ``rebased`` workload in a fresh interpreter.

Usage: python child.py SPEC.json RESULTS.jsonl

SPEC holds the workload name, the per-request time limit, whether to trace
or profile, and the workload's inputs.  Each request result is appended to
RESULTS as one JSON line as soon as it completes, so a pass killed by its
deadline still reports what it finished; its ``scaled_ms`` is its time
scaled by the calibration kernel timed around and, in untraced passes,
during it (see ``calib``).  The last line carries the import time and, when
traced, the span summary.
"""

import json
import os
import signal
import sys
import time

import calib


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside lieembed swallows it."""


def _on_alarm(_signum, _frame):
    raise RequestTimeout()


def verify_requests(spec):
    from lieembed import corpus
    if spec.get("corpus"):
        with open(spec["corpus"]) as fh:
            cases = json.load(fh)["cases"]
    else:
        cases = corpus.load_shipped_corpus()["cases"]
    for case in cases:
        def run(case=case):
            r = corpus.run_case(case)
            return {"name": r.name, "passed": r.passed, "diffs": r.diffs}
        yield case["name"], run


def _roots(le, L, req):
    basis = [L.element(v) for v in req["cartan"]]
    if req.get("ambient"):
        return le.restricted_roots(le.Subspace(L, [L.element(v) for v in req["ambient"]]),
                                   basis)
    return le.root_space_decomposition(L, basis)


def _request(le, L, req):
    kind = req["kind"]
    if kind == "analyze":
        return {"killing_signature": list(le.killing_signature(L)),
                "radical_dim": le.radical(L).dim,
                "levi_dim": le.levi_decomposition(le.Subspace.full(L)).levi.dim}
    if kind == "roots":
        rsd = _roots(le, L, req)
        return {"roots": [{"root": r.to_json(), "dim": s.dim} for r, s in rsd.pairs],
                "zero_dim": rsd.zero_space.dim}
    if kind == "dynkin":
        rsd = _roots(le, L, req)
        if req["positive_system"] == "as-given":
            positives = rsd.roots
        else:
            positives = [r for r in rsd.roots if le.is_positive(r)]
        return {"dynkin": le.dynkin_type(le.simple_roots(positives), positives).type_label}
    if kind == "embed-torus":
        sub = le.Subspace(L, [L.element(v) for v in req["subspace"]])
        torus, cd, _trace = le.embed_real_torus(L, sub)
        return {"torus_dim": torus.dim, "cartan_dim": cd.cartan.dim,
                "real_dim": cd.real_part.dim, "compact_dim": cd.compact_part.dim}
    raise ValueError(f"unknown request kind {kind!r}")


def rebased_requests(spec):
    import lieembed as le
    for alg in spec["algebras"]:
        state = {}

        def load(alg=alg, state=state):
            state["L"] = le.LieAlgebra.from_json(alg["table"], name=alg["name"])
            return {"dim": state["L"].dim}
        yield f"{alg['name']}/load", load
        for req in alg["requests"]:
            def run(req=req, state=state):
                return _request(le, state["L"], req)
            yield f"{alg['name']}/{req['id']}", run


def main(spec_path, out_path):
    t0 = time.perf_counter()
    import lieembed.corpus  # noqa: F401  (import cost is reported)
    import_ms = (time.perf_counter() - t0) * 1000
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = profiler = None
    if spec.get("trace"):
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    requests = {"verify": verify_requests, "rebased": rebased_requests}[spec["workload"]]
    limit = spec["limit_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    if spec.get("profile"):
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    scaler = calib.Scaler()
    tick = not (tracer or profiler)  # spans and profiles leave the kernel out
    with open(out_path, "w") as out:
        for name, run in requests(spec):
            if tracer:
                tracer.request = name
            error = output = None
            with scaler.timing(tick) as timing:
                try:
                    try:
                        signal.setitimer(signal.ITIMER_REAL, limit)
                        output = run()
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except RequestTimeout:
                    error = f"time limit {limit} s exceeded"
                except Exception as exc:  # a failed request; the pass goes on
                    error = f"{type(exc).__name__}: {exc}"
            out.write(json.dumps({"name": name, "ms": timing["ms"],
                                  "scaled_ms": timing["scaled_ms"],
                                  "error": error, "output": output}) + "\n")
            out.flush()
        final = {"import_ms": import_ms}
        if profiler:
            profiler.disable()
            final["profile"] = _profile_counts(profiler, spec["profile"])
        if tracer:
            final["trace"] = tracer.summary()
        out.write(json.dumps({"final": final}) + "\n")


def _profile_counts(profiler, names):
    """cProfile call counts of ``layer.function`` names."""
    import pstats
    counts = dict.fromkeys(names, 0)
    for (path, _line, func), (_cc, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        folder, filename = os.path.split(path)
        key = f"{filename[:-3]}.{func}"
        if key in counts and os.path.basename(folder) == "lieembed":
            counts[key] += ncalls
    return counts


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
