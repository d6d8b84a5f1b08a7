#!/usr/bin/env python3
"""lieembed benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify,cli,rebased} --seed N \\
        --seconds S --trace {0,1}

Workloads (see BENCHMARK.json for why each was chosen):

- ``verify``: the shipped 27-case golden corpus, one fresh interpreter per
  pass, each case timed around ``corpus.run_case``.
- ``cli``: the README commands other than ``verify``, each a fresh
  ``python -m lieembed`` process, in a seeded order per pass.
- ``rebased``: library calls on JSON tables of wave15, g2, so(2,2),
  so(1,3) and so(4,0) under a seeded unimodular change of basis, a new one
  every pass; a pass opens one session on wave15 and g2 and three on each
  so(p,q).

Load is a closed loop with one client: each request starts when the previous
one completed, and at most one lieembed process runs at a time.  A run makes
whole passes until ``--seconds`` have gone by, and at least ``MIN_PASSES``.
Every process runs in a fresh working directory and cache home under
``.perfbench/`` in the checkout, with a fixed hash seed.

Times are scaled to a reference core speed: the run is pinned to one core,
and every request and set-up sample is timed against a fixed calibration
kernel that uses no lieembed code (see ``calib``), because the speed of a
core on a shared host swings by up to 2x for minutes.  The end-to-end times
come from untraced passes only.  ``req_ms.p50`` is the median of all scaled request latencies of
the run.  Each request of a pass (by position) gets the median of its
repeats; ``pass_s`` is the sum of these, and ``req_ms.tail`` the slowest:
a pass has few distinct requests, so a percentile with ten requests beyond
it would pick whichever request happens to sit there.  ``setup_s`` is the
median of scaled set-up samples taken before the first pass and after every
pass, and ``peak_rss_mb`` the median over passes of the largest peak RSS of
a pass's lieembed processes.

Every output is checked against a reference that lieembed did not compute.
A request fails if it raises, exits non-zero, exceeds ``LIMIT_S`` or
returns a wrong answer.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` half of the passes run traced and the per-layer
metrics are printed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "lieembed"
GOLDEN = PACKAGE / "data" / "golden.json"
WORK = ROOT / ".perfbench"

LIMIT_S = 20.0       # per request
DEADLINE_S = 150.0   # per run; requests not finished by then count as failed
SETUP_SAMPLES = 3    # before the first pass and after every pass
MIN_PASSES = 3       # repeats of each request in a run at the least
WORKLOADS = ("verify", "cli", "rebased")
SETUP_CODE = {
    "verify": "import lieembed.corpus as c; c.load_shipped_corpus()",
    "cli": "import lieembed.cli",
    "rebased": "import lieembed",
}

TRACED_FUNCTIONS = (
    "vecfield.structure_constants", "exactlin.solve_linear", "exactlin.rref",
    "exactlin.char_poly", "exactlin.min_poly", "exactlin.factor_roots",
    "exactlin.kernel", "exactlin.determinant", "exactlin.symmetric_signature",
    "liecore.classify_element", "embed.find_real_semisimple", "embed.find_compact",
    "embed.embed_real_torus", "embed.embed_compact_torus", "embed.embed_nilpotent",
    "embed.embed_abelian_nilpotent", "liecore.LieAlgebra", "liecore.radical",
    "liecore.levi_decomposition", "liecore.centralizer", "liecore.normalizer",
    "liecore.jordan_decomposition", "liecore.torus_split", "liecore.killing_signature",
    "rootsys.joint_eigenspaces", "rootsys.root_space_decomposition",
    "rootsys.restricted_roots", "rootsys.dynkin_type",
)
LAYERS = ("exactlin", "liecore", "rootsys", "embed", "vecfield", "cli", "corpus")
MODULES = ("init", "main", "cli", "corpus", "embed", "errors", "exactlin",
           "liecore", "rootsys", "vecfield")


# ----------------------------------------------------------------------------
# processes


@contextmanager
def fresh_dir():
    """A new working directory and cache home for one process."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_process(argv: list, cwd: Path, timeout: float):
    """(exit code or None if killed at ``timeout``, stdout, peak RSS in MB).
    The process is reaped with ``wait4`` to read its own peak RSS."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LIEEMBED_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
               HOME=str(cwd), XDG_CACHE_HOME=str(cwd / ".cache"), TMPDIR=str(cwd))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    killer = threading.Timer(max(timeout, 0.001), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted: stop and reap it
            proc.kill()
            proc.wait()
    rss_mb = usage.ru_maxrss / 1024
    if os.WIFSIGNALED(status) and time.perf_counter() - t0 >= timeout:
        return None, "", rss_mb
    return proc.returncode, out, rss_mb


def setup_sample(workload: str, scaler: calib.Scaler) -> float:
    """Scaled seconds of one set-up."""
    with fresh_dir() as tmp, scaler.timing() as timing:
        code, *_ = run_process([sys.executable, "-c", SETUP_CODE[workload]], tmp,
                               LIMIT_S)
    if code != 0:
        raise RuntimeError(f"set-up failed: {SETUP_CODE[workload]!r} exited {code}")
    return timing["scaled_ms"] / 1000


# ----------------------------------------------------------------------------
# one pass of each workload: [{"kind", "ms", "ok"}] with scaled ms, process
# reports, the largest peak RSS (MB) of its processes


def child_pass(workload: str, spec: dict, expect: list, check, trace: bool,
               deadline: float):
    """verify / rebased: one fresh interpreter runs every request."""
    with fresh_dir() as tmp:
        spec_path, out_path = tmp / "spec.json", tmp / "results.jsonl"
        spec_path.write_text(json.dumps(dict(spec, workload=workload, trace=trace,
                                             limit_s=LIMIT_S)))
        timeout = min(LIMIT_S * len(expect) + 10, deadline - time.monotonic())
        *_, rss_mb = run_process([sys.executable, str(HERE / "child.py"),
                                  str(spec_path), str(out_path)], tmp, timeout)
        lines = out_path.read_text().splitlines() if out_path.exists() else []
    records = [json.loads(ln) for ln in lines]
    final = records.pop()["final"] if records and "final" in records[-1] else None
    results = []
    for i, want in enumerate(expect):
        rec = records[i] if i < len(records) else None
        ok = (rec is not None and rec["error"] is None and rec["output"] is not None
              and check(rec["output"], want))
        results.append({"kind": i, "ms": rec["scaled_ms"] if rec else None, "ok": ok})
    return results, [final] if final else [], rss_mb


def cli_pass(commands: list, order: list, trace: bool, deadline: float):
    """cli: one fresh ``python -m lieembed`` process per command."""
    results, reports, rss = [], [], []
    scaler = calib.Scaler()
    for idx in order:
        command = commands[idx]
        with fresh_dir() as tmp:
            argv = ([sys.executable, str(HERE / "clitrace.py"), str(tmp / "trace.json")]
                    if trace else [sys.executable, "-m", "lieembed"])
            with scaler.timing() as timing:
                code, out, rss_mb = run_process(
                    argv + command["argv"], tmp, min(LIMIT_S, deadline - time.monotonic()))
            rss.append(rss_mb)
            if trace and (tmp / "trace.json").exists():
                reports.append(json.loads((tmp / "trace.json").read_text()))
        results.append({"kind": idx, "ms": timing["scaled_ms"],
                        "ok": code == 0 and workloads.cli_output_ok(command, out)})
    return results, reports, max(rss)


class Workload:
    """Plans the requests of a run and runs one pass of them."""

    def __init__(self, name: str, seed: int, golden: dict):
        self.name = name
        self.seed = seed
        self.golden = golden
        if name == "verify":
            self.plan = workloads.verify_plan(golden)
            self.size = len(self.plan["expect"])
        elif name == "cli":
            self.plan = workloads.cli_plan(golden)
            self.size = len(self.plan)
        else:
            self.size = len(workloads.rebased_plan(golden, seed)["expect"])

    def run_pass(self, index: int, trace: bool, deadline: float):
        if time.monotonic() >= deadline:
            return ([{"kind": i, "ms": None, "ok": False} for i in range(self.size)],
                    [], None)
        if self.name == "cli":
            return cli_pass(self.plan, workloads.cli_order(self.seed, index), trace,
                            deadline)
        if self.name == "verify":
            return child_pass("verify", {}, self.plan["expect"],
                              lambda got, want: got == want, trace, deadline)
        plan = workloads.rebased_plan(self.golden, self.seed, index)
        return child_pass("rebased", {"algebras": plan["algebras"]}, plan["expect"],
                          workloads.rebased_output_ok, trace, deadline)


# ----------------------------------------------------------------------------
# metrics


def pass_seconds(results: list):
    """Scaled seconds of one pass; None if a request did not finish."""
    if any(r["ms"] is None for r in results):
        return None
    return sum(r["ms"] for r in results) / 1000


def request_latencies(results: list) -> list:
    """Each request's median scaled latency (ms) over the run's passes, sorted."""
    by_kind: dict = {}
    for r in results:
        if r["ms"] is not None:
            by_kind.setdefault(r["kind"], []).append(r["ms"])
    return sorted(statistics.median(v) for v in by_kind.values())


def src_lines() -> dict:
    """Non-blank, non-comment lines of each module of the package; a module
    added later counts in ``total`` only."""
    counts = dict.fromkeys(MODULES, 0)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = sum(1 for ln in path.read_text().splitlines()
                if ln.strip() and not ln.lstrip().startswith("#"))
        total += n
        if path.stem.strip("_") in counts:
            counts[path.stem.strip("_")] = n
    counts["total"] = total
    return counts


def layer_metrics(reports: list, traced_passes: list, plain_passes: list) -> dict:
    n = max(len(traced_passes), 1)
    calls: dict = {}
    ms: dict = {}
    self_ms = dict.fromkeys(LAYERS, 0.0)
    candidates = accepted = hits = misses = max_bits = 0
    for rep in reports:
        tr = rep["trace"]
        for k, v in tr["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in tr["ms"].items():
            ms[k] = ms.get(k, 0.0) + v
        for k, v in tr["self_ms"].items():
            self_ms[k] += v
        candidates += tr["candidates"]
        accepted += tr["accepted"]
        hits += tr["cache_hits"]
        misses += tr["cache_misses"]
        max_bits = max(max_bits, tr["max_bits"])
    out = {}
    for fn in TRACED_FUNCTIONS:
        out[f"{fn}.calls"] = (calls.get(fn, 0) / n, "count")
        out[f"{fn}.ms"] = (ms.get(fn, 0.0) / n, "ms")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_ms[layer] / n, "ms")
    out["embed.candidates"] = (candidates / n, "count")
    out["embed.accept_ratio"] = (accepted / candidates if candidates else 0.0, "ratio")
    out["exactlin.max_bits"] = (max_bits, "bits")
    out["vecfield.algebra_by_name.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["cli.import_ms"] = (statistics.median(r["import_ms"] for r in reports)
                            if reports else 0.0, "ms")
    done_t = [p for p in traced_passes if p is not None]
    done_p = [p for p in plain_passes if p is not None]
    out["trace.overhead_ratio"] = (
        statistics.median(done_t) / statistics.median(done_p)
        if done_t and done_p else 0.0, "ratio")
    for module, lines in src_lines().items():
        out[f"{module}.src_lines"] = (lines, "lines")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: lieembed sources not found under {SRC}", file=sys.stderr)
        return 2
    calib.pin_one_core()
    started = time.monotonic()
    deadline = started + DEADLINE_S
    golden = json.loads(GOLDEN.read_text())
    wl = Workload(args.workload, args.seed, golden)

    def take_setup():
        scaler = calib.Scaler()
        setup.extend(setup_sample(args.workload, scaler) for _ in range(SETUP_SAMPLES))

    setup: list = []
    setup_sample(args.workload, calib.Scaler())  # untimed: fills the bytecode cache
    take_setup()

    plain, plain_passes, traced_passes, reports, rss = [], [], [], [], []
    attempted = failed = index = 0
    measure_start = time.monotonic()
    # a traced run alternates plain and traced passes
    need = 2 if args.trace else MIN_PASSES
    while index < need or time.monotonic() - measure_start < args.seconds:
        traced = bool(args.trace) and index % 2 == 1
        results, reps, rss_mb = wl.run_pass(index, traced, deadline)
        attempted += len(results)
        failed += sum(not r["ok"] for r in results)
        (traced_passes if traced else plain_passes).append(pass_seconds(results))
        if traced:
            reports.extend(reps)
        else:
            plain.extend(results)
            if rss_mb is not None:
                rss.append(rss_mb)
        index += 1
        if not args.trace and time.monotonic() < deadline:
            take_setup()

    latencies = request_latencies(plain)
    if args.trace:
        metrics = layer_metrics(reports, traced_passes, plain_passes)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (sum(latencies) / 1000, "s"),
            "req_ms.p50": (statistics.median(r["ms"] for r in plain if r["ms"] is not None)
                           if latencies else 0.0, "ms"),
            "req_ms.tail": (latencies[-1] if latencies else 0.0, "ms"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
        }
    print(f"{args.workload}: {index} passes, {attempted} requests, {failed} failed "
          f"(error_rate {failed / attempted:.4f}); latencies are the median of "
          f"{len(plain) // max(wl.size, 1)} untraced repeats of each of {wl.size} "
          f"requests, setup_s the median of {len(setup)} samples, all scaled by "
          f"the calibration kernel; "
          f"{time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
