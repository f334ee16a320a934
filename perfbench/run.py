"""The finsite benchmark.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 25 --trace 0

Set-up: fresh interpreters build the workload's fixtures and write its
bundle files (perfbench/fixtures.py); setup_s is their median time.  All
end-to-end times are in reference seconds (perfbench/speed.py).  Then
this process imports finsite once and replays the workload's requests in a
closed loop, one forked child per request, pass after pass (each pass in a
seeded order) until --seconds is used up; at least one pass always runs.
Every verdict is checked against the answer key in workloads.py.

--trace 0 prints the end-to-end metrics; --trace 1 spends half of --seconds
on untraced passes, then wraps finsite's public functions (tracing.py), runs
a traced set-up and traced passes for the other half, and prints the
per-layer metrics.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.

--steadiness runs seeds 1-10 of every workload (or of the --workload
options given) as separate benchmark processes and reports every metric's
median, quartiles and relative spread.  The harness's own arithmetic is
checked by perfbench/check_harness.py.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fixtures  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from speed import reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = fixtures.ROOT
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 150.0  # no request starts after this; the run must end within 180 s
STEADY_SEEDS = range(1, 11)

END_TO_END = {
    "wall_s": "s",
    "req_p50_s": "s",
    "req_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def hash_seed(seed: int) -> str:
    return str(seed % 4294967296)


def clean_env(seed: int) -> dict:
    """The environment of every workload process: PYTHONHASHSEED pinned by
    the seed, FINSITE_JOBS removed."""
    env = {k: v for k, v in os.environ.items() if k != "FINSITE_JOBS"}
    env["PYTHONHASHSEED"] = hash_seed(seed)
    return env


def reexec_pinned(seed: int):
    """Re-execute this script under the pinned environment if needed; forked
    request processes inherit it."""
    if os.environ.get("PYTHONHASHSEED") == hash_seed(seed) and "FINSITE_JOBS" not in os.environ:
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], clean_env(seed))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def fresh_setup(workload: str, seed: int, out_dir: str) -> float:
    """Reference seconds from starting a fresh interpreter until the bundles
    are written, scaled by the speed samples the interpreter took."""
    cmd = [sys.executable, os.path.join(HERE, "fixtures.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=clean_env(seed), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr[-500:]}")
    speed = json.loads(proc.stdout.splitlines()[-1])
    return reference_seconds(seconds - speed["in_handler"], speed["samples"])


def bundle_paths(workload, out_dir):
    return {b: os.path.join(out_dir, f"{b}.json") for b in WORKLOADS[workload].bundles}


def load_oracles():
    """tests/oracles.py, imported read-only (no bytecode written)."""
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("finsite_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass(NamedTuple):
    wall: float  # seconds the whole pass took, forks and speed samples included
    times: dict  # request name -> reference seconds to verdict
    rss: list  # MB, one per request
    traces: list  # one per traced request


class Run:
    """Replays one workload's requests and keeps every outcome."""

    def __init__(self, wl, seed, paths, cli, started):
        self.wl = wl
        self.seed = seed
        self.paths = paths
        self.cli = cli
        self.started = started
        self.rng = random.Random(f"order/{wl.name}/{seed}")
        oracles = load_oracles()
        self.oracle = {r.name: bool(r.oracle(oracles)) for r in self.wl.requests if r.oracle}
        self.outcomes = []  # (request name, status, detail)
        self.verdicts = {}

    def one_pass(self, tracer=None):
        """Run every request once, in this pass's seeded order."""
        order = list(self.wl.requests)
        self.rng.shuffle(order)
        limit = harness.TRACED_WALL_LIMIT_S if tracer else harness.WALL_LIMIT_S
        times, rss, traces = {}, [], []
        t0 = time.perf_counter()
        for req in order:
            left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
            if left <= 0:
                self.outcomes.append((req.name, harness.GUARD, "run deadline"))
                continue
            argv = req.command(self.seed, self.paths)
            payload = harness.run_forked(lambda: self.cli.main(argv), min(limit, left), tracer,
                                         read=lambda rc, out: harness.observed_verdict(req, rc, out))
            status, detail, verdict = harness.judge(req, self.seed, payload, self.oracle.get(req.name))
            self.outcomes.append((req.name, status, detail))
            if status == harness.OK:
                times[req.name] = payload["ref_seconds"]
                self.verdicts.setdefault(req.name, []).append(self.portable(req, verdict))
            rss.append(payload["rss_mb"])
            if "trace" in payload:
                traces.append(payload["trace"])
        return Pass(time.perf_counter() - t0, times, rss, traces)

    def portable(self, req, verdict):
        """The verdict with seed-renamed object ids mapped back."""
        if req.kan_cat is None:
            return verdict
        return {x: verdict.get(fixtures.rename(self.seed, req.kan_cat, x)) for x in req.expect}

    def passes(self, seconds, tracer=None):
        """Passes until the next one would overrun `seconds` (at least one)."""
        out = []
        t0 = time.perf_counter()
        while True:
            out.append(self.one_pass(tracer))
            elapsed = time.perf_counter() - t0
            if elapsed + out[-1].wall > seconds or time.perf_counter() - self.started > RUN_DEADLINE_S / 2:
                return out

    def failed(self):
        """Every failed request attempt, plus one entry if some request
        changed its verdict between passes."""
        out = [o for o in self.outcomes if o[1] != harness.OK]
        if any(len({json.dumps(v, sort_keys=True) for v in vs}) > 1 for vs in self.verdicts.values()):
            out.append(("verdicts", harness.WRONG, "a request changed verdict between passes"))
        return out


def end_to_end(passes, setup_times, run):
    """A request's time is its median time to verdict over the passes; a
    pass takes the sum of its requests' times."""
    per_request = {}
    for p in passes:
        for name, t in p.times.items():
            per_request.setdefault(name, []).append(t)
    typical = [statistics.median(ts) for ts in per_request.values()] or [float("nan")]
    rss = [r for p in passes for r in p.rss]
    values = {
        "wall_s": sum(typical),
        "req_p50_s": statistics.median(typical),
        "req_max_s": max(typical),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(rss),
        "ok_frac": 1 - len(run.failed()) / len(run.outcomes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced(run, workload, seed, seconds, wall_untraced):
    """Install the tracer, trace one set-up and passes; per-layer metrics."""
    tracer = tracing.Tracer()
    tracing.install(tracer, {m: importlib.import_module(f"finsite.{m}") for m in tracing.MODULES})
    setup_dir = os.path.join(os.path.dirname(next(iter(run.paths.values()))), "traced-setup")
    bundles = WORKLOADS[workload].bundles

    def setup_fn():
        fixtures.write_bundles(bundles, seed, setup_dir)
        return 0

    left = RUN_DEADLINE_S - (time.perf_counter() - run.started)
    setup = harness.run_forked(setup_fn, max(1.0, min(harness.TRACED_WALL_LIMIT_S, left)), tracer)
    if setup["status"] != harness.OK or setup["rc"] != 0:
        raise RuntimeError(f"traced set-up failed: {setup.get('detail')}")
    passes = run.passes(seconds, tracer)
    per_pass = [tracing.per_layer_metrics([setup["trace"]] + p.traces, 0.0) for p in passes]
    counts = {json.dumps({k: v for k, v in m.items() if k in tracing.COUNTS}, sort_keys=True) for m in per_pass}
    if len(counts) != 1:
        run.outcomes.append(("traced counts", harness.WRONG, "counts differ between traced passes"))
    values = {k: v if k in tracing.COUNTS else statistics.median([m[k] for m in per_pass])
              for k, v in per_pass[0].items()}
    values["trace.overhead_s"] = statistics.median([sum(p.times.values()) for p in passes]) - wall_untraced
    write_spans(workload, seed, [("setup", setup["trace"])] + [(f"request{i}", t) for i, t in enumerate(passes[0].traces)])
    return {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in values.items()}


def write_spans(workload, seed, traces):
    """All spans of the first traced pass and the traced set-up, one JSON
    line each: [request, index, name, start, end, parent, prims]."""
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for rid, (spans, root_prims, _) in traces:
            fh.write(json.dumps([rid, -1, "root", 0, 0, -1, root_prims]) + "\n")
            for i, s in enumerate(spans):
                fh.write(json.dumps([rid, i, *s]) + "\n")


def run_benchmark(workload, seed, seconds, trace):
    started = time.perf_counter()
    out_dir = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")
    try:
        setup_times = [fresh_setup(workload, seed, out_dir) for _ in range(1 if trace else SETUP_REPEATS)]
        fs = fixtures.import_finsite()
        run = Run(WORKLOADS[workload], seed, bundle_paths(workload, out_dir), fs.cli, started)
        if trace:
            wall_untraced = statistics.median([sum(p.times.values()) for p in run.passes(seconds / 2)])
            metrics = traced(run, workload, seed, seconds / 2, wall_untraced)
        else:
            metrics = end_to_end(run.passes(seconds), setup_times, run)
        write_verdicts(workload, seed, run)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = run.failed()
    attempted = len(run.outcomes)
    for name, status, detail in failed[:20]:
        print(f"FAILED [{status}] {name}: {detail}")
    print(f"{workload} seed {seed}: {attempted} requests attempted, fail_frac = {len(failed) / attempted:.4f}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def write_verdicts(workload, seed, run):
    """The verdict of every request, keyed by its seed-independent name."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"verdicts-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({k: v[0] for k, v in sorted(run.verdicts.items())}, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Steadiness report
# ---------------------------------------------------------------------------


def steadiness(workloads, seconds, trace):
    """Run every (workload, seed) as its own benchmark process, one at a
    time, and report each metric's median, quartiles and relative spread.
    Seeds are the outer loop, so a slow or fast phase of the machine lasting
    minutes falls on every workload rather than on consecutive seeds of one."""
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    ok = True
    results = {wl: [] for wl in workloads}
    for seed in STEADY_SEEDS:
        for wl in workloads:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(last) if proc.returncode == 0 else {}
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res.get("metrics", {}).items())
            print(f"{wl} seed {seed}: exit {proc.returncode} correct={res.get('correct')} "
                  f"attempted={res.get('attempted')} failed={res.get('failed')} {shown}", flush=True)
            ok &= proc.returncode == 0 and bool(res.get("correct"))
            if res:
                results[wl].append((seed, res))
    for wl in workloads:
        verdicts = set()
        for seed, _ in results[wl]:
            with open(os.path.join(WORK, f"verdicts-{wl}-seed{seed}.json")) as fh:
                verdicts.add(fh.read())
        if len(verdicts) > 1:
            print(f"{wl}: verdicts differ between seeds")
            ok = False
        names = sorted({m for _, r in results[wl] for m in r["metrics"]})
        for m in names:
            vals = [r["metrics"][m]["value"] for _, r in results[wl]]
            q1, q2, q3 = harness.quartiles(vals)
            spread = harness.rel_spread(vals)
            bound = bounds.get(m)
            if bound is None:
                mark = ""
            else:
                mark = " ok" if spread < bound / 3 else " within bound" if spread <= bound else " OVER BOUND"
            print(f"  {wl:17s} {m:40s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}" + ("" if bound is None else f"  bound {bound}{mark}"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ns = ap.parse_args(argv)
    if not fixtures.finsite_present():
        print(f"error: finsite sources not found under {fixtures.SRC}", file=sys.stderr)
        return 2
    workloads = ns.workload or sorted(WORKLOADS)
    if ns.steadiness:
        return steadiness(workloads, ns.seconds, ns.trace)
    if len(workloads) != 1:
        ap.error("give exactly one --workload")
    reexec_pinned(ns.seed)
    result = run_benchmark(workloads[0], ns.seed, ns.seconds, ns.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
