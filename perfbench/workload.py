"""Run one workload in this process and write its measurements as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned to
one thread.  The load is a closed loop with one client: each scenario
runs through ``bornlab.cli.run_scenario`` and ``render_report`` (the path
``bornlab <kind> --scenario`` takes) only after the previous one has
finished.  Passes over the scenario list repeat while one more pass is
expected to end within ``--seconds``, at least one pass; with ``--trace 1``
untraced and traced passes alternate, at least one of each.  Reports are checked by ``oracle.py`` after each pass,
outside the timed region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import scenarios
import spans
from bornlab import cli

# one tiny document per kind, run once before timing so lazy set-up is done
WARMUP = (
    ("simulate", {"model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
                  "psi0": [0.6, 0.8], "t_max": 0.01, "dt": 0.001, "n_trajectories": 2}),
    ("derive", {"construction": "rational", "weights": [2, 1]}),
    ("solve-measure", {"masses": ["1/2", "1/2"], "grainings": [[1, 1]]}),
    ("games", {"mode": "pivotal", "x1": 0.0, "x2": 1.0}),
    ("histories", {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]]}]}),
    ("lln", {"op": "tail", "n": 10, "delta": 0.2, "p": 0.5}),
    ("nogo", {"check": "separation", "chi": [1, 0], "phi": [0.6, 0.8]}),
)


def run_pass(items, tracer=None) -> tuple[float, list]:
    """Run every scenario once; returns the pass wall time and the outputs."""
    outputs = []
    start = time.perf_counter()
    for sc, path in items:
        if tracer is not None:
            tracer.scenario = sc.sid
        began = time.perf_counter()
        try:
            report, code = cli.run_scenario(path, out_path=path, write_csv=sc.write_csv)
            cli.render_report(report)
            error = None
        except Exception as err:  # a scenario that raises counts as failed
            report, code, error = None, None, f"raised {err!r}"
        outputs.append((sc, report, code, error, time.perf_counter() - began))
    return time.perf_counter() - start, outputs


def tally(outputs) -> tuple[int, list]:
    """Scenarios attempted and, for each failed one, its problems."""
    failures = []
    for sc, report, code, error, _ in outputs:
        if error is not None:
            problems = [error]
        else:
            try:
                problems = oracle.check(sc, report, code)
            except (KeyError, TypeError, ValueError, IndexError) as err:
                problems = [f"report unreadable by the oracle: {err!r}"]
        if problems:
            failures.append({"scenario": sc.sid, "problems": problems})
    return len(outputs), failures


def environment() -> dict:
    """Where the numbers were measured."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (
                    (index / "size").read_text().strip())
        except OSError:
            continue

    try:
        sha = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "s" if any(part.endswith("_s") for part in name.split(".")) else "count"


def _with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def end_to_end(passes, attempted, failed) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    latencies = [t for p in untraced for _, t in p["latencies"]]
    out = {
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "scenario_s.p50": statistics.median(latencies),
        "scenario_samples": len(latencies),
        "fail_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(untraced[0]["latencies"]) >= 100:
        out["scenario_s.p90"] = statistics.quantiles(latencies, n=10)[8]
    sims = [(sc, t) for p in untraced for sc, t in p["latencies"] if sc.kind == "simulate"]
    if sims:
        out["trajectories_per_s"] = (sum(sc.trajectories for sc, _ in sims)
                                     / sum(t for _, t in sims))
    solves = [t for p in untraced for sc, t in p["latencies"] if sc.kind == "solve-measure"]
    if solves:
        out["exact_solves_per_s"] = len(solves) / sum(solves)
    return _with_units(out)


PER_LAYER_COUNTS = (
    "cli.scenarios", "collapse.trajectories", "collapse.martingale_trajectories",
    "collapse.csv_bytes", "exactlin.calls", "exactlin.rows", "exactlin.unknowns",
    "exactlin.nonzeros", "exactlin.rank", "lln.tail_calls", "histories.histories",
    "histories.pairs", "games.unknowns", "games.constraints", "nogo.rotation_pairs",
    "nogo.contexts", "nogo.assignments",
)
PER_LAYER_TIMES = (
    "cli.self_s", "cli.render_s", "collapse.model_s", "collapse.ensemble_s.d2k1",
    "collapse.ensemble_s.d16k3", "collapse.ensemble_s.d64k1", "collapse.martingale_s",
    "collapse.simulate_s", "collapse.csv_s", "exactlin.solve_s",
    "emergence.uniqueness_self_s", "emergence.derive_s", "lln.tail_s.n_le_1000",
    "lln.tail_s.n_gt_1000", "lln.audit_s", "lln.scan_s", "histories.build_s",
    "histories.check_s", "games.value_solve_s", "games.derive_s", "games.soundness_s",
    "nogo.rotation_s", "nogo.search_s", "nogo.pm_s",
)


def per_layer(passes) -> dict:
    """Median over traced passes of each layer's self time and counts."""
    untraced_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
    rows = []
    for p in (p for p in passes if p["traced"]):
        totals = spans.layer_totals(p["spans"])
        row = {k: totals.get(k, 0.0) for k in PER_LAYER_TIMES}
        row.update({k: totals.get(k, 0) for k in PER_LAYER_COUNTS})
        calls = row["exactlin.calls"]
        row["exactlin.unique_frac"] = totals.get("exactlin.unique", 0) / calls if calls else 0.0
        traj = row["collapse.trajectories"]
        row["collapse.reintegrated_frac"] = (
            row["collapse.martingale_trajectories"] / traj if traj else 0.0)
        row["trace.wall_s"] = p["wall"]
        row["trace.residual_s"] = p["wall"] - sum(s.self_s for s in p["spans"])
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_frac"] = out["trace.wall_s"] / untraced_wall - 1.0
    return _with_units(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path, help="result JSON path")
    args = parser.parse_args(argv)

    work = args.out.parent / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    for kind, params in WARMUP:
        path = work / f"warmup-{kind}.json"
        path.write_text(json.dumps({"kind": kind, "seed": 1, "parameters": params}))
        cli.render_report(cli.run_scenario(path)[0])
    items = []
    for sc in scenarios.generate(args.workload, args.seed):
        (work / sc.sid).mkdir(exist_ok=True)
        path = work / sc.sid / "scenario.json"
        path.write_text(json.dumps(sc.doc))
        items.append((sc, path))

    passes, attempted, failures = [], 0, []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            with tracer:
                wall, outputs = run_pass(items, tracer)
        else:
            wall, outputs = run_pass(items)
        n, failed = tally(outputs)
        attempted += n
        failures += failed
        # keep latencies only, so that earlier passes' reports do not add to peak RSS
        passes.append({"traced": traced, "wall": wall,
                       "latencies": [(o[0], o[4]) for o in outputs],
                       "spans": tracer.spans if tracer else []})
        del outputs
        print(f"pass {len(passes)}: {wall:.2f} s", file=sys.stderr)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= 1 + args.trace
        if enough and elapsed + elapsed / len(passes) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "scenarios": len(items),
        "passes": [{"traced": p["traced"], "wall_s": p["wall"],
                    "scenario_s": {sc.sid: t for sc, t in p["latencies"]}} for p in passes],
        "failures": failures,
        "end_to_end": end_to_end(passes, attempted, len(failures)),
    }
    if args.trace:
        result["per_layer"] = per_layer(passes)
        result["spans"] = [
            {"pass": i, **dataclasses.asdict(s)} for i, p in enumerate(passes) for s in p["spans"]]
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
