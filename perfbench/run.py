"""Scenario benchmark for bornlab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lab-mix --seed 1 --seconds 36 --trace 0

It times a fresh-process ``import bornlab.cli`` (set-up), then runs the
workload in a child process with BLAS pinned to one thread, and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Full results, the environment and any spans are written
under ``.bench_out/``.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# repeated from scenarios.py so that this parent process imports neither numpy nor bornlab
WORKLOADS = ("collapse-ensembles", "exact-arithmetic", "lab-mix")
SETUP_REPEATS = 5
DEADLINE_S = 175
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bornlab.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = ("setup_s", "wall_s", "scenario_s.p50", "peak_rss_mb")


def measure_setup(env: dict) -> list[float]:
    """Seconds to import bornlab.cli (numpy included) in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bornlab scenario benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "bornlab" / "cli.py").is_file():
        print(f"error: no bornlab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])

    try:
        setup = measure_setup(env)
    except (subprocess.SubprocessError, ValueError, IndexError) as err:
        print(f"error: importing bornlab.cli failed: {err}", file=sys.stderr)
        return 1
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        child = subprocess.run(cmd, env=env, timeout=DEADLINE_S - (time.monotonic() - began))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0 or not out.is_file():
        print(f"error: workload exited with code {child.returncode}", file=sys.stderr)
        return 1

    result = json.loads(out.read_text())
    e2e = result["end_to_end"]
    e2e["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    result["setup_samples_s"] = setup
    out.write_text(json.dumps(result, indent=1))

    print(f"# {args.workload} seed {args.seed}: {result['scenarios']} scenarios, "
          f"{len(result['passes'])} passes; env {json.dumps(result['env'])}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure['scenario']}: {'; '.join(failure['problems'])}")
    shown = {**e2e, **result.get("per_layer", {})}
    for name, m in shown.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    metrics = result["per_layer"] if args.trace else {k: e2e[k] for k in END_TO_END}
    print(json.dumps({
        "correct": e2e["failed"]["value"] == 0,
        "attempted": e2e["attempted"]["value"],
        "failed": e2e["failed"]["value"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
