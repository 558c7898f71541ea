"""The benchmark's span tracer must find every entry point it wraps.

``perfbench/spans.py`` names bornlab functions and methods by string, so
deleting or renaming one would otherwise surface only in a traced
benchmark pass.  Its counters also read the arguments of some calls, so
the games value solve is traced here at the closure depths the benchmark
workloads do not reach.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

import bornlab.cli  # noqa: F401  (imports every module the tracer reaches into)
from bornlab import games
from bornlab.hilbert import Projector

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bornlab_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def bindings(entry_points) -> dict:
    """Every module-level name of the package, and every traced method."""
    out = {}
    for name, module in sys.modules.items():
        if name == "bornlab" or name.startswith("bornlab."):
            for key, value in vars(module).items():
                out[(name, key)] = value
    for module, attr, *_ in entry_points:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[f"bornlab.{module}"], cls_name)
            out[(f"bornlab.{module}", attr)] = cls.__dict__[method]
    return out


def test_tracer_wraps_every_entry_point_and_restores_it(monkeypatch):
    spans = load_spans(monkeypatch)
    before = bindings(spans.ENTRY_POINTS)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if an entry point is gone
        during = bindings(spans.ENTRY_POINTS)
        for module, attr, *_ in spans.ENTRY_POINTS:
            key = (f"bornlab.{module}", attr)
            assert during[key] is not before[key], f"{module}.{attr} was not wrapped"
    finally:
        tracer.restore()
    after = bindings(spans.ENTRY_POINTS)
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []


def test_traced_value_solve_calls_the_exact_solver_only_with_rows(monkeypatch):
    spans = load_spans(monkeypatch)
    cells = [(0.0, Projector.from_cells([0], 2)), (1.0, Projector.from_cells([1], 2))]
    game = games.Game(np.ones(2), cells, games.linear_payoff())
    with spans.Tracer() as tracer:
        games.value_solve([game], 0)  # no rows: solve_exact must not be called
        deep = games.value_solve([game], 2)
    assert [span.name for span in tracer.spans] == [
        "games.value_solve",
        "games.value_solve",
        "exactlin.solve",
    ]
    solve = tracer.spans[2]
    assert solve.parent == 1
    assert solve.counts["rows"] == len(deep.constraints)
    assert (solve.counts["unknowns"], solve.counts["rank"]) == (deep.n_unknowns, deep.rank)
