"""In-memory span tracing around bornlab's public entry points.

``Tracer.install()`` replaces each entry point named in ``ENTRY_POINTS``
with a timing wrapper wherever a bornlab module holds a reference to it
(``cli`` imports most of them by name), and ``restore()`` puts the
originals back.  Nothing under ``src/`` changes.  A span records its name,
start, end, parent span and scenario id; its self time is its duration
minus its children's.  Counts come from the call's arguments and result
and are computed after the span has ended, with that bookkeeping time
excluded from the enclosing span as well.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field


def _shape(model) -> str:
    return f"d{model.dim}k{model.n_observables}"


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for x in row if x != 0)


# (module, attribute, span name, tag(args), counts(args, result))
ENTRY_POINTS = (
    ("cli", "run_scenario", "cli.run", None, lambda a, r: {"scenarios": 1}),
    ("cli", "render_report", "cli.render", None, None),
    ("collapse", "CollapseModel.__init__", "collapse.model", None, None),
    ("collapse", "ensemble_outcomes", "collapse.ensemble",
     lambda a: _shape(a[0]), lambda a, r: {"trajectories": a[2]}),
    ("collapse", "martingale_check", "collapse.martingale", None,
     lambda a, r: {"martingale_trajectories": a[2]}),
    ("collapse", "simulate", "collapse.simulate", None, None),
    ("collapse", "trajectory_to_csv", "collapse.csv", None,
     lambda a, r: {"csv_bytes": os.path.getsize(a[2])}),
    ("emergence", "measure_uniqueness_solve", "emergence.uniqueness", None, None),
    ("emergence", "rational_born_values", "emergence.derive", None, None),
    ("emergence", "equiprobable_values", "emergence.derive", None, None),
    ("exactlin", "solve_exact", "exactlin.solve", None,
     lambda a, r: {"calls": 1, "rows": len(a[0]), "unknowns": len(a[0][0]),
                   "nonzeros": _nonzeros(a[0]), "rank": r.rank,
                   "unique": int(r.status == "unique")}),
    ("lln", "lln_tail", "lln.tail",
     lambda a: "n_le_1000" if int(a[0]) <= 1000 else "n_gt_1000",
     lambda a, r: {"tail_calls": 1}),
    ("lln", "frequency_audit", "lln.audit", None, None),
    ("lln", "lln_limit_scan", "lln.scan", None, None),
    ("histories", "HistoryStep.__init__", "histories.build", None, None),
    ("histories", "HistorySet.__init__", "histories.build", None, None),
    ("histories", "consistency_check", "histories.check", None,
     lambda a, r: {"histories": r.n_histories,
                   "pairs": r.n_histories * (r.n_histories - 1) // 2}),
    ("games", "value_solve", "games.value_solve", None,
     lambda a, r: {"unknowns": r.n_unknowns, "constraints": len(r.constraints)}),
    ("games", "derive_pivotal", "games.derive", None, None),
    ("games", "verify_soundness", "games.soundness", None, None),
    ("nogo", "rotation_jump_demo", "nogo.rotation", None,
     lambda a, r: {"rotation_pairs": len(r.steps)}),
    ("nogo", "dispersion_free_search", "nogo.search", None,
     lambda a, r: {"contexts": len(r.contexts), "assignments": len(r.assignments)}),
    ("nogo", "propagate_pm_constraint", "nogo.pm", None, None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scenario: str | None
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.scenario: str | None = None
        self._stack: list[list] = []  # [span index, time excluded from self]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, tag, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.scenario)
            self.spans.append(span)
            self._stack.append([index, 0.0])
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.self_s = span.end - span.start - self._stack.pop()[1]
                if self._stack:
                    self._stack[-1][1] += span.end - span.start
            if tag is not None:
                span.name = f"{name}.{tag(args)}"
            if counts is not None:
                span.counts = counts(args, result)
            if self._stack:
                self._stack[-1][1] += time.perf_counter() - span.end
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "bornlab" or key.startswith("bornlab.")]
        for module, attr, name, tag, counts in ENTRY_POINTS:
            owner = sys.modules[f"bornlab.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, tag, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, tag, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# span names whose self-time metric is not simply "<layer>.<entry>_s"
_TIME_METRIC = {"cli.run": "cli.self_s", "emergence.uniqueness": "emergence.uniqueness_self_s"}


def layer_totals(spans: list[Span]) -> dict:
    """Summed self time and counts per metric name.

    ``a.b`` spans sum into ``a.b_s`` and tagged ``a.b.tag`` spans into
    ``a.b_s.tag``; a count ``c`` of a span in layer ``a`` sums into ``a.c``.
    """
    out: dict = {}
    for span in spans:
        layer, entry, *tag = span.name.split(".")
        key = _TIME_METRIC.get(span.name, ".".join([f"{layer}.{entry}_s", *tag]))
        out[key] = out.get(key, 0.0) + span.self_s
        for count, value in span.counts.items():
            out[f"{layer}.{count}"] = out.get(f"{layer}.{count}", 0) + value
    return out
