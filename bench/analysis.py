"""Per-layer metrics from one traced run's spans.

A span's inclusive time is end - start; its self time is that minus the
time its direct children cover.  ``X_ms`` metrics are inclusive sums
over every span of the named function, so nested calls are counted in
both (``elliptic.shifted_poisson_ms`` includes the solves made inside
``solve_poisson``); ``X.self_ms`` metrics are self-time sums.  Counts
are exact and must repeat between traced runs of one config.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

from tracer import SPLU, SUPERLU_SOLVE

STEP = "npns.step_npns"
ROOT_SPAN = "experiments.run_experiment"
# tail percentiles tried from the top; the first with ten samples beyond wins
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# children must fit inside their parent; this only absorbs float rounding
_CLOCK_SLACK_S = 1e-9

# (metric, kind, span names); kind is "ms" (inclusive), "self" or "calls"
_SUMS = (
    ("npns.step.self_ms", "self", (STEP,)),
    ("npns.march.self_ms", "self", ("npns.run_npns",)),
    ("npns.steps", "calls", (STEP,)),
    ("npns.velocity_ms", "ms", ("npns.advance_velocity",)),
    ("elliptic.project_ms", "ms", ("elliptic.project_div_free",)),
    ("elliptic.project_calls", "calls", ("elliptic.project_div_free",)),
    ("elliptic.poisson_ms", "ms", ("elliptic.solve_poisson",)),
    ("elliptic.poisson_calls", "calls", ("elliptic.solve_poisson",)),
    ("elliptic.shifted_poisson_ms", "ms", ("elliptic.solve_shifted_poisson",)),
    ("elliptic.shifted_poisson_calls", "calls", ("elliptic.solve_shifted_poisson",)),
    ("elliptic.div_form.self_ms", "self", ("elliptic.solve_div_form",)),
    ("elliptic.div_form_calls", "calls", ("elliptic.solve_div_form",)),
    ("elliptic.harmonic_extension_ms", "ms", ("elliptic.harmonic_extension",)),
    ("elliptic.harmonic_extension_calls", "calls", ("elliptic.harmonic_extension",)),
    ("limit.step.self_ms", "self", ("limit.step_limit",)),
    ("limit.march.self_ms", "self", ("limit.run_limit",)),
    ("limit.psi_ms", "ms", ("limit.solve_limit_psi",)),
    ("limit.steps", "calls", ("limit.step_limit",)),
    ("diagnostics.identity_ms", "ms", ("diagnostics.dissipation_identity_residual",)),
    ("diagnostics.free_energy_ms", "ms", ("diagnostics.free_energy",)),
    ("diagnostics.free_energy_calls", "calls", ("diagnostics.free_energy",)),
    ("diagnostics.modulated_energy_ms", "ms", ("diagnostics.modulated_energy",)),
    ("diagnostics.max_principle_ms", "ms", ("diagnostics.max_principle_check",)),
    ("layers.boundary_layer_ms", "ms", ("layers.boundary_layer",)),
    ("layers.boundary_layer_calls", "calls", ("layers.boundary_layer",)),
    ("experiments.fixture_ms", "ms", ("experiments.build_fixture",)),
    ("experiments.reduce_ms", "self", (ROOT_SPAN,)),
    ("experiments.write_ms", "ms", ("experiments.write",)),
)

# metrics that are exact counts; everything else is a time in ms or a share
COUNT_METRICS = tuple(m for m, kind, _ in _SUMS if kind == "calls") + (
    "npns.lu_factorizations", "trace.spans", "experiments.bytes_written",
)


def unit_of(metric: str) -> str:
    if metric == "experiments.bytes_written":
        return "bytes"
    if metric in COUNT_METRICS:
        return "count"
    return "ms"


def load_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for pct in _TAIL_CANDIDATES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 100.0


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced run, plus the span bookkeeping.

    The bookkeeping holds the percentile npns.step_ms_tail reports, the
    root spans, the spans whose children outlast them (negative self
    time), and the self time and call count of every span name.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]

    incl = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    overrun = []
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - child_time[s["id"]]
        incl[s["name"]] += dur
        self_[s["name"]] += own
        calls[s["name"]] += 1
        if own < -_CLOCK_SLACK_S:
            overrun.append(f"{s['name']} span {s['id']}: self time {1e6 * own:.1f} us")

    def lu_under(parent_name: str) -> tuple[float, int]:
        time_s, factorizations = 0.0, 0
        for s in spans:
            if s["name"] in (SPLU, SUPERLU_SOLVE) and s["parent"] >= 0 \
                    and by_id[s["parent"]]["name"] == parent_name:
                time_s += s["end"] - s["start"]
                factorizations += s["name"] == SPLU
        return time_s, factorizations

    metrics: dict[str, float] = {}
    for metric, kind, names in _SUMS:
        if kind == "calls":
            metrics[metric] = sum(calls[n] for n in names)
        else:
            table = incl if kind == "ms" else self_
            metrics[metric] = 1000.0 * sum(table[n] for n in names)

    step_lu_s, step_lus = lu_under(STEP)
    div_lu_s, _ = lu_under("elliptic.solve_div_form")
    metrics["npns.coupled_solve_ms"] = 1000.0 * (incl["operators.BandedMatrix.solve"] + step_lu_s)
    metrics["npns.lu_factorizations"] = step_lus
    metrics["elliptic.div_form_lu_ms"] = 1000.0 * div_lu_s

    steps = sorted(s["end"] - s["start"] for s in spans if s["name"] == STEP)
    pct = tail_percentile(len(steps))
    metrics["npns.step_ms_p50"] = 1000.0 * _nearest_rank(steps, 50.0) if steps else 0.0
    metrics["npns.step_ms_tail"] = 1000.0 * _nearest_rank(steps, pct) if steps else 0.0
    metrics["trace.spans"] = len(spans)

    roots = [s for s in spans if s["parent"] < 0]
    bookkeeping = {
        "step_tail_percentile": pct,
        "roots": [s["name"] for s in roots],
        "overrun": overrun,
        "self_ms": {name: 1000.0 * t for name, t in sorted(self_.items())},
        "calls": dict(sorted(calls.items())),
    }
    return metrics, bookkeeping
