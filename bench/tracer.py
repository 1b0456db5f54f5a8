"""Outside-in span tracer for the debyeflow package.

``Tracer.install`` rebinds each traced function at every place it is
reachable: the defining module and every ``from .x import y`` binding
in the other debyeflow modules, ``BandedMatrix.solve`` on its class, and
``scipy.sparse.linalg.splu`` on its module (its ``SuperLU.solve`` is
traced through a proxy).  Nothing under ``src/`` changes.  Spans stay in
memory as ``(name, parent, start, end)`` and are written out once, after
``uninstall`` has put every original binding back.

Only the traced benchmark processes import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import scipy.sparse.linalg

# (module, attribute) -> span name; classes are given as "module:Class"
TARGETS = {
    ("debyeflow.experiments", "run_experiment"): "experiments.run_experiment",
    ("debyeflow.experiments", "build_fixture"): "experiments.build_fixture",
    ("debyeflow.experiments", "_write_csv"): "experiments.write",
    ("debyeflow.experiments", "_write_json"): "experiments.write",
    ("debyeflow.npns", "run_npns"): "npns.run_npns",
    ("debyeflow.npns", "well_prepared_init"): "npns.well_prepared_init",
    ("debyeflow.npns", "step_npns"): "npns.step_npns",
    ("debyeflow.npns", "advance_velocity"): "npns.advance_velocity",
    ("debyeflow.operators:BandedMatrix", "solve"): "operators.BandedMatrix.solve",
    ("debyeflow.limit", "run_limit"): "limit.run_limit",
    ("debyeflow.limit", "initial_limit_state"): "limit.initial_limit_state",
    ("debyeflow.limit", "step_limit"): "limit.step_limit",
    ("debyeflow.limit", "solve_limit_psi"): "limit.solve_limit_psi",
    ("debyeflow.elliptic", "solve_shifted_poisson"): "elliptic.solve_shifted_poisson",
    ("debyeflow.elliptic", "solve_poisson"): "elliptic.solve_poisson",
    ("debyeflow.elliptic", "harmonic_extension"): "elliptic.harmonic_extension",
    ("debyeflow.elliptic", "solve_div_form"): "elliptic.solve_div_form",
    ("debyeflow.elliptic", "project_div_free"): "elliptic.project_div_free",
    ("debyeflow.diagnostics", "free_energy"): "diagnostics.free_energy",
    ("debyeflow.diagnostics", "dissipation_identity_residual"): "diagnostics.dissipation_identity_residual",
    ("debyeflow.diagnostics", "modulated_energy"): "diagnostics.modulated_energy",
    ("debyeflow.diagnostics", "max_principle_check"): "diagnostics.max_principle_check",
    ("debyeflow.layers", "boundary_layer"): "layers.boundary_layer",
}
SPLU = "scipy.splu"
SUPERLU_SOLVE = "scipy.SuperLU.solve"


class _SuperLUProxy:
    """Forwards to a SuperLU factorization; its solve is a traced span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._rebound.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "debyeflow" or n.startswith("debyeflow.")]
        for (where, attr), name in TARGETS.items():
            module_name, _, cls = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
                self._rebind(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

        splu = scipy.sparse.linalg.splu
        wrapped_splu = self._wrap(SPLU, splu)

        def traced_splu(*args, **kwargs):
            lu = wrapped_splu(*args, **kwargs)
            return _SuperLUProxy(lu, self._wrap(SUPERLU_SOLVE, lu.solve))

        self._rebind(scipy.sparse.linalg, "splu", traced_splu)

    def uninstall(self) -> None:
        """Put every original binding back and check that it is back."""
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._rebound
                 if o.__dict__[a] is not orig]
        self._rebound.clear()
        if stale:
            raise RuntimeError(f"tracer left rebound attributes: {stale}")
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open after the run")

    @property
    def rebound_count(self) -> int:
        return len(self._rebound)

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent and run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, "run": self.run_id}))
                fh.write("\n")
