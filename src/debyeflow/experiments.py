"""Preset experiments: paired runs, eps sweeps, deterministic artifacts.

Each preset fixes a fixture (wall data, initial state, grid and time
discretization), runs the finite-eps solver next to its limit
counterpart on the same grid, reduces the pair to scalar error metrics,
and writes plain CSV/JSON artifacts.  Outputs are byte-reproducible for
a fixed config except for the wall_clock_s column of sweep.csv, which
records measured time and is exempt from the determinism contract.

Artifact map (CSV_ARTIFACTS): rate presets write sweep.csv + report.json,
the energy preset writes diag.csv + report.json, and the layer/decay
presets write profile.csv + report.json.  Every row carries the config
hash.  A rate preset's sweep.csv is its one per-eps record: the run
writes it, then grades report.json from the file with _sweep_report,
the function refit_report uses, so a refit rebuilds the report byte for
byte.

The rate sweeps, layer_profile and energy_identity split their work into
independent runs (one per eps, or per dt level plus the equilibrium run)
and map them over one process pool, _pool_map.  Results come back in
submission order, and workers return only floats, row dicts and, in a
rate sweep, the stacked fields of limit runs, so serial and pooled
artifacts are byte-identical.  A serial run never imports the pool.

The limit system has no eps in it, so a rate sweep (_rate_sweep) marches
one limit run per distinct (ny, dt) of its members and hands it to every
member with that grid and step: one run for thm1_rate and custom, one per
member for the graded layer presets.  Its two pool phases run the limit
runs, then the members.  Each member's norms are taken over blocks of
snapshots, and the energy diagnostics are computed only by the energy
study, the one preset that reads them.

Every run is a stream of its saved States (npns.run_npns,
limit.run_limit), and every study reduces it block by block as it is
marched: a rate member walks its finite-eps stream against the shared
limit, the energy study walks the finite-eps and limit streams in
lockstep, and the profile study keeps only the last states.  The shared
limit run of a rate sweep is the one run kept whole, since it is sent to
the member jobs, and it keeps only what they read (SharedLimit): the
snapshot times, c1, psi and, in d = 2, u, each one array stacked along
time and filled as the run streams.  A member rebuilds c2 = -(z1/z2) c1 per block, the
expression the limit step uses, so its values are the run's bitwise.  A
solver abort surfaces while a stream is read, inside the study, and
carries its eps and t as before.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config_io import ConfigError, ExperimentConfig, RATE_PRESETS
from .diagnostics import diagnostics_record, line_fit, rate_fit, snapshot_blocks
from .grid import ChannelGrid, State, VelocityField
from .layers import composite, solve_initial_layer, wall_layers
from .limit import initial_limit_state, run_limit
from .npns import MaxPrincipleViolation, NpnsConfig, StepError, run_npns, saved_steps, well_prepared_init
from .operators import laplacian, norm_h1_semi, norm_l2, norms_h1_semi_h2
from .params import Params

logger = logging.getLogger(__name__)

_trapz = getattr(np, "trapezoid", None) or np.trapz

# columns added later go last, so readers that index the older ones by
# position keep working
SWEEP_COLUMNS = (
    "epsilon", "err_c_LinfL2", "err_u_LinfL2", "err_grad_psi_L2L2", "err_rho_over_eps_L2L2",
    "err_cS_grad_LinfL2", "err_c_LinfH2", "wall_clock_s", "config_hash",
    "err_grad_c_L2L2", "eps_grad_psi_LinfL2", "ny", "dt",
)
DIAG_COLUMNS = (
    "t", "E", "H", "Theta",
    "min_c1", "max_c1", "min_c2", "max_c2",
    "dissipation_residual", "config_hash",
)
# the csv file each preset writes, and its columns
CSV_ARTIFACTS = {
    **{preset: ("sweep.csv", SWEEP_COLUMNS) for preset in RATE_PRESETS},
    "energy_identity": ("diag.csv", DIAG_COLUMNS),
    "layer_profile": ("profile.csv", ("epsilon", "y", "rho_scaled", "rho_model", "config_hash")),
    "initial_layer_decay": ("profile.csv", ("tau", "rho_l2", "config_hash")),
}

# rate preset -> its claims as rows of (claim id, metric, window, rule),
# each graded on the eps-slope of that sweep.csv column.  Rule "in_window"
# passes a slope inside the window; rule "monotone" needs the metric to
# decrease with eps and fails a window miss only when strict, warning
# otherwise.  The first row gives report.json its top-level fit and window.
CLAIMS = {
    "thm1_rate": (("c01", "err_c_LinfL2", (0.85, 1.15), "in_window"),),
    # the H2 rate is preasymptotic on these grids: its window is soft
    "thm51_rate": (("c03", "err_cS_grad_LinfL2", (1.25, 1.75), "in_window"),
                   ("c04", "err_c_LinfH2", (0.30, 0.70), "monotone")),
    "custom": (("custom", "err_c_LinfL2", (0.50, 1.50), "in_window"),),
}

# energy preset: residual must shrink by this factor per dt halving
ENERGY_RATIO_MIN = 1.8
# energy preset: dt = cfg.dt / divisor per level, coarsest first
ENERGY_DT_DIVISORS = (1, 2, 4)
# layer preset: admissible relative profile error at the smallest eps
PROFILE_REL_ERR_MAX = 0.25
# decay preset: measured tail slope must be at most -DECAY_MARGIN * b * lambda
DECAY_MARGIN = 0.95


class ExperimentError(RuntimeError):
    """Solver abort inside an experiment; payload mirrors error.json."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


@dataclass(frozen=True)
class Fixture:
    """Everything one (config, eps) run needs, fully materialized.

    run is the config both runs of the pair read, wall data included.
    """

    run: NpnsConfig
    c1_lim0: np.ndarray
    c1_eps0: np.ndarray


@dataclass(frozen=True)
class SharedLimit:
    """The fields of a rate sweep's shared limit run that its members read.

    Each is one array with a leading axis over the saved states: the
    times t, c1 and psi, and u, the velocity components stacked along a
    first axis, in d = 2.  In d = 1 u is None, as the limit velocity is
    zero.  c2 is not kept: block rebuilds it.
    """

    t: np.ndarray
    c1: np.ndarray
    psi: np.ndarray
    u: np.ndarray | None

    def block(self, grid: ChannelGrid, p: Params, rows: slice) -> State:
        """The saved states in rows as one block, c2 = -(z1/z2) c1 as the limit step builds it."""
        c1 = self.c1[rows]
        comps = [np.zeros_like(c1)] if self.u is None else list(self.u[:, rows])
        return State(t=self.t[rows], c1=c1, c2=-(p.z1 / p.z2) * c1, u=VelocityField(grid, comps),
                     psi=self.psi[rows])


def build_fixture(cfg: ExperimentConfig, eps: float) -> Fixture:
    """The member of cfg at eps (ExperimentConfig.member) with its run config."""
    grid, p, bdata, dt, c1_lim0, c1_eps0 = cfg.member(eps)
    run = NpnsConfig(params=p, bdata=bdata, grid=grid, dt=dt, t_end=cfg.t_end)
    return Fixture(run=run, c1_lim0=c1_lim0, c1_eps0=c1_eps0)


def _run_eps(cfg: ExperimentConfig, fx: Fixture) -> Iterator[State]:
    """The finite-eps run of one fixture, as a stream."""
    g = fx.run.grid
    init = well_prepared_init(g, fx.c1_eps0, VelocityField.zero(g), fx.run)
    return run_npns(init, fx.run, save_every=cfg.save_every)


def _run_limit(cfg: ExperimentConfig, fx: Fixture) -> Iterator[State]:
    """The limit run of one fixture, as a stream."""
    g = fx.run.grid
    linit = initial_limit_state(g, fx.c1_lim0, VelocityField.zero(g), fx.run)
    return run_limit(linit, fx.run, save_every=cfg.save_every)


def _run_pair(cfg: ExperimentConfig, fx: Fixture) -> tuple[Iterator[State], Iterator[State]]:
    """Both runs of one fixture; one driver gives them the same snapshot times."""
    return _run_eps(cfg, fx), _run_limit(cfg, fx)


def _rate_metrics(cfg: ExperimentConfig, eps: float, limit: SharedLimit) -> dict[str, float]:
    """All sweep columns for one eps against its limit run.

    The finite-eps run is reduced as it is marched: its norms are taken
    over blocks of snapshots (snapshot_blocks), each block against the
    limit's block of the same times, and then folded one snapshot at a
    time, as Python floats, into the time maxima and trapezoid integrals.
    Time integrals use the trapezoid rule on the snapshot grid, so
    transients shorter than save_every*dt are under-resolved; the
    windowed criteria only involve norms that are insensitive to that.
    wall_clock_s times the finite-eps run and this reduction, not the
    limit run, which members may share.
    """
    t0 = time.perf_counter()
    fx = build_fixture(cfg, eps)
    g, p = fx.run.grid, fx.run.params
    models = composite(fx.run)

    err_c = err_u = err_h2 = err_cs = eps_gpsi = 0.0
    times, gpsi_sq, rho_sq, gc_sq = [], [], [], []
    for s in snapshot_blocks(g, _run_eps(cfg, fx)):
        sl = limit.block(g, p, slice(len(times), len(times) + len(s.t)))
        times += s.t.tolist()
        d1 = s.c1 - sl.c1
        d2 = s.c2 - sl.c2
        model1, model2 = models(sl)
        (h1_1, h2_1), (h1_2, h2_2) = norms_h1_semi_h2(g, d1), norms_h1_semi_h2(g, d2)
        norms = [
            norm_l2(g, d1), norm_l2(g, d2), h2_1, h2_2,
            h1_1, h1_2, norm_h1_semi(g, s.psi - sl.psi),
            norm_l2(g, s.rho(p)), norm_h1_semi(g, s.psi),
            norm_h1_semi(g, s.c1 - model1), norm_h1_semi(g, s.c2 - model2),
            *(norm_l2(g, a - b) for a, b in zip(s.u.components, sl.u.components)),
        ]
        for l2_1, l2_2, h2_1, h2_2, h1_1, h1_2, gpsi, rho, h1_psi, cs1, cs2, *du in zip(
                *(n.tolist() for n in norms)):
            err_c = max(err_c, l2_1, l2_2)
            err_h2 = max(err_h2, h2_1, h2_2)
            err_u = max(err_u, math.sqrt(sum(n ** 2 for n in du)))
            gpsi_sq.append(gpsi ** 2)
            rho_sq.append((rho / eps) ** 2)
            gc_sq.append(max(h1_1, h1_2) ** 2)
            eps_gpsi = max(eps_gpsi, eps * h1_psi)
            err_cs = max(err_cs, cs1, cs2)

    return {
        "epsilon": eps,
        "err_c_LinfL2": err_c,
        "err_u_LinfL2": err_u,
        "err_grad_psi_L2L2": math.sqrt(_trapz(gpsi_sq, times)),
        "err_rho_over_eps_L2L2": math.sqrt(_trapz(rho_sq, times)),
        "err_cS_grad_LinfL2": err_cs,
        "err_c_LinfH2": err_h2,
        "err_grad_c_L2L2": math.sqrt(_trapz(gc_sq, times)),
        "eps_grad_psi_LinfL2": eps_gpsi,
        "ny": float(g.ny),
        "dt": fx.run.dt,
        "wall_clock_s": time.perf_counter() - t0,
    }


def _limit_worker(item: tuple[ExperimentConfig, float]) -> SharedLimit:
    cfg, eps = item
    fx = build_fixture(cfg, eps)
    g = fx.run.grid
    n = len(saved_steps(fx.run.n_steps, cfg.save_every))
    t = np.empty(n)
    c1 = np.empty((n, *g.shape))
    psi = np.empty((n, *g.shape))
    u = np.empty((g.d, n, *g.shape)) if g.d == 2 else None
    for k, s in enumerate(_run_limit(cfg, fx)):
        t[k], c1[k], psi[k] = s.t, s.c1, s.psi
        if u is not None:
            u[:, k] = s.u.components
    return SharedLimit(t=t, c1=c1, psi=psi, u=u)


def _sweep_worker(item: tuple[ExperimentConfig, float, SharedLimit]) -> dict[str, float]:
    return _rate_metrics(*item)


def _rate_sweep(cfg: ExperimentConfig, parallel: bool) -> list[dict[str, float]]:
    """Sweep rows of a rate preset, one per eps, in eps order.

    The limit system has no eps in it: its run reads eps only to label
    an abort.  Members with the same grid and step, the key
    cfg.resolve(eps) = (ny, dt), share one limit run, marched for the
    first member of the key.  The pool runs the distinct limits first,
    then the members.
    """
    keys = [cfg.resolve(e) for e in cfg.eps_list]
    firsts = {}
    for key, e in zip(keys, cfg.eps_list):
        firsts.setdefault(key, e)
    limits = dict(zip(firsts, _pool_map(_limit_worker, [(cfg, e) for e in firsts.values()], parallel)))
    items = [(cfg, e, limits[key]) for key, e in zip(keys, cfg.eps_list)]
    return _pool_map(_sweep_worker, items, parallel)


def _pool_map(worker, items: list, parallel: bool) -> list:
    """worker applied to each item, results in item order.

    With parallel and more than one item the items go to a process pool
    of at most one worker per core, in item order, so the first items
    start first; worker must be a module-level function.
    """
    if parallel and len(items) > 1:
        # imported here, so that a serial run never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(items), os.cpu_count() or 1)) as pool:
            return list(pool.map(worker, items))
    return [worker(it) for it in items]


def _report(cfg: ExperimentConfig, fit: dict, window, passed, per_eps: list[dict],
            report_warnings: list[dict], **extra) -> dict:
    """The report.json fields of every preset; run_experiment adds config_hash."""
    return {"preset": cfg.preset, "slope": fit["slope"], "intercept": fit["intercept"], "r2": fit["r2"],
            "window": list(window), "pass": bool(passed), "per_epsilon": per_eps,
            "warnings": report_warnings, **extra}


# ---------------------------------------------------------------------------
# identity / profile presets


def _energy_worker(item: tuple[ExperimentConfig, int]) -> tuple[float, float, list[dict]]:
    """One run of the energy study at dt / divisor: the step it ran at
    (dt / divisor snapped to t_end), its max |residual|, plus the diag
    rows at the finest level and none elsewhere.

    Only those rows read the limit (through H and Theta), so the coarser
    levels and the equilibrium run march the finite-eps system alone.
    At the finest level the two runs are marched in lockstep as
    diagnostics_record reads them.
    """
    cfg, divisor = item
    scaled = replace(cfg, dt=cfg.dt / divisor)
    fx = build_fixture(scaled, cfg.eps)
    fine = divisor == ENERGY_DT_DIVISORS[-1]
    run, lrun = _run_pair(scaled, fx) if fine else (_run_eps(scaled, fx), None)
    rows = diagnostics_record(fx.run.grid, run, fx.run.wall, fx.run.params, lrun)
    max_residual = float(np.max(np.abs([row["dissipation_residual"] for row in rows])))
    return fx.run.dt, max_residual, rows if fine else []


def _energy_metrics(cfg: ExperimentConfig, parallel: bool = True) -> tuple[list[dict], dict]:
    """dt-halving study of the energy balance plus the equilibrium run.

    The four runs are independent jobs, submitted longest first: the
    finest level (the only one that also marches the limit), the coarser
    levels, then the equilibrium run, so on two cores the finest pair is
    the only long pole.
    """
    # the constant electroneutral state with an unbiased wall is a fixed
    # point of the scheme, so its balance residual must be exactly zero
    eq = replace(cfg, gamma1_upper=cfg.gamma1_lower, w_lower="0.0", w_upper="0.0",
                 ic_bump=0.0, ic_eps_amp=0.0)
    divisors = ENERGY_DT_DIVISORS[::-1]
    *level_results, (_, eq_residual, _) = _pool_map(
        _energy_worker, [(cfg, d) for d in divisors] + [(eq, 1)], parallel)
    by_divisor = dict(zip(divisors, level_results))
    levels = [{"dt": by_divisor[d][0], "residual": by_divisor[d][1]} for d in ENERGY_DT_DIVISORS]
    diag_rows = by_divisor[ENERGY_DT_DIVISORS[-1]][2]

    ratios = [levels[k - 1]["residual"] / levels[k]["residual"] for k in range(1, len(levels))]
    for k, entry in enumerate(levels):
        entry["ratio_vs_prev"] = None if k == 0 else ratios[k - 1]
    fit = rate_fit([(lv["dt"], lv["residual"]) for lv in levels])
    window = (math.log2(ENERGY_RATIO_MIN), 3.0)
    passed = all(r >= ENERGY_RATIO_MIN for r in ratios) and eq_residual == 0.0
    return diag_rows, _report(cfg, fit, window, passed, levels, [], equilibrium_residual=eq_residual)


def _profile_worker(item: tuple[ExperimentConfig, float]) -> tuple[list[dict], dict]:
    """Scaled charge profile against the closed layer form near y = 0."""
    cfg, eps = item
    fx = build_fixture(cfg, eps)
    g, p = fx.run.grid, fx.run.params
    # the last state of each run; the others are dropped as they are marched
    s, sl = (deque(run, maxlen=1)[0] for run in _run_pair(cfg, fx))

    phi0 = sl.psi + fx.run.wall.phiw
    bl_l, bl_r = wall_layers(fx.run, phi0)
    model = -laplacian(g, phi0) + bl_l.charge(g.y / eps) + bl_r.charge((1.0 - g.y) / eps)
    measured = s.rho(p) / eps ** 2

    # x-averaged traces on the near-wall window y <= 8 eps
    window = g.y <= 8.0 * eps + 1e-12
    yw = g.y[window]
    mw = np.mean(measured, axis=0)[window]
    dw = np.mean(model, axis=0)[window]
    rel = math.sqrt(_trapz((mw - dw) ** 2, yw) / _trapz(dw ** 2, yw))
    entry = {"epsilon": eps, "rel_l2_err": rel, "ny": g.ny, "dt": fx.run.dt}
    rows = [{"epsilon": eps, "y": float(yj), "rho_scaled": float(mj), "rho_model": float(dj)}
            for yj, mj, dj in zip(yw, mw, dw)]
    return rows, entry


def _layer_profile_metrics(cfg: ExperimentConfig, parallel: bool = True) -> tuple[list[dict], dict]:
    results = _pool_map(_profile_worker, [(cfg, e) for e in cfg.eps_list], parallel)
    rows = [row for chunk, _ in results for row in chunk]
    per_eps = [entry for _, entry in results]

    errs = [e["rel_l2_err"] for e in per_eps]
    improving = all(b < a for a, b in zip(errs, errs[1:]))
    passed = improving and errs[-1] <= PROFILE_REL_ERR_MAX
    report_warnings = []
    try:
        fit = rate_fit([(e["epsilon"], e["rel_l2_err"]) for e in per_eps])
    except ValueError:
        fit = {"slope": None, "intercept": None, "r2": None}
        report_warnings.append({"code": "insufficient_points_for_fit",
                                "message": "insufficient points for fit"})
    return rows, _report(cfg, fit, (0.0, PROFILE_REL_ERR_MAX), passed, per_eps, report_warnings)


def _decay_metrics(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """Fast-time charge relaxation march and its tail decay slope."""
    fx = build_fixture(cfg, cfg.eps)
    g, p = fx.run.grid, fx.run.params
    background = fx.c1_lim0
    rho0 = cfg.rho0_amp * np.sin(math.pi * g.y)[None, :] * np.ones(g.shape)
    # the fixture's step: dt snapped so that t_end is a whole number of steps
    n = fx.run.n_steps
    tau = fx.run.dt * np.arange(n + 1)
    states = solve_initial_layer(g, p, background, rho0, tau)
    norms = np.array([norm_l2(g, s.rho) for s in states])

    rows = [{"tau": float(tau[k]), "rho_l2": float(norms[k])} for k in saved_steps(n, cfg.save_every)]

    tail = tau >= 0.5 * cfg.t_end
    fit = line_fit(tau[tail], np.log(norms[tail]))

    lam = float(np.min(background))
    bound = -DECAY_MARGIN * p.z1 * (p.z1 * p.D1 - p.z2 * p.D2) * lam
    entry = {"epsilon": cfg.eps, "lambda": lam, "tail_from": 0.5 * cfg.t_end,
             "rho_l2_initial": float(norms[0]), "rho_l2_final": float(norms[-1])}
    return rows, _report(cfg, fit, (-1000.0, bound), -1000.0 <= fit["slope"] <= bound, [entry], [])


# ---------------------------------------------------------------------------
# artifact writers


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[dict], config_hash: str) -> None:
    """Floats are written as their repr, so they read back exactly."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (config_hash if col == "config_hash" else row[col] for col in columns)
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in cells))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _grade(claim: tuple, per_eps: list[dict], strict: bool) -> tuple[dict, list[dict]]:
    """The report.json claims row of one CLAIMS row, and its warnings."""
    cid, metric, window, rule = claim
    row = {"claim": cid, "metric": metric, "rule": rule, "window": list(window),
           "slope": None, "intercept": None, "r2": None, "pass": False}
    pairs = [(m["epsilon"], m[metric]) for m in per_eps if m[metric] > 0.0]
    if len(pairs) < 3:
        msg = f"insufficient points for fit: need 3 positive (eps, {metric}) pairs, got {len(pairs)}"
        warnings.warn(msg, stacklevel=2)
        logger.warning(msg)
        return row, [{"claim": cid, "code": "insufficient_points_for_fit", "message": msg}]
    row.update(rate_fit(pairs))
    in_window = window[0] <= row["slope"] <= window[1]
    if rule == "in_window":
        row["pass"] = in_window
        return row, []
    vals = [m[metric] for m in per_eps]
    soft_miss = not in_window and not strict
    row["pass"] = (in_window or soft_miss) and all(b < a for a, b in zip(vals, vals[1:]))
    if not soft_miss:
        return row, []
    return row, [{"claim": cid, "code": "slope_outside_window",
                  "message": f"{metric} slope {row['slope']:.3f} outside {row['window']}; "
                             f"downgraded to a warning in non-strict mode"}]


def _sweep_report(cfg: ExperimentConfig, sweep_path) -> dict:
    """The report of a rate preset, graded from its sweep.csv alone.

    Each of the preset's CLAIMS is graded into one row of the report's
    claims list; pass holds when every row passes, and the top-level
    slope, intercept, r2 and window are the first row's.  The per-eps
    entries are the file's rows less wall_clock_s and config_hash.  A
    non-rate preset, an empty file, a missing column the grading reads
    or a cell that is not a number raises ConfigError, which names the
    file and, for a cell, its data row and column.
    """
    if cfg.preset not in RATE_PRESETS:
        raise ConfigError(f"refit only applies to rate presets, got {cfg.preset!r}")
    claims = CLAIMS[cfg.preset]
    with open(sweep_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"{sweep_path}: no sweep rows to refit")
    for col in ("epsilon", *(metric for _, metric, _, _ in claims), "config_hash"):
        if col not in rows[0]:
            raise ConfigError(f"{sweep_path}: no {col!r} column")
    per_eps = []
    for n, row in enumerate(rows, start=1):
        entry = {}
        # per-run timings stay out of the report so reruns are byte-identical
        for k, v in row.items():
            if k in ("wall_clock_s", "config_hash"):
                continue
            try:
                entry[k] = float(v)
            except (TypeError, ValueError):
                raise ConfigError(f"{sweep_path}: row {n}, column {k!r}: {v!r} is not a number") from None
        per_eps.append(entry)

    graded, found = zip(*(_grade(claim, per_eps, cfg.strict) for claim in claims))
    first = graded[0]
    return _report(cfg, first, first["window"], all(r["pass"] for r in graded), per_eps,
                   [w for ws in found for w in ws], claims=list(graded), config_hash=rows[0]["config_hash"])


def _error_payload(cfg: ExperimentConfig, stage: str, exc: BaseException) -> dict:
    payload = {
        "preset": cfg.preset,
        "stage": stage,
        # solver aborts carry the eps of the run that failed; other errors have none
        "epsilon": getattr(exc, "eps", None),
        "error": type(exc).__name__,
        "message": str(exc),
        "config_hash": cfg.hash(),
    }
    if isinstance(exc, StepError):
        payload.update(t=exc.t, extrema=exc.extrema)
    elif isinstance(exc, MaxPrincipleViolation):
        payload.update(t=exc.t, report=asdict(exc.report))
    return payload


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   parallel: bool = True) -> dict:
    """Execute a preset and write its artifacts; returns the report.

    A rate preset's report is graded from the sweep.csv it just wrote, as
    refit_report grades it.  On a solver abort the diagnostic payload is
    written to error.json in the output directory before ExperimentError
    propagates, so a crashed sweep still leaves a machine-readable trace
    behind.
    """
    cfg = cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.hash()

    solver_errors = (StepError, MaxPrincipleViolation, ValueError, FloatingPointError,
                     np.linalg.LinAlgError)

    try:
        if cfg.preset in RATE_PRESETS:
            rows = _rate_sweep(cfg, parallel)
        elif cfg.preset == "energy_identity":
            rows, report = _energy_metrics(cfg, parallel=parallel)
        elif cfg.preset == "layer_profile":
            rows, report = _layer_profile_metrics(cfg, parallel=parallel)
        elif cfg.preset == "initial_layer_decay":
            rows, report = _decay_metrics(cfg)
        else:  # pragma: no cover - validate() rejects unknown presets
            raise RuntimeError(f"unhandled preset {cfg.preset}")
    except solver_errors as exc:
        payload = _error_payload(cfg, "solver", exc)
        _write_json(out / "error.json", payload)
        logger.error("experiment aborted: %s", exc)
        raise ExperimentError(str(exc), payload) from exc

    name, columns = CSV_ARTIFACTS[cfg.preset]
    _write_csv(out / name, columns, rows, chash)
    if cfg.preset in RATE_PRESETS:
        # read back outside the try: a ConfigError is a ValueError, not a solver abort
        report = _sweep_report(cfg, out / name)
    report["config_hash"] = chash
    _write_json(out / "report.json", report)
    report["paths"] = {name.removesuffix(".csv"): str(out / name), "report": str(out / "report.json")}
    logger.info("experiment %s done: pass=%s, artifacts in %s", cfg.preset, report["pass"], out)
    return report


def refit_report(cfg: ExperimentConfig, sweep_path, out_path) -> dict:
    """Rebuild report.json from an existing sweep.csv without re-running.

    The config is graded as given, its strict flag included.  The
    grading is run_experiment's, so a refit of a run's sweep.csv rewrites
    that run's report.json byte for byte.
    """
    report = _sweep_report(cfg, sweep_path)
    _write_json(Path(out_path), report)
    return report
