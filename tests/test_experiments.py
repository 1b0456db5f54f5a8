"""Orchestration behavior: artifacts, determinism, aborts, refits."""

import json
import math
import os
import sys
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from debyeflow import diagnostics, elliptic, experiments
from debyeflow.config_io import preset_defaults
from debyeflow.diagnostics import rate_fit, snapshot_blocks
from debyeflow.experiments import (
    ExperimentError,
    SWEEP_COLUMNS,
    _energy_metrics,
    _limit_worker,
    _pool_map,
    _rate_metrics,
    _rate_sweep,
    _run_pair,
    build_fixture,
    refit_report,
    run_experiment,
)

from oracles import per_snapshot_rate_metrics


def tiny_custom():
    return replace(
        preset_defaults("custom"),
        ny=65, dt=2e-3, t_end=0.01, save_every=2,
        eps_list=(0.25, 0.125, 0.0625),
    )


def strip_wall_clock(csv_text):
    # wall_clock_s is measured, everything else must reproduce bitwise
    lines = csv_text.splitlines()
    cols = lines[0].split(",")
    k = cols.index("wall_clock_s")
    return [",".join(c for i, c in enumerate(ln.split(",")) if i != k) for ln in lines]


def test_sweep_artifacts_and_columns(tmp_path):
    report = run_experiment(tiny_custom(), out_dir=tmp_path, parallel=False)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS), "sweep header is part of the contract"
    assert len(lines) == 4
    eps_col = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert eps_col == [0.25, 0.125, 0.0625], "rows merged in eps order"
    assert report["pass"] is True
    assert set(report["paths"]) == {"sweep", "report"}
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["config_hash"] == report["config_hash"]
    assert "wall_clock_s" not in json.dumps(on_disk), "timings stay out of the report"


def test_reruns_are_byte_identical(tmp_path):
    cfg = tiny_custom()
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a, parallel=False)
    run_experiment(cfg, out_dir=b, parallel=True)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert strip_wall_clock((a / "sweep.csv").read_text()) == strip_wall_clock(
        (b / "sweep.csv").read_text()
    ), "serial and pooled sweeps must agree bitwise"


def test_energy_preset_serial_and_pooled_bytes_agree(tmp_path):
    cfg = replace(preset_defaults("energy_identity"), ny=33, t_end=0.01)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a, parallel=False)
    run_experiment(cfg, out_dir=b, parallel=True)
    for name in ("diag.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_energy_report_gives_the_dt_each_level_ran_at():
    # t_end = 0.0205 is no whole number of dt = 1e-3 steps, so each level
    # snaps its step to t_end / n; the report and its fit read that step
    cfg = replace(preset_defaults("energy_identity"), ny=33, t_end=0.0205)
    _, report = _energy_metrics(cfg, parallel=False)
    dts = [level["dt"] for level in report["per_epsilon"]]
    assert dts == [0.0205 / 21, 0.0205 / 41, 0.0205 / 82]
    fit = rate_fit([(level["dt"], level["residual"]) for level in report["per_epsilon"]])
    assert report["slope"] == fit["slope"]


def _square_first_last(item):
    # the first item finishes last, so completion order is not item order
    time.sleep(0.2 if item == 0 else 0.0)
    return item * item, os.getpid()


@pytest.mark.parametrize("parallel", [False, True])
def test_pool_map_returns_results_in_item_order(parallel):
    items = [0, 1, 2, 3, 4]
    results = _pool_map(_square_first_last, items, parallel)
    assert [r for r, _ in results] == [0, 1, 4, 9, 16]
    in_process = {pid == os.getpid() for _, pid in results}
    assert in_process == {not parallel}, "parallel runs in workers, serial in-process"


def test_decay_preset_is_fully_deterministic(tmp_path):
    cfg = replace(preset_defaults("initial_layer_decay"), ny=33, dt=0.01, t_end=0.3)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a)
    run_experiment(cfg, out_dir=b)
    for name in ("profile.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_decay_study_marches_the_snapped_dt(tmp_path):
    # 0.305 is no whole number of steps of 0.01: the study runs 31 steps
    # of 0.305/31, so its last row sits at t_end, whose half the tail fit starts at
    cfg = replace(preset_defaults("initial_layer_decay"), ny=33, dt=0.01, t_end=0.305, save_every=1)
    report = run_experiment(cfg, out_dir=tmp_path)
    rows = (tmp_path / "profile.csv").read_text().splitlines()
    taus = [float(row.split(",")[0]) for row in rows[1:]]
    assert len(taus) == 32 and abs(taus[-1] - 0.305) <= 1e-12, taus[-1]
    assert report["per_epsilon"][0]["tail_from"] == 0.1525


def test_decay_profile_keeps_the_last_saved_tau(tmp_path):
    # 20 steps of 0.0025 saved every third: the rows are the states the
    # march saves, the initial one, every third and the last, at t_end
    cfg = replace(preset_defaults("initial_layer_decay"), ny=33, t_end=0.05, save_every=3)
    report = run_experiment(cfg, out_dir=tmp_path)
    rows = [row.split(",") for row in (tmp_path / "profile.csv").read_text().splitlines()[1:]]
    taus = [float(tau) for tau, _, _ in rows]
    assert len(taus) == 8 and abs(taus[-1] - 0.05) <= 1e-12, taus
    assert float(rows[-1][1]) == report["per_epsilon"][0]["rho_l2_final"]


def test_single_eps_warns_insufficient_points(tmp_path):
    cfg = replace(tiny_custom(), eps_list=(0.125,))
    with pytest.warns(UserWarning, match="insufficient points for fit"):
        report = run_experiment(cfg, out_dir=tmp_path, parallel=False)
    assert report["slope"] is None and report["r2"] is None
    assert report["pass"] is False
    assert report["warnings"][0]["code"] == "insufficient_points_for_fit"
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2


def test_solver_abort_writes_error_payload(tmp_path, monkeypatch):
    # validate refuses a non-positive initial concentration, so the
    # fixture is made negative after it; the initial-state check
    # (npns._initial_fields) then aborts the run with a ValueError
    build = experiments.build_fixture

    def negative_bump(cfg, eps):
        fx = build(cfg, eps)
        return replace(fx, c1_eps0=fx.c1_eps0 - 5.0 * np.sin(np.pi * fx.run.grid.y))

    monkeypatch.setattr(experiments, "build_fixture", negative_bump)
    cfg = tiny_custom()
    with pytest.raises(ExperimentError) as err:
        run_experiment(cfg, out_dir=tmp_path, parallel=False)
    payload = json.loads((tmp_path / "error.json").read_text())
    assert payload["config_hash"] == cfg.hash()
    assert payload["error"] == err.value.payload["error"] == "ValueError"
    assert "initial concentration must be positive" in payload["message"]
    assert payload["epsilon"] is None, "an input error belongs to no eps run"
    assert not (tmp_path / "report.json").exists(), "no report after an abort"


def test_layer_preset_grades_ny_and_caps_dt(tmp_path):
    cfg = replace(
        preset_defaults("thm51_rate"),
        t_end=0.004, eps_list=(0.25, 0.125, 0.0625),
    )
    report = run_experiment(cfg, out_dir=tmp_path, parallel=False)
    for entry in report["per_epsilon"]:
        eps = entry["epsilon"]
        assert entry["ny"] == math.ceil(8.0 / eps) + 1, f"grading broken at eps={eps}"
        assert entry["dt"] <= eps**2 / 8.0 + 1e-15, f"dt cap broken at eps={eps}"
        steps = cfg.t_end / entry["dt"]
        assert abs(steps - round(steps)) < 1e-9, "dt must divide t_end"


def test_refit_only_applies_to_rate_presets(tmp_path):
    with pytest.raises(ValueError, match="rate presets"):
        refit_report(preset_defaults("energy_identity"), tmp_path / "sweep.csv", tmp_path / "r.json")


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_sweep")
    return run_experiment(tiny_custom(), out_dir=out, parallel=False), out


def test_refit_matches_original_report(tiny_sweep, tmp_path):
    # report.json is a pure function of sweep.csv: the refit rewrites the
    # run's file byte for byte, every per-eps metric included
    report, out = tiny_sweep
    refit_report(tiny_custom(), out / "sweep.csv", tmp_path / "refit.json")
    assert (tmp_path / "refit.json").read_bytes() == (out / "report.json").read_bytes()
    assert {"err_grad_c_L2L2", "eps_grad_psi_LinfL2", "ny", "dt"} <= set(report["per_epsilon"][0])


def test_refit_grades_a_sweep_csv_without_the_newer_columns(tiny_sweep, tmp_path):
    # a sweep.csv written before err_grad_c_L2L2, eps_grad_psi_LinfL2, ny
    # and dt became columns still refits: its headline metric is graded
    # and the entries hold the columns it has
    report, out = tiny_sweep
    newer = ("err_grad_c_L2L2", "eps_grad_psi_LinfL2", "ny", "dt")
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()]
    keep = [k for k, col in enumerate(rows[0]) if col not in newer]
    old = tmp_path / "sweep.csv"
    old.write_text("".join(",".join(r[k] for k in keep) + "\n" for r in rows))
    refit = refit_report(tiny_custom(), old, tmp_path / "refit.json")
    for key in ("slope", "intercept", "r2", "window", "pass", "config_hash"):
        assert refit[key] == report[key], key
    assert refit["pass"] is True
    assert refit["per_epsilon"] == [{k: v for k, v in m.items() if k not in newer}
                                    for m in report["per_epsilon"]]


def test_run_pair_reuses_the_fixture_wall_extension(monkeypatch):
    # the finite-eps run extends phiw, Gamma1 and Gamma2 once; the limit
    # run takes the fixture's phiw instead of extending it again
    calls = []
    original = elliptic.harmonic_extension

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    cfg = replace(tiny_custom(), t_end=4e-3, save_every=1)
    fx = build_fixture(cfg, 0.25)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "debyeflow" and vars(module).get("harmonic_extension") is original:
            monkeypatch.setattr(module, "harmonic_extension", counted)
    run, lrun = map(list, _run_pair(cfg, fx))
    assert len(run) == len(lrun) >= 3
    assert len(calls) <= 3, f"harmonic_extension calls per pair: {len(calls)}"


def test_energy_study_marches_the_limit_at_the_finest_level_only(monkeypatch):
    # only the finest level's diag rows read the limit (H, Theta); the
    # coarser levels and the equilibrium run are graded on finite-eps
    # residuals alone
    calls = []
    original = experiments.run_limit

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_limit", counted)
    cfg = replace(preset_defaults("energy_identity"), ny=33, t_end=0.01)
    rows, report = _energy_metrics(cfg, parallel=False)
    assert len(calls) == 1, f"run_limit calls: {len(calls)}"
    assert report["equilibrium_residual"] == 0.0
    assert len(rows) == 41 and all(row["H"] > 0.0 for row in rows[1:])


def test_energy_study_holds_one_block_of_a_run_at_a_time(monkeypatch):
    # the study reduces each finite-eps run as it is marched: of the
    # States a run yields, no more than one block plus the one being
    # stepped are ever alive at once
    block = 4
    monkeypatch.setattr(diagnostics, "BLOCK_ELEMENTS", block * 33)
    refs, most = [], []
    original = experiments.run_npns

    def watched(*args, **kwargs):
        for s in original(*args, **kwargs):
            refs.append(weakref.ref(s))
            most.append(sum(r() is not None for r in refs))
            yield s

    monkeypatch.setattr(experiments, "run_npns", watched)
    cfg = replace(preset_defaults("energy_identity"), ny=33, t_end=0.01)
    rows, report = _energy_metrics(cfg, parallel=False)
    assert len(rows) == 41 and report["equilibrium_residual"] == 0.0
    assert len(refs) == 41 + 21 + 11 + 11, "four runs, every step saved"
    assert max(most) <= block + 1, f"up to {max(most)} States alive at once"


def _count_limit_runs(monkeypatch) -> list:
    calls = []
    original = experiments.run_limit

    def counted(init, cfg, save_every=1):
        calls.append((cfg.grid.ny, cfg.dt))
        return original(init, cfg, save_every=save_every)

    monkeypatch.setattr(experiments, "run_limit", counted)
    return calls


def test_rate_sweep_marches_a_shared_limit_once(monkeypatch):
    # the limit system has no eps: three members on one grid and step
    # share one limit run
    calls = _count_limit_runs(monkeypatch)
    rows = _rate_sweep(tiny_custom(), parallel=False)
    assert [r["epsilon"] for r in rows] == [0.25, 0.125, 0.0625]
    assert calls == [(65, 2e-3)]


def test_graded_rate_sweep_marches_one_limit_per_member(monkeypatch):
    # a layer preset grades ny and caps dt per eps, so no two members
    # share a grid and a step
    calls = _count_limit_runs(monkeypatch)
    cfg = replace(preset_defaults("thm51_rate"), t_end=0.004, eps_list=(0.25, 0.125, 0.0625))
    rows = _rate_sweep(cfg, parallel=False)
    assert calls == [(int(r["ny"]), r["dt"]) for r in rows]
    assert len(set(calls)) == 3


def rate_oracle_cfg(d):
    """An 11-snapshot custom sweep: d = 1 at ny = 257, and d = 2 at 8x17
    with x-varying Gamma1 and w, which drive a nonzero velocity."""
    base = replace(preset_defaults("custom"), dt=1e-3, t_end=1e-2, save_every=1,
                   gamma1_upper="2.5", w_upper="0.5", eps_list=(0.3, 0.15))
    if d == 1:
        return replace(base, ny=257)
    return replace(base, d=2, nx=8, ny=17, gamma1_lower="2.0 + 0.2*cos(2*pi*x)",
                   w_lower="0.0 + 0.1*sin(2*pi*x)")


def test_members_with_one_grid_and_step_get_bitwise_equal_limits():
    # pins the sharing key (ny, dt): the limit run of any member with the
    # same key is the shared one, bit for bit
    cfg = rate_oracle_cfg(2)
    a, b = (_limit_worker((cfg, eps)) for eps in cfg.eps_list)
    assert build_fixture(cfg, 0.3).c1_eps0.tobytes() != build_fixture(cfg, 0.15).c1_eps0.tobytes()
    assert len(a.t) == len(b.t) == 11
    assert np.any(a.c1[-1][:, 1] != a.c1[-1][0, 1]), "the limit must vary in x"
    for name in ("t", "c1", "psi", "u"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("block", [None, 4, 1])
def test_blocked_rate_metrics_match_per_snapshot_oracle(d, block, monkeypatch):
    # None is the shipped block size (one block holds all 11 snapshots);
    # blocks of 4 leave a short last block and blocks of 1 are single
    # snapshots with a leading axis.  The member reads the stacked shared
    # limit, the oracle the limit run's States
    cfg = rate_oracle_cfg(d)
    eps = cfg.eps_list[0]
    fx = build_fixture(cfg, eps)
    g = fx.run.grid
    if block is not None:
        monkeypatch.setattr(diagnostics, "BLOCK_ELEMENTS", block * g.nx * g.ny)
    run, lrun = map(list, _run_pair(cfg, fx))
    sizes = [len(blk.t) for blk in snapshot_blocks(g, run)]
    assert sum(sizes) == 11 and sizes[0] == (11 if block is None else block)
    limit = _limit_worker((cfg, eps))
    assert (limit.u is None) == (d == 1)
    stacked = limit.block(g, fx.run.params, slice(None))
    for k, sl in enumerate(lrun):
        for name in ("t", "c1", "c2", "psi"):
            assert np.asarray(getattr(stacked, name)[k]).tobytes() == np.asarray(getattr(sl, name)).tobytes(), name
        for mine, want in zip(stacked.u.components, sl.u.components):
            assert mine[k].tobytes() == want.tobytes()
    ref = per_snapshot_rate_metrics(fx, run, lrun, eps)
    got = _rate_metrics(cfg, eps, limit)
    for key, value in ref.items():
        assert repr(got[key]) == repr(value), key
    assert (ref["err_u_LinfL2"] > 0.0) == (d == 2)
    assert min(ref.values()) >= 0.0 and ref["err_cS_grad_LinfL2"] > 0.0
