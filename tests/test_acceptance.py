"""End-to-end acceptance checks, one test per headline requirement.

Each preset runs once per session and its report is shared by the
tests that grade it, so ``pytest -v tests/test_acceptance.py`` prints
one pass/fail line per requirement.  Tolerances and slope windows are
stated inline next to each assertion.
"""

import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from debyeflow import ChannelGrid, Params, VelocityField
from debyeflow.config_io import preset_defaults
from debyeflow.diagnostics import phi_entropy, rate_fit
from debyeflow.elliptic import project_div_free, solve_poisson
from debyeflow.experiments import refit_report, run_experiment
from debyeflow.layers import (
    boundary_layer,
    clustered_xi_grid,
    solve_initial_layer,
    solve_mixed_layer,
)

from oracles import mixed_layer_direct
from test_experiments import strip_wall_clock

RNG = np.random.default_rng(20250812)


def run_preset(tmp_path_factory, name, **overrides):
    cfg = preset_defaults(name)
    if overrides:
        cfg = replace(cfg, **overrides)
    out = tmp_path_factory.mktemp(name)
    return run_experiment(cfg, out_dir=out), out, cfg


@pytest.fixture(scope="session")
def thm1(tmp_path_factory):
    return run_preset(tmp_path_factory, "thm1_rate")


@pytest.fixture(scope="session")
def thm51(tmp_path_factory):
    return run_preset(tmp_path_factory, "thm51_rate")


@pytest.fixture(scope="session")
def energy(tmp_path_factory):
    return run_preset(tmp_path_factory, "energy_identity")


@pytest.fixture(scope="session")
def profile(tmp_path_factory):
    return run_preset(tmp_path_factory, "layer_profile")


@pytest.fixture(scope="session")
def decay(tmp_path_factory):
    return run_preset(tmp_path_factory, "initial_layer_decay")


def fit_metric(report, key):
    return rate_fit([(e["epsilon"], e[key]) for e in report["per_epsilon"]])


def claim_row(report, claim):
    (row,) = [c for c in report["claims"] if c["claim"] == claim]
    return row


# ---------------------------------------------------------------------------
# 1. first-order convergence of the concentrations and the scaled potential


def test_c01_concentration_rate_is_first_order(thm1):
    report, _, cfg = thm1
    assert cfg.eps_list == (0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
    assert cfg.ny == 2048 and cfg.t_end == 0.1, "frozen sweep fixture"
    slope = report["slope"]
    assert 0.85 <= slope <= 1.15, f"headline slope {slope:.4f} outside [0.85, 1.15]"
    assert report["pass"] is True
    psi = fit_metric(report, "eps_grad_psi_LinfL2")
    assert 0.85 <= psi["slope"] <= 1.15, (
        f"eps-scaled potential-gradient slope {psi['slope']:.4f} outside [0.85, 1.15]"
    )


# ---------------------------------------------------------------------------
# 2. first-order convergence of the dissipation norms on the same sweep


def test_c02_dissipation_norm_rates_are_first_order(thm1):
    report, _, _ = thm1
    grad_c = fit_metric(report, "err_grad_c_L2L2")
    rho = fit_metric(report, "err_rho_over_eps_L2L2")
    assert 0.8 <= grad_c["slope"] <= 1.2, (
        f"concentration-gradient slope {grad_c['slope']:.4f} outside [0.8, 1.2]"
    )
    assert 0.8 <= rho["slope"] <= 1.2, (
        f"scaled-charge slope {rho['slope']:.4f} outside [0.8, 1.2]"
    )


# ---------------------------------------------------------------------------
# 3. composite-gradient convergence at rate 3/2 on layer-resolving grids


def test_c03_composite_gradient_rate_is_three_halves(thm51):
    report, _, cfg = thm51
    assert cfg.eps_list == (0.125, 0.0625, 0.03125, 0.015625)
    assert cfg.ny == 0, "grid must grade with eps"
    c03 = claim_row(report, "c03")
    assert c03["metric"] == "err_cS_grad_LinfL2"
    slope = c03["slope"]
    assert 1.25 <= slope <= 1.75, f"composite slope {slope:.4f} outside [1.25, 1.75]"
    assert c03["pass"] is True and report["pass"] is True


# ---------------------------------------------------------------------------
# 4. H2 convergence at rate 1/2: monotone decrease is hard, the window soft


def test_c04_h2_error_rate_is_half_order(thm51):
    # graded on the sweep of c03
    report, _, _ = thm51
    errs = [e["err_c_LinfH2"] for e in report["per_epsilon"]]
    assert all(b < a for a, b in zip(errs, errs[1:])), (
        f"H2 error must decrease monotonically with eps, got {errs}"
    )
    c04 = claim_row(report, "c04")
    assert (c04["metric"], c04["window"], c04["rule"]) == ("err_c_LinfH2", [0.3, 0.7], "monotone")
    slope = c04["slope"]
    if not 0.30 <= slope <= 0.70:
        warnings.warn(f"stretch window missed: H2 slope {slope:.4f} outside [0.30, 0.70]")
    assert c04["pass"] is True, "monotone decrease plus non-strict window"


@pytest.mark.parametrize("sweep", ["thm1", "thm51"])
def test_refit_rebuilds_the_rate_report_byte_for_byte(sweep, request, tmp_path):
    # report.json is a pure function of sweep.csv, so c01-c04 grade the
    # same numbers whether the report comes from the run or from a refit
    _, out, cfg = request.getfixturevalue(sweep)
    refit_report(cfg, out / "sweep.csv", tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == (out / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# 5. discrete free-energy balance closes at first order in dt


def test_c05_energy_identity_residual_converges(energy):
    report, _, _ = energy
    entries = report["per_epsilon"]
    ratios = [e["ratio_vs_prev"] for e in entries[1:]]
    assert len(ratios) == 2, "three dt levels"
    for r in ratios:
        assert r >= 1.8, f"residual ratio {r:.3f} under a dt halving is below 1.8"
    assert report["equilibrium_residual"] == 0.0, (
        f"equilibrium residual must vanish exactly, got {report['equilibrium_residual']!r}"
    )


# ---------------------------------------------------------------------------
# 6. reported concentration extrema honor the comparison bounds


def test_c06_maximum_principle_holds_on_accepted_runs(energy):
    _, out, cfg = energy
    with open(out / "diag.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "diagnostics must be written"
    # gamma = 2 at both walls and the initial bump peaks at 2.5
    lo, hi = 2.0, 2.5
    tol = 1e-6 + 1e-4  # stated slack plus the solver's own guard band
    for row in rows:
        for sp in ("c1", "c2"):
            mn, mx = float(row[f"min_{sp}"]), float(row[f"max_{sp}"])
            assert mn >= lo - tol, f"min {sp} = {mn} below {lo} at t={row['t']}"
            assert mx <= hi + tol, f"max {sp} = {mx} above {hi} at t={row['t']}"


# ---------------------------------------------------------------------------
# 7. near-wall charge agrees with the closed-form screening profile


def test_c07_screening_profile_matches_measured_charge(profile):
    report, _, cfg = profile
    errs = [e["rel_l2_err"] for e in report["per_epsilon"]]
    eps = [e["epsilon"] for e in report["per_epsilon"]]
    assert eps[-1] == 2.0**-6
    assert all(b < a for a, b in zip(errs, errs[1:])), (
        f"profile mismatch must improve as eps shrinks, got {errs}"
    )
    assert errs[-1] <= 0.25, f"relative L2 error {errs[-1]:.4f} above 25% at eps=2^-6"
    assert report["pass"] is True

    # the closed form itself solves the stretched screening system
    p = Params(z1=cfg.z1, z2=cfg.z2, D1=cfg.D1, D2=cfg.D2, nu=cfg.nu, eps=cfg.eps)
    g1 = float(cfg.gamma1_lower)
    g2 = -p.z1 * g1 / p.z2
    b = boundary_layer("left", 1.0, g1, p)
    xi = np.arange(0.0, 8.0 + 1e-12, 1e-2)
    res = max(
        float(np.max(np.abs(b.c1(xi, 2) + p.z1 * g1 * b.phi(xi, 2)))),
        float(np.max(np.abs(b.c2(xi, 2) + p.z2 * g2 * b.phi(xi, 2)))),
        float(np.max(np.abs(-b.phi(xi, 2) - b.charge(xi)))),
    )
    assert res <= 1e-8, f"closed-form system residual {res:.2e} above 1e-8"


# ---------------------------------------------------------------------------
# 8. fast-time charge relaxation: exact recursion, then the rate bound


def test_c08_initial_layer_decay_rate(decay):
    # constant background: the interior recursion is exact to solver
    # roundoff at every step
    p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=1.0, eps=0.125)
    g = ChannelGrid(d=1, nx=1, ny=129)
    cbar, dtau, n = 2.0, 0.05, 20
    states = solve_initial_layer(g, p, np.full(g.shape, cbar),
                                 np.cos(np.pi * g.yy), dtau * np.arange(n + 1))
    factor = 1.0 + dtau * p.z1 * (p.z1 * p.D1 - p.z2 * p.D2) * cbar
    for k, s in enumerate(states):
        dev = np.max(np.abs(s.rho[0, 1:-1] - np.cos(np.pi * g.yy)[0, 1:-1] / factor**k))
        assert dev <= 1e-11, f"recursion drift {dev:.2e} at step {k}"

    # variable background: eventual log-slope of the charge norm
    report, _, _ = decay
    slope, bound = report["slope"], report["window"][1]
    lam = report["per_epsilon"][0]["lambda"]
    assert np.isclose(bound, -0.95 * 1.0 * (1.0 * 2.0 - (-1.0) * 1.0) * lam, rtol=1e-12)
    assert slope <= bound, f"decay slope {slope:.4f} above the bound {bound:.4f}"
    assert report["pass"] is True


# ---------------------------------------------------------------------------
# 9. corner-layer solver against an independent direct discretization


def test_c09_mixed_layer_two_route_agreement():
    p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=1.0, eps=0.1)
    g1 = 2.0
    dtau, n_steps = 5e-3, 400
    taus = dtau * np.arange(n_steps + 1)

    def a1_fn(tau):
        return 0.3 * tau * np.exp(-tau)

    def a2_fn(tau):
        return -(p.D2 / p.D1) * a1_fn(tau)

    xi = clustered_xi_grid(40.0, 800, 4.0)
    states = solve_mixed_layer(a1_fn(taus), a2_fn(taus), g1, -p.z1 * g1 / p.z2,
                               p, xi, taus)
    xi_ref, _, c1_ref, c2_ref = mixed_layer_direct(
        p.D1, p.D2, p.z1, p.z2, g1, a1_fn, a2_fn,
        xi_max=40.0, n_xi=8001, dtau=dtau, n_steps=n_steps,
    )
    w = np.zeros_like(xi_ref)
    w[:-1] += 0.5 * np.diff(xi_ref)
    w[1:] += 0.5 * np.diff(xi_ref)
    num = den = 0.0
    for k in range(0, n_steps + 1, 10):
        mine1 = np.interp(xi_ref, xi, states[k].c1())
        mine2 = np.interp(xi_ref, xi, states[k].c2())
        num += float(np.dot(w, (mine1 - c1_ref[k]) ** 2 + (mine2 - c2_ref[k]) ** 2))
        den += float(np.dot(w, c1_ref[k] ** 2 + c2_ref[k] ** 2))
    rel = np.sqrt(num / den)
    assert rel <= 1e-3, f"substituted and direct routes disagree: rel L2 {rel:.2e}"

    # the diffusivity-weighted pairing holds along every relaxation march
    g = ChannelGrid(d=1, nx=1, ny=65)
    march = solve_initial_layer(g, p, 2.0 + 0.5 * np.sin(np.pi * g.yy),
                                np.sin(np.pi * g.yy), 0.01 * np.arange(51))
    for s in march:
        dev = float(np.max(np.abs(p.D2 * s.c1(p) + p.D1 * s.c2(p))))
        assert dev <= 1e-10, f"weighted pairing defect {dev:.2e} at tau={s.tau}"


# ---------------------------------------------------------------------------
# 10. property suites: entropy bounds, fit exactness, solver orders, determinism


def test_c10_property_suites(tmp_path):
    # quadratic entropy sandwich on 1e4 random bracketed triples
    m = RNG.uniform(1e-4, 1.0, size=10_000)
    M = RNG.uniform(1.0, 1e4, size=10_000)
    s = m + RNG.uniform(0.0, 1.0, size=10_000) * (M - m)
    val = phi_entropy(s)
    tol = 1e-14 * np.abs(s - 1.0) + 1e-300
    bad_lo = np.sum((s - 1.0) ** 2 / (2.0 * M) > val + tol)
    bad_hi = np.sum(val > (s - 1.0) ** 2 / (2.0 * m) + tol)
    assert bad_lo == 0 and bad_hi == 0, f"sandwich violations: {bad_lo} lower, {bad_hi} upper"

    # rate_fit recovers synthetic power laws exactly
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    fit = rate_fit(list(zip(eps, 3.7 * eps**1.5)))
    assert abs(fit["slope"] - 1.5) <= 1e-12, f"slope {fit['slope']!r}"
    assert abs(fit["intercept"] - np.log(3.7)) <= 1e-12
    assert abs(fit["r2"] - 1.0) <= 1e-12

    # field solve converges at second order on an eigenfunction
    errs = []
    for ny in (33, 65, 129):
        g = ChannelGrid(d=1, nx=1, ny=ny)
        f = solve_poisson(g, np.pi**2 * np.sin(np.pi * g.yy))
        errs.append(float(np.max(np.abs(f - np.sin(np.pi * g.yy)))))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(r > 1.9 for r in rates), f"second-order convergence lost: rates {rates}"

    # projecting twice changes nothing
    g2 = ChannelGrid(d=2, nx=8, ny=20)
    ux = RNG.standard_normal(g2.shape)
    uy = RNG.standard_normal(g2.shape)
    for comp in (ux, uy):
        comp[:, 0] = comp[:, -1] = 0.0
    pu = project_div_free(g2, VelocityField(g2, [ux, uy]))
    ppu = project_div_free(g2, pu)
    drift = max(np.max(np.abs(a - b)) for a, b in zip(pu.components, ppu.components))
    assert drift <= 1e-10, f"projection not idempotent, drift {drift:.2e}"

    # reruns reproduce artifacts byte for byte (timing column aside)
    cfg = replace(preset_defaults("custom"), ny=65, dt=2e-3, t_end=0.01,
                  eps_list=(0.25, 0.125, 0.0625))
    run_experiment(cfg, out_dir=tmp_path / "a", parallel=False)
    run_experiment(cfg, out_dir=tmp_path / "b", parallel=False)
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb, "report.json must be byte-identical across reruns"
    sa = strip_wall_clock((tmp_path / "a" / "sweep.csv").read_text())
    sb = strip_wall_clock((tmp_path / "b" / "sweep.csv").read_text())
    assert sa == sb, "sweep.csv must reproduce bitwise outside wall_clock_s"
    assert json.loads(ra)["config_hash"] == cfg.hash()
