"""Functional and rate-fit tests, including the quadrature oracle."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from debyeflow import BoundaryData, ChannelGrid, Params, State, VelocityField, diagnostics
from debyeflow.diagnostics import (
    diagnostics_record,
    dissipation_identity_residual,
    free_energy,
    max_principle_check,
    modulated_energy,
    phi_entropy,
    rate_fit,
    snapshot_blocks,
    wall_fields,
)
from debyeflow.elliptic import harmonic_extension
from debyeflow.limit import initial_limit_state, run_limit
from debyeflow.npns import NpnsConfig, run_npns, well_prepared_init
from debyeflow.operators import ddy, norm_l2

from oracles import (
    dissipation_lower_bound,
    electrochemical_potentials,
    full_search_max_principle,
    per_snapshot_free_energy,
    per_snapshot_identity_residual,
    per_snapshot_modulated_energy,
)


def setup_1d(ny=65, eps=0.1, gamma=(2.0, 2.0), w=(0.0, 0.0), z1=1.0, z2=-1.0, D1=1.0, D2=1.0):
    p = Params(z1=z1, z2=z2, D1=D1, D2=D2, nu=1.0, eps=eps)
    g = ChannelGrid(d=1, nx=1, ny=ny)
    bdata = BoundaryData.electroneutral(
        np.array([[gamma[0]], [gamma[1]]]), w=np.array([[w[0]], [w[1]]]), params=p
    )
    return p, g, bdata


def identity_residual(g, snapshots, bdata, p):
    """The energy residual of a trajectory."""
    return dissipation_identity_residual(g, snapshot_blocks(g, snapshots), wall_fields(g, bdata), p)[1]


# ---------------------------------------------------------------------------
# entropy density


def test_phi_entropy_values():
    assert phi_entropy(1.0) == 0.0
    assert np.isclose(phi_entropy(np.e), 1.0, atol=1e-15), f"phi(e) = {phi_entropy(np.e)!r}"
    # frozen reference value for the sandwich example
    val = phi_entropy(1.5)
    assert np.isclose(val, 0.1081976621622466, atol=1e-15), f"phi(1.5) = {val!r}"
    assert 0.0625 <= val <= 0.25


def test_phi_entropy_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi_entropy(0.0)
    with pytest.raises(ValueError):
        phi_entropy(np.array([1.0, -2.0]))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_phi_sandwich(m, M, frac):
    # the quadratic bounds need the bracket to contain 1, which is how
    # they are applied (s is a concentration ratio close to unity)
    s = m + frac * (M - m)
    val = phi_entropy(s)
    lower = (s - 1.0) ** 2 / (2.0 * M)
    upper = (s - 1.0) ** 2 / (2.0 * m)
    # slack at the evaluation-roundoff scale, which is |s-1| * ulp
    tol = 1e-14 * abs(s - 1.0) + 1e-300
    assert lower <= val + tol, f"lower bound fails: {lower} > phi({s})={val}"
    assert val <= upper + tol, f"upper bound fails: phi({s})={val} > {upper}"


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_phi_nonnegative(s):
    val = phi_entropy(s)
    assert val >= 0.0, f"phi({s}) = {val} < 0"
    if abs(s - 1.0) > 1e-8:
        assert val > 0.0, f"phi should vanish only at 1, phi({s}) = {val}"


# ---------------------------------------------------------------------------
# free energy


def test_free_energy_equilibrium_zero():
    p, g, bdata = setup_1d()
    s = State(t=0.0, c1=np.full(g.shape, 2.0), c2=np.full(g.shape, 2.0),
              u=VelocityField.zero(g), psi=g.zeros())
    assert free_energy(g, s, wall_fields(g, bdata), p) == 0.0


def test_free_energy_field_term_only():
    p, g, bdata = setup_1d(ny=257)
    psi = 0.3 * np.sin(np.pi * g.yy)
    s = State(t=0.0, c1=np.full(g.shape, 2.0), c2=np.full(g.shape, 2.0),
              u=VelocityField.zero(g), psi=psi)
    expected = 0.5 * p.eps ** 2 * norm_l2(g, ddy(g, psi)) ** 2
    val = free_energy(g, s, wall_fields(g, bdata), p)
    assert np.isclose(val, expected, rtol=1e-12), f"E={val} vs field term {expected}"


def test_free_energy_against_quadrature_oracle():
    # linear wall data extends exactly, so the continuum integrand is known
    p, g, bdata = setup_1d(ny=2049, gamma=(2.0, 3.0))
    c1 = 2.0 + g.yy + 0.3 * np.sin(np.pi * g.yy)
    psi = 0.2 * np.sin(np.pi * g.yy)
    s = State(t=0.0, c1=c1, c2=c1.copy(), u=VelocityField.zero(g), psi=psi)

    def integrand(y):
        gam = 2.0 + y
        c = 2.0 + y + 0.3 * np.sin(np.pi * y)
        ent = 2.0 * gam * phi_entropy(c / gam)  # both species identical here
        field = 0.5 * p.eps ** 2 * (0.2 * np.pi * np.cos(np.pi * y)) ** 2
        return ent + field

    ref, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    val = free_energy(g, s, wall_fields(g, bdata), p)
    rel = abs(val - ref) / abs(ref)
    assert rel <= 1e-6, f"free energy vs quadrature oracle: relative error {rel:.2e}"


def test_free_energy_rejects_nonpositive_c():
    p, g, bdata = setup_1d()
    s = State(t=0.0, c1=-np.ones(g.shape), c2=np.ones(g.shape),
              u=VelocityField.zero(g), psi=g.zeros())
    with pytest.raises(ValueError):
        free_energy(g, s, wall_fields(g, bdata), p)


# ---------------------------------------------------------------------------
# potentials


def test_potentials_reduce_to_wall_values():
    p, g, bdata = setup_1d(gamma=(2.0, 3.0), w=(0.0, 0.5))
    gam1 = harmonic_extension(g, bdata.gamma1)
    s = State(t=0.0, c1=gam1, c2=gam1.copy(), u=VelocityField.zero(g), psi=g.zeros())
    mus = electrochemical_potentials(g, s, wall_fields(g, bdata), p)
    assert np.allclose(mus["mu1"], mus["mu1_star"], atol=1e-14)
    assert np.allclose(mus["mu2"], mus["mu2_star"], atol=1e-14)


def test_potentials_boltzmann_state_has_flat_mu():
    p, g, bdata = setup_1d(ny=65, w=(0.0, 0.0))
    psi = 0.4 * np.sin(np.pi * g.yy)
    c1 = 2.0 * np.exp(-p.z1 * psi)
    c2 = 2.0 * np.exp(-p.z2 * psi)
    s = State(t=0.0, c1=c1, c2=c2, u=VelocityField.zero(g), psi=psi)
    mus = electrochemical_potentials(g, s, wall_fields(g, bdata), p)
    for key in ("mu1", "mu2"):
        gmu = ddy(g, mus[key])
        assert np.max(np.abs(gmu)) <= 1e-11, f"{key} not flat for Boltzmann data"


# ---------------------------------------------------------------------------
# modulated energy


def test_modulated_energy_zero_for_matching_states():
    p, g, _ = setup_1d()
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    s = State(t=0.0, c1=c1, c2=c1.copy(), u=VelocityField.zero(g), psi=g.zeros())
    out = modulated_energy(g, s, s, p)
    assert out["H"] == 0.0, f"H = {out['H']}"
    assert out["Theta"] == 0.0, f"Theta = {out['Theta']}"


def test_modulated_energy_field_reduction():
    p, g, _ = setup_1d(ny=129)
    c1 = np.full(g.shape, 2.0)
    psi = 0.25 * np.sin(np.pi * g.yy)
    s = State(t=0.0, c1=c1, c2=c1.copy(), u=VelocityField.zero(g), psi=psi)
    lim = State(t=0.0, c1=c1, c2=c1, u=VelocityField.zero(g), psi=g.zeros())
    out = modulated_energy(g, s, lim, p)
    expected = 0.5 * p.eps ** 2 * norm_l2(g, ddy(g, psi)) ** 2
    assert np.isclose(out["H"], expected, rtol=1e-12)


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_modulated_energy_quadratic_approximation(delta):
    # the relative entropy behaves like the weighted L2 distance for
    # small perturbations; the ratio deviates at first order in delta
    p, g, _ = setup_1d(ny=257)
    c1 = np.full(g.shape, 2.0)
    c1_eps = c1 + delta * np.sin(np.pi * g.yy)
    s = State(t=0.0, c1=c1_eps, c2=c1_eps.copy(), u=VelocityField.zero(g), psi=g.zeros())
    lim = State(t=0.0, c1=c1, c2=c1, u=VelocityField.zero(g), psi=g.zeros())
    out = modulated_energy(g, s, lim, p)
    quad = 2 * 0.5 * norm_l2(g, (c1_eps - c1) / np.sqrt(c1)) ** 2
    ratio = out["H"] / quad
    assert abs(ratio - 1.0) <= delta, f"delta={delta}: entropy/quadratic ratio {ratio}"


# ---------------------------------------------------------------------------
# identity residual and lower bound


def make_traj(ny=129, dt=1e-3, t_end=2e-2, eps=0.25, gamma=(2.0, 2.0)):
    p, g, bdata = setup_1d(ny=ny, eps=eps, gamma=gamma)
    cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=dt, t_end=t_end)
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    s0 = well_prepared_init(g, c1, VelocityField.zero(g), cfg)
    return g, bdata, p, list(run_npns(s0, cfg))


def test_identity_residual_needs_three_snapshots():
    p, g, bdata = setup_1d()
    s = State(t=0.0, c1=np.full(g.shape, 2.0), c2=np.full(g.shape, 2.0),
              u=VelocityField.zero(g), psi=g.zeros())
    wall = wall_fields(g, bdata)
    for n in (1, 2):
        E, res = dissipation_identity_residual(g, snapshot_blocks(g, [s] * n), wall, p)
        assert E.tolist() == [free_energy(g, s, wall, p)] * n
        assert res.shape == (n,) and np.all(np.isnan(res)), "too few snapshots for a centered residual"


def test_identity_residual_zero_at_equilibrium():
    p, g, bdata = setup_1d()
    cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=1e-3, t_end=4e-3)
    s0 = well_prepared_init(g, np.full(g.shape, 2.0), VelocityField.zero(g), cfg)
    run = list(run_npns(s0, cfg))
    res = identity_residual(g, run, bdata, p)
    assert np.all(res == 0.0), f"equilibrium residual must be exactly zero, got {res}"


def test_identity_residual_first_order_in_dt():
    res_levels = []
    for dt in (2e-3, 1e-3):
        g, bdata, p, run = make_traj(ny=257, dt=dt, t_end=4e-2)
        res = identity_residual(g, run, bdata, p)
        res_levels.append(np.max(np.abs(res[2:-2])))
    ratio = res_levels[0] / res_levels[1]
    assert ratio >= 1.5, f"identity residual should shrink roughly linearly in dt, ratio={ratio:.2f}"


def test_dissipation_lower_bound_along_run():
    g, bdata, p, run = make_traj(ny=257, dt=1e-3, t_end=1e-2, eps=0.1)
    wall = wall_fields(g, bdata)
    for s in run:
        # the envelope must cover the initial data, not just the wall values
        out = dissipation_lower_bound(g, s, wall, p, (2.0, 2.5))
        # discrete integration by parts costs O(h^2); 5% slack plus floor
        assert out["lhs"] <= 1.05 * out["rhs"] + 1e-12, (
            f"t={s.t}: lower bound violated, lhs={out['lhs']:.6g} rhs={out['rhs']:.6g}"
        )


def wall_driven_run(d):
    """A short run whose wall data varies: across the channel in d = 1,
    and along x as well in d = 2, so every cached wall gradient is nonzero."""
    if d == 1:
        p, g, bdata = setup_1d(ny=65, eps=0.25, gamma=(2.0, 2.5), w=(0.0, 0.5))
        c1 = 2.0 + 0.5 * g.yy + 0.3 * np.sin(np.pi * g.yy)
    else:
        p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=0.5, eps=0.25)
        g = ChannelGrid(d=2, nx=8, ny=17)
        gamma1 = np.vstack([2.0 + 0.2 * np.cos(2 * np.pi * g.x), np.full(g.nx, 2.0)])
        w = np.vstack([0.1 * np.sin(2 * np.pi * g.x), np.full(g.nx, 0.3)])
        bdata = BoundaryData.electroneutral(gamma1, w=w, params=p)
        c1 = gamma1[0][:, None] * (1.0 - g.yy) + 2.0 * g.yy
    cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=1e-3, t_end=6e-3)
    s0 = well_prepared_init(g, c1, VelocityField.zero(g), cfg)
    return g, bdata, p, list(run_npns(s0, cfg))


@pytest.mark.parametrize("d", [1, 2])
def test_recorded_diagnostics_match_fresh_computation(d):
    # diagnostics_record evaluates E block by block with the run's wall fields
    # and hands those energies to the residual; both must equal a snapshot-by-
    # snapshot evaluation with wall fields built afresh
    g, bdata, p, run = wall_driven_run(d)
    wall = wall_fields(g, bdata)
    # one bundle serves every snapshot of a run, so no caller may write to it
    for a in (wall.phiw, wall.gamma1, wall.gamma2, *wall.grad_phiw,
              *wall.grad_log_gamma1, *wall.grad_log_gamma2):
        assert not a.flags.writeable
    if d == 2:
        for grads in (wall.grad_phiw, wall.grad_log_gamma1, wall.grad_log_gamma2):
            assert np.any(grads[0] != 0.0), "x-part of a wall gradient vanishes"
        assert np.any(run[-1].u.components[0] != 0.0), "the run must move the fluid"
    fresh_E = np.array([free_energy(g, s, wall_fields(g, bdata), p) for s in run])
    fresh_res = identity_residual(g, run, bdata, p)
    rows = diagnostics_record(g, run, wall, p)
    E = [row["E"] for row in rows]
    assert np.array(E).tobytes() == fresh_E.tobytes()
    assert np.array([row["dissipation_residual"] for row in rows]).tobytes() == fresh_res.tobytes()


def oracle_fixture(d):
    """Config, initial state and limit initial state of an 11-snapshot run:
    d = 1 at ny = 257, and d = 2 at 8x17 with x-varying Gamma1 and w,
    which drive a nonzero velocity."""
    if d == 1:
        p, g, bdata = setup_1d(ny=257, eps=0.25, gamma=(2.0, 2.5), w=(0.0, 0.5))
        c1 = 2.0 + 0.5 * g.yy + 0.3 * np.sin(np.pi * g.yy)
    else:
        p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=0.5, eps=0.25)
        g = ChannelGrid(d=2, nx=8, ny=17)
        gamma1 = np.vstack([2.0 + 0.2 * np.cos(2 * np.pi * g.x), np.full(g.nx, 2.0)])
        w = np.vstack([0.1 * np.sin(2 * np.pi * g.x), np.full(g.nx, 0.3)])
        bdata = BoundaryData.electroneutral(gamma1, w=w, params=p)
        c1 = gamma1[0][:, None] * (1.0 - g.yy) + 2.0 * g.yy
    cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=1e-3, t_end=1e-2)
    s0 = well_prepared_init(g, c1, VelocityField.zero(g), cfg)
    l0 = initial_limit_state(g, c1, VelocityField.zero(g), cfg)
    return cfg, s0, l0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("block", [None, 4, 1])
def test_blocked_diagnostics_match_per_snapshot_oracle(d, block, monkeypatch):
    # None is the shipped block size (one block holds all 11 snapshots);
    # blocks of 4 leave a short last block and blocks of 1 are single
    # snapshots with a leading axis
    cfg, s0, l0 = oracle_fixture(d)
    g, p, bdata = cfg.grid, cfg.params, cfg.bdata
    if block is not None:
        monkeypatch.setattr(diagnostics, "BLOCK_ELEMENTS", block * g.nx * g.ny)
    snaps = list(run_npns(s0, cfg))
    lrun = list(run_limit(l0, cfg))
    assert len(snaps) == 11
    if d == 2:
        assert np.any(snaps[-1].u.components[0] != 0.0), "the run must move the fluid"
    sizes = [len(blk.t) for blk in snapshot_blocks(g, snaps)]
    assert sum(sizes) == 11 and sizes[0] == (11 if block is None else block)

    rows = diagnostics_record(g, snaps, cfg.wall, p)
    assert [row["t"] for row in rows] == [s.t for s in snaps]
    E = np.array([per_snapshot_free_energy(g, s, bdata, p) for s in snaps])
    assert np.array([row["E"] for row in rows]).tobytes() == E.tobytes()
    res = per_snapshot_identity_residual(g, snaps, bdata, p)
    assert np.array([row["dissipation_residual"] for row in rows]).tobytes() == res.tobytes()
    energies, residual = dissipation_identity_residual(g, snapshot_blocks(g, snaps), cfg.wall, p)
    assert (energies.tobytes(), residual.tobytes()) == (E.tobytes(), res.tobytes())
    for name in ("c1", "c2"):
        fields = [getattr(s, name) for s in snaps]
        assert [row[f"min_{name}"] for row in rows] == [float(np.min(f)) for f in fields]
        assert [row[f"max_{name}"] for row in rows] == [float(np.max(f)) for f in fields]

    H, theta = [], []
    for blk, lim in zip(snapshot_blocks(g, snaps), snapshot_blocks(g, lrun)):
        me = modulated_energy(g, blk, lim, p)
        H += me["H"].tolist()
        theta += me["Theta"].tolist()
    for k, (s, sl) in enumerate(zip(snaps, lrun)):
        ref = per_snapshot_modulated_energy(g, s, p, sl.c1, sl.u, sl.psi)
        assert (H[k], theta[k]) == (ref["H"], ref["Theta"]), f"snapshot {k}"
        assert modulated_energy(g, s, sl, p) == ref
        assert free_energy(g, s, cfg.wall, p) == E[k]
    assert H[-1] > 0.0 and theta[-1] > 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_streamed_diagnostics_match_the_list(d, monkeypatch):
    # one-shot streams of both runs give the rows of the lists, bitwise;
    # H and Theta are the per-snapshot oracle's
    cfg, s0, l0 = oracle_fixture(d)
    g, p, bdata = cfg.grid, cfg.params, cfg.bdata
    monkeypatch.setattr(diagnostics, "BLOCK_ELEMENTS", 4 * g.nx * g.ny)
    snaps, lrun = list(run_npns(s0, cfg)), list(run_limit(l0, cfg))
    want = diagnostics_record(g, snaps, cfg.wall, p, lrun)
    for got in (diagnostics_record(g, iter(snaps), cfg.wall, p, iter(lrun)),
                diagnostics_record(g, run_npns(s0, cfg), cfg.wall, p, run_limit(l0, cfg))):
        assert repr(got) == repr(want)
    assert repr(diagnostics_record(g, iter(snaps), cfg.wall, p)) == repr(
        [{k: v for k, v in row.items() if k not in ("H", "Theta")} for row in want])
    for row, s, sl in zip(want, snaps, lrun):
        ref = per_snapshot_modulated_energy(g, s, p, sl.c1, sl.u, sl.psi)
        assert (row["H"], row["Theta"]) == (ref["H"], ref["Theta"]), f"t={s.t}"
        assert row["E"] == per_snapshot_free_energy(g, s, bdata, p)


def test_diagnostics_read_the_limit_stream_to_its_end(monkeypatch, caplog):
    # blocks of one snapshot divide the 11, so the last block leaves the
    # limit march unfinished until the record drains it; a limit run of
    # another length is refused
    cfg, s0, l0 = oracle_fixture(1)
    g, p = cfg.grid, cfg.params
    monkeypatch.setattr(diagnostics, "BLOCK_ELEMENTS", g.nx * g.ny)
    with caplog.at_level("INFO", logger="debyeflow.npns"):
        rows = diagnostics_record(g, run_npns(s0, cfg), cfg.wall, p, run_limit(l0, cfg))
    assert len(rows) == 11
    done = [r.getMessage() for r in caplog.records if "complete" in r.getMessage()]
    assert [m.split(":")[0] for m in done] == ["run complete", "limit run complete"]
    snaps, lrun = list(run_npns(s0, cfg)), list(run_limit(l0, cfg))
    for limit in (lrun[:-1], lrun + lrun[-1:]):
        with pytest.raises(ValueError, match="limit run"):
            diagnostics_record(g, snaps, cfg.wall, p, limit)


def test_diagnostics_of_a_two_snapshot_run_have_a_nan_residual():
    cfg, s0, _ = oracle_fixture(1)
    cfg = replace(cfg, t_end=cfg.dt)
    rows = diagnostics_record(cfg.grid, run_npns(s0, cfg), cfg.wall, cfg.params)
    assert [row["t"] for row in rows] == [0.0, cfg.dt]
    assert all(math.isnan(row["dissipation_residual"]) for row in rows)
    assert rows[0]["E"] == free_energy(cfg.grid, s0, cfg.wall, cfg.params)


def test_blocks_reject_a_nonpositive_concentration_inside():
    cfg, s0, l0 = oracle_fixture(1)
    g, p = cfg.grid, cfg.params
    snaps = copy.deepcopy(list(run_npns(s0, cfg)))
    snaps[5].c2[0, 100] = 0.0
    (blk,) = snapshot_blocks(g, snaps)
    lim = next(snapshot_blocks(g, run_limit(l0, cfg)))
    with pytest.raises(ValueError):
        free_energy(g, blk, cfg.wall, p)
    with pytest.raises(ValueError):
        modulated_energy(g, blk, lim, p)
    with pytest.raises(ValueError):
        diagnostics_record(g, snaps, cfg.wall, p)


# ---------------------------------------------------------------------------
# max principle report


def test_max_principle_pass_and_fail():
    g = ChannelGrid(d=1, nx=1, ny=17)
    c = np.full(g.shape, 2.0)
    rep = max_principle_check(c, c, (2.0, 2.0, 2.0, 2.0), tol=1e-6)
    assert rep.ok and rep.min_c1 == 2.0 and rep.max_c2 == 2.0

    bad = c.copy()
    bad[0, 5] = 2.0 - 10e-6
    rep = max_principle_check(bad, c, (2.0, 2.0, 2.0, 2.0), tol=1e-6)
    assert not rep.ok
    assert rep.worst_species == 1
    assert rep.worst_index == (0, 5), f"violation located at {rep.worst_index}"


BAND = (2.0, 3.0, 1.0, 4.0)


@pytest.mark.parametrize("species, node, value, ok", [
    (None, None, None, True),
    (1, (0, 5), 2.0 - 1e-6, True),    # exactly on the widened band
    (1, (0, 5), 2.0 - 2e-6, False),
    (1, (3, 0), 3.5, False),
    (2, (7, 16), 0.5, False),
    (2, (2, 9), 4.0 + 1e-5, False),
    (1, (4, 4), np.nan, False),       # a NaN node is in no band
    (2, (1, 1), np.nan, False),
    (2, (0, 3), np.inf, False),
])
def test_max_principle_fast_path_matches_full_search(species, node, value, ok):
    # the in-band fast path and the worst-node search give the same report,
    # field for field, NaN included
    rng = np.random.default_rng(7)
    c1 = 2.0 + rng.random((8, 17))
    c2 = 1.0 + 3.0 * rng.random((8, 17))
    if species is not None:
        (c1, c2)[species - 1][node] = value
    rep = max_principle_check(c1, c2, BAND, tol=1e-6)
    assert rep.ok == ok
    assert repr(rep) == repr(full_search_max_principle(c1, c2, BAND, tol=1e-6))


# ---------------------------------------------------------------------------
# rate fitting


def test_rate_fit_exact_power_laws():
    eps = [0.1, 0.05, 0.025, 0.0125]
    out = rate_fit([(e, e) for e in eps])
    assert np.isclose(out["slope"], 1.0, atol=1e-12)
    assert np.isclose(out["r2"], 1.0, atol=1e-12)

    out = rate_fit([(e, 3.0 * e ** 1.5) for e in eps])
    assert np.isclose(out["slope"], 1.5, atol=1e-12), f"slope={out['slope']}"
    assert np.isclose(out["intercept"], np.log(3.0), atol=1e-12)


def test_rate_fit_noisy_half_slope():
    rng = np.random.default_rng(1234)
    eps = np.array([2.0 ** -k for k in range(3, 9)])
    errs = 0.7 * eps ** 0.5 * np.exp(0.02 * rng.standard_normal(len(eps)))
    out = rate_fit(list(zip(eps, errs)))
    assert abs(out["slope"] - 0.5) <= 0.05, f"fitted slope {out['slope']}"


def test_rate_fit_input_validation():
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)])
