"""Wall screening profiles, the composite, fast-time relaxation, corner layers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debyeflow import BoundaryData, ChannelGrid, Params
from debyeflow.diagnostics import snapshot_blocks
from debyeflow.layers import (
    boundary_layer,
    clustered_xi_grid,
    composite,
    cutoff_left,
    cutoff_right,
    smoothstep,
    solve_initial_layer,
    solve_mixed_layer,
    wall_layers,
)
from debyeflow.grid import VelocityField
from debyeflow.limit import initial_limit_state, run_limit
from debyeflow.npns import NpnsConfig
from debyeflow.operators import grad, laplacian, norm_l2

from oracles import mixed_layer_direct, mixed_layer_sparse


def make_params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, eps=0.1):
    return Params(z1=z1, z2=z2, D1=D1, D2=D2, nu=1.0, eps=eps)


def make_cfg(ny=65, dt=1e-3, n_steps=5, gamma=(2.0, 2.0), w=(0.0, 0.0), **pkw):
    p = make_params(**pkw)
    g = ChannelGrid(d=1, nx=1, ny=ny)
    bdata = BoundaryData.electroneutral(
        np.array([[gamma[0]], [gamma[1]]]), w=np.array([[w[0]], [w[1]]]), params=p
    )
    return NpnsConfig(params=p, bdata=bdata, grid=g, dt=dt, t_end=n_steps * dt)


def trapezoid_weights(x):
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


# ---------------------------------------------------------------------------
# cutoffs


def test_cutoff_plateaus_mirror_and_midpoint():
    # dyadic nodes make 1 - y exact, so the mirror identity is bitwise
    y = np.arange(257) / 256.0
    f = cutoff_left(y)
    g = cutoff_right(y)
    assert np.all(f[y <= 0.25] == 1.0), "left cutoff must be identically 1 on [0, 1/4]"
    assert np.all(f[y >= 0.5] == 0.0), "left cutoff must vanish on [1/2, 1]"
    ramp = f[(y > 0.25) & (y < 0.5)]
    assert np.all(np.diff(ramp) < 0.0), "cutoff must decrease strictly across the ramp"
    assert np.array_equal(g, f[::-1]), "right cutoff must mirror the left one"
    assert cutoff_left(0.375) == 0.5
    assert smoothstep(0.5) == 0.5


# ---------------------------------------------------------------------------
# wall screening profiles


def test_boundary_layer_frozen_point_values():
    # unit valences, wall concentration 2, unit amplitude: rate 2 and
    # wall values (1/2, -1/2, -1/4) for the species and the potential
    p = make_params(z1=1.0, z2=-1.0, D1=1.0, D2=1.0)
    b = boundary_layer("left", 1.0, 2.0, p)
    assert b.rate[0] == 2.0, f"rate = {b.rate[0]}"
    assert b.c1(0.0)[0, 0] == 0.5
    assert b.c2(0.0)[0, 0] == -0.5
    assert b.phi(0.0)[0, 0] == -0.25
    assert b.charge(0.0)[0, 0] == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=4.0),
    st.floats(min_value=-4.0, max_value=-0.5),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_boundary_layer_wall_charge_matches_amplitude(z1, z2, g1, amp):
    p = make_params(z1=z1, z2=z2, D1=1.0, D2=1.0)
    b = boundary_layer("right", amp, g1, p)
    wall = b.charge(0.0)[0, 0]
    assert np.isclose(wall, amp, rtol=1e-12, atol=1e-15), (
        f"wall charge {wall} != amplitude {amp} for z=({z1},{z2}), g1={g1}"
    )
    far = b.charge(80.0 / b.rate[0])[0, 0]
    assert abs(far) <= 1e-18 * max(1.0, abs(amp)), f"no far-field decay: {far}"


def test_boundary_layer_species_pairing():
    p = make_params(z1=2.0, z2=-1.0)
    b = boundary_layer("left", np.array([0.5, -1.2, 2.0]), 1.5, p)
    xi = np.linspace(0.0, 12.0, 241)
    assert np.array_equal(b.c1(xi), -b.c2(xi)), "species profiles must be exact opposites"


def test_boundary_layer_rejects_bad_inputs():
    p = make_params()
    with pytest.raises(ValueError):
        boundary_layer("left", 1.0, 0.0, p)
    with pytest.raises(ValueError):
        boundary_layer("left", 1.0, -2.0, p)
    with pytest.raises(ValueError):
        boundary_layer("top", 1.0, 2.0, p)


def test_boundary_layer_profile_solves_its_system():
    # the screening system in stretched coordinates, checked with the
    # analytic curvature accessors on a grid of spacing 1e-2
    p = make_params(z1=2.0, z2=-1.0)
    g1 = 1.5
    g2 = -p.z1 * g1 / p.z2
    b = boundary_layer("left", 0.7, g1, p)
    xi = np.arange(0.0, 8.0 + 1e-12, 1e-2)
    res1 = b.c1(xi, 2) + p.z1 * g1 * b.phi(xi, 2)
    res2 = b.c2(xi, 2) + p.z2 * g2 * b.phi(xi, 2)
    res3 = -b.phi(xi, 2) - b.charge(xi)
    for name, r in (("species 1", res1), ("species 2", res2), ("poisson", res3)):
        worst = float(np.max(np.abs(r)))
        assert worst <= 1e-8, f"{name} residual {worst:.2e} exceeds 1e-8"


def test_boundary_layer_fd_residual_second_order():
    # centered differences see the screening equation only up to O(h^2):
    # the species/potential combination cancels exactly (it is a single
    # exponential), while the field equation keeps the h^2 curvature bias
    p = make_params(z1=1.0, z2=-1.0)
    b = boundary_layer("left", 1.0, 2.0, p)

    def fd2(vals, h):
        return (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / h ** 2

    def residuals(h):
        xi = np.arange(0.0, 6.0 + 1e-12, h)
        combo = np.max(np.abs(fd2(b.c1(xi), h) + p.z1 * 2.0 * fd2(b.phi(xi), h)))
        field = np.max(np.abs(-fd2(b.phi(xi), h) - b.charge(xi)[:, 1:-1]))
        return combo, field

    combo_h, field_h = residuals(2e-2)
    combo_h2, field_h2 = residuals(1e-2)
    assert combo_h <= 1e-15 and combo_h2 <= 1e-15, (
        f"linear combination should cancel identically, got {combo_h:.2e}"
    )
    ratio = field_h / field_h2
    assert 3.4 <= ratio <= 4.6, f"field residual ratio {ratio:.2f} not second order"


# ---------------------------------------------------------------------------
# fast-time relaxation


def test_initial_layer_zero_charge_stays_zero():
    p = make_params()
    g = ChannelGrid(d=1, nx=1, ny=33)
    states = solve_initial_layer(g, p, np.full(g.shape, 2.0), g.zeros(),
                                 np.linspace(0.0, 1.0, 11))
    for s in states:
        assert np.all(s.rho == 0.0) and np.all(s.phi == 0.0), f"tau={s.tau}"


def test_initial_layer_constant_background_exact_recursion():
    # constant background decouples the interior rows: each implicit
    # Euler step divides the charge by (1 + dtau * z1 (z1 D1 - z2 D2) cbar)
    p = make_params(D1=2.0, D2=1.0)
    g = ChannelGrid(d=1, nx=1, ny=129)
    cbar = 2.0
    rho0 = np.cos(np.pi * g.yy)
    dtau = 0.05
    n = 20
    states = solve_initial_layer(g, p, np.full(g.shape, cbar), rho0,
                                 dtau * np.arange(n + 1))
    factor = 1.0 + dtau * p.z1 * (p.z1 * p.D1 - p.z2 * p.D2) * cbar
    assert np.isclose(factor, 1.3, rtol=1e-14)
    expected = rho0[0, 1:-1] / factor ** n
    got = states[-1].rho[0, 1:-1]
    assert np.allclose(got, expected, rtol=1e-11, atol=1e-16), (
        f"interior recursion broken: max dev {np.max(np.abs(got - expected)):.2e}"
    )
    # the wall rows are not frozen: the trace must relax toward zero too
    assert abs(states[-1].rho[0, 0]) < 0.3 * abs(rho0[0, 0])
    # stored potential stays compatible with the stored charge
    for s in states[1:]:
        defect = np.max(np.abs(laplacian(g, s.phi) + s.rho)[0, 1:-1])
        assert defect <= 1e-10, f"poisson defect {defect:.2e} at tau={s.tau}"


def test_initial_layer_species_constraint_and_charge_recovery():
    p = make_params(z1=2.0, z2=-1.0, D1=3.0, D2=1.0)
    g = ChannelGrid(d=1, nx=1, ny=65)
    states = solve_initial_layer(g, p, 1.0 + g.yy, np.sin(np.pi * g.yy),
                                 np.linspace(0.0, 0.5, 21))
    for s in states:
        scale = max(1.0, float(np.max(np.abs(s.rho))))
        cons = np.max(np.abs(p.D2 * s.c1(p) + p.D1 * s.c2(p)))
        assert cons <= 1e-12 * scale, f"diffusivity-weighted constraint {cons:.2e}"
        rec = np.max(np.abs(p.z1 * s.c1(p) + p.z2 * s.c2(p) - s.rho))
        assert rec <= 1e-12 * scale, f"charge recovery defect {rec:.2e}"


def test_initial_layer_gradient_energy_decay():
    # the field energy must decay at least at twice the drift rate set by
    # the smallest background value (lambda = 2 here)
    p = make_params(D1=2.0, D2=1.0)
    g = ChannelGrid(d=1, nx=1, ny=129)
    c1_base = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    dtau = 0.004
    taus = dtau * np.arange(61)
    states = solve_initial_layer(g, p, c1_base, np.sin(np.pi * g.yy), taus)
    energy = np.array([norm_l2(g, grad(g, s.phi)[0]) ** 2 for s in states])
    assert np.all(np.diff(energy) < 0.0), "field energy must decrease monotonically"
    slope = np.polyfit(taus, np.log(energy), 1)[0]
    bound = 2.0 * p.z1 * (p.z1 * p.D1 - p.z2 * p.D2) * 2.0
    assert slope <= -0.95 * bound, f"decay rate {-slope:.2f} below 0.95 * {bound}"


def test_initial_layer_rejections():
    p = make_params()
    g = ChannelGrid(d=1, nx=1, ny=33)
    rho0 = np.ones(g.shape)
    taus = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="positive"):
        solve_initial_layer(g, p, np.zeros(g.shape), rho0, taus)
    with pytest.raises(ValueError, match="finite"):
        solve_initial_layer(g, p, np.ones(g.shape), np.full(g.shape, np.inf), taus)
    with pytest.raises(ValueError, match="increasing"):
        solve_initial_layer(g, p, np.ones(g.shape), rho0, taus[::-1])
    with pytest.raises(ValueError, match="shape"):
        solve_initial_layer(g, p, np.ones((1, 5)), rho0, taus)


# ---------------------------------------------------------------------------
# corner layers


def test_clustered_grid_properties():
    xi = clustered_xi_grid(40.0, 200, 4.0)
    assert xi[0] == 0.0 and xi[-1] == 40.0
    assert np.all(np.diff(xi) > 0.0)
    assert xi[1] - xi[0] < (xi[-1] - xi[-2]) / 10.0, "grid should crowd the wall end"
    with pytest.raises(ValueError):
        clustered_xi_grid(40.0, 4)
    with pytest.raises(ValueError):
        clustered_xi_grid(-1.0, 100)


def test_mixed_layer_zero_traces_stay_zero():
    p = make_params()
    taus = np.linspace(0.0, 1.0, 21)
    xi = clustered_xi_grid(20.0, 101, 3.0)
    states = solve_mixed_layer(np.zeros(21), np.zeros(21), 2.0, 2.0, p, xi, taus)
    for s in states:
        assert np.all(s.alpha1 == 0.0) and np.all(s.alpha2 == 0.0)
        assert np.all(s.c1() == 0.0) and np.all(s.c2() == 0.0)


def test_mixed_layer_wall_value_reproduces_traces():
    p = make_params(D1=2.0, D2=1.0)
    taus = np.linspace(0.0, 2.0, 81)
    a1 = 0.4 * taus * np.exp(-taus)
    a2 = -0.2 * taus * np.exp(-taus)
    xi = clustered_xi_grid(30.0, 301, 4.0)
    states = solve_mixed_layer(a1, a2, 2.0, 2.0, p, xi, taus)
    for s, v1, v2 in zip(states, a1, a2):
        assert abs(s.c1()[0] - v1) <= 1e-13, f"wall value drifted at tau={s.tau}"
        assert abs(s.c2()[0] - v2) <= 1e-13
        assert s.alpha1[0] == 0.0 and s.alpha1[-1] == 0.0


def test_mixed_layer_agrees_with_direct_discretization():
    # independent route: march the original unknowns on a uniform fine
    # grid without the boundary lift, then compare in space-time L2
    p = make_params(D1=2.0, D2=1.0)
    g1 = 2.0
    dtau = 5e-3
    n_steps = 400
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
    w = trapezoid_weights(xi_ref)
    num = den = 0.0
    for k in range(0, n_steps + 1, 10):
        mine1 = np.interp(xi_ref, xi, states[k].c1())
        mine2 = np.interp(xi_ref, xi, states[k].c2())
        num += float(np.dot(w, (mine1 - c1_ref[k]) ** 2 + (mine2 - c2_ref[k]) ** 2))
        den += float(np.dot(w, c1_ref[k] ** 2 + c2_ref[k] ** 2))
    rel = np.sqrt(num / den)
    assert rel <= 1e-3, f"shifted and direct routes disagree: rel L2 {rel:.2e}"


def test_mixed_layer_band_solve_matches_block_sparse_reference():
    # c09's fixture; then unequal valences and diffusivities, nonzero
    # initial data and two step lengths, so the band is factored twice
    taus = 5e-3 * np.arange(401)
    a1 = 0.3 * taus * np.exp(-taus)
    c09 = (a1, -0.5 * a1, 2.0, 2.0, make_params(D1=2.0, D2=1.0), clustered_xi_grid(40.0, 800, 4.0), taus, None)
    taus = np.cumsum(np.r_[0.0, np.full(8, 0.0625), np.full(12, 0.125)])
    assert len(set(np.diff(taus))) == 2
    xi = clustered_xi_grid(30.0, 301, 3.0)
    alpha0 = np.vstack([np.sin(np.pi * xi / 30.0) * np.exp(-xi), 0.5 * xi * np.exp(-xi)])
    alpha0[:, -1] = 0.0
    graded = (0.4 * np.sin(taus) + 0.1, -0.3 * taus, 1.5, 3.0, make_params(z1=2.0, z2=-1.0, D1=1.5, D2=1.0),
              xi, taus, alpha0)
    for *args, alpha0 in (c09, graded):
        states = solve_mixed_layer(*args, alpha0=alpha0)
        mine = np.array([(s.alpha1, s.alpha2) for s in states])
        ref = np.array(mixed_layer_sparse(*args, alpha0=alpha0))
        err = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
        assert err <= 1e-11, f"band and block sparse solves differ by {err:.2e} relative"
        assert np.all(mine[:, :, [0, -1]] == 0.0), "pinned rows must be exact zeros"


@pytest.mark.parametrize("z1, z2, g1", [(1.0, -1.0, 2.0), (2.0, -1.0, 1.5)])
def test_mixed_layer_steady_state_decays_at_the_wall_layer_rate(z1, z2, g1):
    # with gamma2 = -z1 gamma1 / z2 the steady corner charge obeys
    # rho'' = z1 (z1 - z2) gamma1 rho, and z2 gamma2 c1 - z1 gamma1 c2 is
    # linear in xi, so traces a2 = -a1 leave c2 = -c1 decaying at
    # sqrt(z1 (z1 - z2) gamma1); long implicit steps reach the steady state
    p = make_params(z1=z1, z2=z2)
    taus = 10.0 * np.arange(201)
    a1 = np.full(taus.size, 0.3)
    xi = clustered_xi_grid(20.0, 800, 3.0)
    last, before = solve_mixed_layer(a1, -a1, g1, -z1 * g1 / z2, p, xi, taus)[-1:-3:-1]
    assert np.max(np.abs(last.c1() - before.c1())) <= 1e-10, "not at steady state"
    assert np.max(np.abs(last.c1() + last.c2())) <= 1e-12
    fit = (xi >= 0.25) & (xi <= 2.5)
    rate = -np.polyfit(xi[fit], np.log(last.c1()[fit]), 1)[0]
    expected = np.sqrt(z1 * (z1 - z2) * g1)
    assert abs(rate / expected - 1.0) <= 1e-3, f"steady decay rate {rate:.6f}, wall layer {expected:.6f}"


def test_mixed_layer_energy_stays_bounded_by_trace_forcing():
    # discrete analogue of the half-line energy inequality: the weighted
    # alpha energy never exceeds its start plus the integrated forcing
    p = make_params(D1=2.0, D2=1.0)
    g1 = g2 = 2.0
    dtau = 0.01
    taus = dtau * np.arange(201)
    a1 = 0.5 * taus * np.exp(-taus)
    a2 = -(p.D2 / p.D1) * a1
    xi = clustered_xi_grid(40.0, 400, 4.0)
    states = solve_mixed_layer(a1, a2, g1, g2, p, xi, taus)
    w = trapezoid_weights(xi)

    def lyap(s):
        return (np.dot(w, s.alpha1 ** 2) / (2.0 * g1 * p.D1)
                + np.dot(w, s.alpha2 ** 2) / (2.0 * g2 * p.D2))

    forcing = 0.0
    bound_ok = lyap(states[0]) <= 1e-30
    assert bound_ok, "zero initial data expected here"
    for m in range(1, len(states)):
        da1 = (a1[m] - a1[m - 1]) / dtau
        da2 = (a2[m] - a2[m - 1]) / dtau
        r = p.z1 * a1[m] + p.z2 * a2[m]
        f1 = p.D1 * a1[m] - da1 - p.z1 * p.D1 * g1 * r
        f2 = p.D2 * a2[m] - da2 - p.z2 * p.D2 * g2 * r
        forcing += dtau * (f1 ** 2 / (4.0 * g1 * p.D1 ** 2) + f2 ** 2 / (4.0 * g2 * p.D2 ** 2))
        val = lyap(states[m])
        assert val <= 1.1 * forcing + 1e-12, (
            f"energy {val:.3e} above forcing budget {forcing:.3e} at tau={states[m].tau}"
        )


def test_mixed_layer_truncation_warning_and_strict_error():
    p = make_params(D1=2.0, D2=1.0)
    taus = 0.1 * np.arange(31)
    a1 = 0.5 * np.exp(-0.1 * taus)
    a2 = -0.25 * np.exp(-0.1 * taus)
    short = clustered_xi_grid(2.0, 64, 3.0)
    with pytest.warns(UserWarning, match="truncated end"):
        solve_mixed_layer(a1, a2, 2.0, 2.0, p, short, taus)
    with pytest.raises(ValueError, match="truncated end"):
        solve_mixed_layer(a1, a2, 2.0, 2.0, p, short, taus, strict=True)
    # a generous domain must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_mixed_layer(a1, a2, 2.0, 2.0, p, clustered_xi_grid(40.0, 400, 4.0), taus)


def test_mixed_layer_rejections():
    p = make_params()
    taus = np.linspace(0.0, 1.0, 11)
    xi = clustered_xi_grid(20.0, 64, 3.0)
    zeros = np.zeros(11)
    with pytest.raises(ValueError, match="positive"):
        solve_mixed_layer(zeros, zeros, -1.0, 2.0, p, xi, taus)
    with pytest.raises(ValueError, match="xi grid"):
        solve_mixed_layer(zeros, zeros, 2.0, 2.0, p, xi + 0.1, taus)
    with pytest.raises(ValueError, match="tau grid"):
        solve_mixed_layer(zeros, zeros, 2.0, 2.0, p, xi, taus[::-1])
    with pytest.raises(ValueError, match="traces"):
        solve_mixed_layer(zeros[:-1], zeros, 2.0, 2.0, p, xi, taus)
    bad = np.ones((2, xi.size))
    with pytest.raises(ValueError, match="vanish"):
        solve_mixed_layer(zeros, zeros, 2.0, 2.0, p, xi, taus, alpha0=bad)


# ---------------------------------------------------------------------------
# the composite approximation


def _limit_snapshots(cfg):
    g = cfg.grid
    init = initial_limit_state(g, 2.0 + 0.5 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)
    return list(run_limit(init, cfg))


def test_composite_order_zero_plus_wall_layers_only():
    # the limit snapshot plus the two cut-off wall layers at second order
    # in eps, and nothing else; a block of snapshots gives the same bytes
    cfg = make_cfg(ny=33, dt=1e-3, n_steps=2, D1=2.0, D2=1.0, w=(0.0, 0.5), eps=0.125)
    g, p = cfg.grid, cfg.params
    eps = p.eps
    snaps = _limit_snapshots(cfg)
    models = composite(cfg)
    f = cutoff_left(g.y)[None, :]
    gcut = cutoff_right(g.y)[None, :]
    xi, eta = g.y / eps, (1.0 - g.y) / eps
    (block,) = snapshot_blocks(g, snaps)
    block1, block2 = models(block)
    for k, sl in enumerate(snaps):
        bl, br = wall_layers(cfg, sl.psi + cfg.wall.phiw)
        want1 = sl.c1 + eps * eps * (f * bl.c1(xi) + gcut * br.c1(eta))
        want2 = -(p.z1 / p.z2) * sl.c1 + eps * eps * (f * bl.c2(xi) + gcut * br.c2(eta))
        c1, c2 = models(sl)
        assert np.array_equal(c1, want1), f"snapshot {k}: c1 is not order 0 plus the wall layers"
        assert np.array_equal(c2, want2), f"snapshot {k}: c2 is not order 0 plus the wall layers"
        assert np.array_equal(block1[k], c1) and np.array_equal(block2[k], c2), f"snapshot {k}: block differs"
    assert np.max(np.abs(c1 - sl.c1)) > 1e-6, "the wall layers must not vanish here"


def test_wall_layers_read_the_stored_potential():
    cfg = make_cfg(ny=65, dt=1e-3, n_steps=5, D1=2.0, D2=1.0, w=(0.0, 0.5))
    g, p = cfg.grid, cfg.params
    sl = _limit_snapshots(cfg)[4]
    phi0 = sl.psi + cfg.wall.phiw
    bl, br = wall_layers(cfg, phi0)
    lap = laplacian(g, phi0)
    assert np.array_equal(bl.amplitude, lap[:, 0])
    assert np.array_equal(br.amplitude, lap[:, -1])
    want_rate = np.sqrt(p.z1 * (p.z1 - p.z2) * cfg.bdata.gamma1[0])
    assert np.allclose(bl.rate, want_rate, rtol=1e-15)
    assert bl.wall == "left" and br.wall == "right"
