"""Limit solver: psi equation and ambipolar march."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debyeflow import BoundaryData, ChannelGrid, Params, VelocityField, limit
from debyeflow.elliptic import harmonic_extension
from debyeflow.limit import (
    effective_diffusivity,
    initial_limit_state,
    run_limit,
    solve_limit_psi,
    step_limit,
)
from debyeflow.npns import MaxPrincipleViolation, NpnsConfig, StepError

from oracles import (
    advected_limit_c1,
    limit_psi_d1_reference,
    limit_psi_residuals,
    norm_linf,
    step_limit_d1_reference,
)

Z_SAFE = (-1.0, -2.0, -4.0)  # power-of-two magnitudes keep the constraint scaling exact


def make_params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, eps=0.1):
    return Params(z1=z1, z2=z2, D1=D1, D2=D2, nu=1.0, eps=eps)


def make_cfg(ny=65, dt=1e-3, n_steps=5, gamma=(2.0, 2.0), w=(0.0, 0.0), **pkw):
    p = make_params(**pkw)
    g = ChannelGrid(d=1, nx=1, ny=ny)
    bdata = BoundaryData.electroneutral(
        np.array([[gamma[0]], [gamma[1]]]), w=np.array([[w[0]], [w[1]]]), params=p
    )
    return NpnsConfig(params=p, bdata=bdata, grid=g, dt=dt, t_end=n_steps * dt)


def discrete_mu2(k, ny):
    h = 1.0 / (ny - 1)
    return (2.0 - 2.0 * np.cos(k * np.pi * h)) / h ** 2


# ---------------------------------------------------------------------------
# effective diffusivity


def test_effective_diffusivity_values():
    assert effective_diffusivity(make_params(1, -1, 1.5, 1.5)) == 1.5
    val = effective_diffusivity(make_params(2, -1, 3, 1))
    assert np.isclose(val, 9.0 / 7.0, atol=1e-15), f"Deff = {val}"
    assert effective_diffusivity(make_params(1, -2, 1, 1)) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-10.0, max_value=-0.1),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_effective_diffusivity_between_species(z1, z2, d1, d2):
    if d1 < d2:
        d1, d2 = d2, d1
    deff = effective_diffusivity(make_params(z1, z2, d1, d2))
    assert d2 * (1 - 1e-12) <= deff <= d1 * (1 + 1e-12), (
        f"Deff={deff} outside [{d2}, {d1}] for z=({z1},{z2}), D=({d1},{d2})"
    )


# ---------------------------------------------------------------------------
# psi equation


def test_limit_psi_constant_no_wall_potential():
    p = make_params()
    g = ChannelGrid(d=1, nx=1, ny=33)
    psi = solve_limit_psi(g, np.full(g.shape, 2.0), p, g.zeros())
    assert np.all(psi == 0.0)


def test_limit_psi_constant_with_linear_wall_potential():
    # constant c1 makes the equation c1 * Lap(psi + Phi_W) = 0; a linear
    # Phi_W is discretely harmonic, so psi vanishes at machine precision
    p = make_params()
    g = ChannelGrid(d=1, nx=1, ny=65)
    phiw = harmonic_extension(g, np.array([[0.0], [0.5]]))
    psi = solve_limit_psi(g, np.full(g.shape, 2.0), p, phiw)
    assert norm_linf(g, psi) <= 1e-13, f"psi max {norm_linf(g, psi)}"


def test_limit_psi_rejects_nonpositive_concentration():
    p = make_params()
    g = ChannelGrid(d=1, nx=1, ny=17)
    with pytest.raises(ValueError, match="ellipticity"):
        solve_limit_psi(g, np.zeros(g.shape), p, g.zeros())


def _mms_zero_flux_error(ny):
    # psi = beta log(2/c1) cancels the diffusive flux pointwise
    p = make_params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0)
    g = ChannelGrid(d=1, nx=1, ny=ny)
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    beta = (p.D1 - p.D2) / (p.z1 * p.D1 - p.z2 * p.D2)
    exact = beta * np.log(2.0 / c1)
    psi = solve_limit_psi(g, c1, p, g.zeros())
    return norm_linf(g, psi - exact)


def _mms_unit_flux_error(ny):
    # with D1 = D2 the flux c1 (psi + Phi_W)' = const is satisfied by
    # c1 = 1/(0.5 + 0.5 y), Phi_W = 0.75 y, psi = 0.25 (y^2 - y)
    p = make_params(z1=1.0, z2=-1.0, D1=1.0, D2=1.0)
    g = ChannelGrid(d=1, nx=1, ny=ny)
    c1 = 1.0 / (0.5 + 0.5 * g.yy)
    phiw = harmonic_extension(g, np.array([[0.0], [0.75]]))
    exact = 0.25 * (g.yy ** 2 - g.yy)
    psi = solve_limit_psi(g, c1, p, phiw)
    return norm_linf(g, psi - exact)


@pytest.mark.parametrize("case", [_mms_zero_flux_error, _mms_unit_flux_error])
def test_limit_psi_manufactured_second_order(case):
    e_coarse, e_fine = case(65), case(129)
    ratio = e_coarse / e_fine
    assert ratio >= 3.4, f"{case.__name__}: errors {e_coarse:.3e}/{e_fine:.3e}, ratio {ratio:.2f}"


def test_limit_psi_discrete_residuals():
    cfg = make_cfg(ny=65, w=(0.0, 0.5))
    g, p = cfg.grid, cfg.params
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    phiw = harmonic_extension(g, cfg.bdata.w)
    psi = solve_limit_psi(g, c1, p, phiw)
    res = limit_psi_residuals(g, c1, psi, p, phiw)
    assert res["primary"] <= 1e-10, f"primary form residual {res['primary']:.2e}"
    assert res["charge_weighted"] <= 1e-8, f"charge form residual {res['charge_weighted']:.2e}"


# ---------------------------------------------------------------------------
# limit march


def test_step_limit_equilibrium_fixed_point():
    cfg = make_cfg(ny=33)
    g = cfg.grid
    s = initial_limit_state(g, np.full(g.shape, 2.0), VelocityField.zero(g), cfg)
    s1 = step_limit(s, cfg)
    assert np.array_equal(s1.c1, s.c1)
    assert np.array_equal(s1.psi, s.psi)
    assert np.all(s1.u.components[0] == 0.0)


def test_step_limit_d1_skips_advection_bitwise():
    # in d = 1 the velocity is zero and the step leaves advect out; the
    # concentration must keep the bytes of the step that evaluated it
    cfg = make_cfg(ny=65, dt=1e-3, gamma=(2.0, 1.5), w=(0.0, 0.5))
    g = cfg.grid
    s = initial_limit_state(g, 2.0 - 0.5 * g.yy + 0.3 * np.sin(3.0 * np.pi * g.yy), VelocityField.zero(g), cfg)
    for _ in range(4):
        ref = advected_limit_c1(s, cfg)
        s = step_limit(s, cfg)
        assert s.c1.tobytes() == ref.tobytes()


@pytest.mark.parametrize("z1, z2", [(1.0, -1.0), (2.0, -1.0)])
def test_d1_limit_step_and_psi_match_the_full_size_formulas(z1, z2):
    # the d = 1 limit step and psi solve form their right sides on the
    # interior rows only; the full laplacian and div_a_grad forms must
    # give the same bytes, at every step and for a psi-less march state;
    # hy = 1/49 is no power of two, so scaling by it rounds
    cfg = make_cfg(ny=50, dt=1e-3, gamma=(2.0, 1.5), w=(0.0, 0.5), z1=z1, z2=z2, D1=2.0, D2=1.0)
    g, p = cfg.grid, cfg.params
    c1 = 2.0 - 0.5 * g.yy + 0.3 * np.sin(3.0 * np.pi * g.yy)
    s = initial_limit_state(g, c1, VelocityField.zero(g), cfg)
    assert s.psi.tobytes() == limit_psi_d1_reference(g, c1, p, cfg.wall.phiw).tobytes()
    for k in range(1, 5):
        ref = step_limit_d1_reference(s, cfg)
        bare = step_limit(replace(s, psi=None), cfg)
        s = step_limit(s, cfg)
        assert bare.psi is None and bare.c1.tobytes() == s.c1.tobytes()
        for name in ("c1", "c2", "psi"):
            assert getattr(s, name).tobytes() == getattr(ref, name).tobytes(), f"step {k}: {name}"


def test_nonpositive_limit_concentration_is_a_step_error(monkeypatch):
    # a diffusion solve that drives c1 through zero stops the step, with
    # the extrema of the concentrations it produced
    cfg = make_cfg(ny=33, dt=1e-3, n_steps=5)
    g = cfg.grid
    s0 = initial_limit_state(g, 2.0 + 0.5 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)
    original = limit._implicit_diffusion

    def sunk(*args, **kwargs):
        out = original(*args, **kwargs)
        out[0, 7] = -1.0
        return out

    monkeypatch.setattr(limit, "_implicit_diffusion", sunk)
    with pytest.raises(StepError, match="positivity") as err:
        step_limit(s0, cfg)
    assert err.value.t == cfg.dt and err.value.extrema["min_c1"] == -1.0


def test_step_limit_eigenmode_decay_oracle():
    # implicit Euler on the discrete sine mode has a known amplification
    cfg = make_cfg(ny=65, dt=1e-3, n_steps=6, D1=2.0, D2=1.0)
    g, p = cfg.grid, cfg.params
    deff = effective_diffusivity(p)
    assert np.isclose(deff, 4.0 / 3.0, atol=1e-15)
    amp = 0.1
    c1 = 2.0 + amp * np.sin(2.0 * np.pi * g.yy)
    s = initial_limit_state(g, c1, VelocityField.zero(g), cfg)
    factor = 1.0 / (1.0 + cfg.dt * deff * discrete_mu2(2, g.ny))
    for n in range(1, cfg.n_steps + 1):
        s = step_limit(s, cfg)
        predicted = 2.0 + amp * factor ** n * np.sin(2.0 * np.pi * g.yy)
        err = norm_linf(g, s.c1 - predicted)
        assert err <= 1e-12, f"step {n}: eigenmode mismatch {err:.2e}"


def test_step_limit_viscous_shear_decay_2d():
    # x-independent shear mode: advection vanishes identically and the
    # projection leaves it alone, so the decay factor is exact
    p = make_params(D1=1.0, D2=1.0)
    g = ChannelGrid(d=2, nx=8, ny=33)
    ones_tr = np.ones((2, g.nx))
    bdata = BoundaryData.electroneutral(2.0 * ones_tr, w=0.0 * ones_tr, params=p)
    cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=2e-3, t_end=8e-3)
    u0 = VelocityField(g, [np.sin(np.pi * g.yy) * np.ones(g.shape), g.zeros()])
    s = initial_limit_state(g, np.full(g.shape, 2.0), u0, cfg)
    factor = 1.0 / (1.0 + cfg.dt * p.nu * discrete_mu2(1, g.ny))
    for n in range(1, cfg.n_steps + 1):
        s = step_limit(s, cfg)
        predicted = factor ** n * np.sin(np.pi * g.yy)
        err = float(np.max(np.abs(s.u.components[0] - predicted)))
        assert err <= 1e-12, f"step {n}: shear decay mismatch {err:.2e}"
        assert np.all(s.u.components[1] == 0.0)


def test_run_limit_max_principle_and_monotone_peak():
    cfg = make_cfg(ny=129, dt=1e-3, n_steps=40)
    g = cfg.grid
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    s0 = initial_limit_state(g, c1, VelocityField.zero(g), cfg)
    run = list(run_limit(s0, cfg))
    peaks = [float(np.max(s.c1)) for s in run]
    assert all(2.0 - 1e-12 <= float(np.min(s.c1)) for s in run)
    assert all(b <= a + 1e-12 for a, b in zip(peaks, peaks[1:])), "peak grew under pure diffusion"
    assert peaks[-1] < peaks[0]


def test_run_limit_aborts_on_a_nan_concentration(monkeypatch):
    # a NaN node is in no band, so the march stops at the step that made it
    cfg = make_cfg(ny=33, dt=1e-3, n_steps=5)
    g = cfg.grid
    s0 = initial_limit_state(g, 2.0 + 0.5 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)
    original = limit.step_limit
    steps = []

    def poisoned(s, cfg):
        out = original(s, cfg)
        steps.append(out)
        if len(steps) == 2:
            out.c1[0, 7] = np.nan
        return out

    monkeypatch.setattr(limit, "step_limit", poisoned)
    with pytest.raises(MaxPrincipleViolation) as err:
        list(run_limit(s0, cfg))
    assert len(steps) == 2 and err.value.t == 2 * cfg.dt
    rep = err.value.report
    assert (rep.ok, rep.worst_violation, rep.worst_species, rep.worst_index) == (False, np.inf, 1, (0, 7))


def test_nan_from_the_limit_diffusion_solve_is_a_step_error(monkeypatch):
    # the NaN must stop the step before the psi solve, whose positivity
    # check would raise a bare ValueError without the run's eps and t
    cfg = make_cfg(ny=33, dt=1e-3, n_steps=5)
    g = cfg.grid
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    s0 = initial_limit_state(g, c1, VelocityField.zero(g), cfg)
    original = limit._implicit_diffusion

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        out[0, 7] = np.nan
        return out

    monkeypatch.setattr(limit, "_implicit_diffusion", poisoned)
    with pytest.raises(StepError) as err:
        list(run_limit(s0, cfg))
    assert err.value.t == cfg.dt
    assert err.value.eps == cfg.params.eps
    assert "non-finite" in err.value.message
    assert all(np.isfinite(v) for v in err.value.extrema.values()), "extrema are those of the last good state"
    assert err.value.extrema["max_c1"] == float(np.max(c1))


@pytest.mark.parametrize("d, save_every", [(1, 1), (1, 3), (2, 2)])
def test_run_limit_solves_psi_for_the_saved_states_only(d, save_every, monkeypatch):
    # every saved state carries the psi that stepping with a psi solve at
    # every step gives, bitwise, and the run solves no other
    if d == 1:
        cfg = make_cfg(ny=65, dt=1e-3, n_steps=10, gamma=(2.0, 1.5), w=(0.0, 0.5))
    else:
        p = make_params()
        g = ChannelGrid(d=2, nx=8, ny=17)
        gamma1 = np.vstack([2.0 + 0.2 * np.cos(2 * np.pi * g.x), np.full(g.nx, 2.0)])
        w = np.vstack([0.1 * np.sin(2 * np.pi * g.x), np.full(g.nx, 0.3)])
        bdata = BoundaryData.electroneutral(gamma1, w=w, params=p)
        cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=1e-3, t_end=5e-3)
    g = cfg.grid
    c1 = cfg.bdata.gamma1[0][:, None] * (1.0 - g.yy) + cfg.bdata.gamma1[1][:, None] * g.yy
    s0 = initial_limit_state(g, c1 + 0.3 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)
    eager = [s0]
    for k in range(1, cfg.n_steps + 1):
        eager.append(step_limit(eager[-1], cfg))
    kept = [k for k in range(cfg.n_steps + 1) if k % save_every == 0 or k == cfg.n_steps]

    solves = []
    original = limit.solve_limit_psi

    def counted(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(limit, "solve_limit_psi", counted)
    run = list(run_limit(s0, cfg, save_every=save_every))
    assert [s.t for s in run] == [k * cfg.dt for k in kept]
    assert len(solves) == len(kept) - 1, "the initial state keeps its psi"
    for s, k in zip(run, kept):
        for name in ("c1", "psi"):
            assert getattr(s, name).tobytes() == getattr(eager[k], name).tobytes(), f"step {k}: {name}"


def test_limit_config_validation():
    with pytest.raises(ValueError):
        make_cfg(dt=-1e-3)
    cfg = make_cfg(dt=1e-3, n_steps=5)
    bad = NpnsConfig(params=cfg.params, bdata=cfg.bdata, grid=cfg.grid, dt=1e-3, t_end=5.5e-3)
    with pytest.raises(ValueError, match="whole number"):
        bad.n_steps


# ---------------------------------------------------------------------------
# charge constraint representation


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from(Z_SAFE),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_limit_c2_constraint_bitwise(z1, z2, c_val):
    # the initial state and every step carry c2 = -(z1/z2) c1, whose
    # charge is zero bitwise
    cfg = make_cfg(ny=9, gamma=(c_val, c_val), z1=float(z1), z2=z2, D1=1.0, D2=1.0)
    g, p = cfg.grid, cfg.params
    states = [initial_limit_state(g, c_val * (1.0 + 0.25 * np.sin(np.pi * g.yy)), VelocityField.zero(g), cfg)]
    for _ in range(2):
        states.append(step_limit(states[-1], cfg))
    for k, s in enumerate(states):
        rho = p.z1 * s.c1 + p.z2 * s.c2
        assert np.all(rho == 0.0), f"step {k}: constraint broke: max |rho| = {np.max(np.abs(rho))}"
