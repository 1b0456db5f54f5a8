"""Integrator tests: exact discrete fixed points, amplification factors,
charge relaxation, self-convergence, and guard behavior."""

import dataclasses
import pickle
import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from debyeflow import BoundaryData, ChannelGrid, Params, State, VelocityField
from debyeflow import coupled2d, elliptic, npns
from debyeflow.diagnostics import max_principle_check
from debyeflow.npns import (
    MaxPrincipleViolation,
    NpnsConfig,
    StepError,
    run_npns,
    step_npns,
    well_prepared_init,
)
from debyeflow.operators import norm_l2

from oracles import (
    banded_to_sparse,
    coupled_sparse_2d,
    dense_coupled_matrix,
    divergence,
    interior_laplacian_action,
    step_npns_d1_reference,
)


def make_cfg(
    ny=33,
    eps=0.25,
    dt=1e-3,
    t_end=None,
    z1=1.0,
    z2=-1.0,
    D1=1.0,
    D2=1.0,
    nu=1.0,
    gamma1=2.0,
    w=(0.0, 0.0),
    d=1,
    nx=1,
):
    if t_end is None:
        t_end = dt
    p = Params(z1=z1, z2=z2, D1=D1, D2=D2, nu=nu, eps=eps)
    grid = ChannelGrid(d=d, nx=nx, ny=ny)
    gam = np.full((2, nx), gamma1)
    wtr = np.vstack([np.full(nx, w[0]), np.full(nx, w[1])])
    bdata = BoundaryData.electroneutral(gam, w=wtr, params=p)
    return NpnsConfig(params=p, bdata=bdata, grid=grid, dt=dt, t_end=t_end)


def discrete_mu2(k, ny):
    # dirichlet eigenvalue of the centred second difference for sin(k pi y)
    h = 1.0 / (ny - 1)
    return (2.0 - 2.0 * np.cos(k * np.pi * h)) / h ** 2


# ---------------------------------------------------------------------------
# initialization


def test_well_prepared_symmetric():
    cfg = make_cfg()
    c1 = np.full(cfg.grid.shape, 2.0)
    s = well_prepared_init(cfg.grid, c1, VelocityField.zero(cfg.grid), cfg)
    assert np.array_equal(s.c2, c1), "z2=-z1 forces c2 = c1"
    rho = s.rho(cfg.params)
    assert np.all(rho == 0.0), "charge must vanish bitwise"
    assert np.all(s.psi == 0.0)


def test_well_prepared_asymmetric_valences():
    cfg = make_cfg(z1=2.0, z2=-1.0, gamma1=1.5)
    c1 = np.full(cfg.grid.shape, 1.5)
    s = well_prepared_init(cfg.grid, c1, VelocityField.zero(cfg.grid), cfg)
    assert np.allclose(s.c2, 3.0), f"c2 = -z1 c1/z2 should be 3.0, got {s.c2[0, 0]}"


def test_well_prepared_rejects_bad_input():
    cfg = make_cfg()
    g = cfg.grid
    with pytest.raises(ValueError, match="trace"):
        well_prepared_init(g, np.full(g.shape, 2.5), VelocityField.zero(g), cfg)
    with pytest.raises(ValueError, match="positive"):
        well_prepared_init(g, -np.ones(g.shape), VelocityField.zero(g), cfg)


# ---------------------------------------------------------------------------
# exact step behavior


def test_equilibrium_is_exact_fixed_point():
    # d = 2 runs the GMRES coupled solve, whose zero residual must give
    # an exact zero delta
    for d, nx in ((1, 1), (2, 8)):
        cfg = make_cfg(dt=2.0 ** -7, t_end=2.0 ** -7, d=d, nx=nx)
        s0 = well_prepared_init(cfg.grid, np.full(cfg.grid.shape, 2.0), VelocityField.zero(cfg.grid), cfg)
        s1 = step_npns(s0, cfg)
        assert np.array_equal(s1.c1, s0.c1), f"d={d}: equilibrium c1 drifted"
        assert np.array_equal(s1.c2, s0.c2), f"d={d}: equilibrium c2 drifted"
        assert np.array_equal(s1.psi, s0.psi), f"d={d}: equilibrium psi drifted"
        for a, b in zip(s1.u.components, s0.u.components):
            assert np.array_equal(a, b), f"d={d}: equilibrium velocity drifted"


def test_pure_diffusion_amplification_exact():
    # neutral eigenmode perturbation with D1 = D2 never creates charge,
    # so each species sees exactly one implicit diffusion step
    ny, dt, D, k = 33, 2e-3, 1.0, 2
    delta = 1e-3
    cfg = make_cfg(ny=ny, dt=dt, D1=D, D2=D)
    g = cfg.grid
    pert = delta * np.sin(k * np.pi * g.yy)
    s0 = well_prepared_init(g, 2.0 + pert, VelocityField.zero(g), cfg)
    s1 = step_npns(s0, cfg)
    factor = 1.0 / (1.0 + dt * D * discrete_mu2(k, ny))
    for c in (s1.c1, s1.c2):
        err = np.max(np.abs((c - 2.0) - factor * pert))
        assert err <= delta * 1e-10, f"amplification factor off by {err / delta:.2e} (relative)"
    rho = s1.rho(cfg.params)
    assert np.max(np.abs(rho)) <= 1e-14, "neutral data must stay neutral"


def test_charge_relaxation_rate():
    # charged sine perturbation on a constant background: rho follows the
    # scalar recursion with the discrete eigenvalue and the background
    # conductivity z1(z1-z2)*D*cbar, up to the size of the perturbation
    ny, dt, eps, D, cbar = 33, 1e-4, 0.1, 1.0, 2.0
    delta = 1e-6
    cfg = make_cfg(ny=ny, dt=dt, eps=eps, D1=D, D2=D, gamma1=cbar, t_end=3 * dt)
    g = cfg.grid
    p = cfg.params
    rho0 = delta * np.sin(np.pi * g.yy)
    c1 = cbar + rho0 / p.z1
    c2 = np.full(g.shape, cbar)
    from debyeflow.elliptic import solve_poisson

    s = State(t=0.0, c1=c1, c2=c2, u=VelocityField.zero(g), psi=solve_poisson(g, rho0, coeff=eps ** 2))
    abar = p.z1 * (p.z1 - p.z2) * cbar
    factor = 1.0 / (1.0 + dt * D * (discrete_mu2(1, ny) + abar / eps ** 2))
    for n in range(1, 4):
        s = step_npns(s, cfg)
        rho = s.rho(p)
        expected = factor ** n * rho0
        err = np.max(np.abs(rho - expected)) / delta
        assert err <= 1e-5, f"step {n}: charge relaxation factor off by {err:.2e} (relative)"


def test_psi_charge_relation_invariant():
    cfg = make_cfg(ny=65, dt=5e-4, eps=0.1, w=(0.0, 0.5), t_end=5e-4)
    g = cfg.grid
    c1 = 2.0 + 0.3 * np.sin(np.pi * g.yy)
    s = well_prepared_init(g, c1, VelocityField.zero(g), cfg)
    for _ in range(3):
        s = step_npns(s, cfg)
    rho = s.rho(cfg.params)
    res = -cfg.params.eps ** 2 * interior_laplacian_action(g, s.psi) - rho[:, 1:-1]
    assert np.max(np.abs(res)) <= 1e-10, "stored psi must satisfy the charge relation"
    assert np.all(s.psi[:, 0] == 0.0) and np.all(s.psi[:, -1] == 0.0)


# ---------------------------------------------------------------------------
# runs


def test_run_t_end_zero_returns_initial():
    cfg = make_cfg(t_end=0.0)
    s0 = well_prepared_init(cfg.grid, np.full(cfg.grid.shape, 2.0), VelocityField.zero(cfg.grid), cfg)
    run = list(run_npns(s0, cfg))
    assert len(run) == 1
    assert run[0].t == 0.0


def test_run_equilibrium_all_identical():
    cfg = make_cfg(dt=1e-3, t_end=5e-3)
    s0 = well_prepared_init(cfg.grid, np.full(cfg.grid.shape, 2.0), VelocityField.zero(cfg.grid), cfg)
    run = list(run_npns(s0, cfg))
    times = np.array([s.t for s in run])
    assert np.all(np.diff(times) > 0), "snapshot times must increase"
    for s in run[1:]:
        assert np.array_equal(s.c1, run[0].c1)
        assert np.array_equal(s.c2, run[0].c2)


def test_run_builds_its_workspace_when_called(monkeypatch):
    # the set-up is paid by the call, the steps by the reader of the stream
    built = []
    original = npns._StepWorkspace

    def counted(cfg):
        built.append(cfg)
        return original(cfg)

    monkeypatch.setattr(npns, "_StepWorkspace", counted)
    cfg = make_cfg(dt=1e-3, t_end=3e-3, w=(0.0, 0.5))
    s0 = well_prepared_init(cfg.grid, np.full(cfg.grid.shape, 2.0), VelocityField.zero(cfg.grid), cfg)
    run = run_npns(s0, cfg)
    assert built == [cfg]
    assert [s.t for s in run] == [0.0, 1e-3, 2e-3, 3e-3]
    assert built == [cfg]


def test_run_self_convergence_first_order():
    # drift-diffusion splitting is first order; Richardson against dt/4
    def final_c1(dt):
        cfg = make_cfg(ny=65, eps=0.25, dt=dt, t_end=0.02, w=(0.0, 0.5))
        g = cfg.grid
        c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
        s0 = well_prepared_init(g, c1, VelocityField.zero(g), cfg)
        return list(run_npns(s0, cfg, save_every=10 ** 9))[-1].c1

    g = ChannelGrid(d=1, nx=1, ny=65)
    ref = final_c1(2.5e-4)
    e1 = norm_l2(g, final_c1(1e-3) - ref)
    e2 = norm_l2(g, final_c1(5e-4) - ref)
    # first order against a dt/4 reference: e(dt)/e(dt/2) = (3/4)/(1/4) = 3
    ratio = e1 / e2
    assert 2.6 <= ratio <= 3.4, f"expected ratio near 3 for first order, got {ratio:.2f}"


def test_nan_from_the_coupled_solve_aborts_the_run(monkeypatch):
    # a coupled solve that returns NaN must stop the run with a StepError
    # that names the run's eps and the last good state's extrema
    cfg = make_cfg(ny=33, eps=0.125, dt=1e-3, t_end=5e-3, w=(0.0, 0.5))
    g = cfg.grid
    s0 = well_prepared_init(g, 2.0 + 0.5 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)
    monkeypatch.setattr(npns.BandedMatrix, "solve", lambda self, r: np.full_like(r, np.nan))
    with pytest.raises(StepError, match="non-finite") as err:
        list(run_npns(s0, cfg))
    assert err.value.eps == cfg.params.eps, "the abort must name the run's eps"
    assert err.value.t == cfg.dt, "the first step must abort"
    assert err.value.extrema["min_c1"] == float(np.min(s0.c1))


@pytest.mark.parametrize("z1, z2", [(1.0, -1.0), (2.0, -1.0)])
@pytest.mark.parametrize("charged", [True, False], ids=["charged", "equilibrium"])
def test_d1_step_matches_the_full_size_formulas(z1, z2, charged):
    # the d = 1 step averages each species once, forms its right side on
    # the interior rows and reuses the run's buffers; the full-size
    # formulas must give its bytes, zero signs included, step after step;
    # hy = 1/49 is no power of two, so scaling by it rounds
    w = (0.0, 0.5) if charged else (0.0, 0.0)
    cfg = make_cfg(ny=50, eps=0.125, dt=1e-3, z1=z1, z2=z2, D1=2.0, D2=1.0, w=w)
    g, p = cfg.grid, cfg.params
    c1 = np.full(g.shape, 2.0)
    c2 = -(z1 / z2) * c1
    if charged:
        rng = np.random.default_rng(5)
        c1 = c1 + 0.3 * np.sin(np.pi * g.yy) + 0.01 * rng.random(g.shape)
        c2 = c2 - 0.2 * np.sin(2.0 * np.pi * g.yy) + 0.01 * rng.random(g.shape)
    s = State(t=0.0, c1=c1, c2=c2, u=VelocityField.zero(g), psi=elliptic.solve_poisson(
        g, p.z1 * c1 + p.z2 * c2, coeff=p.eps ** 2))
    ws = npns._StepWorkspace(cfg)
    for k in range(1, 5):
        ref = step_npns_d1_reference(s, cfg)
        s = step_npns(s, cfg, ws)
        assert s.t == ref.t and s.u is ref.u
        for name in ("c1", "c2", "psi"):
            assert getattr(s, name).tobytes() == getattr(ref, name).tobytes(), f"step {k}: {name}"
    if not charged:
        assert s.psi.tobytes() == g.zeros().tobytes(), "the equilibrium keeps a +0.0 potential"


def test_nonpositive_concentration_from_the_coupled_solve_is_a_step_error(monkeypatch):
    # a solve that drives c2 through zero stops the step with the new extrema
    cfg = make_cfg(ny=33, eps=0.125, dt=1e-3, t_end=5e-3, w=(0.0, 0.5))
    g = cfg.grid
    s0 = well_prepared_init(g, 2.0 + 0.5 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)

    def sink(self, r):
        delta = np.zeros_like(r)
        delta[3 * 16 + 1] = -10.0
        return delta

    monkeypatch.setattr(npns.BandedMatrix, "solve", sink)
    with pytest.raises(StepError, match="positivity") as err:
        step_npns(s0, cfg)
    assert err.value.t == cfg.dt and err.value.eps == cfg.params.eps
    assert err.value.extrema["min_c2"] == float(s0.c2[0, 16]) - 10.0


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        make_cfg(dt=0.0)
    cfg = make_cfg(dt=3e-4, t_end=1e-3)
    with pytest.raises(ValueError, match="whole number"):
        _ = cfg.n_steps


# ---------------------------------------------------------------------------
# two-dimensional smoke


def test_d2_run_invariants():
    p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=0.5, eps=0.25)
    grid = ChannelGrid(d=2, nx=8, ny=17)
    gamma1 = np.vstack([2.0 + 0.2 * np.cos(2 * np.pi * grid.x), np.full(grid.nx, 2.0)])
    w = np.vstack([0.1 * np.sin(2 * np.pi * grid.x), np.zeros(grid.nx)])
    bdata = BoundaryData.electroneutral(gamma1, w=w, params=p)
    cfg = NpnsConfig(params=p, bdata=bdata, grid=grid, dt=1e-3, t_end=5e-3)
    c1 = np.tile(gamma1[0][:, None], (1, grid.ny)) * (1.0 - grid.yy) + 2.0 * grid.yy
    s0 = well_prepared_init(grid, c1, VelocityField.zero(grid), cfg)
    run = list(run_npns(s0, cfg))
    s = run[-1]
    assert np.all(np.isfinite(s.c1)) and np.all(np.isfinite(s.c2))
    # wall conditions exact
    assert np.array_equal(s.c1[:, 0], gamma1[0])
    assert np.all(s.u.components[0][:, 0] == 0.0)
    # projection keeps interior divergence at solver tolerance
    div = divergence(grid, s.u)
    assert np.max(np.abs(div[:, 1:-1])) <= 1e-10
    # charge relation after recompute
    res = -p.eps ** 2 * interior_laplacian_action(grid, s.psi) - s.rho(p)[:, 1:-1]
    assert np.max(np.abs(res)) <= 1e-10


def _d2_cfg(eps, nx=8, ny=17):
    p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=0.5, eps=eps)
    grid = ChannelGrid(d=2, nx=nx, ny=ny)
    gamma1 = np.vstack([2.0 + 0.2 * np.cos(2 * np.pi * grid.x), np.full(grid.nx, 2.0)])
    w = np.vstack([0.1 * np.sin(2 * np.pi * grid.x), np.zeros(grid.nx)])
    bdata = BoundaryData.electroneutral(gamma1, w=w, params=p)
    cfg = NpnsConfig(params=p, bdata=bdata, grid=grid, dt=1e-3, t_end=2e-3)
    c1 = np.tile(gamma1[0][:, None], (1, grid.ny)) * (1.0 - grid.yy) + 2.0 * grid.yy
    return cfg, well_prepared_init(grid, c1, VelocityField.zero(grid), cfg)


def _scipy_csr(system: coupled2d.CoupledMatrix, data: np.ndarray) -> scipy.sparse.csr_matrix:
    """scipy's CSR matrix on the system's index arrays and the given data."""
    return scipy.sparse.csr_matrix((data, system.indices, system.indptr), shape=(system.n, system.n))


@pytest.mark.parametrize("eps", [1 / 4, 1 / 16, 1 / 64])
def test_coupled_gmres_matches_direct_solve(eps, monkeypatch):
    cfg, s = _d2_cfg(eps)
    g, p = cfg.grid, cfg.params
    solves = []
    gmres = coupled2d._coupled_gmres

    def spy(A, c1n, c2n, r, atol):
        delta, info = gmres(A, c1n, c2n, r, atol)
        solves.append((delta, info, _scipy_csr(A, A.data.copy()), r, c1n, c2n))
        return delta, info

    monkeypatch.setattr(coupled2d, "_coupled_gmres", spy)
    for _ in range(2):
        s = step_npns(s, cfg)
    assert len(solves) == 2
    for delta, info, A, r, c1n, c2n in solves:
        assert info == 0
        dense = dense_coupled_matrix(g, p, cfg.dt, c1n, c2n)
        assert np.allclose(A.toarray(), dense, rtol=1e-13, atol=1e-9), "sparse step matrix != probed operator"
        ref = scipy.sparse.linalg.splu(A.tocsc()).solve(r)
        err = np.linalg.norm(delta - ref) / np.linalg.norm(ref)
        assert err <= 1e-10, f"eps={eps}: GMRES delta differs from splu by {err:.2e}"


@pytest.mark.parametrize("nx, ny", [(4, 9), (8, 17), (32, 129)])
def test_gmres_port_matches_scipy_gmres(nx, ny):
    # the in-module GMRES is scipy's, bit for bit, with the same stopping
    # parameters and the preconditioner wrapped as scipy's M
    cfg, _ = _d2_cfg(1 / 16, nx, ny)
    g, p = cfg.grid, cfg.params
    rng = np.random.default_rng(19)
    c1n = 0.5 + rng.random(g.shape)
    c2n = 0.5 + rng.random(g.shape)
    system = coupled2d.CoupledMatrix(g, p, cfg.dt, c1n, c2n)
    psolve = coupled2d._mode_preconditioner(g, p, cfg.dt, c1n, c2n)
    A = _scipy_csr(system, system.data)
    M = scipy.sparse.linalg.LinearOperator(A.shape, matvec=psolve, dtype=float)
    b = rng.standard_normal(A.shape[0])
    zero = np.zeros(A.shape[0])
    # (right side, rtol, atol, restart, maxiter, expected info or None)
    cases = [
        (b, 1e-13, 1e-9 * np.linalg.norm(b), 50, 10, 0),  # converges
        (b, 1e-16, 0.0, 3, 2, 2),  # cut at maxiter inside short cycles
        # near rounding level, where the inner tolerance adapts from
        # cycle to cycle; whether it converges depends on the grid
        (b, 1e-13, 0.0, 50, 3, None),
        (zero, 1e-13, 0.0, 50, 10, 0),  # no iteration
    ]
    for rhs, rtol, atol, restart, maxiter, info in cases:
        mine = coupled2d._gmres(system.matvec, psolve, rhs, rtol, atol, restart, maxiter)
        ref = scipy.sparse.linalg.gmres(A, rhs, rtol=rtol, atol=atol, restart=restart, maxiter=maxiter, M=M)
        where = f"{nx}x{ny}, restart={restart}, maxiter={maxiter}"
        assert mine[1] == ref[1], f"{where}: info {mine[1]} vs scipy's {ref[1]}"
        assert info is None or mine[1] == info, f"{where}: info {mine[1]}, expected {info}"
        assert mine[0].dtype == ref[0].dtype and mine[0].tobytes() == ref[0].tobytes(), f"{where}: x differs"
    assert not np.any(mine[0]), "a zero right side must give an exact zero"


def test_mode_preconditioner_inverts_x_independent_operator():
    # with concentrations constant in x the preconditioner is the exact
    # inverse, which checks every lam_k shift of the per-mode bands
    cfg, _ = _d2_cfg(1 / 16)
    g, p = cfg.grid, cfg.params
    rng = np.random.default_rng(7)
    c1n = np.tile(2.0 + 0.3 * np.sin(np.pi * g.y), (g.nx, 1))
    c2n = np.tile(1.5 + 0.2 * g.y, (g.nx, 1))
    A = coupled_sparse_2d(g, p, cfg.dt, c1n, c2n)
    v = rng.standard_normal(A.shape[0])
    back = coupled2d._mode_preconditioner(g, p, cfg.dt, c1n, c2n)(A @ v)
    assert np.max(np.abs(back - v)) <= 1e-10 * np.max(np.abs(v))


def test_solver_exceptions_pickle():
    err = pickle.loads(pickle.dumps(StepError(0.1, "lost positivity", {"min_c1": -1.0}, 0.0625)))
    assert type(err) is StepError
    assert (err.t, err.message, err.extrema, err.eps) == (0.1, "lost positivity", {"min_c1": -1.0}, 0.0625)
    report = max_principle_check(np.full((1, 9), 5.0), np.ones((1, 9)), (1.0, 2.0, 1.0, 2.0), tol=1e-4)
    err = pickle.loads(pickle.dumps(MaxPrincipleViolation(0.2, report, 0.125)))
    assert (type(err), err.t, err.report, err.eps) == (MaxPrincipleViolation, 0.2, report, 0.125)
    assert str(err) == str(MaxPrincipleViolation(0.2, report))


def test_coupling_refill_matches_probed_operator():
    # one matrix refilled in place, as a run does every step, must equal
    # the probed step operator of the new concentrations (node-major here,
    # field-major in the oracle)
    cfg = make_cfg(ny=17, eps=0.125)
    g, p = cfg.grid, cfg.params
    rng = np.random.default_rng(11)
    A = npns._coupled_banded_1d(g, p, cfg.dt, g.zeros(), g.zeros())
    node_major = np.arange(3 * g.ny).reshape(3, g.ny).T.ravel()
    for _ in range(2):
        c1n = 1.0 + rng.random(g.shape)
        c2n = 1.0 + rng.random(g.shape)
        npns._set_coupling_1d(A, g, p, c1n, c2n)
        assert np.array_equal(A.ab, npns._coupled_banded_1d(g, p, cfg.dt, c1n, c2n).ab)
        dense = dense_coupled_matrix(g, p, cfg.dt, c1n, c2n)[np.ix_(node_major, node_major)]
        assert np.allclose(banded_to_sparse(A).toarray(), dense, rtol=1e-13, atol=1e-9)


def test_run_with_shared_workspace_matches_fresh_steps():
    # the run reuses one band matrix and LU buffer; stepping with a fresh
    # workspace whose matrix is assembled from the step's own
    # concentrations must give the same bytes
    cfg = make_cfg(ny=33, eps=0.125, dt=1e-3, t_end=6e-3, w=(0.0, 0.5))
    g = cfg.grid
    s = well_prepared_init(g, 2.0 + 0.5 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg)
    run = list(run_npns(s, cfg))
    for k, snap in enumerate(run[1:], start=1):
        ws = npns._StepWorkspace(cfg)
        ws.coupled = npns._coupled_banded_1d(g, cfg.params, cfg.dt, s.c1, s.c2)
        s = step_npns(s, cfg, ws)
        s.t = k * cfg.dt
        for name in ("c1", "c2", "psi"):
            assert np.array_equal(getattr(snap, name), getattr(s, name)), f"step {k}: {name} differs"


def test_coupling_refill_2d_matches_fresh_assembly():
    # the run's one set of CSR arrays, assembled directly and refilled in
    # place as every step does, must be bitwise the bmat assembly of the
    # new concentrations, and the kept |A| must follow every refill; 4x9
    # has the smallest nx, where the periodic x neighbours wrap
    rng = np.random.default_rng(13)
    for nx, ny in ((4, 9), (8, 17), (32, 129)):
        cfg, _ = _d2_cfg(1 / 16, nx, ny)
        g, p = cfg.grid, cfg.params
        system = npns._StepWorkspace(cfg).coupled
        ones = np.ones(g.shape)
        fields = [(ones, ones)] + [(0.5 + rng.random(g.shape), 0.5 + rng.random(g.shape)) for _ in range(2)]
        for k, (c1n, c2n) in enumerate(fields):
            if k:
                system.refill(c1n, c2n)
            ref = coupled_sparse_2d(g, p, cfg.dt, c1n, c2n)
            assert system.n == ref.shape[0] == ref.shape[1]
            for name in ("indptr", "indices", "data"):
                mine, want = getattr(system, name), getattr(ref, name)
                assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes(), \
                    f"{nx}x{ny}, fill {k}: {name} differs"
            assert system.abs_data.tobytes() == np.abs(system.data).tobytes(), f"{nx}x{ny}, fill {k}: |A| is stale"


def test_coupled_matrix_product_matches_scipy_csr():
    # the compiled kernel on the kept arrays gives the bytes of scipy's
    # CSR product, after the first build and after a refill
    rng = np.random.default_rng(23)
    for nx, ny in ((4, 9), (8, 17), (32, 129)):
        cfg, _ = _d2_cfg(1 / 16, nx, ny)
        system = npns._StepWorkspace(cfg).coupled
        for k in range(2):
            if k:
                system.refill(0.5 + rng.random(cfg.grid.shape), 0.5 + rng.random(cfg.grid.shape))
            x = rng.standard_normal(system.n)
            ref = _scipy_csr(system, system.data) @ x
            assert system.matvec(x).tobytes() == ref.tobytes(), f"{nx}x{ny}, fill {k}: A x differs"


def test_rounding_level_matches_the_abs_matrix_product():
    # the kept |A| on A's own index arrays gives the bytes of the abs(A)
    # CSR copy, after the first build and after a refill
    cfg, s = _d2_cfg(1 / 16)
    system = npns._StepWorkspace(cfg).coupled
    rng = np.random.default_rng(17)
    for k in range(2):
        if k:
            system.refill(s.c1, s.c2)
        data = system.data.copy()
        A = _scipy_csr(system, data)
        for _ in range(3):
            x = rng.standard_normal(system.n)
            b = rng.standard_normal(system.n)
            ref = np.finfo(float).eps * np.linalg.norm(abs(A) @ np.abs(x) + np.abs(b))
            assert system.rounding_level(x, b) == ref, f"fill {k}: rounding level differs"
        assert system.data.tobytes() == data.tobytes(), "the bound must leave A alone"


def test_d2_run_with_shared_matrix_matches_fresh_steps():
    # a d = 2 run refills one matrix every step; stepping with a fresh
    # workspace whose matrix is assembled from the step's own
    # concentrations must give the same bytes
    cfg, s = _d2_cfg(1 / 16)
    cfg = dataclasses.replace(cfg, t_end=4e-3)
    g = cfg.grid
    run = list(run_npns(s, cfg))
    assert np.max(np.abs(run[-1].u.components[0])) > 0.0, "the flow must be driven"
    for k, snap in enumerate(run[1:], start=1):
        ws = npns._StepWorkspace(cfg)
        ws.coupled = coupled2d.CoupledMatrix(g, cfg.params, cfg.dt, s.c1, s.c2)
        s = step_npns(s, cfg, ws)
        s.t = k * cfg.dt
        for name in ("c1", "c2", "psi"):
            assert np.array_equal(getattr(snap, name), getattr(s, name)), f"step {k}: {name} differs"
        for mine, ref in zip(snap.u.components, s.u.components):
            assert np.array_equal(mine, ref), f"step {k}: velocity differs"


@pytest.mark.parametrize("d", [1, 2])
def test_wall_data_is_extended_once_per_run(d, monkeypatch):
    # the wall data is fixed for a run: its harmonic extensions are built
    # once, whatever the number of steps and snapshots
    calls = []
    original = elliptic.harmonic_extension

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "debyeflow" and vars(module).get("harmonic_extension") is original:
            monkeypatch.setattr(module, "harmonic_extension", counted)
    counts = []
    for t_end, save_every in ((4e-3, 1), (1.2e-2, 2)):
        if d == 1:
            cfg = make_cfg(ny=33, dt=1e-3, t_end=t_end, w=(0.0, 0.5))
            s0 = well_prepared_init(cfg.grid, 2.0 + 0.5 * np.sin(np.pi * cfg.grid.yy), VelocityField.zero(cfg.grid), cfg)
        else:
            cfg, s0 = _d2_cfg(0.25)
            cfg = dataclasses.replace(cfg, t_end=t_end)
        calls.clear()
        run = list(run_npns(s0, cfg, save_every=save_every))
        assert len(run) >= 3, "the run must reach the energy residual"
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3, f"harmonic_extension calls per run: {counts}"
