"""Core grid, operator, and elliptic-solver tests."""

import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from debyeflow import BoundaryData, ChannelGrid, Params, VelocityField, elliptic, operators
from debyeflow.elliptic import (
    harmonic_extension,
    project_div_free,
    solve_div_form,
    solve_poisson,
    solve_shifted_poisson,
)
from debyeflow.operators import (
    BandedMatrix,
    d2dx2,
    d2dy2,
    ddx,
    ddy,
    div_a_grad,
    grad,
    integrate,
    laplacian,
    norm_h1_semi,
    norm_l2,
    norms_h1_semi_h2,
    quad_weights,
)

from oracles import (
    banded_to_sparse,
    dense_dirichlet_poisson,
    dense_div_form,
    dense_projection,
    div_a_grad_matrix,
    divergence,
    interior_laplacian_action,
    norm_h2,
    norm_linf,
    per_mode_shifted_poisson,
    solve_banded_projection,
)

RNG = np.random.default_rng(20240817)


def grid1d(ny=65):
    return ChannelGrid(d=1, nx=1, ny=ny)


def grid2d(nx=16, ny=17):
    return ChannelGrid(d=2, nx=nx, ny=ny)


def _walls(g, lower, upper):
    """(2, nx) wall values, constant along each wall."""
    return np.repeat([[lower], [upper]], g.nx, axis=1)


# ---------------------------------------------------------------------------
# types


def test_params_invariants():
    p = Params(z1=2.0, z2=-1.0, D1=3.0, D2=1.0, nu=0.5, eps=0.1)
    assert p.D_star == 1.0
    with pytest.raises(ValueError):
        Params(z1=-1.0, z2=-1.0, D1=1.0, D2=1.0, nu=1.0, eps=0.1)
    with pytest.raises(ValueError):
        Params(z1=1.0, z2=-1.0, D1=1.0, D2=2.0, nu=1.0, eps=0.1)
    with pytest.raises(ValueError):
        Params(z1=1.0, z2=-1.0, D1=1.0, D2=1.0, nu=1.0, eps=0.0)


def test_boundary_data_electroneutral():
    p = Params(z1=2.0, z2=-1.0, D1=3.0, D2=1.0, nu=1.0, eps=0.1)
    g = grid2d()
    gamma1 = np.vstack([2.0 + 0.1 * np.cos(2 * np.pi * g.x), np.full(g.nx, 1.5)])
    bdata = BoundaryData.electroneutral(gamma1, w=np.zeros((2, g.nx)), params=p)
    defect = float(np.max(np.abs(p.z1 * bdata.gamma1 + p.z2 * bdata.gamma2)))
    assert defect == 0.0, f"electroneutral construction should be exact, defect={defect}"
    # gamma2 = -z1 gamma1 / z2 = 2 gamma1 here
    assert np.allclose(bdata.gamma2, 2.0 * gamma1)
    with pytest.raises(ValueError):
        BoundaryData(gamma1=-gamma1, gamma2=gamma1, w=np.zeros((2, g.nx)))


def test_grid_validation():
    with pytest.raises(ValueError):
        ChannelGrid(d=1, nx=4, ny=33)
    with pytest.raises(ValueError):
        ChannelGrid(d=2, nx=12, ny=33)
    with pytest.raises(ValueError):
        ChannelGrid(d=2, nx=16, ny=4)
    g = grid1d(33)
    assert np.isclose(g.hy, 1.0 / 32.0)
    assert g.y[0] == 0.0 and g.y[-1] == 1.0


@pytest.mark.parametrize("nx", [1, 4, 32])
def test_wavenumbers_are_built_once_and_leave_the_grid_alone(nx):
    # kx and kx_first are shared read-only arrays with rfftfreq's values;
    # reading them changes neither the grid's pickle nor its hash
    g = ChannelGrid(d=1 if nx == 1 else 2, nx=nx, ny=17)
    before = pickle.dumps(g)
    kx = 2.0 * np.pi * np.fft.rfftfreq(nx, d=g.hx)
    first = kx.copy()
    if nx > 1:
        first[-1] = 0.0
    assert g.kx.tobytes() == kx.tobytes() and g.kx_first.tobytes() == first.tobytes()
    assert g.kx is g.kx and g.kx_first is ChannelGrid(g.d, nx, 33).kx_first
    assert not g.kx.flags.writeable and not g.kx_first.flags.writeable
    assert pickle.dumps(g) == before
    twin = pickle.loads(before)
    assert twin == g and hash(twin) == hash(g) == hash((g.d, g.nx, g.ny))


# ---------------------------------------------------------------------------
# derivatives


def test_ddy_exact_on_quadratics():
    g = grid1d(21)
    y = g.yy
    f = 3.0 * y ** 2 - 2.0 * y + 1.0
    df = ddy(g, f)
    expected = 6.0 * y - 2.0
    assert np.allclose(df, expected, atol=1e-12), (
        f"one-sided and centred stencils must be exact on quadratics, "
        f"max err {np.max(np.abs(df - expected)):.2e}"
    )


def test_d2dy2_exact_on_cubics():
    g = grid1d(21)
    y = g.yy
    f = y ** 3 - y ** 2
    d2f = d2dy2(g, f)
    assert np.allclose(d2f, 6.0 * y - 2.0, atol=1e-10)


def test_spectral_x_derivatives():
    g = grid2d(nx=32, ny=17)
    f = np.sin(2 * np.pi * 3 * g.x[:, None]) * (1.0 + g.yy)
    lap = laplacian(g, f)
    # pure-x mode: spectral part exact, y part exact on linear factor
    expected = -(2 * np.pi * 3) ** 2 * f
    assert np.allclose(lap, expected, atol=1e-9), f"max err {np.max(np.abs(lap - expected)):.2e}"


def test_translation_invariance_in_x():
    g = grid2d(nx=16, ny=17)
    f = RNG.standard_normal(g.shape)
    for op in (laplacian, lambda gr, a: grad(gr, a)[0], lambda gr, a: grad(gr, a)[1]):
        shifted_then_op = op(g, np.roll(f, 1, axis=0))
        op_then_shifted = np.roll(op(g, f), 1, axis=0)
        assert np.allclose(shifted_then_op, op_then_shifted, atol=1e-11)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_laplacian_negative_on_dirichlet_fields(seed):
    # <Lap f, f> <= 0 for fields vanishing at the walls (trapezoid pairing)
    rng = np.random.default_rng(seed)
    g = grid2d(nx=8, ny=12)
    f = rng.standard_normal(g.shape)
    f[:, 0] = 0.0
    f[:, -1] = 0.0
    inner = np.zeros_like(f)
    inner[:, 1:-1] = interior_laplacian_action(g, f)
    val = integrate(g, inner * f)
    assert val <= 1e-12, f"discrete Laplacian must be negative semi-definite, got <Lf,f>={val:.3e}"


# ---------------------------------------------------------------------------
# quadrature and norms


def test_quad_weights_measure():
    for g in (grid1d(17), grid2d(8, 21)):
        total = float(np.sum(quad_weights(g)))
        assert np.isclose(total, 1.0, atol=1e-14), f"weights must sum to |domain|=1, got {total}"
        # computed once per grid and shared, so callers cannot write to it
        w = quad_weights(g)
        assert quad_weights(ChannelGrid(d=g.d, nx=g.nx, ny=g.ny)) is w
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


def test_l2_of_sine_profile():
    # trapezoid integrates sin^2(pi y) exactly at machine precision for
    # every uniform grid, since the cos(2 pi y) remainder aliases to zero
    for ny in (9, 33, 129, 1025):
        g = grid1d(ny)
        val = norm_l2(g, np.sin(np.pi * g.yy))
        assert np.isclose(val, 1.0 / np.sqrt(2.0), atol=1e-13), f"ny={ny}: l2={val!r}"


def test_norms_zero_field():
    g = grid2d()
    n = [norm(g, g.zeros()) for norm in (norm_l2, norm_h1_semi, norm_h2, norm_linf)]
    assert n == [0.0] * 4, f"zero field must have zero norms, got {n}"


def test_norms_velocity_field():
    # the L^2 norm of a velocity sums its components' squared norms
    g = grid2d(8, 17)
    u = VelocityField(g, [np.full(g.shape, 3.0), np.full(g.shape, 4.0)])
    assert np.isclose(_velocity_l2(g, u), 5.0, atol=1e-12)
    assert max(norm_linf(g, c) for c in u.components) == 4.0


def _velocity_l2(g, u):
    return float(np.sqrt(sum(norm_l2(g, c) ** 2 for c in u.components)))


@pytest.mark.parametrize("g", [grid1d(65), grid2d(8, 17)], ids=["d1", "d2"])
@pytest.mark.parametrize("norm", [norm_l2, norm_h1_semi, norm_h2])
def test_stacked_norms_match_per_slice_calls(g, norm):
    # a block of fields stacked along leading axes gives one value per
    # slice, each bitwise the value of the slice's own call
    stack = RNG.standard_normal((2, 3) + g.shape)
    one = norm(g, stack[1, 2])
    assert type(one) is float
    values = norm(g, stack)
    assert values.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert values[idx] == norm(g, stack[idx]), idx
    assert values[1, 2] == one
    assert norm(g, stack[:1, :1]).tolist() == [[norm(g, stack[0, 0])]]


@pytest.mark.parametrize("g", [grid1d(65), grid2d(8, 17)], ids=["d1", "d2"])
def test_paired_norms_give_the_h1_seminorm_bitwise(g):
    stack = RNG.standard_normal((3,) + g.shape)
    h1, _ = norms_h1_semi_h2(g, stack)
    assert h1.tolist() == norm_h1_semi(g, stack).tolist()
    assert norms_h1_semi_h2(g, stack[0])[0] == norm_h1_semi(g, stack[0])


def test_h2_norm_takes_the_mixed_derivative_from_the_gradient():
    # the mixed derivative is ddy of grad's x derivative; transforming f
    # again gives the same bytes
    g = grid2d(8, 17)
    f = RNG.standard_normal((3,) + g.shape)
    ref = integrate(g, f * f)
    for df in grad(g, f):
        ref = ref + integrate(g, df * df)
    fyy, fxx, fxy = d2dy2(g, f), d2dx2(g, f), ddy(g, ddx(g, f))
    ref = ref + integrate(g, fyy * fyy) + (integrate(g, fxx * fxx) + 2.0 * integrate(g, fxy * fxy))
    assert norms_h1_semi_h2(g, f)[1].tobytes() == np.sqrt(ref).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    g = grid1d(17)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    lhs = norm_l2(g, f + h)
    rhs = norm_l2(g, f) + norm_l2(g, h)
    assert lhs <= rhs + 1e-12, f"triangle inequality violated: {lhs} > {rhs}"


# ---------------------------------------------------------------------------
# harmonic extension


def test_harmonic_extension_constant():
    g = grid2d()
    f = harmonic_extension(g, np.ones((2, g.nx)))
    assert np.allclose(f, 1.0, atol=1e-13)


def test_harmonic_extension_linear():
    g = grid1d(33)
    f = harmonic_extension(g, np.array([[0.0], [1.0]]))
    assert np.allclose(f, g.yy, atol=1e-12), "x-independent data must extend linearly"


def test_harmonic_extension_against_dense_solve():
    g = grid2d(nx=8, ny=10)
    bc0 = np.cos(2 * np.pi * g.x)
    bc1 = np.zeros(g.nx)
    f = harmonic_extension(g, np.vstack([bc0, bc1]))
    ref = dense_dirichlet_poisson(g, g.zeros(), bc0, bc1)
    err = np.max(np.abs(f - ref))
    assert err <= 1e-12, f"per-mode and dense routes disagree by {err:.2e}"


def test_harmonic_extension_electroneutral_linearity():
    p = Params(z1=2.0, z2=-1.0, D1=2.0, D2=1.0, nu=1.0, eps=0.1)
    g = grid2d(nx=16, ny=21)
    gamma1 = np.vstack([2.0 + 0.3 * np.sin(2 * np.pi * g.x), 1.0 + 0.1 * np.cos(2 * np.pi * g.x)])
    bdata = BoundaryData.electroneutral(gamma1, w=np.zeros((2, g.nx)), params=p)
    big_gamma1 = harmonic_extension(g, bdata.gamma1)
    big_gamma2 = harmonic_extension(g, bdata.gamma2)
    defect = np.max(np.abs(p.z1 * big_gamma1 + p.z2 * big_gamma2))
    assert defect <= 1e-12, f"extension must preserve zero net charge, defect={defect:.2e}"


# ---------------------------------------------------------------------------
# poisson solver


def test_poisson_homogeneous():
    g = grid2d()
    f = solve_poisson(g, g.zeros())
    assert np.allclose(f, 0.0, atol=1e-14)


def test_poisson_eigenfunction_and_dense_oracle():
    g = grid2d(nx=8, ny=10)
    rhs = np.sin(2 * np.pi * g.x[:, None]) * np.sin(np.pi * g.yy)
    f = solve_poisson(g, rhs)
    ref = dense_dirichlet_poisson(g, rhs, np.zeros(g.nx), np.zeros(g.nx))
    err = np.max(np.abs(f - ref))
    assert err <= 1e-12, f"banded vs dense route mismatch {err:.2e}"
    # continuum eigenfunction check, second order in hy
    exact = rhs / (4 * np.pi ** 2 + np.pi ** 2)
    assert np.max(np.abs(f - exact)) < 0.5 * g.hy ** 2 * np.pi ** 2 * np.max(np.abs(exact)) + 1e-4


def test_poisson_second_order_convergence():
    errs = []
    for ny in (17, 33, 65, 129):
        g = grid1d(ny)
        rhs = np.pi ** 2 * np.sin(np.pi * g.yy)
        f = solve_poisson(g, rhs)
        errs.append(np.max(np.abs(f - np.sin(np.pi * g.yy))))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(r > 1.9 for r in rates), f"expected second-order convergence, rates={rates}"


def test_poisson_coeff_linearity():
    g = grid1d(33)
    rhs = np.sin(np.pi * g.yy)
    eps = 2.0 ** -5
    f1 = solve_poisson(g, rhs, coeff=1.0)
    feps = solve_poisson(g, rhs, coeff=eps ** 2)
    assert np.allclose(feps, f1 / eps ** 2, rtol=1e-13), "coeff scaling must be exact linearity"
    with pytest.raises(ValueError):
        solve_poisson(g, rhs, coeff=0.0)


def test_poisson_inverts_laplacian():
    # solve(-Lap f) returns f for homogeneous-Dirichlet fields
    g = grid2d(nx=8, ny=12)
    f = RNG.standard_normal(g.shape)
    f[:, 0] = 0.0
    f[:, -1] = 0.0
    rhs = g.zeros()
    rhs[:, 1:-1] = -interior_laplacian_action(g, f)
    back = solve_poisson(g, rhs)
    err = np.max(np.abs(back - f))
    assert err <= 1e-10, f"solve o (-Lap) must be identity, err={err:.2e}"


def test_shifted_poisson_matches_per_mode_oracle():
    # the stacked tridiagonal does each mode's arithmetic; d = 1 is bitwise
    for g, rtol in ((grid1d(65), 0.0), (grid2d(8, 17), 1e-14)):
        for alpha in (0.0, 1.0, 250.0):
            for bc in (None, np.full((2, g.nx), 0.7), _walls(g, 0.3, -1.2), RNG.standard_normal((2, g.nx))):
                f = RNG.standard_normal(g.shape)
                u = solve_shifted_poisson(g, alpha, f, bc)
                ref = per_mode_shifted_poisson(g, alpha, f, bc)
                err = np.max(np.abs(u - ref))
                assert err <= rtol * np.max(np.abs(ref)), f"d={g.d} alpha={alpha} bc={bc}: err={err:.2e}"


def test_shifted_poisson_cached_factors_are_not_shared_out():
    # the factors are cached per (grid, alpha) and read-only; a caller that
    # overwrites its solution must not change the next solve
    g = grid2d(8, 17)
    f = RNG.standard_normal(g.shape)
    first = solve_shifted_poisson(g, 2.0, f, np.ones((2, g.nx)))
    expected = first.copy()
    first[:] = 1e300
    assert np.array_equal(solve_shifted_poisson(g, 2.0, f, np.ones((2, g.nx))), expected)
    for a in elliptic._shifted_poisson_factors(g, 2.0):
        assert not a.flags.writeable


def test_shifted_poisson_d1_path_leaves_input_and_factors_alone():
    # d = 1 skips the transforms: it must still leave f untouched, hand out
    # a fresh array, and give the transform path's bytes, zero signs included
    g = grid1d(33)
    f = RNG.standard_normal(g.shape)
    f_before = f.copy()
    u = solve_shifted_poisson(g, 2.0, f, _walls(g, 0.4, -1.1))
    assert f.tobytes() == f_before.tobytes()
    factors = elliptic._shifted_poisson_factors(g, 2.0)
    assert not any(np.shares_memory(u, a) for a in (f, *factors))
    expected = u.copy()
    u[:] = 1e300
    assert np.array_equal(solve_shifted_poisson(g, 2.0, f, _walls(g, 0.4, -1.1)), expected)
    for fill, bc in ((-0.0, _walls(g, -0.0, -0.0)), (0.0, _walls(g, -0.0, -0.0)), (-0.0, None)):
        f = np.full(g.shape, fill)
        ref = per_mode_shifted_poisson(g, 2.0, f, bc)
        assert solve_shifted_poisson(g, 2.0, f, bc).tobytes() == ref.tobytes(), (fill, bc)


def test_shifted_poisson_rejects_negative_shift():
    g = grid1d(17)
    with pytest.raises(ValueError):
        solve_shifted_poisson(g, -1.0, g.zeros())


@pytest.mark.parametrize("bc", [1.0, (0.0, 1.0)], ids=["scalar", "pair"])
def test_wall_values_must_be_two_traces(bc):
    # wall data reaches a solve only as (2, nx) traces; a scalar or a
    # (lower, upper) pair is refused, naming the shape it had
    g = grid2d(8, 17)
    shape = str(np.shape(bc))
    with pytest.raises(ValueError, match=r"\(2, nx\).*" + re.escape(shape)):
        harmonic_extension(g, bc)
    with pytest.raises(ValueError, match=r"\(2, nx\).*" + re.escape(shape)):
        solve_shifted_poisson(g, 1.0, g.zeros(), bc)


# ---------------------------------------------------------------------------
# variable-coefficient divergence form


def test_div_form_constant_coeff_matches_poisson():
    g = grid1d(65)
    rhs = -np.pi ** 2 * np.sin(np.pi * g.yy)
    u = solve_div_form(g, np.ones(g.shape), rhs)
    ref = solve_poisson(g, -rhs)
    assert np.allclose(u, ref, atol=1e-11)


def test_div_form_discrete_residual():
    for g in (grid1d(41), grid2d(8, 17)):
        a = 1.5 + 0.5 * np.sin(np.pi * g.yy) + (0.2 * np.cos(2 * np.pi * g.x[:, None]) if g.d == 2 else 0.0)
        rhs = np.cos(np.pi * g.yy) * (1.0 + (0.3 * np.sin(2 * np.pi * g.x[:, None]) if g.d == 2 else 0.0))
        u = solve_div_form(g, a, rhs)
        res = div_a_grad(g, a, u) - rhs
        err = np.max(np.abs(res[:, 1:-1]))
        assert err <= 1e-10, f"d={g.d}: interior residual {err:.2e} exceeds direct-solve budget"
        assert not np.any(u[:, 0]) and not np.any(u[:, -1])


def test_div_form_mms_quadratic():
    # manufactured u = y(1-y), a = 1+y: div(a u') = d/dy[(1+y)(1-2y)] = -1 - 4y;
    # the half-node scheme is nodally exact on this pair (quadratic flux)
    g = grid1d(81)
    y = g.yy
    a = 1.0 + y
    rhs = -1.0 - 4.0 * y
    u = solve_div_form(g, a, rhs)
    exact = y * (1.0 - y)
    err = np.max(np.abs(u - exact))
    assert err <= 1e-12, f"quadratic MMS error {err:.2e}"


def test_div_a_grad_matrix_is_div_a_grad():
    rng = np.random.default_rng(11)
    for g in (grid1d(17), grid2d(8, 12)):
        a = 1.0 + rng.random(g.shape)
        f = rng.standard_normal(g.shape)
        assembled = (div_a_grad_matrix(g, a) @ f.ravel()).reshape(g.shape)
        assert np.allclose(assembled, div_a_grad(g, a, f), rtol=1e-12, atol=1e-9)


def test_div_form_matches_dense_solve():
    g = grid2d(8, 12)
    rng = np.random.default_rng(12)
    a = 1.0 + rng.random(g.shape)
    rhs = rng.standard_normal(g.shape)
    u = solve_div_form(g, a, rhs)
    ref = dense_div_form(g, a, rhs, np.zeros(g.nx), np.zeros(g.nx))
    err = np.max(np.abs(u - ref)) / np.max(np.abs(ref))
    assert err <= 1e-12, f"sparse div-form solve differs from the dense one by {err:.2e}"


@pytest.mark.parametrize("nx, ny", [(4, 8), (8, 12), (16, 33)])
@pytest.mark.parametrize("contrast", [1.0, 1e3])
def test_div_form_band_solve_matches_dense(nx, ny, contrast):
    # nx = 4 is the smallest grid on which the band's x-neighbour (1),
    # periodic-wrap (nx-1) and y-neighbour (nx) offsets are all distinct
    g = grid2d(nx, ny)
    rng = np.random.default_rng(nx)
    a = contrast ** rng.random(g.shape)
    rhs = rng.standard_normal(g.shape)
    u = solve_div_form(g, a, rhs)
    ref = dense_div_form(g, a, rhs, np.zeros(nx), np.zeros(nx))
    err = np.max(np.abs(u - ref)) / np.max(np.abs(ref))
    assert err <= 1e-13, f"nx={nx}, contrast {contrast:g}: band solve differs from the dense one by {err:.2e}"
    assert not np.any(u[:, 0]) and not np.any(u[:, -1])


def test_div_form_rejects_degenerate_coeff():
    g = grid1d(17)
    with pytest.raises(ValueError):
        solve_div_form(g, np.zeros(g.shape), g.zeros())


# ---------------------------------------------------------------------------
# divergence-free projection


def _random_noslip_velocity(g, rng):
    comps = []
    for _ in range(g.d):
        c = rng.standard_normal(g.shape)
        c[:, 0] = 0.0
        c[:, -1] = 0.0
        comps.append(c)
    return VelocityField(g, comps)


def test_projection_divergence_and_energy():
    g = grid2d(nx=16, ny=21)
    u = _random_noslip_velocity(g, RNG)
    pu = project_div_free(g, u)
    div = divergence(g, pu)
    # the discrete constraint lives on interior nodes; walls are pinned
    err = np.max(np.abs(div[:, 1:-1]))
    assert err <= 1e-10, f"projected divergence {err:.2e}"
    e_in = _velocity_l2(g, u)
    e_out = _velocity_l2(g, pu)
    assert e_out <= e_in + 1e-12, f"projection must not increase energy: {e_out} > {e_in}"


def test_projection_idempotent():
    g = grid2d(nx=8, ny=20)
    u = _random_noslip_velocity(g, RNG)
    pu = project_div_free(g, u)
    ppu = project_div_free(g, pu)
    err = max(np.max(np.abs(a - b)) for a, b in zip(pu.components, ppu.components))
    assert err <= 1e-10, f"projection not idempotent, drift {err:.2e}"


def test_projection_removes_discrete_gradient():
    g = grid2d(nx=16, ny=21)
    q = np.cos(2 * np.pi * g.x[:, None]) * np.sin(np.pi * g.yy) ** 2
    # build the gradient with the projector's own interior stencils
    qh = np.fft.rfft(q, axis=0)
    ux_h = 1j * g.kx_first[:, None] * qh
    ux = np.fft.irfft(ux_h, n=g.nx, axis=0)
    uy = np.zeros_like(q)
    uy[:, 1:-1] = (q[:, 2:] - q[:, :-2]) / (2 * g.hy)
    ux[:, 0] = ux[:, -1] = 0.0
    u = VelocityField(g, [ux, uy])
    pu = project_div_free(g, u)
    err = max(np.max(np.abs(c)) for c in pu.components)
    assert err <= 1e-9, f"pure interior gradient should project to zero, got {err:.2e}"


@pytest.mark.parametrize("ny", [12, 13])
def test_projection_matches_dense_lstsq(ny):
    # even nx, so the Nyquist mode is a kappa = 0 mode; odd m = ny - 2
    # makes both kappa = 0 normal matrices singular
    g = grid2d(nx=8, ny=ny)
    rng = np.random.default_rng(ny)
    u = VelocityField(g, [rng.standard_normal(g.shape) for _ in range(2)])
    pu = project_div_free(g, u)
    ref = dense_projection(g, u)
    err = max(np.max(np.abs(a - b)) for a, b in zip(pu.components, ref))
    assert err <= 1e-10, f"banded projection differs from dense lstsq by {err:.2e}"


@pytest.mark.parametrize("ny", [12, 13, 129])
def test_cached_projection_matches_a_fresh_band_solve(ny):
    # the band factors are cached per grid and read-only; every call must
    # give the bytes of assembling and solving the band from scratch
    g = grid2d(nx=8 if ny < 100 else 32, ny=ny)
    rng = np.random.default_rng(ny)
    for _ in range(2):
        u = VelocityField(g, [rng.standard_normal(g.shape) for _ in range(2)])
        pu = project_div_free(g, u)
        for mine, ref in zip(pu.components, solve_banded_projection(g, u)):
            assert mine.tobytes() == ref.tobytes()
    factors = elliptic._projection_factors(g)
    assert elliptic._projection_factors(g) is factors
    normal, pinned = factors
    assert not any(a.flags.writeable for a in (normal.ab, normal.lu, normal.piv, pinned))


def test_projection_d1_is_zero():
    g = grid1d(33)
    w = np.sin(np.pi * g.yy)
    pu = project_div_free(g, VelocityField(g, [w]))
    assert np.all(pu.components[0] == 0.0), "d=1 no-slip divergence-free velocity is zero"


@pytest.mark.parametrize("shape", [(1, 257), (1, 2048), (8, 17), (32, 129)])
def test_operators_act_on_every_stacked_slice(shape):
    # fields stacked along leading axes give each slice's own bytes, and
    # integrate keeps returning a float for a single field
    nx, ny = shape
    g = ChannelGrid(d=1 if nx == 1 else 2, nx=nx, ny=ny)
    rng = np.random.default_rng(nx * ny)
    stack = rng.standard_normal((2, 3, nx, ny))
    for op in (ddx, d2dx2, ddy, d2dy2, laplacian):
        out = op(g, stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert out[idx].tobytes() == op(g, stack[idx]).tobytes(), (op.__name__, idx)
    for k, df in enumerate(grad(g, stack)):
        for idx in np.ndindex(2, 3):
            assert df[idx].tobytes() == grad(g, stack[idx])[k].tobytes()
    f = stack * stack
    total = integrate(g, f)
    assert total.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = integrate(g, f[idx])
        assert type(single) is float and single == total[idx]


# ---------------------------------------------------------------------------
# banded helper


def band_storage(n: int, diags: dict[int, np.ndarray]) -> tuple[np.ndarray, int]:
    """LAPACK band storage ab and l of the diagonals diags, offset -> values.

    Offset +k is the k-th superdiagonal, given at its length n - |k|;
    entry (i, j) lands at ab[u + i - j, j].
    """
    l = max(-min(diags), 0)
    u = max(max(diags), 0)
    ab = np.zeros((l + u + 1, n))
    for k, diag in diags.items():
        ab[u - k, max(k, 0) : n + min(k, 0)] = diag
    return ab, l


def test_banded_matrix_roundtrip():
    n = 12
    diags = {
        0: RNG.standard_normal(n) + 5.0,
        1: RNG.standard_normal(n - 1),
        -1: RNG.standard_normal(n - 1),
        2: RNG.standard_normal(n - 2),
    }
    B = BandedMatrix(*band_storage(n, diags))
    x = RNG.standard_normal(n)
    y = B.matvec(x)
    dense = banded_to_sparse(B).toarray()
    assert np.allclose(dense @ x, y, atol=1e-12)
    back = B.solve(y)
    assert np.allclose(back, x, atol=1e-9), f"solve(matvec(x)) != x, err={np.max(np.abs(back - x)):.2e}"


def test_banded_matrix_matches_scipy_bitwise():
    # matvec sums in dia_matrix order and solve runs the same LAPACK
    # routines as solve_banded; (l, u) = (1, 1) is avoided because
    # solve_banded sends it to a tridiagonal routine instead
    n = 40
    for offsets, shift in (((-3, -1, 0, 2, 5), 8.0), ((-2, 0, 1), 0.0)):
        diags = {k: RNG.standard_normal(n)[: n - abs(k)] for k in offsets}
        diags[0] += shift  # no shift: the LU pivots
        B = BandedMatrix(*band_storage(n, diags))
        ab = B.ab.copy()
        x = RNG.standard_normal(n)
        assert np.array_equal(B.matvec(x), banded_to_sparse(B) @ x)
        first = B.solve(x)
        assert np.array_equal(first, scipy.linalg.solve_banded((B.l, B.u), ab, x))
        assert np.array_equal(B.ab, ab), "solve must leave ab untouched"
        assert np.array_equal(B.solve(x), first), "a repeated solve must not see the last LU"
        with pytest.raises(ValueError):
            B.solve(np.ones(n + 1))


def test_factored_banded_matrix_reuses_its_lu_bitwise():
    # one factorization serves a 1-d and an (n, 2) right side, each
    # bitwise equal to solve_banded's, and a repeated solve on the same
    # LU gives the same bytes; ab is left intact
    n = 40
    diags = {k: RNG.standard_normal(n)[: n - abs(k)] for k in (-2, 0, 1, 3)}
    B = BandedMatrix(*band_storage(n, diags))
    ab = B.ab.copy()
    assert B.factor() is B
    for rhs in (RNG.standard_normal(n), RNG.standard_normal((n, 2))):
        x = B.lu_solve(rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, scipy.linalg.solve_banded((B.l, B.u), ab, rhs))
        assert B.lu_solve(rhs).tobytes() == x.tobytes()
    assert np.array_equal(B.ab, ab)
    with pytest.raises(ValueError):
        B.lu_solve(np.ones((n - 1, 2)))


def test_singular_band_raises_linalg_error():
    # a zero column makes the band singular, for the factor-once path and
    # for the refactoring solve alike
    n = 12
    diags = {0: np.full(n, 2.0), -1: np.ones(n - 1), 2: np.ones(n - 2)}
    diags[0][5] = diags[-1][4] = diags[-1][5] = diags[2][3] = 0.0
    B = BandedMatrix(*band_storage(n, diags))
    with pytest.raises(np.linalg.LinAlgError):
        B.factor()
    with pytest.raises(np.linalg.LinAlgError):
        B.solve(np.ones(n))


# ---------------------------------------------------------------------------
# bindings of scipy's compiled modules (LAPACK, CSR kernels); each case
# runs in a fresh interpreter, since a binding is made when its module
# (debyeflow.operators, debyeflow.coupled2d) is first imported

LAPACK_NAMES = ("dgbtrf", "dgbtrs", "dgttrf", "dgttrs", "dgtsv", "dpbtrf", "dpbtrs", "dlartg")

# one perturbed d = 1 coupled step; out["step"] is the digest of its fields
STEP_DIGEST = """
import hashlib
from debyeflow import BoundaryData, ChannelGrid, Params, VelocityField
from debyeflow.npns import NpnsConfig, step_npns, well_prepared_init
p = Params(z1=1.0, z2=-1.0, D1=1.0, D2=0.5, nu=1.0, eps=0.125)
g = ChannelGrid(d=1, nx=1, ny=65)
bdata = BoundaryData.electroneutral(np.full((2, 1), 2.0), w=np.array([[0.0], [0.3]]), params=p)
cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=1e-3, t_end=1e-3)
s = step_npns(well_prepared_init(g, 2.0 + 0.1 * np.sin(np.pi * g.yy), VelocityField.zero(g), cfg), cfg)
out["step"] = hashlib.sha256(b"".join(f.tobytes() for f in (s.c1, s.c2, s.psi))).hexdigest()
"""

# one perturbed 4x9 d = 2 coupled step, which runs GMRES on the CSR
# kernel; out["step_2d"] is the digest of its fields and velocity
STEP_DIGEST_2D = """
import hashlib
from debyeflow import BoundaryData, ChannelGrid, Params, VelocityField
from debyeflow.npns import NpnsConfig, step_npns, well_prepared_init
p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=0.5, eps=0.25)
g = ChannelGrid(d=2, nx=4, ny=9)
gamma1 = np.vstack([2.0 + 0.2 * np.cos(2 * np.pi * g.x), np.full(g.nx, 2.0)])
w = np.vstack([0.1 * np.sin(2 * np.pi * g.x), np.zeros(g.nx)])
bdata = BoundaryData.electroneutral(gamma1, w=w, params=p)
cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=1e-3, t_end=1e-3)
c1 = gamma1[0][:, None] * (1.0 - g.yy) + 2.0 * g.yy + 0.1 * np.sin(np.pi * g.yy) * np.cos(2 * np.pi * g.x[:, None])
s = step_npns(well_prepared_init(g, c1, VelocityField.zero(g), cfg), cfg)
fields = (s.c1, s.c2, s.psi, *s.u.components)
out["step_2d"] = hashlib.sha256(b"".join(f.tobytes() for f in fields)).hexdigest()
"""


def _fresh_python(*scripts: str) -> dict:
    """Run the scripts in order in a new interpreter on this source tree;
    they fill the dict out, printed as JSON."""
    src = str(Path(operators.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import json, sys\nimport numpy as np\nout = {}\n" + "".join(map(textwrap.dedent, scripts)) + "\nprint(json.dumps(out))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_lapack_binding_is_the_wrapper_scipy_linalg_imports_later():
    out = _fresh_python(f"""
        from debyeflow import elliptic, operators
        out["module"] = operators.lapack.__name__
        out["linalg_before"] = "scipy.linalg" in sys.modules
        from debyeflow import coupled2d
        out["shared"] = elliptic.lapack is operators.lapack and coupled2d.lapack is operators.lapack
        import scipy.linalg
        import scipy.linalg.lapack
        out["same"] = [getattr(scipy.linalg.lapack, n) is getattr(operators.lapack, n) for n in {LAPACK_NAMES!r}]
        rng = np.random.default_rng(3)
        ab = rng.standard_normal((6, 30))
        ab[3] += 8.0
        x = rng.standard_normal(30)
        B = operators.BandedMatrix(ab, 3)
        out["solve_banded"] = bool(np.array_equal(scipy.linalg.solve_banded((3, 2), B.ab, x), B.solve(x)))
    """)
    assert out["module"] == "scipy.linalg._flapack"
    assert out["linalg_before"] is False
    assert out["shared"] is True
    assert out["same"] == [True] * len(LAPACK_NAMES)
    assert out["solve_banded"] is True


def test_lapack_binding_reuses_an_imported_scipy_linalg():
    out = _fresh_python("""
        import scipy.linalg
        from debyeflow import operators
        out["reused"] = operators.lapack is sys.modules["scipy.linalg._flapack"]
        out["again"] = operators._load_compiled("scipy.linalg._flapack", "scipy.linalg.lapack") is operators.lapack
    """)
    assert out == {"reused": True, "again": True}


def test_lapack_binding_falls_back_to_scipy_linalg_lapack(tmp_path):
    # the scipy directory the lookup sees is empty, so the extension file
    # is not found; the fallback binds the same functions and a step's
    # bytes do not change
    fallback = _fresh_python(f"""
        import importlib.util, types
        find_spec = importlib.util.find_spec
        importlib.util.find_spec = lambda name, *args: (
            types.SimpleNamespace(submodule_search_locations=[{str(tmp_path)!r}])
            if name == "scipy" else find_spec(name, *args))
        from debyeflow import elliptic, operators
        importlib.util.find_spec = find_spec
        from debyeflow import coupled2d
        import scipy.linalg.lapack
        out["fallback"] = all(m.lapack is scipy.linalg.lapack for m in (operators, elliptic, coupled2d))
    """, STEP_DIGEST)
    loaded = {}
    exec(STEP_DIGEST, {"np": np, "out": loaded})
    assert fallback["fallback"] is True
    assert operators.lapack.__name__ == "scipy.linalg._flapack"
    assert fallback["step"] == loaded["step"]


def test_one_loader_binds_lapack_and_the_csr_kernels():
    # debyeflow first: the d = 2 solver loads the two compiled modules and
    # nothing else from scipy; a later scipy.sparse takes the bound CSR
    # kernels, and its products still work
    out = _fresh_python("""
        from debyeflow import coupled2d, operators
        out["bound"] = [operators.lapack.__name__, coupled2d.sparsetools.__name__]
        out["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        import scipy.sparse
        import scipy.sparse._compressed
        out["shared"] = scipy.sparse._compressed._sparsetools is coupled2d.sparsetools
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.4)
        x = rng.standard_normal(9)
        out["product"] = bool(np.allclose(scipy.sparse.csr_matrix(dense) @ x, dense @ x, rtol=1e-14, atol=1e-14))
    """)
    assert out["bound"] == ["scipy.linalg._flapack", "scipy.sparse._sparsetools"]
    assert out["scipy"] == ["scipy.linalg._flapack", "scipy.sparse._sparsetools"]
    assert out["shared"] is True
    assert out["product"] is True


def test_csr_kernel_binding_reuses_an_imported_scipy_sparse():
    out = _fresh_python("""
        import scipy.sparse
        from debyeflow import coupled2d, operators
        out["reused"] = coupled2d.sparsetools is sys.modules["scipy.sparse._sparsetools"]
        name = "scipy.sparse._sparsetools"
        out["again"] = operators._load_compiled(name, name) is coupled2d.sparsetools
    """)
    assert out == {"reused": True, "again": True}


def test_csr_kernel_binding_falls_back_to_scipy_sparse(tmp_path):
    # the scipy directory the lookup sees is empty, so neither extension
    # file is found; the fallback imports scipy.sparse._sparsetools with
    # its package, and a d = 2 step's bytes do not change
    fallback = _fresh_python(f"""
        import importlib.util, types
        find_spec = importlib.util.find_spec
        importlib.util.find_spec = lambda name, *args: (
            types.SimpleNamespace(submodule_search_locations=[{str(tmp_path)!r}])
            if name == "scipy" else find_spec(name, *args))
        from debyeflow import coupled2d
        importlib.util.find_spec = find_spec
        out["package"] = "scipy.sparse" in sys.modules
        out["fallback"] = coupled2d.sparsetools is sys.modules["scipy.sparse._sparsetools"]
    """, STEP_DIGEST_2D)
    loaded = {}
    exec(STEP_DIGEST_2D, {"np": np, "out": loaded})
    assert fallback["package"] is True
    assert fallback["fallback"] is True
    assert fallback["step_2d"] == loaded["step_2d"]
