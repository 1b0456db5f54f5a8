"""Wall, initial, and corner layers, and the one composite approximation.

Near each wall the charge screens over a width eps, with a profile that
is a pure exponential in the stretched coordinate and therefore
available in closed form.  After a quenched start the whole channel
relaxes on the fast time t / eps^2, governed by a linear drift equation
for the excess charge coupled to its own potential.  Where wall and
initial effects meet, a corner region obeys a half-line diffusion
system in stretched space and fast time.  This module builds all three
objects.  The corner system's two species, node by node, form one
operators.BandedMatrix, as the d = 1 coupled step's do.

The composite approximation (composite) is the leading-order limit
solution plus the closed-form wall layers at second order in eps.
There are no higher inner orders and no other composite.  The
difference between a resolved state and it is the quantity whose
smallness the rate experiments measure.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .elliptic import solve_div_form, solve_poisson
from .grid import ChannelGrid, State
from .npns import NpnsConfig
from .operators import BandedMatrix, div_a_grad, laplacian
from .params import Params

__all__ = [
    "BoundaryLayerProfile",
    "InitialLayerState",
    "MixedLayerState",
    "smoothstep",
    "cutoff_left",
    "cutoff_right",
    "boundary_layer",
    "wall_layers",
    "composite",
    "solve_initial_layer",
    "clustered_xi_grid",
    "solve_mixed_layer",
]

log = logging.getLogger(__name__)

_WALLS = ("left", "right")


# ---------------------------------------------------------------------------
# cutoffs


def smoothstep(u) -> np.ndarray:
    """Quintic ramp: 0 for u <= 0, 1 for u >= 1, twice differentiable."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u ** 3 * (10.0 + u * (6.0 * u - 15.0))


def cutoff_left(y) -> np.ndarray:
    """Lower-wall cutoff: identically 1 on [0, 1/4] and 0 on [1/2, 1]."""
    y = np.asarray(y, dtype=float)
    return smoothstep((0.5 - y) / 0.25)


def cutoff_right(y) -> np.ndarray:
    """Upper-wall cutoff, the mirror image of :func:`cutoff_left`."""
    return cutoff_left(1.0 - np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# wall screening profiles (closed form)


@dataclass(frozen=True)
class BoundaryLayerProfile:
    """Second-order screening profile attached to one wall.

    Every component is coefficient * exp(-rate * xi) in the stretched
    wall distance xi, so derivatives of any order are analytic: pass
    ``derivative=n`` to multiply by (-rate)^n.

    Attributes
    ----------
    wall : {"left", "right"}
    amplitude : ndarray, shape (nx,)
        Wall trace of the curvature of the zeroth-order potential; this
        single function determines the whole profile.
    rate : ndarray, shape (nx,)
        Inverse screening width sqrt(z1 (z1 - z2) gamma1).
    gamma1 : ndarray, shape (nx,)
        Wall trace of the first species.

    For a block of snapshots (wall_layers on stacked potentials) the
    three arrays have leading axes, (..., nx), and every component is
    evaluated on each (nx,) row, giving (..., nx, len(xi)).
    """

    wall: str
    amplitude: np.ndarray
    rate: np.ndarray
    gamma1: np.ndarray
    z1: float
    z2: float

    def _eval(self, coef: np.ndarray, xi, derivative: int) -> np.ndarray:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = coef[..., None] * np.exp(-self.rate[..., None] * xi)
        if derivative:
            out = out * (-self.rate[..., None]) ** derivative
        return out

    def charge(self, xi, derivative: int = 0) -> np.ndarray:
        return self._eval(self.amplitude, xi, derivative)

    def c1(self, xi, derivative: int = 0) -> np.ndarray:
        return self._eval(self.amplitude / (self.z1 - self.z2), xi, derivative)

    def c2(self, xi, derivative: int = 0) -> np.ndarray:
        return self._eval(-self.amplitude / (self.z1 - self.z2), xi, derivative)

    def phi(self, xi, derivative: int = 0) -> np.ndarray:
        coef = -self.amplitude / (self.z1 * (self.z1 - self.z2) * self.gamma1)
        return self._eval(coef, xi, derivative)


def boundary_layer(wall: str, amplitude, gamma1_trace, p: Params) -> BoundaryLayerProfile:
    """Build the closed-form wall profile from its driving trace.

    Parameters
    ----------
    wall : {"left", "right"}
    amplitude : array_like
        Trace of the curvature of the zeroth-order potential at this
        wall; scalar or shape (nx,).
    gamma1_trace : array_like
        Wall concentration of the first species, strictly positive.
    p : Params

    Returns
    -------
    BoundaryLayerProfile
        With charge = amplitude * exp(-rate xi), the two species at
        +-amplitude / (z1 - z2), and the potential at
        -amplitude / (z1 (z1 - z2) gamma1) times the same exponential.
    """
    if wall not in _WALLS:
        raise ValueError(f"wall must be one of {_WALLS}, got {wall!r}")
    amplitude, g1 = np.broadcast_arrays(
        np.atleast_1d(np.asarray(amplitude, dtype=float)),
        np.atleast_1d(np.asarray(gamma1_trace, dtype=float)),
    )
    if np.any(g1 <= 0.0):
        raise ValueError(f"wall concentration must be positive, got min {g1.min():.6g}")
    rate = np.sqrt(p.z1 * (p.z1 - p.z2) * g1)
    return BoundaryLayerProfile(
        wall=wall,
        amplitude=amplitude.copy(),
        rate=rate,
        gamma1=g1.copy(),
        z1=p.z1,
        z2=p.z2,
    )


def wall_layers(cfg: NpnsConfig, phi0: np.ndarray) -> tuple[BoundaryLayerProfile, BoundaryLayerProfile]:
    """Left and right wall profiles driven by a zeroth-order potential.

    phi0 is the full zeroth-order potential at one instant, limit psi
    plus the wall extension, or a block of instants stacked along
    leading axes.  The driving amplitude is the wall trace of its
    discrete curvature.
    """
    lap = laplacian(cfg.grid, phi0)
    left = boundary_layer("left", lap[..., 0], cfg.bdata.gamma1[0], cfg.params)
    right = boundary_layer("right", lap[..., -1], cfg.bdata.gamma1[1], cfg.params)
    return left, right


def composite(cfg: NpnsConfig):
    """Leading-order limit solution plus the closed-form wall layers, at cfg's eps.

    Returns models(lim) -> (c1, c2) for one limit State or a block of
    them.  The layer amplitudes are slaved to the wall Laplacian of the
    limit potential at the same instant, so this needs no extra
    marching; the wall distances and cutoffs depend on the grid alone
    and are computed here, once.
    """
    g = cfg.grid
    eps = cfg.params.eps
    y = g.y
    xi = y / eps
    eta = (1.0 - y) / eps
    f = cutoff_left(y)[None, :]
    gc = cutoff_right(y)[None, :]
    e2 = eps * eps

    def models(lim: State) -> tuple[np.ndarray, np.ndarray]:
        bl_left, bl_right = wall_layers(cfg, lim.psi + cfg.wall.phiw)
        c1 = lim.c1 + e2 * (f * bl_left.c1(xi) + gc * bl_right.c1(eta))
        c2 = lim.c2 + e2 * (f * bl_left.c2(xi) + gc * bl_right.c2(eta))
        return c1, c2

    return models


# ---------------------------------------------------------------------------
# fast-time relaxation of the excess charge


@dataclass
class InitialLayerState:
    """One snapshot of the fast-time charge relaxation.

    rho is the second-order excess charge and phi its potential, with
    -lap phi = rho and zero wall values.  The species contents follow
    from the charge by fixed diffusivity weights, so they are exposed as
    accessors instead of stored fields.
    """

    tau: float
    rho: np.ndarray
    phi: np.ndarray

    def c1(self, p: Params) -> np.ndarray:
        return p.D1 * self.rho / (p.z1 * p.D1 - p.z2 * p.D2)

    def c2(self, p: Params) -> np.ndarray:
        return -p.D2 * self.rho / (p.z1 * p.D1 - p.z2 * p.D2)


def _slave_wall_charge(grid: ChannelGrid, rho: np.ndarray, phi: np.ndarray) -> None:
    # the wall trace is slaved to the potential through the one-sided
    # poisson identity, as in the continuous problem; marching it on a
    # one-sided flux divergence instead parks the accumulated truncation
    # error on the wall rows, where nothing ever damps it
    lap = laplacian(grid, phi)
    rho[:, 0] = -lap[:, 0]
    rho[:, -1] = -lap[:, -1]


def solve_initial_layer(
    grid: ChannelGrid,
    p: Params,
    c1_base: np.ndarray,
    rho0: np.ndarray,
    tau_grid,
) -> list[InitialLayerState]:
    """March the fast-time charge relaxation by implicit Euler.

    The excess charge obeys d rho / d tau = b div(c1_base grad phi)
    with -lap phi = rho, phi zero at the walls and b = z1 (z1 D1 - z2 D2).
    Eliminating the new charge turns each step into one divergence-form
    solve: -div((1 + dtau b c1_base) grad phi) = rho_old.  The charge
    update reuses the conservative flux divergence in the interior; the
    wall rows are slaved to -lap phi through the one-sided stencil, so
    the trace relaxes together with the field instead of freezing once
    the interior has.

    Parameters
    ----------
    grid : ChannelGrid
    p : Params
    c1_base : ndarray
        Frozen background concentration of the first species (its
        initial value); must be strictly positive or the drift operator
        loses ellipticity.
    rho0 : ndarray
        Charge at the first tau node.
    tau_grid : array_like
        Strictly increasing, nonnegative fast times; the first entry
        carries the initial condition.

    Returns
    -------
    list of InitialLayerState
        One state per tau node, the first holding rho0 itself.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size < 1:
        raise ValueError("tau grid must be a nonempty 1-d array")
    if tau_grid[0] < 0.0 or np.any(np.diff(tau_grid) <= 0.0):
        raise ValueError("tau grid must be nonnegative and strictly increasing")
    c1_base = np.asarray(c1_base, dtype=float)
    rho = np.array(rho0, dtype=float, copy=True)
    if c1_base.shape != grid.shape or rho.shape != grid.shape:
        raise ValueError(f"fields must have grid shape {grid.shape}")
    lam = float(np.min(c1_base))
    if lam <= 0.0:
        raise ValueError(f"background concentration must stay positive, its min is {lam:.6g}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("initial charge must be finite")

    b = p.z1 * (p.z1 * p.D1 - p.z2 * p.D2)
    states = [InitialLayerState(tau=float(tau_grid[0]), rho=rho.copy(), phi=solve_poisson(grid, rho))]
    for n in range(tau_grid.size - 1):
        dtau = float(tau_grid[n + 1] - tau_grid[n])
        phi = solve_div_form(grid, 1.0 + dtau * b * c1_base, -rho)
        rho = rho + dtau * b * div_a_grad(grid, c1_base, phi)
        _slave_wall_charge(grid, rho, phi)
        states.append(InitialLayerState(tau=float(tau_grid[n + 1]), rho=rho.copy(), phi=phi))
    return states


# ---------------------------------------------------------------------------
# corner (mixed) layers on the half line


def clustered_xi_grid(xi_max: float = 40.0, n: int = 800, stretch: float = 4.0) -> np.ndarray:
    """Half-line nodes crowded toward the wall end.

    Exponential image of a uniform parameter: with the default stretch
    the spacing at the origin is roughly stretch / expm1(stretch) times
    the uniform one, while the far end still reaches xi_max where the
    profiles are dead.
    """
    if xi_max <= 0.0 or n < 8:
        raise ValueError("need xi_max > 0 and at least 8 nodes")
    u = np.linspace(0.0, 1.0, n)
    return xi_max * np.expm1(stretch * u) / np.expm1(stretch)


@dataclass
class MixedLayerState:
    """Snapshot of the shifted corner unknowns at one fast time.

    alpha1, alpha2 are the species after subtracting the boundary lift
    a_i(tau) e^{-xi}; they vanish at both ends of the truncated half
    line.  The physical corner species are recovered by adding the lift
    back.
    """

    wall: str
    tau: float
    xi_grid: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    a1: float
    a2: float

    def c1(self) -> np.ndarray:
        return self.alpha1 + self.a1 * np.exp(-self.xi_grid)

    def c2(self) -> np.ndarray:
        return self.alpha2 + self.a2 * np.exp(-self.xi_grid)


def solve_mixed_layer(
    a1,
    a2,
    gamma1: float,
    gamma2: float,
    p: Params,
    xi_grid,
    tau_grid,
    wall: str = "left",
    alpha0=None,
    strict: bool = False,
) -> list[MixedLayerState]:
    """March the corner-layer system in the shifted unknowns.

    Subtracting the lift a_i(tau) e^{-xi} homogenizes the wall value;
    the shifted species alpha_i then satisfy a coupled diffusion system
    with the charge of the pair entering through the frozen corner
    concentrations, forced by (D_i a_i - da_i/dtau - z_i D_i gamma_i r)
    e^{-xi} with r = z1 a1 + z2 a2.  Implicit Euler in tau, the
    three-point nonuniform stencil in xi, both ends pinned to zero.  The
    two species, node by node, make one BandedMatrix, factored once for
    each distinct step length.

    Parameters
    ----------
    a1, a2 : array_like
        Corner traces sampled on tau_grid (minus the relaxation species
        at the wall).
    gamma1, gamma2 : float
        Corner concentrations, strictly positive.
    p : Params
    xi_grid : array_like
        Strictly increasing half-line nodes starting at 0; see
        :func:`clustered_xi_grid`.
    tau_grid : array_like
        Strictly increasing fast times.
    wall : {"left", "right"}
    alpha0 : array_like, optional
        Initial shifted unknowns, concatenated (alpha1, alpha2) of
        shape (2, n); defaults to zero, which corresponds to a pure
        lift a_i(0) e^{-xi} at the initial time.
    strict : bool
        Escalate the truncation warning to an error.

    Returns
    -------
    list of MixedLayerState

    Warns
    -----
    UserWarning
        If more than 1% of the species mass sits in the far tenth of
        the truncated half line at any saved time, the domain is too
        short for the profile; in strict mode this raises instead.
    """
    if wall not in _WALLS:
        raise ValueError(f"wall must be one of {_WALLS}, got {wall!r}")
    if gamma1 <= 0.0 or gamma2 <= 0.0:
        raise ValueError(f"corner concentrations must be positive, got {gamma1}, {gamma2}")
    xi = np.asarray(xi_grid, dtype=float)
    if xi.ndim != 1 or xi.size < 8 or xi[0] != 0.0 or np.any(np.diff(xi) <= 0.0):
        raise ValueError("xi grid must start at 0 and increase strictly, with at least 8 nodes")
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size < 1 or np.any(np.diff(taus) <= 0.0):
        raise ValueError("tau grid must be strictly increasing")
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if a1.shape != taus.shape or a2.shape != taus.shape:
        raise ValueError(f"traces must be sampled on the tau grid, expected shape {taus.shape}")
    n = xi.size
    # the three-point stencil on the nonuniform grid, interior nodes only;
    # second-order on smoothly graded spacings
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    lo = 2.0 / (hm * (hm + hp))
    hi = 2.0 / (hp * (hm + hp))
    decay = np.exp(-xi)
    species = ((p.z1, p.D1, gamma1, a1), (p.z2, p.D2, gamma2, a2))

    if alpha0 is None:
        al = np.zeros((n, 2))
    else:
        alpha0 = np.asarray(alpha0, dtype=float)
        if alpha0.shape != (2, n):
            raise ValueError(f"alpha0 must have shape (2, {n}), got {alpha0.shape}")
        if np.any(alpha0[:, [0, -1]] != 0.0):
            raise ValueError("shifted unknowns must vanish at both ends")
        al = alpha0.T.copy()

    out = [MixedLayerState(wall, float(taus[0]), xi, al[:, 0].copy(), al[:, 1].copy(),
                           float(a1[0]), float(a2[0]))]
    factors: dict[float, BandedMatrix] = {}
    for m in range(taus.size - 1):
        dtau = float(taus[m + 1] - taus[m])
        if dtau not in factors:
            # node-major unknowns [alpha1_j, alpha2_j] make a (2, 2) band:
            # entry (i, k) sits at ab[2 + i - k, k], and ab[:, 2 j + s] is
            # band[:, j, s]
            band = np.zeros((5, n, 2))
            band[2, [0, -1]] = 1.0
            for s, (z, D, gamma, _) in enumerate(species):
                # species s's row holds k (z1 alpha1 + z2 alpha2) at its node
                k = dtau * z * D * gamma
                band[2, 1:-1, s] = 1.0 + dtau * D * (lo + hi) + k * z
                band[4, :-2, s] = -(dtau * D * lo)
                band[0, 2:, s] = -(dtau * D * hi)
                band[1 + 2 * s, 1:-1, 1 - s] = k * (p.z1, p.z2)[1 - s]
            factors[dtau] = BandedMatrix(band.reshape(5, 2 * n), 2).factor()
        r = p.z1 * float(a1[m + 1]) + p.z2 * float(a2[m + 1])
        rhs = np.empty((n, 2))
        for s, (z, D, gamma, a) in enumerate(species):
            an = float(a[m + 1])
            f = D * an - (an - float(a[m])) / dtau - z * D * gamma * r
            rhs[:, s] = al[:, s] + dtau * f * decay
        rhs[[0, -1]] = 0.0
        al = factors[dtau].lu_solve(rhs.ravel()).reshape(n, 2)
        # pivoting can leave rounding residue on the pinned rows
        al[[0, -1]] = 0.0
        out.append(MixedLayerState(wall, float(taus[m + 1]), xi, al[:, 0].copy(), al[:, 1].copy(),
                                   float(a1[m + 1]), float(a2[m + 1])))

    _check_truncation(out, strict)
    return out


def _check_truncation(states: list[MixedLayerState], strict: bool) -> None:
    """Flag profiles whose mass reaches the far end of the half line."""
    xi = states[0].xi_grid
    w = np.zeros_like(xi)
    dxi = np.diff(xi)
    w[:-1] += 0.5 * dxi
    w[1:] += 0.5 * dxi
    tail = xi >= 0.9 * xi[-1]
    worst = 0.0
    for s in states:
        for c in (np.abs(s.c1()), np.abs(s.c2())):
            total = float(np.dot(w, c))
            if total > 1e-300:
                worst = max(worst, float(np.dot(w[tail], c[tail])) / total)
    if worst > 0.01:
        msg = (f"corner profile reaches the truncated end: {100 * worst:.1f}% of the mass "
               f"sits beyond xi = {0.9 * xi[-1]:.3g}; enlarge xi_max")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)
        log.warning(msg)
