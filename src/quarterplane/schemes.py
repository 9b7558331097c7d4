"""Finite-difference schemes on the quarter plane x > 0, t > 0.

All four schemes (LF-type, flux splitting, Godunov, viscous) share one
conservative update
    u_j^{n+1} = u_j^n - lam (g(u_j, u_{j+1}) - g(u_{j-1}, u_j)),   lam = tau/h,
on cells centered at x_j = (j + 1/2) h, with a copy ghost on the right.  The
left boundary is closed in one of two ways:

- LF-type, split and Godunov pin cell 0 to u_B(t) each step, so the pinned
  cell lines up with the y = 0 iterate of the discrete layer recursion;
- the viscous scheme updates every cell and puts the reflecting Dirichlet
  ghost 2 u_B - u_0 left of cell 0.

The viscous scheme solves u_t + f(u)_x = eps (B u_x)_x by an IMEX step, the
backward/forward Euler member of the Ascher-Ruuth-Spiteri family (Appl.
Numer. Math. 25, 1997): the update above with the central flux
g(v, w) = (f(v) + f(w)) / 2, then backward Euler for the diffusion,
    u_j^{n+1} - mu (u_{j+1}^{n+1} - 2 u_j^{n+1} + u_{j-1}^{n+1}) = u_j^*,
    mu = eps b tau / h^2,
with the same two ghosts taken at the new time level.  B must be constant
and diagonal, as it is for every built-in model, so each component solves
one fixed symmetric positive-definite tridiagonal system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from quarterplane.riemann import godunov_trace_scalar
from quarterplane.systems import SystemModel, UnsupportedModelError

__all__ = [
    "GridSolution",
    "CFLError",
    "run_lf",
    "run_split",
    "lf_splitting",
    "run_godunov",
    "run_viscous",
    "numerical_flux",
    "discrete_entropy_residual",
]


class CFLError(ValueError):
    """Raised when the requested time step violates the stability condition."""


@dataclass(frozen=True)
class GridSolution:
    scheme: str
    model_name: str
    xs: np.ndarray
    h: float
    tau: float
    lam: Optional[float]
    q: Optional[float]
    times: np.ndarray
    snapshots: np.ndarray  # (n_snap, M) or (n_snap, M, N)
    mass_initial: np.ndarray
    mass_final: np.ndarray
    # time integrals of the flux through the first and last interfaces: g,
    # plus the implicit diffusive flux at the first one for the viscous scheme
    flux_time_integral_left: np.ndarray
    flux_time_integral_right: np.ndarray
    history: Optional[np.ndarray] = None  # every step when store_all
    eps: Optional[float] = None  # viscous runs only
    boundary_samples: Optional[np.ndarray] = None  # u_B at snapshot times

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


def _as_boundary(u_B, dimension):
    if callable(u_B):
        return u_B
    if dimension == 1:
        val = float(u_B)
        return lambda t: val
    val = np.asarray(u_B, dtype=float)
    return lambda t: val


def _initial_cells(model, u0, xs):
    if callable(u0):
        vals = u0(xs)
    else:
        vals = u0
    vals = np.asarray(vals, dtype=float)
    if model.dimension == 1:
        if vals.ndim == 0:
            vals = np.full(xs.shape, float(vals))
        return vals.astype(float).copy()
    if vals.ndim == 1:
        vals = np.broadcast_to(vals, (xs.size, model.dimension))
    return np.array(vals, dtype=float)


def _data_speed(model, cells, ub_val):
    states = np.concatenate([cells, np.asarray(ub_val, dtype=float)[None]])
    return float(np.max(model.max_char_speed(states)))


def _snapshot_steps(n_steps, n_snapshots):
    if n_steps == 0:
        return np.array([0])
    idx = np.unique(np.round(np.linspace(0, n_steps, min(n_snapshots, n_steps + 1))).astype(int))
    return idx


def _start(model, u0, u_B, h, n_cells, pinned):
    """Cell centers, boundary function, initial cells (cell 0 pinned to
    u_B(0) if asked) and the largest characteristic speed of the data."""
    xs = (np.arange(n_cells) + 0.5) * h
    ub = _as_boundary(u_B, model.dimension)
    cells = _initial_cells(model, u0, xs)
    if pinned:
        cells[0] = ub(0.0)
    return xs, ub, cells, _data_speed(model, cells, ub(0.0))


def _march(model, scheme, flux, xs, ub, cells, *, h, tau, ratio, n_steps, pinned,
           n_snapshots, store_all, implicit=None, **fields):
    """The time loop shared by all schemes: u -= ratio (g_{j+1/2} - g_{j-1/2})
    with g = flux(ext[:-1], ext[1:]), where ext is the cells plus a copy
    ghost on the right and, unless cell 0 is pinned, the reflecting ghost
    2 u_B - u_0 on the left.  ``implicit(cells, u_B)``, if given, then
    completes the step in place with u_B at the new time and returns the
    flux it adds at the first face."""
    first = 1 if pinned else 0  # cells[first:] are updated and carry the mass
    ext = np.empty((cells.shape[0] + 2 - first,) + cells.shape[1:])
    ext[1 - first:-1] = cells
    cells = ext[1 - first:-1]  # a view: updating the cells updates ext
    snap_idx = set(_snapshot_steps(n_steps, n_snapshots).tolist())
    ub_new = np.asarray(ub(0.0), dtype=float)
    snaps = [cells.copy()] if 0 in snap_idx else []
    snap_times = [0.0] if 0 in snap_idx else []
    ub_samples = [ub_new] if 0 in snap_idx else []
    history = [cells.copy()] if store_all else None

    mass0 = np.atleast_1d(np.sum(cells[first:], axis=0))
    g_left_int = np.zeros_like(mass0, dtype=float)
    g_right_int = np.zeros_like(g_left_int)

    for n in range(1, n_steps + 1):
        ub_old, ub_new = ub_new, np.asarray(ub(n * tau), dtype=float)
        if not pinned:
            ext[0] = 2.0 * ub_old - cells[0]
        ext[-1] = cells[-1]
        g = flux(ext[:-1], ext[1:])  # g[0] at the first updated cell's left face
        cells[first:] -= ratio * (g[1:] - g[:-1])
        g_left = g[0]
        if implicit is not None:
            g_left = g_left + implicit(cells, ub_new)
        if pinned:
            cells[0] = ub_new
        g_left_int += tau * np.atleast_1d(g_left)
        g_right_int += tau * np.atleast_1d(g[-1])
        if store_all:
            history.append(cells.copy())
        if n in snap_idx:
            snaps.append(cells.copy())
            snap_times.append(n * tau)
            ub_samples.append(ub_new)

    return GridSolution(
        scheme=scheme, model_name=model.name, xs=xs, h=h, tau=tau,
        times=np.asarray(snap_times), snapshots=np.asarray(snaps),
        mass_initial=mass0 * h, mass_final=np.atleast_1d(np.sum(cells[first:], axis=0)) * h,
        flux_time_integral_left=g_left_int, flux_time_integral_right=g_right_int,
        history=np.asarray(history) if store_all else None,
        boundary_samples=np.asarray(ub_samples), **fields,
    )


def _run_conservative(model, scheme, flux, u0, u_B, *, h, lam, q, t_end,
                      n_cells, n_snapshots, store_all, speed_bound):
    xs, ub, cells, alpha = _start(model, u0, u_B, h, n_cells, pinned=True)
    if lam * alpha > speed_bound * (1.0 + 1e-12):
        raise CFLError(
            f"{scheme}: lam * max|char speed| = {lam * alpha:.3g} exceeds {speed_bound:.3g}")
    tau = lam * h
    n_steps = max(int(np.ceil(t_end / tau - 1e-12)), 0)
    return _march(model, scheme, flux, xs, ub, cells, h=h, tau=tau, ratio=lam,
                  n_steps=n_steps, pinned=True, n_snapshots=n_snapshots,
                  store_all=store_all, lam=lam, q=q)


def numerical_flux(model: SystemModel, scheme, F=None, U=None):
    """Numerical flux G(v, w) of ``scheme`` for the entropy pair (U, F).

    ``scheme`` is ("lf", lam, q) or ("godunov",):
        LF-type:  G(v, w) = (F(v) + F(w)) / 2 - (Q/lam) (U(w) - U(v))
        Godunov:  G(v, w) = F(R(v, w))
    The default pair (u, f) gives the scheme's own flux g(v, w).
    """
    F = model.flux if F is None else F
    U = (lambda u: u) if U is None else U
    if scheme[0] == "lf":
        _, lam, q = scheme
        coeff = q / lam

        def G(v, w):
            return 0.5 * (np.asarray(F(v)) + np.asarray(F(w))) \
                - coeff * (np.asarray(U(w)) - np.asarray(U(v)))
        return G
    if scheme[0] == "godunov":
        return lambda v, w: np.asarray(F(godunov_trace_scalar(model, v, w)))
    raise ValueError("scheme must be ('lf', lam, q) or ('godunov',)")


def lf_splitting(model, coeff):
    """The splitting f = f^- + f^+ with f^+/- = f/2 +- coeff*u, coeff = Q/lam.

    Its upwind flux f^-(w) + f^+(v) reproduces the Lax-Friedrichs-type flux
    exactly.
    """
    def f_plus(u):
        return 0.5 * np.asarray(model.flux(u)) + coeff * u

    def f_minus(u):
        return 0.5 * np.asarray(model.flux(u)) - coeff * u

    return f_minus, f_plus


def _check_splitting(model, f_minus, f_plus):
    rng = np.random.default_rng(0)
    if model.dimension == 1:
        samples = rng.uniform(-2.0, 2.0, 16)
    else:
        samples = rng.uniform(0.3, 2.0, (16, model.dimension))
    total = np.asarray(f_minus(samples)) + np.asarray(f_plus(samples))
    err = np.max(np.abs(total - np.asarray(model.flux(samples))))
    if err > 1e-8:
        raise ValueError(f"splitting inconsistency: |f - (f^- + f^+)| = {err:.3g}")


def run_lf(model: SystemModel, u0, u_B, *, h, lam, q, t_end,
           n_cells=None, n_snapshots=33, store_all=False) -> GridSolution:
    """Lax-Friedrichs-type scheme with numerical viscosity Q/lam."""
    if not 0.0 < q < 1.0:
        raise CFLError("q must lie in (0, 1)")
    n_cells = n_cells or 200
    return _run_conservative(model, "lf", numerical_flux(model, ("lf", lam, q)), u0, u_B,
                             h=h, lam=lam, q=q, t_end=t_end, n_cells=n_cells,
                             n_snapshots=n_snapshots, store_all=store_all,
                             speed_bound=q)


def run_split(model: SystemModel, u0, u_B, *, h, lam, q=None, t_end,
              splitting=None, n_cells=None, n_snapshots=33, store_all=False) -> GridSolution:
    """Flux-splitting scheme g(v, w) = f^-(w) + f^+(v).

    With the default splitting (``lf_splitting`` with coeff Q/lam) the flux
    equals the Lax-Friedrichs-type flux identically.  A user-supplied
    ``splitting = (f_minus, f_plus)`` is validated against f = f^- + f^+.
    """
    n_cells = n_cells or 200
    if splitting is None:
        if q is None or not 0.0 < q < 1.0:
            raise CFLError("q must lie in (0, 1)")
        f_minus, f_plus = lf_splitting(model, q / lam)
        speed_bound = q
    else:
        f_minus, f_plus = splitting
        _check_splitting(model, f_minus, f_plus)
        speed_bound = 1.0

    def g(v, w):
        return np.asarray(f_minus(w)) + np.asarray(f_plus(v))

    return _run_conservative(model, "split", g, u0, u_B,
                             h=h, lam=lam, q=q, t_end=t_end, n_cells=n_cells,
                             n_snapshots=n_snapshots, store_all=store_all,
                             speed_bound=speed_bound)


def run_godunov(model: SystemModel, u0, u_B, *, h, lam, t_end,
                n_cells=None, n_snapshots=33, store_all=False) -> GridSolution:
    if model.dimension != 1:
        raise UnsupportedModelError("run_godunov supports scalar models")
    n_cells = n_cells or 200
    return _run_conservative(model, "godunov", numerical_flux(model, ("godunov",)), u0, u_B,
                             h=h, lam=lam, q=None, t_end=t_end, n_cells=n_cells,
                             n_snapshots=n_snapshots, store_all=store_all,
                             speed_bound=1.0)


def _constant_diagonal_viscosity(model, states):
    """Diagonal of B, checked to be diagonal and equal at the given states."""
    mats = [np.atleast_2d(np.asarray(model.viscosity(s), dtype=float)) for s in states]
    b = mats[0]
    if any(not np.array_equal(m, b) for m in mats[1:]) or np.any(b != np.diag(np.diag(b))):
        raise UnsupportedModelError("run_viscous needs a constant diagonal viscosity matrix B")
    return np.diag(b)


def _implicit_diffusion(b, eps, tau, h, n_cells):
    """Backward Euler for u_t = eps (B u_x)_x, B = diag(b), on ``n_cells``
    cells with the reflecting ghost 2 u_B - u_0 and a copy ghost.  Component
    k solves
        (1 + 3 mu) x_0 - mu x_1                      = u*_0 + 2 mu u_B,
        -mu x_{j-1} + (1 + 2 mu) x_j - mu x_{j+1}    = u*_j,
        -mu x_{M-2} + (1 + mu) x_{M-1}               = u*_{M-1},
    mu = eps b_k tau / h^2: a symmetric positive-definite matrix, factored
    once; components with equal b_k share one solve.

    The returned step overwrites u* with u* + mu (D_{j+1/2} - D_{j-1/2}),
    D the face differences of x (D = 2 (x_0 - u_B) at the first face, 0 at
    the last).  That equals x up to the solver's residual but conserves
    mass to rounding, which x alone does not when mu is large.  It returns
    the diffusive flux -2 eps b (x_0 - u_B) / h through the first face."""
    mu = eps * b * tau / (h * h)
    solves = []
    for mu_k in np.unique(mu):
        diag = np.full(n_cells, 1.0 + 2.0 * mu_k)
        diag[0] += mu_k
        diag[-1] -= mu_k
        # pttrf wants a non-empty off-diagonal even for a single cell
        d, e, info = lapack.dpttrf(diag, np.full(max(n_cells - 1, 1), -mu_k))
        if info != 0:
            raise np.linalg.LinAlgError(
                f"implicit diffusion matrix is not positive definite (mu = {mu_k:.3g})")
        solves.append((np.flatnonzero(mu == mu_k), d, e))

    def step(cells, u_B):
        u = cells.reshape(n_cells, -1)  # a view, also for scalar cells
        u_B = u_B.reshape(-1)
        x = np.empty_like(u)
        for cols, d, e in solves:
            rhs = u[:, cols]
            rhs[0] += 2.0 * mu[cols] * u_B[cols]
            x[:, cols], _ = lapack.dpttrs(d, e, rhs)
        diff = np.zeros((n_cells + 1, u.shape[1]))
        diff[0] = 2.0 * (x[0] - u_B)
        diff[1:-1] = x[1:] - x[:-1]
        u += mu * (diff[1:] - diff[:-1])
        return -(eps * b / h) * diff[0]
    return step


def run_viscous(model: SystemModel, u0, u_B, *, h, eps, t_end,
                n_cells=None, cfl=0.9, n_snapshots=33, store_all=False) -> GridSolution:
    """IMEX scheme for u_t + f(u)_x = eps (B u_x)_x, B constant and diagonal
    (raises UnsupportedModelError otherwise): forward Euler on the central
    advection flux, backward Euler on the diffusion (module docstring).

    The time step tau = cfl min(h/alpha, 2 eps min(b)/alpha^2), alpha the
    largest characteristic speed of the data, follows the advective bound
    and does not shrink with h^2/eps.  It is von Neumann stable: with
    nu = alpha tau/h and mu = eps b tau/h^2 the amplification factor obeys
    |g|^2 = (1 + nu^2 sin^2 theta) / (1 + 2 mu (1 - cos theta))^2 <= 1
    whenever nu <= 1 and nu^2 <= 2 mu.  eps must be finite and positive
    (ValueError otherwise); data too large for a positive tau raise CFLError."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    xs, ub, cells, alpha = _start(model, u0, u_B, h, n_cells or 200, pinned=False)
    b = _constant_diagonal_viscosity(model, [cells[0], cells[-1], ub(0.0)])
    alpha = max(alpha, 1e-12)
    tau = cfl * min(h / alpha, 2.0 * eps * float(np.min(b)) / (alpha * alpha))
    if not tau > 0.0:  # alpha or alpha^2 is not finite
        raise CFLError(f"viscous: no positive time step at max|char speed| = {alpha:.3g}")
    n_steps = max(int(np.ceil(t_end / tau - 1e-12)), 1)
    tau = t_end / n_steps

    def central(v, w):
        return 0.5 * (np.asarray(model.flux(v)) + np.asarray(model.flux(w)))

    return _march(model, "viscous", central, xs, ub, cells, h=h, tau=tau, ratio=tau / h,
                  n_steps=n_steps, pinned=False, n_snapshots=n_snapshots,
                  store_all=store_all, lam=None, q=None, eps=eps,
                  implicit=_implicit_diffusion(b, eps, tau, h, cells.shape[0]))


def discrete_entropy_residual(model: SystemModel, sol: GridSolution,
                              pairs=None) -> float:
    """Largest cell entropy-inequality violation over the stored history.

    For each consecutive pair of stored steps and each entropy pair,
    computes U(u^{n+1}) - U(u^n) + lam (G_{j+1/2} - G_{j-1/2}) on the
    interior cells j >= 1 (cell 0 is pinned, so the update identity does not
    apply there) and returns the maximum positive part.
    """
    if sol.history is None:
        raise ValueError("run the scheme with store_all=True first")
    if sol.scheme in ("lf", "split"):
        if sol.q is None:
            raise ValueError("entropy flux is only known for the built-in splitting")
        scheme = ("lf", sol.lam, sol.q)
    elif sol.scheme == "godunov":
        scheme = ("godunov",)
    else:
        raise ValueError(f"no entropy flux for scheme {sol.scheme!r}")
    if pairs is None:
        pairs = model.entropies
    worst = 0.0
    for pair in pairs:
        G = numerical_flux(model, scheme, pair.F, pair.U)
        for n in range(sol.history.shape[0] - 1):
            cur = sol.history[n]
            nxt = sol.history[n + 1]
            right = np.concatenate([cur[1:], cur[-1:]], axis=0)
            g = G(cur, right)
            res = (np.asarray(pair.U(nxt[1:])) - np.asarray(pair.U(cur[1:]))
                   + sol.lam * (g[1:] - g[:-1]))
            worst = max(worst, float(np.max(res)))
    return worst
