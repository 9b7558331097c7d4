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

Each run allocates its buffers once; the Godunov step evaluates only the
flux value at each face (Osher's extremum), not the trace.  ``store_all``
keeps every level in one array of 8 B x (steps + 1) x cells x N.

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

from quarterplane.riemann import _critical_values, _osher, _osher_extremum, godunov_trace_scalar
from quarterplane.systems import SystemModel, UnsupportedModelError

__all__ = [
    "GridSolution",
    "CFLError",
    "run_lf",
    "run_split",
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
    val = float(u_B) if dimension == 1 else np.asarray(u_B, dtype=float)
    return lambda t: val


def _initial_cells(model, u0, xs):
    vals = np.asarray(u0(xs) if callable(u0) else u0, dtype=float)
    shape = xs.shape + ((model.dimension,) if model.dimension > 1 else ())
    return np.array(np.broadcast_to(vals, shape) if vals.ndim < len(shape) else vals)


def _data_speed(model, cells, ub_val):
    states = np.concatenate([cells, np.asarray(ub_val, dtype=float)[None]])
    return float(np.max(model.max_char_speed(states)))


def _snapshot_steps(n_steps, n_snapshots):
    if n_steps == 0:
        return np.array([0])
    idx = np.unique(np.round(np.linspace(0, n_steps, min(n_snapshots, n_steps + 1))).astype(int))
    return idx


def _start(model, u0, u_B, h, n_cells, pinned):
    """Centers of ``n_cells`` cells (200 if not given), the boundary
    function, the initial cells (cell 0 pinned to u_B(0) if asked) and the
    largest characteristic speed of the data."""
    xs = (np.arange(n_cells or 200) + 0.5) * h
    ub = _as_boundary(u_B, model.dimension)
    cells = _initial_cells(model, u0, xs)
    if pinned:
        cells[0] = ub(0.0)
    return xs, ub, cells, _data_speed(model, cells, ub(0.0))


# The most cell updates (steps x cells) a run may take; the heaviest runs take ~1e6.
MAX_CELL_UPDATES = 1e9


def _march(model, scheme, faces, xs, ub, cells, *, h, tau, ratio, n_steps, pinned,
           n_snapshots, store_all, implicit=None, **fields):
    """The time loop shared by all schemes: u -= ratio (g_{j+1/2} - g_{j-1/2})
    with g = faces(ext), the numerical flux at the len(ext) - 1 faces between
    neighbours of ext, the cells plus a copy ghost on the right and, unless
    cell 0 is pinned, the reflecting ghost 2 u_B - u_0 on the left.  The
    built-in ``faces`` evaluate f once per cell of ext and combine neighbours
    by slicing, so each face costs one flux evaluation, not two.
    ``implicit(cells, u_B)``, if given, then completes the step in place
    with u_B at the new time and returns the flux it adds at the first
    face, which is added into g.  ``faces`` may return the same buffer at
    every step.  A run of more than MAX_CELL_UPDATES raises ValueError."""
    if n_steps * len(cells) > MAX_CELL_UPDATES:
        raise ValueError(f"{scheme}: {n_steps:.3g} steps of {len(cells)} cells exceed "
                         f"{MAX_CELL_UPDATES:.3g} cell updates")
    first = 1 if pinned else 0  # cells[first:] are updated and carry the mass
    ext = np.empty((cells.shape[0] + 2 - first,) + cells.shape[1:])
    ext[1 - first:-1] = cells
    cells = ext[1 - first:-1]  # a view: updating the cells updates ext
    updated = cells[first:]
    dg = np.empty_like(updated)  # ratio (g_{j+1/2} - g_{j-1/2}) of each updated cell
    snap_steps = _snapshot_steps(n_steps, n_snapshots)
    snap_idx = set(snap_steps.tolist())
    # [()]: a scalar model's u_B is a numpy scalar, whose arithmetic costs less than a 0-d array's
    ub_new = np.asarray(ub(0.0), dtype=float)[()]
    snaps = [cells.copy()] if 0 in snap_idx else []
    ub_samples = [ub_new] if 0 in snap_idx else []
    history = np.empty((n_steps + 1,) + cells.shape) if store_all else None
    if store_all:
        history[0] = cells

    mass0 = np.atleast_1d(np.sum(updated, axis=0))
    # the time integral of the flux through the first and the last face: the
    # rows g[ends], one row standing for both when there is a single face
    ends, g_ends_int = slice(None, None, max(len(ext) - 2, 1)), np.zeros((2,) + cells.shape[1:])

    for n in range(1, n_steps + 1):
        ub_old, ub_new = ub_new, np.asarray(ub(n * tau), dtype=float)[()]
        if not pinned:
            ext[0] = 2.0 * ub_old - cells[0]
        ext[-1] = cells[-1]
        g = faces(ext)  # g[0] at the first updated cell's left face
        updated -= np.multiply(np.subtract(g[1:], g[:-1], out=dg), ratio, out=dg)
        if implicit is not None:
            g[:1] += implicit(cells, ub_new)
        if pinned:
            cells[0] = ub_new
        g_ends_int += tau * g[ends]
        if store_all:
            history[n] = cells
        if n in snap_idx:
            snaps.append(cells.copy())
            ub_samples.append(ub_new)

    flux_int = g_ends_int.reshape(2, -1)
    return GridSolution(
        scheme=scheme, model_name=model.name, xs=xs, h=h, tau=tau,
        times=snap_steps * tau, snapshots=np.asarray(snaps),
        mass_initial=mass0 * h, mass_final=np.atleast_1d(np.sum(updated, axis=0)) * h,
        flux_time_integral_left=flux_int[0], flux_time_integral_right=flux_int[1],
        history=history,
        boundary_samples=np.asarray(ub_samples), **fields,
    )


def _run_conservative(model, scheme, faces, u0, u_B, *, h, lam, q, t_end,
                      n_cells, n_snapshots, store_all, speed_bound):
    xs, ub, cells, alpha = _start(model, u0, u_B, h, n_cells, pinned=True)
    if lam * alpha > speed_bound * (1.0 + 1e-12):
        raise CFLError(
            f"{scheme}: lam * max|char speed| = {lam * alpha:.3g} exceeds {speed_bound:.3g}")
    tau = lam * h
    n_steps = max(int(np.ceil(t_end / tau - 1e-12)), 0)
    return _march(model, scheme, faces, xs, ub, cells, h=h, tau=tau, ratio=lam,
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
        return lambda v, w: _lf_flux(F(v), F(w), U(v), U(w), coeff)
    if scheme[0] == "godunov":
        return lambda v, w: np.asarray(F(godunov_trace_scalar(model, v, w)))
    raise ValueError("scheme must be ('lf', lam, q) or ('godunov',)")


def _lf_flux(Fv, Fw, Uv, Uw, coeff, g=None, d=None):
    """The LF-type flux (F(v) + F(w)) / 2 - coeff (U(w) - U(v)) from the
    values of F and U at v and w, written into the buffers g and d if given:
    per-cell values sliced to neighbours give it at every face for one
    evaluation of F and U per cell."""
    g = np.multiply(np.add(Fv, Fw, out=g), 0.5, out=g)
    return np.subtract(g, np.multiply(np.subtract(Uw, Uv, out=d), coeff, out=d), out=g)


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
    coeff, bufs = q / lam, None

    def faces(ext):  # into buffers allocated at the first step
        nonlocal bufs
        if bufs is None:
            bufs = tuple(np.empty((2, len(ext) - 1) + ext.shape[1:]))
        fe = np.asarray(model.flux(ext))
        return _lf_flux(fe[:-1], fe[1:], ext[:-1], ext[1:], coeff, *bufs)

    return _run_conservative(model, "lf", faces, u0, u_B,
                             h=h, lam=lam, q=q, t_end=t_end, n_cells=n_cells,
                             n_snapshots=n_snapshots, store_all=store_all,
                             speed_bound=q)


def run_split(model: SystemModel, u0, u_B, *, h, lam, q=None, t_end,
              splitting=None, n_cells=None, n_snapshots=33, store_all=False) -> GridSolution:
    """Flux-splitting scheme g(v, w) = f^-(w) + f^+(v).

    With the default splitting f^+/- = f/2 +- coeff u, coeff = Q/lam, the
    flux equals the Lax-Friedrichs-type flux identically.  A user-supplied
    ``splitting = (f_minus, f_plus)`` is validated against f = f^- + f^+.
    """
    if splitting is None:
        if q is None or not 0.0 < q < 1.0:
            raise CFLError("q must lie in (0, 1)")
        coeff = q / lam
        speed_bound, bufs = q, None

        def faces(ext):  # f^-(w) + f^+(v), f^+/- = f/2 +- coeff u, one flux call, into buffers
            nonlocal bufs
            if bufs is None:  # f/2, coeff u and g per cell of ext
                bufs = tuple(np.empty((3,) + ext.shape))
            half, cu, g = bufs
            np.multiply(np.asarray(model.flux(ext)), 0.5, out=half)
            np.multiply(ext, coeff, out=cu)
            g = np.subtract(half[1:], cu[1:], out=g[1:])  # f^-(w)
            return np.add(g, np.add(half[:-1], cu[:-1], out=cu[:-1]), out=g)  # + f^+(v)
    else:
        f_minus, f_plus = splitting
        _check_splitting(model, f_minus, f_plus)
        speed_bound = 1.0

        def faces(ext):
            return np.asarray(f_minus(ext[1:])) + np.asarray(f_plus(ext[:-1]))

    return _run_conservative(model, "split", faces, u0, u_B,
                             h=h, lam=lam, q=q, t_end=t_end, n_cells=n_cells,
                             n_snapshots=n_snapshots, store_all=store_all,
                             speed_bound=speed_bound)


def run_godunov(model: SystemModel, u0, u_B, *, h, lam, t_end,
                n_cells=None, n_snapshots=33, store_all=False) -> GridSolution:
    if model.dimension != 1:
        raise UnsupportedModelError("run_godunov supports scalar models")

    crit, f_crit = _critical_values(model)

    def faces(ext):
        fe = np.asarray(model.flux(ext))
        return _osher_extremum(ext[:-1], ext[1:], fe[:-1], fe[1:], crit, f_crit)[0]

    return _run_conservative(model, "godunov", faces, u0, u_B,
                             h=h, lam=lam, q=None, t_end=t_end, n_cells=n_cells,
                             n_snapshots=n_snapshots, store_all=store_all,
                             speed_bound=1.0)


def _implicit_diffusion(b, eps, tau, h, n_cells):
    """Backward Euler for u_t = eps (B u_x)_x, B = diag(b), on ``n_cells``
    cells with the reflecting ghost 2 u_B - u_0 and a copy ghost.  Component
    k solves
        (1 + 3 mu) x_0 - mu x_1                      = u*_0 + 2 mu u_B,
        -mu x_{j-1} + (1 + 2 mu) x_j - mu x_{j+1}    = u*_j,
        -mu x_{M-2} + (1 + mu) x_{M-1}               = u*_{M-1},
    mu = eps b_k tau / h^2: a symmetric positive-definite matrix.

    Built once per run: each component's factors; the buffers x, one
    contiguous row per component that LAPACK pttrs solves in place, and D,
    the face differences of x per component (0 at the copy ghost's face),
    with their slices; and the coefficients.  Each step copies u* into x,
    adds 2 mu u_B to its first column, solves, and overwrites u* with
    u* + mu (D_{j+1/2} - D_{j-1/2}), D = 2 (x_0 - u_B) at the first face.
    That equals x up to the solver's residual but conserves mass to
    rounding, which x alone does not when mu is large.  The step returns
    the diffusive flux -2 eps b (x_0 - u_B) / h through the first face."""
    from scipy.linalg import lapack

    mu = eps * b * tau / (h * h)
    two_mu, mu_col, flux_coeff = 2.0 * mu, mu[:, None], -(eps * b / h)
    x = np.empty((mu.size, n_cells))
    diff = np.zeros((mu.size, n_cells + 1))
    solves = []
    for k, mu_k in enumerate(mu):
        diag = np.full(n_cells, 1.0 + 2.0 * mu_k)
        diag[0] += mu_k
        diag[-1] -= mu_k
        # pttrf wants a non-empty off-diagonal even for a single cell
        d_k, e_k, info = lapack.dpttrf(diag, np.full(max(n_cells - 1, 1), -mu_k))
        if info != 0:
            raise np.linalg.LinAlgError(
                f"implicit diffusion matrix is not positive definite (mu = {mu_k:.3g})")
        solves.append((d_k, e_k, x[k]))
    x_first, x_right, x_left = x[:, 0], x[:, 1:], x[:, :-1]
    d_first, d_inner, d_right, d_left = diff[:, 0], diff[:, 1:-1], diff[:, 1:], diff[:, :-1]

    def step(cells, u_B):
        u = cells.reshape(n_cells, -1).T  # a view, also for scalar cells
        x[...] = u
        np.add(x_first, two_mu * u_B, out=x_first)
        for d_k, e_k, row in solves:
            solved, _ = lapack.dpttrs(d_k, e_k, row, overwrite_b=1)
            assert solved is row  # f2py copies a row that is not contiguous float64
        np.multiply(np.subtract(x_first, u_B, out=d_first), 2.0, out=d_first)
        np.subtract(x_right, x_left, out=d_inner)
        np.subtract(d_right, d_left, out=x)
        np.multiply(x, mu_col, out=x)
        u += x
        return flux_coeff * d_first
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
    xs, ub, cells, alpha = _start(model, u0, u_B, h, n_cells, pinned=False)
    b = model.viscosity_diagonal([cells[0], cells[-1], ub(0.0)])
    alpha = max(alpha, 1e-12)
    tau = cfl * min(h / alpha, 2.0 * eps * float(np.min(b)) / (alpha * alpha))
    if not tau > 0.0:  # alpha or alpha^2 is not finite
        raise CFLError(f"viscous: no positive time step at max|char speed| = {alpha:.3g}")
    n_steps = max(int(np.ceil(t_end / tau - 1e-12)), 1)
    tau = t_end / n_steps

    def central(ext):
        fe = np.asarray(model.flux(ext))
        return 0.5 * (fe[:-1] + fe[1:])

    return _march(model, "viscous", central, xs, ub, cells, h=h, tau=tau, ratio=tau / h,
                  n_steps=n_steps, pinned=False, n_snapshots=n_snapshots,
                  store_all=store_all, lam=None, q=None, eps=eps,
                  implicit=_implicit_diffusion(b, eps, tau, h, cells.shape[0]))


# Time levels per block of discrete_entropy_residual: about 2^15 values
# (256 KiB of float64) per temporary, 32 levels of 1,000 scalar cells.
_BLOCK_VALUES = 1 << 15


def _right(a):
    """The right neighbour of each cell (cells on axis 1), the last cell its own."""
    return np.concatenate([a[:, 1:], a[:, -1:]], axis=1)


def discrete_entropy_residual(model: SystemModel, sol: GridSolution,
                              pairs=None) -> float:
    """Largest cell entropy-inequality violation over the stored history.

    For each consecutive pair of stored steps and each entropy pair,
    computes U(u^{n+1}) - U(u^n) + lam (G_{j+1/2} - G_{j-1/2}) on the
    interior cells j >= 1 (cell 0 is pinned, so the update identity does not
    apply there) and returns the maximum positive part.

    The history is taken in blocks of consecutive time levels (about 2^15
    values each, so the temporaries stay small): U and F are evaluated once
    per block on the cell values, right neighbours (with the copy ghost) are
    slices, and the Godunov trace R(u_j, u_{j+1}) is computed once per block
    for all pairs; a pair whose F is the model's flux takes f(R) as the
    extremum Osher's formula finds with it.  A pair that ``negates`` another
    listed pair is not evaluated: its residual is minus the other's, exactly
    but for the sign of a zero, so its maxima are minus the other's minima.
    The maximum is the one a loop over single steps returns, bit for bit.  A
    history with a non-finite value raises ValueError naming the first such
    level: it has no residual to report.
    """
    if sol.history is None:
        raise ValueError("run the scheme with store_all=True first")
    if sol.scheme in ("lf", "split"):
        if sol.q is None:
            raise ValueError("entropy flux is only known for the built-in splitting")
        coeff = sol.q / sol.lam
    elif sol.scheme == "godunov":
        crit, f_crit = _critical_values(model)
    else:
        raise ValueError(f"no entropy flux for scheme {sol.scheme!r}")
    if pairs is None:
        pairs = model.entropies
    listed = {id(pair) for pair in pairs}  # (pair, whether a listed pair negates it)
    evaluated = [(p, any(q.negates is p for q in pairs)) for p in pairs
                 if id(p.negates) not in listed]
    hist = sol.history
    if hist.shape[1] < 2:
        raise ValueError("no entropy residual: a 1-cell run has no interior cell (cell 0 is pinned)")
    rows = max(_BLOCK_VALUES // hist[0].size, 1)
    worst = 0.0
    for start in range(0, hist.shape[0] - 1, rows):
        levels = hist[start:start + rows + 1]
        finite = np.isfinite(levels.reshape(levels.shape[0], -1)).all(axis=1)
        if not finite.all():
            raise ValueError(f"history level {start + int(np.argmin(finite))} is not finite")
        cur = levels[:-1]
        if sol.scheme == "godunov":
            fc = np.asarray(model.flux(cur))
            trace, extremum = _osher(cur, _right(cur), fc, _right(fc), crit, f_crit)
        for pair, negated in evaluated:
            u = np.asarray(pair.U(levels))
            if sol.scheme == "godunov":
                g = extremum if pair.F is model.flux else np.asarray(pair.F(trace))
            else:
                f = np.asarray(pair.F(cur))
                g = _lf_flux(f, _right(f), u[:-1], _right(u[:-1]), coeff)
            res = (u[1:, 1:] - u[:-1, 1:]) + sol.lam * (g[:, 1:] - g[:, :-1])
            # a fold over the rows' maxima, as over single steps
            worst = max(worst, *np.max(res, axis=1).tolist())
            if negated:
                worst = max(worst, *(-np.min(res, axis=1)).tolist())
    return worst
