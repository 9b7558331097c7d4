"""Boundary-layer profiles and stable-manifold reports.

Continuous profiles solve B(v) v' = f(v) - f(v_inf) with v(0) = u_B; discrete
profiles iterate the implicit step of the Lax-Friedrichs-type scheme.  For
systems, membership is forward integration/iteration from u_B: trajectories
off the stable set diverge (or stall at a spurious equilibrium), which the
horizon test detects.

For scalar fluxes membership is decided exactly on the phase line
(``viscous_member_scalar``), for both regularizations.  The LF layer step
v -> T(v) = w solves w - mu f(w) = v + mu f(v) - 2 mu f(v_inf), mu = lam/(2q).
If mu |f'| < 1 on the hull [min(u_B, v_inf), max(u_B, v_inf)], then
w -> w - mu f(w) and v -> v + mu f(v) are increasing there, so T is
increasing, and T(v) - v has the sign of f(v) - f(v_inf).  The orbit from u_B
is then monotone, its fixed points are the roots of f - f(v_inf), and it
reaches v_inf exactly when the viscous trajectory does: under that
hypothesis the LF and viscous layer sets coincide.  The paper's CFL
hypothesis lam/q sup|f'| <= 1 implies it (``admissible`` checks it).
``lf_membership_scalar_batch`` iterates the recursion itself and is kept as
an independent cross-check of that argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from quarterplane.riemann import godunov_trace_scalar
from quarterplane.systems import SystemModel, UnsupportedModelError, eigen_structure

__all__ = [
    "LayerProfile",
    "ManifoldReport",
    "CurveSet",
    "viscous_layer_profile",
    "viscous_member_scalar",
    "discrete_lf_layer_step",
    "discrete_layer_membership",
    "lf_membership_scalar_batch",
    "manifold_report",
    "lagrangian_layer_iterate",
    "elasto_layer_curve",
]


def tol_conv(v_inf) -> float:
    return 1e-6 * (1.0 + float(np.linalg.norm(np.atleast_1d(v_inf))))


@dataclass(frozen=True)
class LayerProfile:
    kind: str  # "continuous" or "discrete"
    ys: np.ndarray
    states: np.ndarray  # shape (len(ys),) or (len(ys), N)
    u_B: np.ndarray
    v_infinity: np.ndarray
    verdict: str  # converged | diverged | stalled | horizon-reached
    distance_at_horizon: float

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    def interp(self, y):
        """Piecewise-linear sample of the profile at y (continuous kind)."""
        y = np.asarray(y, dtype=float)
        if self.states.ndim == 1:
            return np.interp(y, self.ys, self.states)
        return np.stack([np.interp(y, self.ys, self.states[:, i])
                         for i in range(self.states.shape[1])], axis=-1)


@dataclass(frozen=True)
class ManifoldReport:
    base_state: np.ndarray
    p: int
    stable_dim: int
    amplification: np.ndarray  # continuous: eigenvalues of B^-1 df; discrete: a_i
    tangent: np.ndarray  # stable directions as columns, shape (N, stable_dim)
    predicate_residuals: np.ndarray  # l_j.(u_B - v_inf) for j = p+1..N
    mismatch: bool
    characteristic: bool
    regularization: str


@dataclass(frozen=True)
class CurveSet:
    base_point: np.ndarray
    points: np.ndarray  # shape (M, 2)
    tangent: np.ndarray  # unit tangent at the base point
    dimension: int


# --- Continuous (viscous) layers --------------------------------------------


def _monotone_tail(dists: np.ndarray) -> bool:
    """Last-quarter distances must be nonincreasing (up to roundoff)."""
    tail = dists[-(max(len(dists) // 4, 2)):]
    return bool(np.all(np.diff(tail) <= 1e-8 * (1.0 + tail[:-1])))


def viscous_layer_profile(model: SystemModel, u_B, v_inf, y_max: float = 200.0) -> LayerProfile:
    """Integrate the layer ODE from u_B and report convergence to v_inf."""
    n = model.dimension
    u0 = np.atleast_1d(np.asarray(u_B, dtype=float))
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))
    f_inf = np.atleast_1d(np.asarray(model.flux(vi if n > 1 else float(vi[0]))))
    tol = tol_conv(vi)
    blow = 10.0 * (1.0 + np.linalg.norm(u0 - vi) + np.linalg.norm(vi))

    def rhs(_, v):
        fv = np.atleast_1d(np.asarray(model.flux(v if n > 1 else float(v[0]))))
        dv = fv - f_inf
        if n == 1:
            b = float(np.atleast_2d(model.viscosity(float(v[0])))[0, 0])
            return dv / b
        return np.linalg.solve(np.asarray(model.viscosity(v), dtype=float), dv)

    def too_far(_, v):
        return np.linalg.norm(v - vi) - blow

    too_far.terminal = True

    events = [too_far]
    for i, (lo, _) in enumerate(model.state_region):
        if np.isfinite(lo):
            def exit_lo(_, v, i=i, lo=lo):
                return v[i] - (lo + 1e-9)
            exit_lo.terminal = True
            events.append(exit_lo)

    sol = solve_ivp(rhs, (0.0, y_max), u0, method="RK45",
                    rtol=1e-10, atol=1e-12, events=events, dense_output=False)
    ys = sol.t
    states = sol.y.T
    dists = np.linalg.norm(states - vi, axis=1)
    d_end = float(dists[-1])
    speed_end = float(np.linalg.norm(rhs(0.0, states[-1])))

    if sol.status == 1 or (not sol.success and d_end > blow * 0.5):
        verdict = "diverged"
    elif d_end <= tol and _monotone_tail(dists):
        verdict = "converged"
    elif speed_end < 1e-6 * (1.0 + np.linalg.norm(f_inf)) and d_end > tol:
        verdict = "stalled"
    elif d_end > tol:
        verdict = "horizon-reached" if d_end < blow * 0.5 else "diverged"
    else:
        verdict = "converged" if _monotone_tail(dists) else "horizon-reached"

    if n == 1:
        states = states[:, 0]
    return LayerProfile("continuous", ys, states, u0, vi, verdict, d_end)


def viscous_member_scalar(model: SystemModel, u_B: float, v_inf):
    """Exact phase-line membership test for the scalar layer ODE
    v' = f(v) - f(v_inf), elementwise over v_inf (a scalar gives a bool).

    The trajectory from u_B reaches v_inf iff the velocity field keeps a
    strict sign between the two states: f < f(v_inf) on (v_inf, u_B] when
    v_inf < u_B, and f > f(v_inf) on [u_B, v_inf) when v_inf > u_B.  On that
    interval f peaks at u_B or at an interior critical point.
    """
    if model.dimension != 1:
        raise UnsupportedModelError("scalar models only")
    u_B = float(u_B)
    v = np.asarray(v_inf, dtype=float)
    crit = np.asarray(model.critical_points, dtype=float)
    f_all = np.asarray(model.flux(np.concatenate([[u_B], crit, v.ravel()])))
    f_B, f_crit = f_all[0], f_all[1:1 + crit.size]
    f_inf = f_all[1 + crit.size:].reshape(v.shape)
    below = v < u_B  # f must stay below f(v_inf) there, above it otherwise

    def keeps_sign(fx):
        return np.where(below, fx < f_inf, fx > f_inf)

    member = keeps_sign(f_B)
    lo, hi = np.minimum(u_B, v), np.maximum(u_B, v)
    for c, f_c in zip(crit, f_crit):
        member &= ~((lo < c) & (c < hi)) | keeps_sign(f_c)
    member |= v == u_B
    return bool(member) if member.ndim == 0 else member


# --- Discrete (scheme) layers ------------------------------------------------


def discrete_lf_layer_step(model: SystemModel, lam: float, q: float, v_y, v_inf,
                           max_iter: int = 100, tol: float = 1e-12):
    """One implicit step of the discrete layer recursion.

    Solves w - v_y - mu (f(v_y) + f(w) - 2 f(v_inf)) = 0 with mu = lam/(2 q)
    by damped Newton started at v_y (so the root in the basin of v_y is
    selected, keeping the profile continuous in its starting value).
    """
    n = model.dimension
    mu = lam / (2.0 * q)
    scalar = n == 1
    vy = np.atleast_1d(np.asarray(v_y, dtype=float))
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))

    def fval(x):
        return np.atleast_1d(np.asarray(model.flux(x if not scalar else float(x[0]))))

    c = vy + mu * (fval(vy) - 2.0 * fval(vi))

    def residual(w):
        return w - mu * fval(w) - c

    w = vy.copy()
    r = residual(w)
    for _ in range(max_iter):
        nr = np.linalg.norm(r)
        if nr <= tol * (1.0 + np.linalg.norm(w)):
            break
        jac = np.eye(n) - mu * np.asarray(model.jacobian(w if not scalar else float(w[0])))
        step = np.linalg.solve(jac, -r)
        for _ in range(31):
            w_new = w + step
            r_new = residual(w_new)
            if np.linalg.norm(r_new) < nr:
                break
            step *= 0.5
        else:
            raise RuntimeError("Newton failed in the discrete layer step")
        w, r = w_new, r_new
    else:
        raise RuntimeError("Newton did not converge in the discrete layer step")
    return float(w[0]) if scalar else w


def discrete_layer_membership(model: SystemModel, scheme, u_B, v_inf,
                              y_max: int = 500) -> LayerProfile:
    """Iterate the discrete layer recursion (LF) or apply the Riemann-trace
    characterization (Godunov: member iff v_inf = R(u_B, v_inf))."""
    u0 = np.atleast_1d(np.asarray(u_B, dtype=float))
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))
    tol = tol_conv(vi)

    if scheme[0] == "godunov":
        if model.dimension != 1:
            raise UnsupportedModelError("the Godunov membership test is scalar-only here")
        trace = float(godunov_trace_scalar(model, u0[0], vi[0]))
        dist = abs(trace - float(vi[0]))
        verdict = "converged" if dist <= tol else "diverged"
        ys = np.array([0.0, 1.0])
        states = np.array([float(u0[0]), trace])
        return LayerProfile("discrete", ys, states, u0, vi, verdict, float(dist))

    if scheme[0] != "lf":
        raise ValueError("scheme must be ('lf', lam, q) or ('godunov',)")
    _, lam, q = scheme
    blow = 10.0 * (1.0 + np.linalg.norm(u0 - vi) + np.linalg.norm(vi))

    ys = [0.0]
    states = [u0.copy()]
    v = u0.copy()
    verdict = "horizon-reached"
    for y in range(1, y_max + 1):
        try:
            v = np.atleast_1d(np.asarray(
                discrete_lf_layer_step(model, lam, q, v if model.dimension > 1 else float(v[0]),
                                       vi if model.dimension > 1 else float(vi[0]))))
        except RuntimeError:
            verdict = "diverged"
            break
        ys.append(float(y))
        states.append(v.copy())
        d = np.linalg.norm(v - vi)
        if d > blow or not np.all(np.isfinite(v)) or not model.in_region(v):
            verdict = "diverged"
            break
        if d <= 1e-3 * tol:
            verdict = "converged"
            break
    ys = np.asarray(ys)
    states = np.asarray(states)
    dists = np.linalg.norm(states - vi, axis=1)
    d_end = float(dists[-1])
    if verdict == "horizon-reached":
        if d_end <= tol and _monotone_tail(dists):
            verdict = "converged"
        elif len(states) > 2 and np.linalg.norm(states[-1] - states[-2]) < 1e-12 * (1.0 + d_end) and d_end > tol:
            verdict = "stalled"
    if model.dimension == 1:
        states = states[:, 0]
    return LayerProfile("discrete", ys, states, u0, vi, verdict, d_end)


def lf_membership_scalar_batch(model: SystemModel, lam: float, q: float,
                               u_B: float, v_infs, y_max: int = 500,
                               member_tol=None):
    """Scalar LF membership by iterating the layer recursion itself.

    Runs the implicit recursion for all candidates at once with an
    elementwise damped Newton solve; returns a boolean membership array.
    Each sweep steps only the candidates still undecided.  ``member_tol`` is
    the accept distance (default 1e-9-ish); set it looser together with a
    large ``y_max`` when the contraction factors are close to one (small
    mu = lam/2q).  The production oracle is the exact phase-line test (module
    docstring); this iteration is its independent cross-check.
    """
    mu = lam / (2.0 * q)
    f = model.flux
    vi_all = np.asarray(v_infs, dtype=float)
    member = np.zeros(vi_all.shape, dtype=bool)
    flat = member.reshape(-1)  # a view: setting flat sets member
    vi = vi_all.ravel()
    tol = 1e-6 * (1.0 + np.abs(vi))
    mtol = 1e-3 * tol if member_tol is None else \
        np.broadcast_to(np.asarray(member_tol, dtype=float), vi_all.shape).ravel()
    blow = 10.0 * (1.0 + np.abs(u_B - vi) + np.abs(vi))
    f_inf = np.asarray(f(vi))
    v = np.full_like(vi, float(u_B))
    idx = np.arange(vi.size)  # the undecided candidates; the arrays above follow it
    for _ in range(y_max):
        if not idx.size:
            break
        c = v + mu * (np.asarray(f(v)) - 2.0 * f_inf)
        w = v.copy()
        r = w - mu * np.asarray(f(w)) - c
        for _ in range(25):
            bad = np.abs(r) > 1e-12 * (1.0 + np.abs(w))
            if not np.any(bad):
                break
            dfw = np.asarray(model.dflux(w))
            denom = 1.0 - mu * dfw
            denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
            step = np.where(bad, -r / denom, 0.0)
            w_try = w + step
            r_try = w_try - mu * np.asarray(f(w_try)) - c
            # elementwise damping
            for _ in range(30):
                worse = np.abs(r_try) >= np.abs(r)
                if not np.any(worse & bad):
                    break
                step = np.where(worse, 0.5 * step, step)
                w_try = w + step
                r_try = w_try - mu * np.asarray(f(w_try)) - c
            w, r = w_try, r_try
        # elements whose implicit step has no reachable root have left the
        # existence domain of the recursion: not members
        failed = np.abs(r) > 1e-10 * (1.0 + np.abs(w))
        prev, v = v, w
        d = np.abs(v - vi)
        newly_member = (d <= mtol) & ~failed
        flat[idx[newly_member]] = True
        diverged = failed | (d > blow) | ~np.isfinite(v)
        stalled = (np.abs(v - prev) < 1e-13 * (1.0 + np.abs(v))) & (d > np.maximum(tol, mtol))
        keep = ~(newly_member | diverged | stalled)
        idx, v, vi, tol, mtol, blow, f_inf = (
            a[keep] for a in (idx, v, vi, tol, mtol, blow, f_inf))
    # whatever is still undecided at the horizon: accept if within tolerance
    flat[idx[np.abs(v - vi) <= np.maximum(tol, mtol)]] = True
    return member


# --- Stable-manifold reports -------------------------------------------------


def manifold_report(model: SystemModel, regularization, u_B, v_inf) -> ManifoldReport:
    """Stable-manifold data at v_inf.

    ``regularization`` is "viscous" (uses the model's viscosity matrix) or
    ("lf", lam, q).  The continuous case eigen-analyzes B(v_inf)^-1 df(v_inf);
    the discrete case maps each characteristic speed to its amplification
    factor a_i = (1 + mu lam_i)/(1 - mu lam_i), mu = lam/(2 q).
    """
    n = model.dimension
    u0 = np.atleast_1d(np.asarray(u_B, dtype=float))
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))
    state = vi if n > 1 else float(vi[0])
    es = eigen_structure(model, state)
    tol = es.tol_char

    if regularization == "viscous" or (isinstance(regularization, tuple) and regularization[0] == "viscous"):
        b = np.atleast_2d(np.asarray(model.viscosity(state), dtype=float))
        m = np.linalg.solve(b, np.atleast_2d(np.asarray(model.jacobian(state), dtype=float)))
        ev, rv = np.linalg.eig(m)
        if np.max(np.abs(ev.imag)) > 1e-9 * (1.0 + np.max(np.abs(ev.real))):
            raise ValueError("complex layer spectrum at the base state")
        order = np.argsort(ev.real)
        mu_vals = ev.real[order]
        vecs = rv.real[:, order]
        tol_m = 1e-9 * (1.0 + np.max(np.abs(mu_vals)))
        stable = mu_vals < -tol_m
        amp = mu_vals
        tangent = vecs[:, stable]
        reg_name = "viscous"
    else:
        kind, lam, q = regularization
        if kind != "lf":
            raise ValueError("regularization must be 'viscous' or ('lf', lam, q)")
        mu = lam / (2.0 * q)
        amp = (1.0 + mu * es.eigenvalues) / (1.0 - mu * es.eigenvalues)
        stable = np.abs(amp) < 1.0 - tol
        tangent = es.right[:, stable]
        reg_name = "lf"

    stable_dim = int(np.sum(stable))
    residuals = es.left[es.p:, :] @ (u0 - vi)
    return ManifoldReport(
        base_state=vi,
        p=es.p,
        stable_dim=stable_dim,
        amplification=np.asarray(amp, dtype=float),
        tangent=np.atleast_2d(tangent),
        predicate_residuals=np.asarray(residuals, dtype=float),
        mismatch=stable_dim != es.p,
        characteristic=es.characteristic,
        regularization=reg_name,
    )


# --- Model-specific closed forms ---------------------------------------------


def lagrangian_layer_iterate(lam: float, state_y, limit):
    """Closed-form discrete layer step for the Lagrangian gas model.

    With w = v/lam the recursion reduces to the quadratic
    w(y+1)^2 - N(y) w(y+1) + 1 = 0 whose roots multiply to one; the larger
    root is the stable choice when w_inf = v_inf/lam > 1.
    """
    v_y, u_y = float(state_y[0]), float(state_y[1])
    v_inf, u_inf = float(limit[0]), float(limit[1])
    if v_y <= 0.0:
        raise ValueError("specific volume must stay positive")
    w_inf = v_inf / lam
    if w_inf <= 1.0:
        raise ValueError("stability requires v_inf/lam > 1")
    w_y = v_y / lam
    n_val = -2.0 * u_y + 2.0 * u_inf - 1.0 / w_y + 2.0 / w_inf + w_y
    disc = n_val * n_val - 4.0
    if disc < 0.0:
        raise ValueError("complex roots in the layer recursion (N^2 < 4)")
    root = np.sqrt(disc)
    v_next = 0.5 * lam * (n_val + root)
    u_next = 2.0 * u_inf - u_y + v_y / lam - 0.5 * n_val - 0.5 * root
    return np.array([v_next, u_next])


def lagrangian_quadratic_roots(lam: float, state_y, limit):
    """Both roots of the step quadratic (their product is identically 1)."""
    v_y, u_y = float(state_y[0]), float(state_y[1])
    v_inf, u_inf = float(limit[0]), float(limit[1])
    w_y = v_y / lam
    w_inf = v_inf / lam
    n_val = -2.0 * u_y + 2.0 * u_inf - 1.0 / w_y + 2.0 / w_inf + w_y
    disc = n_val * n_val - 4.0
    root = np.sqrt(max(disc, 0.0))
    return 0.5 * (n_val - root), 0.5 * (n_val + root)


def elasto_layer_curve(model: SystemModel, base, v_inf_range) -> CurveSet:
    """The admissible-limit curve of the viscous layer for the p-system.

    u_inf(v_inf) = u_B -+ sqrt(2 * integral of (sigma - sigma(v_inf))), with
    the minus branch for v_inf < v_B and the plus branch for v_inf > v_B.
    """
    if model.name != "elastodynamics":
        raise UnsupportedModelError("elasto_layer_curve requires the elastodynamics model")
    v_B, u_B = float(base[0]), float(base[1])
    sig = model.params["sigma"]
    sp = model.params["sigma_prime"]
    vs = np.asarray(v_inf_range, dtype=float)

    def u_inf(v_i):
        if v_i == v_B:
            return u_B
        if v_i < v_B:
            val, _ = quad(lambda s: float(sig(s)) - float(sig(v_i)), v_i, v_B,
                          epsabs=1e-12, epsrel=1e-10, limit=200)
            return u_B - np.sqrt(max(2.0 * val, 0.0))
        val, _ = quad(lambda s: float(sig(v_i)) - float(sig(s)), v_B, v_i,
                      epsabs=1e-12, epsrel=1e-10, limit=200)
        return u_B + np.sqrt(max(2.0 * val, 0.0))

    pts = np.array([[v, u_inf(v)] for v in vs])
    t = np.array([1.0, np.sqrt(float(sp(v_B)))])
    return CurveSet(
        base_point=np.array([v_B, u_B]),
        points=pts,
        tangent=t / np.linalg.norm(t),
        dimension=1,
    )
