"""Boundary-layer profiles and stable-manifold reports.

Continuous profiles solve B(v) v' = f(v) - f(v_inf) with v(0) = u_B; discrete
profiles iterate the implicit step of the Lax-Friedrichs-type scheme,
v -> T(v) = w with w - mu f(w) = v + mu f(v) - 2 mu f(v_inf), mu = lam/(2q).
For systems, membership is forward integration/iteration from u_B:
trajectories off the stable set diverge or stall at a spurious equilibrium.

Every LF layer computation is one damped Newton, ``_lf_step`` over states
of shape (M, N) and its float twin ``_lf_step_scalar`` for one scalar state,
run by one orbit loop, ``_lf_orbit``, that follows one limit to one verdict:
one step, one profile and each candidate of the batch cross-check are thin
callers.  Systems step at M = 1; the batched kernel is the twin's reference.

For scalar fluxes membership is decided exactly on the phase line
(``viscous_member_scalar``), for both regularizations.  If mu |f'| < 1 on the
hull [min(u_B, v_inf), max(u_B, v_inf)], then w -> w - mu f(w) and
v -> v + mu f(v) are increasing there, so T is increasing, and T(v) - v has
the sign of f(v) - f(v_inf).  The orbit from u_B is then monotone, its fixed
points are the roots of f - f(v_inf), and it reaches v_inf exactly when the
viscous trajectory does: under that hypothesis the LF and viscous layer sets
coincide.  The paper's CFL hypothesis lam/q sup|f'| <= 1 implies it
(``admissible`` checks it).  ``lf_membership_scalar_batch`` iterates the
recursion itself and is kept as an independent cross-check of that argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quarterplane.riemann import _brent, godunov_trace_scalar
from quarterplane.systems import SystemModel, UnsupportedModelError, eigen_structure, quad_integral, stress_law

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

    def interp(self, y):
        """Piecewise-linear sample of the profile at y (continuous kind)."""
        return interp_states(y, self.ys, self.states)


def interp_states(y, ys, states):
    """Piecewise-linear sample at y of states, shape (len(ys),) or (len(ys), N), given at ys."""
    y = np.asarray(y, dtype=float)
    if states.ndim == 1:
        return np.interp(y, ys, states)
    return np.stack([np.interp(y, ys, states[:, i]) for i in range(states.shape[1])], axis=-1)


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


# --- Continuous (viscous) layers --------------------------------------------


def _monotone_tail(dists: np.ndarray) -> bool:
    """Last-quarter distances must be nonincreasing (up to roundoff)."""
    tail = dists[-(max(len(dists) // 4, 2)):]
    return bool(np.all(np.diff(tail) <= 1e-8 * (1.0 + tail[:-1])))


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980) with the quartic
# dense output and the step control of scipy's RK45 (Hairer, Norsett &
# Wanner, Solving ODEs I, II.4-II.6).  The layer ODE is autonomous, so the
# stage nodes c_i never enter.
_RK_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_RK_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_RK_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_RK_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
          -12715105075 / 11282082432),
         (0.0, 0.0, 0.0, 0.0),
         (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
          87487479700 / 32700410799),
         (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
          -10690763975 / 1880347072),
         (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
          701980252875 / 199316789632),
         (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
         (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_RK_RTOL, _RK_ATOL = 1e-10, 1e-12


def _error_norm(err, y, y_new):
    """RMS norm of err / (atol + max(|y|, |y_new|) rtol).  A scalar state is
    a float, a system state a 1-d array."""
    if isinstance(err, float):
        return abs(err) / (_RK_ATOL + max(abs(y), abs(y_new)) * _RK_RTOL)
    scaled = err / (_RK_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RK_RTOL)
    return float(np.linalg.norm(scaled)) / scaled.size ** 0.5


def _dopri45(rhs, y0, y_max, event):
    """Integrate v' = rhs(v) from v(0) = y0 to y = y_max with the rules of
    scipy's RK45 at rtol = 1e-10, atol = 1e-12: its initial step, error
    norm, safety factor 0.9, step factors in [0.2, 10] (no growth right
    after a rejection) and smallest step 10 ulp(y).  A state is a float or
    a 1-d array; a non-finite rhs(y0) raises ValueError.

    Stops early where event(v) changes sign (or vanishes), at the root
    Brent's method finds on the step's dense output.  Returns the accepted
    ordinates, the states there and a status: 0 at y_max, 1 at an event,
    -1 when the step fell below its smallest size."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _RK_A
    b1, _, b3, b4, b5, b6 = _RK_B
    e1, _, e3, e4, e5, e6, e7 = _RK_E
    y, f = y0, rhs(y0)
    if not np.all(np.isfinite(f)):
        raise ValueError("the layer ODE's velocity at u_B is not finite")
    # initial step (Hairer-Norsett-Wanner II.4 for an order-4 error estimate)
    d0, d1 = _error_norm(y, y, y), _error_norm(f, y, y)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, y_max)
    d2 = _error_norm(rhs(y + h0 * f) - f, y, y) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, y_max)

    t, g = 0.0, event(y)
    ts, states = [t], [y]
    while t < y_max:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, states, -1
            t_new = min(t + h_abs, y_max)
            h = t_new - t
            k1 = f
            k2 = rhs(y + h * (a21 * k1))
            k3 = rhs(y + h * (a31 * k1 + a32 * k2))
            k4 = rhs(y + h * (a41 * k1 + a42 * k2 + a43 * k3))
            k5 = rhs(y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
            k6 = rhs(y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5))
            y_new = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            k7 = rhs(y_new)
            err = _error_norm(h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7),
                              y, y_new)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** -0.2)
            rejected = True
        g_new = event(y_new)
        if g <= 0 <= g_new or g >= 0 >= g_new:
            ks = (k1, k2, k3, k4, k5, k6, k7)
            q = [sum(c * k for c, k in zip(col, ks) if c) for col in zip(*_RK_P)]

            def dense(s):
                x = (s - t) / h
                return y + h * sum(qj * x ** (j + 1) for j, qj in enumerate(q))

            root = _brent(lambda s: event(dense(s)), t, t_new, g, g_new)
            ts.append(root)
            states.append(dense(root))
            return ts, states, 1
        t, y, f, g = t_new, y_new, k7, g_new
        ts.append(t)
        states.append(y)
    return ts, states, 0


def viscous_layer_profile(model: SystemModel, u_B, v_inf, y_max: float = 200.0) -> LayerProfile:
    """Integrate the layer ODE B v' = f(v) - f(v_inf) from v(0) = u_B up to
    y_max > 0 and report convergence to v_inf.

    B must be constant and diagonal (UnsupportedModelError otherwise), as
    it is for every built-in model.  The run stops early when the distance
    to v_inf reaches its blow-up bound or a component comes within 1e-9 of
    a finite lower bound of ``state_region``."""
    if not y_max > 0:
        raise ValueError(f"y_max must be positive, got {y_max!r}")
    n = model.dimension
    u0 = np.atleast_1d(np.asarray(u_B, dtype=float))
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))
    # scalar states travel as floats, system states as 1-d arrays
    start, limit = (float(u0[0]), float(vi[0])) if n == 1 else (u0, vi)
    b = model.viscosity_diagonal([start, limit])
    b = float(b[0]) if n == 1 else b
    as_state, dist = (float, abs) if n == 1 else (np.asarray, np.linalg.norm)
    f_inf = model.flux(limit)
    tol = tol_conv(vi)
    blow = 10.0 * (1.0 + _norms(u0 - vi) + _norms(vi))
    lows = [(i, lo + 1e-9) for i, (lo, _) in enumerate(model.state_region) if np.isfinite(lo)]

    def rhs(v):
        return as_state((model.flux(v) - f_inf) / b)

    def margin(v):  # > 0 inside the blow-up distance and above the lower bounds
        return min([blow - dist(v - limit)] + [np.atleast_1d(v)[i] - lo for i, lo in lows])

    ys, states, status = _dopri45(rhs, start, float(y_max), margin)
    speed_end = float(dist(rhs(states[-1])))
    ys = np.asarray(ys)
    states = np.asarray(states)
    dists = np.linalg.norm(states.reshape(len(ys), -1) - vi, axis=1)
    d_end = float(dists[-1])

    if status:  # an event, or a step underflow: the run stopped short of y_max
        verdict = "diverged"
    elif d_end <= tol:
        verdict = "converged" if _monotone_tail(dists) else "horizon-reached"
    elif speed_end < 1e-6 * (1.0 + np.linalg.norm(f_inf)):
        verdict = "stalled"
    else:
        verdict = "horizon-reached" if d_end < blow * 0.5 else "diverged"
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

_NEWTON_MAX_ITER, _NEWTON_TOL = 100, 1e-12  # the Newton of _lf_step


def _norms(x):
    """The 2-norm of x along its last axis."""
    return np.hypot.reduce(x, axis=-1, initial=0.0)


def _newton_step(model: SystemModel, mu: float, w, r):
    """-(I - mu f'(w))^-1 r for each row of w and r, shape (M, N), in closed
    form: a division for N = 1, Cramer's rule for N = 2.  A singular system
    gives NaN, which no damping repairs."""
    if model.dimension == 1:
        den = mu * model.dflux(w) - 1.0
        return r / np.where(den == 0.0, np.nan, den)
    (a, b), (c, d) = np.moveaxis(np.eye(2) - mu * model.jacobian(w), 0, -1)
    det = a * d - b * c
    return (np.stack([b * r[:, 1] - d * r[:, 0], c * r[:, 0] - a * r[:, 1]], axis=1)
            / np.where(det == 0.0, np.nan, det)[:, None])


def _lf_step(model: SystemModel, mu: float, v, f_inf):
    """The implicit LF layer step for each row of v, shape (M, N): solves
    w - mu f(w) = v + mu f(v) - 2 mu f_inf by Newton from w = v (so the root
    in the basin of v is selected), halving each state's step until its
    residual decreases: the B states whose full step does not decrease it
    share one flux call on a (30, B, N) ladder of repeated halvings and take
    their first rung that does.  Returns w and the mask of the states whose
    Newton failed: no rung decreased the residual (w is then the last rung),
    or _NEWTON_MAX_ITER steps left it above _NEWTON_TOL (1 + |w|)."""
    fv = model.flux(v)
    c = v + mu * (fv - 2.0 * f_inf)
    w, r = v.copy(), v - mu * fv - c
    nr = _norms(r)
    failed = np.zeros(len(v), dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        todo = ~(failed | (nr <= _NEWTON_TOL * (1.0 + _norms(w))))  # a NaN residual is not converged
        n_todo = np.count_nonzero(todo)
        if not n_todo:
            return w, failed
        step = np.where(todo[:, None], _newton_step(model, mu, w, r), 0.0)
        w_new = w + step  # the states off todo keep w: their step is 0
        r_new = w_new - mu * model.flux(w_new) - c
        nr_new = _norms(r_new)
        better = nr_new < nr  # so better is a subset of todo
        if np.count_nonzero(better) < n_todo:
            bad = np.flatnonzero(todo & ~better)
            rungs = np.concatenate([step[None, bad], np.full((30, bad.size, w.shape[1]), 0.5)])
            w_l = w[bad] + np.multiply.accumulate(rungs)[1:]
            r_l = w_l - mu * model.flux(w_l) - c[bad]
            nr_l = _norms(r_l)
            down = nr_l < nr[bad]
            failed[bad[~down.any(axis=0)]] = True
            down[-1] = True  # a state no rung helps ends on the last one
            pick = down.argmax(axis=0), np.arange(bad.size)
            w_new[bad], r_new[bad], nr_new[bad] = w_l[pick], r_l[pick], nr_l[pick]
        w, r, nr = w_new, r_new, nr_new
    return w, failed | ~(nr <= _NEWTON_TOL * (1.0 + _norms(w)))


def _lf_step_scalar(model: SystemModel, mu: float, v: float, f_inf: float):
    """``_lf_step`` of one scalar state on floats: the same operations in the
    same order, with the halving ladder climbed one rung at a time."""
    fv = model.flux(v)
    c = v + mu * (fv - 2.0 * f_inf)
    w, r = v, v - mu * fv - c
    nr = abs(r)
    for _ in range(_NEWTON_MAX_ITER):
        if nr <= _NEWTON_TOL * (1.0 + abs(w)):
            return w, False
        den = mu * model.dflux(w) - 1.0
        step = r / den if den != 0.0 else math.nan
        for _ in range(31):  # the full step, then 30 halvings
            w_new = w + step
            r_new = w_new - mu * model.flux(w_new) - c
            if abs(r_new) < nr:
                break
            step *= 0.5
        else:
            return w_new, True
        w, r, nr = w_new, r_new, abs(r_new)
    return w, not nr <= _NEWTON_TOL * (1.0 + abs(w))


def _lf_orbit(model: SystemModel, mu: float, u_B, v_inf, y_max: int, member_tol=None):
    """Iterate the LF layer step from u_B toward v_inf (floats for a scalar
    model, stepped by ``_lf_step_scalar``; shape (N,) otherwise, stepped by
    ``_lf_step``) for at most y_max steps.  With tol = 1e-6 (1 + |v_inf|),
    accept = member_tol (default 1e-3 tol) and near = max(tol, accept), the
    verdict is: diverged when Newton fails (adding no state) or the state is
    not finite, leaves the model's region or is farther than 10 (1 + |u_B -
    v_inf| + |v_inf|) from v_inf; converged within accept of v_inf; stalled
    when the orbit creeps to another fixed point: farther than near from
    v_inf, with a step s under near and a geometric tail s r / (1 - r), r = s
    / (previous step) < 1, under a quarter of the distance.  The tail is the
    remaining travel of a geometric orbit and half that of one creeping as
    1/y to a tangency (f' = 0) point, so no orbit bound for v_inf stalls.
    After y_max steps: converged within near, horizon-reached otherwise.
    Returns the verdict, the last distance and the orbit (the states from u_B
    on).  ValueError when a scalar flux at u_B or v_inf is not finite."""
    if model.dimension == 1:
        f_inf, (lo, hi) = model.flux(v_inf), model.state_region[0]
        for name, u, f in (("u_B", u_B, model.flux(u_B)), ("v_inf", v_inf, f_inf)):
            if not math.isfinite(f):
                raise ValueError(f"the flux at {name} = {u!r} is not finite")
        norm, inside = abs, lambda w: lo < w < hi
        step = lambda v: _lf_step_scalar(model, mu, v, f_inf)
    else:
        f_inf = model.flux(v_inf[None])
        norm, inside = lambda x: float(_norms(x)), model.in_region

        def step(v):
            w, failed = _lf_step(model, mu, v[None], f_inf)
            return w[0], failed[0]
    tol = 1e-6 * (1.0 + norm(v_inf))
    accept = 1e-3 * tol if member_tol is None else member_tol
    near = max(tol, accept)
    dist = norm(u_B - v_inf)
    blow = 10.0 * (1.0 + dist + norm(v_inf))
    v, s_prev, d_prev, orbit = u_B, blow, dist, [u_B]
    for _ in range(y_max):
        w, failed = step(v)
        if failed:
            return "diverged", d_prev, orbit
        orbit.append(w)
        d, s = norm(w - v_inf), norm(w - v)
        if not (d <= blow and inside(w)):
            return "diverged", d, orbit
        if d <= accept:
            return "converged", d, orbit
        if d > near and s < near and 4.0 * s * s <= d * (s_prev - s):
            return "stalled", d, orbit
        v, s_prev, d_prev = w, s, d
    return "converged" if d_prev <= near else "horizon-reached", d_prev, orbit


def discrete_lf_layer_step(model: SystemModel, lam: float, q: float, v_y, v_inf):
    """One implicit step of the discrete layer recursion, mu = lam/(2 q), from
    v_y, so the root in the basin of v_y is selected and the profile is
    continuous in its starting value: ``_lf_step_scalar`` (a float) for a
    scalar model, ``_lf_step`` otherwise.  RuntimeError when Newton fails."""
    mu = lam / (2.0 * q)
    if model.dimension == 1:
        w, failed = _lf_step_scalar(model, mu, float(v_y), model.flux(float(v_inf)))
    else:
        (w,), (failed,) = _lf_step(model, mu, np.array(v_y, dtype=float, ndmin=2),
                                   model.flux(np.array(v_inf, dtype=float, ndmin=2)))
    if failed:
        raise RuntimeError("Newton failed in the discrete layer step")
    return w


def discrete_layer_membership(model: SystemModel, scheme, u_B, v_inf,
                              y_max: int = 500) -> LayerProfile:
    """Iterate the discrete layer recursion (LF, ``_lf_orbit``) or apply the
    Riemann-trace characterization (Godunov: member iff v_inf = R(u_B, v_inf))."""
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
    start, limit = (float(u0[0]), float(vi[0])) if model.dimension == 1 else (u0, vi)
    verdict, dist, orbit = _lf_orbit(model, lam / (2.0 * q), start, limit, y_max)
    return LayerProfile("discrete", np.arange(len(orbit), dtype=float), np.asarray(orbit),
                        u0, vi, verdict, dist)


def lf_membership_scalar_batch(model: SystemModel, lam: float, q: float,
                               u_B: float, v_infs, y_max: int = 500,
                               member_tol=None):
    """Scalar LF membership by iterating the layer recursion itself, one
    ``_lf_orbit`` on floats per candidate: a boolean array of v_infs' shape.
    ``member_tol`` is the accept distance (default 1e-9-ish); loosen it
    together with a larger ``y_max`` when the contraction factors are close
    to one (small mu = lam/2q).  This is the independent cross-check of the
    exact phase-line oracle (module docstring)."""
    vi = np.asarray(v_infs, dtype=float)
    tols = ([None] * vi.size if member_tol is None else
            np.broadcast_to(np.asarray(member_tol, dtype=float), vi.shape).ravel().tolist())
    return np.array([_lf_orbit(model, lam / (2.0 * q), float(u_B), v, y_max, t)[0] == "converged"
                     for v, t in zip(vi.ravel().tolist(), tols)], dtype=bool).reshape(vi.shape)


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

    if regularization == "viscous":
        ev, rv = np.linalg.eig(np.linalg.solve(model.viscosity(state), model.jacobian(state)))
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
        stable = np.abs(amp) < 1.0 - es.tol_char
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


def _lagrangian_quadratic(lam: float, state_y, limit):
    """N(y) and sqrt(N(y)^2 - 4) of the step quadratic w^2 - N(y) w + 1 = 0."""
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
    return n_val, np.sqrt(disc)


def lagrangian_layer_iterate(lam: float, state_y, limit):
    """Closed-form discrete layer step for the Lagrangian gas model.

    With w = v/lam the recursion reduces to the quadratic
    w(y+1)^2 - N(y) w(y+1) + 1 = 0 whose roots multiply to one; the larger
    root is the stable choice when w_inf = v_inf/lam > 1.
    """
    n_val, root = _lagrangian_quadratic(lam, state_y, limit)
    v_y, u_y, u_inf = float(state_y[0]), float(state_y[1]), float(limit[1])
    return np.array([0.5 * lam * (n_val + root),
                     2.0 * u_inf - u_y + v_y / lam - 0.5 * n_val - 0.5 * root])


def lagrangian_quadratic_roots(lam: float, state_y, limit):
    """Both roots of the step quadratic (their product is identically 1)."""
    n_val, root = _lagrangian_quadratic(lam, state_y, limit)
    return 0.5 * (n_val - root), 0.5 * (n_val + root)


def elasto_layer_curve(model: SystemModel, base, v_inf_range) -> CurveSet:
    """The admissible-limit curve of the viscous layer for a p-system.

    u_inf(v_inf) = u_B -+ sqrt(2 * integral of (sigma - sigma(v_inf))), with
    the minus branch for v_inf < v_B and the plus branch for v_inf > v_B.
    Strains outside the model's state region raise ValueError.
    """
    law = stress_law(model, "elasto_layer_curve")
    v_B, u_B = float(base[0]), float(base[1])
    vs = np.asarray(v_inf_range, dtype=float)
    if not np.all(np.append(vs, v_B) > model.state_region[0][0]):
        raise ValueError("layer-curve strains outside the model's state region")
    excess = law["sigma_excess"]
    if excess is None:
        sig = law["sigma"]

        def excess(v_i, v_B):
            sig_i = float(sig(v_i))
            return abs(quad_integral(lambda s: float(sig(s)) - sig_i, v_i, v_B))

    def u_inf(v_i):
        if v_i == v_B:
            return u_B
        du = np.sqrt(2.0 * excess(v_i, v_B))
        return u_B - du if v_i < v_B else u_B + du

    t = np.array([1.0, np.sqrt(float(law["sigma_prime"](v_B)))])
    return CurveSet(base_point=np.array([v_B, u_B]), points=np.array([[v, u_inf(v)] for v in vs]),
                    tangent=t / np.linalg.norm(t))
