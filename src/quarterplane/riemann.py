"""Exact Riemann solvers and the Godunov flux.

Scalar laws are solved through the convex/concave envelope of the flux on the
data interval; the p-system of nonlinear elasticity is solved by intersecting
its two wave curves with a damped Newton iteration.  The trace returned by
every solver is the right limit of the self-similar solution at x/t = 0+: a
stationary shock therefore contributes its *right* state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from quarterplane.systems import SystemModel, UnsupportedModelError

__all__ = [
    "Wave",
    "RiemannFan",
    "SolverFailure",
    "scalar_riemann_trace",
    "godunov_flux",
    "godunov_trace_scalar",
    "psystem_riemann_trace",
    "conjugate_state",
    "cubic_companions",
]


class SolverFailure(RuntimeError):
    """Raised when an iterative Riemann solver fails to converge."""


@dataclass(frozen=True)
class Wave:
    kind: str  # "shock" or "rarefaction"
    left: object
    right: object
    speed_range: tuple  # (s_min, s_max); equal for shocks

    @property
    def speed(self):
        return 0.5 * (self.speed_range[0] + self.speed_range[1])


@dataclass(frozen=True)
class RiemannFan:
    left: object
    right: object
    waves: tuple
    trace_at_zero_plus: object
    flux_at_zero: object


# --- Scalar envelopes --------------------------------------------------------

_ENVELOPE_SAMPLES = 4097  # 2^12 + 1 grid for the generic fallback


def _chord_speed(f, a, b):
    return (float(f(b)) - float(f(a))) / (b - a)


def _convex_env_waves_analytic(model, a, b):
    """Wave decomposition of the convex envelope on [a, b], a < b."""
    f, df = model.flux, model.dflux
    if model.flux_convex:
        return [Wave("rarefaction", a, b, (float(df(a)), float(df(b))))]
    if model.name == "cubic":
        # f = (u^3 - 3u)/2 is concave left of 0 and convex right of 0.  The
        # tangent from (a, f(a)) with a < 0 touches the curve at -a/2.
        if a >= 0.0:
            return [Wave("rarefaction", a, b, (float(df(a)), float(df(b))))]
        t = -0.5 * a
        if b <= t:
            s = _chord_speed(f, a, b)
            return [Wave("shock", a, b, (s, s))]
        s = float(df(t))  # tangential shock a -> t
        return [Wave("shock", a, t, (s, s)),
                Wave("rarefaction", t, b, (s, float(df(b))))]
    return _grid_env_waves(model, a, b, lower=True)


def _concave_env_waves_analytic(model, a, b):
    """Wave decomposition of the concave envelope for data a > b."""
    f, df = model.flux, model.dflux
    if model.flux_convex:
        s = _chord_speed(f, a, b)
        return [Wave("shock", a, b, (s, s))]
    if model.name == "cubic":
        # f is odd, so the falling problem mirrors the rising one.
        mirrored = _convex_env_waves_analytic(model, -a, -b)
        return [Wave(w.kind, -w.left, -w.right, w.speed_range) for w in mirrored]
    return _grid_env_waves(model, a, b, lower=False)


def _lower_hull(x, y):
    """Indices of the lower convex hull of the graph (x increasing)."""
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (x[i2] - x[i1]) * (y[i] - y[i1]) - (x[i] - x[i1]) * (y[i2] - y[i1])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _grid_env_waves(model, a, b, lower):
    """Generic envelope by a Graham scan over a fine sample grid."""
    left_first = a < b
    lo, hi = (a, b) if left_first else (b, a)
    x = np.linspace(lo, hi, _ENVELOPE_SAMPLES)
    y = np.asarray(model.flux(x), dtype=float)
    idx = _lower_hull(x, y if lower else -y)
    pts = x[idx]
    step = (hi - lo) / (_ENVELOPE_SAMPLES - 1)
    f = model.flux
    segs = []  # (kind, u_start, u_end) in increasing-u order
    for u0, u1 in zip(pts[:-1], pts[1:]):
        kind = "rarefaction" if (u1 - u0) <= 1.5 * step else "shock"
        if segs and segs[-1][0] == kind == "rarefaction":
            segs[-1] = (kind, segs[-1][1], u1)
        else:
            segs.append((kind, u0, u1))
    if not left_first:
        segs = [(k, e, s) for (k, s, e) in reversed(segs)]
    waves = []
    for kind, u0, u1 in segs:
        if kind == "shock":
            s = _chord_speed(f, u0, u1)
            waves.append(Wave("shock", u0, u1, (s, s)))
        else:
            s0 = _grid_slope(model, u0, step)
            s1 = _grid_slope(model, u1, step)
            waves.append(Wave("rarefaction", u0, u1, (min(s0, s1), max(s0, s1))))
    return waves


def _grid_slope(model, u, step):
    if model.dflux is not None:
        return float(model.dflux(u))
    f = model.flux
    return (float(f(u + 0.5 * step)) - float(f(u - 0.5 * step))) / step


def _scalar_waves(model, ul, ur):
    if ul == ur:
        return []
    if ul < ur:
        return _convex_env_waves_analytic(model, ul, ur)
    return _concave_env_waves_analytic(model, ul, ur)


def _sonic_state(model, w: Wave):
    """State inside a rarefaction whose characteristic speed vanishes."""
    lo = min(w.left, w.right)
    hi = max(w.left, w.right)
    for c in model.critical_points:
        if lo - 1e-12 <= c <= hi + 1e-12:
            return float(np.clip(c, lo, hi))
    if model.dflux is not None:
        return brentq(lambda u: float(model.dflux(u)), lo, hi, xtol=1e-14)
    raise SolverFailure("could not locate the sonic state in a rarefaction")


def _walk_trace(model, ul, waves):
    state = ul
    tol = 1e-12 * (1.0 + abs(ul))
    for w in waves:
        if w.kind == "shock":
            if w.speed <= tol:
                state = w.right  # zero-speed shocks resolve to the right state
            else:
                break
        else:
            s0, s1 = w.speed_range
            if s1 <= tol:
                state = w.right
            elif s0 >= -tol:
                break
            else:
                state = _sonic_state(model, w)
                break
    return state


def scalar_riemann_trace(model: SystemModel, u_left: float, u_right: float) -> RiemannFan:
    """Self-similar solution of a scalar Riemann problem, traced at x/t = 0+."""
    if model.dimension != 1:
        raise UnsupportedModelError("scalar_riemann_trace requires a scalar model")
    ul, ur = float(u_left), float(u_right)
    waves = tuple(_scalar_waves(model, ul, ur))
    trace = _walk_trace(model, ul, waves)
    return RiemannFan(ul, ur, waves, trace, float(model.flux(trace)))


def godunov_trace_scalar(model: SystemModel, v, w):
    """Vectorized trace of scalar Riemann problems at x/t = 0+.

    For v <= w the trace is the largest minimizer of f on [v, w]; for v > w
    it is the smallest maximizer on [w, v] (both are the 0+ limits of the
    envelope solutions).
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    lo = np.minimum(v, w)
    hi = np.maximum(v, w)
    cand = [lo, hi] + [np.clip(c, lo, hi) for c in model.critical_points]
    cand = np.stack(np.broadcast_arrays(*cand))
    fvals = np.asarray(model.flux(cand), dtype=float)
    tol = 1e-12 * (1.0 + np.abs(fvals).max(axis=0))
    fmin = fvals.min(axis=0)
    fmax = fvals.max(axis=0)
    # Largest candidate attaining the min / smallest attaining the max.
    at_min = np.where(fvals <= fmin + tol, cand, -np.inf)
    at_max = np.where(fvals >= fmax - tol, cand, np.inf)
    trace_up = at_min.max(axis=0)
    trace_down = at_max.min(axis=0)
    return np.where(v <= w, trace_up, trace_down)


def godunov_flux(model: SystemModel, u_left, u_right):
    """The Godunov numerical flux f(R(u_left, u_right))."""
    if model.dimension == 1:
        return model.flux(godunov_trace_scalar(model, u_left, u_right))
    fan = psystem_riemann_trace(model, u_left, u_right)
    return fan.flux_at_zero


# --- Convex-flux conjugate states and cubic companions -----------------------


def conjugate_state(model: SystemModel, u_B: float) -> float:
    """The other root of f(u) = f(u_B) for a strictly convex scalar flux."""
    if model.dimension != 1 or not model.flux_convex:
        raise UnsupportedModelError("conjugate_state requires a strictly convex scalar flux")
    f, df = model.flux, model.dflux
    u_B = float(u_B)
    if model.critical_points:
        u_star = model.critical_points[0]
    else:
        lo, hi = -1.0, 1.0
        while df(lo) > 0:
            lo *= 2.0
        while df(hi) < 0:
            hi *= 2.0
        u_star = brentq(lambda u: float(df(u)), lo, hi, xtol=1e-14)
    if abs(u_B - u_star) <= 1e-12 * (1.0 + abs(u_star)):
        raise ValueError("the sonic state has no conjugate")
    if model.name == "burgers":
        return -u_B
    target = float(f(u_B))
    direction = -1.0 if u_B > u_star else 1.0
    step = max(1.0, abs(u_B - u_star))
    far = u_star + direction * step
    while float(f(far)) < target:
        step *= 2.0
        far = u_star + direction * step
    lo, hi = (far, u_star) if direction < 0 else (u_star, far)
    return brentq(lambda u: float(f(u)) - target, lo, hi, xtol=1e-14)


def cubic_companions(model: SystemModel, u_B: float):
    """Roots u != u_B of f(u) = f(u_B) for the cubic flux, sorted ascending.

    Deflating (u - u_B) from u^3 - 3u - (u_B^3 - 3 u_B) leaves the quadratic
    u^2 + u_B u + (u_B^2 - 3).
    """
    if model.name != "cubic":
        raise UnsupportedModelError("cubic_companions requires the cubic model")
    u_B = float(u_B)
    disc = 12.0 - 3.0 * u_B * u_B
    if disc < 0.0:
        return ()
    if disc <= 1e-12:
        roots = [-0.5 * u_B]  # double root at |u_B| = 2
    else:
        rt = np.sqrt(disc)
        roots = [0.5 * (-u_B - rt), 0.5 * (-u_B + rt)]
    out = tuple(sorted(r for r in roots if abs(r - u_B) > 1e-9))
    return out


# --- p-system solver ---------------------------------------------------------


def _sqrt_sigma_p_integral(model, v0, v1):
    """Integral of sqrt(sigma'(s)) over [v0, v1] (signed)."""
    sp = model.params["sigma_prime"]
    val, _ = quad(lambda s: np.sqrt(float(sp(s))), v0, v1, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def _wave_offset(model, v, v_end):
    """u - u_end along the wave curve through the state with strain v_end:
    the rarefaction integral for v <= v_end, the shock chord otherwise."""
    if v <= v_end:
        return _sqrt_sigma_p_integral(model, v_end, v)
    sig = model.params["sigma"]
    return np.sqrt((float(sig(v)) - float(sig(v_end))) * (v - v_end))


def _wave_slope(model, v, v_end):
    """d/dv of ``_wave_offset``."""
    sig, sp = model.params["sigma"], model.params["sigma_prime"]
    dv = v - v_end
    dsig = float(sig(v)) - float(sig(v_end))
    prod = dsig * dv
    if v <= v_end or prod <= 0.0:
        return np.sqrt(float(sp(v)))
    return (float(sp(v)) * dv + dsig) / (2.0 * np.sqrt(prod))


def _phi1(model, v, left):
    """u on the forward 1-wave curve through ``left`` at specific strain v."""
    return left[1] + _wave_offset(model, v, left[0])


def _phi2(model, v, right):
    """u of the middle state whose 2-wave reaches ``right``."""
    return right[1] - _wave_offset(model, v, right[0])


def psystem_riemann_trace(model: SystemModel, left, right,
                          max_iter: int = 100, tol: float = 1e-12) -> RiemannFan:
    """Two-wave Riemann solution of the p-system, traced at x/t = 0+."""
    if model.name != "elastodynamics":
        raise UnsupportedModelError("psystem_riemann_trace requires the elastodynamics model")
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    sig, sp = model.params["sigma"], model.params["sigma_prime"]

    if np.allclose(left, right, rtol=0.0, atol=1e-15):
        return RiemannFan(left, right, (), right.copy(), np.asarray(model.flux(right)))

    lo_v = min(left[0], right[0]) - 10.0
    scale = 1.0 + abs(left[1]) + abs(right[1])

    def g(v):
        return _phi1(model, v, left) - _phi2(model, v, right)

    def dg(v):
        return _wave_slope(model, v, left[0]) + _wave_slope(model, v, right[0])

    v = 0.5 * (left[0] + right[0])
    gv = g(v)
    converged = False
    for _ in range(max_iter):
        if abs(gv) <= tol * scale:
            converged = True
            break
        step = -gv / dg(v)
        # damping: halve until the residual decreases and we stay in range
        for _ in range(30):
            v_new = v + step
            if v_new > lo_v:
                g_new = g(v_new)
                if abs(g_new) < abs(gv):
                    break
            step *= 0.5
        else:
            raise SolverFailure("damped Newton stalled in the p-system solver")
        v, gv = v_new, g_new
    if not converged and abs(gv) > tol * scale:
        raise SolverFailure("p-system wave-curve intersection did not converge")

    u_mid = _phi1(model, v, left)
    middle = np.array([v, u_mid])

    waves = []
    # 1-wave: left -> middle
    if abs(v - left[0]) > 1e-14 * (1.0 + abs(v)):
        if v > left[0]:
            s = -np.sqrt((float(sig(v)) - float(sig(left[0]))) / (v - left[0]))
            waves.append(Wave("shock", left.copy(), middle.copy(), (s, s)))
        else:
            s0 = -np.sqrt(float(sp(left[0])))
            s1 = -np.sqrt(float(sp(v)))
            waves.append(Wave("rarefaction", left.copy(), middle.copy(), (s0, s1)))
    # 2-wave: middle -> right
    if abs(v - right[0]) > 1e-14 * (1.0 + abs(v)):
        if v > right[0]:
            s = np.sqrt((float(sig(v)) - float(sig(right[0]))) / (v - right[0]))
            waves.append(Wave("shock", middle.copy(), right.copy(), (s, s)))
        else:
            s0 = np.sqrt(float(sp(v)))
            s1 = np.sqrt(float(sp(right[0])))
            waves.append(Wave("rarefaction", middle.copy(), right.copy(), (s0, s1)))

    trace = middle.copy()
    return RiemannFan(left, right, tuple(waves), trace, np.asarray(model.flux(trace)))
