"""Exact Riemann solvers and the Godunov flux.

Scalar fans are the convex/concave envelope of the flux on the data interval,
in closed form for a convex flux or a cubic with one inflection point; their
trace is the extremizer of f on that interval (Osher, SIAM J. Numer. Anal.
21, 1984).  The p-system of nonlinear elasticity is solved by intersecting
its two wave curves with a damped Newton iteration.  The trace returned by
every solver is the right limit of the self-similar solution at x/t = 0+: a
stationary shock therefore contributes its *right* state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quarterplane.systems import SystemModel, UnsupportedModelError, quad_integral

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


# --- Scalar fans ------------------------------------------------------------


def _rarefaction(df, a, b):
    return Wave("rarefaction", a, b, (float(df(a)), float(df(b))))


def _shock(f, a, b):
    s = (float(f(b)) - float(f(a))) / (b - a)
    return Wave("shock", a, b, (s, s))


def _scalar_waves(model, a, b):
    """Waves from a to b (a != b): the convex envelope of f on [a, b] for
    rising data, the concave one for falling data.

    A convex flux gives one rarefaction (rising) or one shock (falling).
    Otherwise f must be a cubic, concave left and convex right of its single
    inflection point c.  The envelope is f itself, a rarefaction, when a lies
    on the matching side of c (a >= c rising, a <= c falling).  Else the chord
    from a touches f at t = (3c - a)/2: one shock when b does not pass t,
    otherwise a tangential shock a -> t and a rarefaction t -> b.
    """
    f, df = model.flux, model.dflux
    rising = a < b
    if model.flux_convex:
        return [_rarefaction(df, a, b) if rising else _shock(f, a, b)]
    if len(model.inflection_points) != 1:
        raise UnsupportedModelError(
            "scalar Riemann fans need a convex flux or a cubic with one inflection point")
    c = model.inflection_points[0]
    if (a >= c) if rising else (a <= c):
        return [_rarefaction(df, a, b)]
    t = 0.5 * (3.0 * c - a)
    if (b <= t) if rising else (b >= t):
        return [_shock(f, a, b)]
    s = float(df(t))
    return [Wave("shock", a, t, (s, s)), Wave("rarefaction", t, b, (s, float(df(b))))]


def scalar_riemann_trace(model: SystemModel, u_left: float, u_right: float) -> RiemannFan:
    """Self-similar solution of a scalar Riemann problem.  Its trace at
    x/t = 0+ is the extremizer of f on the data interval (Osher's formula,
    ``godunov_trace_scalar``)."""
    if model.dimension != 1:
        raise UnsupportedModelError("scalar_riemann_trace requires a scalar model")
    ul, ur = float(u_left), float(u_right)
    waves = tuple(_scalar_waves(model, ul, ur)) if ul != ur else ()
    trace, flux = _godunov_scalar(model, ul, ur)
    return RiemannFan(ul, ur, waves, float(trace), float(flux))


def _critical_values(model):
    """The critical points of f and the values of f there."""
    crit = np.asarray(model.critical_points, dtype=float)
    return crit, np.asarray(model.flux(crit), dtype=float)


def _osher_extremum(v, w, fv, fw, crit, f_crit):
    """Osher's formula from values of f: the minimum of f on [v, w] when
    ``up`` (v <= w), else its maximum on [w, v].  f is monotone between its
    critical points, so the candidates are v, w and the critical points
    ``crit`` ``between`` them, where f takes the values ``f_crit``."""
    up = v <= w
    f_min, f_max = np.minimum(fv, fw), np.maximum(fv, fw)
    between = []
    for c, f_c in zip(crit, f_crit):
        inside = (v < c) != (w < c)
        f_k = np.where(inside, f_c, fw)
        f_min, f_max = np.minimum(f_min, f_k), np.maximum(f_max, f_k)
        between.append(inside)
    return np.where(up, f_min, f_max), up, between


def _osher(v, w, fv, fw, crit, f_crit):
    """The trace R(v, w) and f there, the extremum: of the states that attain
    it, the one closest to w.  Values are compared exactly: a tolerance would
    pick the downwind state at near-ties."""
    extremum, up, between = _osher_extremum(v, w, fv, fw, crit, f_crit)
    trace = v  # then each critical point that attains it and lies closer to w
    for c, f_c, inside in zip(crit, f_crit, between):
        trace = np.where(inside & (f_c == extremum) & ((c > trace) == up), c, trace)
    return np.where(fw == extremum, w, trace), extremum


def _godunov_scalar(model, v, w):
    """The trace R(v, w) and f there, elementwise over broadcast v and w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return _osher(v, w, model.flux(v), model.flux(w), *_critical_values(model))


def godunov_trace_scalar(model: SystemModel, v, w):
    """Vectorized trace of scalar Riemann problems at x/t = 0+.

    For v <= w the trace is the largest minimizer of f on [v, w]; for v > w
    it is the smallest maximizer on [w, v] (both are the 0+ limits of the
    envelope solutions).
    """
    return _godunov_scalar(model, v, w)[0]


def godunov_flux(model: SystemModel, u_left, u_right):
    """The Godunov numerical flux f(R(u_left, u_right))."""
    if model.dimension == 1:
        return _godunov_scalar(model, u_left, u_right)[1][()]  # a 0-d result unwrapped
    fan = psystem_riemann_trace(model, u_left, u_right)
    return fan.flux_at_zero


# --- Convex-flux conjugate states and cubic companions -----------------------


def conjugate_state(model: SystemModel, u_B: float) -> float:
    """The other root of f(u) = f(u_B) for a strictly convex scalar flux."""
    if model.dimension != 1 or not model.flux_convex or model.level_roots is None:
        raise UnsupportedModelError("conjugate_state requires a strictly convex scalar flux")
    roots = model.level_roots(float(u_B))
    if not roots:
        raise ValueError("the sonic state has no conjugate")
    return roots[0]


def cubic_companions(model: SystemModel, u_B: float):
    """Roots u != u_B of f(u) = f(u_B) for a non-convex scalar flux (the
    cubic), sorted ascending."""
    if model.flux_convex or model.level_roots is None:
        raise UnsupportedModelError("cubic_companions requires a non-convex flux with level roots")
    return model.level_roots(float(u_B))


# --- p-system solver ---------------------------------------------------------


def _sqrt_sigma_p_integral(model, v0, v1):
    """Integral of sqrt(sigma'(s)) over [v0, v1] (signed), in closed form if the model has one."""
    closed = model.params.get("sqrt_sigma_prime_integral")
    if closed is not None:
        return closed(v0, v1)
    sp = model.params["sigma_prime"]
    return quad_integral(lambda s: np.sqrt(float(sp(s))), v0, v1)


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

    waves = []  # the 1-wave left -> middle, then the 2-wave middle -> right
    for sign, a, b, v_end in ((-1.0, left, middle, left[0]), (1.0, middle, right, right[0])):
        if abs(v - v_end) <= 1e-14 * (1.0 + abs(v)):
            continue
        if v > v_end:
            s = sign * np.sqrt((float(sig(v)) - float(sig(v_end))) / (v - v_end))
            waves.append(Wave("shock", a.copy(), b.copy(), (s, s)))
        else:
            speeds = tuple(sign * np.sqrt(float(sp(x[0]))) for x in (a, b))
            waves.append(Wave("rarefaction", a.copy(), b.copy(), speeds))

    trace = middle.copy()
    return RiemannFan(left, right, tuple(waves), trace, np.asarray(model.flux(trace)))
