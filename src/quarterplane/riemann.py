"""Exact Riemann solvers and the Godunov flux.

Scalar fans are the convex/concave envelope of the flux on the data interval,
in closed form for a convex flux or a cubic with one inflection point; their
trace is the extremizer of f on that interval (Osher, SIAM J. Numer. Anal.
21, 1984).  A p-system (elasticity; Lagrangian gas, sigma = -p) is solved by
intersecting its two Lax-admissible wave curves: their gap increases with the
strain, so Brent's method (``_brent``) finds its root in a bracket widened
inside the model's state region.  The trace returned by every solver is the
right limit of the self-similar solution at x/t = 0+: a stationary shock
therefore contributes its *right* state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quarterplane.systems import SystemModel, UnsupportedModelError, quad_integral, stress_law

__all__ = [
    "Wave",
    "RiemannFan",
    "SolverFailure",
    "scalar_riemann_trace",
    "godunov_flux",
    "godunov_trace_scalar",
    "psystem_riemann_trace",
]


class SolverFailure(RuntimeError):
    """Raised when a 1-d root search finds no bracket or does not converge."""


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
    return psystem_riemann_trace(model, u_left, u_right).flux_at_zero


# --- Brent's method -----------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _brent(g, a, b, ga, gb):
    """A root of g in [a, b], where ga = g(a) and gb = g(b) differ in sign
    or vanish: Brent's method (1973) with scipy brentq's steps, its stop at
    xtol = rtol = 4 eps and its limit of 100 steps (then SolverFailure)."""
    if ga == 0:
        return a
    if gb == 0:
        return b
    xpre, fpre, xcur, fcur = a, ga, b, gb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre and fcur and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 2 * _EPS * (1.0 + abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            spre, scur = (scur, stry) if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta) \
                else (sbis, sbis)
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = g(xcur)
    raise SolverFailure(f"Brent's method did not converge in 100 steps on [{a!r}, {b!r}]")


# --- p-system solver ---------------------------------------------------------


def _sqrt_sigma_p_integral(model, v0, v1):
    """Integral of sqrt(sigma'(s)) over [v0, v1] (signed), in closed form if the model has one."""
    closed = model.params.get("sqrt_sigma_prime_integral")
    if closed is not None:
        return closed(v0, v1)
    sp = model.params["sigma_prime"]
    return quad_integral(lambda s: np.sqrt(float(sp(s))), v0, v1)


def _wave_curve(model, v_end):
    """The wave curve through the state with strain v_end as two functions of
    v: whether v is on its rarefaction side, and u - u_end.  Lax: the
    rarefaction side is where sigma' is below sigma'(v_end), v <= v_end where
    sigma' rises (the elastic law at v >= 0), v >= v_end where it falls (the
    gas); the shock chord holds on the other."""
    sig, sp = model.params["sigma"], model.params["sigma_prime"]
    sig_end = float(sig(v_end))
    rises = float(sp(v_end + 1e-6 * (1.0 + abs(v_end)))) >= float(sp(v_end))

    def rarefaction(v):
        return v <= v_end if rises else v >= v_end

    def offset(v):
        if rarefaction(v):
            return _sqrt_sigma_p_integral(model, v_end, v)
        return np.copysign(np.sqrt((float(sig(v)) - sig_end) * (v - v_end)), v - v_end)

    return rarefaction, offset


def _phi1(model, v, left):
    """u on the forward 1-wave curve through ``left`` at specific strain v."""
    return left[1] + _wave_curve(model, left[0])[1](v)


def _phi2(model, v, right):
    """u of the middle state whose 2-wave reaches ``right``."""
    return right[1] - _wave_curve(model, right[0])[1](v)


def _bracket(g, a, b, bound):
    """[a, b] widened until the increasing g changes sign on it, with g at
    both ends: the end where g has the wrong sign moves out by a step that
    doubles each time, the lower one at most halfway to ``bound``."""
    ga, gb, step = g(a), g(b), 1.0 + (b - a)
    while math.isfinite(ga) and math.isfinite(gb):
        if ga > 0:
            a, b, gb = max(a - step, 0.5 * (a + bound)), a, ga
            ga = g(a) if a > bound else math.nan
        elif gb < 0:
            a, ga, b = b, gb, b + step
            gb = g(b)
        else:
            return a, b, ga, gb
        step *= 2.0
    raise SolverFailure("the p-system wave curves do not cross at a finite gap inside "
                        f"the state region (last bracket [{a!r}, {b!r}])")


def psystem_riemann_trace(model: SystemModel, left, right) -> RiemannFan:
    """Two-wave Riemann solution of a p-system (``stress_law``), traced at
    x/t = 0+.  Data outside the model's state region raise ValueError."""
    law = stress_law(model, "psystem_riemann_trace")
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    if not model.in_region(np.stack([left, right])):
        raise ValueError("Riemann data outside the model's state region")

    rare_l, off_l = _wave_curve(model, left[0])
    rare_r, off_r = _wave_curve(model, right[0])

    def g(v):  # the 1-wave curve through left minus the 2-wave curve into right
        return (left[1] + off_l(v)) - (right[1] - off_r(v))

    lo, hi = sorted((float(left[0]), float(right[0])))
    v = _brent(g, *_bracket(g, lo, hi, model.state_region[0][0]))
    middle = np.array([v, left[1] + off_l(v)])

    waves = []  # the 1-wave left -> middle, then the 2-wave middle -> right
    for sign, a, b, v_end, rare in ((-1.0, left, middle, left[0], rare_l),
                                    (1.0, middle, right, right[0], rare_r)):
        if abs(v - v_end) <= 1e-14 * (1.0 + abs(v)):
            continue
        if not rare(v):
            s = sign * np.sqrt((float(law["sigma"](v)) - float(law["sigma"](v_end))) / (v - v_end))
            waves.append(Wave("shock", a.copy(), b.copy(), (s, s)))
        else:
            speeds = tuple(sign * np.sqrt(float(law["sigma_prime"](x[0]))) for x in (a, b))
            waves.append(Wave("rarefaction", a.copy(), b.copy(), speeds))

    return RiemannFan(left, right, tuple(waves), middle, np.asarray(model.flux(middle)))
