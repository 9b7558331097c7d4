"""Reference computations for the benchmark checks.

Everything here is written out from the mathematics (closed forms, fine grids,
scipy quadrature and root finding) and does not import ``quarterplane``, so a
check built on it cannot agree with the program merely by sharing its code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

# --- Fluxes and entropy pairs, written out by hand ---------------------------


def burgers_f(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * u * u


def burgers_df(u):
    return np.asarray(u, dtype=float) + 0.0


def cubic_f(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * (u ** 3 - 3.0 * u)


def cubic_df(u):
    u = np.asarray(u, dtype=float)
    return 1.5 * u * u - 1.5


SCALAR = {
    "burgers": (burgers_f, burgers_df, (0.0,)),
    "cubic": (cubic_f, cubic_df, (-1.0, 1.0)),
}


def entropy_pairs(name):
    """(U, F) pairs for a scalar model: u^2/2 with its flux, and +-u, +-f."""
    f = SCALAR[name][0]
    if name == "burgers":
        def big_f(u):
            return np.asarray(u, dtype=float) ** 3 / 3.0
    else:
        def big_f(u):  # F' = u f'(u) = 1.5 (u^3 - u)
            u = np.asarray(u, dtype=float)
            return 0.375 * u ** 4 - 0.75 * u ** 2
    return [
        (lambda u: 0.5 * np.asarray(u, dtype=float) ** 2, big_f),
        (lambda u: np.asarray(u, dtype=float) + 0.0, f),
        (lambda u: -np.asarray(u, dtype=float), lambda u: -f(u)),
    ]


def sigma(v):
    """Default p-system stress sigma(v) = v + v^3/3."""
    return v + v ** 3 / 3.0


def sigma_prime(v):
    return 1.0 + v * v


def psystem_flux(state):
    v, u = float(state[0]), float(state[1])
    return np.array([-u, -sigma(v)])


# --- Scalar Riemann traces ---------------------------------------------------


def scalar_riemann_trace(name, v, w, n_grid=20001):
    """Trace at x/t = 0+ of the Riemann problem (v, w) for a scalar flux.

    The largest minimizer of f on [v, w] when v <= w, the smallest maximizer
    on [w, v] otherwise, located on a fine grid and polished with a bounded
    scalar minimizer.  Returns (trace, gap), where ``gap`` is the flux margin
    by which the chosen extremum beats the runner-up local extremum; a tiny
    gap means the data sit on a tie and the answer is ill-conditioned.
    """
    f = SCALAR[name][0]
    v, w = float(v), float(w)
    if v == w:
        return v, math.inf
    lo, hi = min(v, w), max(v, w)
    sign = 1.0 if v <= w else -1.0  # minimize sign * f
    xs = np.linspace(lo, hi, n_grid)
    ys = sign * f(xs)
    step = xs[1] - xs[0]
    cands = {lo: float(sign * f(lo)), hi: float(sign * f(hi))}
    interior = np.nonzero((ys[1:-1] <= ys[:-2]) & (ys[1:-1] <= ys[2:]))[0] + 1
    for i in interior:
        a, b = max(lo, xs[i] - step), min(hi, xs[i] + step)
        res = minimize_scalar(lambda x: float(sign * f(x)), bounds=(a, b),
                              method="bounded", options={"xatol": 1e-13})
        cands[float(res.x)] = float(res.fun)
    vals = sorted(cands.items(), key=lambda kv: kv[1])
    best = vals[0][1]
    tol = 1e-12 * (1.0 + abs(best))
    tied = [x for x, y in vals if y <= best + tol]
    trace = max(tied) if sign > 0 else min(tied)
    others = [y for x, y in vals if abs(x - trace) > 1e-6 and x not in tied]
    gap = (min(others) - best) if others else math.inf
    if len(tied) > 1:
        gap = 0.0
    return trace, gap


def godunov_trace_vec(name, v, w):
    """Vectorized Riemann trace for the Godunov entropy flux: the extremum of
    f over the endpoints and the interior critical points of f."""
    f, _, crit = SCALAR[name]
    v, w = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    lo, hi = np.minimum(v, w), np.maximum(v, w)
    cand = np.stack([lo, hi] + [np.clip(c, lo, hi) for c in crit])
    fv = f(cand)
    up = np.where(fv <= fv.min(axis=0), cand, -np.inf).max(axis=0)
    down = np.where(fv >= fv.max(axis=0), cand, np.inf).min(axis=0)
    return np.where(v <= w, up, down)


def cell_entropy_residual(name, scheme, history, lam, q=None, chunk=100):
    """Largest U(u^{n+1}) - U(u^n) + lam (G_{j+1/2} - G_{j-1/2}) over the
    interior cells of a stored scalar history, for every entropy pair.
    Works through the history ``chunk`` time levels at a time so the
    temporaries stay small next to the history itself."""
    hist = np.asarray(history, dtype=float)
    worst = 0.0
    for start in range(0, hist.shape[0] - 1, chunk):
        cur = hist[start:start + chunk]
        nxt = hist[start + 1:start + chunk + 1]
        cur = cur[:nxt.shape[0]]
        right = np.concatenate([cur[:, 1:], cur[:, -1:]], axis=1)
        for big_u, big_f in entropy_pairs(name):
            if scheme in ("lf", "split"):
                g = 0.5 * (big_f(cur) + big_f(right)) - (q / lam) * (big_u(right) - big_u(cur))
            elif scheme == "godunov":
                g = big_f(godunov_trace_vec(name, cur, right))
            else:
                raise ValueError(scheme)
            res = big_u(nxt[:, 1:]) - big_u(cur[:, 1:]) + lam * (g[:, 1:] - g[:, :-1])
            worst = max(worst, float(res.max()))
    return worst


# --- Admissible boundary sets -----------------------------------------------


@dataclass(frozen=True)
class RefSet:
    """Union of intervals (lo, hi, lo_closed, hi_closed) and isolated points."""

    intervals: tuple = ()
    points: tuple = ()

    def member(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for p in self.points:
            out |= x == p
        for lo, hi, lc, hc in self.intervals:
            above = x >= lo if lc else x > lo
            below = x <= hi if hc else x < hi
            out |= above & below
        return out

    def boundary_values(self):
        vals = set(self.points)
        for lo, hi, _, _ in self.intervals:
            vals.update(v for v in (lo, hi) if math.isfinite(v))
        return tuple(sorted(vals))


def conjugate(name, u_b):
    """The other root of f(u) = f(u_b), by bracketing root search."""
    f = SCALAR[name][0]
    target = float(f(u_b))
    direction = -1.0 if u_b > 0.0 else 1.0
    far = direction * max(1.0, 2.0 * abs(u_b))
    return brentq(lambda u: float(f(u)) - target,
                  *sorted((far, 0.0)), xtol=1e-15, rtol=4 * np.finfo(float).eps)


def cubic_companions(u_b):
    """Roots of u^2 + u_B u + u_B^2 - 3 (f(u) = f(u_B), u != u_B)."""
    roots = np.roots([1.0, u_b, u_b * u_b - 3.0])
    return tuple(sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12))


def boundary_sets(name, u_b):
    """(Riemann trace set, layer set, excluded points) for Burgers or the
    cubic flux, from the case tables of the convex and cubic theorems."""
    u_b = float(u_b)
    inf = math.inf
    if name == "burgers":
        if u_b > 0.0:
            c = conjugate(name, u_b)
            return (RefSet(((-inf, c, False, True),), (u_b,)),
                    RefSet(((-inf, c, False, False),), (u_b,)), (c,))
        r = RefSet(((-inf, 0.0, False, True),))
        return r, r, ()
    if u_b < -2.0 or u_b > 2.0:
        r = RefSet((), (u_b,))
        return r, r, ()
    if u_b == -2.0:
        return RefSet((), (-2.0, 1.0)), RefSet((), (-2.0,)), (1.0,)
    if u_b == 2.0:
        return RefSet((), (-1.0, 2.0)), RefSet((), (2.0,)), (-1.0,)
    if -1.0 <= u_b <= 1.0:
        r = RefSet(((-1.0, 1.0, True, True),))
        return r, r, ()
    comp = cubic_companions(u_b)
    if u_b < -1.0:
        s = comp[0]
        return (RefSet(((s, 1.0, True, True),), (u_b,)),
                RefSet(((s, 1.0, False, True),), (u_b,)), (s,))
    s = comp[-1]
    return (RefSet(((-1.0, s, True, True),), (u_b,)),
            RefSet(((-1.0, s, True, False),), (u_b,)), (s,))


def off_band(xs, marks, band=2e-2):
    """Mask of grid points farther than ``band`` from every marked value."""
    xs = np.asarray(xs, dtype=float)
    keep = np.ones(xs.shape, dtype=bool)
    for m in marks:
        keep &= np.abs(xs - m) > band
    return keep


def viscous_member(name, u_b, v_inf, n_grid=4001):
    """Phase-line test for v' = f(v) - f(v_inf) on a fine grid: the orbit
    from u_B reaches v_inf iff f - f(v_inf) keeps the sign that points at
    v_inf on the half-open interval from u_B to v_inf."""
    f = SCALAR[name][0]
    if u_b == v_inf:
        return True
    xs = np.linspace(u_b, v_inf, n_grid)[:-1]
    d = f(xs) - float(f(v_inf))
    return bool(np.all(d < 0.0)) if v_inf < u_b else bool(np.all(d > 0.0))


def phase_margin(name, u_b, v_inf, n_grid=4001):
    """How far the phase-line verdict is from flipping: |min g| over the
    interval from u_B to v_inf (less its last 5 %), where g = f - f(v_inf)
    signed so that membership means g > 0 throughout."""
    f = SCALAR[name][0]
    xs = np.linspace(u_b, v_inf, n_grid)
    xs = xs[np.abs(xs - v_inf) > 0.05 * abs(u_b - v_inf)]
    g = f(xs) - float(f(v_inf))
    return float(abs(np.min(g if v_inf > u_b else -g)))


# --- Systems -----------------------------------------------------------------


def elasto_curve_u(base, v_inf):
    """Layer-limit curve of the viscous p-system through the base point:
    u = u_B -+ sqrt(2 int (sigma(s) - sigma(v)) ds)."""
    v_b, u_b = float(base[0]), float(base[1])
    v = float(v_inf)
    if v == v_b:
        return u_b
    if v < v_b:
        val, _ = quad(lambda s: sigma(s) - sigma(v), v, v_b, epsabs=1e-14, epsrel=1e-13)
        return u_b - math.sqrt(2.0 * val)
    val, _ = quad(lambda s: sigma(v) - sigma(s), v_b, v, epsabs=1e-14, epsrel=1e-13)
    return u_b + math.sqrt(2.0 * val)


def elasto_tangent(base):
    t = np.array([1.0, math.sqrt(sigma_prime(float(base[0])))])
    return t / np.linalg.norm(t)


def euler_region(rho, u, gamma):
    """Region I..V of an isentropic Euler state by the signs of u -+ c."""
    c = math.sqrt(gamma * rho ** (gamma - 1.0))
    tol = 1e-9 * (1.0 + abs(u) + c)
    if u - c > tol:
        return "V"
    if abs(u - c) <= tol:
        return "IV"
    if u + c > tol:
        return "III"
    if abs(u + c) <= tol:
        return "II"
    return "I"


def lagrangian_factors(lam, v):
    """Amplification pair of the Lagrangian discrete layer at volume v."""
    a1 = (1.0 - lam / v) / (1.0 + lam / v)
    return a1, 1.0 / a1


def linear2_spectrum(a, b_diag):
    """Sorted real spectrum of B^-1 A."""
    return np.sort(np.linalg.eigvals(np.linalg.solve(np.diag(b_diag), np.asarray(a))).real)


def lf_amplification(name, lam, q, v_inf):
    """Discrete layer factor (1 + mu f'(v)) / (1 - mu f'(v)), mu = lam/2q."""
    mu = lam / (2.0 * q)
    d = float(SCALAR[name][1](v_inf))
    return (1.0 + mu * d) / (1.0 - mu * d)
