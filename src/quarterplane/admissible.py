"""Sets of admissible boundary values and their membership checks.

Four characterizations are implemented and cross-validated: closed-form sets
from the flux geometry (critical points and level roots), pointwise inequality
checks (the sign-condition test and entropy-pair tests), scheme-level entropy
checks with numerical entropy fluxes, and the Riemann-trace set {R(u_B, w)}.

Sign convention: the pointwise condition is implemented as
(sgn(u_0 - k) - sgn(u_B - k)) (f(u_0) - f(k)) <= 0 for all k; only this sign
reproduces the closed-form sets, so the opposite printed inequality is
treated as a typo (see the design notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from quarterplane.layers import elasto_layer_curve, viscous_member_scalar
from quarterplane.riemann import godunov_flux, godunov_trace_scalar
from quarterplane.schemes import numerical_flux
from quarterplane.systems import SystemModel, UnsupportedModelError, kruzkov_pair, stress_law

__all__ = [
    "ScalarSet",
    "AuditReport",
    "bln_check",
    "entropy_check",
    "kruzkov_worst",
    "scheme_entropy_check",
    "riemann_set_scalar",
    "exclusion_set",
    "layer_set_scalar",
    "godunov_set",
    "inclusion_audit",
]

TOL_SET = 1e-9  # closed-form sets
TOL_SAMPLED = 1e-4  # sampled / numeric sets
BOX = (-3.0, 3.0)  # the state interval that scheme checks scan and audits sample


@dataclass(frozen=True)
class ScalarSet:
    """Union of disjoint intervals and isolated points on the real line."""

    intervals: tuple = ()  # (lo, hi, lo_closed, hi_closed), +-inf allowed
    points: tuple = ()

    def __post_init__(self):
        ivs = sorted(self.intervals)
        if not all(lo <= hi for lo, hi, *_ in ivs):  # false at a NaN end too
            raise ValueError(f"interval ends out of order: {ivs}")
        for (a, b, *_), (c, d, *_) in zip(ivs, ivs[1:]):
            if c < b:
                raise ValueError("intervals overlap")
        for p in self.points:
            for lo, hi, *_ in ivs:
                if lo < p < hi:
                    raise ValueError("isolated point interior to an interval")
        object.__setattr__(self, "intervals", tuple(ivs))
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    def member(self, x: float) -> bool:
        for p in self.points:
            if abs(x - p) <= TOL_SET:
                return True
        for lo, hi, lo_c, hi_c in self.intervals:
            above = x >= lo - TOL_SET if lo_c else x > lo
            below = x <= hi + TOL_SET if hi_c else x < hi
            if above and below:
                return True
        return False

    def member_grid(self, xs) -> np.ndarray:
        return np.array([self.member(float(x)) for x in np.asarray(xs)])

    def boundary_values(self):
        """Finite endpoints and isolated points (for tolerance-band masking)."""
        vals = list(self.points)
        for lo, hi, *_ in self.intervals:
            for v in (lo, hi):
                if np.isfinite(v):
                    vals.append(v)
        return tuple(sorted(set(vals)))

    def as_json(self) -> dict:
        """Strict-JSON form; an unbounded interval end is written as null."""
        def end(v):
            return float(v) if np.isfinite(v) else None
        return {
            "intervals": [[end(lo), end(hi), bool(lc), bool(hc)]
                          for lo, hi, lc, hc in self.intervals],
            "points": list(self.points),
        }


@dataclass(frozen=True)
class AuditReport:
    model_name: str
    u_B: object
    regularization: object
    n_samples: int
    n_layer_members: int
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# --- Pointwise checks --------------------------------------------------------


def kruzkov_worst(model: SystemModel, u_0, u_B: float):
    """sup over k of the boundary entropy expression for the |u - k| family,
    elementwise over u_0.

    The supremum is attained at an extremum of f between the two states,
    which is the Godunov flux g(u_B, u_0) = f(R(u_B, u_0)): it equals
    2 sgn(u_B - u_0) (g(u_B, u_0) - f(u_0)).
    """
    u_0 = np.asarray(u_0, dtype=float)
    g = godunov_flux(model, u_B, u_0)
    worst = 2.0 * np.sign(u_B - u_0) * (g - np.asarray(model.flux(u_0)))
    return float(worst) if worst.ndim == 0 else worst


def bln_check(model: SystemModel, u_0, u_B: float):
    """Pointwise sign-condition test for scalar boundary data, elementwise
    over u_0 and evaluated exactly: for u_0 < u_B it reduces to
    f(u_0) >= max f on [u_0, u_B], for u_0 > u_B to f(u_0) <= min f on
    [u_B, u_0], which is kruzkov_worst <= 0."""
    if model.dimension != 1:
        raise UnsupportedModelError("scalar models only")
    ok = np.asarray(kruzkov_worst(model, u_0, u_B)) <= 2.0 * TOL_SET
    return bool(ok) if ok.ndim == 0 else ok


def entropy_check(model: SystemModel, u_0, u_B, pairs=None):
    """Boundary entropy inequality F(u_0) - F(u_B) - grad U(u_B).(f(u_0) - f(u_B)) <= 0
    over the supplied pairs.  Returns (ok, worst left-hand side).

    For systems the model's finite entropy list is only a necessary
    condition: ok means "not refuted"."""
    if pairs is None:
        pairs = model.entropies
    scalar = model.dimension == 1
    a0 = float(u_0) if scalar else np.asarray(u_0, dtype=float)
    aB = float(u_B) if scalar else np.asarray(u_B, dtype=float)
    df = np.atleast_1d(np.asarray(model.flux(a0)) - np.asarray(model.flux(aB)))
    worst = -np.inf
    for pair in pairs:
        lhs = float(pair.F(a0)) - float(pair.F(aB)) \
            - float(np.dot(np.atleast_1d(pair.grad_U(aB)), df))
        worst = max(worst, lhs)
    return worst <= TOL_SET, worst


# --- Scheme-level entropy checks ---------------------------------------------


def scheme_entropy_check(model: SystemModel, scheme, u_0: float, u_B: float,
                         v_1=None) -> bool:
    """Existence of an interior witness v_1 with G_k(u_B, v_1) >= F_k(u_0)
    for the whole Kruzkov family (k on a grid over the state box).

    With v_1 supplied, checks that witness; otherwise scans a grid of
    candidates and polishes the best margin with a bounded 1-d optimizer."""
    if model.dimension != 1:
        raise UnsupportedModelError("scalar models only")
    n_grid = 601
    lo = min(BOX[0], u_0, u_B) - 0.5
    hi = max(BOX[1], u_0, u_B) + 0.5
    pair = kruzkov_pair(model, np.linspace(lo, hi, n_grid))
    G = numerical_flux(model, scheme, pair.F, pair.U)
    f_0 = pair.F(u_0)

    def margin(v):  # min over k of G_k(u_B, v) - F_k(u_0); v may be a column
        return np.min(G(u_B, v) - f_0, axis=-1)

    if v_1 is not None:
        return float(margin(float(v_1))) >= -TOL_SAMPLED

    v_grid = np.linspace(lo, hi, n_grid)
    margins = margin(v_grid[:, None])
    best = int(np.argmax(margins))
    if margins[best] >= -TOL_SAMPLED:
        return True
    from scipy.optimize import minimize_scalar

    bracket_lo = v_grid[max(best - 1, 0)]
    bracket_hi = v_grid[min(best + 1, n_grid - 1)]
    res = minimize_scalar(lambda v: -float(margin(v)),
                          bounds=(bracket_lo, bracket_hi), method="bounded",
                          options={"xatol": 1e-10})
    return -res.fun >= -TOL_SAMPLED


# --- Sets from flux geometry -------------------------------------------------


def _trace_marks(model: SystemModel, u_B: float):
    """(xs, member, tie) over xs = [gap sample, mark, ..., mark, gap sample].

    By Osher's formula v < u_B is a trace iff f(v) >= max f on [v, u_B], and
    v > u_B iff f(v) <= min f on [u_B, v] (Dubois-LeFloch 1988).  The marks
    are u_B, the critical points and the level roots of both, so f is
    monotone on each gap and one sample decides it.  A member v != u_B is a
    tie, reached by no layer, if it is a level root of u_B or of a critical
    point between u_B and v: read off where the mark came from."""
    if model.dimension != 1 or model.level_roots is None:
        raise UnsupportedModelError("closed-form sets need a scalar flux with level roots")
    u_B = float(u_B)
    if not abs(u_B) < np.inf:
        raise ValueError(f"u_B must be finite, got {u_B!r}")
    crit = [float(c) for c in model.critical_points]
    # mark -> the states it is a level root of (u_B = c keeps c's signed zero)
    levels = dict.fromkeys(crit + [u_B], ())
    for state in [u_B] + crit:
        for r in map(float, model.level_roots(state)):
            levels[r] = levels.get(r, ()) + (state,)
    marks = sorted(levels)
    xs = [marks[0] - 1.0 - abs(marks[0])]
    for a, b in zip(marks, marks[1:]):
        xs += [a, 0.5 * a + 0.5 * b]
    xs += [marks[-1], marks[-1] + 1.0 + abs(marks[-1])]
    fx = np.asarray(model.flux(np.array(xs))).tolist()
    i_B = 2 * marks.index(u_B) + 1
    member = [False] * len(xs)
    for stop, sign in ((-1, 1.0), (len(xs), -1.0)):  # running max of f leftward, of -f rightward
        run = sign * fx[i_B]
        for i in range(i_B, stop, -1 if stop < 0 else 1):
            if sign * fx[i] >= run:
                member[i], run = True, sign * fx[i]
    tie = [False] * len(xs)
    for i, v in zip(range(1, len(xs), 2), xs[1::2]):
        member[i] = member[i - 1] or member[i] or member[i + 1]  # the set is closed
        tie[i] = member[i] and any(min(u_B, v) <= s <= max(u_B, v) for s in levels[v])
    return xs, member, tie


def _scalar_set(xs, keep) -> ScalarSet:
    """Runs of kept items as intervals, closed at kept end marks; lone kept marks as points."""
    ends = [-np.inf] + xs + [np.inf]  # item k lies between ends[k] and ends[k + 2]
    intervals, points = [], []
    for kept, run in groupby(range(len(xs)), keep.__getitem__):
        run = list(run)
        i, j = run[0], run[-1]
        if kept and i == j and i % 2:
            points.append(xs[i])
        elif kept:
            intervals.append((ends[i + i % 2], ends[j + 2 - j % 2], i % 2 == 1, j % 2 == 1))
    return ScalarSet(tuple(intervals), tuple(points))


def riemann_set_scalar(model: SystemModel, u_B: float) -> ScalarSet:
    """The set {R(u_B, w)} of boundary Riemann traces with left state u_B."""
    return _scalar_set(*_trace_marks(model, u_B)[:2])


def exclusion_set(model: SystemModel, u_B: float) -> tuple:
    """The ties: points of the Riemann set that no boundary layer reaches."""
    xs, _, tie = _trace_marks(model, u_B)
    return tuple(x for x, t in zip(xs, tie) if t)


def _lf_params(regularization):
    """(lam, q) of an ("lf", lam, q) regularization; None for "viscous"."""
    if regularization == "viscous":
        return None
    if isinstance(regularization, tuple) and len(regularization) == 3 \
            and regularization[0] == "lf":
        return regularization[1:]
    raise ValueError("regularization must be 'viscous' or ('lf', lam, q)")


def _require_lf_cfl(model: SystemModel, lam: float, q: float, lo, hi) -> None:
    """Raise ValueError unless lam/q sup|f'| <= 1 on every [lo, hi]
    (elementwise).  |f'| peaks on an interval at an end or at an inflection
    point of f inside it."""
    if model.dimension != 1:
        raise UnsupportedModelError("scalar models only")
    where = np.array([lo, hi] + [np.minimum(np.maximum(c, lo), hi) for c in model.inflection_points],
                     dtype=float)  # one row per candidate point, one column per interval
    ratio = lam / q * np.abs(model.dflux(where)).max(axis=0)
    if not (ratio <= 1.0 + 1e-12).all():
        k = int(np.argmax(np.nan_to_num(ratio, nan=np.inf)))  # the worst interval
        raise ValueError(f"CFL hypothesis lam/q sup|f'| <= 1 violated: "
                         f"{ratio.flat[k]:.6g} on [{where[0].flat[k]:g}, {where[1].flat[k]:g}]")


def layer_set_scalar(model: SystemModel, u_B: float, regularization) -> ScalarSet:
    """Closed-form layer-admissible set: the Riemann set minus its ties.
    For ("lf", lam, q) the LF and viscous sets coincide under the CFL
    hypothesis lam/q sup|f'| <= 1 (``layer_member_oracle``); a violation on
    the hull of the marks in the Riemann set raises ValueError."""
    lf = _lf_params(regularization)
    xs, member, tie = _trace_marks(model, u_B)
    if lf is not None:
        inside = [x for x, m in zip(xs[1::2], member[1::2]) if m]
        _require_lf_cfl(model, *lf, min(inside), max(inside))
    return _scalar_set(xs, [m and not t for m, t in zip(member, tie)])


def godunov_set(model: SystemModel, u_B: float, w_grid) -> np.ndarray:
    """Traces {R(u_B, w)} over the candidate grid, deduplicated."""
    w = np.asarray(w_grid, dtype=float)
    if w.size == 0:
        return w
    traces = godunov_trace_scalar(model, np.full_like(w, float(u_B)), w)
    traces = np.sort(traces)
    keep = np.concatenate([[True], np.diff(traces) > TOL_SET])
    return traces[keep]


# --- Membership oracles and the inclusion audit ------------------------------


def layer_member_oracle(model: SystemModel, u_B: float, candidates, regularization) -> np.ndarray:
    """Layer membership of a batch of scalar candidates v_inf, exact on the
    phase line (``layers.viscous_member_scalar``).

    "viscous": the trajectory of v' = f(v) - f(v_inf) from u_B reaches v_inf.
    ("lf", lam, q): the same verdict, by the monotone-map argument of the
    ``layers`` docstring.  It needs mu |f'| < 1, mu = lam/(2q), on each
    candidate's hull [min(u_B, v_inf), max(u_B, v_inf)].  The paper's CFL
    hypothesis lam/q sup|f'| <= 1 on that hull implies it; it is checked
    for every candidate, and a violation raises ValueError."""
    u_B = float(u_B)
    v = np.asarray(candidates, dtype=float)
    lf = _lf_params(regularization)
    if lf is not None:
        _require_lf_cfl(model, *lf, np.minimum(u_B, v), np.maximum(u_B, v))
    return viscous_member_scalar(model, u_B, v)


def inclusion_audit(model: SystemModel, u_B, regularization, n_samples: int = 1000,
                    seed: int = 0) -> AuditReport:
    """Sample candidate limits and assert layer membership implies entropy
    membership; returns the (expected empty) list of counterexamples."""
    rng = np.random.default_rng(seed)
    violations = []

    if model.dimension == 1:
        samples = rng.uniform(BOX[0], BOX[1], n_samples)
        members = layer_member_oracle(model, float(u_B), samples, regularization)
        n_members = int(members.sum())
        worst = kruzkov_worst(model, samples[members], float(u_B))
        violations = samples[members][worst > TOL_SAMPLED].tolist()
        return AuditReport(model.name, float(u_B), regularization, n_samples,
                           n_members, tuple(violations))

    stress_law(model, "a system audit")
    if regularization != "viscous":
        raise UnsupportedModelError("system audits are supported for the viscous p-system")
    u_B = np.asarray(u_B, dtype=float)
    n_curve = max(n_samples // 2, 0)
    # strains within 0.5 of v_B, and closer than half its distance to the region's bound
    half = min(0.5, 0.5 * (u_B[0] - model.state_region[0][0]))
    vs = u_B[0] + rng.uniform(-half, half, n_curve)
    for pt in elasto_layer_curve(model, u_B, vs).points:
        ok, worst = entropy_check(model, pt, u_B)
        if not ok:
            violations.append((float(pt[0]), float(pt[1]), worst))
    # off-curve samples are not layer members; the implication is vacuous
    return AuditReport(model.name, tuple(u_B), regularization, n_samples,
                       n_curve, tuple(violations))
