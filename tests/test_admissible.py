import math
from dataclasses import replace

import numpy as np
import pytest

from quarterplane.admissible import (
    ScalarSet,
    bln_check,
    entropy_check,
    exclusion_set,
    godunov_set,
    inclusion_audit,
    kruzkov_worst,
    layer_member_oracle,
    layer_set_scalar,
    riemann_set_scalar,
    scheme_entropy_check,
)
from quarterplane.layers import lf_membership_scalar_batch, viscous_member_scalar
from quarterplane.riemann import godunov_trace_scalar
from quarterplane.systems import UnsupportedModelError, make_model

BURGERS = make_model("burgers")
CUBIC = make_model("cubic")
ELASTO = make_model("elastodynamics")

# CFL-compliant LF parameters for the numeric oracles over the [-3, 3] hull.
LF_BURGERS = ("lf", 0.15, 0.5)
LF_CUBIC = ("lf", 0.04, 0.5)


def outside_band(xs, s, band=2e-2):
    xs = np.asarray(xs)
    mask = np.ones(xs.shape, dtype=bool)
    for b in s.boundary_values():
        mask &= np.abs(xs - b) > band
    return mask


# ScalarSet ------------------------------------------------------------------


def test_scalar_set_membership():
    s = ScalarSet(((-np.inf, -1.0, False, True),), (1.0,))
    assert s.member(-5.0)
    assert s.member(-1.0)
    assert not s.member(-0.999)
    assert s.member(1.0)
    assert not s.member(0.5)


def test_scalar_set_json_writes_unbounded_end_as_null():
    s = ScalarSet(((-np.inf, -1.0, False, True),), (1.0,))
    assert s.as_json() == {"intervals": [[None, -1.0, False, True]], "points": [1.0]}


def test_scalar_set_invariants():
    with pytest.raises(ValueError):
        ScalarSet(((0.0, 2.0, True, True), (1.0, 3.0, True, True)))
    with pytest.raises(ValueError):
        ScalarSet(((0.0, 2.0, True, True),), (1.0,))


def test_scalar_set_rejects_reversed_or_nan_interval():
    with pytest.raises(ValueError, match="out of order"):
        ScalarSet(((-1.0, -2.0, True, True),))
    with pytest.raises(ValueError, match="out of order"):
        ScalarSet(((np.nan, 1.0, True, True),))
    assert ScalarSet(((1.0, 1.0, True, True),)).member(1.0)


# Pointwise checks ------------------------------------------------------------


def test_bln_examples():
    assert bln_check(BURGERS, -1.0, 1.0)
    assert not bln_check(BURGERS, 0.5, 1.0)
    assert bln_check(BURGERS, 0.7, 0.7)


def test_entropy_check_examples():
    quad = (BURGERS.entropies[0],)
    ok, worst = entropy_check(BURGERS, -2.0, 1.0, quad)
    assert ok and worst == pytest.approx(-4.5)
    ok, worst = entropy_check(BURGERS, 0.5, 1.0, quad)
    assert not ok and worst == pytest.approx(1.0 / 12.0)
    ok, worst = entropy_check(BURGERS, 1.0, 1.0, quad)
    assert ok and worst == 0.0


def test_kruzkov_equals_bln():
    rng = np.random.default_rng(12)
    for model in (BURGERS, CUBIC):
        for _ in range(200):
            u0, uB = rng.uniform(-3, 3, 2)
            assert bln_check(model, u0, uB) == (kruzkov_worst(model, u0, uB) <= 1e-9)


def test_kruzkov_and_bln_accept_arrays():
    rng = np.random.default_rng(13)
    for model in (BURGERS, CUBIC):
        for uB in rng.uniform(-3, 3, 5):
            u0 = np.concatenate([rng.uniform(-3, 3, 60), model.critical_points, [uB]])
            worst = kruzkov_worst(model, u0, uB)
            ok = bln_check(model, u0, uB)
            assert worst.shape == ok.shape == u0.shape
            np.testing.assert_allclose(
                worst, [kruzkov_worst(model, float(x), uB) for x in u0], rtol=0, atol=1e-12)
            assert ok.tolist() == [bln_check(model, float(x), uB) for x in u0]


# Scheme-level entropy checks -------------------------------------------------


def test_scheme_entropy_godunov_examples():
    assert scheme_entropy_check(BURGERS, ("godunov",), -2.0, 1.0, v_1=-2.0)
    assert scheme_entropy_check(BURGERS, ("godunov",), 1.0, 1.0, v_1=1.0)


def test_scheme_entropy_lf_rejects_interior():
    # A single convex pair passes at v_1 = 1 but the Kruzkov sweep rejects
    # u_0 = 0.5 for any witness.
    assert not scheme_entropy_check(BURGERS, LF_BURGERS, 0.5, 1.0)
    assert scheme_entropy_check(BURGERS, LF_BURGERS, -2.0, 1.0)


def test_scheme_entropy_matches_riemann_set():
    s = riemann_set_scalar(BURGERS, 1.0)
    grid = np.linspace(-3, 3, 61)
    for x in grid[outside_band(grid, s)]:
        got = scheme_entropy_check(BURGERS, LF_BURGERS, float(x), 1.0)
        assert got == s.member(float(x)), x


# Closed-form case tables -----------------------------------------------------


def test_riemann_set_convex():
    s = riemann_set_scalar(BURGERS, 1.0)
    assert s.intervals == ((-np.inf, -1.0, False, True),)
    assert s.points == (1.0,)
    s = riemann_set_scalar(BURGERS, -0.5)
    assert s.intervals == ((-np.inf, 0.0, False, True),)
    assert s.points == ()


def test_riemann_set_cubic_cases():
    assert riemann_set_scalar(CUBIC, 0.0).intervals == ((-1.0, 1.0, True, True),)
    assert riemann_set_scalar(CUBIC, -2.0).points == (-2.0, 1.0)
    assert riemann_set_scalar(CUBIC, 2.0).points == (-1.0, 2.0)
    assert riemann_set_scalar(CUBIC, 3.0).points == (3.0,)
    assert riemann_set_scalar(CUBIC, -3.0).points == (-3.0,)
    s = riemann_set_scalar(CUBIC, 1.5)
    (lo, hi, lc, hc), = s.intervals
    assert (lo, lc, hc) == (-1.0, True, True)
    assert hi == pytest.approx(0.39564392373895998, abs=1e-12)
    assert s.points == (1.5,)
    s = riemann_set_scalar(CUBIC, -1.5)
    (lo, hi, _, _), = s.intervals
    assert hi == 1.0
    assert lo == pytest.approx(-0.39564392373895998, abs=1e-12)


def test_exclusion_sets():
    assert exclusion_set(CUBIC, -2.0) == (1.0,)
    assert exclusion_set(CUBIC, 2.0) == (-1.0,)
    assert exclusion_set(CUBIC, 0.0) == ()
    assert exclusion_set(CUBIC, 1.5)[0] == pytest.approx(0.39564392373895998, abs=1e-12)
    assert exclusion_set(BURGERS, 1.0) == (-1.0,)
    assert exclusion_set(BURGERS, 0.0) == ()
    # below the sonic point the conjugate lies outside the Riemann set
    assert exclusion_set(BURGERS, -1.0) == ()


def test_layer_set_removes_conjugate():
    s = layer_set_scalar(BURGERS, 1.0, "viscous")
    assert not s.member(-1.0)
    assert s.member(-1.01)
    assert s.member(1.0)
    s = layer_set_scalar(CUBIC, 1.5, "viscous")
    u_l = 0.39564392373895998
    assert not s.member(u_l)
    assert s.member(u_l - 0.01)
    assert s.member(1.5)


def test_layer_set_lf_cfl_guard():
    # The CFL hypothesis lam/q sup|f'| <= 1 is checked on the hull of u_B,
    # the set's finite boundary values and the exclusions.
    layer_set_scalar(BURGERS, 1.0, ("lf", 0.02, 0.5))
    layer_set_scalar(CUBIC, 1.5, ("lf", 0.02, 0.5))
    layer_set_scalar(CUBIC, 1.5, ("lf", 0.0005, 0.5))
    # cubic hull [-1, 1.5]: sup|f'| = f'(1.5) = 1.875, and 1.875 * 0.6 > 1
    with pytest.raises(ValueError, match="CFL hypothesis"):
        layer_set_scalar(CUBIC, 1.5, ("lf", 0.3, 0.5))
    # Burgers hull [-1, 1]: sup|f'| = 1, and 1 * 1.2 > 1
    with pytest.raises(ValueError, match="CFL hypothesis"):
        layer_set_scalar(BURGERS, 1.0, ("lf", 0.6, 0.5))


def test_burgers_set_symmetry():
    # f is even, so u -> -u maps E(u_B) onto the mirror of ... E(-u_B) has the
    # conjugate interval on the other side only through the case table; check
    # membership grids mirror for the Riemann sets.
    grid = np.linspace(-3, 3, 121)
    for u_B in (-1.5, -0.5, 0.5, 1.5):
        s = riemann_set_scalar(BURGERS, u_B)
        # mirrored trace set of the mirrored flux problem: for burgers the
        # table gives E(u_B) = (-inf, -u_B] u {u_B} for u_B > 0 and
        # (-inf, 0] for u_B <= 0; verify the printed shape directly.
        if u_B > 0:
            assert s.member(-u_B) and s.member(u_B) and not s.member(-u_B + 0.05)
        else:
            assert s.member(0.0) and not s.member(0.05)


# Godunov set -----------------------------------------------------------------


def test_godunov_set_examples():
    traces = godunov_set(BURGERS, 1.0, np.arange(-3, 3.001, 0.01))
    s = riemann_set_scalar(BURGERS, 1.0)
    assert np.all([s.member(float(t)) for t in traces])
    assert traces.min() == pytest.approx(-3.0)
    assert np.any(np.abs(traces - 1.0) <= 1e-12)
    assert np.all((traces <= -1.0 + 1e-9) | (np.abs(traces - 1.0) <= 1e-9))

    assert godunov_set(BURGERS, 0.7, [0.7]) == pytest.approx([0.7])

    traces = godunov_set(CUBIC, 0.0, np.arange(-3, 3.001, 0.01))
    assert traces.min() >= -1.0 - 1e-9
    assert traces.max() <= 1.0 + 1e-9


def test_godunov_set_matches_riemann_set_on_grid():
    grid = np.linspace(-3, 3, 301)
    for model, u_B in ((BURGERS, 1.0), (CUBIC, 1.5), (CUBIC, 0.0)):
        s = riemann_set_scalar(model, u_B)
        traces = godunov_set(model, u_B, grid)
        for x in grid[outside_band(grid, s)]:
            in_set = s.member(float(x))
            near_trace = bool(np.any(np.abs(traces - x) <= 1e-6))
            assert in_set == near_trace, (model.name, u_B, x)


# Numeric layer oracles vs closed form ----------------------------------------


def test_viscous_oracle_matches_closed_form():
    grid = np.linspace(-3, 3, 241)
    for model, u_B in ((BURGERS, 1.0), (BURGERS, -0.5), (CUBIC, 0.0), (CUBIC, 1.5)):
        s = layer_set_scalar(model, u_B, "viscous")
        got = layer_member_oracle(model, u_B, grid, "viscous")
        mask = outside_band(grid, s)
        expected = s.member_grid(grid)
        assert np.array_equal(got[mask], expected[mask]), (model.name, u_B)


def test_lf_oracle_matches_closed_form():
    grid = np.linspace(-3, 3, 121)
    for model, u_B, reg in ((BURGERS, 1.0, LF_BURGERS), (CUBIC, 1.5, LF_CUBIC)):
        s = layer_set_scalar(model, u_B, ("lf", 0.0005, 0.5))
        got = layer_member_oracle(model, u_B, grid, reg)
        mask = outside_band(grid, s)
        expected = s.member_grid(grid)
        assert np.array_equal(got[mask], expected[mask]), (model.name, u_B)


def test_lf_oracle_checks_cfl_hypothesis():
    # f'(+-5) = 36 for the cubic: 36 * 0.04 / 0.5 > 1
    with pytest.raises(ValueError, match="CFL hypothesis"):
        layer_member_oracle(CUBIC, 1.5, np.linspace(-5, 5, 41), LF_CUBIC)
    with pytest.raises(ValueError, match="CFL hypothesis"):
        layer_member_oracle(CUBIC, 1.5, [-5.0], LF_CUBIC)
    # on the hull [-0.5, 0.5] |f'| peaks at the inflection point 0 (1.5),
    # not at the ends (1.125)
    layer_member_oracle(CUBIC, 0.5, [-0.5], ("lf", 0.99 * 0.5 / 1.5, 0.5))
    with pytest.raises(ValueError, match="CFL hypothesis"):
        layer_member_oracle(CUBIC, 0.5, [-0.5], ("lf", 1.01 * 0.5 / 1.5, 0.5))
    with pytest.raises(ValueError):
        layer_member_oracle(CUBIC, 0.5, [-0.5], ("godunov",))


def test_lf_batch_cross_check_agrees_with_exact_oracle():
    # Iterating the LF layer recursion itself agrees with the exact
    # phase-line verdict off the tolerance band, so the oracle's audit does
    # not rest on the monotone-map argument alone.
    grid = np.linspace(-3, 3, 61)
    for model, u_B, (_, lam, q) in ((BURGERS, 1.0, LF_BURGERS), (BURGERS, -0.5, LF_BURGERS),
                                    (CUBIC, 1.5, LF_CUBIC), (CUBIC, 0.0, LF_CUBIC)):
        exact = layer_member_oracle(model, u_B, grid, ("lf", lam, q))
        iterated = lf_membership_scalar_batch(model, lam, q, u_B, grid, y_max=20000,
                                              member_tol=5e-4 * (1.0 + np.abs(grid)))
        mask = outside_band(grid, layer_set_scalar(model, u_B, "viscous"))
        assert np.array_equal(iterated[mask], exact[mask]), (model.name, u_B)
        assert exact[mask].any() and not exact[mask].all(), (model.name, u_B)


def test_layer_exclusion_points_fail_oracles():
    # u_B^* and the E(u_B) point are Riemann-admissible but not layer-admissible.
    assert riemann_set_scalar(BURGERS, 1.0).member(-1.0)
    assert not layer_member_oracle(BURGERS, 1.0, [-1.0], "viscous")[0]
    u_l = exclusion_set(CUBIC, 1.5)[0]
    assert riemann_set_scalar(CUBIC, 1.5).member(u_l)
    assert not layer_member_oracle(CUBIC, 1.5, [u_l], "viscous")[0]
    assert not layer_member_oracle(CUBIC, 1.5, [u_l], LF_CUBIC)[0]


# Inclusion audits ------------------------------------------------------------


def test_inclusion_audits_scalar():
    for model, u_B, reg in ((BURGERS, 1.0, "viscous"),
                            (BURGERS, -0.5, LF_BURGERS),
                            (CUBIC, 1.5, LF_CUBIC),
                            (CUBIC, 0.0, "viscous")):
        rep = inclusion_audit(model, u_B, reg, n_samples=300, seed=3)
        assert rep.ok, rep
        assert rep.n_layer_members > 0


def test_inclusion_audit_elasto():
    rep = inclusion_audit(ELASTO, np.array([2.0, 0.0]), "viscous",
                          n_samples=100, seed=5)
    assert rep.ok, rep


def test_inclusion_audit_lagrangian_gas_near_vacuum():
    # v_B = 0.3: the curve strains stay inside v > 0, so no warning is raised
    rep = inclusion_audit(make_model("lagrangian_gas"), np.array([0.3, 0.0]), "viscous",
                          n_samples=200, seed=5)
    assert rep.ok, rep
    assert rep.n_layer_members == 100


def test_inclusion_audit_needs_a_stress_law():
    with pytest.raises(UnsupportedModelError, match="stress law"):
        inclusion_audit(make_model("linear2"), np.array([1.0, 0.0]), "viscous", n_samples=10)


def test_inclusion_audit_empty():
    rep = inclusion_audit(BURGERS, 1.0, "viscous", n_samples=0)
    assert rep.ok and rep.n_layer_members == 0


# Sets from flux geometry -----------------------------------------------------


def _case_table(model, u_B):
    """(Riemann intervals, points, exclusions) from the convex and cubic
    case tables that the geometric construction replaced."""
    if model.name == "burgers":
        if u_B > 0.0:
            return ((-np.inf, -u_B, False, True),), (u_B,), (-u_B,)
        return ((-np.inf, 0.0, False, True),), (), ()
    if u_B < -2.0:
        return (), (u_B,), ()
    if u_B == -2.0:
        return (), (-2.0, 1.0), (1.0,)
    if u_B < -1.0:
        u_s = min(model.level_roots(u_B))
        return ((u_s, 1.0, True, True),), (u_B,), (u_s,)
    if u_B <= 1.0:
        return ((-1.0, 1.0, True, True),), (), ()
    if u_B < 2.0:
        u_l = max(model.level_roots(u_B))
        return ((-1.0, u_l, True, True),), (u_B,), (u_l,)
    if u_B == 2.0:
        return (), (-1.0, 2.0), (-1.0,)
    return (), (u_B,), ()


def _exact(intervals, points):
    # float.hex tells the zeros apart, so the sign of the sonic 0 is checked
    return ([(float(lo).hex(), float(hi).hex(), lc, hc) for lo, hi, lc, hc in intervals],
            [float(p).hex() for p in points])


def test_sets_match_case_tables():
    for model in (BURGERS, CUBIC):
        for u_B in list(np.linspace(-3.0, 3.0, 6001)) + [0.0, 1.0, -1.0, 2.0, -2.0]:
            u_B = float(u_B)
            ivs, pts, excl = _case_table(model, u_B)
            layer_ivs = tuple((lo, hi, lc and lo not in excl, hc and hi not in excl)
                              for lo, hi, lc, hc in ivs)
            layer_pts = tuple(p for p in pts if p not in excl)
            r = riemann_set_scalar(model, u_B)
            lay = layer_set_scalar(model, u_B, "viscous")
            tag = (model.name, u_B)
            assert _exact(r.intervals, r.points) == _exact(ivs, pts), tag
            assert [float(x).hex() for x in exclusion_set(model, u_B)] == \
                [float(x).hex() for x in excl], tag
            assert _exact(lay.intervals, lay.points) == _exact(layer_ivs, layer_pts), tag


def _quartic_level_roots(u):
    # f(v) - f(u) = (v - u)(v + u)(v^2 + u^2 - 2)/4
    u = float(u)
    roots = {-u}
    if u * u <= 2.0 + 1e-12:  # a double root 0 at |u| = sqrt(2)
        r = math.sqrt(max(2.0 - u * u, 0.0))
        roots |= {-r, r}
    return tuple(sorted(roots - {u}))


# A flux outside the catalog: the double well f = u^4/4 - u^2/2, with two
# local minima (f(+-1) = -1/4) and a local maximum (f(0) = 0).  Only the
# fields that the sets, traces and scalar oracles read are replaced.
QUARTIC = replace(
    CUBIC, name="quartic",
    flux=lambda u: np.asarray(u, dtype=float) ** 4 / 4.0 - np.asarray(u, dtype=float) ** 2 / 2.0,
    dflux=lambda u: np.asarray(u, dtype=float) ** 3 - np.asarray(u, dtype=float),
    critical_points=(-1.0, 0.0, 1.0), inflection_points=(-3.0 ** -0.5, 3.0 ** -0.5),
    level_roots=_quartic_level_roots, entropies=())


def test_quartic_sets_agree_with_traces_and_oracles():
    grid = np.linspace(-3.0, 3.0, 1201)
    for u_B in (-2.0, -math.sqrt(2.0), -1.0, -0.5, 0.0, 1.2, math.sqrt(2.0), 2.0):
        r = riemann_set_scalar(QUARTIC, u_B)
        keep = outside_band(grid, r)
        traces = godunov_set(QUARTIC, u_B, grid)
        near_trace = np.array([np.any(np.abs(traces - x) <= 1e-6) for x in grid])
        in_set = r.member_grid(grid)
        assert np.array_equal(in_set[keep], near_trace[keep]), u_B
        assert np.array_equal(in_set[keep], bln_check(QUARTIC, grid, u_B)[keep]), u_B
        lay = layer_set_scalar(QUARTIC, u_B, "viscous")
        keep = outside_band(grid, lay)
        assert np.array_equal(lay.member_grid(grid)[keep],
                              viscous_member_scalar(QUARTIC, u_B, grid)[keep]), u_B
    # u_B = -2: the trace 1 is isolated, and f(1) ties with the critical
    # value f(-1) on the way, so no layer reaches it
    r = riemann_set_scalar(QUARTIC, -2.0)
    assert r.intervals == ((-np.inf, -1.0, False, True),) and r.points == (1.0,)
    assert godunov_trace_scalar(QUARTIC, -2.0, 1.0) == 1.0
    assert exclusion_set(QUARTIC, -2.0) == (1.0,)
    assert not layer_set_scalar(QUARTIC, -2.0, "viscous").member(1.0)
    assert not viscous_member_scalar(QUARTIC, -2.0, 1.0)


def test_sets_need_level_roots():
    for model in (replace(CUBIC, level_roots=None), ELASTO):
        with pytest.raises(UnsupportedModelError):
            riemann_set_scalar(model, 0.5)
        with pytest.raises(UnsupportedModelError):
            layer_set_scalar(model, 0.5, "viscous")
