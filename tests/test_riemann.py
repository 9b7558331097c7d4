import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quarterplane.riemann import (
    SolverFailure,
    godunov_flux,
    godunov_trace_scalar,
    psystem_riemann_trace,
    scalar_riemann_trace,
)
from quarterplane.systems import make_model

BURGERS = make_model("burgers")
CUBIC = make_model("cubic")
ELASTO = make_model("elastodynamics")
LAGR = make_model("lagrangian_gas")


# Scalar traces ---------------------------------------------------------------


def test_burgers_leftgoing_shock():
    fan = scalar_riemann_trace(BURGERS, 1.0, -2.0)
    assert len(fan.waves) == 1
    assert fan.waves[0].kind == "shock"
    assert fan.waves[0].speed == pytest.approx(-0.5)
    assert fan.trace_at_zero_plus == pytest.approx(-2.0)


def test_burgers_sonic_rarefaction():
    fan = scalar_riemann_trace(BURGERS, -1.0, 2.0)
    assert fan.waves[0].kind == "rarefaction"
    assert fan.trace_at_zero_plus == pytest.approx(0.0)
    assert fan.flux_at_zero == pytest.approx(0.0)


def test_constant_data():
    for m in (BURGERS, CUBIC):
        fan = scalar_riemann_trace(m, 0.7, 0.7)
        assert fan.waves == ()
        assert fan.trace_at_zero_plus == 0.7


def test_stationary_shock_resolves_right():
    # f(1) = f(-1) for Burgers: a zero-speed shock; the 0+ trace is the
    # right state.
    fan = scalar_riemann_trace(BURGERS, 1.0, -1.0)
    assert fan.waves[0].speed == pytest.approx(0.0, abs=1e-15)
    assert fan.trace_at_zero_plus == pytest.approx(-1.0)


def test_cubic_composite_wave():
    # Rising data crossing the inflection: tangential shock then rarefaction.
    fan = scalar_riemann_trace(CUBIC, -2.0, 2.0)
    kinds = [w.kind for w in fan.waves]
    assert kinds == ["shock", "rarefaction"]
    assert fan.waves[0].right == pytest.approx(1.0)  # tangency at -a/2
    speeds = [s for w in fan.waves for s in w.speed_range]
    assert speeds == sorted(speeds)


# Godunov flux ----------------------------------------------------------------


def test_godunov_flux_examples():
    assert godunov_flux(BURGERS, 1.0, -2.0) == pytest.approx(2.0)
    assert godunov_flux(BURGERS, -1.0, 2.0) == pytest.approx(0.0)
    assert godunov_flux(BURGERS, 0.4, 0.4) == pytest.approx(0.08)


@settings(max_examples=200, deadline=None)
@given(v=st.floats(-3, 3), w=st.floats(-3, 3))
def test_godunov_flux_minmax_formula(v, w):
    # min/max of f over the data interval, cross-checked on a fine grid.
    for m in (BURGERS, CUBIC):
        g = float(godunov_flux(m, v, w))
        lo, hi = min(v, w), max(v, w)
        grid = np.linspace(lo, hi, 1201)
        grid = np.concatenate([grid, [c for c in m.critical_points if lo <= c <= hi]])
        fg = np.asarray(m.flux(grid))
        expected = fg.min() if v <= w else fg.max()
        assert g == pytest.approx(expected, abs=5e-6)


@settings(max_examples=150, deadline=None)
@given(v=st.floats(-3, 3), w=st.floats(-3, 3))
def test_trace_flux_coherence_and_monotone_speeds(v, w):
    for m in (BURGERS, CUBIC):
        fan = scalar_riemann_trace(m, v, w)
        speeds = [s for wave in fan.waves for s in wave.speed_range]
        assert speeds == sorted(speeds)
        interior_raref = any(
            wave.kind == "rarefaction" and wave.speed_range[0] < -1e-9 < 1e-9 < wave.speed_range[1]
            for wave in fan.waves
        )
        if interior_raref:
            assert abs(float(m.dflux(fan.trace_at_zero_plus))) <= 1e-9
        else:
            g = float(godunov_flux(m, v, w))
            assert float(m.flux(fan.trace_at_zero_plus)) == pytest.approx(g, abs=1e-12)


def test_trace_matches_vectorized_trace():
    rng = np.random.default_rng(7)
    vs = rng.uniform(-3, 3, 200)
    ws = rng.uniform(-3, 3, 200)
    for m in (BURGERS, CUBIC):
        tr_vec = godunov_trace_scalar(m, vs, ws)
        for v, w, t in zip(vs, ws, tr_vec):
            fan = scalar_riemann_trace(m, v, w)
            assert float(m.flux(fan.trace_at_zero_plus)) == pytest.approx(float(m.flux(t)), abs=1e-10)


def test_godunov_trace_near_tie_takes_upwind_state():
    # The shock 2 -> 2 - 1e-12 moves right, so the 0+ trace is the left state;
    # a tie tolerance on f would return the downwind state instead.
    assert godunov_trace_scalar(BURGERS, 2.0, 2.0 - 1e-12) == 2.0


def test_grid_envelope_fallback_agrees():
    # Renaming the cubic keeps its closed-form fan: dispatch follows the flux
    # geometry (convexity, inflection points), not the model name.
    from dataclasses import replace

    generic = replace(CUBIC, name="custom", flux_convex=False)
    rng = np.random.default_rng(3)
    for _ in range(40):
        v, w = rng.uniform(-2.5, 2.5, 2)
        g1 = float(godunov_flux(CUBIC, v, w))
        fan = scalar_riemann_trace(generic, v, w)
        assert float(generic.flux(fan.trace_at_zero_plus)) == pytest.approx(g1, abs=1e-6)


def test_unsupported_scalar_flux_raises():
    # neither convex nor single-inflection: no closed-form fan
    from dataclasses import replace

    from quarterplane.systems import UnsupportedModelError

    flat = replace(CUBIC, inflection_points=())
    with pytest.raises(UnsupportedModelError):
        scalar_riemann_trace(flat, -2.0, 2.0)


# Conjugates and companions ---------------------------------------------------


def test_burgers_conjugates():
    assert BURGERS.level_roots(1.0)[0] == pytest.approx(-1.0)
    assert BURGERS.level_roots(-3.0)[0] == pytest.approx(3.0)
    assert BURGERS.level_roots(0.0) == ()  # the sonic state has no conjugate


def test_cubic_companions_cases():
    assert CUBIC.level_roots(-2.0) == pytest.approx((1.0,))
    roots = CUBIC.level_roots(1.5)
    assert roots == pytest.approx((-1.8956439237389600, 0.39564392373895998), abs=1e-12)
    assert CUBIC.level_roots(3.0) == ()
    assert CUBIC.level_roots(1.0) == pytest.approx((-2.0,))
    assert CUBIC.level_roots(-1.0) == pytest.approx((2.0,))
    assert CUBIC.level_roots(2.0) == pytest.approx((-1.0,))
    # only u = +-1 itself loses the root v = u
    assert CUBIC.level_roots(1.0000000001) == pytest.approx((-2.0, 0.9999999999), abs=1e-12)
    assert CUBIC.level_roots(-1.0000000001) == pytest.approx((-0.9999999999, 2.0), abs=1e-12)


def test_cubic_companion_flux_accuracy():
    rng = np.random.default_rng(11)
    for u_B in rng.uniform(-2, 2, 100):
        for r in CUBIC.level_roots(u_B):
            assert abs(float(CUBIC.flux(r)) - float(CUBIC.flux(u_B))) <= 1e-10


# p-system --------------------------------------------------------------------


def test_psystem_constant_data():
    fan = psystem_riemann_trace(ELASTO, (1.0, 0.0), (1.0, 0.0))
    np.testing.assert_allclose(fan.trace_at_zero_plus, [1.0, 0.0])


def test_psystem_symmetric_data():
    # Symmetry forces a middle state with u* = 0.  With this stress
    # convention (sigma' > 0, sigma'' > 0 for v > 0) admissible shocks
    # increase v, so u: +a -> -a expands (two rarefactions, v* < 1) while
    # u: -a -> +a compresses (two shocks, v* > 1).
    a = 0.3
    fan = psystem_riemann_trace(ELASTO, (1.0, a), (1.0, -a))
    mid = fan.trace_at_zero_plus
    assert mid[1] == pytest.approx(0.0, abs=1e-10)
    assert mid[0] < 1.0
    assert all(w.kind == "rarefaction" for w in fan.waves)

    fan = psystem_riemann_trace(ELASTO, (1.0, -a), (1.0, a))
    mid = fan.trace_at_zero_plus
    assert mid[1] == pytest.approx(0.0, abs=1e-10)
    assert mid[0] > 1.0
    assert all(w.kind == "shock" for w in fan.waves)


def test_psystem_pure_2_rarefaction():
    # Build a right state on the forward 2-rarefaction curve of (1, 0):
    # v_r > v_m and u_r = u_m - int sqrt(sigma') over [v_m, v_r].
    from quarterplane.riemann import _sqrt_sigma_p_integral

    vr = 1.5
    ur = 0.0 - _sqrt_sigma_p_integral(ELASTO, 1.0, vr)
    fan = psystem_riemann_trace(ELASTO, (1.0, 0.0), (vr, ur))
    np.testing.assert_allclose(fan.trace_at_zero_plus, [1.0, 0.0], atol=1e-9)
    assert len(fan.waves) == 1
    assert fan.waves[0].kind == "rarefaction"
    assert fan.waves[0].speed_range[0] > 0.0


def test_psystem_residual_and_lax():
    rng = np.random.default_rng(5)
    sig = ELASTO.params["sigma"]
    sp = ELASTO.params["sigma_prime"]
    for _ in range(25):
        left = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1, 1)])
        right = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1, 1)])
        fan = psystem_riemann_trace(ELASTO, left, right)
        mid = fan.trace_at_zero_plus
        from quarterplane.riemann import _phi1, _phi2

        res = _phi1(ELASTO, mid[0], left) - _phi2(ELASTO, mid[0], right)
        assert abs(res) <= 1e-10 * (1.0 + np.abs(mid).max())
        for w in fan.waves:
            if w.kind != "shock":
                continue
            s = w.speed
            lam_l = np.sqrt(float(sp(w.left[0])))
            lam_r = np.sqrt(float(sp(w.right[0])))
            if s < 0:  # 1-shock: lam1(right) < s < lam1(left)
                assert -lam_r < s + 1e-12 and s < -lam_l + 1e-12
            else:  # 2-shock: lam2(right) < s < lam2(left)
                assert lam_r < s + 1e-12 and s < lam_l + 1e-12
        # speeds are ordered across the fan
        speeds = [s for w in fan.waves for s in w.speed_range]
        assert speeds == sorted(speeds)
        # conservation at the standing ray
        np.testing.assert_allclose(fan.flux_at_zero, ELASTO.flux(mid), atol=1e-12)


def _lax_admissible(model, fan):
    """Every shock is faster than the characteristics ahead of it and slower
    than those behind; every rarefaction fans out."""
    sp = model.params["sigma_prime"]
    for w in fan.waves:
        if w.kind == "rarefaction":
            assert w.speed_range[0] <= w.speed_range[1]
            continue
        s, c_l, c_r = w.speed, np.sqrt(float(sp(w.left[0]))), np.sqrt(float(sp(w.right[0])))
        assert (-c_r < s < -c_l) if s < 0 else (c_r < s < c_l)


@pytest.mark.filterwarnings("error")
def test_lagrangian_gas_traces_lie_on_the_admissible_wave_curves():
    # p = 1/v: the 1-wave curve through (v_L, u_L) is u = u_L + log(v/v_L)
    # (rarefaction, v >= v_L) and u = u_L - sqrt((1/v_L - 1/v)(v - v_L))
    # (shock, v < v_L); the 2-wave curve through (v_R, u_R) has u_R - u in
    # their place.  The gas expands in a rarefaction and is compressed by a shock.
    def curve_u(v, end, sign):
        v_e, u_e = end
        if v >= v_e:
            return u_e + sign * np.log(v / v_e)
        return u_e - sign * np.sqrt((1.0 / v_e - 1.0 / v) * (v - v_e))

    rng = np.random.default_rng(31)
    kinds = set()
    for _ in range(1000):
        left = np.array([rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)])
        right = np.array([rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)])
        fan = psystem_riemann_trace(LAGR, left, right)
        v, u = fan.trace_at_zero_plus
        scale = 1.0 + abs(left[1]) + abs(right[1])
        assert abs(curve_u(v, left, 1.0) - u) <= 1e-10 * scale
        assert abs(curve_u(v, right, -1.0) - u) <= 1e-10 * scale
        _lax_admissible(LAGR, fan)
        kinds.update(w.kind for w in fan.waves)
    assert kinds == {"shock", "rarefaction"}


def test_elastic_waves_at_negative_strains_are_lax_admissible():
    # sigma'' = 2v < 0 there: the waves take the gas's orientation
    rng = np.random.default_rng(37)
    for _ in range(100):
        left = np.array([rng.uniform(-2.5, -1.0), rng.uniform(-0.3, 0.3)])
        right = np.array([rng.uniform(-2.5, -1.0), rng.uniform(-0.3, 0.3)])
        fan = psystem_riemann_trace(ELASTO, left, right)
        assert fan.trace_at_zero_plus[0] < 0.0
        _lax_admissible(ELASTO, fan)


def test_psystem_refuses_data_outside_the_region_and_models_without_stress():
    from quarterplane.systems import UnsupportedModelError

    with pytest.raises(ValueError, match="state region"):
        psystem_riemann_trace(LAGR, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(UnsupportedModelError, match="stress law"):
        psystem_riemann_trace(make_model("euler_isentropic"), (1.0, 0.0), (1.0, 0.1))


# One root kernel: Brent's method on a bracket ----------------------------------


_BRENT_CASES = [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: math.tanh(x - 0.3), -4.0, 0.5),
    (lambda x: math.sin(x), 2.0, 4.0),
    (lambda x: math.log(x) + x * x - 3.0, 0.1, 10.0),
]


@pytest.mark.parametrize("f, a, b", _BRENT_CASES, ids=["cos", "cubic", "exp", "tanh", "sin", "log"])
def test_brent_takes_brentq_steps(f, a, b):
    # bit for bit on the case's bracket and on 40 random brackets of its root
    from scipy.optimize import brentq

    from quarterplane.riemann import _brent

    eps = np.finfo(float).eps
    root = brentq(f, a, b, xtol=4 * eps, rtol=4 * eps)
    rng = np.random.default_rng(41)
    brackets = [(a, b)] + [(root - rng.uniform(1e-3, 1.0) * (root - a),
                            root + rng.uniform(1e-3, 1.0) * (b - root)) for _ in range(40)]
    for lo, hi in brackets:
        lo, hi = float(lo), float(hi)
        expected = brentq(f, lo, hi, xtol=4 * eps, rtol=4 * eps)
        assert _brent(f, lo, hi, f(lo), f(hi)) == expected


def test_brent_raises_when_its_steps_run_out():
    # scipy's brentq: "Failed to converge after 100 iterations" on this bracket
    from quarterplane.riemann import _brent

    a, b = -2.34, 3.59
    with pytest.raises(SolverFailure, match="did not converge"):
        _brent(lambda x: x ** 3, a, b, a ** 3, b ** 3)


def _gap(model, fan):
    """|g(v*)|: the 1-wave curve through the left datum minus the 2-wave
    curve into the right one, at the trace's strain."""
    from quarterplane.riemann import _phi1, _phi2

    v = fan.trace_at_zero_plus[0]
    return abs(_phi1(model, v, fan.left) - _phi2(model, v, fan.right))


def test_psystem_mirror_datum_far_below_the_data_strains():
    # sigma is odd, so v -> -v with left and right swapped mirrors the fan of
    # (2, 0) -> (2, 300); its middle strain lies 14.6 below the data's
    fan = psystem_riemann_trace(ELASTO, (-2.0, 300.0), (-2.0, 0.0))
    mirror = psystem_riemann_trace(ELASTO, (2.0, 0.0), (2.0, 300.0))
    v, u = fan.trace_at_zero_plus
    assert v < -16.0
    assert v == pytest.approx(-mirror.trace_at_zero_plus[0], rel=1e-14)
    assert u == pytest.approx(mirror.trace_at_zero_plus[1], rel=1e-14)
    assert [w.kind for w in fan.waves] == ["shock", "shock"]
    _lax_admissible(ELASTO, fan)
    assert _gap(ELASTO, fan) <= 1e-13 * 301.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, v_range, u_range", [
    (ELASTO, (0.3, 3.0), (-1.0, 1.0)),
    (ELASTO, (-3.0, -0.3), (-1.0, 1.0)),
    (LAGR, (0.3, 3.0), (-5.0, 5.0)),
], ids=["elastic_positive", "elastic_negative", "gas"])
def test_psystem_wave_curves_meet_at_machine_precision(model, v_range, u_range):
    rng = np.random.default_rng(43)
    for _ in range(1000):
        left, right = (np.array([rng.uniform(*v_range), rng.uniform(*u_range)]) for _ in "lr")
        fan = psystem_riemann_trace(model, left, right)
        assert _gap(model, fan) <= 1e-13 * (1.0 + abs(left[1]) + abs(right[1]))


@pytest.mark.filterwarnings("error")
def test_psystem_quadrature_law_matches_the_closed_form():
    # the default stress law passed in by hand: every integral by quadrature
    quad = make_model("elastodynamics", sigma=ELASTO.params["sigma"],
                      sigma_prime=ELASTO.params["sigma_prime"])
    rng = np.random.default_rng(47)
    for _ in range(40):
        left = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)])
        right = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)])
        closed = psystem_riemann_trace(ELASTO, left, right).trace_at_zero_plus
        np.testing.assert_allclose(psystem_riemann_trace(quad, left, right).trace_at_zero_plus,
                                   closed, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("model, state", [
    (ELASTO, (1.0, 0.0)), (ELASTO, (-1.7, 0.4)), (ELASTO, (0.0, -3.0)),
    (LAGR, (0.25, 2.0)), (LAGR, (3.0, -1.0)),
])
def test_psystem_equal_data_make_no_waves(model, state):
    fan = psystem_riemann_trace(model, state, state)
    assert fan.waves == ()
    assert np.array_equal(fan.trace_at_zero_plus, state)
    np.testing.assert_array_equal(fan.flux_at_zero, model.flux(np.asarray(state)))
