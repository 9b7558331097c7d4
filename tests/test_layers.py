import dataclasses

import numpy as np
import pytest

from quarterplane.layers import (
    discrete_layer_membership,
    discrete_lf_layer_step,
    elasto_layer_curve,
    lagrangian_layer_iterate,
    lagrangian_quadratic_roots,
    lf_membership_scalar_batch,
    manifold_report,
    viscous_layer_profile,
    viscous_member_scalar,
)
from quarterplane.layers import _lf_step, _newton_step
from quarterplane.systems import UnsupportedModelError, make_model

BURGERS = make_model("burgers")
CUBIC = make_model("cubic")
LINEAR2 = make_model("linear2")
ELASTO = make_model("elastodynamics")
LAGR = make_model("lagrangian_gas")


# Discrete LF layer step ------------------------------------------------------


def test_burgers_first_iterate_closed_form():
    # mu = lam/(2Q) = 0.25, v_y = 1, v_inf = -2: the implicit step solves
    # w^2 - 8w + 1 = 0 and Newton from v_y picks the root 4 - sqrt(15).
    w = discrete_lf_layer_step(BURGERS, 0.25, 0.5, 1.0, -2.0)
    assert abs(w - (4.0 - np.sqrt(15.0))) <= 1e-10


def test_burgers_iterates_converge_to_limit():
    prof = discrete_layer_membership(BURGERS, ("lf", 0.25, 0.5), 1.0, -2.0, y_max=200)
    assert prof.verdict == "converged"
    assert prof.states[1] == pytest.approx(4.0 - np.sqrt(15.0), abs=1e-10)
    assert abs(prof.states[-1] - (-2.0)) <= 1e-6 * 3.0


def test_linear_flux_step_is_affine():
    # For f(u) = A u the implicit step is w = (I - mu A)^-1 ((I + mu A) v - 2 mu A v_inf).
    mu = 0.1
    a = LINEAR2.params["A"]
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.normal(size=2)
        vi = rng.normal(size=2)
        w = discrete_lf_layer_step(LINEAR2, 2 * mu * 1.0, 1.0, v, vi)
        expected = np.linalg.solve(np.eye(2) - mu * a,
                                   (np.eye(2) + mu * a) @ v - 2 * mu * a @ vi)
        np.testing.assert_allclose(w, expected, atol=1e-10)


def test_step_kernel_batch_equals_single_states():
    # one kernel call over M states gives what M one-state calls give, the
    # failed (no reachable root) states included
    rng = np.random.default_rng(5)
    cases = [(BURGERS, 0.25, rng.uniform(-2.5, 2.5, (61, 1)), rng.uniform(-2.5, 2.5, (61, 1))),
             (CUBIC, 0.25, rng.uniform(-2.5, 2.5, (61, 1)), rng.uniform(-2.5, 2.5, (61, 1))),
             # M = 1: linear2's flux is a matmul, whose rounding depends on M
             (LINEAR2, 0.1, rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2))),
             (ELASTO, 0.1, rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2)))]
    for model, mu, v, v_inf in cases:
        f_inf = model.flux(v_inf)
        w, failed = _lf_step(model, mu, v, f_inf)
        for i in range(len(v)):
            w_i, failed_i = _lf_step(model, mu, v[i:i + 1], f_inf[i:i + 1])
            assert failed_i[0] == failed[i], (model.name, i)
            if not failed[i]:
                assert np.all(w_i[0] == w[i]), (model.name, i)
        if model.dimension == 1:
            assert 0 < np.count_nonzero(failed) < len(v), model.name


def test_closed_form_newton_step_matches_solve():
    rng = np.random.default_rng(8)
    mu = 0.1
    for model in (LINEAR2, ELASTO):
        w = rng.uniform(-1.5, 1.5, (100, 2))
        r = rng.uniform(-1.0, 1.0, (100, 2))
        got = _newton_step(model, mu, w, r)
        for w_i, r_i, g in zip(w, r, got):
            want = np.linalg.solve(np.eye(2) - mu * model.jacobian(w_i), -r_i)
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-12 * (1.0 + np.abs(want).max()))


def test_fixed_point_of_step():
    for model, state in ((BURGERS, -1.3), (LINEAR2, np.array([0.4, -0.2]))):
        w = discrete_lf_layer_step(model, 0.2, 0.5, state, state)
        np.testing.assert_allclose(np.atleast_1d(w), np.atleast_1d(state), atol=1e-12)


def _lf_step_sequential(model, mu, v, f_inf, max_iter=100, tol=1e-12):
    # the LF layer step with one flux call per halving: the reference the
    # one-call halving ladder of _lf_step must match bit for bit
    def norms(x):
        return np.hypot.reduce(x, axis=1, initial=0.0)

    fv = model.flux(v)
    c = v + mu * (fv - 2.0 * f_inf)
    w, r = v.copy(), v - mu * fv - c
    nr = norms(r)
    failed = np.zeros(len(v), dtype=bool)
    todo = ~failed
    for _ in range(max_iter):
        todo &= ~(nr <= tol * (1.0 + norms(w)))
        n_todo = np.count_nonzero(todo)
        if not n_todo:
            return w, failed
        step = np.where(todo[:, None], _newton_step(model, mu, w, r), 0.0)
        for _ in range(31):
            w_new = w + step
            r_new = w_new - mu * model.flux(w_new) - c
            nr_new = norms(r_new)
            better = nr_new < nr
            if np.count_nonzero(better) == n_todo:
                break
            step *= np.where(better, 1.0, 0.5)[:, None]
        else:
            failed |= todo & ~better
            todo &= better
        w, r, nr = w_new, r_new, nr_new
    return w, failed | todo & ~(nr <= tol * (1.0 + norms(w)))


QUARTIC = dataclasses.replace(
    CUBIC, name="quartic", flux=lambda u: 0.25 * (u * u) * (u * u) - 0.5 * (u * u),
    dflux=lambda u: u * u * u - u, critical_points=(-1.0, 0.0, 1.0))


@pytest.mark.parametrize("model", [BURGERS, CUBIC, QUARTIC], ids=lambda m: m.name)
def test_step_ladder_equals_sequential_halving(model):
    rng = np.random.default_rng(21)
    n_failed = 0
    for mu in (0.1, 0.25, 0.5):
        v, v_inf = rng.uniform(-2.5, 2.5, (61, 1)), rng.uniform(-2.5, 2.5, (61, 1))
        f_inf = model.flux(v_inf)
        w, failed = _lf_step(model, mu, v, f_inf)
        w_ref, failed_ref = _lf_step_sequential(model, mu, v, f_inf)
        assert np.array_equal(failed, failed_ref), mu
        assert np.array_equal(w, w_ref), mu  # the failed states' last rung included
        n_failed += np.count_nonzero(failed)
    assert n_failed > 0


def test_failing_step_makes_at_most_two_flux_calls_per_newton_iteration():
    # the last step of a non-member profile fails: its halvings take one
    # flux call per Newton iteration, not one per halving
    prof = discrete_layer_membership(BURGERS, ("lf", 0.1, 0.5), 1.03, -0.5)
    assert prof.verdict == "diverged"
    calls = {"flux": 0, "dflux": 0}

    def counted(name):
        def fn(u):
            calls[name] += 1
            return getattr(BURGERS, name)(u)
        return fn

    model = dataclasses.replace(BURGERS, flux=counted("flux"), dflux=counted("dflux"))
    w, failed = _lf_step(model, 0.1, np.array([[prof.states[-1]]]),
                         BURGERS.flux(np.array([[-0.5]])))
    assert failed[0]
    # one call at v, then per Newton iteration (one dflux call) the full
    # step and at most one ladder
    assert calls["dflux"] > 0
    assert calls["flux"] <= 1 + 2 * calls["dflux"]


# Viscous layer profiles ------------------------------------------------------


def test_viscous_profile_verdicts_burgers():
    # v' = v^2/2 - f(v_inf): the phase line decides each verdict.
    assert viscous_layer_profile(BURGERS, 1.0, -2.0).verdict == "converged"
    assert viscous_layer_profile(BURGERS, -3.0, -2.0).verdict == "converged"
    assert viscous_layer_profile(BURGERS, 3.0, -2.0).verdict == "diverged"
    assert viscous_layer_profile(BURGERS, 1.0, 2.0).verdict == "stalled"
    assert viscous_layer_profile(BURGERS, 2.0, 2.0).verdict == "converged"


def test_viscous_profile_monotone_decay():
    prof = viscous_layer_profile(BURGERS, 1.0, -2.0)
    d = np.abs(prof.states - (-2.0))
    assert np.all(np.diff(d) <= 1e-10)
    assert prof.distance_at_horizon <= 1e-6 * 3.0


def _solve_ivp_profile(model, u_B, v_inf, y_max):
    """The layer profile as scipy's RK45 integrates it (rtol 1e-10, atol
    1e-12, terminal events at the blow-up distance and the finite lower
    bounds of the state region), with the verdict rules of
    ``viscous_layer_profile``; also returns the solver status."""
    from scipy.integrate import solve_ivp

    n = model.dimension
    u0 = np.atleast_1d(np.asarray(u_B, dtype=float))
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))
    f_inf = np.atleast_1d(np.asarray(model.flux(vi if n > 1 else float(vi[0]))))
    tol = 1e-6 * (1.0 + float(np.linalg.norm(vi)))
    blow = 10.0 * (1.0 + np.linalg.norm(u0 - vi) + np.linalg.norm(vi))

    def rhs(_, v):
        dv = np.atleast_1d(np.asarray(model.flux(v if n > 1 else float(v[0])))) - f_inf
        if n == 1:
            return dv / float(np.atleast_2d(model.viscosity(float(v[0])))[0, 0])
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

    sol = solve_ivp(rhs, (0.0, y_max), u0, method="RK45", rtol=1e-10, atol=1e-12,
                    events=events)
    dists = np.linalg.norm(sol.y.T - vi, axis=1)
    d_end = float(dists[-1])
    speed_end = float(np.linalg.norm(rhs(0.0, sol.y[:, -1])))
    tail = dists[-(max(len(dists) // 4, 2)):]
    monotone = bool(np.all(np.diff(tail) <= 1e-8 * (1.0 + tail[:-1])))
    if sol.status == 1 or (not sol.success and d_end > blow * 0.5):
        verdict = "diverged"
    elif d_end <= tol and monotone:
        verdict = "converged"
    elif speed_end < 1e-6 * (1.0 + np.linalg.norm(f_inf)) and d_end > tol:
        verdict = "stalled"
    elif d_end > tol:
        verdict = "horizon-reached" if d_end < blow * 0.5 else "diverged"
    else:
        verdict = "converged" if monotone else "horizon-reached"
    return verdict, sol.t, d_end, sol.status


def test_profile_matches_solve_ivp():
    rng = np.random.default_rng(2024)
    cases = []
    for model in (BURGERS, CUBIC):
        cases += [(model, *map(float, rng.uniform(-2.5, 2.5, 2)), 50.0) for _ in range(80)]
    for b in ([1.0, 1.0], [5.0, 1.0]):
        model = make_model("linear2", B=b)
        cases += [(model, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), 50.0) for _ in range(70)]
    for v_i in (1.3, 1.5, 1.7, 2.3, 2.5):  # the p-system saddles of the curve checks
        target = elasto_layer_curve(ELASTO, (2.0, 0.0), [v_i]).points[0]
        cases.append((ELASTO, np.array([2.0, 0.0]), target, 60.0))
    verdicts = set()
    for model, u_B, v_inf, y_max in cases:
        verdict, ys, d, status = _solve_ivp_profile(model, u_B, v_inf, y_max)
        prof = viscous_layer_profile(model, u_B, v_inf, y_max)
        case = (model.name, u_B, v_inf)
        assert prof.verdict == verdict, case
        assert abs(prof.distance_at_horizon - d) <= 1e-9 * (1.0 + d), case
        if status == 1 and model is not ELASTO:  # ended on an event
            assert prof.ys[-1] == pytest.approx(ys[-1], rel=1e-9, abs=0.0), case
        verdicts.add(verdict)
    assert len(cases) >= 300
    assert verdicts >= {"converged", "diverged", "stalled"}


def test_profile_stopped_by_step_underflow_diverges():
    # f(1e102) is finite but the trajectory leaves at once: the step falls
    # below its smallest size long before y_max, whatever the end distance
    prof = viscous_layer_profile(CUBIC, 1e102, -0.5)
    assert prof.ys[-1] < 1e-100
    assert prof.verdict == "diverged"


def test_profile_with_non_finite_start_velocity_raises():
    # f(u_B) = inf: the initial-step estimate would divide by a zero step
    with pytest.raises(ValueError, match="velocity at u_B is not finite"):
        viscous_layer_profile(CUBIC, 1e103, -0.5)


@pytest.mark.filterwarnings("error")
def test_huge_start_raises_the_named_error_not_an_overflow_warning():
    # the blow-up bound is a hypot reduction: |u_B| = 1e155 squared would
    # overflow before the integrator could name the non-finite velocity
    with pytest.raises(ValueError, match="velocity at u_B is not finite"):
        viscous_layer_profile(BURGERS, 1e155, -0.5)


def test_profile_needs_constant_diagonal_viscosity_and_positive_horizon():
    state_dependent = dataclasses.replace(
        BURGERS, viscosity=lambda u: np.array([[1.0 + float(u) ** 2]]))
    coupled = dataclasses.replace(ELASTO, viscosity=lambda u: np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(UnsupportedModelError):
        viscous_layer_profile(state_dependent, 1.0, -2.0)
    with pytest.raises(UnsupportedModelError):
        viscous_layer_profile(coupled, np.array([2.0, 0.0]), np.array([1.5, -0.8]))
    for y_max in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="y_max must be positive"):
            viscous_layer_profile(BURGERS, 1.0, -2.0, y_max=y_max)


def test_exact_membership_matches_integration():
    rng = np.random.default_rng(42)
    for model in (BURGERS, CUBIC):
        for _ in range(30):
            u_B, vi = rng.uniform(-2.5, 2.5, 2)
            fast = viscous_member_scalar(model, u_B, vi)
            prof = viscous_layer_profile(model, u_B, vi)
            assert fast == (prof.verdict == "converged"), (model.name, u_B, vi)


def test_exact_membership_examples():
    assert viscous_member_scalar(BURGERS, 1.0, -2.0)
    assert not viscous_member_scalar(BURGERS, 1.0, 2.0)
    assert not viscous_member_scalar(BURGERS, 1.0, -1.0)  # f equal at endpoints
    assert viscous_member_scalar(BURGERS, 1.0, 1.0)
    # cubic: f = (u^3 - 3u)/2, interior critical points matter
    assert not viscous_member_scalar(CUBIC, 0.0, 2.0)


def test_exact_membership_is_elementwise():
    rng = np.random.default_rng(5)
    for model in (BURGERS, CUBIC):
        u_B = float(rng.uniform(-2.5, 2.5))
        vis = np.concatenate([rng.uniform(-3, 3, 50), [u_B, -u_B], model.critical_points])
        got = viscous_member_scalar(model, u_B, vis)
        assert got.shape == vis.shape
        assert got.tolist() == [viscous_member_scalar(model, u_B, float(x)) for x in vis]
        assert np.array_equal(viscous_member_scalar(model, u_B, vis[:48].reshape(6, 8)),
                              got[:48].reshape(6, 8))
    assert type(viscous_member_scalar(BURGERS, 1.0, -2.0)) is bool


# Discrete membership ---------------------------------------------------------


def test_godunov_membership_is_riemann_trace_fixed_point():
    assert discrete_layer_membership(BURGERS, ("godunov",), 1.0, -2.0).verdict == "converged"
    assert discrete_layer_membership(BURGERS, ("godunov",), 1.0, 1.0).verdict == "converged"
    assert discrete_layer_membership(BURGERS, ("godunov",), 1.0, 0.5).verdict == "diverged"


def test_batch_lf_membership_matches_scalar_loop():
    rng = np.random.default_rng(9)
    lam, q = 0.25, 0.5
    for model in (BURGERS, CUBIC):
        u_B = float(rng.uniform(-2, 2))
        vis = rng.uniform(-2.5, 2.5, 40)
        batch = lf_membership_scalar_batch(model, lam, q, u_B, vis)
        for vi, got in zip(vis, batch):
            prof = discrete_layer_membership(model, ("lf", lam, q), u_B, vi)
            assert got == (prof.verdict == "converged"), (model.name, u_B, vi)


def test_lf_profile_diverges_at_the_step_that_leaves_the_region():
    # the flux 1/v of the Lagrangian gas stays finite at v < 0: only the
    # state-region test stops the orbit, at its first step
    prof = discrete_layer_membership(LAGR, ("lf", 0.8, 0.5), [0.3, 0.0], [1.0, -1.0])
    assert prof.verdict == "diverged"
    np.testing.assert_allclose(prof.states, [[0.3, 0.0], [-1.7972297181140187, 0.6215371476425232]],
                               rtol=1e-12)
    assert prof.distance_at_horizon == pytest.approx(3.2332455547150887, rel=1e-12)


# Manifold reports ------------------------------------------------------------


def test_wrong_viscosity_mismatch():
    wrong = make_model("linear2", B=[5.0, 1.0])
    rep = manifold_report(wrong, "viscous", np.array([1.0, 0.0]), np.zeros(2))
    np.testing.assert_allclose(np.sort(rep.amplification), [0.0, 2.0], atol=1e-10)
    assert rep.p == 1
    assert rep.stable_dim == 0
    assert rep.mismatch


def test_identity_viscosity_no_mismatch():
    rep = manifold_report(LINEAR2, "viscous", np.array([1.0, 0.0]), np.zeros(2))
    np.testing.assert_allclose(np.sort(rep.amplification), [-2.0, 0.0], atol=1e-10)
    assert rep.p == 1
    assert rep.stable_dim == 1
    assert not rep.mismatch
    assert rep.characteristic


def test_predicate_residual_vanishes_on_stable_direction():
    # Boundary data deviating along the stable eigenvector leaves the
    # unstable-side residuals at zero.
    from quarterplane.systems import eigen_structure

    es = eigen_structure(LINEAR2, np.zeros(2))
    r1 = es.right[:, 0]
    rep = manifold_report(LINEAR2, "viscous", 0.7 * r1, np.zeros(2))
    np.testing.assert_allclose(rep.predicate_residuals, 0.0, atol=1e-12)
    rep2 = manifold_report(LINEAR2, "viscous", es.right[:, 1], np.zeros(2))
    assert np.abs(rep2.predicate_residuals).max() > 0.5


def test_discrete_amplification_formula():
    rep = manifold_report(BURGERS, ("lf", 0.25, 0.5), 1.0, -2.0)
    # a = (1 + mu f'(-2)) / (1 - mu f'(-2)) with mu = 0.25, f'(-2) = -2
    assert rep.amplification[0] == pytest.approx((1 - 0.5) / (1 + 0.5), abs=1e-14)
    assert rep.stable_dim == 1
    assert rep.regularization == "lf"


def _step_map_jacobian_fd(model, lam, q, v_inf, step=1e-6):
    n = model.dimension
    vi = np.atleast_1d(np.asarray(v_inf, dtype=float))
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        wp = np.atleast_1d(discrete_lf_layer_step(model, lam, q, vi + e if n > 1 else float(vi[0] + e[0]), v_inf))
        wm = np.atleast_1d(discrete_lf_layer_step(model, lam, q, vi - e if n > 1 else float(vi[0] - e[0]), v_inf))
        out[:, j] = (wp - wm) / (2 * step)
    return out


def test_amplification_matches_step_map_fd():
    rng = np.random.default_rng(17)
    cases = [(BURGERS, lambda: float(rng.uniform(-2, 2))),
             (CUBIC, lambda: float(rng.uniform(-2, 2))),
             (LINEAR2, lambda: rng.uniform(-1, 1, 2)),
             (ELASTO, lambda: rng.uniform(-1, 1, 2)),
             (LAGR, lambda: np.array([rng.uniform(0.8, 3.0), rng.uniform(-1, 1)]))]
    for model, draw in cases:
        for _ in range(5):
            vi = draw()
            rep = manifold_report(model, ("lf", 0.1, 0.5), vi, vi)
            jac = _step_map_jacobian_fd(model, 0.1, 0.5, vi)
            fd_eigs = np.sort(np.linalg.eigvals(jac).real)
            np.testing.assert_allclose(np.sort(rep.amplification), fd_eigs,
                                       atol=1e-6, rtol=1e-6)


# Lagrangian closed form ------------------------------------------------------


def test_lagrangian_fixed_point_and_root_product():
    lam = 0.2
    limit = np.array([1.0, 0.3])
    out = lagrangian_layer_iterate(lam, limit, limit)
    np.testing.assert_allclose(out, limit, atol=1e-12)
    r1, r2 = lagrangian_quadratic_roots(lam, np.array([1.4, 0.1]), limit)
    assert r1 * r2 == pytest.approx(1.0, abs=1e-12)


def test_lagrangian_jacobian_eigenvalues():
    # At the fixed point the step map has eigenvalues (1 -+ lam/v_inf)/(1 +- lam/v_inf).
    lam = 0.2
    for v_inf in (1.0, 2.0, 5.0):
        limit = np.array([v_inf, 0.0])
        a1 = (1 - lam / v_inf) / (1 + lam / v_inf)
        jac = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            jac[:, j] = (lagrangian_layer_iterate(lam, limit + e, limit)
                         - lagrangian_layer_iterate(lam, limit - e, limit)) / 2e-6
        eigs = np.sort(np.linalg.eigvals(jac).real)
        np.testing.assert_allclose(eigs, [a1, 1.0 / a1], atol=1e-6)


def test_lagrangian_guards():
    with pytest.raises(ValueError):
        lagrangian_layer_iterate(0.2, (1.0, 0.0), (0.1, 0.0))  # w_inf <= 1
    with pytest.raises(ValueError):
        lagrangian_layer_iterate(0.2, (-1.0, 0.0), (1.0, 0.0))


def test_lagrangian_roots_share_the_step_guards():
    # the CLI takes the roots and then the step of the same state, so each
    # bad state fails with the same ValueError in both
    for state, limit in (((1.0, 0.0), (0.1, 0.0)),    # w_inf <= 1
                         ((0.0, 0.0), (1.0, 0.0)),    # no volume
                         ((1.0, 2.6), (1.0, 0.0))):   # N = 0, complex roots
        for fn in (lagrangian_quadratic_roots, lagrangian_layer_iterate):
            with pytest.raises(ValueError):
                fn(0.2, state, limit)


def test_lagrangian_closed_form_step_is_the_lf_step_at_q_one_half():
    # the closed-form recursion is the LF layer step of the p-system with
    # sigma = -1/v at q = 1/2, mu = lam
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(400):
        lam = rng.uniform(0.05, 0.4)
        limit = np.array([rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)])
        state = limit + rng.uniform(-0.2, 0.2, 2)
        try:
            want = lagrangian_layer_iterate(lam, state, limit)
        except ValueError:  # N^2 < 4: no real root
            continue
        w, failed = _lf_step(LAGR, lam, state[None], LAGR.flux(limit[None]))
        assert not failed[0]
        assert np.max(np.abs(w[0] - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
        checked += 1
    assert checked >= 300


def test_lagrangian_gas_layer_curve_matches_the_closed_form_energy_integral():
    # integral of sigma(s) - sigma(v_i) = 1/v_i - 1/s over [v_i, v_B] is
    # x - log(1 + x), x = (v_B - v_i)/v_i
    rng = np.random.default_rng(29)
    for _ in range(10):
        v_B, u_B = rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)
        vs = np.sort(rng.uniform(0.1, 4.0, 12))
        x = (v_B - vs) / vs
        want = u_B + np.sign(vs - v_B) * np.sqrt(2.0 * (x - np.log1p(x)))
        curve = elasto_layer_curve(LAGR, (v_B, u_B), vs)
        np.testing.assert_array_equal(curve.points[:, 0], vs)
        np.testing.assert_allclose(curve.points[:, 1], want, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(curve.tangent, np.array([v_B, 1.0]) / np.hypot(v_B, 1.0))


def test_layer_curve_refuses_strains_outside_the_region():
    with pytest.raises(ValueError, match="state region"):
        elasto_layer_curve(LAGR, (1.0, 0.0), [0.5, 0.0])
    with pytest.raises(ValueError, match="state region"):
        elasto_layer_curve(LAGR, (-1.0, 0.0), [0.5])
    with pytest.raises(UnsupportedModelError, match="stress law"):
        elasto_layer_curve(LINEAR2, (1.0, 0.0), [0.5])


def test_lagrangian_saddle_dynamics():
    # The fixed point is a saddle (a1 < 1 < a2): starts along the stable
    # eigendirection contract, generic starts blow up.
    lam = 0.2
    limit = np.array([1.0, 0.0])
    jac = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1e-6
        jac[:, j] = (lagrangian_layer_iterate(lam, limit + e, limit)
                     - lagrangian_layer_iterate(lam, limit - e, limit)) / 2e-6
    eigs, vecs = np.linalg.eig(jac)
    stable_vec = vecs[:, np.argmin(np.abs(eigs))].real
    state = limit + 1e-4 * stable_vec
    for _ in range(12):
        state = lagrangian_layer_iterate(lam, state, limit)
    assert np.linalg.norm(state - limit) < 1e-5

    state = np.array([1.05, -0.02])
    for _ in range(200):
        state = lagrangian_layer_iterate(lam, state, limit)
        if np.linalg.norm(state - limit) > 10.0:
            break
    assert np.linalg.norm(state - limit) > 10.0


# Elasto layer curve ----------------------------------------------------------


def test_elasto_curve_frozen_value():
    curve = elasto_layer_curve(ELASTO, (2.0, 0.0), [1.0])
    assert curve.points[0, 1] == pytest.approx(-np.sqrt(17.0 / 6.0), abs=1e-9)


def test_elasto_curve_tangent_and_base():
    curve = elasto_layer_curve(ELASTO, (2.0, 0.0), [1.5, 2.0, 2.5])
    t = curve.tangent
    np.testing.assert_allclose(t, np.array([1.0, np.sqrt(5.0)]) / np.sqrt(6.0), atol=1e-12)
    assert curve.points[1, 1] == pytest.approx(0.0, abs=1e-12)
    # u_inf increases with v_inf along the curve
    assert np.all(np.diff(curve.points[:, 1]) > 0)


def test_elasto_curve_matches_shooting():
    # Cross-check a curve point by integrating the layer ODE with identity
    # viscosity: from (v_B, u_B) the trajectory should reach the curve point.
    # viscosity: the equilibrium is a saddle (+-sqrt(sigma')), so forward
    # integration tracks the connection and then departs; the closest
    # approach to the predicted limit must be small.
    base = (2.0, 0.0)
    v_i = 1.3
    curve = elasto_layer_curve(ELASTO, base, [v_i])
    target = curve.points[0]
    prof = viscous_layer_profile(ELASTO, np.array(base), target, y_max=60.0)
    dists = np.linalg.norm(prof.states - target, axis=1)
    assert dists.min() <= 1e-3
