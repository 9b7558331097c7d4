import dataclasses

import numpy as np
import pytest

from quarterplane import schemes
from quarterplane.layers import discrete_layer_membership
from quarterplane.riemann import godunov_flux, godunov_trace_scalar
from quarterplane.schemes import (
    CFLError,
    discrete_entropy_residual,
    run_godunov,
    run_lf,
    run_split,
    run_viscous,
)
from quarterplane.systems import kruzkov_pair, make_model

BURGERS = make_model("burgers")
CUBIC = make_model("cubic")
ELASTO = make_model("elastodynamics")


def test_constant_state_is_preserved():
    for runner in (run_lf, run_split):
        sol = runner(BURGERS, 0.4, 0.4, h=0.01, lam=0.25, q=0.5, t_end=0.2, n_cells=50)
        np.testing.assert_array_equal(sol.final, np.full(50, 0.4))
    sol = run_godunov(BURGERS, 0.4, 0.4, h=0.01, lam=0.25, t_end=0.2, n_cells=50)
    np.testing.assert_array_equal(sol.final, np.full(50, 0.4))
    sol = run_viscous(BURGERS, 0.4, 0.4, h=0.01, eps=0.01, t_end=0.1, n_cells=50)
    np.testing.assert_allclose(sol.final, 0.4, atol=1e-13)


def test_split_equals_lf():
    rng = np.random.default_rng(1)
    u0 = rng.uniform(-0.5, 0.5, 80)
    a = run_lf(BURGERS, u0, 0.3, h=0.01, lam=0.25, q=0.5, t_end=0.3, n_cells=80)
    b = run_split(BURGERS, u0, 0.3, h=0.01, lam=0.25, q=0.5, t_end=0.3, n_cells=80)
    np.testing.assert_allclose(a.final, b.final, atol=1e-13)


def test_upwind_splitting_outflow():
    # f+ carries u >= 0, f- carries u < 0; over the constant -2 everything
    # is left-going and the interior stays at -2.
    f_plus = lambda u: np.where(u >= 0, BURGERS.flux(u), 0.0)
    f_minus = lambda u: np.where(u < 0, BURGERS.flux(u), 0.0)
    sol = run_split(BURGERS, -2.0, 1.0, h=1 / 200, lam=0.25, t_end=0.5,
                    splitting=(f_minus, f_plus), n_cells=200)
    assert np.all(np.abs(sol.final[20:] - (-2.0)) <= 0.05)


def test_bad_splitting_rejected():
    with pytest.raises(ValueError):
        run_split(BURGERS, 0.0, 0.0, h=0.01, lam=0.25, t_end=0.1,
                  splitting=(lambda u: 0.3 * u, lambda u: BURGERS.flux(u)))


def test_cfl_violation_raises():
    with pytest.raises(CFLError):
        run_lf(BURGERS, 3.0, 3.0, h=0.01, lam=0.5, q=0.5, t_end=0.1)
    with pytest.raises(CFLError):
        run_lf(BURGERS, 0.0, 0.0, h=0.01, lam=0.25, q=1.5, t_end=0.1)
    with pytest.raises(CFLError):
        run_godunov(BURGERS, 3.0, 3.0, h=0.01, lam=0.5, t_end=0.1)


def test_conservation_bookkeeping():
    rng = np.random.default_rng(2)
    for runner, kw in ((run_lf, dict(lam=0.25, q=0.5)),
                       (run_split, dict(lam=0.25, q=0.5)),
                       (run_godunov, dict(lam=0.25))):
        u0 = rng.uniform(-1, 1, 60)
        sol = runner(BURGERS, u0, 0.5, h=0.02, t_end=0.4, n_cells=60, **kw)
        change = sol.mass_final - sol.mass_initial
        np.testing.assert_allclose(
            change, sol.flux_time_integral_left - sol.flux_time_integral_right,
            atol=1e-12)


def test_conservation_system():
    rng = np.random.default_rng(3)
    u0 = rng.uniform(-0.3, 0.3, (60, 2))
    sol = run_lf(ELASTO, u0, np.array([0.1, -0.1]), h=0.02, lam=0.2, q=0.5,
                 t_end=0.4, n_cells=60)
    change = sol.mass_final - sol.mass_initial
    np.testing.assert_allclose(
        change, sol.flux_time_integral_left - sol.flux_time_integral_right, atol=1e-12)


def test_max_principle_scalar():
    rng = np.random.default_rng(4)
    for model in (BURGERS, CUBIC):
        for runner, kw in ((run_lf, dict(lam=0.2, q=0.5)),
                           (run_godunov, dict(lam=0.2))):
            u0 = rng.uniform(-1.5, 1.5, 70)
            ub = float(rng.uniform(-1.5, 1.5))
            lo = min(u0.min(), ub)
            hi = max(u0.max(), ub)
            sol = runner(model, u0, ub, h=0.02, t_end=0.5, n_cells=70, **kw)
            assert sol.final.min() >= lo - 1e-12
            assert sol.final.max() <= hi + 1e-12


def test_entropy_residual_nonpositive_lf():
    rng = np.random.default_rng(5)
    for model in (BURGERS, CUBIC):
        u0 = rng.uniform(-1, 1, 60)
        sol = run_lf(model, u0, -0.5, h=0.02, lam=0.3, q=0.5, t_end=0.3,
                     n_cells=60, store_all=True)
        assert discrete_entropy_residual(model, sol) <= 1e-12


def test_entropy_residual_nonpositive_godunov():
    rng = np.random.default_rng(6)
    u0 = rng.uniform(-1, 1, 50)
    sol = run_godunov(BURGERS, u0, 0.8, h=0.02, lam=0.3, t_end=0.3,
                      n_cells=50, store_all=True)
    assert discrete_entropy_residual(BURGERS, sol) <= 1e-12


def test_entropy_residual_system():
    rng = np.random.default_rng(7)
    u0 = rng.uniform(-0.3, 0.3, (50, 2))
    sol = run_lf(ELASTO, u0, np.array([0.0, 0.0]), h=0.02, lam=0.2, q=0.5,
                 t_end=0.3, n_cells=50, store_all=True)
    assert discrete_entropy_residual(ELASTO, sol) <= 1e-12


def _residual_per_step(model, sol, pairs=None):
    """The cell entropy residual as one loop over single steps per pair."""
    worst = 0.0
    for pair in model.entropies if pairs is None else pairs:
        F, U = pair.F, pair.U
        if sol.scheme == "godunov":
            def G(v, w):
                return np.asarray(F(godunov_trace_scalar(model, v, w)))
        else:
            def G(v, w, coeff=sol.q / sol.lam):
                return 0.5 * (np.asarray(F(v)) + np.asarray(F(w))) \
                    - coeff * (np.asarray(U(w)) - np.asarray(U(v)))
        for n in range(sol.history.shape[0] - 1):
            cur = sol.history[n]
            nxt = sol.history[n + 1]
            right = np.concatenate([cur[1:], cur[-1:]], axis=0)
            g = G(cur, right)
            res = (np.asarray(U(nxt[1:])) - np.asarray(U(cur[1:]))
                   + sol.lam * (g[1:] - g[:-1]))
            worst = max(worst, float(np.max(res)))
    return worst


def _assert_residual_as_per_step(model, sol, pairs=None, edges=()):
    """The block-wise residual equals the per-step loop's, also with one
    level raised so that the maximum sits at step k, for each k in edges."""
    got = discrete_entropy_residual(model, sol, pairs)
    assert got == _residual_per_step(model, sol, pairs), (sol.scheme, sol.history.shape)
    for k in edges:
        history = sol.history.copy()
        history[k + 1, 7] += 1e-3
        raised = dataclasses.replace(sol, history=history)
        worst = discrete_entropy_residual(model, raised, pairs)
        assert worst > 1e-6 and worst == _residual_per_step(model, raised, pairs), (sol.scheme, k)
    return got


def test_blockwise_residual_equals_per_step_loop():
    rng = np.random.default_rng(12)
    scalar_cells = 2048
    rows = schemes._BLOCK_VALUES // scalar_cells  # steps per block
    assert rows > 2
    found = []
    longest = 2 * rows + 3
    for n_steps in (1, rows - 1, rows, rows + 1, longest):
        # in the longest history, a raised level at each block edge
        edges = (0, rows - 1, rows, rows + 1, n_steps - 1) if n_steps == longest else ()
        for model in (BURGERS, CUBIC):
            u0 = rng.uniform(-1.2, 1.2, scalar_cells)
            u_B = float(rng.uniform(-1.2, 1.2))
            kw = dict(h=0.01, t_end=n_steps * 0.25 * 0.01, n_cells=scalar_cells, store_all=True)
            sols = [run_lf(model, u0, u_B, lam=0.25, q=0.5, **kw),
                    run_split(model, u0, u_B, lam=0.25, q=0.5, **kw),
                    run_godunov(model, u0, u_B, lam=0.25, **kw)]
            kruzkov = [kruzkov_pair(model, k) for k in (-0.7, 0.0, 0.4)]
            for sol in sols:
                assert sol.history.shape[0] == n_steps + 1
                found.append(_assert_residual_as_per_step(model, sol, None, edges))
                if n_steps in (1, longest):
                    found.append(_assert_residual_as_per_step(model, sol, kruzkov))
        u0 = rng.uniform(-0.3, 0.3, (scalar_cells // 2, 2))
        sol = run_lf(ELASTO, u0, np.array([0.1, -0.1]), h=0.01, lam=0.2, q=0.5,
                     t_end=n_steps * 0.2 * 0.01, n_cells=scalar_cells // 2, store_all=True)
        assert sol.history.shape[0] == n_steps + 1
        found.append(_assert_residual_as_per_step(ELASTO, sol, None, edges))
    assert max(found) > 0.0  # not only zeros compared


@pytest.mark.parametrize("scheme", ["lf", "split", "godunov", "viscous"])
def test_step_count_matches_times(scheme):
    calls = []

    def u_B(t):  # the time loop asks for u_B(n tau) once per step n >= 1
        calls.append(t)
        return 0.5

    kw = dict(h=0.02, t_end=0.37, n_cells=40, store_all=True)
    if scheme == "viscous":
        sol = run_viscous(BURGERS, -0.3, u_B, eps=0.05, **kw)
    elif scheme == "godunov":
        sol = run_godunov(BURGERS, -0.3, u_B, lam=0.3, **kw)
    else:
        runner = run_lf if scheme == "lf" else run_split
        sol = runner(BURGERS, -0.3, u_B, lam=0.3, q=0.5, **kw)
    steps = round(sol.times[-1] / sol.tau)
    assert steps > 1
    assert [t for t in calls if t > 0.0] == [n * sol.tau for n in range(1, steps + 1)]
    assert sol.history.shape[0] - 1 == steps


def test_pinned_boundary_cell():
    sol = run_lf(BURGERS, -2.0, 1.0, h=0.02, lam=0.25, q=0.5, t_end=0.5,
                 n_cells=60, store_all=True)
    assert np.all(sol.history[:, 0] == 1.0)


def test_lf_steady_cells_match_layer_iterates():
    # Steady state of the scheme with u_B = 1 over the constant -2: cell j
    # tracks the j-th discrete layer iterate.
    h = 1.0 / 200
    sol = run_lf(BURGERS, -2.0, 1.0, h=h, lam=0.25, q=0.5, t_end=1.0, n_cells=200)
    prof = discrete_layer_membership(BURGERS, ("lf", 0.25, 0.5), 1.0, -2.0)
    k = min(len(prof.states), 30)
    np.testing.assert_allclose(sol.final[:k], prof.states[:k], atol=0.05)


def test_viscous_stationary_shock_order():
    # u = -b tanh(b (x - x0) / (2 eps)) is a steady solution; the drift of
    # the discrete solution from it shrinks ~4x when h halves.
    b, eps, x0 = 1.0, 0.1, 2.0

    def exact(x):
        return -b * np.tanh(b * (x - x0) / (2 * eps))

    errs = []
    for h in (0.1, 0.05):
        n = int(round(4.0 / h))
        xs = (np.arange(n) + 0.5) * h
        sol = run_viscous(BURGERS, exact, exact(0.0), h=h, eps=eps, t_end=1.0, n_cells=n)
        errs.append(np.max(np.abs(sol.final - exact(xs))))
    assert errs[0] < 0.02
    assert errs[0] / errs[1] > 3.0


def test_viscous_conservation():
    rng = np.random.default_rng(8)
    u0 = rng.uniform(-0.5, 0.5, 60)
    sol = run_viscous(BURGERS, u0, 0.2, h=0.02, eps=0.02, t_end=0.2, n_cells=60)
    change = sol.mass_final - sol.mass_initial
    np.testing.assert_allclose(
        change, sol.flux_time_integral_left - sol.flux_time_integral_right, atol=1e-12)


def test_snapshot_times_cover_range():
    sol = run_lf(BURGERS, 0.0, 0.5, h=0.02, lam=0.25, q=0.5, t_end=0.5, n_cells=40)
    assert sol.times[0] == 0.0
    assert sol.times[-1] == pytest.approx(0.5, abs=sol.tau)
    assert len(sol.times) == len(sol.snapshots)


def _imex_reference(model, u0, u_B, *, h, eps, tau, n_steps, b=1.0):
    """IMEX update for B = diag(b), I by default, written out directly: the
    central step u* = u - tau (f_{j+1} - f_{j-1}) / 2h, then backward Euler
    u^{n+1} - eps b tau (u_{j+1} - 2 u_j + u_{j-1})^{n+1} / h^2 = u*, solved
    densely per component.  Both use the reflecting ghost 2 u_B - u_0 on the
    left and a copy ghost on the right, at the old and the new level
    respectively; u_B may be a function of t.  Returns the final cells and
    the time integrals of the total flux f - eps B u_x at the first and last
    faces."""
    cells = np.array(u0, dtype=float)
    ub = u_B if callable(u_B) else (lambda t: u_B)
    n = cells.shape[0]
    fl = np.zeros(np.shape(np.atleast_1d(cells[0])))
    fr = np.zeros_like(fl)
    b = np.broadcast_to(np.asarray(b, dtype=float), fl.shape)
    mu = eps * b * tau / (h * h)
    mats = []
    for mu_k in mu:
        A = (1.0 + 2.0 * mu_k) * np.eye(n) - mu_k * (np.eye(n, k=1) + np.eye(n, k=-1))
        A[0, 0] += mu_k
        A[-1, -1] -= mu_k
        mats.append(A)
    for step in range(n_steps):
        ub_old = np.asarray(ub(step * tau), dtype=float)
        ub_new = np.asarray(ub((step + 1) * tau), dtype=float)
        ext = np.concatenate([(2.0 * ub_old - cells[0])[None], cells, cells[-1:]], axis=0)
        f = np.asarray(model.flux(ext))
        rhs = (cells - tau * (f[2:] - f[:-2]) / (2.0 * h)).reshape(n, -1)
        rhs[0] += 2.0 * mu * ub_new.reshape(-1)
        cells = np.column_stack([np.linalg.solve(A, rhs[:, k]) for k, A in enumerate(mats)])
        cells = cells.reshape(np.shape(ext[1:-1]))
        fl += tau * np.atleast_1d(
            0.5 * (f[0] + f[1]) - 2.0 * eps * b * np.atleast_1d(cells[0] - ub_new) / h)
        fr += tau * np.atleast_1d(0.5 * (f[-2] + f[-1]))
    return cells, fl, fr


def test_viscous_step_matches_imex_update():
    rng = np.random.default_rng(9)
    cases = ((BURGERS, rng.uniform(-0.8, 0.8, 40), 0.6),
             (ELASTO, rng.uniform(0.2, 0.8, (40, 2)), np.array([0.5, -0.1])))
    for model, u0, u_B in cases:
        sol = run_viscous(model, u0, u_B, h=0.02, eps=0.02, t_end=0.2, n_cells=40)
        n_steps = int(round(0.2 / sol.tau))
        assert n_steps >= 4
        final, fl, fr = _imex_reference(model, u0, u_B, h=0.02, eps=0.02,
                                        tau=sol.tau, n_steps=n_steps)
        np.testing.assert_allclose(sol.final, final, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sol.flux_time_integral_left, fl, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sol.flux_time_integral_right, fr, rtol=0, atol=1e-13)
        assert sol.lam is None and sol.q is None


def _assert_matches_imex_reference(model, u0, u_B, *, h, eps, t_end, n_cells, b=1.0):
    sol = run_viscous(model, u0, u_B, h=h, eps=eps, t_end=t_end, n_cells=n_cells)
    n_steps = int(round(t_end / sol.tau))
    assert n_steps >= 4
    final, fl, fr = _imex_reference(model, u0, u_B, h=h, eps=eps, tau=sol.tau,
                                    n_steps=n_steps, b=b)
    np.testing.assert_allclose(sol.final, final, rtol=0, atol=1e-13)
    np.testing.assert_allclose(sol.flux_time_integral_left, fl, rtol=0, atol=1e-13)
    np.testing.assert_allclose(sol.flux_time_integral_right, fr, rtol=0, atol=1e-13)


def test_viscous_step_matches_imex_update_unequal_diagonal():
    # B = diag(5, 1): each component has its own matrix
    model = make_model("linear2", B=[5.0, 1.0])
    u0 = np.random.default_rng(11).uniform(-1.0, 1.0, (40, 2))
    _assert_matches_imex_reference(model, u0, np.array([0.5, -0.3]), h=0.02, eps=0.02,
                                   t_end=0.1, n_cells=40, b=[5.0, 1.0])


@pytest.mark.parametrize("n_cells", [1, 2])
def test_viscous_step_matches_imex_update_few_cells(n_cells):
    rng = np.random.default_rng(12)
    _assert_matches_imex_reference(BURGERS, rng.uniform(-0.8, 0.8, n_cells), 0.6, h=0.05,
                                   eps=0.02, t_end=0.4, n_cells=n_cells)
    _assert_matches_imex_reference(ELASTO, rng.uniform(0.2, 0.8, (n_cells, 2)),
                                   np.array([0.5, -0.1]), h=0.05, eps=0.02, t_end=0.4,
                                   n_cells=n_cells)


def test_viscous_step_matches_imex_update_moving_boundary():
    u0 = np.random.default_rng(13).uniform(-0.8, 0.8, 40)
    _assert_matches_imex_reference(BURGERS, u0, lambda t: 0.6 + 2.0 * t, h=0.02, eps=0.02,
                                   t_end=0.2, n_cells=40)


def test_viscous_runs_share_no_state():
    # each run builds its own factors and buffers: a run in between, with
    # another model and size, leaves a repeated run bit for bit the same
    def burgers():
        return run_viscous(BURGERS, -2.0, 1.0, h=0.01, eps=0.04, t_end=0.2, n_cells=40)

    first = burgers()
    run_viscous(make_model("linear2", B=[5.0, 1.0]), np.array([0.3, -0.2]),
                np.array([0.5, -0.3]), h=0.02, eps=0.05, t_end=0.1, n_cells=25)
    again = burgers()
    for name in ("snapshots", "boundary_samples", "flux_time_integral_left",
                 "flux_time_integral_right", "mass_final"):
        assert np.array_equal(getattr(first, name), getattr(again, name)), name


def test_viscous_time_step_follows_advective_bound():
    # the parabolic bound h^2 / (2 eps) needed 91k steps here at eps = 0.04
    taus = []
    for eps in (0.04, 0.02):
        sol = run_viscous(BURGERS, -2.0, 1.0, h=0.4 / 640, eps=eps, t_end=0.4, n_cells=640)
        assert int(round(0.4 / sol.tau)) <= 1500
        taus.append(sol.tau)
    assert taus[0] == taus[1]


def test_viscous_conservation_unequal_diagonal():
    # B = diag(5, 1): each component gets its own implicit solve
    model = make_model("linear2", B=[5.0, 1.0])
    rng = np.random.default_rng(10)
    u0 = rng.uniform(-1.0, 1.0, (60, 2))
    sol = run_viscous(model, u0, np.array([0.5, -0.3]), h=0.02, eps=0.05, t_end=0.3,
                      n_cells=60)
    change = sol.mass_final - sol.mass_initial
    np.testing.assert_allclose(
        change, sol.flux_time_integral_left - sol.flux_time_integral_right, atol=1e-12)


def test_viscous_constant_state_system():
    state = np.array([0.5, 0.1])
    sol = run_viscous(ELASTO, state, state, h=0.02, eps=0.02, t_end=0.3, n_cells=50)
    np.testing.assert_allclose(sol.final, np.broadcast_to(state, (50, 2)), rtol=0, atol=1e-13)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_viscous_rejects_eps_not_finite_positive(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        run_viscous(BURGERS, -0.5, 0.3, h=0.02, eps=eps, t_end=0.05, n_cells=40)


def test_viscous_needs_constant_diagonal_viscosity():
    u0 = np.linspace(-0.5, 0.5, 40)
    state_dependent = dataclasses.replace(
        BURGERS, viscosity=lambda u: (1.0 + np.asarray(u, dtype=float) ** 2)[..., None, None])
    with pytest.raises(ValueError):
        run_viscous(state_dependent, u0, 0.3, h=0.02, eps=0.02, t_end=0.05, n_cells=40)
    coupled = dataclasses.replace(ELASTO, viscosity=lambda u: np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        run_viscous(coupled, np.array([0.5, 0.0]), np.array([0.5, 0.1]), h=0.02,
                    eps=0.02, t_end=0.05, n_cells=40)


def _stacked_trace(model, v, w):
    """The Godunov trace as a stack of candidates [lo, hi, clip(c)] with f
    evaluated on the stack and two masked reductions (the reference for
    the Osher kernel, which works from f(v), f(w) and f at c)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    lo = np.minimum(v, w)
    hi = np.maximum(v, w)
    cand = [lo, hi] + [np.clip(c, lo, hi) for c in model.critical_points]
    cand = np.stack(np.broadcast_arrays(*cand))
    fvals = np.asarray(model.flux(cand), dtype=float)
    at_min = np.where(fvals <= fvals.min(axis=0), cand, -np.inf)
    at_max = np.where(fvals >= fvals.max(axis=0), cand, np.inf)
    return np.where(v <= w, at_min.max(axis=0), at_max.min(axis=0))


# a double well and a double hump: f(-1) = f(1) ties two minima or two
# maxima, and f(0) = f(+-sqrt 2)
QUARTIC_WELL = dataclasses.replace(
    CUBIC, name="quartic", flux=lambda u: 0.25 * (u * u) * (u * u) - 0.5 * (u * u),
    critical_points=(-1.0, 0.0, 1.0))
QUARTIC_HUMP = dataclasses.replace(
    QUARTIC_WELL, name="quartic-hump", flux=lambda u: 0.5 * (u * u) - 0.25 * (u * u) * (u * u))


def test_osher_kernel_equals_stacked_candidates():
    rng = np.random.default_rng(8)
    # critical points and states whose flux ties with them or each other
    marks = [(BURGERS, [0.0, -1.0, 1.0, -2.0, 2.0, 0.5, -0.5]),
             (CUBIC, [-1.0, 1.0, -2.0, 2.0, 0.0, 3.0 ** 0.5, -(3.0 ** 0.5), 0.5]),
             (QUARTIC_WELL, [-1.0, 0.0, 1.0, 2.0 ** 0.5, -(2.0 ** 0.5), -2.0, 2.0, 0.5]),
             (QUARTIC_HUMP, [-1.0, 0.0, 1.0, 2.0 ** 0.5, -(2.0 ** 0.5), -2.0, 2.0, 0.5])]
    for model, pts in marks:
        states = np.concatenate([pts, rng.uniform(-2.5, 2.5, 8)])
        v, w = (np.where(rng.random(40_000) < 0.7, rng.choice(states, 40_000),
                         rng.uniform(-2.5, 2.5, 40_000)) for _ in range(2))
        want = _stacked_trace(model, v, w)
        assert np.array_equal(godunov_trace_scalar(model, v, w), want), model.name
        assert np.array_equal(godunov_flux(model, v, w), model.flux(want)), model.name
        assert godunov_trace_scalar(model, v[:50], w[:50]).tolist() == \
            [float(godunov_trace_scalar(model, a, b)) for a, b in zip(v[:50], w[:50])]

    def stacked_faces(model):
        return lambda ext: np.asarray(model.flux(_stacked_trace(model, ext[:-1], ext[1:])))

    for model, pts in marks[:2]:
        u0 = rng.choice(np.array(pts), 300)  # neighbours tie often
        kw = dict(h=0.01, lam=0.2, t_end=0.5, n_cells=300, n_snapshots=5, store_all=True)
        sol = run_godunov(model, u0, 0.5, **kw)
        ref = schemes._run_conservative(model, "godunov", stacked_faces(model), u0, 0.5,
                                        q=None, speed_bound=1.0, **kw)
        assert np.array_equal(sol.history, ref.history), model.name
        assert np.array_equal(sol.flux_time_integral_left, ref.flux_time_integral_left)
        assert np.array_equal(sol.flux_time_integral_right, ref.flux_time_integral_right)
        for pairs in (None, [kruzkov_pair(model, k) for k in (-1.0, 0.0, 0.5)]):
            worst = 0.0
            for pair in model.entropies if pairs is None else pairs:
                for cur, nxt in zip(sol.history[:-1], sol.history[1:]):
                    right = np.concatenate([cur[1:], cur[-1:]])
                    g = np.asarray(pair.F(_stacked_trace(model, cur, right)))
                    res = (np.asarray(pair.U(nxt[1:])) - np.asarray(pair.U(cur[1:]))
                           + sol.lam * (g[1:] - g[:-1]))
                    worst = max(worst, float(np.max(res)))
            assert discrete_entropy_residual(model, sol, pairs) == worst, model.name


@pytest.mark.parametrize("level", [0, 3, 16, 17, 40])
def test_residual_rejects_non_finite_history(level):
    # 2048 cells: 16 levels per block, so levels 16 and 17 sit at a block edge
    sol = run_lf(BURGERS, np.linspace(-0.5, 0.5, 2048), 0.3, h=0.001, lam=0.25, q=0.5,
                 t_end=0.01, n_cells=2048, store_all=True)
    assert sol.history.shape[0] == 41
    assert discrete_entropy_residual(BURGERS, sol) <= 1e-12
    for bad in (np.nan, np.inf):
        history = sol.history.copy()
        history[level, 7] = bad
        history[-1, 9] = bad  # a later one is not the one named
        with pytest.raises(ValueError, match=f"history level {level} is not finite"):
            discrete_entropy_residual(BURGERS, dataclasses.replace(sol, history=history))


def _conservative(scheme, model, u0, u_B, **kw):
    if scheme == "godunov":
        return run_godunov(model, u0, u_B, lam=0.2, **kw)
    return (run_lf if scheme == "lf" else run_split)(model, u0, u_B, lam=0.2, q=0.5, **kw)


@pytest.mark.parametrize("scheme", ["lf", "split", "godunov"])
def test_residual_of_negated_pairs_equals_per_step_loop(scheme):
    # a -u pair listed beside its +u pair is not evaluated but taken as minus
    # the +u residual; a level lowered at one step makes the -u pair decide
    rng = np.random.default_rng(14)
    for model in (BURGERS, CUBIC):
        plus, minus = model.entropies[1:]
        u0, u_B = rng.uniform(-1.2, 1.2, 200), float(rng.uniform(-1.2, 1.2))
        sol = _conservative(scheme, model, u0, u_B, h=0.01, t_end=0.1, n_cells=200,
                            store_all=True)
        kruzkov = [kruzkov_pair(model, k) for k in (-0.7, 0.0, 0.4)]
        for bump in (1e-3, -1e-3):
            history = sol.history.copy()
            history[9, 7] += bump
            raised = dataclasses.replace(sol, history=history)
            for pairs in ([plus], [minus, plus], [minus], kruzkov, None):
                got = discrete_entropy_residual(model, raised, pairs)
                assert got == _residual_per_step(model, raised, pairs), (model.name, bump)
            assert discrete_entropy_residual(model, raised, [minus, plus]) > 1e-6


def test_residual_of_negated_system_pairs_equals_per_step_loop():
    rng = np.random.default_rng(15)
    sol = run_lf(ELASTO, rng.uniform(-0.3, 0.3, (120, 2)), np.array([0.1, -0.1]), h=0.01,
                 lam=0.2, q=0.5, t_end=0.1, n_cells=120, store_all=True)
    for j in range(2):
        history = sol.history.copy()
        history[9, 7, j] -= 1e-3  # the -u_j pair decides
        raised = dataclasses.replace(sol, history=history)
        got = discrete_entropy_residual(ELASTO, raised)
        assert got > 1e-6 and got == _residual_per_step(ELASTO, raised), j


@pytest.mark.parametrize("scheme", ["lf", "split", "godunov"])
def test_stored_histories_share_no_buffer(scheme):
    # each run allocates its own history and face buffers: a run in between,
    # with another model and size, leaves a repeated run bit for bit the same
    def burgers():
        return _conservative(scheme, BURGERS, -1.0, 0.5, h=0.01, t_end=0.2, n_cells=40,
                             store_all=True)

    first = burgers()
    kept = first.history.copy()
    _conservative(scheme, CUBIC, 0.5, -0.5, h=0.02, t_end=0.1, n_cells=25, store_all=True)
    again = burgers()
    assert np.array_equal(first.history, kept) and np.array_equal(again.history, kept)
    assert not np.shares_memory(first.history, again.history)
    assert np.array_equal(first.snapshots, again.snapshots)


@pytest.mark.parametrize("scheme", ["lf", "split", "godunov", "viscous"])
def test_snapshots_are_history_rows(scheme):
    kw = dict(h=0.02, t_end=0.37, n_cells=40, n_snapshots=7, store_all=True)

    def u_B(t):  # a moving boundary: cell 0 changes every step
        return 0.5 + t

    if scheme == "viscous":
        sol = run_viscous(BURGERS, -0.3, u_B, eps=0.05, **kw)
    else:
        sol = _conservative(scheme, BURGERS, -0.3, u_B, **kw)
    steps = np.rint(sol.times / sol.tau).astype(int)
    assert steps[0] == 0 and steps[-1] == sol.history.shape[0] - 1 and len(steps) == 7
    assert np.array_equal(sol.snapshots, sol.history[steps])


@pytest.mark.parametrize("scheme", ["lf", "split", "godunov"])
def test_zero_step_run_stores_one_level(scheme):
    sol = _conservative(scheme, BURGERS, -0.3, 0.5, h=0.02, t_end=0.0, n_cells=40,
                        store_all=True)
    assert sol.history.shape == (1, 40)
    assert np.array_equal(sol.history[0], sol.snapshots[0]) and sol.history[0, 0] == 0.5


@pytest.mark.parametrize("scheme", ["lf", "split", "godunov"])
def test_residual_of_one_cell_run_names_the_cause(scheme):
    # the only cell is pinned, so there is no interior cell to check
    sol = _conservative(scheme, BURGERS, -0.3, 0.5, h=0.02, t_end=0.1, n_cells=1,
                        store_all=True)
    with pytest.raises(ValueError, match="entropy residual: a 1-cell run has no interior cell"):
        discrete_entropy_residual(BURGERS, sol)
