import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quarterplane.systems import (
    HyperbolicityError,
    classify_euler_region,
    eigen_structure,
    entropy_eval,
    kruzkov_pair,
    make_model,
)

RNG = np.random.default_rng(20240817)

ALL_NAMES = ["burgers", "cubic", "linear2", "elastodynamics", "euler_isentropic", "lagrangian_gas"]


def sample_states(model, n):
    """Random interior states, kept away from degenerate regions."""
    if model.dimension == 1:
        return [float(x) for x in RNG.uniform(-2.5, 2.5, size=n)]
    states = []
    for _ in range(n):
        if model.name in ("euler_isentropic", "lagrangian_gas"):
            states.append(np.array([RNG.uniform(0.3, 3.0), RNG.uniform(-2.0, 2.0)]))
        else:
            states.append(RNG.uniform(-2.0, 2.0, size=2))
    return states


def fd_jacobian(model, u, step=1e-5):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = model.dimension
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step * (1.0 + abs(u[j]))
        up = u + e
        um = u - e
        if n == 1:
            out[0, 0] = (model.flux(float(up[0])) - model.flux(float(um[0]))) / (2 * e[0])
        else:
            out[:, j] = (model.flux(up) - model.flux(um)) / (2 * e[j])
    return out


# Constructor examples --------------------------------------------------------


def test_cubic_flux_values():
    m = make_model("cubic")
    assert m.flux(1.0) == pytest.approx(-1.0)
    assert m.flux(-1.0) == pytest.approx(1.0)
    assert m.dflux(1.0) == pytest.approx(0.0)


def test_burgers_sonic_point():
    m = make_model("burgers")
    assert m.flux(0.0) == 0.0
    assert m.dflux(0.0) == 0.0


def test_euler_flux_at_rest():
    m = make_model("euler_isentropic", gamma=2.0)
    np.testing.assert_allclose(m.flux(np.array([1.0, 0.0])), [0.0, 1.0])


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        make_model("kdv")


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        make_model("euler_isentropic", gamma=0.9)
    with pytest.raises(ValueError):
        make_model("linear2", B=[1.0, -1.0])


@pytest.mark.parametrize("name, params", [
    ("euler_isentropic", {"gama": 1.4}),
    ("burgers", {"gamma": 2.0}),
    ("cubic", {"a": 1.0}),
    ("linear2", {"b": [1.0, 1.0]}),
    ("elastodynamics", {"sigma_excess": 1.0}),
    ("lagrangian_gas", {"gamma": 1.4}),
])
def test_unknown_params_rejected(name, params):
    with pytest.raises(ValueError, match="unknown parameter"):
        make_model(name, **params)


# Eigenstructure --------------------------------------------------------------


def test_linear2_eigenvalues():
    m = make_model("linear2")
    es = eigen_structure(m, np.zeros(2))
    np.testing.assert_allclose(es.eigenvalues, [-2.0, 0.0], atol=1e-12)
    assert es.p == 1
    assert es.characteristic


def test_lagrangian_eigenvalues():
    m = make_model("lagrangian_gas")
    es = eigen_structure(m, np.array([2.0, 0.3]))
    np.testing.assert_allclose(es.eigenvalues, [-0.5, 0.5], atol=1e-14)
    assert es.p == 1
    assert not es.characteristic


def test_burgers_sonic_eigenstructure():
    m = make_model("burgers")
    es = eigen_structure(m, 0.0)
    assert es.eigenvalues[0] == 0.0
    assert es.p == 0
    assert es.characteristic


def test_defective_matrix_raises():
    # linear2 validates its spectrum at construction time.
    with pytest.raises(HyperbolicityError):
        make_model("linear2", A=[[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(HyperbolicityError):
        make_model("linear2", A=[[0.0, 1.0], [-1.0, 0.0]])


def test_biorthonormality_random_states():
    for name in ALL_NAMES:
        m = make_model(name)
        for u in sample_states(m, 20):
            es = eigen_structure(m, u)
            np.testing.assert_allclose(es.left @ es.right, np.eye(m.dimension), atol=1e-10)


def test_eigen_residual_random_states():
    for name in ALL_NAMES:
        m = make_model(name)
        for u in sample_states(m, 20):
            a = m.jacobian(u)
            es = eigen_structure(m, u)
            scale = np.linalg.norm(a) + 1.0
            for j in range(m.dimension):
                r = es.right[:, j]
                res = a @ r - es.eigenvalues[j] * r
                assert np.linalg.norm(res) <= 1e-9 * scale


def test_psystem_eigenvalues_closed_form():
    m = make_model("elastodynamics")
    for u in sample_states(m, 30):
        es = eigen_structure(m, u)
        c = np.sqrt(m.params["sigma_prime"](u[0]))
        np.testing.assert_allclose(es.eigenvalues, [-c, c], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_jacobian_and_viscosity_take_state_arrays(name):
    # one call on 61 states returns (61, N, N): each state's matrix, bit for bit
    m = make_model(name)
    n = m.dimension
    rng = np.random.default_rng(61)
    if n == 1:
        states = rng.uniform(-2.5, 2.5, 61)
    else:
        states = np.column_stack([rng.uniform(0.3, 3.0, 61), rng.uniform(-2.0, 2.0, 61)])
    for fn in (m.jacobian, m.viscosity):
        batch = fn(states)
        assert batch.shape == (61, n, n)
        for s, row in zip(states, batch):
            single = np.asarray(fn(float(s) if n == 1 else s))
            assert single.shape == (n, n) and single.tobytes() == row.tobytes(), (fn, s)


# Structural invariants -------------------------------------------------------


def test_fd_jacobian_all_models():
    for name in ALL_NAMES:
        m = make_model(name)
        for u in sample_states(m, 100):
            a = np.asarray(m.jacobian(u))
            fd = fd_jacobian(m, u)
            scale = np.linalg.norm(a) + 1.0
            assert np.linalg.norm(a - fd) <= 1e-6 * scale, (name, u)


def _fd_grad(fn, u, step=1e-6):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = np.empty(u.size)
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = step * (1.0 + abs(u[j]))
        g[j] = (fn(u + e) - fn(u - e)) / (2 * e[j])
    return g


def test_entropy_compatibility_all_models():
    # grad F = grad U . grad f, checked by finite differences.
    for name in ALL_NAMES:
        m = make_model(name)
        for u in sample_states(m, 25):
            a = np.asarray(m.jacobian(u))
            for pair in m.entropies:
                if m.dimension == 1:
                    gf = _fd_grad(lambda x: float(pair.F(float(x[0]))), [u])
                    gu = np.atleast_1d(pair.grad_U(u))
                else:
                    gf = _fd_grad(pair.F, u)
                    gu = np.asarray(pair.grad_U(u))
                assert np.linalg.norm(gf - gu @ a) <= 1e-6 * (1.0 + np.linalg.norm(a)), (name, pair.label)


def test_strictly_convex_hessians_positive_definite():
    for name in ALL_NAMES:
        m = make_model(name)
        for u in sample_states(m, 20):
            for pair in m.entropies:
                if pair.convexity != "strictly-convex":
                    continue
                h = np.atleast_2d(np.asarray(pair.hess_U(u), dtype=float))
                evals = np.linalg.eigvalsh(0.5 * (h + h.T))
                assert np.all(evals > 0.0), (name, pair.label, u)


# Entropy evaluation ----------------------------------------------------------


def test_entropy_eval_burgers_quadratic():
    m = make_model("burgers")
    u_val, f_val, g_val = entropy_eval(m.entropies[0], 2.0)
    assert u_val == pytest.approx(2.0)
    assert f_val == pytest.approx(8.0 / 3.0)
    assert g_val == pytest.approx(2.0)


def test_kruzkov_values():
    m = make_model("burgers")
    pair = kruzkov_pair(m, 0.0)
    u_val, f_val, g_val = entropy_eval(pair, -1.0)
    assert u_val == pytest.approx(1.0)
    assert f_val == pytest.approx(-0.5)
    assert g_val == pytest.approx(-1.0)


def test_kruzkov_at_base_point():
    m = make_model("cubic")
    pair = kruzkov_pair(m, 0.7)
    assert entropy_eval(pair, 0.7) == (0.0, 0.0, 0.0)


# Euler regions ---------------------------------------------------------------


def test_euler_regions_examples():
    m = make_model("euler_isentropic", gamma=2.0)
    c = np.sqrt(2.0)
    assert classify_euler_region(m, (1.0, -2.0)) == "I"
    assert classify_euler_region(m, (1.0, 0.0)) == "III"
    assert classify_euler_region(m, (1.0, c)) == "IV"
    assert classify_euler_region(m, (1.0, -c)) == "II"
    assert classify_euler_region(m, (1.0, 2.0)) == "V"
    with pytest.raises(ValueError):
        classify_euler_region(m, (-1.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(u=st.floats(-3, 3), rho=st.floats(0.05, 4.0))
def test_euler_region_sign_consistency(u, rho):
    m = make_model("euler_isentropic", gamma=2.0)
    c = np.sqrt(2.0 * rho)
    region = classify_euler_region(m, (rho, u))
    tol = 1e-9 * (1.0 + abs(u) + c)
    if region == "I":
        assert u + c < tol
    elif region == "V":
        assert u - c > -tol
    elif region == "III":
        assert u - c < tol and u + c > -tol


# Closed-form p-system integrals ----------------------------------------------

ELASTO = make_model("elastodynamics")
# The default stress law passed in by hand: no closed forms, so every
# p-system integral of this model goes through quadrature.
ELASTO_QUAD = make_model("elastodynamics", sigma=ELASTO.params["sigma"],
                         sigma_prime=ELASTO.params["sigma_prime"])


def _strain_pairs(n=600, seed=11):
    """Random pairs on [-3, 3]; in a third of them the two states lie
    between 1e-12 and 1e-8 apart."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, n)
    b = rng.uniform(-3.0, 3.0, n)
    k = n // 3
    b[:k] = a[:k] + rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-12.0, -8.0, k)
    return a, b


def test_closed_forms_only_for_the_default_stress():
    assert ELASTO.params["sqrt_sigma_prime_integral"] is not None
    assert ELASTO.params["sigma_excess"] is not None
    assert ELASTO_QUAD.params["sqrt_sigma_prime_integral"] is None
    assert ELASTO_QUAD.params["sigma_excess"] is None


def test_rarefaction_integral_closed_form_matches_quad():
    from quarterplane.riemann import _sqrt_sigma_p_integral

    for v0, v1 in zip(*_strain_pairs()):
        closed = _sqrt_sigma_p_integral(ELASTO, v0, v1)
        assert abs(closed - _sqrt_sigma_p_integral(ELASTO_QUAD, v0, v1)) <= 1e-9
        assert closed == pytest.approx(-_sqrt_sigma_p_integral(ELASTO, v1, v0), abs=1e-15)


def test_elasto_curve_closed_form_matches_quad():
    from quarterplane.layers import elasto_layer_curve

    v_inf, v_B = _strain_pairs()
    for i in range(0, v_B.size, 10):
        base = (v_B[i], 0.5)
        vs = v_inf[i:i + 10] - v_B[i:i + 10] + v_B[i]  # keep each pair's offset
        closed = elasto_layer_curve(ELASTO, base, vs).points
        quad = elasto_layer_curve(ELASTO_QUAD, base, vs).points
        np.testing.assert_array_equal(closed[:, 0], quad[:, 0])
        assert np.max(np.abs(closed[:, 1] - quad[:, 1])) <= 1e-13


def test_custom_stress_energy_matches_its_gradient():
    # sigma = 2v + v^3 without sigma_energy: U is integrated from sigma
    m = make_model("elastodynamics", sigma=lambda v: 2.0 * v + v ** 3,
                   sigma_prime=lambda v: 2.0 + 3.0 * v * v)
    energy = m.entropies[0]
    h = 1e-4
    for state in (np.array([1.0, 0.3]), np.array([-0.7, 1.2]), np.array([2.1, -0.4])):
        fd = [(energy.U(state + e) - energy.U(state - e)) / (2 * h) for e in h * np.eye(2)]
        np.testing.assert_allclose(fd, energy.grad_U(state), atol=1e-6)


def test_custom_stress_takes_the_quad_fallback():
    from quarterplane.layers import elasto_layer_curve
    from quarterplane.riemann import _phi1, _phi2, psystem_riemann_trace

    m = make_model("elastodynamics", sigma=lambda v: 2.0 * v + v ** 3,
                   sigma_prime=lambda v: 2.0 + 3.0 * v * v)
    assert m.params["sqrt_sigma_prime_integral"] is None and m.params["sigma_excess"] is None
    rng = np.random.default_rng(3)
    kinds = set()
    for _ in range(25):
        left = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)])
        right = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)])
        fan = psystem_riemann_trace(m, left, right)
        mid = fan.trace_at_zero_plus
        res = _phi1(m, mid[0], left) - _phi2(m, mid[0], right)
        assert abs(res) <= 1e-10 * (1.0 + np.abs(mid).max())
        kinds.update(w.kind for w in fan.waves)
    assert kinds == {"shock", "rarefaction"}
    # integral of sigma(v_i + t) - sigma(v_i) over t in [0, d], in closed form
    v_B, u_B = 1.0, 0.2
    vs = np.array([0.2, 0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.4, 2.6])
    d = v_B - vs
    excess = d * d * (1.0 + 1.5 * vs * vs) + vs * d ** 3 + d ** 4 / 4.0
    want = u_B + np.sign(vs - v_B) * np.sqrt(2.0 * excess)
    got = elasto_layer_curve(m, (v_B, u_B), vs).points[:, 1]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["burgers", "cubic"])
def test_float_state_takes_float_arithmetic_with_array_bits(name):
    # a float state gives a float back, with the bits of a 1-element array
    model = make_model(name)
    entropy_flux = model.entropies[0].F
    rng = np.random.default_rng(30)
    xs = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-3.0, 100.0, 10_000)
    for x in xs.tolist():
        assert type(model.flux(x)) is float and type(model.dflux(x)) is float
        for fn in (model.flux, model.dflux):
            assert np.array([fn(x)]).tobytes() == fn(np.array([x])).tobytes(), (fn, x)
        with np.errstate(over="ignore"):  # u^4 overflows above 1e77 on both paths
            assert np.array([entropy_flux(x)]).tobytes() == entropy_flux(np.array([x])).tobytes()


def test_lagrangian_gas_is_the_p_system_of_sigma_minus_one_over_v():
    from dataclasses import replace

    from quarterplane.riemann import _sqrt_sigma_p_integral
    from quarterplane.systems import UnsupportedModelError, stress_law

    gas = make_model("lagrangian_gas")
    rng = np.random.default_rng(41)
    states = np.stack([rng.uniform(0.3, 3.0, 500), rng.uniform(-2.0, 2.0, 500)], axis=1)
    np.testing.assert_array_equal(gas.flux(states),
                                  np.stack([-states[:, 1], 1.0 / states[:, 0]], axis=1))
    assert gas.state_region[0] == (0.0, np.inf)
    law = stress_law(gas, "this test")
    assert law["sqrt_sigma_prime_integral"] is not None and law["sigma_excess"] is None
    # the closed-form rarefaction integral log(v1/v0) against quadrature
    by_quad = replace(gas, params={**law, "sqrt_sigma_prime_integral": None})
    for v0, v1 in rng.uniform(0.3, 3.0, (50, 2)):
        assert _sqrt_sigma_p_integral(gas, v0, v1) == pytest.approx(np.log(v1 / v0), abs=1e-15)
        assert abs(_sqrt_sigma_p_integral(by_quad, v0, v1) - np.log(v1 / v0)) <= 1e-9
    for name in ("burgers", "linear2", "euler_isentropic"):
        with pytest.raises(UnsupportedModelError, match="stress law"):
            stress_law(make_model(name), "this test")


def test_model_names_are_compared_only_by_the_euler_region_classifier():
    # What a model can do is read from its capabilities, not its name.
    # classify_euler_region keeps its check: its input, a primitive (rho, u)
    # pair, only Euler defines.  Any `<name>.name` in a comparison counts.
    import ast
    from pathlib import Path

    import quarterplane

    found = []

    class Finder(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Compare(self, node):
            if any(isinstance(x, ast.Attribute) and x.attr == "name" and isinstance(x.value, ast.Name)
                   for x in (node.left, *node.comparators)):
                found.append((self.module, self.scope[-1]))
            self.generic_visit(node)

    for path in sorted(Path(quarterplane.__file__).parent.glob("*.py")):
        Finder(path.name).visit(ast.parse(path.read_text()))
    assert found == [("systems.py", "classify_euler_region")]
