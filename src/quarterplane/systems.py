"""Conservation-law system definitions.

Each model packages the flux, its Jacobian, an eigendecomposition, a list of
entropy pairs (at least one strictly convex) and a viscosity matrix.  States
for scalar models are floats or arrays (elementwise); built-in scalar fluxes
keep a float a float; 2x2 states are arrays whose last axis has length 2.
Every model callable takes state arrays: ``jacobian`` and ``viscosity`` map
states (..., N) to matrices (..., N, N), and scalar states (...) to (..., 1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EntropyPair",
    "EigenStructure",
    "SystemModel",
    "HyperbolicityError",
    "UnsupportedModelError",
    "make_model",
    "stress_law",
    "eigen_structure",
    "classify_euler_region",
    "entropy_eval",
    "kruzkov_pair",
]


class HyperbolicityError(ValueError):
    """Raised when the Jacobian is defective or has complex eigenvalues."""


class UnsupportedModelError(ValueError):
    """Raised when a model lacks a capability the computation needs (a scalar
    state, a convex flux, a constant diagonal viscosity, ...)."""


# --- Domain types ------------------------------------------------------------


@dataclass(frozen=True)
class EntropyPair:
    """An entropy/entropy-flux pair (U, F) with gradient and Hessian of U.

    ``convexity`` is one of ``strictly-convex``, ``convex`` or ``trivial``.
    Trivial pairs are (+-u_j, +-f_j); they carry no convexity information but
    are useful to force flux equalities in admissibility arguments.  A -u_j
    pair ``negates`` its +u_j pair: its U and F are theirs negated, exactly
    in floating point but for the sign of a zero.
    """

    U: Callable
    F: Callable
    grad_U: Callable
    hess_U: Callable
    convexity: str = "strictly-convex"
    label: str = ""
    negates: Optional["EntropyPair"] = None


@dataclass(frozen=True)
class EigenStructure:
    """Sorted eigenvalues with biorthonormal left/right eigenvectors.

    ``right`` holds right eigenvectors as columns, ``left`` holds left
    eigenvectors as rows, so that left @ right == identity.  ``p`` counts the
    strictly negative eigenvalues (characteristic speeds entering from the
    right of the boundary); ``characteristic`` is set when some eigenvalue is
    zero up to ``tol_char``.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    p: int
    characteristic: bool
    tol_char: float


@dataclass(frozen=True)
class SystemModel:
    name: str
    dimension: int
    flux: Callable
    jacobian: Callable  # states (..., N) -> (..., N, N); scalar states (...) -> (..., 1, 1)
    entropies: tuple
    viscosity: Callable  # as jacobian: B at each state
    state_region: tuple  # per-component (lo, hi) open bounds
    params: dict = field(default_factory=dict)
    # Scalar conveniences (None for systems): elementwise f', the interior
    # critical points of f (roots of f'), used by envelope/extremum code, and
    # the inflection points of f (roots of f''), where |f'| can peak inside
    # an interval.
    dflux: Optional[Callable] = None
    critical_points: tuple = ()
    inflection_points: tuple = ()
    # Vectorized max characteristic speed, used for CFL control.
    max_char_speed: Optional[Callable] = None
    flux_convex: bool = False
    # u -> the roots v != u of f(v) = f(u), ascending; closed-form sets need it.
    level_roots: Optional[Callable] = None

    def in_region(self, state) -> bool:
        u = np.asarray(state, dtype=float)
        lo, hi = np.array(self.state_region, dtype=float).T
        u = u[..., None] if self.dimension == 1 else u
        return bool(np.all((u > lo) & (u < hi)))

    def viscosity_diagonal(self, states) -> np.ndarray:
        """The diagonal of B, checked to be diagonal and equal at the given
        states (UnsupportedModelError otherwise): the viscous scheme and the
        layer profile need a constant diagonal B; a bare (N, N) matrix is constant."""
        n = self.dimension
        mats = np.broadcast_to(self.viscosity(np.asarray(states, dtype=float)), (len(states), n, n))
        b = mats[0]
        if np.any(mats != b) or np.any(b != np.diag(np.diag(b))):
            raise UnsupportedModelError("needs a constant diagonal viscosity matrix B")
        return np.diag(b)


# --- Eigen helpers -----------------------------------------------------------


def _eig2(a: np.ndarray, tol: float = 1e-12):
    """Closed-form eigendecomposition of a real 2x2 matrix.

    Returns (eigenvalues ascending, right eigenvector matrix).  Raises
    HyperbolicityError for complex or defective spectra.
    """
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    scale = 1.0 + abs(tr) + abs(det)
    if disc < -tol * scale:
        raise HyperbolicityError("complex eigenvalues: disc=%g" % disc)
    disc = max(disc, 0.0)
    rt = np.sqrt(disc)
    lam1 = 0.5 * (tr - rt)
    lam2 = 0.5 * (tr + rt)
    if rt <= tol * scale:
        # Equal eigenvalues: only acceptable if the matrix is (numerically) a
        # multiple of the identity, otherwise it is defective.
        off = abs(a[0, 1]) + abs(a[1, 0]) + abs(a[0, 0] - a[1, 1])
        if off > tol * scale:
            raise HyperbolicityError("defective 2x2 matrix")
        return np.array([lam1, lam2]), np.eye(2)

    def _evec(lam):
        # Null vector of (a - lam I), taking the numerically larger row.
        r0 = (a[0, 0] - lam, a[0, 1])
        r1 = (a[1, 0], a[1, 1] - lam)
        row = r0 if abs(r0[0]) + abs(r0[1]) >= abs(r1[0]) + abs(r1[1]) else r1
        v = np.array([-row[1], row[0]])
        n = np.linalg.norm(v)
        if n == 0.0:
            v = np.array([1.0, 0.0])
            n = 1.0
        return v / n

    right = np.column_stack([_evec(lam1), _evec(lam2)])
    return np.array([lam1, lam2]), right


def eigen_structure(model: SystemModel, state) -> EigenStructure:
    """Eigenvalues/eigenvectors of the flux Jacobian at ``state``.

    Eigenvalues are sorted ascending; left eigenvectors are the rows of the
    inverse of the right eigenvector matrix, which makes the pairing
    biorthonormal by construction.
    """
    n = model.dimension
    if n > 2:
        raise UnsupportedModelError("eigen_structure supports scalar and 2x2 models")
    a = np.asarray(model.jacobian(state), dtype=float).reshape(n, n)
    if n == 1:
        evals, right, left = a[0], np.ones((1, 1)), np.ones((1, 1))
    else:
        evals, right = _eig2(a)
        left = np.linalg.inv(right)
    tc = 1e-9 * (1.0 + float(np.max(np.abs(evals))))
    p = int(np.sum(evals < -tc))
    characteristic = bool(np.any(np.abs(evals) <= tc))
    return EigenStructure(evals, right, left, p, characteristic, tc)


def entropy_eval(pair: EntropyPair, state):
    """Evaluate an entropy pair, returning the triple (U, F, grad U)."""
    return pair.U(state), pair.F(state), pair.grad_U(state)


# --- Built-in models ---------------------------------------------------------


def _scalar_pairs(f, entropy_flux):
    """(u^2/2, entropy_flux), entropy_flux' = u f', and the trivial pairs."""
    def hess(u):
        return 0.0 * np.asarray(u, dtype=float)

    quad = EntropyPair(U=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2, F=entropy_flux,
                       grad_U=lambda u: np.asarray(u, dtype=float) + 0.0,
                       hess_U=lambda u: np.ones_like(np.asarray(u, dtype=float)), label="u^2/2")
    plus = EntropyPair(U=lambda u: np.asarray(u, dtype=float) + 0.0, F=f,
                       grad_U=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       hess_U=hess, convexity="trivial", label="+u")
    minus = EntropyPair(U=lambda u: -np.asarray(u, dtype=float), F=lambda u: -f(u),
                        grad_U=lambda u: -np.ones_like(np.asarray(u, dtype=float)),
                        hess_U=hess, convexity="trivial", label="-u", negates=plus)
    return quad, plus, minus


def _trivial_pairs_system(flux, n):
    pairs = []
    for j in range(n):
        for sgn, tag in ((1.0, "+"), (-1.0, "-")):
            def U(u, j=j, sgn=sgn):
                return sgn * np.asarray(u, dtype=float)[..., j]

            def F(u, j=j, sgn=sgn):
                return sgn * np.asarray(flux(u))[..., j]

            def grad(u, j=j, sgn=sgn):
                g = np.zeros(n)
                g[j] = sgn
                return g

            def hess(u):
                return np.zeros((n, n))

            pairs.append(EntropyPair(U, F, grad, hess, "trivial", "%su_%d" % (tag, j + 1),
                                     negates=pairs[-1] if sgn < 0.0 else None))
    return tuple(pairs)


def _scalar_state(u):
    """A float as is (the array path's bits without a 0-d array's cost), else a float array."""
    return u if isinstance(u, float) else np.asarray(u, dtype=float)


def _make_burgers(params):
    def f(u):
        u = _scalar_state(u)
        return 0.5 * u * u

    def df(u):
        return _scalar_state(u) + 0.0

    def entropy_flux(u):
        u = _scalar_state(u)
        return u * u * u / 3.0

    return SystemModel(
        name="burgers", dimension=1, flux=f,
        jacobian=lambda u: np.asarray(df(u), dtype=float)[..., None, None],
        entropies=_scalar_pairs(f, entropy_flux),
        viscosity=lambda u: np.broadcast_to(np.eye(1), np.shape(u) + (1, 1)),
        state_region=((-np.inf, np.inf),),
        dflux=df, critical_points=(0.0,),
        max_char_speed=lambda u: np.abs(np.asarray(u, dtype=float)),
        flux_convex=True,
        level_roots=lambda u: (-float(u),) if u != 0.0 else (),
    )


def _make_cubic(params):
    def f(u):
        u = _scalar_state(u)
        return 0.5 * (u * u * u - 3.0 * u)

    def df(u):
        u = _scalar_state(u)
        return 1.5 * u * u - 1.5

    def entropy_flux(u):
        # F' = u f'(u) = (3u^3 - 3u)/2  ->  F = 3u^4/8 - 3u^2/4
        u = _scalar_state(u)
        u2 = u * u
        return 0.375 * u2 * u2 - 0.75 * u2

    def level_roots(u):
        # Deflating (v - u) from v^3 - 3v - (u^3 - 3u) leaves the quadratic
        # v^2 + u v + (u^2 - 3); v = u is one of its roots only at the
        # critical points u = +-1.
        u = float(u)
        disc = 12.0 - 3.0 * u * u
        if disc < 0.0:
            return ()
        if disc <= 1e-12:
            return (-0.5 * u,)  # double root at |u| = 2
        rt = math.sqrt(disc)
        return tuple(r for r in (0.5 * (-u - rt), 0.5 * (-u + rt)) if r != u or abs(u) != 1.0)

    return SystemModel(
        name="cubic", dimension=1, flux=f,
        jacobian=lambda u: np.asarray(df(u), dtype=float)[..., None, None],
        entropies=_scalar_pairs(f, entropy_flux),
        viscosity=lambda u: np.broadcast_to(np.eye(1), np.shape(u) + (1, 1)),
        state_region=((-np.inf, np.inf),),
        dflux=df, critical_points=(-1.0, 1.0),
        inflection_points=(0.0,),
        max_char_speed=lambda u: np.abs(df(u)),
        flux_convex=False, level_roots=level_roots,
    )


def _make_linear2(params):
    a = np.array(params.get("A", [[-5.0, 5.0], [-3.0, 3.0]]), dtype=float)
    b_diag = np.asarray(params.get("B", [1.0, 1.0]), dtype=float)
    if a.shape != (2, 2):
        raise ValueError("linear2 requires a 2x2 matrix A")
    if b_diag.shape != (2,) or np.any(b_diag <= 0.0):
        raise ValueError("linear2 requires a positive-definite diagonal viscosity B")
    evals, right = _eig2(a)  # validates strict hyperbolicity
    left = np.linalg.inv(right)

    def f(u):
        u = np.asarray(u, dtype=float)
        return u @ a.T

    # Quadratic entropy built from characteristic variables: U = 1/2 sum (l_i.u)^2
    # with F = 1/2 sum lambda_i (l_i.u)^2; compatibility holds by construction.
    s_mat = left.T @ left
    fs_mat = left.T @ np.diag(evals) @ left

    quad = EntropyPair(
        U=lambda u: 0.5 * np.einsum("...i,ij,...j->...", np.asarray(u, dtype=float), s_mat, np.asarray(u, dtype=float)),
        F=lambda u: 0.5 * np.einsum("...i,ij,...j->...", np.asarray(u, dtype=float), fs_mat, np.asarray(u, dtype=float)),
        grad_U=lambda u: s_mat @ np.asarray(u, dtype=float),
        hess_U=lambda u: s_mat.copy(),
        convexity="strictly-convex",
        label="characteristic-quadratic",
    )
    amax = float(np.max(np.abs(evals)))
    return SystemModel(
        name="linear2", dimension=2, flux=f,
        jacobian=lambda u: np.broadcast_to(a, np.shape(u)[:-1] + (2, 2)),
        entropies=(quad,) + _trivial_pairs_system(f, 2),
        viscosity=lambda u: np.broadcast_to(np.diag(b_diag), np.shape(u)[:-1] + (2, 2)),
        state_region=((-np.inf, np.inf), (-np.inf, np.inf)),
        params={"A": a, "B": b_diag},
        max_char_speed=lambda u: np.full(np.asarray(u, dtype=float).shape[:-1], amax),
    )


def _default_stress(v):
    v = np.asarray(v, dtype=float)
    return v + v * v * v / 3.0


def _default_stress_prime(v):
    v = np.asarray(v, dtype=float)
    return 1.0 + v * v


def _default_stress_energy(v):
    # integral of sigma from 0 to v
    v = np.asarray(v, dtype=float)
    v2 = v * v
    return 0.5 * v2 + v2 * v2 / 12.0


def _default_sqrt_stress_prime_integral(v0, v1):
    """Integral of sqrt(sigma') = sqrt(1 + s^2) over [v0, v1]: A(v1) - A(v0)."""
    a0, a1 = (0.5 * (v * math.sqrt(1.0 + v * v) + math.asinh(v)) for v in (float(v0), float(v1)))
    return a1 - a0


def _default_stress_excess(v_i, v_B):
    """Integral of |sigma(s) - sigma(v_i)| between v_i and v_B in powers of d = v_B - v_i;
    E(v_B) - E(v_i) - sigma(v_i) d would cancel near the base point."""
    v_i = float(v_i)
    d = float(v_B) - v_i
    return abs(d * d * (0.5 * (1.0 + v_i * v_i) + d * (v_i / 3.0 + d / 12.0)))


def quad_integral(fn, a, b) -> float:
    """The integral of fn over [a, b] (signed) by adaptive quadrature: the
    fallback of every p-system integral that has no closed form."""
    from scipy.integrate import quad

    return quad(fn, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)[0]


def _stress_energy_quad(sigma):
    """v -> the integral of sigma from 0 to v, elementwise, by quadrature."""
    return np.vectorize(lambda x: quad_integral(lambda s: float(sigma(s)), 0.0, x), otypes=[float])


def _make_elastodynamics(params):
    sigma = params.get("sigma", _default_stress)
    sigma_p = params.get("sigma_prime", _default_stress_prime)
    sigma_int = params.get("sigma_energy", _stress_energy_quad(sigma) if "sigma" in params
                           else _default_stress_energy)
    # closed forms of the default stress; a user-supplied law gets None, and
    # its integrals fall back to quadrature
    custom = "sigma" in params or "sigma_prime" in params
    if sigma_p(1.0) <= 0.0 or sigma_p(-1.0) <= 0.0:
        raise ValueError("stress law must satisfy sigma' > 0")
    return _make_psystem("elastodynamics", {
        "sigma": sigma, "sigma_prime": sigma_p, "sigma_energy": sigma_int,
        "sqrt_sigma_prime_integral": None if custom else _default_sqrt_stress_prime_integral,
        "sigma_excess": None if custom else _default_stress_excess})


# Lagrangian gas dynamics, v_t - u_x = 0, u_t + p(v)_x = 0 with p = 1/v (Smoller,
# Shock Waves and Reaction-Diffusion Equations, ch. 17): sigma = -p on v > 0.
_GAS_LAW = {
    "sigma": lambda v: -1.0 / np.asarray(v, dtype=float),
    "sigma_prime": lambda v: 1.0 / np.square(np.asarray(v, dtype=float)),
    "sigma_energy": lambda v: -np.log(v),
    "sqrt_sigma_prime_integral": lambda v0, v1: math.log(v1 / v0),
    "sigma_excess": None,
}


def _make_psystem(name, law, v_min=-np.inf):
    """The p-system v_t - u_x = 0, u_t - sigma(v)_x = 0 on the strains v > v_min.
    ``law``, its ``params``, holds sigma, sigma' > 0, the energy (an integral
    of sigma) and the closed forms of two integrals, or None (quadrature)."""
    sigma, sigma_p, sigma_int = law["sigma"], law["sigma_prime"], law["sigma_energy"]

    def f(u):
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        out[..., 0] = -u[..., 1]
        out[..., 1] = -sigma(u[..., 0])
        return out

    def jac(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape + (2,))
        out[..., 0, 1], out[..., 1, 0] = -1.0, -sigma_p(u[..., 0])
        return out

    energy = EntropyPair(
        U=lambda u: 0.5 * np.asarray(u, dtype=float)[..., 1] ** 2 + sigma_int(np.asarray(u, dtype=float)[..., 0]),
        F=lambda u: -np.asarray(u, dtype=float)[..., 1] * sigma(np.asarray(u, dtype=float)[..., 0]),
        grad_U=lambda u: np.array([float(sigma(u[0])), float(u[1])]),
        hess_U=lambda u: np.diag([float(sigma_p(u[0])), 1.0]),
        convexity="strictly-convex",
        label="mechanical-energy",
    )
    return SystemModel(
        name=name, dimension=2, flux=f, jacobian=jac,
        entropies=(energy,) + _trivial_pairs_system(f, 2),
        viscosity=lambda u: np.broadcast_to(np.eye(2), np.shape(u)[:-1] + (2, 2)),
        state_region=((v_min, np.inf), (-np.inf, np.inf)),
        params=dict(law),
        max_char_speed=lambda u: np.sqrt(sigma_p(np.asarray(u, dtype=float)[..., 0])),
    )


def _make_euler(params):
    gamma = float(params.get("gamma", 2.0))
    if gamma <= 1.0:
        raise ValueError("euler_isentropic requires gamma > 1")

    def f(u):
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        m = u[..., 1]
        out = np.empty_like(u)
        out[..., 0] = m
        out[..., 1] = m * m / rho + rho ** gamma
        return out

    def jac(u):
        u = np.asarray(u, dtype=float)
        rho, m = u[..., 0], u[..., 1]
        out = np.zeros(u.shape + (2,))
        out[..., 0, 1], out[..., 1, 1] = 1.0, 2.0 * m / rho
        # np.square, as for a batch: ** on one state's numpy scalar is libm's pow
        out[..., 1, 0] = -np.square(m / rho) + gamma * rho ** (gamma - 1.0)
        return out

    energy = EntropyPair(
        U=lambda u: 0.5 * np.asarray(u, dtype=float)[..., 1] ** 2 / np.asarray(u, dtype=float)[..., 0]
        + np.asarray(u, dtype=float)[..., 0] ** gamma / (gamma - 1.0),
        F=lambda u: np.asarray(u, dtype=float)[..., 1] ** 3 / (2.0 * np.asarray(u, dtype=float)[..., 0] ** 2)
        + gamma / (gamma - 1.0) * np.asarray(u, dtype=float)[..., 1] * np.asarray(u, dtype=float)[..., 0] ** (gamma - 1.0),
        grad_U=lambda u: np.array([
            -0.5 * (u[1] / u[0]) ** 2 + gamma / (gamma - 1.0) * u[0] ** (gamma - 1.0),
            u[1] / u[0],
        ]),
        hess_U=lambda u: np.array([
            [u[1] ** 2 / u[0] ** 3 + gamma * u[0] ** (gamma - 2.0), -u[1] / u[0] ** 2],
            [-u[1] / u[0] ** 2, 1.0 / u[0]],
        ]),
        convexity="strictly-convex",
        label="total-energy",
    )

    def max_speed(u):
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        c = np.sqrt(gamma * rho ** (gamma - 1.0))
        return np.abs(u[..., 1] / rho) + c

    return SystemModel(
        name="euler_isentropic", dimension=2, flux=f, jacobian=jac,
        entropies=(energy,) + _trivial_pairs_system(f, 2),
        viscosity=lambda u: np.broadcast_to(np.eye(2), np.shape(u)[:-1] + (2, 2)),
        state_region=((0.0, np.inf), (-np.inf, np.inf)),
        params={"gamma": gamma},
        max_char_speed=max_speed,
    )


# name -> (factory, the parameter keys it reads)
_FACTORIES = {
    "burgers": (_make_burgers, ()),
    "cubic": (_make_cubic, ()),
    "linear2": (_make_linear2, ("A", "B")),
    "elastodynamics": (_make_elastodynamics, ("sigma", "sigma_prime", "sigma_energy")),
    "euler_isentropic": (_make_euler, ("gamma",)),
    "lagrangian_gas": (lambda params: _make_psystem("lagrangian_gas", _GAS_LAW, v_min=0.0), ()),
}


def make_model(name: str, **params) -> SystemModel:
    """Build one of the built-in systems by name.  A parameter the model
    does not read raises ValueError, so a misspelt one is not ignored."""
    try:
        factory, keys = _FACTORIES[name]
    except KeyError:
        raise ValueError("unknown model %r; choose from %s" % (name, sorted(_FACTORIES)))
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError("%s: unknown parameter(s) %s; it reads %s"
                         % (name, ", ".join(unknown), list(keys) or "none"))
    return factory(params)


# --- Model-specific helpers --------------------------------------------------


def stress_law(model: SystemModel, task: str) -> dict:
    """The stress law of a p-system model, its ``params`` (``_make_psystem``);
    UnsupportedModelError naming ``task`` for a model without one."""
    if "sigma" not in model.params:
        raise UnsupportedModelError(f"{task} requires a p-system (a model with a stress law)")
    return model.params


def classify_euler_region(model: SystemModel, state) -> str:
    """Classify an (rho, u) state by the signs of u - c and u + c.

    Returns one of "I".."V".  Note the argument is the primitive pair
    (density, velocity), not the conserved state.
    """
    if model.name != "euler_isentropic":
        raise UnsupportedModelError("region classification only applies to euler_isentropic")
    rho, u = float(state[0]), float(state[1])
    if rho <= 0.0:
        raise ValueError("density must be positive")
    gamma = model.params["gamma"]
    c = np.sqrt(gamma * rho ** (gamma - 1.0))
    tol = 1e-9 * (1.0 + abs(u) + c)
    s1 = u - c
    s2 = u + c
    if s1 > tol:
        return "V"
    if abs(s1) <= tol:
        return "IV"
    if s2 > tol:
        return "III"
    if abs(s2) <= tol:
        return "II"
    return "I"


def kruzkov_pair(model: SystemModel, k) -> EntropyPair:
    """The scalar entropy family U = |u - k|, F = sgn(u - k)(f(u) - f(k)).

    ``k`` may be an array; U and F then broadcast u against it."""
    if model.dimension != 1:
        raise ValueError("the Kruzkov family only exists for scalar models")
    f = model.flux
    fk = f(k)

    def U(u):
        return np.abs(np.asarray(u, dtype=float) - k)

    def F(u):
        u = np.asarray(u, dtype=float)
        return np.sign(u - k) * (f(u) - fk)

    def grad(u):
        return np.sign(np.asarray(u, dtype=float) - k)

    def hess(u):
        return 0.0 * np.asarray(u, dtype=float)

    label = "kruzkov(k=%g)" % k if np.ndim(k) == 0 else "kruzkov(k=array)"
    return EntropyPair(U, F, grad, hess, "convex", label)
