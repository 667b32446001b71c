"""Side experiments on the type-II reduction: the separated ODE
f'' = a(1+f'^2)^2 up to its blow-up, and the real branch of the cubic
constraint on g'.  Nothing else in the package depends on this module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import build_named

BLOW_UP_LIMIT = 1e6


@dataclass(frozen=True)
class OdeReport:
    xs: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    max_defect: float
    blew_up: bool
    x_end: float


def integrate_first_integral(a: float, p0: float, x_range: tuple[float, float]) -> OdeReport:
    """Integrate f'' = a(1+f'^2)^2 adaptively, stopping at blow-up, and
    report the factorization defect |-4 f' f''^2 + (1+f'^2) f'''| along the
    trajectory (f''' = 4 a f' f'' (1+f'^2))."""

    def rhs(x, y):
        f, p = y
        return [p, a * (1.0 + p * p) ** 2]

    def blow_up(x, y):
        return abs(y[1]) - BLOW_UP_LIMIT

    blow_up.terminal = True
    sol = solve_ivp(
        rhs,
        x_range,
        [0.0, p0],
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        events=blow_up,
    )
    xs = sol.t
    f, p = sol.y
    one_p2 = 1.0 + p * p
    fpp = a * one_p2 ** 2
    fppp = 4.0 * a * p * fpp * one_p2
    defect = np.abs(-4.0 * p * fpp ** 2 + one_p2 * fppp)
    # status < 0 is step-size underflow at the finite-time singularity: the
    # slope explodes faster than the event threshold can be reached.
    blew_up = len(sol.t_events[0]) > 0 or sol.status < 0
    return OdeReport(xs, f, p, float(defect.max()), blew_up, float(xs[-1]))


@dataclass(frozen=True)
class BranchReport:
    zs: np.ndarray
    roots: np.ndarray
    g: np.ndarray
    b_values: np.ndarray
    infeasibility: np.ndarray  # per b: max over z of |q1| + |q2|
    min_infeasibility: float


def real_cubic_roots(a: float, z: float) -> np.ndarray:
    """Real roots of X^3 - a z X^2 - a z = 0."""
    roots = np.roots([1.0, -a * z, 0.0, -a * z])
    return np.sort(roots[np.abs(roots.imag) < 1e-9].real)


def trace_type2_branch(
    a: float,
    z_range: tuple[float, float],
    b_values=None,
    n_z: int = 101,
) -> BranchReport:
    """Follow the real branch g'(z) of the cubic constraint and measure, for
    each candidate separation constant b, how far (q1, q2) are from vanishing
    jointly along it."""
    if a == 0.0:
        raise ValueError("trace_type2_branch requires a != 0")
    if z_range[0] <= 0.0:
        raise ValueError("z range must stay in z > 0")
    if b_values is None:
        b_values = np.arange(-2.0, 2.0 + 1e-9, 0.1)
    b_values = np.asarray(b_values, dtype=float)
    zs = np.linspace(*z_range, n_z)
    roots = np.empty(n_z)
    prev = None
    for i, z in enumerate(zs):
        cand = real_cubic_roots(a, z)
        if prev is None:
            roots[i] = cand[-1] if a > 0 else cand[0]
        else:
            roots[i] = cand[np.argmin(np.abs(cand - prev))]
        prev = roots[i]
    g = np.concatenate([[0.0], np.cumsum((roots[1:] + roots[:-1]) / 2.0 * np.diff(zs))])

    q1 = build_named("q1")
    q2 = build_named("q2")

    def q(poly, b, z, X):
        total = 0.0
        for (ea, eb, ez, eX), c in poly.terms.items():
            total += float(c) * a ** ea * b ** eb * z ** ez * X ** eX
        return total

    infeas = np.empty(len(b_values))
    for k, b in enumerate(b_values):
        vals = np.array([abs(q(q1, b, z, X)) + abs(q(q2, b, z, X)) for z, X in zip(zs, roots)])
        infeas[k] = float(vals.max())
    return BranchReport(zs, roots, g, b_values, infeas, float(infeas.min()))


def b0_branch_check(a: float, zs: np.ndarray) -> np.ndarray:
    """Substitute the b=0 candidate X = 4az/5 into the cubic constraint;
    equals -16/125 a^3 z^3 - a z identically."""
    X = 4.0 * a * zs / 5.0
    return X ** 3 - a * zs * X ** 2 - a * zs
