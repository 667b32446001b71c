"""Side experiments on the type-II reduction: the separated ODE
f'' = a(1+f'^2)^2, evaluated in closed form up to its blow-up, and the real
branch of the cubic constraint on g'.  Nothing else in the package depends
on this module."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import build_named
from .kernel import HalfSpaceError

BLOW_UP_LIMIT = 1e6
ODE_SAMPLES = 2001
BISECTION_STEPS = 64  # halves a bracket narrower than pi to below one ulp of theta


@dataclass(frozen=True)
class OdeReport:
    xs: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    max_defect: float
    blew_up: bool
    x_end: float


def _G(theta):
    """The x-antiderivative of the ODE in theta = arctan f': a dx = cos^2(theta) dtheta."""
    return theta / 2.0 + np.sin(2.0 * theta) / 4.0


def integrate_first_integral(a: float, p0: float, x_range: tuple[float, float]) -> OdeReport:
    """Evaluate the solution of f'' = a(1+f'^2)^2, f(x0) = 0, f'(x0) = p0 on
    x_range = (x0, x1) in closed form, stopping where |f'| reaches
    BLOW_UP_LIMIT, and report the factorization defect
    |-4 f' f''^2 + (1+f'^2) f'''| at ODE_SAMPLES points of the trajectory
    (f''' = 4 a f' f'' (1+f'^2)).

    In theta = arctan f' the ODE reads cos^2(theta) dtheta = a dx, so
    x = x0 + (G(theta) - G(theta0))/a with G(theta) = theta/2 + sin(2 theta)/4,
    and f = (cos^2 theta0 - cos^2 theta)/(2a).  theta moves monotonically
    towards +-pi/2, where f' blows up; the samples are uniform in theta.
    For a = 0, f' is constant and f linear.
    """
    x0, x1 = x_range
    theta0 = math.atan(p0)
    if a == 0.0:
        xs = np.linspace(x0, x1, ODE_SAMPLES)
        thetas = np.full(ODE_SAMPLES, theta0)
        f = p0 * (xs - x0)
        blew_up = False
    else:
        # theta moves in the direction `sign` and blows up at theta_lim
        sign = 1.0 if a * (x1 - x0) >= 0.0 else -1.0
        theta_lim = sign * max(math.atan(BLOW_UP_LIMIT), sign * theta0)
        target = _G(theta0) + a * (x1 - x0)
        blew_up = bool(sign * target >= sign * _G(theta_lim))
        theta_end = theta_lim
        if not blew_up:  # G increases, so bisection on [theta0, theta_lim] finds G = target
            lo, hi = sorted((theta0, theta_lim))
            for _ in range(BISECTION_STEPS):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _G(mid) < target else (lo, mid)
            theta_end = 0.5 * (lo + hi)
        thetas = np.linspace(theta0, theta_end, ODE_SAMPLES)
        xs = x0 + (_G(thetas) - _G(theta0)) / a
        if not blew_up:
            xs[-1] = x1  # exactly, not to rounding
        f = (math.cos(theta0) ** 2 - np.cos(thetas) ** 2) / (2.0 * a)
    p = np.tan(thetas)
    one_p2 = 1.0 + p * p
    fpp = a * one_p2 ** 2
    fppp = 4.0 * a * p * fpp * one_p2
    defect = np.abs(-4.0 * p * fpp ** 2 + one_p2 * fppp)
    return OdeReport(xs, f, p, float(defect.max()), blew_up, float(xs[-1]))


@dataclass(frozen=True)
class BranchReport:
    zs: np.ndarray
    roots: np.ndarray
    b_values: np.ndarray
    infeasibility: np.ndarray  # per b: max over z of |q1| + |q2|
    min_infeasibility: float


def real_cubic_root(a: float, z):
    """The real root of X^3 - a z X^2 - a z = 0, elementwise over z, for a z != 0.

    With s = a z the discriminant is -s^2 (4 s^2 + 27) < 0, so the root is
    unique.  Cardano's formula gives it as X = s/3 + u + s^2/(9u), with
    u^3 = s ((2 s^2 + 27)/54 + sqrt((4 s^2 + 27)/108)) the larger-magnitude
    cube root: all three terms have the sign of s, so nothing cancels.
    """
    s = a * np.asarray(z, dtype=float)
    u = np.cbrt(s * ((2.0 * s * s + 27.0) / 54.0 + np.sqrt((4.0 * s * s + 27.0) / 108.0)))
    return s / 3.0 + u + s * s / (9.0 * u)


def trace_type2_branch(
    a: float,
    z_range: tuple[float, float],
    b_values=None,
    n_z: int = 101,
) -> BranchReport:
    """Take the real branch g'(z) of the cubic constraint (`real_cubic_root`)
    over n_z points of z_range and measure, for
    each candidate separation constant b, how far (q1, q2) are from vanishing
    jointly along it."""
    if a == 0.0:
        raise ValueError("trace_type2_branch requires a != 0")
    if min(z_range) <= 0.0:
        raise HalfSpaceError(f"type II parameter z = {min(z_range)} <= 0 in the z range {z_range}")
    if b_values is None:
        b_values = np.arange(-2.0, 2.0 + 1e-9, 0.1)
    b_values = np.asarray(b_values, dtype=float)
    zs = np.linspace(*z_range, n_z)
    roots = real_cubic_root(a, zs)

    B, Z, X = b_values[:, None], zs[None, :], roots[None, :]  # rows b, columns (z, X) on the branch

    def q(name):
        terms = build_named(name).terms.items()
        return sum(float(c) * a ** ea * B ** eb * Z ** ez * X ** eX for (ea, eb, ez, eX), c in terms)

    infeas = (np.abs(q("q1")) + np.abs(q("q2"))).max(axis=1)
    return BranchReport(zs, roots, b_values, infeas, float(infeas.min()))


def b0_branch_check(a: float, zs: np.ndarray) -> np.ndarray:
    """Substitute the b=0 candidate X = 4az/5 into the cubic constraint;
    equals -16/125 a^3 z^3 - a z identically."""
    X = 4.0 * a * zs / 5.0
    return X ** 3 - a * zs * X ** 2 - a * zs
