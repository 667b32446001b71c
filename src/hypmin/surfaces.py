"""Translation-surface families and reference surfaces.

Type I surfaces are graphs z = f(x) + g(y); type II surfaces are graphs
y = f(x) + g(z).  Their mean curvature has one closed form,
`translation_mean_curvature`, which the minimality residuals and the
search's residual grid share; `from_bspline` is the one spline constructor.
The module also provides the classical reference surfaces (Scherk's Euclidean
minimal surface, horospheres, hemispheres, vertical planes) that serve as
oracles for the curvature kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet3
from .kernel import HalfSpaceError, ImmersionJet, first_where, require_halfspace


class SingularLocusError(ValueError):
    """A residual formula was evaluated where it divides by zero (f'=0 or g'=0)."""


class DomainError(ValueError):
    """Evaluation point outside the declared parameter domain."""


class UsageError(TypeError):
    """Operation applied to the wrong surface kind."""


class Kind(enum.Enum):
    TYPE_I = "type1"
    TYPE_II = "type2"


# what a HalfSpaceError calls the height of each kind: f+g for type I, z for type II
_HEIGHT = {Kind.TYPE_I: "type I graph height f+g", Kind.TYPE_II: "type II parameter z"}


def _vectors(*components) -> np.ndarray:
    """Broadcast three components together and stack them into a (..., 3) field."""
    out = np.empty(np.broadcast(*components).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = components
    return out


@dataclass(frozen=True)
class FunctionCurve:
    """A smooth single-variable function exposed through its order-3 jet.
    Calling it on a float or an array t returns a Jet3 whose slots broadcast to t."""

    eval: Callable[[np.ndarray], Jet3]
    domain: tuple[float, float]

    def __call__(self, t) -> Jet3:
        lo, hi = self.domain
        outside = np.logical_not((lo <= t) & (t <= hi))
        if np.any(outside):
            (bad,) = first_where(outside, t)
            raise DomainError(f"t = {bad} outside function domain [{lo}, {hi}]")
        return self.eval(t)


def constant(c: float, domain=(-math.inf, math.inf)) -> FunctionCurve:
    return FunctionCurve(lambda t: Jet3.constant(c), domain)


def linear(m: float, n: float, domain=(-math.inf, math.inf)) -> FunctionCurve:
    return FunctionCurve(lambda t: Jet3(m * t + n, m, 0.0, 0.0), domain)


def polynomial(coeffs, domain=(-math.inf, math.inf)) -> FunctionCurve:
    """coeffs in descending powers, numpy.polyval convention."""
    c = np.asarray(coeffs, dtype=float)
    derivs = [np.polyder(c, k) for k in (1, 2, 3)]
    return FunctionCurve(lambda t: Jet3(np.polyval(c, t), *(np.polyval(d, t) for d in derivs)), domain)


def quadratic(a2: float, a1: float, a0: float, domain=(-math.inf, math.inf)) -> FunctionCurve:
    return polynomial([a2, a1, a0], domain)


def log_cos(a: float, scale: float, domain=None) -> FunctionCurve:
    """t -> scale * log|cos(a t)|; the building block of Scherk's surface."""
    if a == 0.0:
        raise ValueError("log_cos requires a != 0")
    if domain is None:
        half = math.pi / (2.0 * abs(a))
        domain = (-half, half)
    return FunctionCurve(lambda t: scale * jets.abs_log_cos(Jet3(a * t, a, 0.0, 0.0)), domain)


def clamped_knots(domain: tuple[float, float], n_interior: int) -> np.ndarray:
    """Knots of the clamped uniform cubic spline with n_interior interior knots."""
    lo, hi = domain
    inner = np.linspace(lo, hi, n_interior + 2)
    return np.concatenate([[lo] * 3, inner, [hi] * 3])


def n_coeffs(n_interior: int) -> int:
    return n_interior + 4


def from_bspline(domain: tuple[float, float], coeffs) -> FunctionCurve:
    """The clamped uniform cubic B-spline on `domain` with these coefficients
    (len(coeffs) - 4 interior knots), with three derivatives.  coeffs may be
    (m, k): then each slot has a trailing axis of k splines.

    de Boor's algorithm: the k-th derivative is the degree 3-k spline on the
    knots t[k:-k] whose coefficients are the k-th divided differences of
    coeffs (FITPACK's splder), summed against its B-splines on the knot span
    of x, which the Cox-de Boor recurrence yields one degree per step (Piegl
    & Tiller, The NURBS Book, A2.2).  The steps and their order are those of
    the reference evaluator the tests compare against, bit for bit.
    """
    c = np.asarray(coeffs, dtype=float)
    m = len(c)
    lo, hi = domain
    if m < 4 or not lo < hi:
        raise ValueError(f"a cubic spline needs at least 4 coefficients and t0 < t1, got {m} on {domain}")
    t = clamped_knots(domain, m - 4)
    # dcs[k]: coefficients of the k-th derivative, one column per spline
    dcs = [c.reshape(m, -1)]
    tk = t
    for k in (3, 2, 1):
        dt = tk[k + 1 : -1] - tk[1 : -k - 1]
        dcs.append((dcs[-1][1:] - dcs[-1][:-1]) * k / dt[:, None])
        tk = tk[1:-1]

    # defined here: the bench tracer tells spline curves apart by this qualname
    def eval_jet(x) -> Jet3:
        x = np.asarray(x, dtype=float)
        xs = x.ravel()
        # the knot span: t[span] <= x < t[span + 1], the last span closed
        span = np.clip(np.searchsorted(t, xs, side="right") - 1, 3, m - 1)
        local = t[span + np.arange(-2, 4)[:, None]]  # rows t[span - 2], ..., t[span + 3]
        N = np.ones((1, len(xs)))  # the degree-0 B-spline on the span
        slots = [None] * 4
        for p in range(4):
            if p:  # Cox-de Boor, degree p - 1 to p: row j is B-spline number span - p + j
                xa, xb = local[3 - p : 3], local[3 : 3 + p]
                w = N / (xb - xa)
                N = np.zeros((p + 1, len(xs)))
                N[1:] = w * (xs - xa)
                N[:-1] += w * (xb - xs)
            dc = dcs[3 - p][span + np.arange(-3, p - 2)[:, None]]  # the p + 1 coefficients on the span
            acc = np.zeros((len(xs), dc.shape[2]))
            for a in range(p + 1):
                acc += dc[a] * N[a, :, None]
            slots[3 - p] = acc.reshape(x.shape + c.shape[1:])
        return Jet3(*slots)

    return FunctionCurve(eval_jet, domain)


def spline_basis(domain: tuple[float, float], m: int, ts: np.ndarray) -> np.ndarray:
    """The m cubic B-splines of `from_bspline` on `domain` and their first two
    derivatives at the points ts, stacked with shape (3, len(ts), m)."""
    jet = from_bspline(domain, np.eye(m))(ts)
    return np.stack([jet.v0, jet.v1, jet.v2])


@dataclass(frozen=True)
class TranslationSurface:
    kind: Kind
    f: FunctionCurve
    g: FunctionCurve
    domain: tuple[tuple[float, float], tuple[float, float]]  # (u-range, v-range)

    def jet(self, u, v) -> ImmersionJet:
        return patch_jet(self, u, v)

    def rows_jet(self, v) -> Callable[[np.ndarray], ImmersionJet]:
        """u -> the jet at (u, v), with g evaluated at v once for every u."""
        gj = self.g(v)
        return lambda u: patch_jet(self, u, v, gj=gj)


def _check_domain(domain, u, v, what: str = "surface") -> None:
    (u0, u1), (v0, v1) = domain
    outside = np.logical_not((u0 <= u) & (u <= u1) & (v0 <= v) & (v <= v1))
    if np.any(outside):
        bad = first_where(outside, u, v)
        raise DomainError(f"({bad[0]}, {bad[1]}) outside {what} domain {domain}")


def patch_jet(s: TranslationSurface, u, v, check_halfspace: bool = True, gj: Jet3 | None = None) -> ImmersionJet:
    """Assemble the immersion jet of the patch at (u, v) from the jets of f and g.

    u and v are floats or arrays that broadcast together; the jet's fields have
    shape broadcast(u, v) + (3,), and on a grid u[:, None], v[None, :] f and g
    are evaluated once per grid line; gj, if given, is the jet of g at v.
    Positivity of the type-I height f+g is validated here, eagerly, at every
    point, because spline-backed curves may dip below zero away from any
    construction-time check grid.
    """
    _check_domain(s.domain, u, v)
    fj, gj = s.f(u), s.g(v) if gj is None else gj
    h = fj.v0 + gj.v0
    if check_halfspace:
        require_halfspace(_HEIGHT[s.kind], h if s.kind is Kind.TYPE_I else v, u, v)

    def field(a, b, c):  # components in the (x, y, z) order of type I
        # type II is the graph y = h(x, z): the same fields with y and z swapped
        return _vectors(a, b, c) if s.kind is Kind.TYPE_I else _vectors(a, c, b)

    X, Xu, Xv = field(u, v, h), field(1.0, 0.0, fj.v1), field(0.0, 1.0, gj.v1)
    Xuu, Xvv = field(0.0, 0.0, fj.v2), field(0.0, 0.0, gj.v2)
    return ImmersionJet(*np.broadcast_arrays(X, Xu, Xv, Xuu, np.zeros(3), Xvv))


# -- closed-form minimality residuals ---------------------------------


def translation_mean_curvature(kind: Kind, height, fp, fpp, gp, gpp, grids=None, reuse=False):
    """Hyperbolic mean curvature H of a translation graph, in closed form.

    height is f+g for type I (z = f(x) + g(y)) and z for type II
    (y = f(x) + g(z)); fp, fpp, gp, gpp are f', f'', g', g''.  All broadcast.
    With W^2 = 1+f'^2+g'^2 and S = (1+g'^2) f'' + (1+f'^2) g'',

        type I:   H = (f+g) S / (2 W^3) + 1/W
        type II:  H = -z S / (2 W^3) + g'/W

    Returns (H, partials).  H is computed at once, in the first of `grids`:
    five arrays of the broadcast shape that hold H, He = S / (2 W^3) (for
    type II scratch), S, W^3 and W, fresh ones if none are given.  With
    `reuse`, the grids hold He, S and W^3 of these arguments from an earlier
    call, which is not repeated, and H's grid is left as it is.
    partials(into) yields the (name, partial) pairs of H w.r.t. f, f', f'',
    g, g', g'' (names f, fp, fpp, g, gp, gpp), built on demand from those
    grids one at a time, each in into(name) if given, else a fresh array;
    the f and g partials are He itself.  It overwrites the S and W grids, so
    iterate it once; into("gp") may be S's grid, into("gpp") W^3's and
    into("g") height, as no later partial reads them.  A caller that needs H
    alone never pays for the partials, and one that needs both evaluates the
    formula once.  Type-II H does not depend on f or g, so it yields no f and
    g partials.
    """
    shape = np.broadcast_shapes(*map(np.shape, (height, fp, fpp, gp, gpp)))
    H, He, S, W3, W = [np.empty(shape) for _ in range(5)] if grids is None else grids
    P = 1.0 + fp ** 2
    Q = 1.0 + gp ** 2
    if not reuse:
        np.multiply(Q, fpp, out=S)
        S += np.multiply(P, gpp, out=H)
        np.add(P, gp ** 2, out=W3)  # W^2, until W^3
        np.sqrt(W3, out=W)
        W3 *= W
        np.multiply(2.0, W3, out=He)
        if kind is Kind.TYPE_I:
            np.divide(S, He, out=He)
            np.multiply(height, He, out=H)
            H += np.divide(1.0, W, out=W)
        else:
            np.divide(np.multiply(-height, S, out=H), He, out=H)
            H += np.divide(gp, W, out=W)

    def partials(into=lambda name: np.empty(shape)):
        T = np.multiply(1.5, S, out=S)
        T /= np.add(P, gp ** 2, out=W)  # T = 1.5 S / W^2
        W3x2 = np.multiply(2.0, W3, out=W)

        def part(name, op, a, b, *steps):
            """op(a, b) in into(name), then out = out op operand per step:
            each value of the formula above, as * and + commute."""
            out = op(a, b, out=into(name))
            for op, operand in steps:
                op(out, operand, out=out)
            return name, out

        mul, sub, add, div = np.multiply, np.subtract, np.add, np.divide
        if kind is Kind.TYPE_I:
            # dHe/df' = f' (g'' - T) / W^3 and dHe/dg' = g' (f'' - T) / W^3
            yield "f", He
            yield part("fp", sub, gpp, T, (mul, height), (sub, 1.0), (mul, fp), (div, W3))
            yield part("fpp", mul, height, Q, (div, W3x2))
            yield part("gp", sub, fpp, T, (mul, height), (sub, 1.0), (mul, gp), (div, W3))
            yield part("gpp", mul, height, P, (div, W3x2))
            yield "g", He
        else:
            yield part("fp", sub, T, gpp, (mul, height), (sub, gp), (mul, fp), (div, W3))
            yield part("fpp", mul, -height, Q, (div, W3x2))
            yield part("gp", sub, T, fpp, (mul, gp * height), (add, P), (div, W3))
            yield part("gpp", mul, -height, P, (div, W3x2))

    return H, partials


def _minimality_residual(s: TranslationSurface, kind: Kind, u, v):
    """+-2 W^3 H / ((1+f'^2)(1+g'^2)) at the points (u, v), + for type I."""
    if s.kind is not kind:
        raise UsageError(f"{kind.value}_residual requires a {kind.value} surface")
    _check_domain(s.domain, u, v)
    fj, gj = s.f(u), s.g(v)
    height = fj.v0 + gj.v0 if kind is Kind.TYPE_I else v
    require_halfspace(_HEIGHT[kind], height, u, v)
    H, _ = translation_mean_curvature(kind, height, fj.v1, fj.v2, gj.v1, gj.v2)
    P, Q = 1.0 + fj.v1 ** 2, 1.0 + gj.v1 ** 2
    W2 = P + gj.v1 ** 2
    return (2.0 if kind is Kind.TYPE_I else -2.0) * (W2 * np.sqrt(W2)) * H / (P * Q)


def type1_residual(s: TranslationSurface, x, y):
    """LHS - RHS of the type-I minimality equation, 2 W^3 H / ((1+f'^2)(1+g'^2)),

        (f+g)(f''/(1+f'^2) + g''/(1+g'^2)) = -2 (1+f'^2+g'^2) / ((1+f'^2)(1+g'^2)),

    at the points (x, y), which broadcast as in `patch_jet`."""
    return _minimality_residual(s, Kind.TYPE_I, x, y)


def type2_residual(s: TranslationSurface, x, z):
    """LHS - RHS of the type-II minimality equation, -2 W^3 H / ((1+f'^2)(1+g'^2)),

        z (f''/(1+f'^2) + g''/(1+g'^2)) = 2 g' (1+f'^2+g'^2) / ((1+f'^2)(1+g'^2)),

    at the points (x, z), which broadcast as in `patch_jet`."""
    return _minimality_residual(s, Kind.TYPE_II, x, z)


def type1_reduction_residual(s: TranslationSurface, x, y):
    """LHS - RHS of the once-differentiated, separated type-I equation

        (1/g')(g''/(1+g'^2))' + (1/f')(f''/(1+f'^2))'
            = 8 f'' g'' / ((1+f'^2)^2 (1+g'^2)^2),

    evaluated with order-3 jets ((h''/(1+h'^2))' = (h'''(1+h'^2) - 2h'h''^2)
    / (1+h'^2)^2), at the points (x, y), which broadcast as in `patch_jet`.
    """
    if s.kind is not Kind.TYPE_I:
        raise UsageError("type1_reduction_residual requires a type I surface")
    _check_domain(s.domain, x, y)
    fj, gj = s.f(x), s.g(y)
    shape = np.broadcast(x, y, fj.v1, gj.v1).shape
    singular = np.broadcast_to((fj.v1 == 0.0) | (gj.v1 == 0.0), shape)
    if np.any(singular):
        bx, by, fp, gp = first_where(singular, x, y, fj.v1, gj.v1)
        raise SingularLocusError(f"f'({bx}) = {fp}, g'({by}) = {gp}: the equation divides by f'g'")
    P = 1.0 + fj.v1 ** 2
    Q = 1.0 + gj.v1 ** 2
    dA = (fj.v3 * P - 2.0 * fj.v1 * fj.v2 ** 2) / (P * P)
    dB = (gj.v3 * Q - 2.0 * gj.v1 * gj.v2 ** 2) / (Q * Q)
    lhs = dB / gj.v1 + dA / fj.v1
    rhs = 8.0 * fj.v2 * gj.v2 / (P * P * Q * Q)
    # an affine f or g has constant jet slots: spread the residual over the grid
    return np.broadcast_to(lhs - rhs, shape).copy()


# -- named surfaces ---------------------------------------------------


def scherk(a: float, domain=None) -> TranslationSurface:
    """Scherk's Euclidean minimal surface z = (1/a) log|cos(ax)/cos(ay)|."""
    if a == 0.0:
        raise ValueError("scherk requires a != 0")
    f = log_cos(a, 1.0 / a)
    g = log_cos(a, -1.0 / a)
    if domain is None:
        domain = (f.domain, g.domain)
    return TranslationSurface(Kind.TYPE_I, f, g, domain)


def geodesic_plane(m: float, n: float, p: float, domain) -> TranslationSurface:
    """The type-II family f = mx+n, g = p: vertical planes, totally geodesic."""
    return TranslationSurface(Kind.TYPE_II, linear(m, n), constant(p), domain)


def simpson(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, nodes: int = 129) -> float:
    """Composite Simpson on an odd uniform grid; deterministic quadrature.
    fn maps the array of nodes to the array of integrand values."""
    if nodes % 2 == 0:
        nodes += 1
    xs = np.linspace(lo, hi, nodes)
    ys = np.broadcast_to(fn(xs), xs.shape)
    h = (hi - lo) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * (w @ ys))


def plane_family_distance(s: TranslationSurface) -> float:
    """Integral of |f''|^2 + |g'|^2 over the domain; zero exactly on the
    geodesic-plane family f = mx+n, g = const."""
    if s.kind is not Kind.TYPE_II:
        raise UsageError("plane_family_distance requires a type II surface")
    (u0, u1), (v0, v1) = s.domain
    df = simpson(lambda x: s.f(x).v2 ** 2, u0, u1)
    dg = simpson(lambda z: s.g(z).v1 ** 2, v0, v1)
    return df + dg


# -- reference (non-translation) patches ------------------------------


@dataclass(frozen=True)
class ParametricPatch:
    """A generic patch given by closed-form position and partials: at
    parameters u, v that broadcast, position returns (..., 3) points and
    partials returns Xu, Xv, Xuu, Xuv, Xvv, broadcastable against them."""

    position: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray, np.ndarray], tuple]
    domain: tuple[tuple[float, float], tuple[float, float]]

    def jet(self, u, v) -> ImmersionJet:
        """The jet at the points (u, v), shaped as in `patch_jet`."""
        _check_domain(self.domain, u, v, "patch")
        return ImmersionJet(*np.broadcast_arrays(self.position(u, v), *self.partials(u, v)))

    def rows_jet(self, v) -> Callable[[np.ndarray], ImmersionJet]:
        """u -> the jet at (u, v), as `TranslationSurface.rows_jet`."""
        return lambda u: self.jet(u, v)


def horosphere(c: float, extent: float = 2.0) -> ParametricPatch:
    """The surface z = c > 0 over [-extent, extent]^2, oriented with upward normal."""
    if c <= 0.0:
        raise HalfSpaceError(f"horosphere level c = {c} <= 0")
    if not extent > 0.0:
        raise ValueError(f"horosphere extent = {extent} <= 0")
    return ParametricPatch(
        position=lambda u, v: _vectors(u, v, c),
        partials=lambda u, v: (
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.zeros(3),
            np.zeros(3),
            np.zeros(3),
        ),
        domain=((-extent, extent), (-extent, extent)),
    )


def vertical_plane(y0: float, extent: float = 2.0, z_range=(0.1, 4.0)) -> ParametricPatch:
    """The plane y = y0 over x in [-extent, extent] and z in z_range = (z0, z1):
    a totally geodesic plane of the half-space model."""
    if not extent > 0.0:
        raise ValueError(f"vertical plane extent = {extent} <= 0")
    z0, z1 = z_range
    if not 0.0 < z0 < z1:
        raise HalfSpaceError(f"vertical plane needs 0 < z0 < z1, got z0 = {z0}, z1 = {z1}")
    return ParametricPatch(
        position=lambda u, v: _vectors(u, y0, v),
        partials=lambda u, v: (
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.zeros(3),
            np.zeros(3),
            np.zeros(3),
        ),
        domain=((-extent, extent), z_range),
    )


def hemisphere(r: float, center=(0.0, 0.0), polar_cap: float = 0.999) -> ParametricPatch:
    """Upper hemisphere of radius r centered on the ideal boundary z = 0.

    Parameterized by spherical angles (theta, phi) with phi in
    (0, polar_cap * pi/2) so every point stays strictly inside z > 0.
    Totally geodesic: H = 0 everywhere.
    """
    if r <= 0.0:
        raise ValueError(f"hemisphere radius r = {r} <= 0")
    cx, cy = center

    def pos(th, ph):
        return _vectors(cx + r * np.sin(ph) * np.cos(th), cy + r * np.sin(ph) * np.sin(th), r * np.cos(ph))

    def parts(th, ph):
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        Xu = _vectors(-r * sp * st, r * sp * ct, 0.0)
        Xv = _vectors(r * cp * ct, r * cp * st, -r * sp)
        Xuu = _vectors(-r * sp * ct, -r * sp * st, 0.0)
        Xuv = _vectors(-r * cp * st, r * cp * ct, 0.0)
        Xvv = _vectors(-r * sp * ct, -r * sp * st, -r * cp)
        return Xu, Xv, Xuu, Xuv, Xvv

    return ParametricPatch(
        position=pos,
        partials=parts,
        domain=((0.0, 2.0 * math.pi), (1e-3, polar_cap * math.pi / 2.0)),
    )
