"""Curvature of parametric patches in the upper half-space.

The half-space carries both the Euclidean metric and the hyperbolic metric
ds^2 = (dx^2+dy^2+dz^2)/z^2.  Since the two are conformal, the hyperbolic
principal curvatures are the Euclidean ones lifted by
kappa_i = z * kappa_i^e + N3, and likewise H = z*He + N3 for the means,
where N3 is the third component of the Euclidean unit normal.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

DEGENERACY_THRESHOLD = 1e-12


class DegenerateImmersionError(ValueError):
    """Cross product of the first partials is numerically zero."""


class HalfSpaceError(ValueError):
    """Point does not lie in the upper half-space z > 0."""


@dataclass(frozen=True)
class ImmersionJet:
    """Position and first/second partials of a patch: arrays of shape
    (..., 3), x/y/z on the last axis, one point per index of the leading
    axes (which broadcast against each other; (3,) is a single point)."""

    X: np.ndarray
    Xu: np.ndarray
    Xv: np.ndarray
    Xuu: np.ndarray
    Xuv: np.ndarray
    Xvv: np.ndarray


@dataclass(frozen=True)
class FundamentalForms:
    """E, F, G and L, M, N against the unit normal n, per point; det_first =
    EG - F^2 is |Xu x Xv|^2, which does not cancel when the partials are large."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    det_first: np.ndarray
    n: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    He: np.ndarray
    N3: np.ndarray
    H: np.ndarray
    kappaE: tuple[np.ndarray, np.ndarray]
    kappaH: tuple[np.ndarray, np.ndarray]


def first_where(mask: np.ndarray, *coords) -> tuple:
    """The coordinates of the first point, in row-major order, where `mask`
    holds; the mask and the coordinates broadcast together."""
    mask, *coords = np.broadcast_arrays(mask, *coords)
    i = int(np.argmax(mask))
    return tuple(c.flat[i] for c in coords)


def require_halfspace(what: str, height, u, v) -> None:
    """Raise HalfSpaceError naming the first point (u, v) where the height,
    called `what` in the message, is not positive.  All three broadcast."""
    below = height <= 0.0
    if np.any(below):
        x, y, h = first_where(below, u, v, height)
        raise HalfSpaceError(f"{what} = {h} <= 0 at ({x}, {y})")


def restrict_to_halfspace(jet: ImmersionJet) -> ImmersionJet:
    """The points of the jet with z > 0, along one axis; possibly none."""
    parts = np.broadcast_arrays(*(getattr(jet, f.name) for f in fields(ImmersionJet)))
    above = parts[0][..., 2] > 0.0
    return ImmersionJet(*(part[above] for part in parts))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _cross(jet: ImmersionJet) -> np.ndarray:
    """Xu x Xv, shape (..., 3)."""
    # the products and differences of np.cross, bit for bit, without its
    # per-call overhead; (3,) partials broadcast against grids
    a, b = jet.Xu, jet.Xv
    return np.stack(
        (
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ),
        axis=-1,
    )


def unit_normal(jet: ImmersionJet) -> np.ndarray:
    """(Xu x Xv)/|Xu x Xv|, shape (..., 3); raises DegenerateImmersionError
    if |Xu x Xv| <= DEGENERACY_THRESHOLD at some point, or else if it is not
    finite (the partials overflow), naming the first such point X."""
    with np.errstate(over="ignore", invalid="ignore"):  # a norm that is not finite is rejected below
        cross = _cross(jet)
        norm = np.sqrt(_dot(cross, cross))
    if np.any(norm <= DEGENERACY_THRESHOLD):
        raise DegenerateImmersionError(
            f"|Xu x Xv| = {np.min(norm):.3e} <= {DEGENERACY_THRESHOLD}"
        )
    if not np.all(np.isfinite(norm)):
        n, x, y, z = first_where(~np.isfinite(norm), norm, *np.moveaxis(jet.X, -1, 0))
        raise DegenerateImmersionError(f"|Xu x Xv| = {n} is not finite at ({x}, {y}, {z})")
    return cross / norm[..., None]


def fundamental_forms(jet: ImmersionJet) -> FundamentalForms:
    """First and second fundamental forms w.r.t. the Euclidean metric, one
    value per point of the jet.

    The normal is (Xu x Xv)/|Xu x Xv|.  For the two translation-surface
    parameterizations this convention already produces N3 = 1/W (type I)
    and N3 = g'/W (type II); no per-family sign flip is needed.
    """
    n = unit_normal(jet)
    cross = _cross(jet)
    return FundamentalForms(
        E=_dot(jet.Xu, jet.Xu),
        F=_dot(jet.Xu, jet.Xv),
        G=_dot(jet.Xv, jet.Xv),
        L=_dot(jet.Xuu, n),
        M=_dot(jet.Xuv, n),
        N=_dot(jet.Xvv, n),
        det_first=_dot(cross, cross),
        n=n,
    )


def euclidean_mean_curvature(forms: FundamentalForms) -> np.ndarray:
    """He, one value per point: `fundamental_forms` has raised unless det_first > 0 (or NaN)."""
    return (forms.G * forms.L - 2.0 * forms.M * forms.F + forms.E * forms.N) / (2.0 * forms.det_first)


def _principal_curvatures(forms: FundamentalForms, he: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the shape operator at every point, via the quadratic on He and K."""
    k_gauss = (forms.L * forms.N - forms.M * forms.M) / forms.det_first
    disc = he * he - k_gauss
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))  # umbilic up to roundoff
    return (he - root, he + root)


def hyperbolic_curvature(jet: ImmersionJet) -> CurvatureReport:
    """Curvature report with the conformal lift H = z*He + N3, N3 from the
    normal of `fundamental_forms`, at every point of the jet; raises
    HalfSpaceError at the first point with z <= 0, or else with z not finite."""
    x, y, z = np.moveaxis(jet.X, -1, 0)
    require_halfspace("z", z, x, y)
    if not np.all(np.isfinite(z)):
        x, y, z = first_where(~np.isfinite(z), x, y, z)
        raise HalfSpaceError(f"z = {z} is not finite at ({x}, {y})")
    forms = fundamental_forms(jet)
    n3 = forms.n[..., 2]
    he = euclidean_mean_curvature(forms)
    k1e, k2e = _principal_curvatures(forms, he)
    return CurvatureReport(
        He=he,
        N3=n3,
        H=z * he + n3,
        kappaE=(k1e, k2e),
        kappaH=(z * k1e + n3, z * k2e + n3),
    )
