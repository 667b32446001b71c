"""Curvature of parametric patches in the upper half-space.

The half-space carries both the Euclidean metric and the hyperbolic metric
ds^2 = (dx^2+dy^2+dz^2)/z^2.  Since the two are conformal, the hyperbolic
principal curvatures are the Euclidean ones lifted by
kappa_i = z * kappa_i^e + N3, and likewise H = z*He + N3 for the means,
where N3 is the third component of the Euclidean unit normal.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray

    @property
    def det_first(self) -> np.ndarray:
        return self.E * self.G - self.F * self.F


@dataclass(frozen=True)
class CurvatureReport:
    He: np.ndarray
    N3: np.ndarray
    H: np.ndarray
    kappaE: tuple[np.ndarray, np.ndarray]
    kappaH: tuple[np.ndarray, np.ndarray]
    z: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def unit_normal(jet: ImmersionJet) -> np.ndarray:
    """(Xu x Xv)/|Xu x Xv|, shape (..., 3); raises if any point is degenerate."""
    # the products and differences of np.cross, bit for bit, without its
    # per-call overhead; (3,) partials broadcast against grids
    a, b = jet.Xu, jet.Xv
    cross = np.stack(
        (
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ),
        axis=-1,
    )
    norm = np.sqrt(_dot(cross, cross))
    if np.any(norm <= DEGENERACY_THRESHOLD):
        raise DegenerateImmersionError(
            f"|Xu x Xv| = {np.min(norm):.3e} <= {DEGENERACY_THRESHOLD}"
        )
    return cross / norm[..., None]


def fundamental_forms(jet: ImmersionJet) -> FundamentalForms:
    """First and second fundamental forms w.r.t. the Euclidean metric, one
    value per point of the jet.

    The normal is (Xu x Xv)/|Xu x Xv|.  For the two translation-surface
    parameterizations this convention already produces N3 = 1/W (type I)
    and N3 = g'/W (type II); no per-family sign flip is needed.
    """
    return _forms(jet, unit_normal(jet))


def _forms(jet: ImmersionJet, n: np.ndarray) -> FundamentalForms:
    return FundamentalForms(
        E=_dot(jet.Xu, jet.Xu),
        F=_dot(jet.Xu, jet.Xv),
        G=_dot(jet.Xv, jet.Xv),
        L=_dot(jet.Xuu, n),
        M=_dot(jet.Xuv, n),
        N=_dot(jet.Xvv, n),
    )


def euclidean_mean_curvature(forms: FundamentalForms) -> np.ndarray:
    """He, one value per point of the forms; raises if any has EG - F^2 <= 0."""
    det = forms.det_first
    if np.any(det <= 0.0):
        raise DegenerateImmersionError(f"EG - F^2 = {np.min(det):.3e} <= 0")
    return (forms.G * forms.L - 2.0 * forms.M * forms.F + forms.E * forms.N) / (2.0 * det)


def euclidean_principal_curvatures(forms: FundamentalForms) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the shape operator at every point, via the quadratic on He and K."""
    he = euclidean_mean_curvature(forms)
    k_gauss = (forms.L * forms.N - forms.M * forms.M) / forms.det_first
    disc = he * he - k_gauss
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))  # umbilic up to roundoff
    return (he - root, he + root)


def hyperbolic_curvature(jet: ImmersionJet) -> CurvatureReport:
    """Curvature report with the conformal lift H = z*He + N3, at every
    point of the jet; raises if any point has z <= 0."""
    z = jet.X[..., 2]
    if np.any(z <= 0.0):
        raise HalfSpaceError(f"point has z = {np.min(z)} <= 0, outside the half-space")
    n = unit_normal(jet)
    forms = _forms(jet, n)
    n3 = n[..., 2]
    he = euclidean_mean_curvature(forms)
    k1e, k2e = euclidean_principal_curvatures(forms)
    return CurvatureReport(
        He=he,
        N3=n3,
        H=z * he + n3,
        kappaE=(k1e, k2e),
        kappaH=(z * k1e + n3, z * k2e + n3),
        z=z,
    )
