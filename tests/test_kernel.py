import math

import numpy as np
import pytest

from hypmin import surfaces
from hypmin.kernel import (
    DegenerateImmersionError,
    HalfSpaceError,
    ImmersionJet,
    euclidean_mean_curvature,
    euclidean_principal_curvatures,
    fundamental_forms,
    hyperbolic_curvature,
    unit_normal,
)
from hypmin.surfaces import Kind, TranslationSurface


def plane_jet(z=1.0):
    return ImmersionJet(
        X=np.array([0.0, 0.0, z]),
        Xu=np.array([1.0, 0.0, 0.0]),
        Xv=np.array([0.0, 1.0, 0.0]),
        Xuu=np.zeros(3),
        Xuv=np.zeros(3),
        Xvv=np.zeros(3),
    )


def hemisphere_pole_jet(r=2.0):
    # graph z = sqrt(r^2 - u^2 - v^2) at u = v = 0
    return ImmersionJet(
        X=np.array([0.0, 0.0, r]),
        Xu=np.array([1.0, 0.0, 0.0]),
        Xv=np.array([0.0, 1.0, 0.0]),
        Xuu=np.array([0.0, 0.0, -1.0 / r]),
        Xuv=np.zeros(3),
        Xvv=np.array([0.0, 0.0, -1.0 / r]),
    )


def test_plane_forms():
    forms = fundamental_forms(plane_jet())
    assert (forms.E, forms.F, forms.G) == (1.0, 0.0, 1.0)
    assert (forms.L, forms.M, forms.N) == (0.0, 0.0, 0.0)
    assert euclidean_mean_curvature(forms) == 0.0


def test_hemisphere_pole_forms():
    forms = fundamental_forms(hemisphere_pole_jet(2.0))
    assert (forms.E, forms.F, forms.G) == (1.0, 0.0, 1.0)
    assert forms.L == pytest.approx(-0.5)
    assert forms.N == pytest.approx(-0.5)
    assert forms.M == 0.0
    assert euclidean_mean_curvature(forms) == pytest.approx(-0.5)


def test_type1_patch_first_form():
    s = TranslationSurface(Kind.TYPE_I, surfaces.linear(1, 0), surfaces.constant(0.0), ((-2, 2), (-2, 2)))
    forms = fundamental_forms(surfaces.patch_jet(s, 1.0, 0.0))
    assert forms.E == pytest.approx(2.0)
    assert forms.F == pytest.approx(0.0)
    assert forms.G == pytest.approx(1.0)


def test_horosphere_report():
    rep = hyperbolic_curvature(plane_jet(z=1.0))
    assert rep.He == 0.0
    assert rep.N3 == 1.0
    assert rep.H == 1.0
    assert rep.kappaH == (1.0, 1.0)


def test_hemisphere_pole_is_totally_geodesic():
    rep = hyperbolic_curvature(hemisphere_pole_jet(2.0))
    assert rep.H == pytest.approx(0.0, abs=1e-14)
    assert rep.kappaH[0] == pytest.approx(0.0, abs=1e-14)
    assert rep.kappaH[1] == pytest.approx(0.0, abs=1e-14)


def test_vertical_plane_is_minimal():
    jet = ImmersionJet(
        X=np.array([0.3, 5.0, 1.7]),
        Xu=np.array([1.0, 0.0, 0.0]),
        Xv=np.array([0.0, 0.0, 1.0]),
        Xuu=np.zeros(3),
        Xuv=np.zeros(3),
        Xvv=np.zeros(3),
    )
    rep = hyperbolic_curvature(jet)
    assert rep.He == 0.0
    assert rep.N3 == 0.0
    assert rep.H == 0.0


@pytest.mark.parametrize(
    "shape_u,shape_v",
    [((3,), (3,)), ((40, 30, 3), (40, 30, 3)), ((3,), (40, 30, 3)), ((40, 1, 3), (1, 30, 3))],
)
def test_unit_normal_cross_is_bit_identical_to_np_cross(shape_u, shape_v):
    rng = np.random.default_rng(7)
    xu, xv = rng.normal(size=shape_u), rng.normal(size=shape_v)
    cross = np.cross(xu, xv)
    want = cross / np.sqrt(np.einsum("...i,...i->...", cross, cross))[..., None]
    zero = np.zeros(3)
    got = unit_normal(ImmersionJet(zero, xu, xv, zero, zero, zero))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_degenerate_immersion_rejected():
    jet = ImmersionJet(
        X=np.array([0.0, 0.0, 1.0]),
        Xu=np.array([1.0, 0.0, 0.0]),
        Xv=np.array([2.0, 0.0, 0.0]),
        Xuu=np.zeros(3),
        Xuv=np.zeros(3),
        Xvv=np.zeros(3),
    )
    with pytest.raises(DegenerateImmersionError):
        fundamental_forms(jet)


def test_halfspace_violation_rejected():
    with pytest.raises(HalfSpaceError):
        hyperbolic_curvature(plane_jet(z=-0.5))


def _random_jet(rng):
    while True:
        Xu = rng.normal(size=3)
        Xv = rng.normal(size=3)
        if np.linalg.norm(np.cross(Xu, Xv)) > 1e-3:
            break
    return ImmersionJet(
        X=np.array([rng.normal(), rng.normal(), rng.uniform(0.1, 5.0)]),
        Xu=Xu,
        Xv=Xv,
        Xuu=rng.normal(size=3),
        Xuv=rng.normal(size=3),
        Xvv=rng.normal(size=3),
    )


def test_conformal_lift_consistency():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        jet = _random_jet(rng)
        rep = hyperbolic_curvature(jet)
        z = jet.X[2]
        assert abs(rep.H - (z * rep.He + rep.N3)) <= 1e-12
        for kh, ke in zip(rep.kappaH, rep.kappaE):
            assert abs(kh - (z * ke + rep.N3)) <= 1e-12 * max(1.0, abs(kh))
        assert abs(rep.N3) <= 1.0 + 1e-15
        # principal curvatures average to the mean curvature
        assert (rep.kappaE[0] + rep.kappaE[1]) / 2 == pytest.approx(rep.He, rel=1e-9, abs=1e-12)


def test_dilation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        jet = _random_jet(rng)
        h0 = hyperbolic_curvature(jet).H
        for lam in (0.5, 2.0, 10.0):
            scaled = ImmersionJet(
                X=lam * jet.X,
                Xu=lam * jet.Xu,
                Xv=lam * jet.Xv,
                Xuu=lam * jet.Xuu,
                Xuv=lam * jet.Xuv,
                Xvv=lam * jet.Xvv,
            )
            assert hyperbolic_curvature(scaled).H == pytest.approx(h0, rel=1e-10, abs=1e-10)


def test_orientation_matches_family_normals():
    # type I: N3 = 1/W > 0; type II: N3 = g'/W, sign of g'
    rng = np.random.default_rng(5)
    for _ in range(200):
        m1, m2 = rng.normal(size=2)
        s1 = TranslationSurface(
            Kind.TYPE_I, surfaces.linear(m1, 2.0), surfaces.linear(m2, 2.0), ((-1, 1), (-1, 1))
        )
        x, y = rng.uniform(-1, 1, 2)
        rep = hyperbolic_curvature(surfaces.patch_jet(s1, x, y))
        w = math.sqrt(1 + m1 ** 2 + m2 ** 2)
        assert rep.N3 == pytest.approx(1.0 / w, rel=1e-12)

        s2 = TranslationSurface(
            Kind.TYPE_II, surfaces.linear(m1, 0.0), surfaces.linear(m2, 0.0), ((-1, 1), (1, 2))
        )
        z = rng.uniform(1, 2)
        rep2 = hyperbolic_curvature(surfaces.patch_jet(s2, x, z))
        assert rep2.N3 == pytest.approx(m2 / w, rel=1e-12, abs=1e-12)


def test_umbilic_double_eigenvalue():
    k1, k2 = euclidean_principal_curvatures(fundamental_forms(hemisphere_pole_jet(2.0)))
    assert k1 == pytest.approx(-0.5)
    assert k2 == pytest.approx(-0.5)
