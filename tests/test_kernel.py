import math
from dataclasses import fields, replace

import numpy as np
import pytest

from hypmin import surfaces
from hypmin.kernel import (
    DegenerateImmersionError,
    HalfSpaceError,
    ImmersionJet,
    euclidean_mean_curvature,
    fundamental_forms,
    hyperbolic_curvature,
    require_halfspace,
    restrict_to_halfspace,
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


@pytest.mark.parametrize("slope", [1e9, 3e11, 1e12])
def test_det_first_of_a_steep_graph_does_not_cancel(slope):
    # z = slope*(u + v): EG - F^2 = 1 + 2 slope^2, while E*G - F*F cancels to 0
    s = TranslationSurface(Kind.TYPE_I, surfaces.linear(slope, 1.0), surfaces.linear(slope, 0.0), ((-1, 1), (-1, 1)))
    forms = fundamental_forms(surfaces.patch_jet(s, 0.5, 0.5))
    assert forms.E * forms.G - forms.F * forms.F == 0.0
    assert forms.det_first == pytest.approx(1.0 + 2.0 * slope * slope, rel=1e-15)
    assert euclidean_mean_curvature(forms) == 0.0


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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_height_rejected_at_its_first_point(bad):
    # the first point whose z is inf or NaN is named, unless some z <= 0, which is reported first
    X = np.stack(np.broadcast_arrays(np.array([0.0, 1.0])[:, None], np.array([5.0, 6.0])[None, :], 1.0), axis=-1)
    X[1, 0, 2] = X[1, 1, 2] = bad
    plane = plane_jet()
    jet = ImmersionJet(X, plane.Xu, plane.Xv, plane.Xuu, plane.Xuv, plane.Xvv)
    with pytest.raises(HalfSpaceError, match=rf"^z = {bad} is not finite at \(1\.0, 5\.0\)$"):
        hyperbolic_curvature(jet)
    X[0, 1, 2] = 0.0
    with pytest.raises(HalfSpaceError, match=r"^z = 0\.0 <= 0 at \(0\.0, 6\.0\)$"):
        hyperbolic_curvature(jet)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow shows only as the error
def test_non_finite_normal_rejected_at_its_first_point():
    # |Xu x Xv| overflows at two grid points; the row-major first one is named
    X = np.stack(np.broadcast_arrays(np.array([0.0, 1.0])[:, None], np.array([5.0, 6.0])[None, :], 1.0), axis=-1)
    Xu = np.broadcast_to([1.0, 0.0, 0.0], X.shape).copy()
    Xu[1, 0, 2] = Xu[0, 1, 2] = 1e200
    plane = plane_jet()
    jet = ImmersionJet(X, Xu, plane.Xv, plane.Xuu, plane.Xuv, plane.Xvv)
    with pytest.raises(DegenerateImmersionError, match=r"^\|Xu x Xv\| = inf is not finite at \(0\.0, 6\.0, 1\.0\)$"):
        unit_normal(jet)
    # partials that do not vary over the grid: the grid's first point is named
    jet = ImmersionJet(X, np.array([1e200, 0.0, 0.0]), np.array([0.0, 1e200, 0.0]), plane.Xuu, plane.Xuv, plane.Xvv)
    with pytest.raises(DegenerateImmersionError, match=r"^\|Xu x Xv\| = inf is not finite at \(0\.0, 5\.0, 1\.0\)$"):
        hyperbolic_curvature(jet)


def test_halfspace_check_names_the_row_major_first_bad_point():
    # two heights <= 0; the later one in row-major order is the lower, so naming the minimum would be wrong
    us, vs = np.array([0.0, 1.0, 2.0])[:, None], np.array([10.0, 20.0, 30.0])[None, :]
    height = np.ones((3, 3))
    height[0, 2], height[2, 0] = -0.5, -1.0
    with pytest.raises(HalfSpaceError, match=r"^h = -0\.5 <= 0 at \(0\.0, 30\.0\)$"):
        require_halfspace("h", height, us, vs)
    require_halfspace("h", np.abs(height), us, vs)
    # the same through a jet: x and y name the point, partials broadcast against the grid
    X = np.stack(np.broadcast_arrays(us, vs, height), axis=-1)
    plane = plane_jet()
    jet = ImmersionJet(X, plane.Xu, plane.Xv, plane.Xuu, plane.Xuv, plane.Xvv)
    with pytest.raises(HalfSpaceError, match=r"^z = -0\.5 <= 0 at \(0\.0, 30\.0\)$"):
        hyperbolic_curvature(jet)
    # restricting it spreads the (3,) partials over the 7 points kept
    above = restrict_to_halfspace(jet)
    assert above.X.shape == above.Xu.shape == above.Xuv.shape == (7, 3)
    assert np.all(hyperbolic_curvature(above).H == 1.0)  # horizontal planes are horospheres


@pytest.mark.parametrize("signs", ["++++++", "+-+0-+", "--0---"], ids=["all-above", "mixed", "all-below"])
def test_restrict_to_halfspace_keeps_the_points_with_z_above_zero(signs):
    # a 2 x 3 grid of random points, z made negative at "-" and zero at "0"
    rng = np.random.default_rng(7)
    points = [_random_jet(rng) for _ in signs]
    zs = [p.X[2] * {"+": 1.0, "-": -1.0, "0": 0.0}[c] for p, c in zip(points, signs)]
    points = [replace(p, X=np.array([*p.X[:2], z])) for p, z in zip(points, zs)]
    grid = _stacked(points)
    grid = ImmersionJet(*(getattr(grid, f.name).reshape(2, 3, 3) for f in fields(ImmersionJet)))
    above = restrict_to_halfspace(grid)
    kept = [p for p, c in zip(points, signs) if c == "+"]
    for f in fields(ImmersionJet):
        assert np.array_equal(getattr(above, f.name), np.reshape([getattr(p, f.name) for p in kept], (-1, 3)))
    H = hyperbolic_curvature(above).H
    assert H.shape == (len(kept),)
    if kept:
        assert H.tobytes() == hyperbolic_curvature(_stacked(kept)).H.tobytes()


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


def _stacked(points):
    """One jet holding the single-point jets `points` along a leading axis."""
    return ImmersionJet(*(np.stack([getattr(p, f.name) for p in points]) for f in fields(ImmersionJet)))


def test_conformal_lift_consistency():
    rng = np.random.default_rng(11)
    jet = _stacked([_random_jet(rng) for _ in range(1000)])
    rep = hyperbolic_curvature(jet)
    z = jet.X[:, 2]
    assert np.all(np.abs(rep.H - (z * rep.He + rep.N3)) <= 1e-12)
    for kh, ke in zip(rep.kappaH, rep.kappaE):
        assert np.all(np.abs(kh - (z * ke + rep.N3)) <= 1e-12 * np.maximum(1.0, np.abs(kh)))
    assert np.all(np.abs(rep.N3) <= 1.0 + 1e-15)
    # principal curvatures average to the mean curvature, at pytest.approx(rel=1e-9, abs=1e-12)
    mean = (rep.kappaE[0] + rep.kappaE[1]) / 2
    assert np.all(np.abs(mean - rep.He) <= np.maximum(1e-12, 1e-9 * np.abs(rep.He)))


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
    k1, k2 = hyperbolic_curvature(hemisphere_pole_jet(2.0)).kappaE
    assert k1 == pytest.approx(-0.5)
    assert k2 == pytest.approx(-0.5)


def test_type2_parabolic_cylinder_is_minimal_not_totally_geodesic():
    # type II with f constant and z g'' = 2 g'(1 + g'^2), whose first integral
    # is g' = z^2/sqrt(h^4 - z^4): a Euclidean cylinder over a curve in the
    # (y, z) plane, invariant under the horizontal translations along x
    h = 3.0
    u, z = np.meshgrid(np.linspace(-1.0, 1.0, 21), np.linspace(1.0, 2.0, 21), indexing="ij")
    gp = z ** 2 / np.sqrt(h ** 4 - z ** 4)
    gpp = 2.0 * z * h ** 4 / (h ** 4 - z ** 4) ** 1.5
    zero, one = np.zeros_like(z), np.ones_like(z)
    jet = ImmersionJet(
        X=np.stack((u, zero, z), axis=-1),  # H does not depend on the height y = f + g
        Xu=np.stack((one, zero, zero), axis=-1),
        Xv=np.stack((zero, gp, one), axis=-1),
        Xuu=np.zeros(z.shape + (3,)),
        Xuv=np.zeros(z.shape + (3,)),
        Xvv=np.stack((zero, gpp, zero), axis=-1),
    )
    rep = hyperbolic_curvature(jet)
    assert np.max(np.abs(rep.H)) < 1e-12
    # the principal curvatures are -N3 and N3 (= z^2/h^2), so it is not totally geodesic
    assert np.max(np.abs(np.minimum(*rep.kappaH) + np.abs(rep.N3))) < 1e-12
    assert np.max(np.abs(np.maximum(*rep.kappaH) - np.abs(rep.N3))) < 1e-12
    assert np.max(np.abs(rep.kappaH)) == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert np.max(np.abs(rep.N3 - z ** 2 / h ** 2)) < 1e-12
