import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hypmin import surfaces
from hypmin.kernel import (
    HalfSpaceError,
    euclidean_mean_curvature,
    fundamental_forms,
    hyperbolic_curvature,
)
from hypmin.surfaces import (
    DomainError,
    Kind,
    SingularLocusError,
    TranslationSurface,
    UsageError,
    geodesic_plane,
    patch_jet,
    plane_family_distance,
    scherk,
    simpson,
    type1_reduction_residual,
    type1_residual,
    type2_residual,
)


def _type1(f, g, dom=((-1, 1), (-1, 1))):
    return TranslationSurface(Kind.TYPE_I, f, g, dom)


def _type2(f, g, dom=((-1, 1), (0.5, 3))):
    return TranslationSurface(Kind.TYPE_II, f, g, dom)


# -- residual spot values ---------------------------------------------


def test_type1_residual_tilted_plane():
    # f = x, g = 0: LHS 0, RHS -2*2/(2*1) = -2, residual 2
    s = _type1(surfaces.linear(1, 1), surfaces.constant(0.0))
    assert type1_residual(s, 1.0, 0.3) == pytest.approx(2.0, abs=1e-14)


def test_type1_residual_horosphere_piece():
    s = _type1(surfaces.constant(1.0), surfaces.constant(1.0))
    assert type1_residual(s, 0.2, -0.7) == pytest.approx(2.0, abs=1e-14)


def test_type2_residual_geodesic_plane_vanishes():
    s = geodesic_plane(1.5, 0.25, -2.0, ((-1, 1), (0.5, 3)))
    for x in (-0.9, 0.0, 0.8):
        for z in (0.6, 1.0, 2.9):
            assert type2_residual(s, x, z) == 0.0


def test_type2_residual_double_tilt():
    # f = x, g = z: LHS 0, RHS 2*1*3/(2*2) = 3/2, residual -3/2
    s = _type2(surfaces.linear(1, 0), surfaces.linear(1, 0))
    assert type2_residual(s, 0.4, 1.1) == pytest.approx(-1.5, abs=1e-14)


def test_residual_wrong_kind_rejected():
    s1 = _type1(surfaces.constant(1.0), surfaces.constant(1.0))
    s2 = geodesic_plane(0, 0, 1, ((-1, 1), (0.5, 3)))
    with pytest.raises(UsageError):
        type2_residual(s1, 0.0, 1.0)
    with pytest.raises(UsageError):
        type1_residual(s2, 0.0, 1.0)
    with pytest.raises(UsageError):
        plane_family_distance(s1)


def test_halfspace_guards():
    s = _type1(surfaces.constant(-1.0), surfaces.constant(0.5))
    with pytest.raises(HalfSpaceError):
        patch_jet(s, 0.0, 0.0)
    with pytest.raises(HalfSpaceError):
        type1_residual(s, 0.0, 0.0)
    s2 = _type2(surfaces.linear(1, 0), surfaces.constant(0.0), ((-1, 1), (-1, 3)))
    with pytest.raises(HalfSpaceError):
        type2_residual(s2, 0.0, -0.5)


def test_domain_guard():
    s = _type1(surfaces.constant(1.0), surfaces.constant(1.0), ((-1, 1), (-1, 1)))
    with pytest.raises(DomainError):
        patch_jet(s, 2.0, 0.0)


# -- residual / curvature-kernel equivalence --------------------------


def _random_poly_curve(rng, dom, lift=0.0):
    coeffs = rng.uniform(-0.6, 0.6, 4)
    coeffs[-1] += lift
    return surfaces.polynomial(coeffs, dom)


def test_type1_residual_matches_kernel():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 1000:
        f = _random_poly_curve(rng, (-1, 1), lift=1.5)
        g = _random_poly_curve(rng, (-1, 1), lift=1.5)
        s = _type1(f, g)
        x, y = rng.uniform(-1, 1, 2)
        fj, gj = f(x), g(y)
        if fj.v0 + gj.v0 <= 0.05:
            continue
        rep = hyperbolic_curvature(patch_jet(s, x, y))
        P = 1 + fj.v1 ** 2
        Q = 1 + gj.v1 ** 2
        w3 = (1 + fj.v1 ** 2 + gj.v1 ** 2) ** 1.5
        want = 2.0 * w3 * rep.H / (P * Q)
        assert type1_residual(s, x, y) == pytest.approx(want, abs=1e-10, rel=1e-10)
        checked += 1


def test_type2_residual_matches_kernel():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        f = _random_poly_curve(rng, (-1, 1))
        g = _random_poly_curve(rng, (0.5, 3))
        s = _type2(f, g)
        x = rng.uniform(-1, 1)
        z = rng.uniform(0.5, 3)
        fj, gj = f(x), g(z)
        rep = hyperbolic_curvature(patch_jet(s, x, z))
        P = 1 + fj.v1 ** 2
        Q = 1 + gj.v1 ** 2
        w3 = (1 + fj.v1 ** 2 + gj.v1 ** 2) ** 1.5
        want = -2.0 * w3 * rep.H / (P * Q)
        assert type2_residual(s, x, z) == pytest.approx(want, abs=1e-10, rel=1e-10)


# -- reduction residual -----------------------------------------------


def test_reduction_residual_linear_pair_vanishes():
    s = _type1(surfaces.linear(2, 1), surfaces.linear(-0.5, 1))
    assert type1_reduction_residual(s, 0.3, -0.4) == 0.0


def test_reduction_residual_singular_locus():
    s = _type1(surfaces.quadratic(1, 0, 1), surfaces.linear(1, 1))
    with pytest.raises(SingularLocusError):
        type1_reduction_residual(s, 0.0, 0.0)  # f'(0) = 0
    # on a grid, f' = 2x vanishes only on the column x = 0; its first node is named
    us, vs = _axes(s, nu=5, nv=4)
    off_axis = np.delete(us, 2)
    assert type1_reduction_residual(s, off_axis[:, None], vs[None, :]).shape == (4, 4)
    with pytest.raises(SingularLocusError, match=r"f'\(0\.0\) = 0\.0, g'\(-1\.0\) = 1:"):
        type1_reduction_residual(s, us[:, None], vs[None, :])


def _exact_reduction(fv, gv):
    """Independent big-rational evaluation of the reduction residual."""
    f1, f2, f3 = fv
    g1, g2, g3 = gv
    P = 1 + f1 * f1
    Q = 1 + g1 * g1
    dA = Fraction(f3 * P - 2 * f1 * f2 * f2, P * P)
    dB = Fraction(g3 * Q - 2 * g1 * g2 * g2, Q * Q)
    return dB / g1 + dA / f1 - Fraction(8 * f2 * g2, P * P * Q * Q)


def test_reduction_residual_cubic_oracle():
    # f = x^3 + x, g = y^3 + y at (1,1): jets (2,4,6,6); frozen rational oracle
    val = _exact_reduction((Fraction(4), Fraction(6), Fraction(6)),
                           (Fraction(4), Fraction(6), Fraction(6)))
    assert val == Fraction(-27165, 83521)
    s = _type1(surfaces.polynomial([1, 0, 1, 0]), surfaces.polynomial([1, 0, 1, 0]))
    got = type1_reduction_residual(s, 1.0, 1.0)
    assert got == pytest.approx(float(val), rel=1e-13)
    assert got == pytest.approx(-0.32524754253421295, rel=1e-13)


def test_reduction_residual_first_integral_curve():
    # f'' = a (1+f'^2)^2 with a = 1, f'(0) = 0; g linear slope 1.  With g
    # affine the residual collapses to (f''/(1+f'^2))'/f' which equals 2a f''.
    a = 1.0
    sol = solve_ivp(
        lambda x, y: [y[1], a * (1 + y[1] ** 2) ** 2],
        (0.0, 0.2),
        [0.5, 0.0],
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    x0 = 0.1
    fval, fp = sol.sol(x0)
    fpp = a * (1 + fp ** 2) ** 2
    fppp = 4 * a * fp * fpp * (1 + fp ** 2)

    def fev(t):
        assert t == x0
        from hypmin.jets import Jet3

        return Jet3(float(fval), float(fp), float(fpp), float(fppp))

    f = surfaces.FunctionCurve(fev, (x0, x0))
    s = _type1(f, surfaces.linear(1, 1), ((x0, x0), (-1, 1)))
    got = type1_reduction_residual(s, x0, 0.5)
    assert got == pytest.approx(2.0 * a * fpp, abs=1e-8)


def test_mixed_partial_of_residual_matches_reduction():
    # d^2/dxdy of the type-I residual = f' g' * reduction residual
    f = surfaces.polynomial([0.3, 0.2, 0.7, 2.0])
    g = surfaces.polynomial([-0.2, 0.4, 0.5, 2.0])
    s = _type1(f, g, ((-1, 1), (-1, 1)))
    x0, y0 = 0.35, -0.45

    def mixed_fd(h):
        return (
            type1_residual(s, x0 + h, y0 + h)
            - type1_residual(s, x0 + h, y0 - h)
            - type1_residual(s, x0 - h, y0 + h)
            + type1_residual(s, x0 - h, y0 - h)
        ) / (4 * h * h)

    # Richardson extrapolation of the centered stencil
    d1, d2 = mixed_fd(1e-3), mixed_fd(5e-4)
    mixed = (4 * d2 - d1) / 3
    want = f(x0).v1 * g(y0).v1 * type1_reduction_residual(s, x0, y0)
    assert mixed == pytest.approx(want, abs=1e-8)


# -- named surfaces ---------------------------------------------------


def test_scherk_euclidean_minimal_hyperbolic_not():
    for a in (1.0, 2.0):
        s = scherk(a)
        (x0, x1), (y0, y1) = s.domain
        margin = 0.1
        xs = np.linspace(x0 + margin, x1 - margin, 50)
        ys = np.linspace(y0 + margin, y1 - margin, 50)
        max_he = 0.0
        max_h = 0.0
        for x in xs:
            for y in ys:
                jet = patch_jet(s, x, y, check_halfspace=False)
                he = euclidean_mean_curvature(fundamental_forms(jet))
                max_he = max(max_he, abs(he))
                if jet.X[2] > 0:
                    max_h = max(max_h, abs(hyperbolic_curvature(jet).H))
        assert max_he < 1e-10
        assert max_h > 0.1


def test_scherk_zero_parameter_rejected():
    with pytest.raises(ValueError):
        scherk(0.0)


def test_geodesic_plane_distance_examples():
    dom = ((-1, 1), (0.5, 1.5))
    assert plane_family_distance(geodesic_plane(2.0, -1.0, 0.7, dom)) == 0.0
    # g = z on (0.5, 1.5): integral of 1 over unit interval = 1
    s = _type2(surfaces.linear(0, 0), surfaces.linear(1, 0), dom)
    assert plane_family_distance(s) == pytest.approx(1.0, rel=1e-12)
    # f = x^2 on (-1, 1): integral of f''^2 = 4*2 = 8
    s2 = _type2(surfaces.quadratic(1, 0, 0), surfaces.constant(1.0), dom)
    assert plane_family_distance(s2) == pytest.approx(8.0, rel=1e-12)


def test_simpson_exact_on_cubics():
    assert simpson(lambda x: x ** 3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)


# -- reference patches ------------------------------------------------


def test_horosphere_patch_curvature():
    for c in (0.5, 1.0, 3.0):
        patch = surfaces.horosphere(c)
        rep = hyperbolic_curvature(patch.jet(0.3, -1.2))
        assert abs(rep.H - 1.0) < 1e-12


def test_vertical_plane_patch_curvature():
    patch = surfaces.vertical_plane(2.0)
    rep = hyperbolic_curvature(patch.jet(0.5, 1.5))
    assert abs(rep.H) < 1e-12


def test_hemisphere_patch_curvature():
    for r in (1.0, 2.0):
        patch = surfaces.hemisphere(r)
        (t0, t1), (p0, p1) = patch.domain
        for th in np.linspace(t0 + 1e-3, t1 - 1e-3, 12):
            for ph in np.linspace(p0, p1, 12):
                rep = hyperbolic_curvature(patch.jet(th, ph))
                assert abs(rep.H) < 1e-10


def test_horosphere_rejects_nonpositive_level():
    with pytest.raises(HalfSpaceError):
        surfaces.horosphere(-1.0)


# -- whole grids against the per-point reference -----------------------


def _spline_curve(seed, dom, lift=0.0):
    coeffs = np.random.default_rng(seed).uniform(-0.5, 0.5, 16) + lift
    return surfaces.from_bspline(dom, coeffs)


GRID_PATCHES = {
    "type1-spline": lambda: _type1(_spline_curve(1, (-1, 1), lift=1.5), _spline_curve(2, (-1, 1))),
    "type2-spline": lambda: _type2(_spline_curve(3, (-1, 1)), _spline_curve(4, (1, 2)), ((-1, 1), (1, 2))),
    # a patch of Scherk's surface where z = log(cos x / cos y) > 0
    "scherk": lambda: dataclasses.replace(scherk(1.0), domain=((-0.5, 0.5), (1.0, 1.4))),
    "hemisphere": lambda: surfaces.hemisphere(2.0, (0.3, -0.2)),
    "horosphere": lambda: surfaces.horosphere(1.5),
    "vertical-plane": lambda: surfaces.vertical_plane(0.7),
}


def _axes(patch, nu=7, nv=9, overshoot=0):
    """Grid axes over the patch domain; `overshoot` extra nodes run past u1."""
    (u0, u1), (v0, v1) = patch.domain
    h = (u1 - u0) / (nu - 1)
    return np.linspace(u0, u1 + overshoot * h, nu + overshoot), np.linspace(v0, v1, nv)


@pytest.mark.parametrize("name", GRID_PATCHES)
def test_grid_matches_pointwise(name):
    patch = GRID_PATCHES[name]()
    us, vs = _axes(patch)
    jet = patch.jet(us[:, None], vs[None, :])
    assert jet.X.shape == (len(us), len(vs), 3)
    rep = hyperbolic_curvature(jet)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            want = hyperbolic_curvature(patch.jet(float(u), float(v)))
            assert (rep.He[i, j], rep.N3[i, j], rep.H[i, j]) == (want.He, want.N3, want.H)


@pytest.mark.parametrize("name", GRID_PATCHES)
def test_grid_overshooting_domain_rejected(name):
    patch = GRID_PATCHES[name]()
    us, vs = _axes(patch, overshoot=1)
    with pytest.raises(DomainError):
        patch.jet(us[:, None], vs[None, :])


def test_grid_with_one_node_below_halfspace_rejected():
    # f + g = x^2 + y^2 vanishes only at the centre node of an odd grid
    s = _type1(surfaces.quadratic(1, 0, 0), surfaces.quadratic(1, 0, 0))
    us, vs = _axes(s, nu=5, nv=5)
    off_centre = np.delete(vs, 2)
    assert patch_jet(s, us[:, None], off_centre[None, :]).X.shape == (5, 4, 3)
    with pytest.raises(HalfSpaceError, match=r"at \(0\.0, 0\.0\)"):
        patch_jet(s, us[:, None], vs[None, :])
    with pytest.raises(HalfSpaceError, match=r"f\+g = 0\.0 <= 0 at \(0\.0, 0\.0\)"):
        type1_residual(s, us[:, None], vs[None, :])
    # type II: z = 0 on a whole grid column; the first of its nodes is named
    s2 = _type2(surfaces.linear(1, 0), surfaces.constant(1.0), ((-1, 1), (0, 2)))
    with pytest.raises(HalfSpaceError, match=r"z = 0\.0 <= 0 at \(-1\.0, 0\.0\)"):
        type2_residual(s2, us[:, None], np.linspace(0, 2, 5)[None, :])


@pytest.mark.parametrize(
    "name,residual",
    [
        pytest.param("type1-spline", type1_residual, id="type1-spline"),
        pytest.param("type2-spline", type2_residual, id="type2-spline"),
        pytest.param("type1-spline", type1_reduction_residual, id="type1-reduction"),
    ],
)
def test_residual_on_grid_matches_pointwise(name, residual):
    s = GRID_PATCHES[name]()
    us, vs = _axes(s)
    got = residual(s, us[:, None], vs[None, :])
    assert got.shape == (len(us), len(vs))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert got[i, j] == residual(s, float(u), float(v))


# -- the spline against scipy's BSpline, a test-only oracle --------------


def _scipy_jet(domain, coeffs, t):
    from scipy.interpolate import BSpline

    spline = BSpline(surfaces.clamped_knots(domain, len(coeffs) - 4), coeffs, 3)
    return [spline(t)] + [spline.derivative(k)(t) for k in (1, 2, 3)]


@pytest.mark.parametrize("seed", range(6))
def test_from_bspline_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-3.0, 3.0)
    dom = (lo, lo + rng.uniform(0.05, 5.0))
    m = int(rng.integers(4, 31))
    coeffs = rng.normal(size=(m,) if seed % 2 else (m, 3))
    t = np.concatenate([dom, np.linspace(*dom, 23), rng.uniform(*dom, 40)])
    for args in (t, t[:, None], t[None, :], np.float64(t[-1]), dom[1]):
        jet = surfaces.from_bspline(dom, coeffs)(args)
        got = (jet.v0, jet.v1, jet.v2, jet.v3)
        for k, want in enumerate(_scipy_jet(dom, coeffs, args)):
            assert got[k].shape == want.shape
            assert np.max(np.abs(got[k] - want)) <= 1e-13 * np.max(np.abs(want))


def test_from_bspline_rejects_too_few_coefficients_or_empty_domain():
    with pytest.raises(ValueError, match="at least 4 coefficients"):
        surfaces.from_bspline((0.0, 1.0), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="t0 < t1"):
        surfaces.from_bspline((1.0, 1.0), [1.0, 2.0, 3.0, 4.0])
