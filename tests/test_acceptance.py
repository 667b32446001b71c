"""Acceptance suite: the nine headline checks, one pass/fail line each.

Each test prints `criterion N (<name>): PASS` on success; a failure raises
before the line is printed, so the transcript shows exactly which criteria
held.  Tolerances are pinned here and must not be loosened to make a run
pass.
"""

import math

import numpy as np

from hypmin import algebra, jets, surfaces
from hypmin.algebra import EXACT, MISMATCH, build_named, solve_X_and_eliminate
from hypmin.cli import main
from hypmin.jets import Jet3
from hypmin.kernel import euclidean_mean_curvature, fundamental_forms, hyperbolic_curvature, restrict_to_halfspace
from hypmin.search import SearchConfig, generate_seeds, run_seeds
from hypmin.surfaces import Kind, TranslationSurface, patch_jet


def _announce(capsys, n, name):
    with capsys.disabled():
        print(f"criterion {n} ({name}): PASS")


def _grid_H(patch, u_range, v_range, n):
    """H of `patch` on the n x n grid of linspace points over u_range x v_range, in one evaluation."""
    us, vs = np.linspace(*u_range, n), np.linspace(*v_range, n)
    return hyperbolic_curvature(patch.jet(us[:, None], vs[None, :])).H


def test_criterion_1_conformal_lift_oracle(capsys):
    for r in (1.0, 2.0):
        patch = surfaces.hemisphere(r)
        worst = np.max(np.abs(_grid_H(patch, *patch.domain, 100)))
        assert worst < 1e-10, f"hemisphere r={r}: max |H| = {worst}"
    for c in (0.5, 1.0, 3.0):
        assert np.max(np.abs(_grid_H(surfaces.horosphere(c), (-2, 2), (-2, 2), 20) - 1.0)) < 1e-12
    patch = surfaces.vertical_plane(1.0)
    assert np.max(np.abs(_grid_H(patch, *patch.domain, 20))) < 1e-12
    _announce(capsys, 1, "conformal-lift oracle")


def test_criterion_2_scherk_sanity(capsys):
    for a in (1.0, 2.0):
        s = surfaces.scherk(a)
        half = math.pi / (2.0 * abs(a))
        grid = np.linspace(-half + 0.1, half - 0.1, 50)
        jet = patch_jet(s, grid[:, None], grid[None, :])
        max_he = np.max(np.abs(euclidean_mean_curvature(fundamental_forms(jet))))
        # H is defined only above the ideal boundary: take it at the points with z > 0
        max_h = np.max(np.abs(hyperbolic_curvature(restrict_to_halfspace(jet)).H), initial=0.0)
        assert max_he < 1e-10, f"a={a}: max |He| = {max_he}"
        assert max_h > 0.1, f"a={a}: max |H| = {max_h}"
    _announce(capsys, 2, "Scherk sanity")


def _random_curve(rng, lift=0.0):
    coeffs = rng.uniform(-0.6, 0.6, 4)
    coeffs[-1] += lift
    return surfaces.polynomial(coeffs)


def test_criterion_3_residual_kernel_equivalence(capsys):
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        f = _random_curve(rng, lift=1.5)
        g = _random_curve(rng, lift=1.5)
        s = TranslationSurface(Kind.TYPE_I, f, g, ((-1, 1), (-1, 1)))
        x, y = rng.uniform(-1, 1, 2)
        fj, gj = f(x), g(y)
        if fj.v0 + gj.v0 <= 0.05:
            continue
        H = hyperbolic_curvature(patch_jet(s, x, y)).H
        P, Q = 1 + fj.v1 ** 2, 1 + gj.v1 ** 2
        want = 2.0 * (P + gj.v1 ** 2) ** 1.5 * H / (P * Q)
        got = surfaces.type1_residual(s, x, y)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))
        checked += 1
    for _ in range(1000):
        f = _random_curve(rng)
        g = _random_curve(rng)
        s = TranslationSurface(Kind.TYPE_II, f, g, ((-1, 1), (0.5, 3)))
        x = rng.uniform(-1, 1)
        z = rng.uniform(0.5, 3)
        fj, gj = f(x), g(z)
        H = hyperbolic_curvature(patch_jet(s, x, z)).H
        P, Q = 1 + fj.v1 ** 2, 1 + gj.v1 ** 2
        want = -2.0 * (P + gj.v1 ** 2) ** 1.5 * H / (P * Q)
        got = surfaces.type2_residual(s, x, z)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))
    _announce(capsys, 3, "residual/kernel equivalence")


def test_criterion_4_exact_identity_suite(capsys):
    reports = {r.id: r for r in algebra.run_all_verifications()}
    for ident in (
        "first-integral",
        "factorization-step",
        "implicit-g",
        "eqg-substitution",
        "q1-q2-derivation",
        "q3-combination",
        "x-rational-function",
    ):
        assert reports[ident].status == EXACT, ident
    # deliberate corruptions must be caught
    assert algebra.verify_q3_combination(build_named("q1") + 1).status == MISMATCH
    assert algebra.verify_first_integral(exponent=3).status == MISMATCH
    assert algebra.verify_factorization_step(coefficient=5).status == MISMATCH
    assert algebra.verify_implicit_g(coefficient=4).status == MISMATCH
    _announce(capsys, 4, "exact identity suite")


def test_criterion_5_degree7_elimination(capsys):
    from scipy.optimize import brentq
    from fractions import Fraction

    x_expr, computed, _, final_report = solve_X_and_eliminate()
    if final_report.status == EXACT:
        assert computed == build_named("final7")
    else:
        assert final_report.status == "match-up-to-factor" or final_report.difference is not None
    # independent numeric oracle on the COMPUTED polynomial
    rng = np.random.default_rng(99)
    found = 0
    while found < 3:
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 2.0))

        def poly(z):
            pt = {"a": Fraction(a).limit_denominator(10 ** 9),
                  "b": Fraction(b).limit_denominator(10 ** 9),
                  "z": Fraction(z).limit_denominator(10 ** 12), "X": 0}
            return float(computed.evaluate(pt))

        lo, hi = 0.1, 3.0
        if poly(lo) * poly(hi) > 0:
            continue
        z = brentq(poly, lo, hi, xtol=1e-14)
        pt = {"a": Fraction(a).limit_denominator(10 ** 9),
              "b": Fraction(b).limit_denominator(10 ** 9),
              "z": Fraction(z).limit_denominator(10 ** 12), "X": 0}
        X = float(x_expr.evaluate(pt))
        q1 = b * z * X ** 2 - 5 * X + 4 * a * z + 3 * b * z
        q2 = b * X ** 3 - 5 * a * X + 4 * a ** 2 * z + 2 * a * b * z
        assert abs(q1) < 1e-9, f"(a,b)=({a},{b}): q1 = {q1}"
        assert abs(q2) < 1e-9, f"(a,b)=({a},{b}): q2 = {q2}"
        found += 1
    _announce(capsys, 5, "degree-7 elimination")


TYPE2_TOL = 1e-6  # convergence tolerance referenced by criterion 7


def test_criterion_6_type2_collapse(capsys):
    seeds = generate_seeds(20, Kind.TYPE_II, 1234, (-1, 1), (1, 2))
    results = run_seeds(seeds, SearchConfig())
    good = sum(
        1
        for r in results
        if r.sup_residual < TYPE2_TOL and r.plane_distance < 1e-4
    )
    assert good >= 18, f"only {good}/20 collapsed to the plane family"
    _announce(capsys, 6, "type II collapse")


def test_criterion_7_type1_floor_with_control(capsys):
    control_seeds = generate_seeds(
        20, Kind.TYPE_I, 1234, (-1, 1), (-1, 1), euclidean_control=True
    )
    control = run_seeds(control_seeds, SearchConfig(euclidean_control=True))
    assert min(r.sup_residual for r in control) < 1e-6, "control run failed to converge"

    seeds = generate_seeds(20, Kind.TYPE_I, 1234, (-1, 1), (-1, 1))
    results = run_seeds(seeds, SearchConfig())
    best = min(r.sup_residual for r in results)
    assert best > 100.0 * TYPE2_TOL, f"type I best sup residual {best} below the floor"
    _announce(capsys, 7, "type I floor with control")


def test_criterion_8_jet_correctness(capsys):
    rng = np.random.default_rng(7)

    def random_expression():
        c1, c2, c3 = rng.uniform(0.5, 1.5, 3)
        i, j, k = rng.integers(0, 6, 3)
        op1, op2 = rng.integers(0, 4, 2)

        def leaves(x):
            return [
                x,
                jets.sin(c1 * x),
                jets.cos(c2 * x),
                2.0 + jets.sin(x),
                jets.log(2.0 + jets.sin(c3 * x)),
                jets.abs_log_cos(0.4 * x),
            ]

        def combine(a, b, op):
            if op == 0:
                return a + b
            if op == 1:
                return a - b
            if op == 2:
                return a * b
            return a / (2.5 + jets.sin(b))

        def expr(t):
            ls = leaves(Jet3.variable(t))
            return combine(combine(ls[i], ls[j], op1), ls[k], op2)

        return expr

    for _ in range(100):
        expr = random_expression()
        t = float(rng.uniform(-1.0, 1.0))
        j = expr(t)

        def stencil(h):
            v = [expr(t + k * h).v0 for k in (-3, -2, -1, 0, 1, 2, 3)]
            return np.array(
                [
                    (v[4] - v[2]) / (2 * h),
                    (v[4] - 2 * v[3] + v[2]) / h ** 2,
                    (v[5] - 2 * v[4] + 2 * v[2] - v[1]) / (2 * h ** 3),
                ]
            )

        h = 1e-2
        fd = (4.0 * stencil(h / 2) - stencil(h)) / 3.0  # Richardson, O(h^4)
        for got, want in zip(fd, (j.v1, j.v2, j.v3)):
            assert abs(got - want) / max(abs(want), 1.0) < 1e-6
    _announce(capsys, 8, "jet correctness")


def test_criterion_9_determinism(capsys, tmp_path):
    for kind in ("type2", "type1", "control"):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{kind}_{tag}"
            assert main(["search", "--kind", kind, "--seeds", "20", "--seed", "1234", "--out", str(out)]) == 0
            runs.append((out / f"search_{kind}.csv").read_bytes())
        assert runs[0] == runs[1], f"{kind}: repeated runs differ"
    _announce(capsys, 9, "determinism")
