import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from hypmin import algebra
from hypmin.algebra import (
    EXACT,
    MAX_DEGREE,
    MISMATCH,
    UP_TO_FACTOR,
    DegreeOverflowError,
    MultiPoly,
    RationalFunction,
    build_named,
    run_all_verifications,
    solve_X_and_eliminate,
    verify_eqg_substitution,
    verify_factorization_step,
    verify_first_integral,
    verify_implicit_g,
    verify_q3_combination,
)

ONES = {"a": Fraction(1), "b": Fraction(1), "z": Fraction(1), "X": Fraction(1)}


# -- spot values of the named polynomials -----------------------------


def test_named_values_at_ones():
    assert build_named("q1").evaluate(ONES) == 3
    assert build_named("q2").evaluate(ONES) == 2
    assert build_named("q3").evaluate(ONES) == 1
    assert build_named("eqg2").evaluate(ONES) == -1
    assert build_named("final7").evaluate(ONES) == 139
    assert build_named("b0branch").evaluate(ONES) == Fraction(-141, 125)


def test_unknown_named_rejected():
    with pytest.raises(KeyError):
        build_named("q99")


# -- exact identity suite ---------------------------------------------


def test_all_verifications_exact():
    reports = run_all_verifications()
    assert len(reports) == 8
    for rep in reports:
        assert rep.status == EXACT, f"{rep.id}: {rep.detail}"
        assert rep.ok
        d = rep.to_json()
        assert d["id"] == rep.id and d["status"] == EXACT


def test_degree7_elimination_exact_factor_one():
    x_expr, computed, x_report, final_report = solve_X_and_eliminate()
    assert x_report.status == EXACT
    assert final_report.status == EXACT
    assert final_report.factor == 1
    assert computed == build_named("final7")


def test_x_expression_value():
    x_expr, *_ = solve_X_and_eliminate()
    assert x_expr.evaluate(ONES) == Fraction(29, 13)


def test_x_satisfies_cubic_at_random_rationals():
    # eqg2(X(z), z) need not vanish; but q1(X(z)) * den^2 must equal final7
    rng = np.random.default_rng(17)
    pts = algebra.random_rational_points(25, rng, ("a", "b", "z"))
    x_expr, computed, _, _ = solve_X_and_eliminate()
    q1 = build_named("q1")
    for pt in pts:
        den = x_expr.den.evaluate({**pt, "X": Fraction(0)})
        if den == 0:
            continue
        xval = x_expr.evaluate({**pt, "X": Fraction(0)})
        full = {**pt, "X": xval}
        assert q1.evaluate(full) * den ** 2 == computed.evaluate(full)


def test_numeric_root_satisfies_quadrics():
    # a = b = 1: find a nonzero root z of final7 and check q1 at (z, X(z))
    x_expr, computed, _, _ = solve_X_and_eliminate()

    def poly(z):
        return float(computed.evaluate({"a": 1, "b": 1, "z": Fraction(z).limit_denominator(10 ** 12), "X": 0}))

    root = brentq(poly, 0.3, 1.5, xtol=1e-14)
    assert abs(root) > 1e-3
    xv = float(
        x_expr.evaluate({"a": 1, "b": 1, "z": Fraction(root).limit_denominator(10 ** 12), "X": 0})
    )
    q1 = root * xv ** 2 - 5 * xv + 4 * root + 3 * root
    q2 = xv ** 3 - 5 * xv + 4 * root + 2 * root
    assert abs(q1) < 1e-9
    assert abs(q2) < 1e-9


# -- deliberate corruption is caught ----------------------------------


def test_corrupted_q1_breaks_combination():
    bad = build_named("q1") + MultiPoly.var("X")
    rep = verify_q3_combination(q1=bad)
    assert rep.status == MISMATCH
    assert rep.difference is not None and not rep.difference.is_zero()


def test_corrupted_first_integral_exponent():
    assert verify_first_integral(exponent=3).status == MISMATCH


def test_corrupted_factorization_coefficient():
    assert verify_factorization_step(coefficient=5).status == MISMATCH


def test_corrupted_implicit_coefficient():
    assert verify_implicit_g(coefficient=4).status == MISMATCH


def test_corrupted_elimination_input():
    bad = build_named("q1") + 1
    *_, final_report = solve_X_and_eliminate(q1=bad)
    assert final_report.status == MISMATCH


def test_eqg_substitution_exact():
    assert verify_eqg_substitution().status == EXACT


# -- polynomial arithmetic --------------------------------------------


def test_degree_overflow():
    z = MultiPoly.var("z")
    with pytest.raises(DegreeOverflowError):
        z ** 17


def test_variable_universe_mismatch():
    with pytest.raises(ValueError):
        MultiPoly.var("a") + MultiPoly.var("p", algebra.ODE_VARS)


def test_rational_function_normalization():
    a = MultiPoly.var("a")
    rf = RationalFunction.make(4 * a, MultiPoly.const(-2) * a + MultiPoly.const(-2))
    # denominator scaled primitive with positive lexicographic leading coeff
    assert rf.den.leading_coefficient() > 0
    assert rf.den.content() == 1
    assert rf.evaluate({"a": Fraction(3), "b": 0, "z": 0, "X": 0}) == Fraction(-3, 2)


def test_str_roundtrip_spot():
    a = MultiPoly.var("a")
    z = MultiPoly.var("z")
    assert str(2 * a * z - 1) == "2*a*z - 1"
    assert str(MultiPoly.zero()) == "0"


small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)


def _poly_from(coeffs):
    # sparse trivariate polynomial from a coefficient list
    exps = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0), (1, 0, 1, 0)]
    return MultiPoly({e: c for e, c in zip(exps, coeffs)})


polys = st.lists(small_fracs, min_size=6, max_size=6).map(_poly_from)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p - p == MultiPoly.zero()


@given(polys, polys)
def test_evaluation_is_ring_homomorphism(p, q):
    pt = {"a": Fraction(2, 3), "b": Fraction(-1, 2), "z": Fraction(5), "X": Fraction(-3, 7)}
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


@given(polys)
def test_partial_of_substitute_chain(p):
    # d/dz of p(z -> z) is just partial; sanity: substitute identity is no-op
    z = MultiPoly.var("z")
    assert p.substitute("z", z) == p


# -- the validating boundary and the canonical form -------------------


def test_constructor_boundary_checks():
    with pytest.raises(ValueError):
        MultiPoly({(1, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly({(1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly({(): 1}, vars=())
    with pytest.raises(TypeError):
        MultiPoly({(1.5, 0, 0, 0): 1})
    assert MultiPoly({(np.int64(1), 0, 0, 0): 1}) == MultiPoly.var("a")
    with pytest.raises(DegreeOverflowError):
        MultiPoly({(0, 0, MAX_DEGREE + 1, 0): 1})
    assert not MultiPoly({(0, 0, MAX_DEGREE, 0): 1}).is_zero()


def test_degree_overflow_from_ring_operations():
    z = MultiPoly.var("z")
    X = MultiPoly.var("X")
    assert z ** MAX_DEGREE == MultiPoly({(0, 0, MAX_DEGREE, 0): 1})
    with pytest.raises(DegreeOverflowError):
        z ** 9 * z ** 8
    with pytest.raises(DegreeOverflowError):
        (X ** 9).substitute("X", z ** 2)


@pytest.mark.parametrize("bad", [0.1, 0.5, 3.0, np.float64(0.5), np.float32(2.0)])
def test_non_rational_coefficients_rejected(bad):
    a = MultiPoly.var("a")
    with pytest.raises(TypeError):
        MultiPoly({(1, 0, 0, 0): bad})
    with pytest.raises(TypeError):
        MultiPoly.const(bad)
    with pytest.raises(TypeError):
        a.scaled(bad)
    with pytest.raises(TypeError):
        a + bad
    with pytest.raises(TypeError):
        a * bad


@pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(0.5)])
def test_non_rational_points_rejected(bad):
    p = build_named("q1")
    with pytest.raises(TypeError):
        p.evaluate({**ONES, "z": bad})
    with pytest.raises(TypeError):
        RationalFunction.make(p, p + 1).evaluate({**ONES, "a": bad})


def test_rational_inputs_become_canonical_coefficients():
    one = (0, 0, 0, 0)
    assert type(MultiPoly.const(np.int64(3)).terms[one]) is int
    assert type(MultiPoly.const(Fraction(6, 3)).terms[one]) is int
    assert MultiPoly.const(Fraction(1, 2)).terms[one] == Fraction(1, 2)
    assert type(build_named("q1").evaluate({k: np.int64(1) for k in ONES})) is Fraction


@pytest.mark.parametrize(
    "scale,factor,text",
    [(Fraction(1, 3), Fraction(3), "3"), (Fraction(3), Fraction(1, 3), "1/3")],
)
def test_elimination_up_to_factor(monkeypatch, scale, factor, text):
    real = algebra.build_named

    def scaled_final7(name):
        poly = real(name)
        return poly.scaled(scale) if name == "final7" else poly

    monkeypatch.setattr(algebra, "build_named", scaled_final7)
    *_, final_report = solve_X_and_eliminate()
    assert final_report.status == UP_TO_FACTOR and final_report.ok
    assert final_report.factor == factor
    assert type(final_report.factor) is Fraction
    assert final_report.to_json()["factor"] == text


def test_every_verification_recomputes():
    # Nothing is cached across calls, so each `hypmin verify` redoes the
    # whole elimination chain.  A fresh interpreter, so that no earlier
    # test has warmed a cache.
    code = (
        "from hypmin.algebra import MultiPoly, run_all_verifications\n"
        "calls = []\n"
        "real = MultiPoly.__mul__\n"
        "def counting(self, other):\n"
        "    calls.append(None)\n"
        "    return real(self, other)\n"
        "MultiPoly.__mul__ = MultiPoly.__rmul__ = counting\n"
        "run_all_verifications()\n"
        "first = len(calls)\n"
        "run_all_verifications()\n"
        "print(first, len(calls) - first)\n"
    )
    src = Path(algebra.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert first > 0
    assert second == first


canonical_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    max_size=5,
).map(MultiPoly)


def _assert_canonical(p):
    for c in p.terms.values():
        assert c != 0
        if Fraction(c).denominator == 1:
            assert type(c) is int
        else:
            assert type(c) is Fraction and c.denominator > 1
    assert p == MultiPoly(dict(p.terms), p.vars)


@given(
    canonical_polys,
    canonical_polys,
    st.integers(0, 3),
    st.sampled_from(algebra.DEFAULT_VARS),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
def test_ring_results_are_canonical(p, q, n, name, factor):
    _assert_canonical(p)
    for result in (p + q, p - q, -p, p * q, p ** n, p.partial(name), p.substitute(name, q), p.scaled(factor)):
        _assert_canonical(result)
