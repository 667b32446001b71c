import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
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
    verify_q1_q2_derivation,
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


def test_reports_of_a_run():
    # the reports `hypmin verify` writes, every field pinned
    def exact(ident, detail, factor=None):
        return {"id": ident, "status": EXACT, "detail": detail, "difference-polynomial": None, "factor": factor}

    assert [rep.to_json() for rep in run_all_verifications()] == [
        exact("first-integral", "-4 f' f''^2 + (1+f'^2) f''' vanishes for f'' = a(1+f'^2)^2"),
        exact("factorization-step", "derivative of f''/(1+f'^2)^2 factors with the -4 f' f''^2 numerator"),
        exact("implicit-g", "g'' = a(1+X^2)/(X(3X-2az)) and the b=0 branch polynomial both verify"),
        exact("eqg-substitution", "dividing the minimality RHS by z = X^3/(a(1+X^2)) yields the reduced form"),
        exact("q1-q2-derivation", "eqg3 - 3b*eqg2 == a*q1; b*eqg2 + a*q1 == q2"),
        exact("q3-combination", "X*q1 - z*q2 == q3"),
        exact("x-rational-function", "X = num/den matches the reference closed form after normalization"),
        exact("degree7-elimination", "cleared numerator equals the reference degree-7 polynomial", "1"),
    ]


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
    pts = [{v: Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 20))) for v in "abz"} for _ in range(25)]
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


@pytest.mark.parametrize(
    "corrupt,part",
    [("eqg3", 1), ("q2", 2), ("q1", 1)],
    ids=["eqg3-part-1", "q2-part-2", "q1-both-parts"],
)
def test_q1_q2_derivation_reports_the_first_failing_part(corrupt, part):
    # eqg3 enters only part 1 and q2 only part 2; q1 breaks both
    a, b, _, X = algebra._variables(algebra.DEFAULT_VARS)
    named = {name: build_named(name) for name in ("q1", "q2", "eqg2", "eqg3")}
    named[corrupt] += X
    q1, q2, eqg2, eqg3 = named.values()
    want = (eqg3 - 3 * b * eqg2 - a * q1, b * eqg2 + a * q1 - q2)[part - 1]
    rep = verify_q1_q2_derivation(**named)
    assert rep.status == MISMATCH and not want.is_zero() and rep.difference == want
    assert rep.detail == f"part {part} fails: eqg3 - 3b*eqg2 == a*q1; b*eqg2 + a*q1 == q2"


@pytest.mark.parametrize("part", [1, 2, 3])
def test_implicit_g_reports_the_first_failing_part(part):
    # part 1 (d/dX) fails with the coefficient 4; part 2 (d/dz) with eqg2 + z,
    # which leaves d/dX alone; part 3 (the b=0 branch) with b0branch + X
    a, _, z, X = algebra._variables(algebra.DEFAULT_VARS)
    coefficient, eqg2, b0branch = 3, build_named("eqg2"), build_named("b0branch")
    if part == 1:
        coefficient = 4
    elif part == 2:
        eqg2 += z
    else:
        b0branch += X
    want = (
        eqg2.partial("X") - (coefficient * X ** 2 - 2 * a * z * X),
        eqg2.partial("z") + a * X ** 2 + a,
        eqg2.substitute("X", Fraction(4, 5) * a * z) - b0branch,
    )[part - 1]
    rep = verify_implicit_g(coefficient, eqg2, b0branch)
    assert rep.status == MISMATCH and not want.is_zero() and rep.difference == want
    assert rep.detail == f"part {part} fails: g'' = a(1+X^2)/(X(3X-2az)) and the b=0 branch polynomial both verify"


@pytest.mark.parametrize(
    "change,status,detail,difference,factor",
    [
        (lambda p: p, EXACT, "cleared numerator equals the reference degree-7 polynomial", None, "1"),
        (lambda p: p.scaled(3), UP_TO_FACTOR, "cleared numerator equals the reference up to one overall factor", None, "1/3"),
        (lambda p: p + MultiPoly.var("X"), MISMATCH, "cleared numerator disagrees with the reference polynomial", "-X", None),
    ],
    ids=[EXACT, UP_TO_FACTOR, MISMATCH],
)
def test_degree7_report_of_each_status(change, status, detail, difference, factor):
    *_, rep = solve_X_and_eliminate(final7=change(build_named("final7")))
    assert rep.to_json() == {
        "id": "degree7-elimination",
        "status": status,
        "detail": detail,
        "difference-polynomial": difference,
        "factor": factor,
    }


def test_corrupted_elimination_input():
    bad = build_named("q1") + 1
    *_, final_report = solve_X_and_eliminate(q1=bad)
    assert final_report.status == MISMATCH


@pytest.mark.parametrize(
    "check,name",
    [
        *((verify_q3_combination, name) for name in ("q1", "q2", "q3")),
        *((verify_q1_q2_derivation, name) for name in ("q1", "q2", "eqg2", "eqg3")),
        *((verify_implicit_g, name) for name in ("eqg2", "b0branch")),
        *((solve_X_and_eliminate, name) for name in ("q1", "q3", "final7")),
    ],
)
def test_every_named_input_is_checked(check, name):
    # a corrupted copy handed in for any named polynomial a check reads is caught
    result = check(**{name: build_named(name) + MultiPoly.var("X")})
    reports = result[2:] if isinstance(result, tuple) else (result,)
    assert any(rep.status == MISMATCH for rep in reports)


def test_each_run_builds_each_named_polynomial_once(monkeypatch):
    # once per run_all_verifications call, and again on the next call:
    # nothing is kept across runs
    built = Counter()
    real = algebra.build_named

    def counting(name):
        built[name] += 1
        return real(name)

    monkeypatch.setattr(algebra, "build_named", counting)
    names = ("q1", "q2", "q3", "eqg2", "eqg3", "final7", "b0branch")
    run_all_verifications()
    assert built == Counter(names)
    run_all_verifications()
    assert built == Counter(names * 2)


def test_eqg_substitution_exact():
    assert verify_eqg_substitution().status == EXACT


def test_printed_polynomials_of_the_reports():
    # the text the JSON reports carry for a polynomial
    assert str(build_named("final7")) == (
        "16*a^4*b^3*z^7 + 16*a^3*b^4*z^7 - 16*a^3*b^2*z^5 + 4*a^2*b^5*z^7"
        " + 109*a^2*b^3*z^5 + 108*a*b^4*z^5 - 125*a*b^2*z^3 + 27*b^5*z^5"
    )
    rep = verify_q3_combination(q1=build_named("q1") + MultiPoly.var("X"))
    assert rep.to_json()["difference-polynomial"] == "X^2"


# -- polynomial arithmetic --------------------------------------------


def _repeated_product(p, n):
    out = MultiPoly.const(1, p.vars)
    for _ in range(n):
        out = out * p
    return out


def test_degree_overflow():
    # the same error, message included, as MAX_DEGREE + 1 products
    z = MultiPoly.var("z")
    with pytest.raises(DegreeOverflowError) as by_power:
        z ** 17
    with pytest.raises(DegreeOverflowError) as by_products:
        _repeated_product(z, MAX_DEGREE + 1)
    assert str(by_power.value) == str(by_products.value)


@pytest.mark.parametrize("n", range(MAX_DEGREE + 1))
def test_power_equals_repeated_product(n):
    a, b, z, X = (MultiPoly.var(v) for v in algebra.DEFAULT_VARS)
    p = Fraction(1, 3) * a - 2 * z * X + b + 5 if n <= MAX_DEGREE // 2 else z - Fraction(3, 2)
    power, product = p ** n, _repeated_product(p, n)
    assert power == product
    assert {e: type(c) for e, c in power.terms.items()} == {e: type(c) for e, c in product.terms.items()}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 11, 15, MAX_DEGREE])
def test_power_makes_no_product_by_one(monkeypatch, n):
    # floor(log2 n) squarings and popcount(n) - 1 further products, none with the constant 1
    products = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    z = MultiPoly.var("z")
    assert z ** n == MultiPoly({(0, 0, n, 0): 1})
    assert len(products) == (n.bit_length() - 1 + n.bit_count() - 1 if n else 0)


def test_var_const_zero_match_the_validating_constructor():
    for vars in (algebra.DEFAULT_VARS, algebra.ODE_VARS, ("t",), ["x", "y"]):
        n = len(vars)
        for i, name in enumerate(vars):
            want = MultiPoly({tuple(int(j == i) for j in range(n)): 1}, vars)
            got = MultiPoly.var(name, vars)
            assert got.vars == want.vars == tuple(vars)
            assert got.terms == want.terms
            assert [type(c) for c in got.terms.values()] == [int]
            assert all(type(e) is int for exps in got.terms for e in exps)
        for c in (0, 3, -7, Fraction(6, 3), Fraction(-1, 2), np.int64(4), True):
            want, got = MultiPoly({(0,) * n: c}, vars), MultiPoly.const(c, vars)
            assert got.vars == want.vars and got.terms == want.terms
            assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]
        assert MultiPoly.zero(vars).terms == {} and MultiPoly.zero(vars).vars == tuple(vars)
    with pytest.raises(ValueError):
        MultiPoly.var("q")
    for make in (lambda: MultiPoly.var("a", ()), lambda: MultiPoly.const(1, ()), lambda: MultiPoly.zero(())):
        with pytest.raises(ValueError):
            make()


def test_variable_universe_mismatch():
    a, p = MultiPoly.var("a"), MultiPoly.var("p", algebra.ODE_VARS)
    for op in (lambda: a + p, lambda: a * p, lambda: (a + 1) * p, lambda: a * (p + 1)):
        with pytest.raises(ValueError, match="variable mismatch"):
            op()


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
    with pytest.raises(DegreeOverflowError, match=r"^product exponent \(0, 0, 17, 0\) exceeds 16$"):
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
    with pytest.raises(TypeError):
        bad * a


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
    half_a = Fraction(1, 2) * MultiPoly.var("a")
    for product in (half_a * 2, half_a * MultiPoly.const(2), 2 * half_a):
        assert product.terms == {(1, 0, 0, 0): 1} and type(product.terms[(1, 0, 0, 0)]) is int
    assert type(build_named("q1").evaluate({k: np.int64(1) for k in ONES})) is Fraction


def test_multipoly_is_unhashable():
    # const(3) == 3, so a hash consistent with __eq__ would have to equal hash(3)
    assert MultiPoly.const(3) == 3
    with pytest.raises(TypeError):
        hash(MultiPoly.const(3))


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
    results = (
        p + q, p - q, -p, p * q, p ** n, p.partial(name), p.substitute(name, q), p.scaled(factor),
        p + factor, factor + p, p - factor, factor - p, factor * p,
    )
    for result in results:
        _assert_canonical(result)
        # `_make` keeps the dict it is handed, so no result may hold an
        # operand's; p ** 1 is p itself, which shares nothing
        assert all(result._terms is not operand._terms for operand in (p, q) if result is not operand)


def _substitute_by_products(p, name, value):
    """p with `value` for `name`: the sum over the terms of p of the term's
    monomial without `name` times value ** (its power of `name`)."""
    i = p.vars.index(name)
    out = MultiPoly.zero(p.vars)
    for exps, c in p.terms.items():
        out = out + MultiPoly({exps[:i] + (0,) + exps[i + 1 :]: c}, p.vars) * value ** exps[i]
    return out


@given(
    st.dictionaries(st.tuples(*[st.integers(0, MAX_DEGREE)] * 4), small_fracs, max_size=4).map(MultiPoly),
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * 4), small_fracs, max_size=3).map(MultiPoly),
    st.sampled_from(algebra.DEFAULT_VARS),
)
@example(MultiPoly({(0, 0, 2, 0): 1, (0, 0, 1, 0): 1}), MultiPoly({(0, 0, 0, 9): 1}), "z")
@example(MultiPoly({(0, 0, 1, 15): 1}), MultiPoly({(0, 0, 0, 2): 1}), "z")
def test_substitute_matches_term_by_term_products(p, value, name):
    # the same polynomial, or the same DegreeOverflowError message
    try:
        want = _substitute_by_products(p, name, value)
    except DegreeOverflowError as exc:
        with pytest.raises(DegreeOverflowError) as got:
            p.substitute(name, value)
        assert str(got.value) == str(exc)
    else:
        got = p.substitute(name, value)
        assert got == want
        _assert_canonical(got)


scalars = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    st.integers(-20, 20).map(np.int64),
)


@given(canonical_polys, scalars)
@example(MultiPoly({(1, 0, 2, 0): Fraction(-3, 4)}), np.int64(-4))
@example(MultiPoly({(1, 0, 2, 0): 6}), Fraction(1, 6))
@example(MultiPoly({(1, 0, 2, 0): 6, (0, 0, 0, 1): 1}), 0)
@example(MultiPoly({(1, 0, 2, 0): 6}), 0)
def test_scalar_product_equals_constant_product(p, c):
    want = p * MultiPoly.const(c)
    assert want.is_zero() == (c == 0 or p.is_zero())
    for got in (p * c, c * p, p.scaled(c), MultiPoly.const(c) * p):
        assert got == want
        assert {e: type(v) for e, v in got.terms.items()} == {e: type(v) for e, v in want.terms.items()}


@given(canonical_polys, scalars)
@example(MultiPoly({(0, 0, 0, 0): 3, (0, 0, 0, 1): 1}), 3)
@example(MultiPoly({(1, 0, 2, 0): 6}), 0)
def test_scalar_sums_and_differences_equal_the_constant_polynomials(p, c):
    # a rational on either side of + or - acts as the constant polynomial c
    const = MultiPoly.const(c)
    assert [p + c, c + p, p - c, c - p] == [p + const, const + p, p - const, const - p]


def _first_overflow(p, q):
    """The message of the per-term degree check on p*q, or None."""
    for e1 in p.terms:
        for e2 in q.terms:
            e = tuple(map(add, e1, e2))
            if max(e) > MAX_DEGREE:
                return f"product exponent {e} exceeds {MAX_DEGREE}"
    return None


near_bound_polys = st.dictionaries(
    st.tuples(*[st.integers(0, MAX_DEGREE)] * 4), st.integers(-3, 3), max_size=4
).map(MultiPoly)


@given(near_bound_polys, near_bound_polys)
@example(MultiPoly({(0, 0, 9, 0): 1}), MultiPoly({(0, 0, 8, 0): 1}))
@example(MultiPoly({(2, 16, 0, 1): -3}), MultiPoly({(0, 1, 0, 0): 2}))
@example(MultiPoly({(2, 15, 0, 1): -3}), MultiPoly({(0, 1, 0, 0): 2}))
def test_product_degree_check_matches_per_term_check(p, q):
    message = _first_overflow(p, q)
    if message is None:
        p * q
    else:
        with pytest.raises(DegreeOverflowError) as exc:
            p * q
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "vars,name",
    [
        *((algebra.DEFAULT_VARS, name) for name in algebra.DEFAULT_VARS),
        (("t",), "t"),
        *((tuple(f"v{i}" for i in range(20)), name) for name in ("v0", "v19")),
    ],
    ids=[*algebra.DEFAULT_VARS, "t-alone", "v0-of-20", "v19-of-20"],
)
def test_packed_exponent_fields_never_carry(vars, name):
    # the largest product of two valid monomials overflows in its own field only
    v = MultiPoly.var(name, vars) ** MAX_DEGREE
    want = tuple(2 * MAX_DEGREE if other == name else 0 for other in vars)
    with pytest.raises(DegreeOverflowError, match=f"^{re.escape(f'product exponent {want} exceeds {MAX_DEGREE}')}$"):
        v * v


def _printed_exponents(p):
    """The exponent tuples of the terms of str(p), in printed order."""
    out = []
    for piece in re.split(r" [+-] ", str(p)):
        powers = dict.fromkeys(p.vars, 0)
        for factor in piece.lstrip("-").split("*"):
            name, _, e = factor.partition("^")
            if name in powers:
                powers[name] = int(e or 1)
        out.append(tuple(powers.values()))
    return out


@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, MAX_DEGREE)] * 4),
        st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
        min_size=1,
        max_size=8,
    ).map(MultiPoly)
)
@example(MultiPoly({(MAX_DEGREE, 0, 0, 0): 1, (0, MAX_DEGREE, MAX_DEGREE, MAX_DEGREE): -2, (0, 0, 0, 0): Fraction(1, 2)}))
def test_packed_order_is_lexicographic(p):
    terms = p.terms
    assert p.leading_coefficient() == terms[max(terms)]
    assert _printed_exponents(p) == sorted(terms, reverse=True)


def test_terms_view_is_read_only_and_keyed_by_tuples():
    p = build_named("q1")
    assert list(p.terms) == [(0, 1, 1, 2), (0, 0, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0)]
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0, 0)] = 1
    assert p == build_named("q1")


def test_equality_with_any_rational_scalar():
    three = MultiPoly.const(3)
    assert three == 3
    assert three == MultiPoly.const(np.int64(3))
    assert three == np.int64(3)
    assert MultiPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert three != 3.0
    assert three != np.float64(3.0)
