import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypmin import jets
from hypmin.jets import Jet3, JetDomainError


def test_variable_seed():
    assert jets.Jet3.variable(2.5) == Jet3(2.5, 1.0, 0.0, 0.0)


def test_mul_unit_slopes():
    assert Jet3(2, 1, 0, 0) * Jet3(3, 1, 0, 0) == Jet3(6, 5, 2, 0)


def test_div_constants():
    assert Jet3.constant(1.0) / Jet3.constant(2.0) == Jet3(0.5, 0, 0, 0)


def test_square_of_variable():
    x = Jet3.variable(3.0)
    assert x * x == Jet3(9, 6, 2, 0)


def test_div_by_zero_value_names_operand():
    with pytest.raises(JetDomainError, match="zero value"):
        Jet3.variable(1.0) / Jet3(0.0, 1.0, 0.0, 0.0)


def test_sin_at_zero():
    assert jets.sin(Jet3.variable(0.0)) == Jet3(0, 1, 0, -1)


def test_log_at_one():
    assert jets.log(Jet3.variable(1.0)) == Jet3(0, 1, -1, 2)


def test_log_domain_error():
    with pytest.raises(JetDomainError, match="log"):
        jets.log(Jet3.variable(-1.0))


def test_abs_log_cos_derivatives():
    # analytic: d log|cos t| = -tan t, d2 = -sec^2 t, d3 = -2 sec^2 t tan t
    j = jets.abs_log_cos(Jet3.variable(0.3))
    t = math.tan(0.3)
    sec2 = 1.0 + t * t
    assert j.v0 == pytest.approx(math.log(math.cos(0.3)), abs=1e-15)
    assert j.v1 == pytest.approx(-t, abs=1e-15)
    assert j.v2 == pytest.approx(-sec2, abs=1e-14)
    assert j.v3 == pytest.approx(-2.0 * sec2 * t, abs=1e-14)


def test_abs_log_cos_negative_cos_branch():
    # cos(3) < 0; the fused primitive must not raise
    j = jets.abs_log_cos(Jet3.variable(3.0))
    assert j.v0 == pytest.approx(math.log(abs(math.cos(3.0))))
    assert j.is_finite()


# -- random composite expressions vs central finite differences -------


def _random_expression(rng):
    """A callable t -> Jet3 built from the operation set, domain-safe."""
    c1, c2, c3 = rng.uniform(0.5, 1.5, 3)

    def leaf_choices(x):
        return [
            x,
            jets.sin(c1 * x),
            jets.cos(c2 * x),
            2.0 + jets.sin(x),
            jets.log(2.0 + jets.sin(c3 * x)),
            jets.abs_log_cos(0.4 * x),
        ]

    i, j, k = rng.integers(0, 6, 3)
    op1, op2 = rng.integers(0, 4, 2)

    def combine(a, b, op):
        if op == 0:
            return a + b
        if op == 1:
            return a - b
        if op == 2:
            return a * b
        return a / (2.5 + jets.sin(b))  # keep denominators away from zero

    def expr(t: float) -> Jet3:
        x = Jet3.variable(t)
        leaves = leaf_choices(x)
        return combine(combine(leaves[i], leaves[j], op1), leaves[k], op2)

    return expr


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-4
    checked = 0
    while checked < 100:
        expr = _random_expression(rng)
        t = float(rng.uniform(-1.0, 1.0))
        vals = [expr(t + k * h).v0 for k in (-2, -1, 0, 1, 2)]
        j = expr(t)
        fd1 = (vals[3] - vals[1]) / (2 * h)
        fd2 = (vals[3] - 2 * vals[2] + vals[1]) / h ** 2
        fd3 = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * h ** 3)
        scale1 = max(abs(j.v1), 1.0)
        scale2 = max(abs(j.v2), 1.0)
        scale3 = max(abs(j.v3), 1e3)  # fd3 noise floor ~ eps/h^3 = 1e-4
        assert abs(j.v1 - fd1) / scale1 < 1e-6
        assert abs(j.v2 - fd2) / scale2 < 1e-6
        assert abs(j.v3 - fd3) / scale3 < 1e-5
        checked += 1
    assert checked >= 100


def test_pipeline_composition_bit_for_bit():
    def one_shot(t):
        x = Jet3.variable(t)
        return jets.sin(x * x) + jets.cos(x) / (2.0 + jets.sin(x))

    def staged(t):
        x = Jet3.variable(t)
        u = x * x
        v = jets.sin(u)
        w = jets.cos(x) / (2.0 + jets.sin(x))
        return v + w

    for t in (-1.3, 0.0, 0.7, 2.2):
        assert one_shot(t) == staged(t)


finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
jets_st = st.builds(Jet3, finite_floats, finite_floats, finite_floats, finite_floats)


@given(jets_st, jets_st)
def test_finiteness_closed_under_ring_ops(x, y):
    assert (x + y).is_finite()
    assert (x - y).is_finite()
    assert (x * y).is_finite()


@given(jets_st, jets_st, jets_st)
def test_add_associative_and_commutative(x, y, z):
    lhs = (x + y) + z
    rhs = x + (y + z)
    for a, b in zip((lhs.v0, lhs.v1, lhs.v2, lhs.v3), (rhs.v0, rhs.v1, rhs.v2, rhs.v3)):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-9)
    assert x + y == y + x


@given(jets_st)
def test_mul_div_roundtrip(x):
    d = Jet3(2.0, 0.5, -0.25, 0.125)
    back = (x * d) / d
    for got, want in zip(
        (back.v0, back.v1, back.v2, back.v3), (x.v0, x.v1, x.v2, x.v3)
    ):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
