"""Exact multivariate polynomial arithmetic and the identity verifier.

Everything here runs over the rationals: a coefficient is a Python int
when it is integral and a fractions.Fraction otherwise.  No floating point
enters any verification; MultiPoly rejects it at its boundary.  The
default variable universe is (a, b, z, X): the two separation constants,
the height coordinate, and the substitution X = g'.  A few verifications
use auxiliary formal symbols (p = f', s = f'', u = f''') over the same
machinery.

MultiPoly stores each monomial packed into one int (see its docstring):
the product of two monomials is one integer addition, and the degree check
on it one add and one mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from types import MappingProxyType
from typing import Mapping

DEFAULT_VARS = ("a", "b", "z", "X")
MAX_DEGREE = 16


class DegreeOverflowError(ArithmeticError):
    """An exponent exceeded the supported degree bound."""


def _rational(value, what: str) -> int | Fraction:
    """value as a coefficient: an int if integral, else a Fraction.
    Floats, numpy floats included, are not rational: TypeError."""
    # the exact classes first: the Rational ABC check is the slow part
    if value.__class__ is int:
        return value
    if value.__class__ is Fraction:
        return value.numerator if value.denominator == 1 else value
    if not isinstance(value, Rational):
        raise TypeError(f"{what} must be rational, got {type(value).__name__} {value!r}")
    num, den = int(value.numerator), int(value.denominator)
    return num if den == 1 else Fraction(num, den)


def _unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a packed monomial over n variables."""
    return tuple(key.to_bytes(n, "big"))


def _shift(vars: tuple, name: str) -> int:
    """The bit offset of variable `name`'s field in a packed monomial."""
    return 8 * (len(vars) - 1 - vars.index(name))


def _degree_check(n: int) -> tuple[int, int]:
    """(bias, mask) of the degree check on a packed product over n
    variables: 127 - MAX_DEGREE in every field, and every field's top bit."""
    ones = ((1 << 8 * n) - 1) // 255  # 1 in every field
    return (127 - MAX_DEGREE) * ones, ones << 7


# the checks of the universes of up to 16 variables, computed at import;
# a product over a larger universe computes its own
_DEGREE_CHECKS = tuple(_degree_check(n) for n in range(17))


class MultiPoly:
    """Canonical multivariate polynomial with rational coefficients.

    `_terms` maps packed monomials to nonzero coefficients: an int when
    integral, a Fraction otherwise.  A packed monomial is one int with an
    8-bit field per variable, the first variable of `vars` in the highest
    field, so integer order is the lexicographic order of the exponent
    tuples and the product of two monomials is the sum of their ints.  No
    stored exponent exceeds MAX_DEGREE = 16, so a field of a product is at
    most 32 and 8 bits hold it without a carry into the next field.  With
    127 - MAX_DEGREE added to every field, a field's top bit is set exactly
    when it exceeds MAX_DEGREE: the degree check is one add and one mask.

    `terms` is the same map keyed by exponent tuples aligned with `vars`.
    The constructor validates a dict keyed by exponent tuples and packs it,
    and `zero`, `const` and `var` check what theirs can get wrong; they and
    the ring operations build their results through `_make`, which trusts
    it.  Each ring operation fills one fresh dict and `_make` keeps it as
    the result's `_terms`, so a result is built once and shares no dict with
    an operand.  Every sum and difference runs `_plus`, `c - p` for a
    rational c as -p + c; every product of two polynomials, a term of
    `substitute` times a power included, runs the one loop of `__mul__`,
    whose degree check takes its (bias, mask) pair from `_DEGREE_CHECKS`.
    """

    __slots__ = ("vars", "_terms")

    def __init__(self, terms: Mapping[tuple, Rational] | None = None, vars=DEFAULT_VARS):
        self.vars = self._universe(vars)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                c = _rational(coeff, "coefficient")
                if c == 0:
                    continue
                if not all(isinstance(e, Integral) for e in exps):
                    raise TypeError(f"exponents must be integers, got {exps}")
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self.vars):
                    raise ValueError(f"exponent tuple {exps} does not match vars {self.vars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if any(e > MAX_DEGREE for e in exps):
                    raise DegreeOverflowError(f"exponent {exps} exceeds degree bound {MAX_DEGREE}")
                key = int.from_bytes(bytes(exps), "big")  # packed: a byte per exponent
                clean[key] = _rational(clean.get(key, 0) + c, "coefficient")
                if clean[key] == 0:
                    del clean[key]
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict, vars: tuple) -> "MultiPoly":
        """The result of a ring operation on valid polynomials over `vars`,
        from a dict keyed by packed monomials, which it takes over: every
        caller hands it a dict that nothing else holds or changes.  The dict
        is stored as it is unless it holds a zero, which cancellation leaves,
        or a Fraction, which may be integral; then a new dict without the
        zeros and with each integral Fraction as its int is stored.  Nothing
        else is checked."""
        for c in terms.values():
            if not c or c.__class__ is Fraction:
                terms = {
                    e: (c.numerator if c.__class__ is Fraction and c.denominator == 1 else c)
                    for e, c in terms.items()
                    if c
                }
                break
        out = object.__new__(cls)
        out.vars = vars
        out._terms = terms
        return out

    @property
    def terms(self) -> Mapping[tuple, int | Fraction]:
        """The terms keyed by exponent tuples, in storage order: a read-only
        view built on each read."""
        n = len(self.vars)
        return MappingProxyType({_unpack(e, n): c for e, c in self._terms.items()})

    # -- constructors -------------------------------------------------

    @staticmethod
    def _universe(vars) -> tuple:
        vars = tuple(vars)
        if not vars:
            raise ValueError("a polynomial needs at least one variable")
        return vars

    @classmethod
    def zero(cls, vars=DEFAULT_VARS) -> "MultiPoly":
        return cls._make({}, cls._universe(vars))

    @classmethod
    def const(cls, c, vars=DEFAULT_VARS) -> "MultiPoly":
        vars = cls._universe(vars)
        return cls._make({0: _rational(c, "coefficient")}, vars)

    @classmethod
    def var(cls, name: str, vars=DEFAULT_VARS) -> "MultiPoly":
        vars = tuple(vars)
        # ValueError for a name not in vars, an empty vars included
        return cls._make({1 << _shift(vars, name): 1}, vars)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return MultiPoly._make({0: _rational(other, "coefficient")}, self.vars)

    def _plus(self, other, sign: int) -> "MultiPoly":
        """self + sign*other in one pass, for sign 1 or -1; a rational
        `other` goes straight into the constant monomial."""
        terms = dict(self._terms)
        if not isinstance(other, MultiPoly):
            terms[0] = terms.get(0, 0) + sign * _rational(other, "coefficient")
            return MultiPoly._make(terms, self.vars)
        get = terms.get
        for e, c in self._coerce(other)._terms.items():
            terms[e] = get(e, 0) + sign * c
        return MultiPoly._make(terms, self.vars)

    def __add__(self, other) -> "MultiPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make({e: -c for e, c in self._terms.items()}, self.vars)

    def __sub__(self, other) -> "MultiPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        # `other - self` for an `other` that is not a MultiPoly
        return -self + other

    def __mul__(self, other) -> "MultiPoly":
        vars = self.vars
        if not isinstance(other, MultiPoly):
            factor = _rational(other, "coefficient")
            return MultiPoly._make({e: c * factor for e, c in self._terms.items()}, vars)
        if other.vars != vars:
            raise ValueError(f"variable mismatch: {vars} vs {other.vars}")
        n = len(vars)
        try:
            bias, mask = _DEGREE_CHECKS[n]
        except IndexError:
            bias, mask = _degree_check(n)
        terms: dict = {}
        get = terms.get
        pairs = other._terms.items()
        for e1, c1 in self._terms.items():
            for e2, c2 in pairs:
                e = e1 + e2
                if (e + bias) & mask:
                    raise DegreeOverflowError(f"product exponent {_unpack(e, n)} exceeds {MAX_DEGREE}")
                terms[e] = get(e, 0) + c1 * c2
        return MultiPoly._make(terms, vars)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        """self**n by repeated squaring.  No intermediate power has a larger
        exponent than the result, so DegreeOverflowError is raised exactly
        when self**n itself exceeds MAX_DEGREE."""
        if n < 0:
            raise ValueError("negative power")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self._coerce(1) if out is None else out

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):
            other = MultiPoly.const(other, self.vars)
        return isinstance(other, MultiPoly) and self.vars == other.vars and self._terms == other._terms

    def is_zero(self) -> bool:
        return not self._terms

    # -- queries ------------------------------------------------------

    def evaluate(self, point: Mapping[str, Rational]) -> Fraction:
        values = {name: _rational(point[name], f"value of {name}") for name in self.vars if name in point}
        n = len(self.vars)
        total = Fraction(0)
        for key, coeff in self._terms.items():
            term = coeff
            for name, e in zip(self.vars, _unpack(key, n)):
                if e:
                    term *= values[name] ** e
            total += term
        return total

    def partial(self, name: str) -> "MultiPoly":
        shift = _shift(self.vars, name)
        terms: dict = {}
        for key, coeff in self._terms.items():
            power = (key >> shift) & 0xFF
            if power:
                terms[key - (1 << shift)] = coeff * power
        return MultiPoly._make(terms, self.vars)

    def substitute(self, name: str, value: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial for a variable (exact).  Each power of
        `value` is taken once, when a term first needs it, and the products
        of the terms with their powers are summed into one dict."""
        value = self._coerce(value)
        shift = _shift(self.vars, name)
        powers: dict = {}
        terms: dict = {}
        for key, coeff in self._terms.items():
            power = (key >> shift) & 0xFF
            if power not in powers:
                powers[power] = value ** power
            product = MultiPoly._make({key - (power << shift): coeff}, self.vars) * powers[power]
            for e, c in product._terms.items():
                terms[e] = terms.get(e, 0) + c
        return MultiPoly._make(terms, self.vars)

    def leading_coefficient(self) -> int | Fraction:
        """Coefficient of the lexicographically largest exponent tuple, which
        is the largest packed monomial."""
        if not self._terms:
            return 0
        return self._terms[max(self._terms)]

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, primitive coefficients."""
        if not self._terms:
            return Fraction(1)
        from math import gcd

        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def scaled(self, factor) -> "MultiPoly":
        return self * _rational(factor, "factor")

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        n = len(self.vars)
        pieces = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, _unpack(key, n)) if e
            )
            if mono:
                pieces.append(f"{coeff}*{mono}" if abs(coeff) != 1 else ("-" + mono if coeff < 0 else mono))
            else:
                pieces.append(str(coeff))
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")

    __repr__ = __str__


@dataclass(frozen=True)
class RationalFunction:
    """num/den with the denominator normalized primitive, positive leading
    coefficient in lexicographic order."""

    num: MultiPoly
    den: MultiPoly

    @staticmethod
    def make(num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        scale = den.content()
        if den.leading_coefficient() < 0:
            scale = -scale
        return RationalFunction(num.scaled(1 / scale), den.scaled(1 / scale))

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {dict(point)}")
        return self.num.evaluate(point) / d


# -- named polynomials -------------------------------------------------


def _variables(universe: tuple) -> list[MultiPoly]:
    """The variables of a universe, in its order, as polynomials over it."""
    return [MultiPoly.var(v, universe) for v in universe]


def build_named(name: str) -> MultiPoly:
    """The reference polynomials of the type-II elimination chain."""
    a, b, z, X = _variables(DEFAULT_VARS)
    if name == "q1":
        return b * z * X ** 2 - 5 * X + 4 * a * z + 3 * b * z
    if name == "q2":
        return b * X ** 3 - 5 * a * X + 4 * a ** 2 * z + 2 * a * b * z
    if name == "q3":
        return -5 * X ** 2 + 3 * z * (3 * a + b) * X - 2 * a * z ** 2 * (2 * a + b)
    if name == "eqg2":
        return X ** 3 - a * z * X ** 2 - a * z
    if name == "eqg3":
        return 3 * b * X ** 3 - 2 * a * b * z * X ** 2 - 5 * a * X + 4 * a ** 2 * z
    if name == "final7":
        return (
            4 * a ** 2 * b ** 3 * (2 * a + b) ** 2 * z ** 7
            - b ** 2 * (16 * a ** 3 - 109 * a ** 2 * b - 108 * a * b ** 2 - 27 * b ** 3) * z ** 5
            - 125 * a * b ** 2 * z ** 3
        )
    if name == "b0branch":
        return MultiPoly.const(Fraction(-16, 125)) * a ** 3 * z ** 3 - a * z
    raise KeyError(f"unknown named polynomial: {name}")


# -- proof reports -----------------------------------------------------

EXACT = "exact-match"
UP_TO_FACTOR = "match-up-to-factor"
MISMATCH = "mismatch"
_DEGREE7_DETAILS = {
    EXACT: "cleared numerator equals the reference degree-7 polynomial",
    UP_TO_FACTOR: "cleared numerator equals the reference up to one overall factor",
    MISMATCH: "cleared numerator disagrees with the reference polynomial",
}


@dataclass(frozen=True)
class ProofReport:
    id: str
    status: str
    detail: str
    difference: MultiPoly | None = None
    factor: Fraction | None = None

    @property
    def ok(self) -> bool:
        return self.status in (EXACT, UP_TO_FACTOR)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "detail": self.detail,
            "difference-polynomial": str(self.difference) if self.difference is not None else None,
            "factor": str(self.factor) if self.factor is not None else None,
        }


def _named(**given: MultiPoly | None) -> list[MultiPoly]:
    """The given named polynomials in order, with build_named(name) in place
    of each one that is None.  A check takes the ones it reads this way, so
    that run_all_verifications builds each once and a caller can hand in a
    corrupted one."""
    return [build_named(name) if poly is None else poly for name, poly in given.items()]


def _identity_report(ident: str, detail: str, *differences: MultiPoly) -> ProofReport:
    """EXACT when every difference (a part's left side minus its right) is
    zero; else MISMATCH with the first nonzero one, whose detail names that
    part's 1-based index and the identity's statement, `detail`."""
    for i, diff in enumerate(differences, 1):
        if not diff.is_zero():
            return ProofReport(ident, MISMATCH, f"part {i} fails: {detail}", difference=diff)
    return ProofReport(ident, EXACT, detail)


def verify_q3_combination(
    q1: MultiPoly | None = None, q2: MultiPoly | None = None, q3: MultiPoly | None = None
) -> ProofReport:
    """X*q1 - z*q2 = q3, the linear combination producing the third quadric."""
    q1, q2, q3 = _named(q1=q1, q2=q2, q3=q3)
    _, _, z, X = _variables(DEFAULT_VARS)
    return _identity_report("q3-combination", "X*q1 - z*q2 == q3", X * q1 - z * q2 - q3)


def verify_q1_q2_derivation(
    q1: MultiPoly | None = None,
    q2: MultiPoly | None = None,
    eqg2: MultiPoly | None = None,
    eqg3: MultiPoly | None = None,
) -> ProofReport:
    """q1 and q2 arise from the cubic constraint and its companion:
    eqg3 - 3b*eqg2 = a*q1 and b*eqg2 + a*q1 = q2."""
    q1, q2, eqg2, eqg3 = _named(q1=q1, q2=q2, eqg2=eqg2, eqg3=eqg3)
    a, b, _, _ = _variables(DEFAULT_VARS)
    statement = "eqg3 - 3b*eqg2 == a*q1; b*eqg2 + a*q1 == q2"
    return _identity_report("q1-q2-derivation", statement, eqg3 - 3 * b * eqg2 - a * q1, b * eqg2 + a * q1 - q2)


def solve_X_and_eliminate(
    q1: MultiPoly | None = None,
    q3: MultiPoly | None = None,
    final7: MultiPoly | None = None,
) -> tuple[RationalFunction, MultiPoly, ProofReport, ProofReport]:
    """Eliminate X^2 between 5*q1 and (bz)*q3 to solve for X, then substitute
    back into q1 and compare the cleared numerator with the reference degree-7 polynomial.

    Returns (X rational function, computed numerator polynomial, report on the
    X expression, report on the degree-7 comparison).  The c with computed ==
    c*final7 sets the latter's status: EXACT for c = 1, UP_TO_FACTOR for
    another c, MISMATCH with the difference when there is none.
    """
    q1, q3, final7 = _named(q1=q1, q3=q3, final7=final7)
    a, b, z, X = _variables(DEFAULT_VARS)
    comb = 5 * q1 + b * z * q3  # linear in X by construction
    if not comb.partial("X").partial("X").is_zero():
        raise ArithmeticError("elimination did not cancel the X^2 term")
    D = comb.partial("X")
    N = -comb.substitute("X", MultiPoly.zero())
    x_expr = RationalFunction.make(N, D)

    expected_num = (
        -20 * a - 15 * b + 4 * a ** 2 * b * z ** 2 + 2 * a * b ** 2 * z ** 2
    ) * z
    expected_den = (9 * a + 3 * b) * b * z ** 2 - 25
    expected_x = RationalFunction.make(expected_num, expected_den)
    if x_expr.num == expected_x.num and x_expr.den == expected_x.den:
        x_report = ProofReport("x-rational-function", EXACT, "X = num/den matches the reference closed form after normalization")
    else:
        x_report = ProofReport(
            "x-rational-function",
            MISMATCH,
            "computed X differs from the reference closed form",
            difference=x_expr.num * expected_x.den - expected_x.num * x_expr.den,
        )

    # q1 with X = N/D, denominators cleared by D^2:
    computed = b * z * x_expr.num ** 2 - 5 * x_expr.num * x_expr.den + (4 * a * z + 3 * b * z) * x_expr.den ** 2
    factor = Fraction(1) if computed == final7 else _constant_ratio(computed, final7)
    status = MISMATCH if factor is None else EXACT if factor == 1 else UP_TO_FACTOR
    difference = computed - final7 if factor is None else None
    final_report = ProofReport("degree7-elimination", status, _DEGREE7_DETAILS[status], difference, factor)
    return x_expr, computed, x_report, final_report


def _constant_ratio(p: MultiPoly, q: MultiPoly) -> Fraction | None:
    """Return c with p == c*q, or None."""
    if p.is_zero() or q.is_zero():
        return None
    if p._terms.keys() != q._terms.keys():
        return None
    ratios = {Fraction(p._terms[e], q._terms[e]) for e in q._terms}
    if len(ratios) == 1:
        return ratios.pop()
    return None


# Auxiliary universe for ODE-side identities: p = f', s = f'', u = f''',
# alongside the separation constant a.
ODE_VARS = ("a", "p", "s", "u")


def verify_first_integral(exponent: int = 2) -> ProofReport:
    """With f'' = a(1+p^2)^exponent (the first integral has exponent 2) and
    f''' its formal x-derivative, check -4 f' f''^2 + (1+f'^2) f''' == 0."""
    a, p, s, u = _variables(ODE_VARS)
    one_p2 = 1 + p ** 2
    fpp = a * one_p2 ** exponent
    # f''' = d/dx f'' = (d/dp f'') * f''
    fppp = (2 * exponent) * a * p * one_p2 ** (exponent - 1) * fpp
    lhs = -4 * p * fpp ** 2 + one_p2 * fppp
    return _identity_report("first-integral", "-4 f' f''^2 + (1+f'^2) f''' vanishes for f'' = a(1+f'^2)^2", lhs)


def verify_factorization_step(coefficient: int = 4) -> ProofReport:
    """d/dx [f''/(1+f'^2)^2] = (f'''(1+f'^2) - 4 f' f''^2) / (1+f'^2)^3,
    verified as an exact rational-function identity (cross-multiplied)."""
    a, p, s, u = _variables(ODE_VARS)
    one_p2 = 1 + p ** 2
    # quotient rule: num = u*(1+p^2)^2 - s * 4 p s (1+p^2), den = (1+p^2)^4
    lhs_num = u * one_p2 ** 2 - 4 * p * s ** 2 * one_p2
    lhs_den = one_p2 ** 4
    rhs_num = u * one_p2 - coefficient * p * s ** 2
    rhs_den = one_p2 ** 3
    return _identity_report(
        "factorization-step",
        "derivative of f''/(1+f'^2)^2 factors with the -4 f' f''^2 numerator",
        lhs_num * rhs_den - rhs_num * lhs_den,
    )


def verify_implicit_g(
    coefficient: int = 3, eqg2: MultiPoly | None = None, b0branch: MultiPoly | None = None
) -> ProofReport:
    """Implicit differentiation of X^3 - a z X^2 - a z = 0 in z.

    Checks dX(eqg2) == 3X^2 - 2azX and dz(eqg2) == -(aX^2 + a), so that
    g'' = a(1+X^2) / (X(3X - 2az)) follows as -dz/dX; plus the b=0 branch:
    X = 4az/5 substituted into the cubic gives exactly -16/125 a^3 z^3 - az.
    """
    eqg2, b0branch = _named(eqg2=eqg2, b0branch=b0branch)
    a, b, z, X = _variables(DEFAULT_VARS)
    return _identity_report(
        "implicit-g",
        "g'' = a(1+X^2)/(X(3X-2az)) and the b=0 branch polynomial both verify",
        eqg2.partial("X") - (coefficient * X ** 2 - 2 * a * z * X),
        eqg2.partial("z") - (-(a * X ** 2 + a)),
        eqg2.substitute("X", MultiPoly.const(Fraction(4, 5)) * a * z) - b0branch,
    )


# Universe for the reduction of the minimality equation after substituting
# the g-cubic: p = f', X = g', with a the separation constant.
RED_VARS = ("a", "b", "p", "X")


def verify_eqg_substitution() -> ProofReport:
    """The step that trades z for g' in the type-II chain.

    With az = X^3/(1+X^2), dividing
      2 X (1+p^2+X^2) / ((1+p^2)(1+X^2))
    by z must give 2a (1+p^2+X^2) / ((1+p^2) X^2) exactly.
    """
    a, _, p, X = _variables(RED_VARS)
    one_p2 = 1 + p ** 2
    one_X2 = 1 + X ** 2
    wsq = 1 + p ** 2 + X ** 2
    # z = X^3 / (a (1+X^2)); equality of the two right-hand sides
    # cross-multiplied:
    lhs = (2 * X * wsq) * (a * one_X2) * (one_p2 * X ** 2)
    rhs = (2 * a * wsq) * (one_p2 * one_X2) * (X ** 3)
    statement = "dividing the minimality RHS by z = X^3/(a(1+X^2)) yields the reduced form"
    return _identity_report("eqg-substitution", statement, lhs - rhs)


def run_all_verifications() -> list[ProofReport]:
    """The full exact identity suite, in the order of the elimination chain.
    Each named polynomial is built once per call and handed to the checks
    that read it."""
    q1, q2, q3, eqg2, eqg3, final7, b0branch = map(
        build_named, ("q1", "q2", "q3", "eqg2", "eqg3", "final7", "b0branch")
    )
    reports = [
        verify_first_integral(),
        verify_factorization_step(),
        verify_implicit_g(eqg2=eqg2, b0branch=b0branch),
        verify_eqg_substitution(),
        verify_q1_q2_derivation(q1, q2, eqg2, eqg3),
        verify_q3_combination(q1, q2, q3),
    ]
    _, _, x_report, final_report = solve_X_and_eliminate(q1, q3, final7)
    reports.extend([x_report, final_report])
    return reports
