"""Order-3 truncated Taylor jets (forward-mode AD).

A Jet3 carries the value and first three derivatives of a scalar function
of one variable at a point.  All residual formulas that need third
derivatives are evaluated through this module, so nothing downstream ever
resorts to symbolic differentiation or finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class JetDomainError(ValueError):
    """Raised when a jet operation leaves its mathematical domain."""


@dataclass(frozen=True)
class Jet3:
    """Value and derivatives (v0, v1, v2, v3) of a scalar function at a point.

    Slots are floats or ndarrays that broadcast elementwise, so one jet can
    carry a whole grid of points; a float is the 0-d case."""

    v0: float | np.ndarray
    v1: float | np.ndarray
    v2: float | np.ndarray
    v3: float | np.ndarray

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c) -> "Jet3":
        return Jet3(np.asarray(c, dtype=float), 0.0, 0.0, 0.0)

    @staticmethod
    def variable(t) -> "Jet3":
        """Seed the identity variable at the point(s) t: (t, 1, 0, 0)."""
        return Jet3(np.asarray(t, dtype=float), 1.0, 0.0, 0.0)

    def is_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(v))) for v in (self.v0, self.v1, self.v2, self.v3))

    # -- ring operations (Leibniz through order 3) --------------------

    def __add__(self, other) -> "Jet3":
        o = _coerce(other)
        return Jet3(self.v0 + o.v0, self.v1 + o.v1, self.v2 + o.v2, self.v3 + o.v3)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(-self.v0, -self.v1, -self.v2, -self.v3)

    def __sub__(self, other) -> "Jet3":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Jet3":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Jet3":
        o = _coerce(other)
        return Jet3(
            self.v0 * o.v0,
            self.v1 * o.v0 + self.v0 * o.v1,
            self.v2 * o.v0 + 2.0 * self.v1 * o.v1 + self.v0 * o.v2,
            self.v3 * o.v0 + 3.0 * self.v2 * o.v1 + 3.0 * self.v1 * o.v2 + self.v0 * o.v3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        o = _coerce(other)
        if np.any(o.v0 == 0.0):
            raise JetDomainError(f"division by jet with zero value: {o}")
        # Solve f = w*g slot by slot (Leibniz), w = f/g.
        w0 = self.v0 / o.v0
        w1 = (self.v1 - w0 * o.v1) / o.v0
        w2 = (self.v2 - w0 * o.v2 - 2.0 * w1 * o.v1) / o.v0
        w3 = (self.v3 - w0 * o.v3 - 3.0 * w1 * o.v2 - 3.0 * w2 * o.v1) / o.v0
        return Jet3(w0, w1, w2, w3)

    def __rtruediv__(self, other) -> "Jet3":
        return _coerce(other) / self


def _coerce(x) -> Jet3:
    if isinstance(x, Jet3):
        return x
    return Jet3.constant(x)


def compose(x: Jet3, d0, d1, d2, d3) -> Jet3:
    """Faa di Bruno through order 3: jet of h(x) given h's derivatives at x.v0."""
    u1, u2, u3 = x.v1, x.v2, x.v3
    return Jet3(
        d0,
        d1 * u1,
        d2 * u1 * u1 + d1 * u2,
        d3 * u1 ** 3 + 3.0 * d2 * u1 * u2 + d1 * u3,
    )


def sin(x: Jet3) -> Jet3:
    s, c = np.sin(x.v0), np.cos(x.v0)
    return compose(x, s, c, -s, -c)


def cos(x: Jet3) -> Jet3:
    s, c = np.sin(x.v0), np.cos(x.v0)
    return compose(x, c, -s, -c, s)


def log(x: Jet3) -> Jet3:
    if np.any(x.v0 <= 0.0):
        raise JetDomainError(f"log of non-positive value: {x.v0}")
    u = x.v0
    return compose(x, np.log(u), 1.0 / u, -1.0 / (u * u), 2.0 / (u ** 3))


def abs_log_cos(x: Jet3) -> Jet3:
    """Jet of log|cos t|, fused so the sign of cos never reaches log."""
    c = np.cos(x.v0)
    if np.any(c == 0.0):
        raise JetDomainError(f"log|cos t| at a zero of cos: t = {x.v0}")
    t = np.tan(x.v0)
    sec2 = 1.0 + t * t
    return compose(x, np.log(np.abs(c)), -t, -sec2, -2.0 * sec2 * t)
