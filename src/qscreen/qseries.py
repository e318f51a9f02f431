"""Exact Laurent-polynomial arithmetic in the deformation variable q.

Every coefficient appearing in the representation-theoretic layer is a
rational function of q with integer coefficients.  This module provides the
two value types (LaurentPoly, QScalar), the q-combinatorial functions built
from them, and the bridge to numeric evaluation at q = exp(4*pi*i/kappa).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from math import gcd


class NonGenericKappaError(ArithmeticError):
    """Denominator vanishes at the requested q; kappa is not generic."""


def _dict_trim(c: dict) -> dict:
    return {e: v for e, v in c.items() if v != 0}


class LaurentPoly:
    """Laurent polynomial in q with arbitrary-precision integer coefficients.

    Stored as a map exponent -> coefficient with no zero entries.  Immutable
    by convention: no method mutates self.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = _dict_trim(coeffs or {})

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, a: int) -> "LaurentPoly":
        return cls({0: a})

    @classmethod
    def q_power(cls, e: int, a: int = 1) -> "LaurentPoly":
        """The monomial a*q^e."""
        return cls({e: a})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def stretch(self, m: int) -> "LaurentPoly":
        """Substitute q -> q^m (exponents multiplied by m)."""
        return LaurentPoly({k * m: v for k, v in self.coeffs.items()})

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self.coeffs)
        for e, v in other.coeffs.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict[int, int] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    def scale(self, a: int) -> "LaurentPoly":
        return LaurentPoly({e: a * v for e, v in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a LaurentPoly (use QScalar)")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    # -- evaluation and display ---------------------------------------

    def eval(self, z: complex) -> complex:
        """Horner evaluation at a nonzero complex number."""
        if not self.coeffs:
            return 0.0 + 0.0j
        lo, hi = self.min_exp(), self.max_exp()
        acc = 0.0 + 0.0j
        for e in range(hi, lo - 1, -1):
            acc = acc * z + self.coeffs.get(e, 0)
        return acc * z**lo

    def coeff_scale(self) -> float:
        return float(sum(abs(v) for v in self.coeffs.values()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            v = self.coeffs[e]
            if e == 0:
                term = str(abs(v))
            else:
                qe = "q" if e == 1 else f"q^{e}"
                term = qe if abs(v) == 1 else f"{abs(v)}*{qe}"
            parts.append(("-" if v < 0 else "+") + term)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)


# -- dense helpers for gcd / exact division -------------------------------
# Ordinary (non-Laurent) polynomials as coefficient lists, lowest degree
# first, used only inside normalization.


def _to_dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """Split p = q^v * P(q) with P(0) != 0; returns (v, coeffs of P)."""
    v = p.min_exp()
    deg = p.max_exp() - v
    dense = [0] * (deg + 1)
    for e, c in p.coeffs.items():
        dense[e - v] = c
    return v, dense


def _from_dense(v: int, dense: list[int]) -> LaurentPoly:
    return LaurentPoly({v + i: c for i, c in enumerate(dense) if c != 0})


def _dense_trim(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _dense_content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g


def _dense_primitive(a: list[int]) -> list[int]:
    g = _dense_content(a)
    if g == 0:
        return []
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _dense_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), coefficients stay integral."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [lb * c for c in a]
        for i in range(db + 1):
            a[da - db + i] -= la * b[i]
        a = _dense_trim(a)
    return a

def _dense_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z via the primitive pseudo-remainder sequence."""
    a, b = _dense_primitive(_dense_trim(a)), _dense_primitive(_dense_trim(b))
    if not a:
        return b
    if not b:
        return a
    while b:
        r = _dense_pseudo_rem(a, b)
        a, b = b, _dense_primitive(r)
    return _dense_primitive(a)


def _dense_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact polynomial division a / b; raises if not exact."""
    a = _dense_trim(a[:])
    b = _dense_trim(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    q = [0] * (len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        la, lb = a[-1], b[-1]
        if la % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        c = la // lb
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        a = _dense_trim(a)
    if a:
        raise ArithmeticError("inexact polynomial division")
    return q


class QScalar:
    """Quotient of two Laurent polynomials in canonical reduced form.

    Canonical form: numerator and denominator share no polynomial factor and
    no integer content; the denominator is an ordinary polynomial with
    positive nonzero constant coefficient (all q-power freedom is pushed into
    the numerator).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("QScalar with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        vn, dn = _to_dense(num)
        vd, dd = _to_dense(den)
        g = _dense_gcd(dn, dd)
        if len(g) > 1:
            dn = _dense_divexact(dn, g)
            dd = _dense_divexact(dd, g)
        ci = gcd(_dense_content(dn), _dense_content(dd))
        if dd[0] < 0:
            ci = -ci
        dn = [c // ci for c in dn]
        dd = [c // ci for c in dd]
        self.num = _from_dense(vn - vd, dn)
        self.den = _from_dense(0, dd)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, a: int) -> "QScalar":
        return cls(LaurentPoly.const(a))

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "QScalar":
        return cls(p)

    @classmethod
    def q_power(cls, e: int, a: int = 1) -> "QScalar":
        return cls(LaurentPoly.q_power(e, a))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> LaurentPoly:
        if not self.den.is_one():
            raise ArithmeticError(f"not a Laurent polynomial: {self!r}")
        return self.num

    # -- field arithmetic ---------------------------------------------

    def __add__(self, other: "QScalar") -> "QScalar":
        return QScalar(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "QScalar":
        return QScalar(-self.num, self.den)

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __mul__(self, other: "QScalar") -> "QScalar":
        return QScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "QScalar") -> "QScalar":
        if other.is_zero():
            raise ZeroDivisionError("QScalar division by zero")
        return QScalar(self.num * other.den, self.den * other.num)

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero QScalar")
        return QScalar(self.den, self.num)

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return QScalar(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- evaluation and display ---------------------------------------

    def eval(self, z: complex) -> complex:
        dv = self.den.eval(z)
        scale = self.den.coeff_scale()
        if abs(dv) < 1e-12 * scale:
            raise NonGenericKappaError(
                f"denominator {self.den!r} vanishes at q={z:.6g} "
                "(non-generic kappa)")
        return self.num.eval(z) / dv

    def __repr__(self) -> str:
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


Q_ZERO = QScalar.from_int(0)
Q_ONE = QScalar.from_int(1)


@dataclass(frozen=True)
class KappaParams:
    """SLE-type parameter kappa > 0 with the derived numeric q on the unit
    circle, q = exp(4*pi*i/kappa)."""

    kappa: float
    q_num: complex = field(init=False)

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        object.__setattr__(self, "q_num",
                           cmath.exp(4j * math.pi / self.kappa))


# -- q-combinatorics ------------------------------------------------------


def qint(m: int) -> QScalar:
    """q-integer [m] = (q^m - q^-m)/(q - q^-1) = q^{m-1} + q^{m-3} + ... +
    q^{1-m}; odd in m."""
    if m < 0:
        return -qint(-m)
    return QScalar(LaurentPoly({m - 1 - 2 * j: 1 for j in range(m)}))


def qfact(n: int) -> QScalar:
    """q-factorial [n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError(f"qfact of negative {n}")
    out = Q_ONE
    for m in range(2, n + 1):
        out = out * qint(m)
    return out


def qbinom(n: int, k: int) -> QScalar:
    """q-binomial [n over k]; always reduces to a Laurent polynomial."""
    if not 0 <= k <= n:
        raise ValueError(f"qbinom({n},{k}) out of range")
    return qfact(n) / (qfact(k) * qfact(n - k))


def qmultinom(total: int, parts) -> QScalar:
    """q-multinomial [total; parts] = [total]! / prod [part]!."""
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != total:
        raise ValueError(f"qmultinom parts {parts} do not sum to {total}")
    out = qfact(total)
    for p in parts:
        out = out / qfact(p)
    return out


def eval_q(s: QScalar | LaurentPoly, params: KappaParams) -> complex:
    """Evaluate an exact coefficient at the numeric q of the given kappa."""
    return s.eval(params.q_num)
