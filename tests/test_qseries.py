"""Exact checks for the Laurent-polynomial layer and q-combinatorics."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from closed_forms import as_poly, is_poly, poly_product_by_double_loop, stretch
from hypothesis import strategies as st

from qscreen import qseries
from qscreen.qseries import (
    KappaParams,
    LaurentPoly,
    NonGenericKappaError,
    QScalar,
    _dense_divexact,
    eval_q,
    qbinom,
    qfact,
    qint,
    qmultinom,
    shared_denominator,
)

Q = LaurentPoly.q_power


def qs(poly):
    return QScalar.from_poly(poly)


# -- basic values ---------------------------------------------------------


def test_qint_small_values():
    assert qint(0).is_zero()
    assert qint(1) == QScalar.from_int(1)
    assert qint(2) == qs(Q(1) + Q(-1))
    assert qint(-1) == QScalar.from_int(-1)
    assert qint(-3) == -qint(3)


def test_qbinom_example():
    expected = qs(Q(4) + Q(2) + LaurentPoly.const(2) + Q(-2) + Q(-4))
    assert qbinom(4, 2) == expected


def test_qbinom_range_errors():
    with pytest.raises(ValueError):
        qbinom(3, 4)
    with pytest.raises(ValueError):
        qbinom(3, -1)


def test_qmultinom_agrees_with_iterated_binomials():
    assert qmultinom(5, [2, 3]) == qbinom(5, 2)
    assert qmultinom(6, [1, 2, 3]) == qbinom(6, 1) * qbinom(5, 2)
    with pytest.raises(ValueError):
        qmultinom(4, [1, 2])


def test_qbinom_is_laurent_polynomial_up_to_12():
    # the q-Pascal polynomial is the factorial quotient, whose
    # denominators cancel completely
    for n in range(13):
        for k in range(n + 1):
            b = qbinom(n, k)
            assert is_poly(b), (n, k)
            assert b == qfact(n) / (qfact(k) * qfact(n - k)), (n, k)
            # symmetric under q -> 1/q
            p = as_poly(b)
            assert p == LaurentPoly({-e: c for e, c in p.coeffs.items()})


def test_qmultinom_is_the_factorial_quotient():
    for total in range(7):
        for parts in itertools.product(range(total + 1), repeat=3):
            if sum(parts) != total:
                continue
            quotient = qfact(total)
            for p in parts:
                quotient = quotient / qfact(p)
            assert qmultinom(total, parts) == quotient, parts


def test_qbinom_at_q_one_is_binomial():
    for n in range(9):
        for k in range(n + 1):
            assert abs(qbinom(n, k).eval(1.0) - math.comb(n, k)) < 1e-9


# -- product and summation identities -------------------------------------


def test_qint_product_partial_sum_identity():
    # [l][d-l] * (q - 1/q) telescopes to a two-sided geometric sum
    den = Q(1) + Q(-1, -1)
    for d in range(2, 9):
        for l in range(1, d):
            rhs_num = LaurentPoly()
            for u in range(l):
                rhs_num = rhs_num + Q(d - 1 - 2 * u) + Q(-(d - 1 - 2 * u), -1)
            assert qint(l) * qint(d - l) == QScalar(rhs_num, den), (d, l)


def test_inversion_number_generating_function():
    # sum over S_n of q^(-2 inv) equals q^(-n(n-1)/2) [n]!
    for n in range(1, 7):
        lhs = LaurentPoly()
        for sigma in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if sigma[i] > sigma[j])
            lhs = lhs + Q(-2 * inv)
        rhs = qfact(n) * QScalar.q_power(-(n * (n - 1)) // 2)
        assert qs(lhs) == rhs, n


def test_subset_statistic_generating_function():
    # sum over k-subsets {r_1<...<r_k} of q^(-2 sum (r_j - j))
    for n in range(1, 9):
        for k in range(n + 1):
            lhs = LaurentPoly()
            for rs in itertools.combinations(range(1, n + 1), k):
                s = sum(r - j for j, r in enumerate(rs, start=1))
                lhs = lhs + Q(-2 * s)
            rhs = QScalar.q_power(-k * (n - k)) * qbinom(n, k)
            assert qs(lhs) == rhs, (n, k)


def test_alternating_binomial_sum_product_form():
    # sum_m [n over m](-1)^m q^(m b) factorizes; stated in the square root
    # variable u with q = u^2 to keep exponents integral
    for n in range(7):
        for beta in range(-6, 7):
            lhs = QScalar.from_int(0)
            for m in range(n + 1):
                term = qbinom(n, m) * QScalar.q_power(m * beta, (-1) ** m)
                lhs = lhs + term
            lhs_u = stretch(as_poly(lhs), 2)
            rhs_u = LaurentPoly.q_power(n * beta)
            for s in range(n):
                e = n - 1 - beta - 2 * s
                rhs_u = rhs_u * (Q(e) + Q(-e, -1))
            assert lhs_u == rhs_u, (n, beta)


# -- canonical form and field structure -----------------------------------


def test_qscalar_canonical_reduction():
    # common factor (q + 1/q) must cancel exactly
    a = QScalar(as_poly(qint(2)) * as_poly(qint(3)), as_poly(qint(2)))
    assert a == qint(3)
    # denominator normalized to positive constant term, q-powers in numerator:
    # 1/(-2 q^3) becomes (-q^-3)/2
    b = QScalar(LaurentPoly.const(1), Q(3, -2))
    assert b.den.coeffs == {0: 2}
    assert b.num == Q(-3, -1)
    assert (b * QScalar(Q(3, -2))) == QScalar.from_int(1)


def test_qscalar_zero_and_errors():
    with pytest.raises(ZeroDivisionError):
        QScalar(LaurentPoly.const(1), LaurentPoly())
    with pytest.raises(ZeroDivisionError):
        qint(2) / QScalar.from_int(0)
    with pytest.raises(ArithmeticError):
        as_poly(QScalar.from_int(1) / qint(2))


def test_divexact():
    # dense coefficient lists, lowest degree first: [4] = q^3+q+q^-1+q^-3
    # is q^-3 (1 + q^2 + q^4 + q^6), [2] is q^-1 (1 + q^2)
    assert _dense_divexact([1, 0, 1, 0, 1, 0, 1], [1, 0, 1]) == [1, 0, 0, 0, 1]
    with pytest.raises(ArithmeticError, match="inexact"):
        _dense_divexact([1, 0, 1, 0, 1], [1, 0, 1])


small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=4),
)
small_scalars = st.builds(
    lambda n, d: QScalar(n, d),
    small_polys,
    small_polys.filter(lambda p: not p.is_zero()),
)


laurent_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-8, 8), st.integers(-40, 40), max_size=6),
)


def _same(got, want):
    return got == want and hash(got) == hash(want)


@settings(max_examples=150, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys,
       laurent_polys.filter(lambda p: not p.is_zero()))
def test_polynomial_fast_path_matches_general_constructor(a, b, c, den):
    # QScalar(num, den) always reduces by the gcd; the operators on
    # scalars over denominator 1 skip it
    x, y = qs(a), qs(b)
    assert _same(qs(a), QScalar(a, LaurentPoly.const(1)))
    assert _same(x + y, QScalar(a + b))
    assert _same(x - y, QScalar(a - b))
    assert _same(x * y, QScalar(a * b))
    assert _same(-x, QScalar(-a))
    # sums that cancel to zero
    assert _same(x + (-x), QScalar.from_int(0))
    assert _same((x + qs(c)) - (qs(c) + x), QScalar.from_int(0))
    # mixed polynomial and rational operands
    r = QScalar(c, den)
    assert _same(x + r, QScalar(a * den + c, den))
    assert _same(r + x, QScalar(a * den + c, den))
    assert _same(x - r, QScalar(a * den - c, den))
    assert _same(x * r, QScalar(a * c, den))
    assert _same(r * x, QScalar(a * c, den))
    assert _same(-r, QScalar(-c, den))


_nonzero = laurent_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=150, deadline=None)
@given(laurent_polys, _nonzero, _nonzero)
def test_exact_quotient_skips_the_gcd(a, b, c):
    # a quotient that divides exactly is a over denominator 1, with no gcd
    with mock.patch.object(qseries, "_dense_gcd", side_effect=AssertionError("gcd")):
        assert _same(QScalar(a * b, b), qs(a))
    # a common factor cancels whether or not the rest divides
    assert _same(QScalar(a * c, b * c), QScalar(a, b))
    assert QScalar(a, b) * QScalar(b) == QScalar(a)


@settings(max_examples=200, deadline=None)
@given(laurent_polys, laurent_polys, _nonzero, _nonzero)
def test_denominator_one_difference_and_quotient_are_the_general_formulas(a, b, c, f):
    # - of two scalars over 1 is one pass over the numerators, and / goes
    # to the constructor's exact quotient; both equal the formulas over
    # the denominators, which reduce a quotient that is not exact by the gcd
    def general_sub(x, y):
        return QScalar(x.num * y.den - y.num * x.den, x.den * y.den)

    def general_div(x, y):
        return QScalar(x.num * y.den, x.den * y.num)

    x, y, z = qs(a), qs(b), qs(c)
    assert _same(x - y, general_sub(x, y))
    assert _same(x - x, general_sub(x, x))
    assert (x - x).is_zero()
    assert _same(x / z, general_div(x, z))
    # an exact quotient, and one that is exact only after the common
    # factor f cancels
    exact = qs(a * c)
    assert _same(exact / z, general_div(exact, z))
    assert (exact / z).den.is_one()
    assert _same(qs(b * f) / qs(c * f), general_div(qs(b * f), qs(c * f)))
    assert _same(qs(b * f) / qs(c * f), QScalar(b, c))


# the units and coefficients beyond 2^64
_wide = st.one_of(st.sampled_from([1, -1]), st.integers(-(2**80), 2**80))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-12, 12), _wide, max_size=6),
       st.dictionaries(st.integers(-12, 12), _wide.filter(bool), min_size=1, max_size=1),
       st.booleans())
def test_monomial_product_is_the_double_loop(coeffs, term, left):
    # a one-term factor on either side shifts the exponents and scales the
    # coefficients of the other; the product, built without the zero
    # trim, holds no zero coefficient, and neither does a negative
    p, m = LaurentPoly(coeffs), LaurentPoly(term)
    got = m * p if left else p * m
    assert got.coeffs == poly_product_by_double_loop(m, p)
    assert 0 not in got.coeffs.values()
    assert _same(got, LaurentPoly(poly_product_by_double_loop(p, m)))
    assert 0 not in (-got).coeffs.values()
    assert _same(-(-got), got)


@given(st.integers(-20, 20), st.integers(-9, 9))
def test_q_power_is_canonical(e, a):
    assert _same(QScalar.q_power(e, a), QScalar(LaurentPoly.q_power(e, a)))


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars, small_scalars)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars)
def test_eval_is_ring_homomorphism(a, b):
    z = KappaParams(10.0).q_num
    try:
        ea, eb = a.eval(z), b.eval(z)
        es, ep = (a + b).eval(z), (a * b).eval(z)
    except NonGenericKappaError:
        return
    scale = max(1.0, abs(ea) + abs(eb), abs(ea) * abs(eb))
    assert abs(es - (ea + eb)) <= 1e-12 * scale
    assert abs(ep - ea * eb) <= 1e-12 * scale


# -- numeric bridge -------------------------------------------------------


def test_kappa_params():
    p = KappaParams(8.0)
    assert abs(p.q_num - 1j) < 1e-14
    assert abs(abs(p.q_num) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        KappaParams(0.0)
    with pytest.raises(ValueError):
        KappaParams(-4.0)
    # q = exp(4 pi i / kappa) would be the root of unity 1
    with pytest.raises(ValueError, match="finite"):
        KappaParams(math.inf)


def test_eval_q_values():
    p8 = KappaParams(8.0)
    # q = i makes [2] vanish as a value, which is fine for polynomials
    assert abs(eval_q(qint(2), p8)) < 1e-14
    assert abs(eval_q(qint(3), p8) - (-1.0)) < 1e-14
    # but a [2] in a denominator is a non-generic kappa
    with pytest.raises(NonGenericKappaError):
        eval_q(QScalar.from_int(1) / qint(2), p8)
    # generic kappa: [2] = q + 1/q = 2 cos(4 pi / kappa)
    p10 = KappaParams(10.0)
    assert abs(eval_q(qint(2), p10) - 2 * math.cos(4 * math.pi / 10)) < 1e-14


def test_laurent_poly_stretch_and_shift():
    p = Q(2) + Q(0, 3) + Q(-1)
    assert p * LaurentPoly.q_power(2) == Q(4) + Q(2, 3) + Q(1)
    assert stretch(p, 2) == Q(4) + Q(0, 3) + Q(-2)
    assert stretch(p, 1) == p


def test_shared_denominator_splits_only_a_shared_one():
    one = qs(LaurentPoly.const(1))
    den = LaurentPoly({0: 3, 2: 1})
    values = {"a": QScalar(Q(1) + Q(0, 2), den), "b": QScalar(LaurentPoly({-1: 5}), den)}
    numerators, D = shared_denominator(values.items())
    assert D == qs(den) and all(n.den.is_one() for n in numerators.values())
    assert {k: n / D for k, n in numerators.items()} == values
    # Laurent polynomials share D = 1, and dividing by it returns x itself
    laurent = {"a": qint(3), "b": qbinom(4, 2)}
    assert shared_denominator(laurent.items()) == (laurent, one)
    assert all(x / one is x for x in laurent.values())
    # no shared denominator: the values stand, over 1
    mixed = dict(values, c=qint(2))
    assert shared_denominator(mixed.items()) == (mixed, one)
    assert shared_denominator(()) == ({}, one)
