"""Exact checks for the Laurent-polynomial layer and q-combinatorics."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # denominators must cancel completely
    for n in range(13):
        for k in range(n + 1):
            b = qbinom(n, k)
            assert b.is_poly(), (n, k)
            # symmetric under q -> 1/q
            p = b.as_poly()
            assert p == LaurentPoly({-e: c for e, c in p.coeffs.items()})


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
            lhs_u = lhs.as_poly().stretch(2)
            rhs_u = LaurentPoly.q_power(n * beta)
            for s in range(n):
                e = n - 1 - beta - 2 * s
                rhs_u = rhs_u * (Q(e) + Q(-e, -1))
            assert lhs_u == rhs_u, (n, beta)


# -- canonical form and field structure -----------------------------------


def test_qscalar_canonical_reduction():
    # common factor (q + 1/q) must cancel exactly
    a = QScalar(qint(2).as_poly() * qint(3).as_poly(), qint(2).as_poly())
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
        (QScalar.from_int(1) / qint(2)).as_poly()


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
    assert p.stretch(2) == Q(4) + Q(0, 3) + Q(-2)
    assert p.stretch(1) == p
