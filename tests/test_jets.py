"""Taylor jets in the marked points: the series tables, and the jets of
rho and F_hwv against closed forms."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import hyp2f1

from qscreen.coulomb import ChamberPoint, eval_stats, h_weight, rho
from qscreen.correspondence import F_hwv
from qscreen.jet import (Jet, JetPoint, closure, exp_series, generator_terms, log_series,
                        product, tables)
from qscreen.uqsl2 import hwv_pair


def second_order(n):
    return [alpha for alpha in itertools.product(range(3), repeat=n) if sum(alpha) <= 2]


# -- index sets and series -------------------------------------------------


def test_closure_adds_every_lowered_index_and_orders_by_total_order():
    got = closure([(2, 0, 0), (0, 1, 1)])
    assert got == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (2, 0, 0))
    with pytest.raises(ValueError, match="negative"):
        closure([(1, -1)])


def test_jet_point_is_the_plain_point_with_a_request():
    point = JetPoint((0, 1.5), [(0, 2)])
    assert point == (0.0, 1.5) and tuple(point) == (0.0, 1.5)
    assert type(tuple(point)) is tuple
    assert point.index == ((0, 0), (0, 1), (0, 2))
    with pytest.raises(ValueError, match="entries"):
        JetPoint((0.0, 1.0), [(1,)])


def _poly_mul(p, q, index):
    out = {}
    for a, pa in p.items():
        for b, qb in q.items():
            c = tuple(x + y for x, y in zip(a, b))
            if c in index:
                out[c] = out.get(c, 0.0) + pa * qb
    return out


def test_series_match_truncated_polynomial_arithmetic():
    # log of distances linear in two variables, its exponential, and a
    # product, against polynomial arithmetic truncated to the index set
    index = closure([(3, 0), (1, 2), (0, 3)])
    tab = tables(index)
    rng = np.random.default_rng(5)
    coefs = rng.uniform(-1.0, 1.0, 3)
    ratios = rng.uniform(-0.5, 0.5, (3, 2))
    # ratio = inv * (omega - nu) with omega shared by the distances
    omega = {0: 0.25, 1: -0.125}
    work = {}
    E = log_series(tab, (), omega, [(c, 2.0, {a: omega[a] - r[a] / 2.0 for a in (0, 1)})
                                    for c, r in zip(coefs, ratios)], work)
    want = dict.fromkeys(index, 0.0)
    for c, r in zip(coefs, ratios):
        # log(1 + u) with u = r . delta, as a truncated series
        u = {tuple(int(k == v) for k in range(2)): r[tab.active.index(v)] for v in (0, 1)}
        power = {(0, 0): 1.0}
        for k in range(1, 4):
            power = _poly_mul(power, u, index)
            for a, val in power.items():
                want[a] += c * (-1) ** (k + 1) / k * val
    assert np.allclose([E[index.index(a)] for a in index], [want[a] for a in index], atol=1e-15)
    P = exp_series(tab, E, work)
    expo = {(0, 0): 1.0}
    term = {(0, 0): 1.0}
    nil = {a: E[index.index(a)] for a in index if any(a)}
    for k in range(1, 4):
        term = {a: v / k for a, v in _poly_mul(term, nil, index).items()}
        for a, v in term.items():
            expo[a] = expo.get(a, 0.0) + v
    assert np.allclose(P, [expo.get(a, 0.0) for a in index], atol=1e-15)
    J = rng.uniform(-1.0, 1.0, len(index))
    got = product(tab, P, np.stack((J, np.abs(J))), work)
    want = _poly_mul({a: P[i] for i, a in enumerate(index)},
                     {a: J[i] for i, a in enumerate(index)}, set(index))
    assert np.allclose(got[0], [want[a] for a in index], atol=1e-15)
    assert np.all(got[1] >= np.abs(got[0]) - 1e-15)


# node axes (copies, nodes, columns) of the drawn cases
_NODES = (2, 3, 4)


@st.composite
def _series_cases(draw):
    # a closed index set over 1 to 4 points up to order 4, the order of the
    # operator at a d = 4 point, node axes () or _NODES, omega and one to
    # four distances, each rate a number, a column, a row or a full array,
    # some places left out of omega or of a nu
    n = draw(st.integers(1, 4))
    entry = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda a: sum(a) <= 4)
    index = closure(draw(st.lists(entry, min_size=1, max_size=4)))
    shape = draw(st.sampled_from(((), _NODES)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    forms = [()] if not shape else [(), (2, 3, 1), (2, 1, 4), _NODES]

    def value(low, high):
        form = forms[rng.integers(len(forms))]
        v = rng.uniform(low, high, form) * rng.choice((-1.0, 1.0), form)
        return float(v) if not form else v

    places = range(len(tables(index).active))
    omega = {p: value(0.0, 1.0) for p in places if rng.random() < 0.7}
    distances = []
    for _ in range(draw(st.integers(1, 4))):
        nu = {p: value(0.0, 1.0) for p in places if rng.random() < 0.5}
        distances.append((value(0.1, 2.0), value(0.2, 1.0), nu))
    J = rng.uniform(-1.0, 1.0, (len(index),) + shape)
    return index, shape, omega, distances, np.stack((J, np.abs(J) * rng.uniform(1.0, 2.0, J.shape)))


def _truncated_log_exp(index, shape, omega, distances, modulus):
    # sum_d c_d log(1 + inv_d (omega - nu_d) . delta) and its exponential,
    # by polynomial arithmetic truncated to the index set; with modulus,
    # every input and weight by its modulus, which bounds the sums of the
    # moduli of their terms
    tab = tables(index)
    full = lambda v: np.broadcast_to(abs(v) if modulus else v, shape).astype(float)
    unit = {p: tuple(int(k == v) for k in range(len(index[0]))) for p, v in enumerate(tab.active)}
    log = {alpha: full(0.0) for alpha in index}
    for c, inv, nu in distances:
        u = {unit[p]: full(inv) * (full(omega.get(p, 0.0)) - full(nu.get(p, 0.0)) * (-1 if modulus else 1))
             for p in unit}
        power = {index[0]: full(1.0)}
        for k in range(1, sum(index[-1]) + 1):
            power = _poly_mul(power, u, set(index))
            for alpha, v in power.items():
                log[alpha] = log[alpha] + full(c) * ((1.0 if modulus else (-1) ** (k + 1)) / k) * v
    exp, term = {index[0]: full(1.0)}, {index[0]: full(1.0)}
    nil = {alpha: (np.abs(v) if modulus else v) for alpha, v in log.items() if any(alpha)}
    for k in range(1, sum(index[-1]) + 1):
        term = {alpha: v / k for alpha, v in _poly_mul(term, nil, set(index)).items()}
        for alpha, v in term.items():
            exp[alpha] = exp.get(alpha, full(0.0)) + v
    return (np.array([log[alpha] for alpha in index]),
            np.array([exp.get(alpha, full(0.0)) for alpha in index]))


@settings(max_examples=60, deadline=None)
@given(_series_cases(), _series_cases())
def test_series_kernels_match_truncated_polynomial_arithmetic(first, second):
    # log_series, exp_series and product on node arrays against truncated
    # polynomial arithmetic, within 1e-15 of the sums of the moduli of the
    # terms; two cases of different shapes share one work dict, so every
    # scratch array is written over at a new shape
    work = {}
    for index, shape, omega, distances, J in (first, second):
        tab = tables(index)
        log, expo = _truncated_log_exp(index, shape, omega, distances, False)
        log_bound, exp_bound = _truncated_log_exp(index, shape, omega, distances, True)
        E = log_series(tab, shape, omega, distances, work)
        assert E.shape == (len(index),) + shape
        assert np.all(np.abs(E - log) <= 1e-15 * log_bound)
        P = exp_series(tab, E, work)
        assert np.all(np.abs(P - expo) <= 1e-15 * exp_bound)
        got = product(tab, P, J.copy(), work)
        by = lambda a, b: np.array([sum((a[index.index(beta)] * b[index.index(gamma)]
                                         for beta in index for gamma in index
                                         if tuple(x + y for x, y in zip(beta, gamma)) == alpha),
                                        np.zeros(shape)) for alpha in index])
        assert np.all(np.abs(got[0] - by(P, J[0])) <= 1e-15 * by(np.abs(P), np.abs(J[0])))
        assert np.all(np.abs(got[1] - by(np.abs(P), J[1])) <= 1e-15 * by(np.abs(P), J[1]))


# -- the generators L_p on Taylor coefficients -----------------------------


def _put(want, alpha, value):
    # add value to the entry alpha of a form held as {alpha: [value, bound]},
    # the bound summing the moduli of what entered it
    entry = want.setdefault(alpha, [0.0, 0.0])
    entry[0] += value
    entry[1] += abs(value)


def _matches(triples, want):
    # the (point, alpha, factor) triples sum to the form want, entry by entry
    got = {}
    for _, alpha, factor in triples:
        got[alpha] = got.get(alpha, 0.0) + factor
    return set(got) <= set(want) and all(abs(got.get(alpha, 0.0) - value) <= 1e-13 * bound
                                         for alpha, (value, bound) in want.items())


def _raised(beta, i, by):
    return beta[:i] + (beta[i] + by,) + beta[i + 1:]


def _random_index(rng, n, points, top):
    beta = [0] * n
    for _ in range(rng.randint(0, top)):
        beta[rng.choice(points)] += 1
    return tuple(beta)


def test_generators_hold_the_ward_identities():
    # the coefficient beta of L_{-1} f, L_0 f and L_1 f about z over every
    # point, with y = x - z and weights w, is R_k - sum_i y_i^k (beta_i + 1)
    # c_(beta + e_i) for k = 0, 1, 2, where
    #   R_0 = 0,  R_1 = -(|beta| + sum_i w_i) c_beta,
    #   R_2 = -sum_i [2 y_i (beta_i + w_i) c_beta + (beta_i - 1 + 2 w_i) c_(beta - e_i)];
    # at random beta up to order 3, y and w, and about the origin on the grid
    # (0, 1, 2, 4), where a point sits at the centre and no factor may
    # divide by zero
    rng = random.Random(3)
    draws = []
    for _ in range(200):
        n = rng.randint(1, 4)
        draws.append((rng.uniform(-2.0, 2.0), [rng.uniform(-3.0, 3.0) for _ in range(n)]))
    draws += [(0.0, [0.0, 1.0, 2.0, 4.0])] * 20
    for z, x in draws:
        n = len(x)
        beta = _random_index(rng, n, range(n), 3)
        w = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        y = [xi - z for xi in x]
        for k in range(3):
            want = {}
            for i in range(n):
                _put(want, _raised(beta, i, 1), -y[i] ** k * (beta[i] + 1))
                if k == 1:
                    _put(want, beta, -beta[i])
                    _put(want, beta, -w[i])
                if k == 2:
                    _put(want, beta, -2.0 * y[i] * beta[i])
                    _put(want, beta, -2.0 * y[i] * w[i])
                    if beta[i]:
                        _put(want, _raised(beta, i, -1), -(beta[i] - 1))
                        _put(want, _raised(beta, i, -1), -2.0 * w[i])
            assert _matches(generator_terms(k - 1, z, x, w, beta, range(n)), want)


def _series_by_division(y, q, order):
    # Taylor coefficients of (y + t)**q in t up to t**order for an integer
    # q: (y + t)**|q| by polynomial products, then for q < 0 its reciprocal
    # by series division
    poly = [1.0]
    for _ in range(abs(q)):
        poly = [y * a + b for a, b in zip(poly + [0.0], [0.0] + poly)]
    poly += [0.0] * order
    if q >= 0:
        return poly[: order + 1]
    inverse = [1.0 / poly[0]]
    for k in range(1, order + 1):
        inverse.append(-sum(poly[m] * inverse[k - m] for m in range(1, k + 1)) / poly[0])
    return inverse


@pytest.mark.parametrize("p", [-1, -2, -3, -4])
def test_generators_expand_the_binomial_series(p):
    # L_p of the Benoit-Saint-Aubin operators, centred at one marked point
    # and summed over the others: (y + t)**(1+p) d/dt + (1+p) w (y + t)**p
    # multiply the jet through their Taylor series in t
    rng = random.Random(-p)
    x = (-0.7, 0.4, 1.3, 2.9)
    for j in range(4):
        others = [i for i in range(4) if i != j]
        for _ in range(20):
            beta = _random_index(rng, 4, others, 4)
            w = [rng.uniform(-1.0, 1.0) for _ in range(4)]
            want = {}
            for i in others:
                grow = _series_by_division(x[i] - x[j], 1 + p, beta[i])
                scale = _series_by_division(x[i] - x[j], p, beta[i])
                for m in range(beta[i] + 1):
                    _put(want, _raised(beta, i, 1 - m), -grow[m] * (beta[i] - m + 1))
                    _put(want, _raised(beta, i, -m), -(1 + p) * w[i] * scale[m])
            assert _matches(generator_terms(p, x[j], x, w, beta, others), want)


# -- rho against the hypergeometric closed form ----------------------------


def _log_linear(c, a, value):
    # gradient and Hessian of c * log(a . x + b) at a . x + b = value
    a = np.asarray(a, dtype=float)
    return c * a / value, -c * np.outer(a, a) / value**2


def rho_one_variable_derivatives(x, kappa):
    """rho for dims (3, 3, 3), one screening variable on (x_1, x_2), and its
    first and second derivatives in x, exactly.

    With beta = 8/kappa on each point, the integral is
    L^(1 - 2 beta) M^(-beta) B(1 - beta, 1 - beta)
    2F1(beta, 1 - beta; 2 - 2 beta; L / M) for L = x_2 - x_1, M = x_3 - x_1
    (Euler's integral), and d 2F1/dz = (ab/c) 2F1(a+1, b+1; c+1; z).
    """
    beta = 8.0 / kappa
    e = 8.0 / kappa
    a, b, c = beta, 1.0 - beta, 2.0 - 2.0 * beta
    x1, x2, x3 = x
    L, M = x2 - x1, x3 - x1
    z = L / M
    F = hyp2f1(a, b, c, z)
    F1 = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z)
    F2 = a * (a + 1) * b * (b + 1) / (c * (c + 1)) * hyp2f1(a + 2, b + 2, c + 2, z)
    scale = math.gamma(1.0 - beta) ** 2 / math.gamma(2.0 - 2.0 * beta)
    value = (L * (x3 - x2) * M) ** e * L ** (1.0 - 2.0 * beta) * M ** -beta * scale * F
    l, m = np.array([-1.0, 1.0, 0.0]), np.array([-1.0, 0.0, 1.0])
    grad, hess = np.zeros(3), np.zeros((3, 3))
    for coef, vec, at in ((e + 1.0 - 2.0 * beta, l, L), (e, (0.0, -1.0, 1.0), x3 - x2),
                          (e - beta, m, M)):
        g, h = _log_linear(coef, vec, at)
        grad += g
        hess += h
    dz = l / M - L * m / M**2
    ddz = -(np.outer(l, m) + np.outer(m, l)) / M**2 + 2.0 * L * np.outer(m, m) / M**3
    grad += F1 / F * dz
    hess += (F2 / F - (F1 / F) ** 2) * np.outer(dz, dz) + F1 / F * ddz
    return value, value * grad, value * (hess + np.outer(grad, grad))


@pytest.mark.parametrize("z", [0.1, 0.3, 0.6, 0.95])
def test_hypergeometric_series_and_connection(z):
    # Abramowitz-Stegun 15.1.15 and 15.1.6, with c - a - b = 1/2
    t = math.asin(math.sqrt(z))
    want = math.sin(-0.4 * t) / (-0.4 * math.sin(t))
    assert hyp2f1(0.3, 0.7, 1.5, z) == pytest.approx(want, rel=1e-14)
    w = math.sqrt(z)
    assert hyp2f1(0.5, 0.5, 1.5, z) == pytest.approx(math.asin(w) / w, rel=1e-14)


# z = 0.4 sums the series, z = 0.8 goes through the connection formula
@pytest.mark.parametrize("x", [(0.0, 1.0, 2.5), (0.0, 1.6, 2.0)])
def test_rho_jet_matches_hypergeometric_derivatives(x):
    kappa = 10.0
    point = JetPoint(x, second_order(3))
    with eval_stats() as stats:
        jet = rho(ChamberPoint(-1.0, point), (3, 3, 3), (0, 1, 0), kappa, rel_tol=1e-13)
    assert isinstance(jet, Jet)
    value, grad, hess = rho_one_variable_derivatives(x, kappa)
    want = {}
    for alpha in point.index:
        raised = [i for i, k in enumerate(alpha) for _ in range(k)]
        if not raised:
            want[alpha] = value
        elif len(raised) == 1:
            want[alpha] = grad[raised[0]]
        else:
            # a Taylor coefficient: the derivative over alpha!
            i, k = raised
            want[alpha] = hess[i, k] / math.prod(math.factorial(a) for a in alpha)
    for alpha, w in want.items():
        assert jet[alpha] == pytest.approx(w, rel=1e-12, abs=0.0), alpha
        # each estimate covers the true error
        assert abs(jet[alpha] - w) <= max(jet.errs[alpha], 1e-15 * abs(w)), alpha
    assert stats.err_est == jet.errs[(0, 0, 0)]
    # the value is the plain call's, up to the order of summation
    plain = rho(ChamberPoint(-1.0, x), (3, 3, 3), (0, 1, 0), kappa, rel_tol=1e-13)
    assert jet[(0, 0, 0)] == pytest.approx(plain, rel=1e-14)


@pytest.mark.parametrize("d1, d2, m, kappa", [(2, 2, 1, 8.0), (2, 3, 1, 10.0),
                                               (3, 3, 2, 9.1), (3, 3, 1, 10.0)])
def test_two_point_jet_follows_the_power_law(d1, d2, m, kappa):
    # F = const * (x_2 - x_1)^e: d_2 F / F = e / (x_2 - x_1) = -d_1 F / F,
    # and the second derivative is e (e - 1) / (x_2 - x_1)^2 times F
    d = d1 + d2 - 1 - 2 * m
    e = h_weight(d, kappa) - h_weight(d1, kappa) - h_weight(d2, kappa)
    x = (0.3, 1.7)
    jet = F_hwv(hwv_pair(d1, d2, m), JetPoint(x, second_order(2)), kappa)
    gap = x[1] - x[0]
    value = jet[(0, 0)]
    assert jet[(0, 1)] / value == pytest.approx(e / gap, rel=1e-9)
    assert jet[(1, 0)] / value == pytest.approx(-e / gap, rel=1e-9)
    assert 2.0 * jet[(0, 2)] / value == pytest.approx(e * (e - 1.0) / gap**2, rel=1e-9)
    assert jet[(1, 1)] / value == pytest.approx(-e * (e - 1.0) / gap**2, rel=1e-9)
    assert value == pytest.approx(F_hwv(hwv_pair(d1, d2, m), x, kappa), rel=1e-12)
