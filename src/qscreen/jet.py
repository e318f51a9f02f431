"""Truncated Taylor jets of functions of the marked points.

The jet of f at x over an index set holds the Taylor coefficients
f_a = (d^a f)(x) / a! for the multi-indices a of the set.  Index sets are
closed under lowering any entry, so sums, products and exponentials of
jets truncate to them exactly.  JetPoint asks an evaluator for a jet; Jet
is what an evaluator that differentiates returns, every coefficient with
an absolute error estimate.

The table-driven series operations act on arrays whose first axis runs
over an index set and whose other axes, if any, over quadrature nodes.
They write their results, and the terms they gather, into the scratch
arrays of a dict work (_scratch), which the quadrature keeps for all its
plans, so a result is a view that the next call with the same work
writes over.  Every order of exp_series and product contracts its terms
against a dense weight matrix of the tables; log_series builds each
distance's monomials along the tables' chain, as temporaries of the
shape the distance's operands broadcast to.

generator_terms is the one rule for the first order operators
L_p = -sum_{i in S} ((x_i - z)^(1+p) d/dx_i + (1+p) w_i (x_i - z)^p) on
Taylor coefficients.  The Benoit-Saint-Aubin operators (pde.apply_bsa)
compose their L_{-n} about a marked point; the three global Ward checks
(pde.translation_check, euler_check, special_conformal_check) are
L_{-1}, L_0 and L_1 about the origin; and the F_hwv fill
(correspondence._ward_jet) solves L_{-1}, L_0 and L_1 about mean(x) for
the coefficients of its held points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


def closure(indices):
    """The multi-indices with every multi-index reached from them by
    lowering entries, ordered by total order (the zero index first)."""
    seen = set()
    stack = [tuple(int(a) for a in alpha) for alpha in indices]
    while stack:
        alpha = stack.pop()
        if alpha in seen:
            continue
        if any(a < 0 for a in alpha):
            raise ValueError(f"multi-index {alpha} has a negative entry")
        seen.add(alpha)
        stack.extend(alpha[:i] + (a - 1,) + alpha[i + 1:] for i, a in enumerate(alpha) if a)
    if not seen:
        raise ValueError("a jet needs at least one multi-index")
    return tuple(sorted(seen, key=lambda alpha: (sum(alpha), alpha)))


def _order(n, points, k):
    # the multi-indices over n points of total order k that raise only
    # the given points
    return [tuple(combo.count(i) for i in range(n))
            for combo in combinations_with_replacement(points, k)]


def generator_terms(p, z, x, weights, beta, points):
    """The coefficient beta of the Taylor jet at x of L_p f, where

        L_p = -sum_{i in points} ((x_i - z)**(1+p) d/dx_i + (1+p) w_i (x_i - z)**p)

    with the centre z held fixed and w the weights, as triples (i, alpha,
    factor) for the points i: that coefficient is the sum of factor * f_alpha
    over them, f_alpha the Taylor coefficients of f at x.  Each product
    takes the binomial series of its coefficient in x_i; for p >= -1 the
    series stop at order 1+p and p, so x_i = z is allowed there.  A term
    whose binomial coefficient or weight vanishes gives no triple.
    """
    triples = []
    for i in points:
        y = x[i] - z
        # binom(1+p, m) and (1+p) w_i binom(p, m) at m = 0, 1, ..
        grow, scale = 1.0, (1 + p) * weights[i]
        for m in range(beta[i] + 1):
            low = beta[i] - m
            if grow:
                triples.append((i, beta[:i] + (low + 1,) + beta[i + 1:],
                                -grow * (low + 1) * y ** (1 + p - m)))
            if scale:
                triples.append((i, beta[:i] + (low,) + beta[i + 1:], -scale * y ** (p - m)))
            grow *= (1 + p - m) / (m + 1)
            scale *= (p - m) / (m + 1)
    return triples


class JetPoint(tuple):
    """Marked points at which an evaluator is asked for the Taylor jet of
    its value over `index`, the closure of the multi-indices given.

    It is a tuple of the coordinates; tuple(point) drops the request.
    """

    def __new__(cls, x, reads):
        point = super().__new__(cls, (float(xi) for xi in x))
        index = closure(reads)
        if any(len(alpha) != len(point) for alpha in index):
            raise ValueError(f"multi-indices must have {len(point)} entries")
        point.index = index
        return point


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients of a function at one point, by multi-index,
    each with an absolute error estimate in errs."""

    index: tuple
    coeffs: dict
    errs: dict

    def __getitem__(self, alpha):
        return self.coeffs[alpha]


@dataclass(frozen=True)
class Terms:
    """The terms A[a_j] * B[b_j] of the coefficients of one total order,
    at rows, sorted by row, and dense, the (rows x terms) weight matrix
    the rows contract them against.  Every row reads every term of its
    order, most at weight 0, so a non-finite term, which makes the sums
    it enters non-finite anyway, reaches every row of its order."""

    rows: slice
    a: np.ndarray
    b: np.ndarray
    dense: np.ndarray


@dataclass(frozen=True)
class Tables:
    """Index bookkeeping of the series operations on one index set.

    active lists the variables some multi-index raises, in the order of
    the first-order multi-indices, which sit at positions 1 to
    len(active), place maps each of them to its place in active, and
    raised holds the places of those that a multi-index of order two or
    more raises.  chain lists (position, parent, place) for each position
    of order two or more in turn: its parent is the multi-index less one
    unit in its first raised variable, whose place links the two
    (Neidinger's table form).  log_weight is the coefficient
    (-1)^(k+1)/k times the multinomial of the logarithm's series at every
    position past the first order.  exp holds the Terms of each order
    from two up, lowest first, and product those of every order, highest
    first.
    """

    index: tuple
    active: tuple
    place: dict
    raised: tuple
    chain: tuple
    log_weight: np.ndarray
    exp: tuple
    product: tuple

    @property
    def size(self):
        return len(self.index)


def _terms(rules, rows):
    # the Terms of the (target, a, b, weight) rules of the targets at rows
    rules.sort(key=lambda rule: rule[0])
    targets, a, b, weight = (np.array(col) for col in zip(*rules))
    dense = np.zeros((rows.stop - rows.start, len(targets)))
    dense[targets - rows.start, np.arange(len(targets))] = weight
    return Terms(rows, a.astype(np.intp), b.astype(np.intp), dense)


@lru_cache(maxsize=None)
def tables(index) -> Tables:
    """Tables of the closed index set `index` (as closure returns it)."""
    pos = {alpha: p for p, alpha in enumerate(index)}
    # in the order of the first-order multi-indices
    active = tuple(next(v for v, a in enumerate(alpha) if a)
                   for alpha in index if sum(alpha) == 1)
    place = {i: a for a, i in enumerate(active)}
    raised = tuple(sorted({place[v] for alpha in index if sum(alpha) > 1
                           for v, a in enumerate(alpha) if a}))
    order = sum(index[-1])
    chain, log_weight, exp, product = [], [], [], []
    for k in range(1, order + 1):
        block = [p for p, alpha in enumerate(index) if sum(alpha) == k]
        exp_rules, splits = [], []
        for p in block:
            alpha = index[p]
            # the raised variable with the fewest units gives the fewest terms
            i = min((v for v, a in enumerate(alpha) if a), key=lambda v: alpha[v])
            if k > 1:
                first = next(v for v, a in enumerate(alpha) if a)
                chain.append((p, pos[alpha[:first] + (alpha[first] - 1,) + alpha[first + 1:]],
                              place[first]))
                multinomial = math.factorial(k) // math.prod(map(math.factorial, alpha))
                log_weight.append((-1) ** (k + 1) / k * multinomial)
            # alpha_i P_alpha = sum over beta <= alpha with beta_i >= 1 of
            # beta_i E_beta P_(alpha - beta); beta = alpha gives E_alpha
            for beta in index:
                if any(beta) and all(b <= a for b, a in zip(beta, alpha)):
                    gamma = pos[tuple(a - b for a, b in zip(alpha, beta))]
                    splits.append((p, pos[beta], gamma, 1.0))
                    if beta[i] and beta != alpha:
                        exp_rules.append((p, pos[beta], gamma, beta[i] / alpha[i]))
        rows = slice(block[0], block[-1] + 1)
        if k > 1:
            exp.append(_terms(exp_rules, rows))
        product.insert(0, _terms(splits, rows))
    return Tables(index, active, place, raised, tuple(chain), np.array(log_weight),
                  tuple(exp), tuple(product))


def _scratch(work, key, shape):
    # an array of the given shape in work's buffer `key`: a buffer grows to
    # the largest array asked of it and serves every later call with the
    # same work, so its pages are faulted in once, not at every call
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _contract(terms, A, B, out, work):
    # out += the terms' sums of dense-weighted A[a] * B[:, b], by row of B
    # and out, which have an axis ahead of A's: row 0 takes A, and row 1,
    # if any, its moduli
    nodes = A.shape[1:]
    found = _scratch(work, "terms", (len(B), len(terms.a)) + nodes)
    # mode="clip" writes into out unbuffered; the indices are in range
    A.take(terms.a, axis=0, out=found[0], mode="clip")
    if len(B) > 1:
        np.abs(found[0], out=found[1])
    found *= B.take(terms.b, axis=1, out=_scratch(work, "gathered", found.shape), mode="clip")
    sums = _scratch(work, "sums", (len(B), len(terms.dense)) + nodes)
    np.matmul(terms.dense, found.reshape(found.shape[:2] + (-1,)), out=sums.reshape(sums.shape[:2] + (-1,)))
    out += sums


def log_series(tab, shape, omega, distances, work):
    """Taylor coefficients of sum_d c_d log(D_d) less its value, with node
    axes of the given shape, for distances D_d linear in the variables,
    written into work's scratch arrays (_scratch).

    distances lists (c_d, inv_d, nu_d): the derivative of D_d over D_d is
    inv_d (omega - nu_d), where omega and every nu_d map a place in
    tab.active to a rate, and c_d, inv_d and every rate are numbers or
    node arrays.  Order one gathers omega's part over the distances
    first.  Higher orders take each distance's ratios inv_d (omega - nu_d)
    at the places of tab.raised that omega or nu_d moves.  c_d times a
    ratio is a monomial of order one, and along tab.chain each monomial
    of higher order is its parent's times the ratio of the place that
    links them; a position whose parent or link has none has none.  The
    monomials' sum over the distances, times tab.log_weight, is the rest
    of the series.  A distance's ratios and monomials are temporaries of
    the shape its operands broadcast to, so a distance that moves with a
    column of nodes costs a column.  Entry 0 of the result is zero.
    """
    E = _scratch(work, "log", (tab.size,) + shape)
    E[...] = 0.0
    total = 0.0
    for c, inv, nu in distances:
        weight = c * inv
        total = total + weight
        for place, rate in nu.items():
            E[1 + place] -= rate * weight
    for place, rate in omega.items():
        E[1 + place] += rate * total
    if not tab.chain:
        return E
    for c, inv, nu in distances:
        ratio = {}
        for place in tab.raised:
            if place in nu:
                ratio[place] = (omega[place] - nu[place] if place in omega else -nu[place]) * inv
            elif place in omega:
                ratio[place] = omega[place] * inv
        # monomials by position
        mono = {1 + place: r * c for place, r in ratio.items()}
        for p, parent, place in tab.chain:
            if parent in mono and place in ratio:
                mono[p] = mono[parent] * ratio[place]
                E[p] += mono[p]
    E[1 + len(tab.active):] *= tab.log_weight.reshape((-1,) + (1,) * len(shape))
    return E


def exp_series(tab, E, work):
    """Taylor coefficients of exp(E) for E with a zero entry 0, written
    into work's scratch arrays: each order from two up adds its terms
    (Griewank and Walther, Evaluating Derivatives, ch. 13) to E's own."""
    P = _scratch(work, "exp", E.shape)
    np.copyto(P, E)
    P[0] = 1.0
    for terms in tab.exp:
        _contract(terms, E, P[None], P[None, terms.rows], work)
    return P


def product(tab, P, J, work):
    """Taylor coefficients of P * J for P with entry 0 equal to one,
    written over J, which it returns.

    J pairs a jet with a bound on the moduli of its terms along axis 0;
    row 1 of the result bounds the moduli of the product's terms with |P|.
    The series run along axis 0 of P and axis 1 of J.  Orders go from the
    highest down, so every term reads a coefficient of J not yet
    overwritten."""
    for terms in tab.product:
        _contract(terms, P, J, J[:, terms.rows], work)
    return J
