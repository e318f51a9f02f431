"""Truncated Taylor jets of functions of the marked points.

The jet of f at x over an index set holds the Taylor coefficients
f_a = (d^a f)(x) / a! for the multi-indices a of the set.  Index sets are
closed under lowering any entry, so sums, products and exponentials of
jets truncate to them exactly.  JetPoint asks an evaluator for a jet; Jet
is what an evaluator that differentiates returns, every coefficient with
an absolute error estimate.

The table-driven series operations act on arrays whose first axis runs
over an index set and whose other axes, if any, over quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
class Tables:
    """Index bookkeeping of the series operations on one index set.

    active lists the variables some multi-index raises, in the order of
    the first-order multi-indices, and raised the places in active of
    those that a multi-index of order two or more raises.  Entry k - 1 of
    degrees covers the multi-indices of total order k: their positions,
    the row of each one's parent (itself less one unit in its first
    raised variable; -1 at order one) among the previous order's, that
    variable's place in active, and the coefficient (-1)^(k+1)/k times the
    multinomial, that of the logarithm's series.  exp (one entry per
    order from two up) and product list (target, a, b) by target, exp
    with its weights.
    """

    size: int
    active: tuple
    raised: tuple
    degrees: tuple
    exp: tuple
    product: tuple


def _grouped(triples):
    triples.sort(key=lambda t: t[0])
    targets = np.array([t[0] for t in triples], dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, targets[1:] != targets[:-1]])
    return (targets[starts], starts,
            np.array([t[1] for t in triples], dtype=np.intp),
            np.array([t[2] for t in triples], dtype=np.intp),
            np.array([t[3] for t in triples]) if len(triples[0]) > 3 else None)


@lru_cache(maxsize=None)
def tables(index) -> Tables:
    """Tables of the closed index set `index` (as closure returns it)."""
    pos = {alpha: p for p, alpha in enumerate(index)}
    # in the order of the first-order multi-indices
    active = tuple(next(v for v, a in enumerate(alpha) if a)
                   for alpha in index if sum(alpha) == 1)
    place = {i: a for a, i in enumerate(active)}
    degrees = []
    exp_rules = []
    splits = []
    order = sum(index[-1])
    for k in range(1, order + 1):
        block = [alpha for alpha in index if sum(alpha) == k]
        prev = {alpha: q for q, alpha in enumerate(a for a in index if sum(a) == k - 1)}
        rows = []
        for alpha in block:
            i = next(v for v, a in enumerate(alpha) if a)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            multinomial = math.factorial(k) // math.prod(math.factorial(a) for a in alpha)
            rows.append((pos[alpha], prev[lower] if k > 1 else -1, place[i],
                         (-1) ** (k + 1) / k * multinomial))
            # alpha_i P_alpha = sum over beta <= alpha with beta_i >= 1 of
            # beta_i E_beta P_(alpha - beta); beta = alpha gives E_alpha
            for beta in index:
                if beta[i] and beta != alpha and all(b <= a for b, a in zip(beta, alpha)):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    exp_rules.append((pos[alpha], pos[beta], pos[gamma], beta[i] / alpha[i]))
            for beta in index:
                if any(beta) and all(b <= a for b, a in zip(beta, alpha)):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    splits.append((pos[alpha], pos[beta], pos[gamma]))
        degrees.append(tuple(np.array(col) for col in zip(*rows)))
    exp_by_degree = []
    for k in range(2, order + 1):
        exp_by_degree.append(_grouped([r for r in exp_rules if sum(index[r[0]]) == k]))
    raised = tuple(sorted({place[v] for alpha in index if sum(alpha) > 1
                           for v, a in enumerate(alpha) if a}))
    return Tables(len(index), active, raised, tuple(degrees), tuple(exp_by_degree),
                  _grouped(splits) if splits else None)


def log_series(tab, shape, omega, distances):
    """Taylor coefficients of sum_d c_d log(D_d) less its value, with node
    axes of the given shape, for distances D_d linear in the variables.

    distances lists (c_d, inv_d, nu_d): the derivative of D_d over D_d is
    inv_d (omega - nu_d), where omega and every nu_d map a place in
    tab.active to a rate, a number or a node array.  Order one gathers
    omega's part over the distances first; higher orders multiply the
    ratios of one distance at a time.  Entry 0 of the result is zero.
    """
    first = tab.degrees[0][0] if tab.degrees else ()
    E = np.zeros((tab.size,) + shape)
    total = 0.0
    for c, inv, nu in distances:
        weight = c * inv
        total = total + weight
        for place, rate in nu.items():
            E[first[place]] -= rate * weight
    for place, rate in omega.items():
        E[first[place]] += rate * total
    for c, inv, nu in distances:
        ratios = {}
        for place in tab.raised:
            r = omega.get(place)
            if place in nu:
                r = -nu[place] if r is None else r - nu[place]
            if r is not None:
                ratios[place] = inv * r
        mono = ratios
        for where, parent, var, weight in tab.degrees[1:]:
            prev, mono = mono, {}
            for q, p in enumerate(where):
                m = prev.get(parent[q])
                r = ratios.get(var[q])
                if m is not None and r is not None:
                    mono[q] = m * r
                    E[p] += (c * weight[q]) * mono[q]
    return E


def exp_series(tab, E):
    """Taylor coefficients of exp(E) for E with a zero entry 0."""
    P = E.copy()
    P[0] = 1.0
    for targets, starts, a, b, weight in tab.exp:
        terms = E[a] * P[b]
        terms *= weight.reshape(weight.shape + (1,) * (terms.ndim - 1))
        P[targets] += np.add.reduceat(terms, starts, axis=0)
    return P


def product(tab, P, J):
    """Taylor coefficients of P * J for P with entry 0 equal to one.

    J pairs a jet with a bound on the moduli of its terms along axis 0;
    row 1 of the result bounds the moduli of the product's terms with |P|.
    The series run along axis 0 of P and axis 1 of J."""
    out = J.copy()
    if tab.product is not None:
        targets, starts, a, b, _ = tab.product
        Pa = P[a]
        out[0, targets] += np.add.reduceat(Pa * J[0, b], starts, axis=0)
        out[1, targets] += np.add.reduceat(np.abs(Pa) * J[1, b], starts, axis=0)
    return out
