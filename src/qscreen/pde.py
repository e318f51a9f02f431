"""Numeric checks for the differential equations and Mobius covariance.

Every operator check asks its evaluator once for the Taylor jet of its
value: it calls it at a JetPoint that lists the multi-indices the
operator reads.  F_hwv differentiates under the screening integrals and
returns a Jet, each coefficient with its error estimate.  Any other
evaluator is a black box: the plain number it returns seeds the origin of
a lattice, and central differences on that lattice, extrapolated over two
strides, fill exactly the multi-indices the operator reads.

Each operator is one formula applied to the jet.  It lists its terms in
groups: one per composition of an annihilating operator, whose first
order pieces L_{-n} act on jets through the jets of their coefficients
and d/dx_i, and a single group for the growth process, translation and
Euler operators.  The residual is the sum of the terms.  It comes with a
scale, the largest |group sum| or |term|, so callers can judge it
relatively.  A jet's error estimates propagate to the residual; where
the scale does not exceed that estimate, F vanishes within its error
estimate, no ratio of the two means anything, and the check raises.

The step h of the black-box path is relative: the stencil spacing is h
times the smallest gap between consecutive coordinates.  Stencils are of
order _STENCIL_ORDER and extrapolated over _RICHARDSON_LEVELS strides.
Evaluator calls are counted inside a check_stats() block.
"""

import contextvars
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement

from .coulomb import _check_increasing, _check_kappa, _x_prefactor, h_weight
from .correspondence import F_hwv
from .jet import Jet, JetPoint
from .uqsl2 import is_hwv


_STENCIL_ORDER = 4
_RICHARDSON_LEVELS = 2


@dataclass(frozen=True)
class BsaTerm:
    """One composition L_{-n_1}..L_{-n_k} with its coefficient.

    The full coefficient is rational * (-4/kappa)**power with rational a
    positive fraction, so the sign is (-1)**power.
    """

    factors: tuple
    rational: Fraction
    power: int
    coefficient: float


@dataclass(frozen=True)
class BsaOperator:
    """Annihilating operator of order dims[j-1] attached to position j."""

    j: int
    order: int
    dims: tuple
    kappa: float
    compositions: tuple


def _ordered_compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _ordered_compositions(total - first):
            yield (first,) + rest


def build_bsa(j, dims, kappa):
    """Operator annihilating the functions of highest weight vectors.

    Sums over the 2**(d-1) ordered compositions (n_1, .., n_k) of
    d = dims[j-1] the term

        (-4/kappa)**(d-k) (d-1)!^2 / prod_m (n_1+..+n_m)(n_{m+1}+..+n_k)
            * L_{-n_1} .. L_{-n_k}

    where L_p acts on a function of the points as
    -sum_{i != j} ((x_i-x_j)**(1+p) d/dx_i + (1+p) h_{1,d_i} (x_i-x_j)**p).
    """
    dims = tuple(int(d_) for d_ in dims)
    if any(d_ < 1 for d_ in dims):
        raise ValueError("dimensions must be positive")
    if not 1 <= j <= len(dims):
        raise ValueError(f"position {j} out of range for n={len(dims)}")
    _check_kappa(kappa)
    d = dims[j - 1]
    terms = []
    for comp in _ordered_compositions(d):
        k = len(comp)
        denom = 1
        part = 0
        for m in range(k - 1):
            part += comp[m]
            denom *= part * (d - part)
        rational = Fraction(math.factorial(d - 1) ** 2, denom)
        power = d - k
        coefficient = float(rational) * (-4.0 / kappa) ** power
        terms.append(BsaTerm(comp, rational, power, coefficient))
    return BsaOperator(j, d, dims, float(kappa), tuple(terms))


# -- evaluator calls and jets ----------------------------------------------


@dataclass
class CheckStats:
    """Evaluator calls made by the checks inside a check_stats() block."""

    evals: int = 0


_STATS = contextvars.ContextVar("qscreen_check_stats", default=None)


@contextmanager
def check_stats():
    """Count the evaluator calls of the checks made inside the block."""
    stats = CheckStats()
    token = _STATS.set(stats)
    try:
        yield stats
    finally:
        _STATS.reset(token)


def _call(f, y):
    stats = _STATS.get()
    if stats is not None:
        stats.evals += 1
    return f(y)


def _multi_index(n, raised=()):
    # the multi-index over n points raising point i by k for (i, k) in raised
    alpha = [0] * n
    for i, k in raised:
        alpha[i] += k
    return tuple(alpha)


def _term(jet, factor, alpha):
    """factor times the Taylor coefficient alpha, with its error."""
    return factor * jet.coeffs[alpha], abs(factor) * jet.errs[alpha]


def _operator_check(f, x, reads, order, h, groups_of):
    """Residual and scale of an operator on the jet of f at x.

    groups_of(jet) lists the operator's terms in groups, each term as
    (value, error estimate).
    """
    if not h > 0:
        raise ValueError("step must be positive")
    got = _call(f, JetPoint(x, reads))
    analytic = isinstance(got, Jet)
    jet = got if analytic else _fd_jet(f, x, reads, order, h, got)
    groups = groups_of(jet)
    sums = [sum(value for value, _ in group) for group in groups]
    scale = max(max([abs(s)] + [abs(value) for value, _ in group])
                for s, group in zip(sums, groups))
    err = sum(e for group in groups for _, e in group)
    if analytic and not scale > err:
        raise ValueError(
            "F vanishes within its error estimate under this operator: its"
            f" largest term {scale:.2e} does not exceed the residual's estimate {err:.2e}"
        )
    return sum(sums), scale


# -- the black-box path: a jet from finite differences ---------------------


_FIRST = {-2: Fraction(1, 12), -1: Fraction(-2, 3), 1: Fraction(2, 3), 2: Fraction(-1, 12)}
_SECOND = {-2: Fraction(-1, 12), -1: Fraction(4, 3), 0: Fraction(-5, 2),
           1: Fraction(4, 3), 2: Fraction(-1, 12)}


@cache
def _stencil(k):
    """Offsets and weights of a central difference for the k-th derivative
    with error O(h^4): the second-derivative stencil k // 2 times and the
    first-derivative one k % 2 times, composed."""
    weights = {0: Fraction(1)}
    for factor in [_SECOND] * (k // 2) + [_FIRST] * (k % 2):
        out = {}
        for a, wa in weights.items():
            for b, wb in factor.items():
                out[a + b] = out.get(a + b, 0) + wa * wb
        weights = out
    return tuple((o, float(w)) for o, w in sorted(weights.items()) if w)


def _difference(g, alpha, stride, step):
    # the tensor product of the one-dimensional stencils, as a Taylor
    # coefficient
    points = {(0,) * len(alpha): 1.0}
    for i, k in enumerate(alpha):
        if k:
            moved = {}
            for key, w in points.items():
                for o, wo in _stencil(k):
                    at = key[:i] + (key[i] + o * stride,) + key[i + 1:]
                    moved[at] = moved.get(at, 0.0) + w * wo
            points = moved
    total = sum(w * g(key) for key, w in points.items())
    return total / (step ** sum(alpha) * math.prod(math.factorial(k) for k in alpha))


def _richardson(values):
    # values listed coarse to fine; stencil error expands in even powers
    table = list(values)
    order = _STENCIL_ORDER
    while len(table) > 1:
        factor = 2**order
        table = [
            (factor * fine - coarse) / (factor - 1)
            for coarse, fine in zip(table, table[1:])
        ]
        order += 2
    return table[0]


def _steps(h, x, total_order):
    gap = min((b - a for a, b in zip(x, x[1:])), default=1.0)
    h_abs = h * gap
    # the difference of a multi-index moves point i by up to
    # 2 ceil(alpha_i / 2) <= 2 alpha_i coarse steps, so two neighbours close
    # in by at most 2 * total_order of them, and they must not meet or cross
    if not gap > 2 * total_order * h_abs:
        raise ValueError(
            f"clearance {gap:g} is not above 2*{total_order} stencil steps of {h_abs:g}"
        )
    levels = _RICHARDSON_LEVELS
    h_fine = h_abs / 2 ** (levels - 1)
    strides = tuple(2 ** (levels - 1 - t) for t in range(levels))
    return h_fine, strides


def _fd_jet(f, x, reads, total_order, h, value):
    """The Taylor coefficients `reads` of the black-box evaluator f, from
    central differences on a lattice of step h_fine whose origin holds
    value, extrapolated over the strides."""
    h_fine, strides = _steps(h, x, total_order)
    memo = {(0,) * len(x): value}

    def g(k):
        got = memo.get(k)
        if got is None:
            got = memo[k] = _call(f, tuple(xi + h_fine * ki for xi, ki in zip(x, k)))
        return got

    coeffs = {}
    for alpha in reads:
        if any(alpha):
            coeffs[alpha] = _richardson([_difference(g, alpha, s, h_fine * s) for s in strides])
        else:
            coeffs[alpha] = value
    return Jet(tuple(coeffs), coeffs, dict.fromkeys(coeffs, 0.0))


# -- the operators on jets -------------------------------------------------


def _power_series(dy, q, order):
    # Taylor coefficients of (dy + t)**q in t up to t**order
    out, c = [], 1.0
    for m in range(order + 1):
        out.append(c * dy ** (q - m))
        c *= (q - m) / (m + 1)
    return out


def _lower(p, jet, j0, x, weights):
    """L_p on a jet: the jet of L_p f on one total order less, and the
    terms of (L_p f)(x), one per point i other than j0, as (value, error).

    L_p = -sum_{i != j0} ((x_i-x_j0)**(1+p) d/dx_i + (1+p) h_i (x_i-x_j0)**p),
    each product taken with the Taylor jet of the coefficient in x_i."""
    coeffs, errs = jet.coeffs, jet.errs
    top = max(sum(alpha) for alpha in jet.index)
    target = [alpha for alpha in jet.index if sum(alpha) < top]
    out = dict.fromkeys(target, 0.0)
    out_err = dict.fromkeys(target, 0.0)
    pieces = []
    for i in range(len(x)):
        if i == j0:
            continue
        dy = x[i] - x[j0]
        grow = _power_series(dy, 1 + p, top)
        scale = [(1 + p) * weights[i] * c for c in _power_series(dy, p, top)]
        for alpha in target:
            value = err = 0.0
            for m in range(alpha[i] + 1):
                beta = alpha[:i] + (alpha[i] - m,) + alpha[i + 1:]
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                d = beta[i] + 1
                value += grow[m] * d * coeffs[up] + scale[m] * coeffs[beta]
                err += abs(grow[m]) * d * errs[up] + abs(scale[m]) * errs[beta]
            out[alpha] -= value
            out_err[alpha] += err
            if not any(alpha):
                pieces.append((-value, err))
    return Jet(tuple(target), out, out_err), pieces


def apply_bsa(op, f, x, h=1e-3):
    """Residual of the operator on the evaluator f at the point x.

    Returns (residual, scale).  The scale is the largest term that entered
    the cancellation, so residual/scale is the meaningful smallness.  Any
    auxiliary parameter of the evaluator (an anchor point for instance)
    must stay fixed while the points move.  h is the relative step of a
    black-box evaluator.
    """
    x = tuple(float(xi) for xi in x)
    if len(x) != len(op.dims):
        raise ValueError(f"point has {len(x)} coordinates, operator wants {len(op.dims)}")
    _check_increasing(x)
    weights = tuple(h_weight(d_, op.kappa) for d_ in op.dims)
    j0 = op.j - 1
    n = len(x)
    others = [i for i in range(n) if i != j0]
    reads = [
        _multi_index(n, [(i, 1) for i in combo])
        for k in range(op.order + 1)
        for combo in combinations_with_replacement(others, k)
    ]

    def groups_of(jet):
        groups = []
        for term in op.compositions:
            inner = jet
            for n_a in reversed(term.factors[1:]):
                inner, _ = _lower(-n_a, inner, j0, x, weights)
            _, pieces = _lower(-term.factors[0], inner, j0, x, weights)
            c = term.coefficient
            groups.append([(c * value, abs(c) * err) for value, err in pieces])
        return groups

    return _operator_check(f, x, reads, op.order, h, groups_of)


def vertex_prefactor(dims, kappa):
    """Evaluator for the no-screening product of powered differences,
    prod_{i<k} (x_k - x_i)**(2 (d_i-1)(d_k-1)/kappa)."""
    return lambda y: _x_prefactor(y, dims, kappa)


def sle_pde_check(f, x, kappa, j, h=1e-3):
    """Second order growth process equation applied directly at x.

    kappa/2 d^2/dx_j^2 + sum_{i != j} (2/(x_i-x_j) d/dx_i - 2hw/(x_i-x_j)^2)
    with hw = (6-kappa)/(2 kappa); all points carry that same weight.
    Returns (residual, scale) like apply_bsa.
    """
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    if not 1 <= j <= len(x):
        raise ValueError(f"position {j} out of range for n={len(x)}")
    _check_kappa(kappa)
    hw = (6.0 - kappa) / (2.0 * kappa)
    n = len(x)
    j0 = j - 1
    others = [i for i in range(n) if i != j0]
    origin = _multi_index(n)
    reads = [origin, _multi_index(n, [(j0, 2)])] + [_multi_index(n, [(i, 1)]) for i in others]

    def groups_of(jet):
        # the second derivative is twice its Taylor coefficient
        terms = [_term(jet, kappa, _multi_index(n, [(j0, 2)]))]
        for i in others:
            dy = x[i] - x[j0]
            terms.append(_term(jet, 2.0 / dy, _multi_index(n, [(i, 1)])))
            terms.append(_term(jet, -2.0 * hw / dy**2, origin))
        return [terms]

    return _operator_check(f, x, reads, 2, h, groups_of)


_PROPORTIONALITY_SAMPLES = 20
_IDENTITY_SAMPLES = 100


def sle_proportionality_check(x, kappa, j, seed=7):
    """Largest relative gap between the direct second order equation and
    kappa/2 times the composed operator, over random smooth translation
    invariant test functions.

    The test functions are analytic, so a coarser step keeps rounding
    noise far below the truncation floor.
    """
    x = tuple(float(xi) for xi in x)
    dims = (2,) * len(x)
    op = build_bsa(j, dims, kappa)
    rng = random.Random(seed)
    pairs = [(i, k) for i in range(len(x)) for k in range(i + 1, len(x))]
    worst = 0.0
    for _ in range(_PROPORTIONALITY_SAMPLES):
        coeffs = {pair: (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for pair in pairs}

        def f(y, coeffs=coeffs):
            s = 0.0
            for (i, k), (b, c) in coeffs.items():
                dy = y[k] - y[i]
                s += b * dy + c * dy * dy
            return math.exp(s)

        direct, _ = sle_pde_check(f, x, kappa, j, h=1e-2)
        composed, _ = apply_bsa(op, f, x, h=1e-2)
        target = 0.5 * kappa * composed
        denom = max(abs(direct), abs(target))
        if denom == 0.0:
            continue
        worst = max(worst, abs(direct - target) / denom)
    return worst


def translation_check(f, x, h=1e-3):
    """Sum of all first derivatives at x; scale is the largest one."""
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    reads = [_multi_index(len(x), [(i, 1)]) for i in range(len(x))]

    def groups_of(jet):
        return [[_term(jet, 1.0, alpha) for alpha in reads]]

    return _operator_check(f, x, reads, 1, h, groups_of)


def euler_check(f, x, degree, h=1e-3):
    """Euler operator sum x_i d/dx_i minus the homogeneity degree."""
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    n = len(x)
    firsts = [_multi_index(n, [(i, 1)]) for i in range(n)]

    def groups_of(jet):
        terms = [_term(jet, x[i], alpha) for i, alpha in enumerate(firsts)]
        terms.append(_term(jet, -degree, _multi_index(n)))
        return [terms]

    return _operator_check(f, x, [_multi_index(n)] + firsts, 1, h, groups_of)


def mobius_check(v, mu, x, kappa, rel_tol=1e-9):
    """Compare the function of v against its pullback under a Mobius map.

    mu = (a, b, c, d) acts as z -> (a z + b)/(c z + d) and must preserve
    the ordering of the points; v must span a trivial subrepresentation.
    """
    a, b, c, d = (float(t) for t in mu)
    if a * d - b * c <= 0:
        raise ValueError("the map must be orientation preserving")
    if not is_hwv(v, 1):
        raise ValueError("vector is not in the trivial subrepresentation")
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    if any(c * xi + d == 0.0 for xi in x):
        raise ValueError("map has a pole at one of the points")
    mapped = tuple((a * xi + b) / (c * xi + d) for xi in x)
    for p_, q_ in zip(mapped, mapped[1:]):
        if q_ <= p_:
            raise ValueError("map does not preserve the ordering of the points")
    det = a * d - b * c
    prefactor = 1.0
    for xi, dim in zip(x, v.space.dims):
        prefactor *= (det / (c * xi + d) ** 2) ** h_weight(dim, kappa)
    value = F_hwv(v, x, kappa, rel_tol)
    transformed = prefactor * F_hwv(v, mapped, kappa, rel_tol)
    if value == 0:
        deviation = abs(transformed)
    else:
        deviation = abs(transformed - value) / abs(value)
    return {
        "mu": (a, b, c, d),
        "points": x,
        "mapped": mapped,
        "value": value,
        "transformed": transformed,
        "deviation": deviation,
    }


def _separated_points(rng, count, low, high, min_dist):
    # independent uniforms conditioned on the separation, drawn directly:
    # the range grows only when the count-1 gaps would not fit in it
    slack = high - low - (count - 1) * min_dist
    if slack <= 0:
        slack = min_dist
    offsets = sorted(rng.uniform(0.0, slack) for _ in range(count))
    pts = [low + u + i * min_dist for i, u in enumerate(offsets)]
    rng.shuffle(pts)
    return pts


def special_conformal_identity_check(dims, seed=2026, perturbation=0.0):
    """Largest relative size of the rational expression

        sum_r prod_i (w_r-x_i)**(d_i-1) prod_{s != r} (w_r-w_s)**-2
              * (sum_i (d_i-1)/(w_r-x_i) - 2 sum_{u != r} 1/(w_r-w_u))
        - 2 sum_r w_r + sum_i (d_i-1) x_i

    over random well separated real points, with ell = sum(d_i-1)/2
    screening positions w.  The expression vanishes identically; a nonzero
    perturbation scales the -2 sum(w) term and serves as a sensitivity
    control.
    """
    dims = tuple(int(d_) for d_ in dims)
    total = sum(d_ - 1 for d_ in dims)
    if total % 2:
        raise ValueError("sum of (d_i - 1) must be even")
    ell = total // 2
    n = len(dims)
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(_IDENTITY_SAMPLES):
        pts = _separated_points(rng, n + ell, -2.0, 2.0, 0.4)
        xs = sorted(pts[:n])
        ws = pts[n:]
        sum_t = 0.0
        for r, wr in enumerate(ws):
            prod = 1.0
            for xi, d_ in zip(xs, dims):
                prod *= (wr - xi) ** (d_ - 1)
            for s, wsv in enumerate(ws):
                if s != r:
                    prod /= (wr - wsv) ** 2
            inner = sum((d_ - 1) / (wr - xi) for xi, d_ in zip(xs, dims))
            inner -= 2.0 * sum(1.0 / (wr - wu) for u, wu in enumerate(ws) if u != r)
            sum_t += prod * inner
        linear = -2.0 * (1.0 + perturbation) * sum(ws)
        shift = sum((d_ - 1) * xi for xi, d_ in zip(xs, dims))
        value = sum_t + linear + shift
        scale = max(abs(sum_t), abs(linear), abs(shift), 1e-30)
        worst = max(worst, abs(value) / scale)
    return worst
