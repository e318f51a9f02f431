"""Numeric checks for the differential equations and Mobius covariance.

The annihilating operators are sums over ordered compositions of first
order pieces L_{-n}, each applied through central finite differences of
the full evaluator; nothing is differentiated symbolically.  Residuals
come with a scale estimate (the largest term entering the cancellation)
so callers can judge them relatively.

Stencil points live on a shared lattice at the finest refinement level,
so evaluator calls are cached once across all Richardson levels.  That
matters when the evaluator hides a quadrature.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .coulomb import _check_increasing, _x_prefactor, h_weight
from .correspondence import F_hwv
from .uqsl2 import is_hwv


@dataclass(frozen=True)
class FdScheme:
    """Finite difference settings.

    The step is relative: the stencil spacing is h times the smallest gap
    between consecutive coordinates of the evaluation point.  Stencils are
    of order _STENCIL_ORDER and extrapolated over _RICHARDSON_LEVELS
    strides.
    """

    h: float = 1e-3

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step must be positive")


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


# -- finite difference engine ----------------------------------------------


def _min_gap(x):
    if len(x) < 2:
        return 1.0
    return min(b - a for a, b in zip(x, x[1:]))


def _lattice(f, x, h_fine):
    def base(k):
        return f(tuple(xi + h_fine * ki for xi, ki in zip(x, k)))

    return cache(base)


def _shift(k, i, step):
    return k[:i] + (k[i] + step,) + k[i + 1 :]


def _derivative(g, k, i, stride, h):
    return (
        -g(_shift(k, i, 2 * stride))
        + 8.0 * g(_shift(k, i, stride))
        - 8.0 * g(_shift(k, i, -stride))
        + g(_shift(k, i, -2 * stride))
    ) / (12.0 * h)


def _second_derivative(g, k, i, stride, h):
    return (
        -g(_shift(k, i, 2 * stride))
        + 16.0 * g(_shift(k, i, stride))
        - 30.0 * g(k)
        + 16.0 * g(_shift(k, i, -stride))
        - g(_shift(k, i, -2 * stride))
    ) / (12.0 * h * h)


def _lower(p, g, j0, x, h_fine, stride, weights):
    h = h_fine * stride
    n = len(x)

    def lowered(k):
        yj = x[j0] + h_fine * k[j0]
        total = 0.0j
        for i in range(n):
            if i == j0:
                continue
            dy = x[i] + h_fine * k[i] - yj
            total += dy ** (1 + p) * _derivative(g, k, i, stride, h)
            if p != -1:
                total += (1 + p) * weights[i] * dy**p * g(k)
        return -total

    return lowered


def _composition_term(base, factors, j0, x, h_fine, stride, weights):
    h = h_fine * stride
    g = base
    for n_a in reversed(factors[1:]):
        g = cache(_lower(-n_a, g, j0, x, h_fine, stride, weights))
    p = -factors[0]
    origin = (0,) * len(x)
    total = 0.0j
    largest = 0.0
    for i in range(len(x)):
        if i == j0:
            continue
        dy = x[i] - x[j0]
        piece = dy ** (1 + p) * _derivative(g, origin, i, stride, h)
        if p != -1:
            piece += (1 + p) * weights[i] * dy**p * g(origin)
        total += piece
        largest = max(largest, abs(piece))
    return -total, largest


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


def _steps(scheme, x, total_order):
    if scheme is None:
        scheme = FdScheme()
    gap = _min_gap(x)
    h_abs = scheme.h * gap
    if gap < (total_order + 1) * h_abs:
        raise ValueError(
            f"clearance {gap:g} is below ({total_order}+1) stencil steps of {h_abs:g}"
        )
    levels = _RICHARDSON_LEVELS
    h_fine = h_abs / 2 ** (levels - 1)
    strides = tuple(2 ** (levels - 1 - t) for t in range(levels))
    return h_fine, strides


def apply_bsa(op, f, x, scheme=None):
    """Residual of the operator on the evaluator f at the point x.

    Returns (residual, scale).  The scale is the largest term that entered
    the cancellation, so residual/scale is the meaningful smallness.  Any
    auxiliary parameter of the evaluator (an anchor point for instance)
    must stay fixed while the points move.
    """
    x = tuple(float(xi) for xi in x)
    if len(x) != len(op.dims):
        raise ValueError(f"point has {len(x)} coordinates, operator wants {len(op.dims)}")
    _check_increasing(x)
    h_fine, strides = _steps(scheme, x, op.order)
    base = _lattice(f, x, h_fine)
    weights = tuple(h_weight(d_, op.kappa) for d_ in op.dims)
    j0 = op.j - 1
    residual = 0.0j
    scale = 0.0
    for term in op.compositions:
        values = []
        largest = 0.0
        for stride in strides:
            value, largest = _composition_term(
                base, term.factors, j0, x, h_fine, stride, weights
            )
            values.append(term.coefficient * value)
        extrapolated = _richardson(values)
        residual += extrapolated
        scale = max(scale, abs(values[-1]), abs(term.coefficient) * largest)
    return residual, scale


def vertex_prefactor(dims, kappa):
    """Evaluator for the no-screening product of powered differences,
    prod_{i<k} (x_k - x_i)**(2 (d_i-1)(d_k-1)/kappa)."""
    return lambda y: _x_prefactor(y, dims, kappa)


def _extrapolated_sum(f, x, total_order, scheme, pieces_at):
    # pieces_at(g, stride, h) lists the terms of the operator on the lattice
    # evaluator g; their sum is Richardson extrapolated over the strides and
    # the scale is the largest term at the finest stride
    h_fine, strides = _steps(scheme, x, total_order)
    base = _lattice(f, x, h_fine)
    values = []
    largest = 0.0
    for stride in strides:
        pieces = pieces_at(base, stride, h_fine * stride)
        values.append(sum(pieces))
        largest = max(abs(p) for p in pieces)
    return _richardson(values), max(largest, abs(values[-1]))


def sle_pde_check(f, x, kappa, j, scheme=None):
    """Second order growth process equation applied directly at x.

    kappa/2 d^2/dx_j^2 + sum_{i != j} (2/(x_i-x_j) d/dx_i - 2h/(x_i-x_j)^2)
    with h = (6-kappa)/(2 kappa); all points carry that same weight.
    Returns (residual, scale) like apply_bsa.
    """
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    if not 1 <= j <= len(x):
        raise ValueError(f"position {j} out of range for n={len(x)}")
    hw = (6.0 - kappa) / (2.0 * kappa)
    j0 = j - 1
    origin = (0,) * len(x)

    def pieces_at(g, stride, h):
        pieces = [0.5 * kappa * _second_derivative(g, origin, j0, stride, h)]
        for i in range(len(x)):
            if i == j0:
                continue
            dy = x[i] - x[j0]
            pieces.append(2.0 / dy * _derivative(g, origin, i, stride, h))
            pieces.append(-2.0 * hw / dy**2 * g(origin))
        return pieces

    return _extrapolated_sum(f, x, 2, scheme, pieces_at)


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
    scheme = FdScheme(h=1e-2)
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

        direct, _ = sle_pde_check(f, x, kappa, j, scheme)
        composed, _ = apply_bsa(op, f, x, scheme)
        target = 0.5 * kappa * composed
        denom = max(abs(direct), abs(target))
        if denom == 0.0:
            continue
        worst = max(worst, abs(direct - target) / denom)
    return worst


def translation_check(f, x, scheme=None):
    """Sum of all first derivatives at x; scale is the largest one."""
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    origin = (0,) * len(x)

    def pieces_at(g, stride, h):
        return [_derivative(g, origin, i, stride, h) for i in range(len(x))]

    return _extrapolated_sum(f, x, 1, scheme, pieces_at)


def euler_check(f, x, degree, scheme=None):
    """Euler operator sum x_i d/dx_i minus the homogeneity degree."""
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    origin = (0,) * len(x)

    def pieces_at(g, stride, h):
        pieces = [x[i] * _derivative(g, origin, i, stride, h) for i in range(len(x))]
        pieces.append(-degree * g(origin))
        return pieces

    return _extrapolated_sum(f, x, 1, scheme, pieces_at)


def mobius_check(v, mu, x, kappa, quad=None):
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
    value = F_hwv(v, x, kappa, quad)
    transformed = prefactor * F_hwv(v, mapped, kappa, quad)
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
    while True:
        pts = [rng.uniform(low, high) for _ in range(count)]
        if all(
            abs(pts[i] - pts[k]) >= min_dist
            for i in range(count)
            for k in range(i + 1, count)
        ):
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
