"""Numeric checks for the differential equations and Mobius covariance.

The annihilating operators are sums over ordered compositions of first
order pieces L_{-n}, each applied through central finite differences of
the full evaluator; nothing is differentiated symbolically.

Every operator check runs through one path.  At each stride the operator
lists its terms in groups: one per composition of an annihilating
operator (each term times the composition's coefficient), a single group
for the growth process, translation and Euler operators.  The residual
is the Richardson extrapolation of the per-stride total.  It comes with
a scale, the largest |group sum| or |term| at the finest stride, so
callers can judge it relatively.

Stencil points live on a shared lattice at the finest refinement level,
so evaluator calls are cached once across all Richardson levels and all
groups.  That matters when the evaluator hides a quadrature.  The step h
is relative: the stencil spacing is h times the smallest gap between
consecutive coordinates.  Stencils are of order _STENCIL_ORDER and
extrapolated over _RICHARDSON_LEVELS strides.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .coulomb import _check_increasing, _check_kappa, _x_prefactor, h_weight
from .correspondence import F_hwv
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


# -- finite difference engine ----------------------------------------------


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
    # pieces(k) lists the terms of (L_p g)(k), one per point i other than j0
    h = h_fine * stride
    n = len(x)

    def pieces(k):
        yj = x[j0] + h_fine * k[j0]
        out = []
        for i in range(n):
            if i == j0:
                continue
            dy = x[i] + h_fine * k[i] - yj
            piece = dy ** (1 + p) * _derivative(g, k, i, stride, h)
            if p != -1:
                piece += (1 + p) * weights[i] * dy**p * g(k)
            out.append(-piece)
        return out

    return pieces


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
    if not h > 0:
        raise ValueError("step must be positive")
    gap = min((b - a for a, b in zip(x, x[1:])), default=1.0)
    h_abs = h * gap
    # total_order nested derivatives move a point by up to 2 * total_order
    # coarse steps, and the points must not meet or cross
    if not gap > 2 * total_order * h_abs:
        raise ValueError(
            f"clearance {gap:g} is not above 2*{total_order} stencil steps of {h_abs:g}"
        )
    levels = _RICHARDSON_LEVELS
    h_fine = h_abs / 2 ** (levels - 1)
    strides = tuple(2 ** (levels - 1 - t) for t in range(levels))
    return h_fine, strides


def _extrapolated_sum(f, x, total_order, h, groups_at):
    # groups_at(g, stride, step) lists the operator's terms on the lattice
    # evaluator g in groups; strides run coarse to fine
    h_fine, strides = _steps(h, x, total_order)
    base = _lattice(f, x, h_fine)
    totals = []
    for stride in strides:
        groups = groups_at(base, stride, h_fine * stride)
        sums = [sum(group) for group in groups]
        totals.append(sum(sums))
    scale = max(max([abs(s)] + [abs(t) for t in g]) for s, g in zip(sums, groups))
    return _richardson(totals), scale


def apply_bsa(op, f, x, h=1e-3):
    """Residual of the operator on the evaluator f at the point x.

    Returns (residual, scale).  The scale is the largest term that entered
    the cancellation, so residual/scale is the meaningful smallness.  Any
    auxiliary parameter of the evaluator (an anchor point for instance)
    must stay fixed while the points move.  h is the relative step.
    """
    x = tuple(float(xi) for xi in x)
    if len(x) != len(op.dims):
        raise ValueError(f"point has {len(x)} coordinates, operator wants {len(op.dims)}")
    _check_increasing(x)
    weights = tuple(h_weight(d_, op.kappa) for d_ in op.dims)
    j0 = op.j - 1

    def groups_at(g, stride, step):
        h_fine = step / stride
        groups = []
        for term in op.compositions:
            inner = g
            for n_a in reversed(term.factors[1:]):
                pieces = _lower(-n_a, inner, j0, x, h_fine, stride, weights)
                inner = cache(lambda k, pieces=pieces: sum(pieces(k)))
            outer = _lower(-term.factors[0], inner, j0, x, h_fine, stride, weights)
            groups.append([term.coefficient * piece for piece in outer((0,) * len(x))])
        return groups

    return _extrapolated_sum(f, x, op.order, h, groups_at)


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
    j0 = j - 1
    origin = (0,) * len(x)

    def groups_at(g, stride, step):
        pieces = [0.5 * kappa * _second_derivative(g, origin, j0, stride, step)]
        for i in range(len(x)):
            if i == j0:
                continue
            dy = x[i] - x[j0]
            pieces.append(2.0 / dy * _derivative(g, origin, i, stride, step))
            pieces.append(-2.0 * hw / dy**2 * g(origin))
        return [pieces]

    return _extrapolated_sum(f, x, 2, h, groups_at)


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
    origin = (0,) * len(x)

    def groups_at(g, stride, step):
        return [[_derivative(g, origin, i, stride, step) for i in range(len(x))]]

    return _extrapolated_sum(f, x, 1, h, groups_at)


def euler_check(f, x, degree, h=1e-3):
    """Euler operator sum x_i d/dx_i minus the homogeneity degree."""
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    origin = (0,) * len(x)

    def groups_at(g, stride, step):
        pieces = [
            x[i] * _derivative(g, origin, i, stride, step) for i in range(len(x))
        ]
        pieces.append(-degree * g(origin))
        return [pieces]

    return _extrapolated_sum(f, x, 1, h, groups_at)


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
