"""Numeric checks for the differential equations and Mobius covariance.

Every operator check asks its evaluator once for the Taylor jet of its
value: it calls it at a JetPoint that lists the multi-indices the
operator reads, and the evaluator returns a Jet, each coefficient with
its error estimate.  F_hwv fills its held points' coefficients from the
global Ward identities (correspondence._ward_jet), so translation_check,
euler_check and, for a trivial vector, special_conformal_check hold on
it by construction; at three points it fills a trivial F from its value
alone, so a check there reads F_anchor at a fixed anchor.  rho, phi and
F_anchor jets stay direct.  vertex_prefactor and the test functions of
sle_proportionality_check have exact jets.  An evaluator that returns
anything else is refused.

An operator lists its terms in groups, each term a linear form
{alpha: factor} over the jet.  Its first order pieces all come from
jet.generator_terms, the one rule for L_p.  An annihilating operator
composes its L_{-n} about the marked point, one group per composition
and one term per outer point.  translation_check, euler_check and
special_conformal_check are -L_{-1}, -L_0 and -L_1 about the origin over
every point, one term per (point, multi-index), Euler's degree the first
point's weight.  The growth process equation keeps its direct formula,
the reference that sle_proportionality_check holds the composed operator
against.  The residual is the sum of the terms.  It comes with a scale,
the largest |group sum| or |term|, so callers can judge it relatively.
The jet's error estimates propagate to the residual; where the scale
does not exceed that estimate, F vanishes within its error estimate, no
ratio of the two means anything, and the check raises.  An enclosing
coulomb.eval_stats() block counts each check's evaluator call in its
evals.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .coulomb import (ChamberPoint, _check_increasing, _check_kappa, _record, eval_stats,
                      h_weight, rho)
from .correspondence import _F_hwv
from .jet import Jet, JetPoint, exp_series, generator_terms, tables
from .uqsl2 import _hwv_test


@dataclass(frozen=True)
class BsaTerm:
    """One composition L_{-n_1}..L_{-n_k} of d with its coefficient, a
    positive number times (-4/kappa)**(d-k) (build_bsa), so of sign
    (-1)**(d-k)."""

    factors: tuple
    coefficient: float


@dataclass(frozen=True)
class BsaOperator:
    """Annihilating operator of order dims[j-1] attached to position j."""

    j: int
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
        coefficient = math.factorial(d - 1) ** 2 / denom * (-4.0 / kappa) ** (d - k)
        terms.append(BsaTerm(comp, coefficient))
    return BsaOperator(j, dims, float(kappa), tuple(terms))


# -- evaluator calls and jets ----------------------------------------------


def _multi_index(n, raised=()):
    # the multi-index over n points raising point i by k for (i, k) in raised
    alpha = [0] * n
    for i, k in raised:
        alpha[i] += k
    return tuple(alpha)


def _operator_check(f, x, groups_at):
    """Residual and scale of an operator on the jet of f at x.

    groups_at(x) lists the operator's terms in groups, each term a linear
    form {alpha: factor} over the Taylor coefficients f_alpha of f at x:
    its value is the sum of factor * f_alpha, its error estimate that of
    |factor| times the estimates.
    """
    x = tuple(float(xi) for xi in x)
    _check_increasing(x)
    groups = groups_at(x)
    _record(evals=1)
    jet = f(JetPoint(x, [alpha for group in groups for form in group for alpha in form]))
    if not isinstance(jet, Jet):
        raise TypeError(
            "an evaluator called at a JetPoint must return a Jet of its Taylor"
            f" coefficients, not {type(jet).__name__}"
        )
    terms = [[(sum(k * jet.coeffs[alpha] for alpha, k in form.items()),
               sum(abs(k) * jet.errs[alpha] for alpha, k in form.items())) for form in group]
             for group in groups]
    sums = [sum(value for value, _ in group) for group in terms]
    scale = max(max([abs(s)] + [abs(value) for value, _ in group])
                for s, group in zip(sums, terms))
    err = sum(e for group in terms for _, e in group)
    if not scale > err:
        raise ValueError(
            "F vanishes within its error estimate under this operator: its"
            f" largest term {scale:.2e} does not exceed the residual's estimate {err:.2e}"
        )
    return sum(sums), scale


# -- the operators on jets -------------------------------------------------


def _add(form, factor, other):
    # form += factor * other, for linear forms {alpha: factor}
    for alpha, k in other.items():
        form[alpha] = form.get(alpha, 0.0) + factor * k


def apply_bsa(op, f, x):
    """Residual of the operator on the evaluator f at the point x.

    Returns (residual, scale).  The scale is the largest term that entered
    the cancellation, so residual/scale is the meaningful smallness.  f
    is a function of the points alone, as F_hwv is: whatever else it reads
    stays fixed while the points move.
    """
    if len(x) != len(op.dims):
        raise ValueError(f"point has {len(x)} coordinates, operator wants {len(op.dims)}")
    weights = tuple(h_weight(d_, op.kappa) for d_ in op.dims)
    j0 = op.j - 1

    def groups_at(x):
        z, others = x[j0], [i for i in range(len(x)) if i != j0]
        memo = {}

        def lowered(suffix, beta):
            # the coefficient beta of L_{-n_1} .. L_{-n_k} f for the suffix
            # (n_1, .., n_k) of a composition, as a form over the jet of f
            if not suffix:
                return {beta: 1.0}
            if (suffix, beta) not in memo:
                form = memo[suffix, beta] = {}
                for _, alpha, factor in generator_terms(-suffix[0], z, x, weights, beta, others):
                    _add(form, factor, lowered(suffix[1:], alpha))
            return memo[suffix, beta]

        groups = []
        for term in op.compositions:
            # one piece per outer point i of the first factor L_{-n_1}
            pieces = {}
            for i, alpha, factor in generator_terms(-term.factors[0], z, x, weights,
                                                    _multi_index(len(x)), others):
                _add(pieces.setdefault(i, {}), term.coefficient * factor,
                     lowered(term.factors[1:], alpha))
            groups.append(list(pieces.values()))
        return groups

    return _operator_check(f, x, groups_at)


def vertex_prefactor(dims, kappa):
    """Evaluator for the no-screening product of powered differences,
    prod_{i<k} (x_k - x_i)**(2 (d_i-1)(d_k-1)/kappa): rho with no
    screening variables, whose jet at a JetPoint is exact."""
    counts = (0,) * len(dims)
    return lambda y: rho(ChamberPoint(y[0] - 1.0, y), dims, counts, kappa)


def sle_pde_check(f, x, kappa, j):
    """Second order growth process equation applied directly at x.

    kappa/2 d^2/dx_j^2 + sum_{i != j} (2/(x_i-x_j) d/dx_i - 2hw/(x_i-x_j)^2)
    with hw = h_weight(2, kappa) = (6-kappa)/(2 kappa); all points carry
    that same weight.
    Returns (residual, scale) like apply_bsa.
    """
    if not 1 <= j <= len(x):
        raise ValueError(f"position {j} out of range for n={len(x)}")
    _check_kappa(kappa)
    hw = h_weight(2, kappa)
    j0 = j - 1

    def groups_at(x):
        n = len(x)
        # the second derivative is twice its Taylor coefficient
        terms = [{_multi_index(n, [(j0, 2)]): kappa}]
        for i in range(n):
            if i != j0:
                dy = x[i] - x[j0]
                terms.append({_multi_index(n, [(i, 1)]): 2.0 / dy})
                terms.append({_multi_index(n): -2.0 * hw / dy**2})
        return [terms]

    return _operator_check(f, x, groups_at)


_PROPORTIONALITY_SAMPLES = 20
_IDENTITY_SAMPLES = 100


def _exp_quadratic(coeffs):
    """Evaluator of exp(s), s the sum over pairs (i, k) of b dy + c dy**2
    with dy = y_k - y_i, whose jet at a JetPoint is exact: s is a
    quadratic, so its Taylor coefficients stop at order two."""

    def f(point):
        index = point.index
        pos = {alpha: p for p, alpha in enumerate(index)}
        n = len(point)
        E = np.zeros(len(index))
        s = 0.0
        for (i, k), (b, c) in coeffs.items():
            dy = point[k] - point[i]
            s += b * dy + c * dy * dy
            # s moves by (b + 2 c dy) (t_k - t_i) + c (t_k - t_i)**2
            slope = b + 2.0 * c * dy
            for raised, value in (([(k, 1)], slope), ([(i, 1)], -slope), ([(k, 2)], c),
                                  ([(i, 2)], c), ([(i, 1), (k, 1)], -2.0 * c)):
                p = pos.get(_multi_index(n, raised))
                if p is not None:
                    E[p] += value
        P = math.exp(s) * exp_series(tables(index), E, {})
        return Jet(index, dict(zip(index, P.tolist())), dict.fromkeys(index, 0.0))

    return f


def sle_proportionality_check(x, kappa, j, seed=7):
    """Largest relative gap between the direct second order equation and
    kappa/2 times the composed operator, over random smooth translation
    invariant test functions, each the exponential of a quadratic in the
    differences of the points.
    """
    x = tuple(float(xi) for xi in x)
    dims = (2,) * len(x)
    op = build_bsa(j, dims, kappa)
    rng = random.Random(seed)
    pairs = [(i, k) for i in range(len(x)) for k in range(i + 1, len(x))]
    worst = 0.0
    for _ in range(_PROPORTIONALITY_SAMPLES):
        f = _exp_quadratic(
            {pair: (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for pair in pairs})
        direct, _ = sle_pde_check(f, x, kappa, j)
        composed, _ = apply_bsa(op, f, x)
        target = 0.5 * kappa * composed
        denom = max(abs(direct), abs(target))
        if denom == 0.0:
            continue
        worst = max(worst, abs(direct - target) / denom)
    return worst


def _global_check(f, x, p, weights):
    # -L_p about the origin over every point, one term per (point, multi-index)
    return _operator_check(f, x, lambda x: [[
        {alpha: -factor} for _, alpha, factor
        in generator_terms(p, 0.0, x, weights, _multi_index(len(x)), range(len(x)))]])


def translation_check(f, x):
    """Sum of all first derivatives at x, -L_{-1} F; scale is the largest one."""
    return _global_check(f, x, -1, (0.0,) * len(x))


def euler_check(f, x, degree):
    """Euler operator sum x_i d/dx_i minus the homogeneity degree: -L_0 F
    with the weight -degree on the first point and 0 on the others."""
    return _global_check(f, x, 0, (-degree,) + (0.0,) * (len(x) - 1))


def special_conformal_check(f, x, weights):
    """Special conformal generator sum_i (x_i**2 d/dx_i + 2 h_i x_i) at x,
    -L_1 F with h_i the weights; it holds for the function of a vector that
    spans a trivial subrepresentation, not for its rho terms one by one."""
    if len(weights) != len(x):
        raise ValueError(f"{len(weights)} weights for {len(x)} points")
    return _global_check(f, x, 1, weights)


def mobius_check(v, mu, x, kappa, rel_tol=1e-9):
    """Compare the function of v against its pullback under a Mobius map.

    mu = (a, b, c, d) acts as z -> (a z + b)/(c z + d) and must preserve
    the ordering of the points; v must span a trivial subrepresentation.
    Where |F| does not exceed its error estimate at the points or at their
    images, F vanishes within its error estimate and the check raises.
    """
    a, b, c, d = (float(t) for t in mu)
    if a * d - b * c <= 0:
        raise ValueError("the map must be orientation preserving")
    # the key of every cache the checks and the evaluations read, formed once
    dims, coeffs = v.space.dims, frozenset(v.coeffs.items())
    if not _hwv_test(dims, coeffs, 1):
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
    for xi, dim in zip(x, dims):
        prefactor *= (det / (c * xi + d) ** 2) ** h_weight(dim, kappa)
    value = _estimated_F(dims, coeffs, x, kappa, rel_tol)
    transformed = prefactor * _estimated_F(dims, coeffs, mapped, kappa, rel_tol)
    return {
        "mu": (a, b, c, d),
        "points": x,
        "mapped": mapped,
        "value": value,
        "transformed": transformed,
        "deviation": abs(transformed - value) / abs(value),
    }


def _estimated_F(dims, coeffs, x, kappa, rel_tol):
    # F_hwv at x of the vector on dims with the (index, coefficient) pairs
    # coeffs, refused where its modulus does not exceed its error estimate
    with eval_stats() as stats:
        value = _F_hwv(dims, coeffs, x, kappa, rel_tol)
    if not abs(value) > stats.err_est:
        raise ValueError(
            f"F vanishes within its error estimate at {x}: |F| = {abs(value):.2e}"
            f" does not exceed the estimate {stats.err_est:.2e}"
        )
    return value


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
