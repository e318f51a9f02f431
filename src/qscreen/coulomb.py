"""Coulomb gas integrals on the real chamber.

Evaluates the positive integrand on configurations x0 < x_1 < ... < x_n,
the screened integrals over nested ordered simplices (a tanh-sinh rule per
screening variable, each level's step halved until the quadrature's own
error estimate meets the requested tolerance), the rephased hypercube
variants, the boundary fusion constants, conformal weight and exponent
helpers, and a direct contour oracle that integrates the same density over
explicitly constructed nested loops with the branch tracked along the path.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, gammasgn, roots_legendre

from .qseries import KappaParams, QScalar, eval_q, qfact


@dataclass(frozen=True)
class ChamberPoint:
    """Anchor and marked points with x0 < x_1 < ... < x_n strictly, all finite."""

    x0: float
    xs: tuple

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "xs", tuple(float(x) for x in self.xs))
        if not self.xs:
            raise ValueError("at least one marked point is required")
        _check_increasing((self.x0,) + self.xs)

    @property
    def n(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class ScreeningConfig:
    """Counts of screening variables per interval."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("screening counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative error the nested quadrature must meet, by its own estimate."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass
class EvalStats:
    """What the evaluations inside an eval_stats() block report.

    err_est is the absolute error estimate of the values they returned:
    rho adds its own, and each sum of rho values (tilde_rho, phi,
    F_anchor, F_hwv) adds |weight| times the estimate of every term.
    """

    err_est: float = 0.0


_STATS = contextvars.ContextVar("qscreen_eval_stats", default=None)


@contextmanager
def eval_stats():
    """Collect an EvalStats of the evaluations made inside the block."""
    stats = EvalStats()
    token = _STATS.set(stats)
    try:
        yield stats
    finally:
        _STATS.reset(token)


def _record(err):
    stats = _STATS.get()
    if stats is not None:
        stats.err_est += err


def _dims_counts(dims, m, n=None):
    """Validated dimensions and screening counts, one of each per point;
    n, when given, is the number of marked points of the chamber."""
    dims = tuple(int(d) for d in dims)
    counts = m.counts if isinstance(m, ScreeningConfig) else tuple(int(c) for c in m)
    if n is not None and len(dims) != n:
        raise ValueError(f"expected {n} dimensions, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive integers")
    if len(counts) != len(dims):
        raise ValueError(f"expected {len(dims)} screening counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("screening counts must be nonnegative")
    return dims, counts


def _betas(dims, kappa):
    # index 0 is the uncharged anchor
    return [0.0] + [4.0 * (d - 1) / kappa for d in dims]


def _check_convergent(dims, kappa):
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    dmax = max(dims)
    if dmax > 1 and not kappa > 4.0 * (dmax - 1):
        raise ValueError(
            f"kappa={kappa} is outside convergent regime for dimensions {tuple(dims)}"
            f" (need kappa > {4.0 * (dmax - 1)})"
        )


def _check_increasing(xs):
    if not all(math.isfinite(x) for x in xs) or any(
        not a < b for a, b in zip(xs, xs[1:])
    ):
        raise ValueError("coordinates must be finite and increase strictly")


def _x_prefactor(xs, dims, kappa):
    total = 1.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            e = 2.0 * (dims[i] - 1) * (dims[j] - 1) / kappa
            if e:
                total *= (xs[j] - xs[i]) ** e
    return total


# Each level of the nested integral is int_0^1 t^aL (1-t)^aR g(t) dt.  The
# double-exponential substitution t = 1/(1 + exp(-pi sinh u)) (Takahasi-Mori
# 1974) turns it into an integral over the real line that decays double
# exponentially, whatever the endpoint powers; the trapezoidal rule with
# step h in u then converges like exp(-c/h).

# nodes nearer than exp(_LOG_EDGE) to an end of (0, 1), or lighter than
# exp(_LOG_LIGHT) times the heaviest node, are not kept
_LOG_EDGE = math.log(1e-300)
_LOG_LIGHT = math.log(1e-20)


@lru_cache(maxsize=None)
def _unit_rule_build(aL, aR, grow, h, shift):
    """Tanh-sinh rule sum_k w_k g(t_k) for int_0^1 t^aL (1-t)^aR g(t) dt.

    The nodes sit at u = (k + shift) h.  Returns t, 1 - t, log t and log w:
    t and 1 - t are each formed from u, so both keep full relative
    precision at their end, and the endpoint powers are folded into the
    weights in log space.  g may grow like (1-t)^(-grow) toward t = 1.
    The weight of every node that is not kept is added to the outermost
    kept node on its side, where g has reached its limit: that adds the
    tails beyond the nodes analytically.
    """
    if aL <= -1.0 or aR <= -1.0:
        raise ValueError("endpoint exponents must exceed -1")
    # beyond these u the weights have fallen by more than exp(-60)
    u_lo = -math.asinh(80.0 / (math.pi * (1.0 + aL)))
    u_hi = math.asinh(80.0 / (math.pi * (1.0 + aR)))
    u = (np.arange(math.floor(u_lo / h - shift), math.ceil(u_hi / h - shift) + 1) + shift) * h
    s = math.pi * np.sinh(u)
    logt = -np.logaddexp(0.0, -s)
    log1mt = -np.logaddexp(0.0, s)
    logw = np.log(h * math.pi * np.cosh(u)) + (1.0 + aL) * logt + (1.0 + aR) * log1mt
    heavy = logw - grow * log1mt >= logw.max() + _LOG_LIGHT
    kept = np.flatnonzero((logt >= _LOG_EDGE) & (log1mt >= _LOG_EDGE) & heavy)
    a, b = kept[0], kept[-1]
    logw[a] = np.logaddexp.reduce(logw[: a + 1])
    logw[b] = np.logaddexp.reduce(logw[b:])
    logt, log1mt, logw = logt[a : b + 1], log1mt[a : b + 1], logw[a : b + 1]
    return np.exp(logt), np.exp(log1mt), logt, logw


def _unit_rule(level, h, shift):
    return _unit_rule_build(level.aL, level.aR, level.grow, h, shift)


@dataclass(frozen=True)
class _Level:
    group: int
    top: bool
    aL: float
    aR: float
    env: float
    # an inner variable's integrand grows toward its upper end like the
    # group's upper charge, where its ancestors may all have piled up
    grow: float


def _build_levels(counts, betas, kappa):
    # integration proceeds outermost first within each group: the variable
    # nearest x_i ranges over (x_{i-1}, x_i), each one below it over
    # (x_{i-1}, w_above).  env is the growth exponent of the nested inner
    # integral at the lower end: k inner variables contribute k measure
    # factors, k lower-endpoint powers and C(k,2)+k vanishing pair factors.
    levels = []
    for i, mi in enumerate(counts, start=1):
        for r in range(mi, 0, -1):
            k = r - 1
            env = k * (1.0 - betas[i - 1]) + (8.0 / kappa) * (0.5 * k * (k - 1) + k)
            aL = -betas[i - 1] + env
            aR = -betas[i] if r == mi else 8.0 / kappa
            levels.append(_Level(i, r == mi, aL, aR, env, 0.0 if r == mi else betas[i]))
    return levels


@dataclass(frozen=True)
class _Geometry:
    """The chamber as the levels see it.  charges[idx] lists, for every
    charge that level idx does not fold into its rule, (beta, c, side):
    the distance is c + lo (side 0, charges left of the interval) or
    c + hi (side 1, charges at or right of its upper end).  between[i][g]
    is x_{i-1} - x_g, the gap from group g's upper end to group i's lower."""

    gaps: tuple
    charges: tuple
    between: tuple
    pair: float


def _geometry(levels, x_ext, betas, kappa):
    gaps = tuple(b - a for a, b in zip(x_ext, x_ext[1:]))
    charges = []
    for lev in levels:
        i = lev.group
        own = []
        for j, beta in enumerate(betas):
            if not beta or j == i - 1 or (j == i and lev.top):
                continue
            if j < i:
                own.append((beta, x_ext[i - 1] - x_ext[j], 0))
            else:
                own.append((beta, x_ext[j] - x_ext[i], 1))
        charges.append(tuple(own))
    between = tuple(
        tuple(x_ext[i - 1] - x_ext[g] for g in range(i)) for i in range(len(x_ext))
    )
    return _Geometry(gaps, tuple(charges), between, 8.0 / kappa)


# elements per array at the innermost level: bounds the memory a level holds
_CHUNK_CAP = 1 << 16


def _level_sum(levels, idx, rule, rules, outer, geo):
    """Sum over the nodes of level idx, and nested inside it over every
    later level, for each node of the outer grid.

    A variable is carried as offsets, never as a position: lo is its
    distance to its lower end (with log lo), hi to its group's upper
    charge, up to its own upper end.  Every distance the integrand needs
    is a sum of these and of gaps between the marked points, so none is
    lost to cancellation however close a node sits to an end.  outer
    holds (lo, log lo, hi, up) of each outer level, flat over the outer
    grid; this level's arrays are (nodes, outer grid).
    """
    lev = levels[idx]
    n = len(rule[0])
    size = outer[0][0].size if outer else 1
    if n * size > _CHUNK_CAP and size > 1:
        step = max(1, _CHUNK_CAP // n)
        return np.concatenate([
            _level_sum(levels, idx, rule, rules,
                       [tuple(a[s : s + step] for a in carried) for carried in outer], geo)
            for s in range(0, size, step)
        ])
    t, omt, logt, logw = (a[:, None] for a in rule)
    if lev.top:
        S = geo.gaps[lev.group - 1]
        logS = math.log(S)
    else:
        S, logS = outer[-1][0], outer[-1][1]
    last = idx == len(levels) - 1
    shape = (n, size)
    up = S * omt
    hi = up if lev.top else outer[-1][2] + up
    # the innermost level needs lo only for charges left of its interval
    # and for variables of earlier groups
    needs_lo = (
        not last
        or levels[0].group != lev.group
        or any(side == 0 for _, _, side in geo.charges[idx])
    )
    lo = S * t if needs_lo else None
    # G, the log of weight times integrand, starts from the rule's column
    # and the row of the parent's offset; the envelope lo^(-env) splits
    # the same way
    G = np.empty(shape)
    np.add(logw - lev.env * logt, (1.0 + lev.aL + lev.aR - lev.env) * logS, out=G)
    tmp = np.empty(shape)
    for beta, c, side in geo.charges[idx]:
        dist = hi if side else lo
        np.log(np.add(dist, c, out=tmp) if c else dist, out=tmp)
        np.multiply(tmp, -beta, out=tmp)
        np.add(G, tmp, out=G)
    # pair factors with every outer variable but the parent, which the
    # rule holds; they share one exponent, so one log of their product
    pairs = None
    ancestor = up
    for p in range(idx - 1, -1, -1):
        if levels[p].group == lev.group:
            if p == idx - 1:
                continue
            ancestor = ancestor + outer[p + 1][3]
            factor = ancestor
        else:
            gap = geo.between[lev.group][levels[p].group]
            factor = np.add(lo, outer[p][2] + gap, out=tmp)
        if pairs is None:
            pairs = factor.copy() if factor is tmp else factor
        else:
            np.multiply(pairs, factor, out=pairs)
    if pairs is not None:
        # a product that underflowed to zero leaves a term far below
        # rounding: its log is -inf and the term exactly zero
        with np.errstate(divide="ignore"):
            np.log(pairs, out=pairs)
        np.multiply(pairs, geo.pair, out=pairs)
        np.add(G, pairs, out=G)
    np.exp(G, out=G)
    if last:
        return G.sum(axis=0)
    carried = [tuple(np.broadcast_to(a, shape).reshape(-1) for a in c) for c in outer]
    own = tuple(np.broadcast_to(a, shape).reshape(-1) for a in (lo, logS + logt, hi, up))
    inner = _level_sum(levels, idx + 1, rules[idx + 1], rules, carried + [own], geo)
    G *= inner.reshape(shape)
    return G.sum(axis=0)


def _nested(levels, rules, geo):
    return float(_level_sum(levels, 0, rules[0], rules, [], geo)[0])


class QuadratureError(ArithmeticError):
    """The nested quadrature cannot meet the requested rel_tol."""


def _first_step(rel_tol):
    # a level's error is typically near 1e-4, 1e-6 and 1e-9 at these steps
    return 0.5 if rel_tol >= 1e-4 else 0.25 if rel_tol >= 1e-6 else 0.125


# no step goes below _MIN_STEP and no grid holds more than _GRID_BUDGET
# nodes
_MIN_STEP = 2.0 ** -6
_GRID_BUDGET = 2.5e8
# relative rounding error of the nested sum, per level
_ROUNDING = 4.0 * float(np.finfo(float).eps)
# steps that met rel_tol for (dims, counts, kappa, rel_tol): later points
# start from them, so nearby points use one rule and the values stay
# smooth in x, which the finite-difference checks rely on
_STEPS = {}


def _quadrature(levels, geo, rel_tol, key):
    """The nested sum and its error estimate, with the step of one level
    at a time halved until the estimate meets rel_tol.

    The estimate for a level shifts that level's nodes by half a step and
    keeps every other level: the difference is twice that level's error.
    The error of a tensor grid belongs to the levels one by one; a shift of
    all levels at once, or the every-other-node subgrid, misses it.  The
    estimate adds the rounding floor of the sum.
    """
    ell = len(levels)
    steps = list(_STEPS.get(key, (_first_step(rel_tol),) * ell))
    head = f"rho with l={ell} screening variables at rel_tol={rel_tol:g}"
    halved = ""
    while True:
        rules = [_unit_rule(lev, h, 0.0) for lev, h in zip(levels, steps)]
        grid = math.prod(len(r[0]) for r in rules)
        if grid > _GRID_BUDGET:
            raise QuadratureError(
                f"{head}: {grid:.2e} nodes exceed the budget of"
                f" {_GRID_BUDGET:.1e}{halved}"
            )
        value = _nested(levels, rules, geo)
        ests = []
        for k, (lev, h) in enumerate(zip(levels, steps)):
            moved = rules[:k] + [_unit_rule(lev, h, 0.5)] + rules[k + 1 :]
            ests.append(abs(_nested(levels, moved, geo) - value))
        floor = ell * _ROUNDING * value
        est = sum(ests) + floor
        if est <= rel_tol * value:
            _STEPS[key] = tuple(steps)
            return value, est
        k = int(np.argmax(ests))
        if ests[k] <= floor or steps[k] <= _MIN_STEP:
            raise QuadratureError(
                f"{head}: error estimate {est / value:.2e}; level {k}, the"
                f" largest share ({ests[k] / value:.2e}), is at the"
                + (" rounding floor" if ests[k] <= floor else " smallest step")
            )
        halved = f" after halving level {k} (error estimate {ests[k] / value:.2e})"
        steps[k] /= 2.0


def rho(c: ChamberPoint, dims, m, kappa, quad: QuadratureSpec | None = None) -> float:
    """Screened integral over the nested ordered simplices.

    m gives the number of screening variables per interval.  Requires
    kappa to exceed 4(max d_i - 1); outside that regime the integral
    diverges and the call is refused.  The value meets quad.rel_tol by the
    quadrature's own estimate, which an eval_stats() block receives, or
    the call raises QuadratureError.
    """
    dims, counts = _dims_counts(dims, m, c.n)
    _check_convergent(dims, kappa)
    quad = quad if quad is not None else QuadratureSpec()
    pref = _x_prefactor(c.xs, dims, kappa)
    if sum(counts) == 0:
        return pref
    betas = _betas(dims, kappa)
    levels = _build_levels(counts, betas, kappa)
    geo = _geometry(levels, (c.x0,) + c.xs, betas, kappa)
    key = (dims, counts, float(kappa), quad.rel_tol)
    value, est = _quadrature(levels, geo, quad.rel_tol, key)
    _record(pref * est)
    return pref * value


def tilde_rho(c: ChamberPoint, dims, m, kappa, quad: QuadratureSpec | None = None) -> complex:
    """Rephased variant: exact q-prefactor times the real integral."""
    dims, counts = _dims_counts(dims, m, c.n)
    with eval_stats() as stats:
        base = rho(c, dims, counts, kappa, quad)
    kp = KappaParams(kappa)
    pref = complex(1.0)
    for mi in counts:
        scalar = qfact(mi) * QScalar.q_power(-(mi * (mi - 1) // 2))
        pref *= eval_q(scalar, kp)
    _record(abs(pref) * stats.err_est)
    return pref * base


def b_const(d, d1, d2, kappa, quad: QuadratureSpec | None = None) -> float:
    """Fusion constant: the simplex integral on [0, 1] with endpoint
    charges d1, d2 and (d1 + d2 - 1 - d)/2 screening variables."""
    d, d1, d2 = int(d), int(d1), int(d2)
    if min(d, d1, d2) < 1:
        raise ValueError("dimensions must be positive integers")
    two_m = d1 + d2 - 1 - d
    if two_m < 0 or two_m % 2 or two_m // 2 > min(d1, d2) - 1:
        raise ValueError(f"d={d} not in decomposition of the pair ({d1}, {d2})")
    mm = two_m // 2
    if mm == 0:
        return 1.0
    c = ChamberPoint(-1.0, (0.0, 1.0))
    return rho(c, (d1, d2), (0, mm), kappa, quad)


def selberg_oracle(l, alpha, beta, gamma) -> float:
    """Selberg product formula for the l-dimensional hypercube integral.

    Divide by l! to compare with integrals over the ordered simplex.
    """
    l = int(l)
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        return 1.0
    if alpha <= 0 or beta <= 0:
        raise ValueError("parameters outside the convergence region")
    if l >= 2:
        if gamma <= -min(1.0 / l, alpha / (l - 1), beta / (l - 1)):
            raise ValueError("parameters outside the convergence region")
    elif gamma <= -1.0:
        raise ValueError("parameters outside the convergence region")

    def lg(x):
        if x <= 0 and abs(x - round(x)) < 1e-12:
            raise ValueError(f"Gamma pole at argument {x:g}")
        return float(gammaln(x)), float(gammasgn(x))

    log_total, sign = 0.0, 1.0
    for j in range(l):
        for arg in (alpha + j * gamma, beta + j * gamma, 1.0 + (j + 1) * gamma):
            v, s = lg(arg)
            log_total += v
            sign *= s
        for arg in (alpha + beta + (l + j - 1) * gamma, 1.0 + gamma):
            v, s = lg(arg)
            log_total -= v
            sign *= s
    return sign * math.exp(log_total)


def h_weight(d, kappa) -> float:
    """Boundary conformal weight of the degree-d field."""
    return (d - 1) * (2.0 * (d + 1) - kappa) / (2.0 * kappa)


def delta_fusion(d, d1, d2, kappa) -> float:
    """Exponent governing the merging asymptotics of a neighbor pair."""
    return (2.0 * (1 + d * d - d1 * d1 - d2 * d2) + kappa * (d1 + d2 - d - 1)) / (
        2.0 * kappa
    )


def delta_scaling(l, dims, kappa) -> float:
    """Homogeneity degree of the screened integrals under scaling."""
    dims = tuple(int(d) for d in dims)
    cross = sum(
        (dims[i] - 1) * (dims[j] - 1)
        for i in range(len(dims))
        for j in range(i + 1, len(dims))
    )
    stot = sum(d - 1 for d in dims)
    return (2.0 * cross - 4.0 * l * stot + 4.0 * l * (l - 1)) / kappa + l


class _Chain:
    """Accumulates quadrature nodes along one loop, with a zero-weight
    marker node at the reference point where the branch phase is fixed."""

    def __init__(self, nodes):
        self._xg, self._wg = roots_legendre(nodes)
        self.zs = []
        self.dzs = []
        self.ref = None
        self._count = 0

    def _push(self, z, dz):
        self.zs.append(z)
        self.dzs.append(dz)
        self._count += len(z)

    def seg(self, z0, z1, panels=1, grade_start=False, grade_end=False):
        z0, z1 = complex(z0), complex(z1)
        # graded ends halve 16 times toward the anchor
        graded = [0.0] + [0.5 ** k for k in range(16, -1, -1)]
        if grade_start:
            bounds = graded
        elif grade_end:
            bounds = [1.0 - b for b in graded][::-1]
        else:
            bounds = np.linspace(0.0, 1.0, max(1, panels) + 1).tolist()
        for a, b in zip(bounds, bounds[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            t = mid + half * self._xg
            self._push(z0 + (z1 - z0) * t, (z1 - z0) * half * self._wg)

    def arc(self, center, radius, a0, a1):
        panels = max(1, int(math.ceil(abs(a1 - a0) / (math.pi / 4))))
        bounds = np.linspace(a0, a1, panels + 1)
        for a, b in zip(bounds, bounds[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            th = mid + half * self._xg
            z = center + radius * np.exp(1j * th)
            self._push(z, 1j * radius * np.exp(1j * th) * half * self._wg)

    def mark_ref(self, z):
        self._push(np.array([complex(z)]), np.array([0j]))
        self.ref = self._count - 1

    def build(self):
        return np.concatenate(self.zs), np.concatenate(self.dzs), self.ref


def _min_gap(c):
    pts = (c.x0,) + c.xs
    return min(b - a for a, b in zip(pts, pts[1:]))


def _lollipop_chain(c, i, radius, depth, angle, m):
    # anchored loop: angled descent, corridor below the axis, rise to the
    # circle around x_i, full positive turn, and the reverse return
    x0, xi = c.x0, c.xs[i - 1]
    g = _min_gap(c)
    ch = _Chain(m)
    pa = complex(x0 + depth * math.tan(angle), -depth)
    pb = complex(xi, -depth)
    pc = complex(xi, -radius)
    corr = max(1, int(math.ceil(abs(pb - pa) / (g / 6.0))))
    ch.seg(x0, pa, grade_start=True)
    ch.seg(pa, pb, panels=corr)
    ch.seg(pb, pc, panels=2)
    ch.arc(xi, radius, -0.5 * math.pi, 0.0)
    ch.mark_ref(xi + radius)
    ch.arc(xi, radius, 0.0, 1.5 * math.pi)
    ch.seg(pc, pb, panels=2)
    ch.seg(pb, pa, panels=corr)
    ch.seg(pa, x0, grade_end=True)
    return ch.build()


def _potato_chain(c, i, reach, depth, height, dip, halfwidth, angle, approach, m):
    # outer loop of a nested pair: descends below everything, rises beyond
    # the inner loop at x_i + reach, returns above the axis, and dips under
    # each marked point left of x_i so their upward rays are never crossed
    x0, xs = c.x0, c.xs
    xi = xs[i - 1]
    g = _min_gap(c)
    h = g / 6.0
    ch = _Chain(m)
    pa = complex(x0 + depth * math.tan(angle), -depth)
    pb = complex(xi + reach, -depth)
    ch.seg(x0, pa, grade_start=True)
    ch.seg(pa, pb, panels=max(1, int(math.ceil(abs(pb - pa) / h))))
    ch.seg(pb, complex(xi + reach, 0.0), panels=2)
    ch.mark_ref(complex(xi + reach, 0.0))
    cur = complex(xi + reach, height)
    ch.seg(complex(xi + reach, 0.0), cur, panels=2)
    for j in range(i - 1, 0, -1):
        xj = xs[j - 1]
        p1 = complex(xj + halfwidth, height)
        p2 = complex(xj + halfwidth, -dip)
        p3 = complex(xj - halfwidth, -dip)
        p4 = complex(xj - halfwidth, height)
        ch.seg(cur, p1, panels=max(1, int(math.ceil(abs(p1 - cur) / h))))
        ch.seg(p1, p2, panels=3)
        ch.seg(p2, p3, panels=2)
        ch.seg(p3, p4, panels=3)
        cur = p4
    pfin = complex(x0 + approach, height)
    ch.seg(cur, pfin, panels=max(1, int(math.ceil(abs(pfin - cur) / h))))
    ch.seg(pfin, x0, grade_end=True)
    return ch.build()


def _anchored_log(z, pole, ref):
    # continued logarithm along the chain, rephased to be real at the
    # reference node; valid because consecutive nodes subtend small angles
    w = z - pole
    steps = np.log(w[1:] / w[:-1])
    cum = np.concatenate(([0.0j], np.cumsum(steps)))
    phase = cum.imag - cum.imag[ref]
    return np.log(np.abs(w)) + 1j * phase


def _unwrap_from(a, r):
    # unwrap along axis 0 outward from row r in both directions
    out = np.empty_like(a)
    out[r:] = np.unwrap(a[r:], axis=0)
    out[: r + 1] = np.unwrap(a[r::-1], axis=0)[::-1]
    return out


def _pair_sum(z1, a1, z2, a2, ref1, ref2, expo):
    # sum a1_j a2_k |z2_k - z1_j|^expo exp(i expo Theta(j,k)) with the pair
    # angle continued over the whole parameter square from the reference
    # pair, where it is zero; unwrapping runs outward from the reference
    # so corner ambiguities stay confined to negligible-weight nodes
    row_pr = np.angle(z2 - z1[ref1])
    row_u = _unwrap_from(row_pr, ref2)
    total = 0j
    gross = 0.0
    block = max(1, 2_000_000 // max(1, len(z1)))
    for s in range(0, len(z2), block):
        zb = z2[s : s + block]
        D = zb[None, :] - z1[:, None]
        A = np.angle(D)
        U = _unwrap_from(A, ref1)
        TH = U + (row_u[s : s + block] - row_pr[s : s + block])[None, :]
        T = (
            a1[:, None]
            * a2[s : s + block][None, :]
            * np.exp(expo * (np.log(np.abs(D)) + 1j * TH))
        )
        total += T.sum()
        gross += np.abs(T).sum()
    return total, gross


def _oracle_chains(c, groups, m):
    g = _min_gap(c)
    if len(groups) == 1:
        return [_lollipop_chain(c, groups[0], 0.25 * g, 0.32 * g, 0.40, m)]
    i1, i2 = groups
    if i1 == i2:
        inner = _lollipop_chain(c, i1, 0.10 * g, 0.14 * g, 0.45, m)
        outer = _potato_chain(
            c, i1, 0.20 * g, 0.24 * g, 0.18 * g, 0.05 * g, 0.08 * g, 0.20, 0.10 * g, m
        )
        return [inner, outer]
    first = _lollipop_chain(c, i1, 0.15 * g, 0.20 * g, 0.45, m)
    second = _lollipop_chain(c, i2, 0.25 * g, 0.32 * g, 0.20, m)
    return [first, second]


def _oracle_eval(c, betas, groups, kappa, m):
    chains = _oracle_chains(c, groups, m)
    factors = []
    for z, dz, ref in chains:
        logf = np.zeros(len(z), dtype=complex)
        for j, xj in enumerate(c.xs):
            if betas[j]:
                logf += (-betas[j]) * _anchored_log(z, xj, ref)
        factors.append(dz * np.exp(logf))
    if len(chains) == 1:
        terms = factors[0]
        return terms.sum(), np.abs(terms).sum()
    (z1, _, r1), (z2, _, r2) = chains
    return _pair_sum(z1, factors[0], z2, factors[1], r1, r2, 8.0 / kappa)


_ORACLE_NODES = 12


def contour_phi_oracle(c: ChamberPoint, dims, l, kappa) -> complex:
    """Direct contour integral over nested anchored loops.

    Builds the loops explicitly for at most two screening variables,
    continues the branch along each loop from the reference configuration
    where the integrand is positive, and refines the node count until two
    successive evaluations agree.
    """
    dims, counts = _dims_counts(dims, l, c.n)
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    ell = sum(counts)
    if ell > 2:
        raise ValueError("contour oracle supports at most two screening loops")
    xpref = _x_prefactor(c.xs, dims, kappa)
    if ell == 0:
        return complex(xpref)
    betas = _betas(dims, kappa)[1:]
    groups = [i for i, li in enumerate(counts, start=1) for _ in range(li)]
    prev = None
    for mult in (1, 2, 4):
        val, gross = _oracle_eval(c, betas, groups, kappa, _ORACLE_NODES * mult)
        val *= xpref
        gross *= xpref
        if prev is not None:
            err = abs(val - prev)
            if err <= max(5e-8 * abs(val), 1e-9 * gross, 1e-12):
                return val
        prev = val
    raise RuntimeError(
        "contour oracle did not converge at four times the base node count"
    )
