"""Coulomb gas integrals on the real chamber.

Evaluates the positive integrand on configurations x0 < x_1 < ... < x_n,
the screened integrals over nested ordered simplices (each interval's
variables nested outward from its middle one, the pivot, which ranges over
the whole interval: those above it upward, toward x_i, those below it
downward; per screening variable a tanh-sinh rule, stopping at each end
where the tail it folds onto its outermost node moves the sum by at most
a hundredth of the requested tolerance, a bound the error estimate
includes, and one list of the integrand's factors that the rule does not
hold; one loop halves a level's step on the full grid until the
quadrature's own error estimate meets that tolerance, each halving
summing only the nodes it adds, every grid of a pass in one nested sum,
and starting each level at the step where its double-exponential error
meets that tolerance, the variables of one group staggered so that
their tensor grid does not alias), carrying their Taylor jet in the marked
points through every level (a plain value is the jet over the zero
multi-index alone, so one path serves both), the boundary fusion
constants, conformal weight and exponent helpers, and a direct contour
oracle that integrates the same density over explicitly constructed
nested loops with the branch tracked along the path.  A value plans its
steps from the start steps for its rel_tol, and a jet from the final
steps of the plain value at its point.  Each level structure, the
levels of one (dims, counts, kappa, tail), is planned once (_Plan): its
levels, start steps and each level's fixed program, so a pass derives
nothing from the structure and costs its array operations.  One cache
keeps each result, value or jet, once per argument set, and every
evaluator reads it, so a result depends on its arguments alone and a
repeated call returns the same bits.  Every plan writes the arrays of
its sums and series into its thread's scratch arrays, which no result
is a view of.
Everything here is numeric; the exact q-dependent factors live in
correspondence.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jet import Jet, JetPoint, _scratch, exp_series, log_series, product
from .jet import tables as jet_tables


@dataclass(frozen=True)
class ChamberPoint:
    """Anchor and marked points with x0 < x_1 < ... < x_n strictly, all finite.

    Marked points given as a JetPoint stay one, so an evaluator can tell
    that a jet in them is asked for."""

    x0: float
    xs: tuple

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        if not isinstance(self.xs, JetPoint):
            object.__setattr__(self, "xs", tuple(float(x) for x in self.xs))
        if not self.xs:
            raise ValueError("at least one marked point is required")
        _check_increasing((self.x0,) + self.xs)

    @property
    def n(self) -> int:
        return len(self.xs)


@dataclass
class EvalStats:
    """What the evaluations inside an eval_stats() block report.

    err_est is the absolute error estimate of the values they returned
    (of a Jet, its value coefficient's): rho adds its own, and each sum of
    rho values (phi, F_anchor, F_hwv) adds |weight| times the estimate of
    every term.  grid_evals counts the grids the quadrature summed, and
    nodes their node evaluations: for each grid, the product of its rules'
    lengths.  passes counts the nested calls that summed them, one per
    halving pass.  A kept rho result counts the grids it summed at every
    read, so a repeated call to rho, phi, F_anchor or F_hwv counts the
    same.  evals counts the evaluator calls of the operator checks in pde,
    one per check.
    """

    err_est: float = 0.0
    grid_evals: int = 0
    nodes: int = 0
    passes: int = 0
    evals: int = 0


_STATS = contextvars.ContextVar("qscreen_eval_stats", default=None)


@contextmanager
def eval_stats():
    """Collect an EvalStats of the evaluations made inside the block; an
    enclosing block receives them too."""
    stats = EvalStats()
    token = _STATS.set(stats)
    try:
        yield stats
    finally:
        _STATS.reset(token)
        _record(**vars(stats))


def _record(err_est=0.0, grid_evals=0, nodes=0, passes=0, evals=0):
    stats = _STATS.get()
    if stats is not None:
        stats.err_est += err_est
        stats.grid_evals += grid_evals
        stats.nodes += nodes
        stats.passes += passes
        stats.evals += evals


def _dims_counts(dims, m, n=None):
    """Validated dimensions and screening counts, one of each per point;
    n, when given, is the number of marked points of the chamber."""
    dims = tuple(int(d) for d in dims)
    counts = tuple(int(c) for c in m)
    if not dims:
        raise ValueError("at least one marked point is required")
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


def _check_kappa(kappa):
    # also rejects nan; at kappa = inf the exact weights sit at q = 1
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")


def _check_convergent(dims, kappa):
    _check_kappa(kappa)
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


@lru_cache(maxsize=1024)
def _pair_exponents(dims, kappa):
    # the prefactor's power 2 (d_i - 1)(d_k - 1)/kappa of x_k - x_i, as
    # (i, k, e) for i < k with e != 0
    pairs = []
    for i, k in itertools.combinations(range(len(dims)), 2):
        e = 2.0 * (dims[i] - 1) * (dims[k] - 1) / kappa
        if e:
            pairs.append((i, k, e))
    return tuple(pairs)


def _x_prefactor(xs, dims, kappa):
    total = 1.0
    for i, k, e in _pair_exponents(dims, kappa):
        total *= (xs[k] - xs[i]) ** e
    return total


def _rho_degree(dims, ell, kappa):
    """Degree of homogeneity of every rho with ell screening variables on
    dims, read off the exponents it integrates: the prefactor's pair
    powers, ell measures dw, the ell (d_i - 1) charges -4/kappa each and
    the ell (ell - 1)/2 screening pairs 8/kappa each."""
    pairs = sum(e for _, _, e in _pair_exponents(dims, kappa))
    charge = sum(d - 1 for d in dims)
    return pairs + ell * (1.0 - 4.0 * charge / kappa) + 4.0 * ell * (ell - 1) / kappa


# Each level of the nested integral is int_0^1 t^aL (1-t)^aR g(t) dt.  The
# double-exponential substitution t = 1/(1 + exp(-pi sinh u)) (Takahasi-Mori
# 1974) turns it into an integral over the real line that decays double
# exponentially, whatever the endpoint powers; the trapezoidal rule with
# step h in u then converges like exp(-c/h).

# no node nearer than exp(_LOG_EDGE) to an end of (0, 1) is kept, the float
# floor.  Above it each end stops at its first node at or beyond the edge
# that _log_edge derives from the plan's tail (_plan_tail), where the tail
# folded onto that node moves a sum by about the tail relative, and no node
# lighter than the tail times the heaviest is kept
_LOG_EDGE = math.log(1e-300)


def _log_edge(a, b, tail):
    # log tau for an end where the weight goes like s^a in the distance s
    # to it and the integrand differs from its limit by O(s^b): the tail
    # within tau of the end holds about tau^(1 + a) of the weight, and
    # folded onto a node at or beyond tau it misplaces about tau^b of that,
    # tau^(1 + a + b) = tail in all
    return max(_LOG_EDGE, math.log(tail) / (1.0 + a + b))


def _plan_tail(x, betas, counts, rel_tol):
    """The tail of a plan's rules (_unit_rule_build), and the bound on the
    relative move of its sum that their folds make, for the l screening
    variables counts places in the chamber coordinates x.

    Each of a grid's l levels folds two ends, at each end moving the sum
    by up to tail * G relative: G = max(1, gap_i / delta_i) over the
    occupied intervals i, delta_i being the distance from interval i to
    the nearest charge off it.  The tail is the power of ten at or below
    1e-2 * rel_tol / (2 l G), so the bound 2 l tail G stays a hundredth of
    rel_tol, and nearby points share their rules.  A rel_tol above 1 asks
    no more than 1 does.
    """
    G = 1.0
    for i, m in enumerate(counts, start=1):
        for j, beta in enumerate(betas):
            if m and beta and not i - 1 <= j <= i:
                delta = x[i - 1] - x[j] if j < i else x[j] - x[i]
                G = max(G, (x[i] - x[i - 1]) / delta)
    ell = sum(counts)
    tail = 10.0 ** math.floor(math.log10(1e-2 * min(rel_tol, 1.0) / (2 * ell * G)))
    return tail, 2 * ell * tail * G


@lru_cache(maxsize=None)
def _unit_rule_build(aL, aR, grow, pair, tail, h, shift):
    """Tanh-sinh rule sum_k w_k g(t_k) for int_0^1 t^aL (1-t)^aR g(t) dt.

    The nodes sit at u = (k + shift) h.  Returns one array of the rows t,
    1 - t, log t and log w, written into it over the kept nodes: t and
    1 - t are each formed from u, so both keep full relative precision at
    their end, and the endpoint powers are folded into the weights in log
    space.  g may grow like (1-t)^(-grow) toward t = 1.  The weight of every node that is not kept is added to
    the outermost kept node on its side, where g has nearly reached its
    limit: that adds the tails beyond the nodes analytically.

    Each end stops at its first node at or beyond the edge
    tau = exp(_log_edge(a, b, tail)), so at every step the fold moves the
    sum by about tau^(1 + a + b) <= tail relative; a node lighter than
    tail times the heaviest, its growth toward t = 1 counted, is folded
    too.  (At its last node inside tau, up to a step further in, the fold
    would move it by up to tail^(1 - h).)  a is the end's weight
    exponent: aL at t -> 0, aR - grow at t -> 1.  b is the power at which
    g approaches its limit there: min(1, pair), pair being 8/kappa, as no
    variable brings a term that is not analytic to a marked point slower
    than 1 - beta + 8/kappa >= 8/kappa; but 0 where g grows, as that growth
    is already in a.  A charge at a distance delta beyond the end of an
    interval of length gap scales the move by up to (gap / delta)^b, which
    _plan_tail bounds.  The tests of both edges, the weight and the float
    floor are and-ed into one mask in place.
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
    keep = logw - grow * log1mt >= logw.max() + math.log(tail)
    rate = min(1.0, pair)
    # a node is kept when its inner neighbour lies inside the edge, so
    # the outermost kept node sits at or beyond it; past the last node
    # t = 1, and before the first 1 - t = 1
    edge = _log_edge(aL, rate, tail)
    keep[:-1] &= logt[1:] >= edge
    keep[-1] &= 0.0 >= edge
    edge = _log_edge(aR - grow, 0.0 if grow else rate, tail)
    keep[1:] &= log1mt[:-1] >= edge
    keep[0] &= 0.0 >= edge
    keep &= logt >= _LOG_EDGE
    keep &= log1mt >= _LOG_EDGE
    kept = np.flatnonzero(keep)
    a, b = kept[0], kept[-1]
    logw[a] = np.logaddexp.reduce(logw[: a + 1])
    logw[b] = np.logaddexp.reduce(logw[b:])
    out = np.empty((4, b + 1 - a))
    np.exp(logt[a : b + 1], out=out[0])
    np.exp(log1mt[a : b + 1], out=out[1])
    out[2] = logt[a : b + 1]
    out[3] = logw[a : b + 1]
    return out


def _unit_rule(level, h, shift):
    return _unit_rule_build(level.aL, level.aR, level.grow, level.pair, level.tail, h, shift)


@dataclass(frozen=True)
class _Level:
    """One screening variable of the nested sum, in group i: its interval
    is (x_(i-1), x_i).

    A group's pivot (_pivot) ranges over the whole interval; parent is
    None.  Every other variable nests inside its parent, the level of
    index parent: downward over (x_(i-1), parent), or, when mirrored,
    upward over (parent, x_i).  Its rule's t runs from the end it nests
    from (x_(i-1), or x_i when mirrored), whose power aL is, to the
    parent, whose pair power aR is; a pivot's runs from x_(i-1) to x_i.

    factors lists as (exponent, kind, k) the charges and earlier variables
    whose factor the rule does not hold: "charge" the charge at x_k; "span"
    the variable reached by adding level k's span to the distance of the
    factor before it, the first from the level's own span, one per earlier
    variable of the group but the parent; "group" level k of another
    group.  power is that of the level's own interval.  tail is the plan's
    (_plan_tail), where its rules stop.

    With its unit coordinates fixed, the variable sits at w = x_(i-1) + lo
    and moves with the points as omega = (hi dx_(i-1) + lo dx_i) / gap_i.
    A distance D to a charge at x_j or to a variable of another group
    moves by omega less that point's motion nu, so d log D =
    (omega - nu) / D stays below 1 / gap; the nested sums carry the jet
    of these factors (_moves).  The rest, the interval, the pairs within
    the group and a charge at an end of it, scale with the gap alone and
    move with no node: _rho_kept multiplies in their jet once (_steady).
    """

    group: int
    parent: int | None
    mirrored: bool
    aL: float
    aR: float
    # the growth exponents of the variables nested inside a level at each
    # end of its rule, which aL and aR hold but its weights do not: only a
    # pivot has variables at both
    envL: float
    envR: float
    # a variable's integrand grows toward its parent like the charge at
    # the interval's far end, where its ancestors may all have piled up
    grow: float
    # 8/kappa, the power of every pair of screening variables
    pair: float
    factors: tuple
    tail: float

    @property
    def pivot(self):
        return self.parent is None

    @property
    def power(self):
        # the measure and the powers the rule holds, less the envelopes
        # its weights do not
        return 1.0 + self.aL + self.aR - self.envL - self.envR


def _moves(lev, kind, k):
    # whether a factor of lev moves with the node: the charges off its
    # interval's ends and the variables of other groups
    return kind == "group" or kind == "charge" and not lev.group - 1 <= k <= lev.group


def _pivot(m):
    # the rank, counted from the top, of the variable that an interval of
    # m variables nests from: the middle one, whose rule holds both end
    # charges with the volume of the variables on either side, so that it
    # puts few nodes near either charge
    return (m - 1) // 2


def _envelope(k, beta, pair):
    # the growth exponent of the integral of k variables nested toward an
    # end that holds the charge beta: k measure factors, k powers of the
    # charge and C(k,2)+k vanishing pair factors
    return k * (1.0 - beta) + pair * (0.5 * k * (k - 1) + k)


def _factors(earlier, i, parent, mirrored, betas, pair):
    # a new level's factors (_Level.factors) after the levels `earlier`: a
    # rule holds the charge at the end its variable nests from, a pivot's
    # both, and its parent.  The spans run up the parent chain to the
    # pivot, then out along the other side; the other groups come last,
    # latest first
    held = (i - 1, i) if parent is None else (i if mirrored else i - 1,)
    factors = [(-beta, "charge", j) for j, beta in enumerate(betas) if beta and j not in held]
    if parent is not None:
        a = parent
        while not earlier[a].pivot:
            factors.append((pair, "span", a))
            a = earlier[a].parent
        factors += [(pair, "span", q) for q in range(a + 1, len(earlier)) if earlier[q].mirrored != mirrored]
    factors += [(pair, "group", p) for p in reversed(range(len(earlier))) if earlier[p].group != i]
    return tuple(factors)


def _build_levels(counts, betas, kappa, tail):
    # integration proceeds group by group, each from its pivot: then the
    # variables above it, each over (the one below, x_i), and then those
    # below it, each over (x_(i-1), the one above).  At most two variables
    # make the pivot the top one and the rest a chain below it
    pair = 8.0 / kappa
    levels = []
    for i, mi in enumerate(counts, start=1):
        if not mi:
            continue
        below, above = mi - 1 - _pivot(mi), _pivot(mi)
        lo, hi = betas[i - 1], betas[i]
        envL, envR = _envelope(below, lo, pair), _envelope(above, hi, pair)
        pivot = len(levels)
        levels.append(_Level(i, None, False, -lo + envL, -hi + envR, envL, envR, 0.0, pair,
                             _factors(levels, i, None, False, betas, pair), tail))
        for mirrored, count, near, far in ((True, above, hi, lo), (False, below, lo, hi)):
            parent = pivot
            for k in range(count - 1, -1, -1):
                env = _envelope(k, near, pair)
                levels.append(_Level(i, parent, mirrored, -near + env, pair, env, 0.0, far, pair,
                                     _factors(levels, i, parent, mirrored, betas, pair), tail))
                parent = len(levels) - 1
    return tuple(levels)


# elements per array at the innermost level, counting a jet's coefficients:
# a level sums a larger outer grid in chunks, so its arrays, and the
# scratch arrays they are written into, stay below this size
_CHUNK_CAP = 1 << 15


def _motion(tab, terms):
    # sum_k a_k * (coordinate k's motion), per place in tab.active, for
    # pairs (k, a_k) of a chamber coordinate and a number or node array:
    # the point x_k is variable k - 1 and moves at rate 1, and the anchor,
    # coordinate 0, never moves
    out = {}
    for k, a in terms:
        place = tab.place.get(k - 1)
        if place is not None:
            out[place] = out[place] + a if place in out else a
    return out


# A level's program (_program): what _level_sum decides from the level
# structure and the jet tables alone.  needs: whether it forms its offset
# from the end it nests from; parent: the keys of the parent's offsets
# from that end and the other, and of the log of the first; charges:
# (exponent, right of the interval, log written over the offset read,
# motion in a jet) per charge; pairs: (kind, key of the outer offset read,
# scratch key of the distance or None for the span's buffer, motion in a
# jet) per pair factor; carried: the ((p, field), fresh) later levels
# read; omega: the level's own motion; diffs: what it reads of x (_at)
_Step = namedtuple("_Step", "lev pivot power last needs parent charges pairs carried fresh omega diffs")


def _at(step, x):
    # what a level reads of x, once per nested call: its gap (a pivot's
    # log too), each charge's and other group's distance, and that gap
    i = step.lev.group
    gap = x[i] - x[i - 1]
    cs, gs = step.diffs
    return (gap, math.log(gap) if step.pivot else None, [x[a] - x[b] for a, b in cs],
            [None if g is None else (x[i - 1] - x[g], x[g] - x[g - 1]) for g in gs])


def _program(levels, tab):
    # each level's _Step for the jet tables tab.  A level reads its
    # parent's lo, hi and log at the end it nests from (fields 0 to 4: lo,
    # hi, span, log lo, log hi), each "span" factor's span, and each
    # "group" factor's hi, with its lo in a jet
    jet = bool(tab.active)
    # the place of chamber coordinate k, the variable k - 1
    place = {v + 1: p for v, p in tab.place.items()}.get
    reads = []
    for lev in levels:
        fields = set() if lev.pivot else {(lev.parent, 0), (lev.parent, 1), (lev.parent, 4 if lev.mirrored else 3)}
        for _, kind, k in lev.factors:
            if kind != "charge":
                fields.update(((k, 2),) if kind == "span" else ((k, 0), (k, 1)) if jet else ((k, 1),))
        reads.append(fields)
    steps = []
    for idx, lev in enumerate(levels):
        keys = sorted(pf for pf in set().union(*reads[idx + 1:]) if pf[0] <= idx)
        i, last, near = lev.group, idx == len(levels) - 1, int(lev.mirrored)
        # the last factor on each side, hi the charges at or right of x_i
        final = {int(kind == "charge" and k >= i): j for j, (_, kind, k) in enumerate(lev.factors) if kind != "span"}
        spare = last and not jet and not lev.pivot
        charges, cs, pairs, gs = [], [], [], []
        for j, (e, kind, k) in enumerate(lev.factors):
            if kind == "charge":
                moves = jet and _moves(lev, kind, k)
                charges.append((e, k >= i, spare and final[k >= i] == j, _motion(tab, ((k, 1.0),)) if moves else None))
                cs.append((k, i) if k >= i else (i - 1, k))
                continue
            g = levels[k].group if kind == "group" else None
            motion = tuple((place(c), (k, f)) for c, f in ((g - 1, 1), (g, 0)) if place(c) is not None) if jet and g else None
            pairs.append((kind, (k, 1 if g else 2), "tmp" if g else None if spare else "spans", motion))
            gs.append(g)
        if pairs:  # the first distance is written into the product
            pairs[0] = (*pairs[0][:2], "pairs", pairs[0][3])
        carried = [(pf, pf[0] < idx or lev.pivot or pf[1] >= 3) for pf in keys]
        # an offset is needed for a raised variable, for the factors that
        # read it and where a later level reads it
        steps.append(_Step(lev, lev.pivot, lev.power, last, jet or near in final or (idx, near) in keys,
                           () if lev.pivot else tuple((lev.parent, f) for f in (near, 1 - near, 3 + near)),
                           tuple(charges), tuple(pairs), tuple(carried), sum(new for _, new in carried),
                           tuple((place(c), f) for c, f in ((i - 1, 1), (i, 0)) if jet and place(c) is not None),
                           (tuple(cs), tuple(gs))))
    return tuple(steps)


class _Plan:
    """One level structure of rho, built once per (dims, counts, kappa,
    tail) (_plan) and hashed by identity, so the caches of its passes
    (_stack, _largest) hash no level: its levels, start steps per rel_tol
    and each level's program (_Step) per set of variables a jet raises."""

    def __init__(self, levels):
        self.levels, self._starts, self._programs = levels, {}, {}

    def start(self, rel_tol):
        if rel_tol not in self._starts:
            self._starts[rel_tol] = tuple(_start_steps(self.levels, rel_tol))
        return self._starts[rel_tol]

    def program(self, tab):
        if tab.active not in self._programs:
            self._programs[tab.active] = _program(self.levels, tab)
        return self._programs[tab.active]


@lru_cache(maxsize=None)
def _plan(dims, counts, kappa, tail):
    return _Plan(_build_levels(counts, _betas(dims, kappa), kappa, tail))


def _level_sum(steps, at, idx, rules, outer, tab, work, out):
    """Sum over the nodes of level idx, and nested inside it over every
    later level, for each node of the outer grid, into out, by executing
    the level's program steps[idx] (_Step) on the numbers at[idx] it reads
    of the chamber coordinates (_at).

    The grids of a pass are copies of one another, stacked on the first
    level's outer axis: rules[idx] is level idx's rule in every copy
    (_padded), and a level's arrays are (copies, nodes, columns), the
    columns running over the outer grid of each copy.  A variable of group
    i is carried as offsets, never as a position: lo is its distance to
    x_(i-1), hi to x_i, span to its parent (with the logs of lo and hi).
    A level forms its offset from the end it nests from as the parent's
    offset from that end times t, and the one from the other end as the
    parent's plus the span; a mirrored level thus swaps lo and hi.  Every
    distance of a factor (_Level.factors) is a sum of these and of gaps
    between the chamber coordinates x, so none is lost to cancellation
    however close a node sits to an end; each is formed once.  outer maps
    (p, field) to the offsets of outer level p that a level from idx on
    reads, each (copies, 1, columns).

    G holds, per node, the log of the rule's weight times the factors the
    rule does not hold, and then their exponential.  A level's integral
    scales with S, its parent's offset from the end it nests from, to the
    level's power (_Level.power), one number per column: that column
    factor stays out of G and multiplies the column sums, every row, once
    the node sum is done.  A pivot's S is its interval's gap, a number,
    and its G holds the power.  At the last level of a plain value nothing
    reads an offset after its last factor, so that factor's log is written
    over it, and a chunk touches a few arrays of its size.

    The sums carry the Taylor jet of the integrand in the marked points,
    the anchor held fixed, over the index set of the jet tables tab: out
    is (rows, coefficients, copies, columns), row 0 the sums and the last
    row the sums of the moduli of their terms.  The integrand is positive,
    so over the zero multi-index alone the two are one row, the value.  A
    level's own factor in the jet is the exponential of the log-series of
    its moving factors (_moves, log_series), each given as its exponent,
    1 / D with D's sign and the motion of its charge or variable.

    A level larger than _CHUNK_CAP sums whole copies at a time, or the
    columns of one copy in chunks, so a chunk inside one copy broadcasts
    that copy's rule as a column.  Such a chunk holds two columns or more,
    a lone last column joining the chunk before it: numpy sums the nodes
    of a single column pairwise but those of several in node order, so a
    one-column chunk would change the bits of its sums.  A chunk that
    cannot be cut further is summed whole.  Every level writes its arrays,
    and the series of its jet, into the scratch arrays work (_scratch,
    _work): those it reads again after the next level has run under keys
    (idx, name), its temporaries under names that all levels share.
    Nothing written into out is one of them.
    """
    step, (t, omt, logt, logwe) = steps[idx], rules[idx]
    copies, n = t.shape[:2]
    rows, width, _, size = out.shape
    if n * copies * size * width > _CHUNK_CAP:
        fit = _CHUNK_CAP // (n * size * width)
        per, stride = (fit, size) if fit else (1, max(2, _CHUNK_CAP // (n * width)))
        starts = range(0, max(1, size - 1), stride)
        if per < copies or len(starts) > 1:
            for c in range(0, copies, per):
                part = [[a[c : c + per] for a in r] for r in rules]
                for s, e in zip(starts, [*starts[1:], size]):
                    chunk = {k: a[c : c + per, :, s:e] for k, a in outer.items()}
                    _level_sum(steps, at, idx, part, chunk, tab, work, out[:, :, c : c + per, s:e])
            return
    lev, shape = step.lev, (copies, n, size)
    gap, logS, cs, gs = at[idx]
    if step.pivot:
        # S is the gap, a number, and the offsets stay columns
        span = hi = gap * omt
        lo = gap * t if step.needs else None
    else:
        # a mirrored level is a downward one with lo and hi swapped: its t
        # runs from x_i, and S is its parent's hi
        S, far_S, logS = (outer[key] for key in step.parent)
        own = _scratch(work, (idx, "own"), (3,) + shape)
        span = np.multiply(S, omt, out=own[2])
        far_off = np.add(far_S, span, out=own[1])
        near_off = np.multiply(S, t, out=own[0]) if step.needs else None
        lo, hi = (far_off, near_off) if lev.mirrored else (near_off, far_off)
    # G starts from the rule's column; the envelopes t^(-envL) and
    # (1 - t)^(-envR) split the same way.  A pivot's offsets are columns,
    # so its G, with its power of S, stays a column until the pair
    # factors, the first terms to span the outer grid.  Another level's G
    # is the rule's own column until its first term, and is written into
    # full from then on, or into that term's buffer where the term is a
    # spare offset
    full = _scratch(work, (idx, "G"), shape)
    G = np.add(logwe, step.power * logS) if step.pivot else logwe
    term = _scratch(work, "tmp", span.shape)
    # the moving factors, charges by point, then other groups' variables
    # earliest first; the pair factors share one exponent, so one log of
    # their product, whose first distance is written into it
    moving, groups, pairs, dist = [], [], None, span
    for (e, right, over, motion), c in zip(step.charges, cs):
        # D = w - x_k left of the interval, x_k - w right of it: an offset
        # plus c, x_k's distance to the interval's end
        D = hi if right else lo
        log = D if over else term
        D = np.add(D, c, out=log) if c else D
        if motion is not None:
            moving.append((e, (-1.0 if right else 1.0) / D, motion))
        np.multiply(np.log(D, out=log), e, out=log)
        G = np.add(G, log, out=(full if log is term else log) if G is logwe else G)
    for (kind, key, into, motion), cg in zip(step.pairs, gs):
        into = own[2] if into is None else _scratch(work, into, shape)
        if kind == "span":
            D = dist = np.add(dist, outer[key], out=into)
        else:
            # D = w - w_k, lo plus its hi and the gap between the groups
            D = np.add(lo, outer[key] + cg[0], out=into)
            if motion is not None:
                groups.append((lev.pair, 1.0 / D, {place: outer[k] / cg[1] for place, k in motion}))
        if pairs is None:
            pairs = D
        else:
            np.multiply(pairs, D, out=pairs)
    moving += reversed(groups)
    if pairs is not None:
        # a product that underflowed to zero leaves a term far below
        # rounding: its log is -inf and the term exactly zero
        with np.errstate(divide="ignore"):
            np.log(pairs, out=pairs)
        np.multiply(pairs, lev.pair, out=pairs)
        G = np.add(G, pairs, out=G if G is not logwe and G.shape == shape else full)
    G = np.exp(G, out=None if G is logwe else G)
    if not step.last:
        # the offsets later levels read, over this level's nodes: this
        # level's own are views, but for the logs and a pivot's columns,
        # and the outer levels' are spread.  A level's log is that of its
        # offset from the end it nests from, but for a pivot's log hi
        slots = iter(_scratch(work, (idx, "outer"), (step.fresh,) + shape))
        inner = _scratch(work, (idx, "inner"), (rows, width, copies, n * size))
        carried = {}
        for (p, f), new in step.carried:
            slot = next(slots) if new else None
            if p < idx:
                a = outer[p, f]
            elif f >= 3:
                a = np.add(logS, np.log(omt) if step.pivot and f == 4 else logt, out=slot)
            else:
                a = (lo, hi, span)[f]
            # as the next level's (copies, 1, columns), spread where a column
            if a.shape != shape:
                slot[...] = a
                a = slot
            carried[p, f] = a.reshape(copies, 1, -1)
        _level_sum(steps, at, idx + 1, rules, carried, tab, work, inner)
    P = None
    if moving:
        omega = {place: (lo, hi)[f] / gap for place, f in step.omega}
        P = exp_series(tab, log_series(tab, shape, omega, moving, work), work)
    if step.last:
        if P is None:
            out[:, 0] = np.add.reduce(G, axis=1)
            if width > 1:
                out[:, 1:] = 0.0
        else:
            np.einsum("cgts,gts->cgs", P, G, out=out[0])
            # P is read no more: its moduli take its place
            np.einsum("cgts,gts->cgs", np.abs(P, out=P), G, out=out[1])
    else:
        inner = inner.reshape((rows, width) + shape)
        if P is not None:
            product(tab, P, inner, work)
        inner *= G
        np.add.reduce(inner, axis=3, out=out)
    if not step.pivot:
        # the column factor S^power, in every row
        out *= np.exp(step.power * logS).reshape(copies, size)


def _pieces(rule, shortest):
    # the rule cut into about len / shortest runs of consecutive nodes
    n = rule.shape[1]
    parts = max(1, round(n / shortest))
    cuts = [n * j // parts for j in range(parts + 1)]
    return [rule[:, a:b] for a, b in zip(cuts, cuts[1:])]


def _padded(rules, lev):
    # the rules of level lev as (t, 1 - t, log t, log w - envL log t
    # - envR log(1 - t)) by (copies, nodes, 1), each padded at its end with
    # copies of its last node at zero weight: a pad's t and logs stay
    # finite, and its term is exactly zero
    n = max(r.shape[1] for r in rules)
    out = np.empty((4, len(rules), n, 1))
    for c, r in enumerate(rules):
        m = r.shape[1]
        out[:, c, :m, 0] = r
        if m < n:
            out[:3, c, m:, 0] = r[:3, -1:]
            out[3, c, m:, 0] = -np.inf
    out[3] -= lev.envL * out[2]
    if lev.envR:
        out[3] -= lev.envR * np.log(out[1])
    return out


@lru_cache(maxsize=256)
def _stack(plan, grids):
    """The grids of a pass as copies of one another: every level's rules
    by copy (_padded) as its four rows, the index of each grid's first
    copy, and the grids' node count.

    A rule about p times as long as the shortest of its level is cut into
    p copies of its grid, each with a p-th of its nodes, and the copies of
    a grid add up to its sums: halving doubles one level of one grid, and
    padding the others to it would double their nodes.  Plans at one
    kappa meet the same passes again, and stacking costs about half a
    small pass's sum, so the stacks are kept.
    """
    levels = plan.levels
    rules = [_rules(levels, grid) for grid in grids]
    shortest = [min(len(grid[i][0]) for grid in rules) for i in range(len(levels))]
    copies, starts = [], []
    for grid in rules:
        starts.append(len(copies))
        copies.extend(itertools.product(*map(_pieces, grid, shortest)))
    stacked = tuple(_padded(rule, lev) for rule, lev in zip(zip(*copies), levels))
    starts = np.array(starts)
    # every caller of a pass shares these arrays
    for a in (*stacked, starts):
        a.setflags(write=False)
    return tuple(tuple(a) for a in stacked), starts, sum(math.prod(len(r[0]) for r in grid) for grid in rules)


def _nested(plan, grids, x, tab, work):
    """The sums of the grids of one pass, from one nested sum over all of
    them stacked as copies on the first level's outer axis (_stack,
    _level_sum), as (grids, rows, coefficients).  The plan's program for
    tab reads its numbers of x here, once for every chunk.
    """
    rules, starts, nodes = _stack(plan, tuple(grids))
    steps = plan.program(tab)
    out = np.empty((2 if tab.active else 1, tab.size, len(rules[0][0]), 1))
    _level_sum(steps, [_at(step, x) for step in steps], 0, rules, {}, tab, work, out)
    _record(grid_evals=len(grids), nodes=nodes, passes=1)
    return np.add.reduceat(out[..., 0], starts, axis=2).transpose(2, 0, 1)


class QuadratureError(ArithmeticError):
    """The nested quadrature cannot meet the requested rel_tol."""


# no step goes below _MIN_STEP and no grid holds more than _GRID_BUDGET
# nodes
_MIN_STEP = 2.0 ** -6
_GRID_BUDGET = 2.5e8
# no start step exceeds _START_STEP (_start_steps)
_START_STEP = 0.5
# relative rounding error of the nested sum, per level
_ROUNDING = 4.0 * float(np.finfo(float).eps)


def _start_steps(levels, rel_tol):
    """The steps a plain plan starts from, by level.

    A tanh-sinh level's error falls like exp(-pi^2 / (2h)) (Takahasi and
    Mori), so it meets rel_tol at h* = pi^2 / (2 ln(1 / rel_tol)).  The
    j-th of a group's m levels, counted in nesting order from the pivot,
    starts at base * 2^(j/m), with base = h* capped at
    _START_STEP * 2^(-(m-1)/m): no start step exceeds _START_STEP, and no
    two levels of a group ever share a step or sit in a rational step
    ratio.  From rel_tol >= e^(-pi^2) on, base is the cap.
    """
    size = Counter(lev.group for lev in levels)
    h_star = math.pi ** 2 / (-2.0 * math.log(rel_tol)) if rel_tol < 1.0 else math.inf
    steps, j = [], 0
    for lev in levels:
        m = size[lev.group]
        j = 0 if lev.pivot else j + 1
        # min(h*, cap) * 2^(j/m), with the cap's factor folded in, so the
        # last level's capped step is _START_STEP to the bit
        steps.append(min(h_star * 2.0 ** (j / m), _START_STEP * 2.0 ** ((j + 1 - m) / m)))
    return steps


def _grid(steps, shifted=()):
    # the grid at steps, with the nodes of the levels in shifted moved by
    # half a step, as (step, shift) by level
    return tuple((h, 0.5 if k in shifted else 0.0) for k, h in enumerate(steps))


def _grids(steps):
    # the grid at steps, then its copy with level k's nodes shifted by half
    # a step, for every k
    return [_grid(steps)] + [_grid(steps, (k,)) for k in range(len(steps))]


def _rules(levels, grid):
    return [_unit_rule(lev, h, shift) for lev, (h, shift) in zip(levels, grid)]


def _relative_change(value, moved):
    # a level's share: the largest change of a coefficient against the sum
    # of the moduli of its terms (the last row), a nan change counting as
    # infinite
    return max((min(math.inf, abs(y - x) / g) if g > 0 else 0.0)
               for x, g, y in zip(value[0].tolist(), value[-1].tolist(), moved[0].tolist()))


def _nodes(levels, grid):
    return math.prod(len(rule[0]) for rule in _rules(levels, grid))


@lru_cache(maxsize=4096)
def _largest(plan, steps):
    # the nodes of the largest of the grid at steps and its shifted copies
    return max(_nodes(plan.levels, grid) for grid in _grids(steps))


def _check_budget(plan, steps, head, note):
    size = _largest(plan, tuple(steps))
    if size > _GRID_BUDGET:
        raise QuadratureError(f"{head}: {size:.2e} nodes exceed the budget of {_GRID_BUDGET:.1e}{note}")


# the scratch arrays of each thread (_work)
_SCRATCH = threading.local()


def _work():
    # the calling thread's scratch arrays (_scratch): every plan of the
    # thread writes its sums and series into them, so their pages are
    # faulted in once per thread, not at every plan
    work = getattr(_SCRATCH, "arrays", None)
    if work is None:
        work = _SCRATCH.arrays = {}
    return work


def _halve(plan, steps, x, rel_tol, floor, head, tab):
    """Halve the step of the level with the largest estimate until the
    relative estimates plus floor, the rounding floor and the bound on the
    rules' folds, meet rel_tol.

    The first pass sums the grid at the start steps and, for every level
    k, its copy with level k's nodes shifted by half a step, which differs
    by twice that level's error; from _start_steps most plain plans meet
    rel_tol there, and halve no level.  Halving level k adds no node the
    sums do not hold: the grid at h_k / 2 is the grid at h_k and its copy
    shifted in k, at half the weight, so the new value is the mean of the
    two.  Each other level j's copy is likewise the mean of its old copy
    and the grid with both j and k shifted at the old steps, and only
    level k's copy at the new step is summed in full.  A pass thus sums about
    (l + 1) times the old grid's nodes where a full pass sums twice that,
    and a plan costs about one full pass on its final grid.  A pass is one
    call of _nested over all of its grids.  No pass whose full copies
    exceed the node budget is summed.  Returns the final steps, the sum
    and its shifted copies, or raises when the largest share cannot be
    halved.
    """
    steps = list(steps)
    _check_budget(plan, steps, head, "")
    work = _work()
    sums = _nested(plan, _grids(steps), x, tab, work)
    value, moved = sums[0], sums[1:]
    while True:
        # value only ever becomes the mean of itself and a shifted copy, so
        # once not finite it stays so
        if not np.isfinite(value).all():
            raise QuadratureError(f"{head}: the nested sums are not finite")
        ests = [_relative_change(value, m) for m in moved]
        est = sum(ests) + floor
        if est <= rel_tol:
            return tuple(steps), value, moved
        k = int(np.argmax(ests))
        if ests[k] <= floor or steps[k] <= _MIN_STEP:
            where = "rounding floor" if ests[k] <= floor else "smallest step"
            raise QuadratureError(
                f"{head}: error estimate {est:.2e}; level {k}, the largest"
                f" share ({ests[k]:.2e}), is at the {where}"
            )
        note = f" after halving level {k} (estimate {ests[k]:.2e})"
        finer = steps.copy()
        finer[k] /= 2.0
        _check_budget(plan, finer, head, note)
        grids = [_grid(finer, (k,)) if j == k else _grid(steps, (j, k)) for j in range(len(steps))]
        sums = _nested(plan, grids, x, tab, work)
        value = 0.5 * (value + moved[k])
        moved = 0.5 * (moved + sums)
        moved[k] = sums[k]
        steps = finer


def _head(levels, rel_tol):
    return f"rho with l={len(levels)} screening variables at rel_tol={rel_tol:g}"


def _check_rel_tol(rel_tol):
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")


def _steady(tab, x_ext, dims, kappa, levels):
    # the distances that move with no node, side by side along one axis,
    # as one log_series distance (exponents, 1 / D, -(motion of D)): the
    # prefactor's pairs, and the interval each level scales with, raised
    # to the level's power plus the exponents of its factors that do not
    # move (_moves), the pairs within its group and the charge at an end
    steady = [(e, i + 1, k + 1) for i, k, e in _pair_exponents(dims, kappa)]
    for lev in levels:
        e = lev.power + lev.pair * sum(kind == "span" for _, kind, _ in lev.factors)
        for exponent, kind, k in lev.factors:
            if kind == "charge" and not _moves(lev, kind, k):
                e += exponent
        steady.append((e, lev.group - 1, lev.group))
    nu = {}
    # D = x_b - x_a for chamber coordinates a < b
    for d, (_, a, b) in enumerate(steady):
        for place, rate in _motion(tab, ((a, 1.0), (b, -1.0))).items():
            nu.setdefault(place, np.zeros(len(steady)))[d] = rate
    exponents = np.array([e for e, _, _ in steady])
    inv = np.array([1.0 / (x_ext[b] - x_ext[a]) for _, a, b in steady])
    return exponents, inv, nu


@lru_cache(maxsize=4096)
def _rho_kept(c, dims, counts, kappa, rel_tol, index):
    """The one cache of rho results: _rho's jet and estimates (read-only),
    the final steps of its plan, and the (grid_evals, nodes, passes) it
    summed.

    A plain value halves from the start steps for its rel_tol
    (_start_steps).  A jet over more than the zero multi-index, with the
    anchor held fixed, halves from the final steps of its point's plain
    entry, which it reads through _rho and so counts, and holds every
    coefficient to rel_tol.  The error of a tensor grid belongs to the
    levels one by one, so each is shifted with every other level kept.
    Two variables of one group at one step alias: the distances between
    them depend on their offsets from a shared end or from the pivot in
    sum, so the tensor trapezoid rule misses a ridge along
    u_0 - u_1 = const, and each level's shift reports the joint error of
    both.  Start steps a factor 2^(1/m) apart keep every ratio of a
    group's steps irrational, so halving never brings a shared step back.
    A coefficient's estimate is the shifts' changes summed over the levels
    plus the floor, the rounding floor and the bound on the rules' folds
    (_plan_tail), of the sum of moduli.

    The nested sums carry the factors that move with the nodes (_Level);
    the jet of the rest and of the prefactor multiplies theirs once.

    A result depends on its arguments alone, so a kept entry is what a new
    call would return.  Its run counts in no eval_stats() block: _rho
    records the counts at every read.  A call that fails is not kept, so
    the sums it made count once, where they were made.
    """
    _check_rel_tol(rel_tol)
    _check_convergent(dims, kappa)
    tab = jet_tables(index)
    x_ext = (c.x0,) + c.xs
    betas, levels = _betas(dims, kappa), ()
    stats, kept = EvalStats(), False
    token = _STATS.set(stats)
    try:
        if any(counts):
            tail, fold = _plan_tail(x_ext, betas, counts, rel_tol)
            plan = _plan(dims, counts, kappa, tail)
            levels = plan.levels
            floor = len(levels) * _ROUNDING + fold
            start = plan.start(rel_tol)
            if tab.active:
                plain = ChamberPoint(c.x0, tuple(c.xs))
                start = _rho(plain, dims, counts, kappa, rel_tol, ((0,) * c.n,))[2]
            steps, value, moved = _halve(plan, start, x_ext, rel_tol, floor, _head(levels, rel_tol), tab)
            change = sum(np.abs(m[0] - value[0]) for m in moved)
            value, est = value[0], change + floor * value[-1]
        else:
            value, est, steps = np.eye(1, tab.size)[0], np.zeros(tab.size), ()
        if tab.active:
            work = _work()
            steady = _steady(tab, x_ext, dims, kappa, levels)
            logs = log_series(tab, steady[0].shape, {}, [steady], work).sum(axis=1)
            # product writes over the fresh stack: no kept array is a view
            # of the scratch arrays
            value, est = product(tab, exp_series(tab, logs, work), np.stack((value, est)), work)
        kept = True
    finally:
        _STATS.reset(token)
        if not kept:
            _record(**vars(stats))
    pref = _x_prefactor(c.xs, dims, kappa)
    value, est = pref * value, pref * est
    value.flags.writeable = est.flags.writeable = False
    return value, est, steps, (stats.grid_evals, stats.nodes, stats.passes)


def _rho(c, dims, counts, kappa, rel_tol, index):
    """The screened integral's Taylor jet in the marked points over the
    closed index set `index`, with the anchor held fixed, and every
    coefficient's absolute error estimate, as read-only arrays over the
    index set, and the final steps of its plan.  Over ((0,) * n,) alone
    the arrays hold the value and its estimate.  dims and counts are
    tuples, as _dims_counts returns them.

    Every call reads or makes the entry of _rho_kept and records the grids
    it summed, so a repeated call returns the same bits and counts the
    same grids, whatever was evaluated before.
    """
    value, est, steps, (grid_evals, nodes, passes) = _rho_kept(c, dims, counts, kappa, rel_tol, index)
    _record(grid_evals=grid_evals, nodes=nodes, passes=passes)
    return value, est, steps


def rho(c: ChamberPoint, dims, m, kappa, rel_tol: float = 1e-9) -> float:
    """Screened integral over the nested ordered simplices.

    m gives the number of screening variables per interval.  Requires
    kappa to exceed 4(max d_i - 1); outside that regime the integral
    diverges and the call is refused.  The value meets rel_tol by the
    quadrature's own estimate, which an eval_stats() block receives, or
    the call raises QuadratureError.  Marked points given as a JetPoint
    return the Taylor jet in them, the anchor held fixed, as a Jet whose
    coefficients each meet rel_tol against the sum of the moduli of their
    terms; a plain point is the jet over the zero multi-index, returned
    as its one coefficient.  A result is kept once per argument set: a
    repeated call returns the same bits and counts the same grids.
    """
    jet = isinstance(c.xs, JetPoint)
    index = c.xs.index if jet else ((0,) * c.n,)
    # normalized before the lookup, so list arguments hash and share a key
    dims, counts = _dims_counts(dims, m, c.n)
    value, est, _ = _rho(c, dims, counts, kappa, rel_tol, index)
    _record(float(est[0]))
    if not jet:
        return float(value[0])
    return Jet(index, dict(zip(index, value.tolist())), dict(zip(index, est.tolist())))


def b_const(d, d1, d2, kappa, rel_tol: float = 1e-9) -> float:
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
    return rho(c, (d1, d2), (0, mm), kappa, rel_tol)


def h_weight(d, kappa) -> float:
    """Boundary conformal weight of the degree-d field."""
    return (d - 1) * (2.0 * (d + 1) - kappa) / (2.0 * kappa)


class _Chain:
    """Accumulates quadrature nodes along one loop, with a zero-weight
    marker node at the reference point where the branch phase is fixed."""

    def __init__(self, nodes):
        self._xg, self._wg = np.polynomial.legendre.leggauss(nodes)
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
    successive evaluations agree.  It computes values only: marked points
    given as a JetPoint raise TypeError rather than drop the request.
    """
    if isinstance(c.xs, JetPoint):
        raise TypeError("the contour oracle returns values, not the Taylor jet a JetPoint asks for")
    dims, counts = _dims_counts(dims, l, c.n)
    _check_kappa(kappa)
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
