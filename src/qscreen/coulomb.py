"""Coulomb gas integrals on the real chamber.

Evaluates the positive integrand on configurations x0 < x_1 < ... < x_n,
the screened integrals over nested ordered simplices (a tanh-sinh rule per
screening variable; one loop halves a level's step on the full grid until
the quadrature's own error estimate meets the requested tolerance, each
halving summing only the nodes it adds, every grid of a pass in one
nested sum, and starting the variables of one group from staggered steps
so that their tensor grid does not alias), carrying their Taylor jet in
the marked points through every level (a plain value is the jet over the
zero multi-index alone, so one path serves both), the boundary fusion
constants, conformal weight and exponent helpers, and a direct contour
oracle that integrates the same density over explicitly constructed
nested loops with the branch tracked along the path.  A value plans its
steps from the start steps at every call, and a jet from the final steps
of its own point's value plan, so every result depends on its arguments
alone.  Everything here is numeric; the exact q-dependent factors live
in correspondence.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jet import Jet, JetPoint, exp_series, log_series, product
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
    halving pass.  evals counts the evaluator calls of the operator checks
    in pde, one per check.
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
    # also rejects nan
    if not kappa > 0:
        raise ValueError("kappa must be positive")


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

    The nodes sit at u = (k + shift) h.  Returns one array of the rows t,
    1 - t, log t and log w: t and 1 - t are each formed from u, so both
    keep full relative precision at their end, and the endpoint powers are
    folded into the weights in log space.  g may grow like (1-t)^(-grow)
    toward t = 1.  The weight of every node that is not kept is added to
    the outermost kept node on its side, where g has reached its limit:
    that adds the tails beyond the nodes analytically.
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
    return np.stack((np.exp(logt), np.exp(log1mt), logt, logw))


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
    return tuple(levels)


@dataclass(frozen=True)
class _Geometry:
    """The chamber as the levels see it.  charges[idx] lists, for every
    charge that level idx does not fold into its rule, (beta, c, side, j):
    the distance to the point x_j is c + lo (side 0, charges left of the
    interval) or c + hi (side 1, charges at or right of its upper end).
    between[i][g] is x_{i-1} - x_g, the gap from group g's upper end to
    group i's lower."""

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
                own.append((beta, x_ext[i - 1] - x_ext[j], 0, j))
            else:
                own.append((beta, x_ext[j] - x_ext[i], 1, j))
        charges.append(tuple(own))
    between = tuple(
        tuple(x_ext[i - 1] - x_ext[g] for g in range(i)) for i in range(len(x_ext))
    )
    return _Geometry(gaps, tuple(charges), between, 8.0 / kappa)


# elements per array at the innermost level, counting a jet's coefficients:
# a level sums a larger outer grid in chunks, so its arrays, and the
# scratch arrays they are written into, stay below this size
_CHUNK_CAP = 1 << 15


@dataclass(frozen=True)
class _JetPlan:
    """What the levels need to carry a Taylor jet in the marked points:
    the index set's tables, and moves[k], how chamber coordinate k (0 the
    anchor, k the point x_k) moves with the active variables, as pairs
    (place in the tables' active, derivative).  Over the zero multi-index
    alone no variable is active, and the jet is the value."""

    tables: object
    moves: tuple


@lru_cache(maxsize=None)
def _plan(index, moves):
    # the _JetPlan over the closed index set `index`, with the anchor
    # moving as sum_i moves[i] x_i
    tab = jet_tables(index)
    anchor = tuple((a, moves[i]) for a, i in enumerate(tab.active) if moves[i])
    points = (((tab.active.index(i), 1.0),) if i in tab.active else () for i in range(len(moves)))
    return _JetPlan(tab, (anchor, *points))


def _motion(jet, terms):
    # sum_k a_k * (coordinate k's motion), per active variable, for pairs
    # (k, a_k) of a coordinate and a number or node array
    out = {}
    for k, a in terms:
        for place, rate in jet.moves[k]:
            term = a if rate == 1.0 else rate * a
            out[place] = out[place] + term if place in out else term
    return out


def _level_series(jet, levels, idx, geo, lo, hi, outer, shape):
    """Taylor coefficients of level idx's factor over its value, at every
    node: the exponential of the log-series of the distances that move
    with the node.  None when no variable is raised or no distance moves.

    With its unit coordinates fixed, a variable of group i sits at
    w = x_(i-1) + lo, and w moves with the points as
    omega = (hi dx_(i-1) + lo dx_i) / gap_i.  A distance D to a charge at
    x_j or to an outer variable then moves by omega less that point's
    motion nu, and d log D = (omega - nu) / D stays below 1 / gap.
    Distances that scale with the gap alone move with no node and are left
    to _rho: the level's interval, its own upper charge, its ancestors.
    """
    if not jet.tables.active:
        return None
    lev = levels[idx]
    i = lev.group
    gap = geo.gaps[i - 1]
    omega = _motion(jet, ((i - 1, hi / gap), (i, lo / gap)))
    # (exponent, 1 / D with D's sign, nu) of every distance that moves
    moving = []
    for beta, c, side, j in geo.charges[idx]:
        if j != i:
            # D = w - x_j on side 0, x_j - w on side 1
            inv = (-1.0 if side else 1.0) / ((hi if side else lo) + c)
            moving.append((-beta, inv, dict(jet.moves[j])))
    for p in range(idx):
        g = levels[p].group
        if g != i:
            lo_p, hi_p = outer[p, 0], outer[p, 1]
            gap_p = geo.gaps[g - 1]
            # D = w - w_p
            inv = 1.0 / (lo + (hi_p + geo.between[i][g]))
            moving.append((geo.pair, inv, _motion(jet, ((g - 1, hi_p / gap_p), (g, lo_p / gap_p)))))
    if not moving:
        return None
    return exp_series(jet.tables, log_series(jet.tables, shape, omega, moving))


# a level with fewer elements than this, counted as for _CHUNK_CAP, lets
# its ufuncs allocate its arrays: the allocator keeps arrays this small in
# the process, so they fault no pages, and a new one costs less than a
# view of a scratch array
_SCRATCH_MIN = 1 << 13


def _scratch(work, key, shape):
    # an array of the given shape in work's buffer `key`: a buffer grows to
    # the largest array asked of it and serves every chunk and every pass
    # of the plan, so its pages are faulted in once, not at every chunk
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _flat(a, shape, slot):
    # a over a level's grid (copies, nodes, columns), as the next level's
    # (copies, 1, columns): a view where a spans the grid, else spread
    # into slot, or into a new array where slot is None
    if a.shape != shape:
        if slot is None:
            slot = np.empty(shape)
        slot[...] = a
        a = slot
    return a.reshape(shape[0], 1, -1)


@lru_cache(maxsize=None)
def _spread(levels, jet):
    """For each level idx, the offsets (p, field) of the levels p <= idx
    that a later level reads, the fields 0 to 3 being lo, hi, up and log
    lo.  A level reads its parent's lo, hi and log lo, the up of each
    level of its group between the top and itself, and the hi of every
    level of another group, with its lo as well when a jet is carried."""
    reads = []
    for q, lev in enumerate(levels):
        fields = set()
        for p in range(q):
            if levels[p].group != lev.group:
                fields.update(((p, 0), (p, 1)) if jet else ((p, 1),))
                continue
            if not levels[p].top:
                fields.add((p, 2))
            if p == q - 1:
                fields.update(((p, 0), (p, 1), (p, 3)))
        reads.append(fields)
    later = [set().union(*reads[idx + 1:]) for idx in range(len(levels))]
    return tuple(tuple(sorted(pf for pf in later[idx] if pf[0] <= idx)) for idx in range(len(levels)))


def _level_sum(levels, idx, rules, spread, outer, geo, jet, work, out):
    """Sum over the nodes of level idx, and nested inside it over every
    later level, for each node of the outer grid, into out.

    The grids of a pass are copies of one another, stacked on the top
    level's outer axis: rules[idx] is level idx's rule in every copy
    (_padded), and a level's arrays are (copies, nodes, columns), the
    columns running over the outer grid of each copy.  A variable is
    carried as offsets, never as a position: lo is its distance to its
    lower end, hi to its group's upper charge, up to its own upper end
    (with log lo).  Every distance the integrand needs is a sum of these
    and of gaps between the marked points, so none is lost to
    cancellation however close a node sits to an end.  outer maps
    (p, field) to the offsets of outer level p that a level from idx on
    reads, each (copies, 1, columns), and spread lists them by level
    (_spread).

    The sums carry the Taylor jet of the integrand in the marked points
    over the _JetPlan's index set: out is (rows, coefficients, copies,
    columns), row 0 the sums and the last row the sums of the moduli of
    their terms.  The integrand is positive, so over the zero multi-index
    alone the two are one row, the value.

    A level larger than _CHUNK_CAP sums whole copies at a time, or the
    columns of one copy in chunks, so a chunk inside one copy broadcasts
    that copy's rule as a column.  A level of _SCRATCH_MIN elements or
    more writes its arrays into the plan's scratch arrays, work
    (_scratch): those it reads again after the next level has run under
    keys (idx, name), its temporaries under names that all levels share.
    Nothing written into out is one of them.
    """
    lev, rule = levels[idx], rules[idx]
    copies, n = rule.shape[1:3]
    rows, width, _, size = out.shape
    if n * copies * size * width > _CHUNK_CAP and copies * size > 1:
        fit = _CHUNK_CAP // (n * size * width)
        per, step = (fit, size) if fit else (1, max(1, _CHUNK_CAP // (n * width)))
        for c in range(0, copies, per):
            part = [r[:, c : c + per] for r in rules]
            for s in range(0, size, step):
                chunk = {k: a[c : c + per, :, s : s + step] for k, a in outer.items()}
                _level_sum(levels, idx, part, spread, chunk, geo, jet, work,
                           out[:, :, c : c + per, s : s + step])
        return
    pooled = n * copies * size * width >= _SCRATCH_MIN
    t, omt, logt, logwe = rule
    last = idx == len(levels) - 1
    shape = (copies, n, size)
    keys = spread[idx]
    # lo is needed for charges left of the interval, variables of earlier
    # groups and a raised variable, and where a later level reads it
    needs_lo = (
        bool(jet.tables.active)
        or levels[0].group != lev.group
        or (idx, 0) in keys
        or any(side == 0 for _, _, side, _ in geo.charges[idx])
    )
    if lev.top:
        # S is a number, and up and lo stay columns
        S = geo.gaps[lev.group - 1]
        logS = math.log(S)
        up = hi = S * omt
        lo = S * t if needs_lo else None
    else:
        S, hi_S, logS = outer[idx - 1, 0], outer[idx - 1, 1], outer[idx - 1, 3]
        own = _scratch(work, (idx, "own"), (3,) + shape) if pooled else (None,) * 3
        up = np.multiply(S, omt, out=own[2])
        hi = np.add(hi_S, up, out=own[1])
        lo = np.multiply(S, t, out=own[0]) if needs_lo else None
    # G, the log of weight times integrand, starts from the rule's column
    # and the row of the parent's offset; the envelope lo^(-env) splits
    # the same way.  A top level's offsets are columns, so its G stays a
    # column until the pair factors, the first terms to span the outer grid
    full = _scratch(work, (idx, "G"), shape) if pooled else np.empty(shape)
    G = np.add(logwe, (1.0 + lev.aL + lev.aR - lev.env) * logS, out=None if lev.top else full)
    term = _scratch(work, "tmp", G.shape) if pooled else np.empty(G.shape)
    for beta, c, side, _ in geo.charges[idx]:
        dist = hi if side else lo
        np.log(np.add(dist, c, out=term) if c else dist, out=term)
        np.multiply(term, -beta, out=term)
        np.add(G, term, out=G)
    # pair factors with every outer variable but the parent, which the
    # rule holds; they share one exponent, so one log of their product
    pairs = None
    ancestor = up
    for p in range(idx - 1, -1, -1):
        if levels[p].group == lev.group:
            if p == idx - 1:
                continue
            scratch = _scratch(work, "ancestor", shape) if pooled else None
            ancestor = np.add(ancestor, outer[p + 1, 2], out=scratch)
            factor = ancestor
        else:
            gap = geo.between[lev.group][levels[p].group]
            factor = np.add(lo, outer[p, 1] + gap, out=_scratch(work, "tmp", shape) if pooled else None)
        if pairs is None:
            # an array of its own: the ancestors' sum grows in place
            pairs = _scratch(work, "pairs", shape) if pooled else np.empty(shape)
            pairs[...] = factor
        else:
            np.multiply(pairs, factor, out=pairs)
    if pairs is not None:
        # a product that underflowed to zero leaves a term far below
        # rounding: its log is -inf and the term exactly zero
        with np.errstate(divide="ignore"):
            np.log(pairs, out=pairs)
        np.multiply(pairs, geo.pair, out=pairs)
        G = np.add(G, pairs, out=full)
    np.exp(G, out=G)
    if not last:
        # the offsets later levels read, over this level's nodes: this
        # level's own are views, but for log lo and a top level's columns,
        # and the outer levels' are spread
        fresh = [p < idx or lev.top or f == 3 for p, f in keys]
        if pooled:
            slots = iter(_scratch(work, (idx, "outer"), (sum(fresh),) + shape))
            inner = _scratch(work, (idx, "inner"), (rows, width, copies, n * size))
        else:
            slots, inner = iter(()), np.empty((rows, width, copies, n * size))
        carried = {}
        for (p, f), new in zip(keys, fresh):
            slot = next(slots, None) if new else None
            if p < idx:
                a = outer[p, f]
            else:
                a = np.add(logS, logt, out=slot) if f == 3 else (lo, hi, up)[f]
            carried[p, f] = _flat(a, shape, slot)
        _level_sum(levels, idx + 1, rules, spread, carried, geo, jet, work, inner)
    P = _level_series(jet, levels, idx, geo, lo, hi, outer, shape)
    if last:
        if P is None:
            out[:, 0] = G.sum(axis=1)
            if width > 1:
                out[:, 1:] = 0.0
        else:
            out[0] = np.einsum("cgts,gts->cgs", P, G)
            out[1] = np.einsum("cgts,gts->cgs", np.abs(P), G)
        return
    inner = inner.reshape((rows, width) + shape)
    if P is not None:
        inner = product(jet.tables, P, inner)
    inner *= G
    inner.sum(axis=3, out=out)


def _pieces(rule, shortest):
    # the rule cut into about len / shortest runs of consecutive nodes
    n = rule.shape[1]
    parts = max(1, round(n / shortest))
    cuts = [n * j // parts for j in range(parts + 1)]
    return [rule[:, a:b] for a, b in zip(cuts, cuts[1:])]


def _padded(rules, env):
    # the rules as (t, 1 - t, log t, log w - env log t) by (copies, nodes,
    # 1), each padded at its end with copies of its last node at zero
    # weight: a pad's t and logs stay finite, and its term is exactly zero
    n = max(r.shape[1] for r in rules)
    out = np.empty((4, len(rules), n, 1))
    for c, r in enumerate(rules):
        m = r.shape[1]
        out[:, c, :m, 0] = r
        if m < n:
            out[:3, c, m:, 0] = r[:3, -1:]
            out[3, c, m:, 0] = -np.inf
    out[3] -= env * out[2]
    return out


@lru_cache(maxsize=256)
def _stack(levels, grids):
    """The grids of a pass as copies of one another: every level's rules
    by copy (_padded), the index of each grid's first copy, and the
    grids' node count.

    A rule about p times as long as the shortest of its level is cut into
    p copies of its grid, each with a p-th of its nodes, and the copies of
    a grid add up to its sums: halving doubles one level of one grid, and
    padding the others to it would double their nodes.  Plans at one
    kappa meet the same passes again, and stacking costs about half a
    small pass's sum, so the stacks are kept.
    """
    rules = [_rules(levels, grid) for grid in grids]
    shortest = [min(len(grid[i][0]) for grid in rules) for i in range(len(levels))]
    copies, starts = [], []
    for grid in rules:
        starts.append(len(copies))
        copies.extend(itertools.product(*map(_pieces, grid, shortest)))
    stacked = tuple(_padded(rule, lev.env) for rule, lev in zip(zip(*copies), levels))
    starts = np.array(starts)
    # every caller of a pass shares these arrays
    for a in (*stacked, starts):
        a.setflags(write=False)
    return stacked, starts, sum(math.prod(len(r[0]) for r in grid) for grid in rules)


def _nested(levels, grids, geo, jet, work):
    """The sums of the grids of one pass, from one nested sum over all of
    them stacked as copies on the top level's outer axis (_stack,
    _level_sum), as (grids, rows, coefficients).
    """
    rules, starts, nodes = _stack(levels, tuple(grids))
    out = np.empty((2 if jet.tables.active else 1, jet.tables.size, rules[0].shape[1], 1))
    _level_sum(levels, 0, rules, _spread(levels, bool(jet.tables.active)), {}, geo, jet, work, out)
    _record(grid_evals=len(grids), nodes=nodes, passes=1)
    return np.add.reduceat(out[..., 0], starts, axis=2).transpose(2, 0, 1)


class QuadratureError(ArithmeticError):
    """The nested quadrature cannot meet the requested rel_tol."""


# no step goes below _MIN_STEP and no grid holds more than _GRID_BUDGET
# nodes
_MIN_STEP = 2.0 ** -6
_GRID_BUDGET = 2.5e8
# a plan starts the j-th level from the top of a group of m levels at
# _START_STEP * 2^(-j/m), so no two levels of a group ever share a step or
# sit in a rational step ratio
_START_STEP = 0.5
# relative rounding error of the nested sum, per level
_ROUNDING = 4.0 * float(np.finfo(float).eps)


def _start_steps(levels):
    size = Counter(lev.group for lev in levels)
    steps, j = [], 0
    for lev in levels:
        j = 0 if lev.top else j + 1
        steps.append(_START_STEP * 2.0 ** (-j / size[lev.group]))
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
def _largest(levels, steps):
    # the nodes of the largest of the grid at steps and its shifted copies
    return max(_nodes(levels, grid) for grid in _grids(steps))


def _check_budget(levels, steps, head, note):
    size = _largest(levels, tuple(steps))
    if size > _GRID_BUDGET:
        raise QuadratureError(f"{head}: {size:.2e} nodes exceed the budget of {_GRID_BUDGET:.1e}{note}")


def _halve(levels, steps, geo, rel_tol, head, jet):
    """Halve the step of the level with the largest estimate until the
    relative estimates plus the rounding floor meet rel_tol.

    The first pass sums the grid at the start steps and, for every level
    k, its copy with level k's nodes shifted by half a step, which differs
    by twice that level's error.  Halving level k adds no node the sums do
    not hold: the grid at h_k / 2 is the grid at h_k and its copy shifted
    in k, at half the weight, so the new value is the mean of the two.
    Each other level j's copy is likewise the mean of its old copy and
    the grid with both j and k shifted at the old steps, and only level
    k's copy at the new step is summed in full.  A pass thus sums about
    (l + 1) times the old grid's nodes where a full pass sums twice that,
    and a plan costs about one full pass on its final grid.  A pass is one
    call of _nested over all of its grids.  No pass whose full copies
    exceed the node budget is summed.  Returns the final steps, the sum
    and its shifted copies, or raises when the largest share cannot be
    halved.
    """
    steps, floor = list(steps), len(levels) * _ROUNDING
    _check_budget(levels, steps, head, "")
    work = {}
    sums = _nested(levels, _grids(steps), geo, jet, work)
    value, moved = sums[0], sums[1:]
    while True:
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
        _check_budget(levels, finer, head, note)
        grids = [_grid(finer, (k,)) if j == k else _grid(steps, (j, k)) for j in range(len(levels))]
        sums = _nested(levels, grids, geo, jet, work)
        value = 0.5 * (value + moved[k])
        moved = 0.5 * (moved + sums)
        moved[k] = sums[k]
        steps = finer


def _head(levels, rel_tol):
    return f"rho with l={len(levels)} screening variables at rel_tol={rel_tol:g}"


@lru_cache(maxsize=4096)
def _value_steps(levels, geo, rel_tol):
    # the final steps of the value's plan: levels and geo fix the value's
    # nested sums, so these are a function of the arguments alone, and the
    # jets at one point share one plan
    n = len(geo.gaps)
    plan = _plan(((0,) * n,), (0.0,) * n)
    return _halve(levels, _start_steps(levels), geo, rel_tol, _head(levels, rel_tol), plan)[0]


def _quadrature(levels, geo, rel_tol, jet):
    """The nested sum's jet and every coefficient's absolute error
    estimate, from one run of _halve.

    A plain value starts from _start_steps, and a jet over more than the
    zero multi-index from the final steps of the value's plan at the same
    point; its own run then holds every coefficient to rel_tol.  Either
    depends on its arguments alone: a repeated call sums the same grids
    and returns the same bits, whatever was evaluated before.  The error
    of a tensor grid belongs to the levels one by one, so each is shifted
    with every other level kept.  Two variables of one group at one step
    alias: the distances between them depend on their offsets from the
    shared end in sum, so the tensor trapezoid rule misses a ridge along
    u_0 - u_1 = const, and each level's shift reports the joint error of
    both.  Staggered start steps keep every ratio of a group's steps
    irrational, so halving never brings a shared step back.  A
    coefficient's estimate is the shifts' changes summed over the levels
    plus the rounding floor of the sum of moduli.
    """
    steps = _value_steps(levels, geo, rel_tol) if jet.tables.active else _start_steps(levels)
    _, value, moved = _halve(levels, steps, geo, rel_tol, _head(levels, rel_tol), jet)
    change = sum(np.abs(m[0] - value[0]) for m in moved)
    return value[0], change + len(levels) * _ROUNDING * value[-1]


def _check_rel_tol(rel_tol):
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")


def _steady(plan, x_ext, dims, kappa, levels):
    # (exponent, 1 / D, -(motion of D)) of every distance that moves with
    # no node: the prefactor's pairs, and the interval each level scales
    # with, raised to the level's power, its pairs with the ancestors but
    # the parent, and below the top the group's own upper charge
    def between(a, b):
        # for chamber coordinates a < b
        return 1.0 / (x_ext[b] - x_ext[a]), _motion(plan, ((a, 1.0), (b, -1.0)))

    steady = []
    for i, k in itertools.combinations(range(len(dims)), 2):
        e = 2.0 * (dims[i] - 1) * (dims[k] - 1) / kappa
        if e:
            steady.append((e, *between(i + 1, k + 1)))
    betas = _betas(dims, kappa)
    for idx, lev in enumerate(levels):
        i = lev.group
        e = 1.0 + lev.aL + lev.aR - lev.env
        e += (8.0 / kappa) * sum(1 for p in range(idx - 1) if levels[p].group == i)
        if not lev.top:
            e -= betas[i]
        steady.append((e, *between(i - 1, i)))
    return steady


def _rho(c, dims, m, kappa, rel_tol, index, moves):
    """The screened integral's Taylor jet in the marked points over the
    closed index set `index`, with the anchor moving as sum_i moves[i] x_i,
    and every coefficient's absolute error estimate, as arrays over the
    index set.  Over ((0,) * n,) alone they hold the value and its
    estimate.

    The nested sums carry the distances that move with the nodes; the
    prefactor's pair distances and the interval every level scales with
    move with no node, so their jet multiplies the sums' once.
    """
    _check_rel_tol(rel_tol)
    dims, counts = _dims_counts(dims, m, c.n)
    _check_convergent(dims, kappa)
    pref = _x_prefactor(c.xs, dims, kappa)
    plan, tab = _plan(index, moves), jet_tables(index)
    x_ext = (c.x0,) + c.xs
    betas = _betas(dims, kappa)
    levels = _build_levels(counts, betas, kappa)
    if levels:
        geo = _geometry(levels, x_ext, betas, kappa)
        value, est = _quadrature(levels, geo, rel_tol, plan)
    else:
        value, est = np.eye(1, tab.size)[0], np.zeros(tab.size)
    if tab.active:
        logs = log_series(tab, (), {}, _steady(plan, x_ext, dims, kappa, levels))
        value, est = product(tab, exp_series(tab, logs), np.stack((value, est)))
    return pref * value, pref * est


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
    as its one coefficient.
    """
    jet = isinstance(c.xs, JetPoint)
    index = c.xs.index if jet else ((0,) * c.n,)
    value, est = _rho(c, dims, m, kappa, rel_tol, index, (0.0,) * c.n)
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


def delta_fusion(d, d1, d2, kappa) -> float:
    """Exponent governing the merging asymptotics of a neighbor pair."""
    return (2.0 * (1 + d * d - d1 * d1 - d2 * d2) + kappa * (d1 + d2 - d - 1)) / (
        2.0 * kappa
    )


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
