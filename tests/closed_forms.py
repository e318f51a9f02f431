"""Closed forms, reference kernels and q-arithmetic helpers the tests share."""

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

import numpy as np

from qscreen import coulomb
from qscreen.coulomb import _LOG_EDGE, _log_edge, _moves
from qscreen.jet import Jet, _scratch, exp_series, log_series
from qscreen.jet import product as series_product
from qscreen.qseries import Q_ONE, Q_ZERO, LaurentPoly, QScalar, qfact, qint, qmultinom
from qscreen.uqsl2 import Q_COMM, TensorSpace, TensorVector, _pair_weights, act


def is_poly(x) -> bool:
    """Whether the QScalar x is a Laurent polynomial."""
    return x.den.is_one()


def as_poly(x) -> LaurentPoly:
    """The Laurent polynomial the QScalar x equals; ArithmeticError when it
    is a true quotient."""
    if not is_poly(x):
        raise ArithmeticError(f"not a Laurent polynomial: {x!r}")
    return x.num


def stretch(p, m) -> LaurentPoly:
    """The Laurent polynomial p with q -> q^m (exponents multiplied by m)."""
    return LaurentPoly({k * m: v for k, v in p.coeffs.items()})


def poly_product_by_double_loop(a, b) -> dict:
    """The coefficients of the product of two Laurent polynomials, summed
    term by term over both factors, with the zero ones dropped."""
    out = {}
    for e1, v1 in a.coeffs.items():
        for e2, v2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def act_by_resumming(gen, v):
    """E, F or K on v through the iterated coproduct, the K exponent that
    each position carries summed afresh over the factors it covers: those
    below it for E, those above it for F, all of them for K."""
    dims = v.space.dims
    n = len(dims)
    out = {}
    for idx, c in v.coeffs.items():
        weight = [dims[b] - 1 - 2 * idx[b] for b in range(n)]
        if gen == "K":
            terms = [(idx, QScalar.q_power(sum(weight)))]
        elif gen == "E":
            terms = [(idx[:a] + (idx[a] - 1,) + idx[a + 1:],
                      qint(idx[a]) * qint(dims[a] - idx[a]) * QScalar.q_power(sum(weight[:a])))
                     for a in range(n) if idx[a]]
        else:
            terms = [(idx[:a] + (idx[a] + 1,) + idx[a + 1:], QScalar.q_power(-sum(weight[a + 1:])))
                     for a in range(n) if idx[a] < dims[a] - 1]
        for new, factor in terms:
            out[new] = out.get(new, Q_ZERO) + factor * c
    return TensorVector(v.space, out)


def selberg_oracle(l, alpha, beta, gamma) -> float:
    """Selberg product formula for the l-dimensional hypercube integral.

    Divide by l! to compare with integrals over the ordered simplex.  Every
    Gamma argument is positive in the convergence region enforced here.
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
    log_total = 0.0
    for j in range(l):
        for arg in (alpha + j * gamma, beta + j * gamma, 1.0 + (j + 1) * gamma):
            log_total += math.lgamma(arg)
        for arg in (alpha + beta + (l + j - 1) * gamma, 1.0 + gamma):
            log_total -= math.lgamma(arg)
    return math.exp(log_total)


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


def delta_fusion(d, d1, d2, kappa) -> float:
    """Exponent governing the merging asymptotics of a neighbor pair, in
    closed form: h(d) - h(d1) - h(d2) for the Kac weights h."""
    return (2.0 * (1 + d * d - d1 * d1 - d2 * d2) + kappa * (d1 + d2 - d - 1)) / (
        2.0 * kappa
    )


def gauss_jordan(rows, ncols):
    """Reduced row echelon form of a matrix of QScalars over its first
    ncols columns: (the nonzero rows, their pivot columns).  The reference
    keeps its own elimination, so it does not share the library's."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                f = row[c]
                rows[i] = [x if y.is_zero() else x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def hwv_basis_by_elimination(space, d):
    """Highest weight basis of weight q^(d-1) as the kernel of the E-matrix
    on the K-eigenspace, by exact Gaussian elimination, echelon-normalized
    against ascending multi-index order."""
    total = sum(dd - 1 for dd in space.dims)
    twice_s = total - (d - 1)
    if twice_s < 0 or twice_s % 2:
        return []
    s = twice_s // 2
    indices = list(product(*map(range, space.dims)))
    col_idx = sorted(i for i in indices if sum(i) == s)
    if not col_idx:
        return []
    row_idx = sorted(i for i in indices if sum(i) == s - 1)
    row_pos = {i: r for r, i in enumerate(row_idx)}
    # rows are target indices, columns the weight-space basis
    emat = [[Q_ZERO] * len(col_idx) for _ in row_idx]
    for c, idx in enumerate(col_idx):
        img = act("E", TensorVector.basis(space, idx))
        for tgt, val in img.coeffs.items():
            emat[row_pos[tgt]][c] = val
    # with no rows the echelon form is empty and every column is free
    reduced, pivots = gauss_jordan(emat, len(col_idx))
    pivset = set(pivots)
    kernel = []
    for free in range(len(col_idx)):
        if free in pivset:
            continue
        vec = [Q_ZERO] * len(col_idx)
        vec[free] = Q_ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        kernel.append(vec)
    if not kernel:
        return []
    canon, _ = gauss_jordan(kernel, len(col_idx))
    return [TensorVector(space, {col_idx[i]: val for i, val in enumerate(row)
                                 if not val.is_zero()})
            for row in canon]


def hwv_pair_reference(d1, d2, m):
    """hwv_pair(d1, d2, m) as _pair_weights' Laurent polynomials times
    the QScalar 1/([m]! [d1-1]! [d2-1]! (q - 1/q)^m), each product reduced
    by the general QScalar constructor."""
    scale = (qfact(m) * qfact(d1 - 1) * qfact(d2 - 1) * Q_COMM ** m).inverse()
    return TensorVector(TensorSpace((d1, d2)),
                        {pi: c * scale for pi, c in _pair_weights(d1, d2, m).items()})


def ladder_prefactor(d, l):
    """q^(l(l-1)/2) prod_(t=1..l) (q^(d-t) - q^(t-d)), the prefactor of a
    group of dimension d with l loops; its factor at t = d is zero."""
    out = LaurentPoly.q_power(l * (l - 1) // 2)
    for t in range(1, l + 1):
        out = out * (LaurentPoly.q_power(d - t) - LaurentPoly.q_power(t - d))
    return QScalar.from_poly(out)


def reduction_entries_by_enumeration(dims, counts):
    """Triangular-array sum over loop reassignments, one slot assignment
    at a time, coded apart from the package: its own prefactor and its
    own compositions.

    Group i distributes its counts[i] loops over slots 1..i; slot j
    collects the loops of all groups at or beyond it.  Each reassignment
    carries a q-multinomial and integer q-powers for the crossings it
    introduces.
    """
    n = len(dims)
    pref = Q_ONE
    for d, l in zip(dims, counts):
        pref = pref * ladder_prefactor(d, l)
    if pref.is_zero():
        return {}
    entries = {}
    # every way to spread counts[i] loops over slots 0..i
    slot_choices = [[k for k in product(range(counts[i] + 1), repeat=i + 1)
                     if sum(k) == counts[i]] for i in range(n)]
    for arrays in product(*slot_choices):
        mult = Q_ONE
        expo = 0
        for gi, parts in enumerate(arrays):
            mult = mult * qmultinom(counts[gi], parts)
            s = sum(parts)
            expo -= (s * s - sum(p * p for p in parts)) // 2
        for i in range(n):
            ki = arrays[i]
            for ip in range(i + 1, n):
                kip = arrays[ip]
                # later-group loops parked strictly left of earlier ones
                expo -= 2 * sum(ki[j] * sum(kip[:j]) for j in range(1, len(ki)))
                expo += (dims[i] - 1) * sum(kip[: i + 1])
        m = tuple(sum(arrays[i][j] for i in range(j, n)) for j in range(n))
        entries[m] = entries.get(m, Q_ZERO) + mult * QScalar.q_power(expo)
    out = {}
    for m, coeff in entries.items():
        val = pref * coeff
        if not val.is_zero():
            out[m] = val
    return out


def unit_rule_by_stacking(aL, aR, grow, pair, tail, h, shift):
    """coulomb._unit_rule_build as first written, with its edge masks
    shifted by np.append and np.insert and its rows joined by np.stack:
    the reference its in-place form must match bit for bit."""
    if aL <= -1.0 or aR <= -1.0:
        raise ValueError("endpoint exponents must exceed -1")
    u_lo = -math.asinh(80.0 / (math.pi * (1.0 + aL)))
    u_hi = math.asinh(80.0 / (math.pi * (1.0 + aR)))
    u = (np.arange(math.floor(u_lo / h - shift), math.ceil(u_hi / h - shift) + 1) + shift) * h
    s = math.pi * np.sinh(u)
    logt = -np.logaddexp(0.0, -s)
    log1mt = -np.logaddexp(0.0, s)
    logw = np.log(h * math.pi * np.cosh(u)) + (1.0 + aL) * logt + (1.0 + aR) * log1mt
    heavy = logw - grow * log1mt >= logw.max() + math.log(tail)
    rate = min(1.0, pair)
    inside = (np.append(logt[1:], 0.0) >= _log_edge(aL, rate, tail)) & (
        np.insert(log1mt[:-1], 0, 0.0) >= _log_edge(aR - grow, 0.0 if grow else rate, tail))
    floor = (logt >= _LOG_EDGE) & (log1mt >= _LOG_EDGE)
    kept = np.flatnonzero(inside & floor & heavy)
    a, b = kept[0], kept[-1]
    logw[a] = np.logaddexp.reduce(logw[: a + 1])
    logw[b] = np.logaddexp.reduce(logw[b:])
    logt, log1mt, logw = logt[a : b + 1], log1mt[a : b + 1], logw[a : b + 1]
    return np.stack((np.exp(logt), np.exp(log1mt), logt, logw))


# -- the nested sum that re-derives each level's program at every call -----
#
# coulomb._level_sum executes the program its plan (coulomb._Plan) derived
# once per level; level_sum_reference re-derives it at every level call,
# with _spread, _flat and _motion as they were, and is the reference its
# sums must match bit for bit.


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


def _flat(a, shape, slot):
    # a over a level's grid (copies, nodes, columns), as the next level's
    # (copies, 1, columns): a view where a spans the grid, else spread
    # into slot
    if a.shape != shape:
        slot[...] = a
        a = slot
    return a.reshape(shape[0], 1, -1)


@lru_cache(maxsize=None)
def spread_reference(levels, jet):
    """For each level idx, the offsets (p, field) of the levels p <= idx
    that a later level reads, the fields 0 to 4 being lo, hi, span, log lo
    and log hi.  A level reads its parent's lo and hi, and the log of the
    one at the end it nests from; the span that each of its "span" factors
    adds; and the hi of the level of each "group" factor, with its lo as
    well when a jet is carried."""
    reads = []
    for lev in levels:
        fields = set()
        if not lev.pivot:
            fields.update(((lev.parent, 0), (lev.parent, 1), (lev.parent, 4 if lev.mirrored else 3)))
        for _, kind, k in lev.factors:
            if kind == "span":
                fields.add((k, 2))
            elif kind == "group":
                fields.update(((k, 0), (k, 1)) if jet else ((k, 1),))
        reads.append(fields)
    later = [set().union(*reads[idx + 1:]) for idx in range(len(levels))]
    return tuple(tuple(sorted(pf for pf in later[idx] if pf[0] <= idx)) for idx in range(len(levels)))


def level_sum_reference(levels, idx, rules, spread, outer, x, tab, work, out):
    """coulomb._level_sum as it was before its plan: every call re-derives
    its level's program from the levels, spread (spread_reference) and the
    jet tables tab, and reads x at every chunk."""
    lev, rule = levels[idx], rules[idx]
    copies, n = rule.shape[1:3]
    rows, width, _, size = out.shape
    if n * copies * size * width > coulomb._CHUNK_CAP:
        fit = coulomb._CHUNK_CAP // (n * size * width)
        per, step = (fit, size) if fit else (1, max(2, coulomb._CHUNK_CAP // (n * width)))
        starts = range(0, max(1, size - 1), step)
        if per < copies or len(starts) > 1:
            for c in range(0, copies, per):
                part = [r[:, c : c + per] for r in rules]
                for s, e in zip(starts, [*starts[1:], size]):
                    chunk = {k: a[c : c + per, :, s:e] for k, a in outer.items()}
                    level_sum_reference(levels, idx, part, spread, chunk, x, tab, work,
                                        out[:, :, c : c + per, s:e])
            return
    t, omt, logt, logwe = rule
    last = idx == len(levels) - 1
    shape = (copies, n, size)
    keys = spread[idx]
    i = lev.group
    # an offset is needed for a raised variable, for the factors that read
    # it (hi the charges at or right of x_i, lo the rest but the spans),
    # and where a later level reads it
    sides = {int(kind == "charge" and k >= i) for _, kind, k in lev.factors if kind != "span"}
    needs = [bool(tab.active) or f in sides or (idx, f) in keys for f in (0, 1)]
    if lev.pivot:
        # S is a number, and the offsets stay columns
        S = x[i] - x[i - 1]
        logS = math.log(S)
        span = hi = S * omt
        lo = S * t if needs[0] else None
    else:
        # a mirrored level is a downward one with lo and hi swapped: its t
        # runs from x_i, and S is its parent's hi
        near, far, log_near = (1, 0, 4) if lev.mirrored else (0, 1, 3)
        S, far_S, logS = outer[lev.parent, near], outer[lev.parent, far], outer[lev.parent, log_near]
        own = _scratch(work, (idx, "own"), (3,) + shape)
        span = np.multiply(S, omt, out=own[2])
        far_off = np.add(far_S, span, out=own[1])
        near_off = np.multiply(S, t, out=own[0]) if needs[near] else None
        lo, hi = (far_off, near_off) if lev.mirrored else (near_off, far_off)
    # G starts from the rule's column; the envelopes t^(-envL) and
    # (1 - t)^(-envR) split the same way.  A pivot's offsets are columns,
    # so its G, with its power of S, stays a column until the pair
    # factors, the first terms to span the outer grid.  Another level's G
    # is the rule's own column until its first term, and is written into
    # full from then on, or into that term's buffer where the term is a
    # spare offset
    full = _scratch(work, (idx, "G"), shape)
    G = np.add(logwe, lev.power * logS) if lev.pivot else logwe
    term = _scratch(work, "tmp", span.shape)
    # a spare offset is one nothing reads after its last factor: its log
    # is written over it, and the spans after the first run in the span's
    # own buffer
    spare = last and not tab.active and not lev.pivot
    final = {int(kind == "charge" and k >= i): j for j, (_, kind, k) in enumerate(lev.factors)
             if kind != "span"}
    spans = own[2] if spare else _scratch(work, "spans", shape)
    # the moving factors, charges by point, then other groups' variables
    # earliest first; the pair factors share one exponent, so one log of
    # their product, whose first distance is written into it
    moving, groups, pairs, dist = [], [], None, span
    for j, (e, kind, k) in enumerate(lev.factors):
        if kind == "charge":
            # D = w - x_k left of the interval, x_k - w right of it: an
            # offset plus c, x_k's distance to the interval's end
            right = k >= i
            D, c = (hi, x[k] - x[i]) if right else (lo, x[i - 1] - x[k])
            log = D if spare and final[right] == j else term
            D = np.add(D, c, out=log) if c else D
            if tab.active and _moves(lev, kind, k):
                moving.append((e, (-1.0 if right else 1.0) / D, _motion(tab, ((k, 1.0),))))
            np.multiply(np.log(D, out=log), e, out=log)
            G = np.add(G, log, out=(full if log is term else log) if G is logwe else G)
            continue
        into = _scratch(work, "pairs", shape) if pairs is None else None
        if kind == "span":
            D = dist = np.add(dist, outer[k, 2], out=spans if into is None else into)
        else:
            # D = w - w_k, lo plus its hi and the gap between the groups
            g = levels[k].group
            D = np.add(lo, outer[k, 1] + (x[i - 1] - x[g]),
                       out=_scratch(work, "tmp", shape) if into is None else into)
            if tab.active:
                gap = x[g] - x[g - 1]
                groups.append((e, 1.0 / D, _motion(tab, ((g - 1, outer[k, 1] / gap), (g, outer[k, 0] / gap)))))
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
    if not last:
        # the offsets later levels read, over this level's nodes: this
        # level's own are views, but for the logs and a pivot's columns,
        # and the outer levels' are spread.  A level's log is that of its
        # offset from the end it nests from, but for a pivot's log hi
        fresh = [p < idx or lev.pivot or f >= 3 for p, f in keys]
        slots = iter(_scratch(work, (idx, "outer"), (sum(fresh),) + shape))
        inner = _scratch(work, (idx, "inner"), (rows, width, copies, n * size))
        carried = {}
        for (p, f), new in zip(keys, fresh):
            slot = next(slots) if new else None
            if p < idx:
                a = outer[p, f]
            elif f >= 3:
                a = np.add(logS, np.log(omt) if lev.pivot and f == 4 else logt, out=slot)
            else:
                a = (lo, hi, span)[f]
            carried[p, f] = _flat(a, shape, slot)
        level_sum_reference(levels, idx + 1, rules, spread, carried, x, tab, work, inner)
    P = None
    if moving:
        gap = x[i] - x[i - 1]
        omega = _motion(tab, ((i - 1, hi / gap), (i, lo / gap)))
        P = exp_series(tab, log_series(tab, shape, omega, moving, work), work)
    if last:
        if P is None:
            out[:, 0] = G.sum(axis=1)
            if width > 1:
                out[:, 1:] = 0.0
        else:
            np.einsum("cgts,gts->cgs", P, G, out=out[0])
            # P is read no more: its moduli take its place
            np.einsum("cgts,gts->cgs", np.abs(P, out=P), G, out=out[1])
    else:
        inner = inner.reshape((rows, width) + shape)
        if P is not None:
            series_product(tab, P, inner, work)
        inner *= G
        inner.sum(axis=3, out=out)
    if not lev.pivot:
        # the column factor S^power, in every row
        out *= np.exp(lev.power * logS).reshape(copies, size)


def nested_reference(levels, grids, x, tab, work):
    """coulomb._nested on level_sum_reference: the sums of the grids of
    one pass, as (grids, rows, coefficients)."""
    rows, starts, _ = coulomb._stack(coulomb._Plan(levels), tuple(grids))
    rules = [np.stack(r) for r in rows]
    out = np.empty((2 if tab.active else 1, tab.size, rules[0].shape[1], 1))
    level_sum_reference(levels, 0, rules, spread_reference(levels, bool(tab.active)), {}, x, tab,
                        work, out)
    return np.add.reduceat(out[..., 0], starts, axis=2).transpose(2, 0, 1)


def _gamma(x) -> float:
    """Gamma through math.lgamma, with its sign on the negative axis."""
    if x <= 0 and x == int(x):
        raise ValueError("Gamma has a pole at non-positive integers")
    sign = -1.0 if x < 0 and math.ceil(-x) % 2 else 1.0
    return sign * math.exp(math.lgamma(x))


def hyp2f1(a, b, c, z) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real 0 <= z < 1.

    The power series sums directly for z <= 1/2.  Above that, the
    z <-> 1 - z connection formula (Abramowitz-Stegun 15.3.6) maps it to
    two series in 1 - z; it needs c - a - b away from the integers.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError("z must lie in [0, 1)")
    if z > 0.5:
        s = c - a - b
        if s == round(s):
            raise ValueError("c - a - b is an integer: the connection is degenerate")
        w = 1.0 - z
        first = _gamma(c) * _gamma(s) / (_gamma(c - a) * _gamma(c - b))
        second = _gamma(c) * _gamma(-s) / (_gamma(a) * _gamma(b))
        return (first * hyp2f1(a, b, 1.0 - s, w)
                + second * w**s * hyp2f1(c - a, c - b, 1.0 + s, w))
    term, total, k = 1.0, 1.0, 0
    while abs(term) > 1e-17 * abs(total):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
        if k > 10_000:
            raise ArithmeticError("2F1 series did not converge")
    return total


# -- the finite-difference reference of the operator checks ----------------
#
# Central differences of a plain function on a lattice of points,
# extrapolated over two strides, give the Taylor coefficients an operator
# check reads.  The step h is relative: the stencil spacing is h times the
# smallest gap between consecutive coordinates.  Stencils are of order
# _STENCIL_ORDER and extrapolated over _RICHARDSON_LEVELS strides.

_STENCIL_ORDER = 4
_RICHARDSON_LEVELS = 2

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
    """The Taylor coefficients `reads` of the plain function f, from
    central differences on a lattice of step h_fine whose origin holds
    value, extrapolated over the strides."""
    h_fine, strides = _steps(h, x, total_order)
    memo = {(0,) * len(x): value}

    def g(k):
        got = memo.get(k)
        if got is None:
            got = memo[k] = f(tuple(xi + h_fine * ki for xi, ki in zip(x, k)))
        return got

    coeffs = {}
    for alpha in reads:
        if any(alpha):
            coeffs[alpha] = _richardson([_difference(g, alpha, s, h_fine * s) for s in strides])
        else:
            coeffs[alpha] = value
    return Jet(tuple(coeffs), coeffs, dict.fromkeys(coeffs, 0.0))


def fd_jets(f, h=1e-3):
    """Jet evaluator for the plain function f of a point tuple: called at a
    JetPoint, it returns the jet over the point's index set from finite
    differences of f with relative step h, with zero error estimates."""
    if not h > 0:
        raise ValueError("step must be positive")

    def ev(point):
        x = tuple(point)
        return _fd_jet(f, x, point.index, sum(point.index[-1]), h, f(x))

    return ev
