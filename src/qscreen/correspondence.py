"""Correlation functions attached to tensor product vectors.

Each basis vector of the tensor product maps to a function on the chamber
through an exact coefficient table that trades the nested contour
integrals for real ordered ones.  The table is a triangular-array sum
over the ways each group spreads its loops over the slots at or left of
it.  A recursion over groups builds it, with the tuple of partial slot
totals as its state; each group reads its moves from one table per
(earlier dims, loops).  The tables share their exact products: each set
of groups has one prefactor, which multiplies each distinct state
polynomial once, and equal entries of any tables are one QScalar.  The
bookkeeping is easy to get wrong, so `verify` compares the one- and
two-group tables with independently coded closed forms, and the test
suite checks longer tables against a slot-by-slot enumeration and low
orders against the direct contour oracle.

Vectors combine at the exact coefficient level before any quadrature
runs.  Cancellations that close the integration surface for highest
weight vectors are therefore exact: no weight of such a vector keeps a
screening variable between the anchor and the first point, so the anchor
drops out of F_hwv exactly, before any quadrature.

Every rho term of F_hwv then reads only differences of the points and is
homogeneous of one degree, and the F of a trivial vector is also special
conformal covariant.  So an F_hwv jet is built from n - 3 directions for
a trivial vector and n - 2 for any other: the quadrature carries the jet
in the other points, asked for rel_tol / L with L the Lebesgue factor of
the held ones, and the Ward identities L_{-1}, L_0 and L_1 of
jet.generator_terms fill the coefficients of the held points, their
estimates propagated by moduli.  phi and F_anchor jets stay
direct, every direction through the quadrature, as rho's do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from operator import add

import numpy as np

from .coulomb import (
    ChamberPoint,
    _check_increasing,
    _check_rel_tol,
    _dims_counts,
    _record,
    _rho,
    _rho_degree,
    b_const,
    h_weight,
)
from .jet import Jet, JetPoint, _order, generator_terms
from .qseries import (
    KappaParams,
    LaurentPoly,
    QScalar,
    Q_ONE,
    eval_q,
    _qmultinom_poly,
    qbinom,
    qfact,
    shared_denominator,
)
from .uqsl2 import (
    Q_COMM,
    TensorVector,
    _hwv_weights,
    project_block,
    r_minus,
    r_plus,
)

_SEPARATIONS = (1e-2, 1e-3, 1e-4)


# -- reduction of basis functions to real integrals ------------------------


@dataclass(frozen=True, eq=False)
class ReductionTable:
    """Exact coefficients carrying one basis function onto the rephased
    real integrals: the function equals the sum over entries of
    coefficient * _rephasing(m) * rho at the assignment m."""

    dims: tuple
    l: tuple
    entries: dict


def _compositions(total, parts):
    """Weak compositions of total into the given number of parts."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _group_prefactor(d, l):
    """Ladder product for one group; contains an exact zero once l >= d."""
    out = QScalar.q_power(l * (l - 1) // 2)
    for t in range(1, l + 1):
        out = out * (QScalar.q_power(d - t) - QScalar.q_power(t - d))
    return out


@lru_cache(maxsize=None)
def _groups_prefactor(groups):
    """Product of the group prefactors over the sorted (d, l) pairs with
    l > 0, shared by every table with the same groups in any order."""
    pref = Q_ONE
    for d, l in groups:
        pref = pref * _group_prefactor(d, l)
    return pref


@lru_cache(maxsize=None)
def _products(pref):
    """The entries pref * poly that any table has made so far, keyed by
    the Laurent polynomial poly, one dict per prefactor: equal entries
    of any tables are one immutable QScalar."""
    return {}


@lru_cache(maxsize=None)
def _moves(dims, s):
    """The ways group i = len(dims) spreads its s loops over slots 0..i,
    shared by every table whose groups before it have the dimensions
    dims: each composition k with its own q-power, the doubled nonzero
    prefix sums as (slot, 2 P[j]) pairs and the terms of its
    q-multinomial."""
    i = len(dims)
    # tail[j]: the charges that the group's loops in slot j cross, the
    # sum of d_g - 1 over j <= g < i
    tail = [0] * (i + 1)
    for g in range(i - 1, -1, -1):
        tail[g] = tail[g + 1] + dims[g] - 1
    moves = []
    for k in _compositions(s, i + 1):
        own = sum(kj * tj for kj, tj in zip(k, tail))
        own -= (s * s - sum(p * p for p in k)) // 2
        # P[j] for the slots j < i that hold earlier loops
        prefix = tuple((j, 2 * p) for j, p in enumerate(accumulate(k[:-2], initial=0)) if p)
        moves.append((k, own, prefix, tuple(_qmultinom_poly(k).coeffs.items())))
    return tuple(moves)


def _append_group(states, dims, s):
    """States after one more group, the group i = len(dims), with s loops.

    states maps the partial slot totals M of groups 0..i-1 to their
    Laurent polynomial as {exponent: coefficient}, and so does the
    result for the new totals.  The group spreads its loops over slots
    0..i as a composition k with prefix sums P; the assignment gains the
    q-multinomial of k, a q-power of k alone for the crossings inside the
    group and with the earlier groups' charges, and q^(-2 P[j] M[j]) for
    the group's loops left of slot j against the earlier loops in it.
    The moves come from _moves, built once per (dims, s), and a state's
    crossings sum over the nonzero P[j] alone.
    """
    moves = _moves(dims, s)
    out = {}
    for state, poly in states.items():
        for k, own, prefix, mult in moves:
            shift = own
            for j, p2 in prefix:
                shift -= p2 * state[j]
            acc = out.setdefault(tuple(map(add, state + (0,), k)), {})
            for e1, v1 in poly.items():
                for e2, v2 in mult:
                    e = e1 + e2 + shift
                    acc[e] = acc.get(e, 0) + v1 * v2
    return out


def _general_entries(dims, counts):
    """Triangular-array sum over loop reassignments, as a recursion over
    groups.

    Group i distributes its counts[i] loops over slots 0..i; slot j
    collects the loops of all groups at or beyond it, so the slot totals
    are the assignment m.  The q-power of a reassignment depends on the
    earlier groups only through their partial slot totals, so the state
    after each group is the tuple of those totals with the summed Laurent
    polynomial of the reassignments that reach it.  The product of the
    group prefactors is built once per set of groups with l > 0, and it
    multiplies each distinct state polynomial once over all tables
    (_products), not once per entry.
    """
    pref = _groups_prefactor(tuple(sorted((d, l) for d, l in zip(dims, counts) if l)))
    if pref.is_zero():
        return {}
    states = {(): {0: 1}}
    for i, s in enumerate(counts):
        states = _append_group(states, dims[:i], s)
    made = _products(pref)
    out = {}
    for m, poly in states.items():
        # a state's coefficients are sums of products of q-multinomial
        # terms, all positive, so the map holds no zero to trim
        poly = LaurentPoly._trusted(poly)
        val = made.get(poly)
        if val is None:
            val = made[poly] = pref * QScalar.from_poly(poly)
        if not val.is_zero():
            out[m] = val
    return out


def _closed_form_entries(dims, counts):
    """Independently coded tables for one and two groups."""
    if len(dims) == 1:
        pref = _group_prefactor(dims[0], counts[0])
        return {} if pref.is_zero() else {(counts[0],): pref}
    (d1, _d2), (l1, l2) = dims, counts
    pref = _group_prefactor(dims[0], l1) * _group_prefactor(dims[1], l2)
    if pref.is_zero():
        return {}
    out = {}
    for t in range(l2 + 1):
        coeff = pref * qbinom(l2, t) * QScalar.q_power(t * (t - l2 + d1 - 1))
        if not coeff.is_zero():
            out[(l1 + t, l2 - t)] = coeff
    return out


# each table is built once per (dims, counts)
_table_entries = lru_cache(maxsize=None)(_general_entries)


def reduction_coeffs(dims, l) -> ReductionTable:
    """Exact table taking one basis function to the real integrals.

    Each table is built once per (dims, l) and cached.  `verify
    reduction.closed_form_gate` compares one- and two-group tables with
    independent closed forms, and the tests compare longer ones with a
    slot-by-slot enumeration.
    """
    dims, counts = _dims_counts(dims, l)
    entries = dict(_table_entries(dims, counts))
    return ReductionTable(dims, counts, entries)


def _rephasing(m):
    """Exact factor prod_i [m_i]! q^(-m_i (m_i - 1)/2) taking the real
    integral at the assignment m to its rephased variant."""
    out = Q_ONE
    for mi in m:
        out = out * qfact(mi) * QScalar.q_power(-(mi * (mi - 1) // 2))
    return out


# -- numeric evaluation ----------------------------------------------------


def _evaluate(weights, c, dims, kappa, rel_tol):
    # checked here too: a sum whose weights all vanish runs no integral
    _check_rel_tol(rel_tol)
    jet = isinstance(c.xs, JetPoint)
    # a plain point asks for the jet over the zero multi-index alone
    index = c.xs.index if jet else ((0,) * c.n,)
    total = np.zeros(len(index), dtype=complex)
    err = np.zeros(len(index))
    for m, w in weights:
        value, est, _ = _rho(c, dims, m, kappa, rel_tol, index)
        total += w * value
        err += abs(w) * est
    # the jet's value coefficient is what an eval_stats() block receives
    _record(float(err[0]))
    if not jet:
        return complex(total[0])
    return Jet(index, dict(zip(index, total.tolist())), dict(zip(index, err.tolist())))


@lru_cache(maxsize=1024)
def _exact_weights(dims, coeffs):
    """Per-assignment weights of the linear extension, sorted by
    assignment, for the vector with the given frozenset of (index,
    coefficient): the exact sums of its tables, rephasing included, with
    the exact zeros dropped.  The tables act and sum on the coefficients'
    numerators over their shared denominator D (shared_denominator), and
    each weight is divided by D once."""
    numerators, D = shared_denominator(coeffs)
    weights = {}
    for idx, cv in numerators.items():
        for m, ck in _table_entries(dims, idx).items():
            prev = weights.get(m)
            weights[m] = ck * cv if prev is None else prev + ck * cv
    return tuple(
        (m, w * _rephasing(m) / D) for m, w in sorted(weights.items()) if not w.is_zero()
    )


@lru_cache(maxsize=1024)
def _kappa_weights(dims, coeffs, kappa):
    """_exact_weights at the numeric q of kappa."""
    kp = KappaParams(kappa)
    return tuple((m, eval_q(w, kp)) for m, w in _exact_weights(dims, coeffs))


@lru_cache(maxsize=1024)
def _check_anchor_free(dims, coeffs):
    """Raise ArithmeticError when an exact weight survives at an
    assignment with a screening variable on [x0, x_1].

    For a vector killed by E the tables cancel every such weight, so no
    integral of its sum reads the anchor, which carries no charge.  A
    surviving one means the tables are wrong.
    """
    opened = [m for m, _ in _exact_weights(dims, coeffs) if m[0]]
    if opened:
        raise ArithmeticError(
            f"the weights of the vector on dims={dims} keep the assignments"
            f" {opened}, with a screening variable on [x0, x_1]"
        )


def phi(c: ChamberPoint, dims, l, kappa, rel_tol: float = 1e-9) -> complex:
    """Basis function at one chamber point, through the reduction table.

    Exactly zero whenever some count reaches its group dimension, without
    touching the quadrature.  Marked points given as a JetPoint return
    the Taylor jet in them, with the anchor held fixed, as a Jet.
    """
    dims, counts = _dims_counts(dims, l, c.n)
    weights = _kappa_weights(dims, frozenset({(counts, Q_ONE)}), kappa)
    return _evaluate(weights, c, dims, kappa, rel_tol)


def _check_points(dims, n):
    if len(dims) != n:
        raise ValueError(f"vector lives on {len(dims)} points but the chamber has {n}")


def F_anchor(v: TensorVector, c: ChamberPoint, kappa,
             rel_tol: float = 1e-9) -> complex:
    """Linear extension of the basis functions to a tensor vector.

    Coefficients of all basis components are combined exactly before any
    integral is evaluated, so the linearity holds at the coefficient level
    and exact cancellations never reach the quadrature.  Marked points
    given as a JetPoint return the Taylor jet in them, with the anchor
    held fixed, as a Jet.
    """
    dims = v.space.dims
    _check_points(dims, c.n)
    weights = _kappa_weights(dims, frozenset(v.coeffs.items()), kappa)
    return _evaluate(weights, c, dims, kappa, rel_tol)


def default_anchor(xs):
    """One chamber span left of the first point (one unit for a single point)."""
    return xs[0] - ((xs[-1] - xs[0]) or 1.0)


def F_hwv(v: TensorVector, x, kappa, rel_tol: float = 1e-9) -> complex:
    """Function of a highest weight vector on the chamber itself.

    The exact weights of such a vector keep no screening variable on
    [x0, x_1] (_check_anchor_free), so F_anchor gives it the same bits at
    every anchor; F_hwv evaluates it at default_anchor(x).  A JetPoint x
    returns the Taylor jet of F in x as a Jet, built by _ward_jet from a
    quadrature jet over n - 3 of the points for a vector of the trivial
    subrepresentation and n - 2 for any other, asked for rel_tol / L.
    """
    return _F_hwv(v.space.dims, frozenset(v.coeffs.items()), x, kappa, rel_tol)


def _F_hwv(dims, coeffs, x, kappa, rel_tol):
    # F_hwv of the vector on dims whose (index, coefficient) pairs the
    # caller gathered once into the frozenset coeffs, the key of every
    # cache it reads
    _check_points(dims, len(x))
    hwv_weights = _hwv_weights(dims, coeffs)
    if hwv_weights is None:
        raise ValueError("not a highest weight vector (E.v != 0)")
    _check_anchor_free(dims, coeffs)
    xs = tuple(float(xi) for xi in x)
    _check_increasing(xs)
    weights = _kappa_weights(dims, coeffs, kappa)
    if not isinstance(x, JetPoint):
        return _evaluate(weights, ChamberPoint(default_anchor(xs), x), dims, kappa, rel_tol)
    return _ward_jet(weights, x, dims, kappa, rel_tol, 3 if hwv_weights <= {0} else 2)


def _lagrange(y, held, t):
    # the Lagrange basis of the held points of y, at t
    return [math.prod((t - y[g]) / (y[h] - y[g]) for g in held if g != h) for h in held]


def _ward_jet(weights, x, dims, kappa, rel_tol, identities):
    """The jet of F at the JetPoint x from a quadrature jet over the points
    not held, of the request's top order, and the first `identities` of
    the three global Ward identities L_{-1} F = 0 (translation), L_0 F = 0
    (Euler) and L_1 F = 0 (special conformal), with L_p as
    jet.generator_terms gives it about z = mean(x) over every point.  L_1
    has the weights h_i = h_weight(d_i) and L_0 weights that sum to -D, D
    the degree _rho_degree gives.  With y = x - mean(x), the coefficient
    beta of L_p F holds -sum_i y_i^(1+p) (beta_i + 1) c_(beta + e_i) and
    terms in c_beta and lower.  Every rho term obeys the first two, so
    terms of several degrees are filled one degree at a time and summed;
    the third holds for the sum of a trivial vector's terms, which share
    one degree.

    min(identities, n) points are held: those of least Lebesgue factor
    L = sum_f sum_h |l_h(y_f)|, over the free points f and the Lagrange
    basis l_h of the held ones, ties going to the lowest indices.  For each
    beta, by increasing order in the held points, the identities less
    their held unknowns c_(beta + e_h) are a Vandermonde system in those
    unknowns, solved by the coefficients of the l_h.  A filled
    coefficient's estimate is the sum of the moduli of its terms' factors
    times their estimates; the free points' terms enter with factors
    l_h(y_f), so the quadrature is asked for rel_tol / max(1, L).
    """
    n, top = len(x), sum(x.index[-1])
    mean = math.fsum(x) / n
    y = [xi - mean for xi in x]
    spread, held = min((sum(abs(l) for f in range(n) if f not in held
                            for l in _lagrange(y, held, y[f])), held)
                       for held in combinations(range(n), min(identities, n)))
    free = [i for i in range(n) if i not in held]
    inverse = []
    for h in held:
        # the power coefficients of l_h, one row of the Vandermonde inverse
        row = [1.0]
        for g in held:
            if g != h:
                row = [(lo - y[g] * hi) / (y[h] - y[g]) for lo, hi in zip([0.0] + row, row + [0.0])]
        inverse.append(row)
    hw = [h_weight(d, kappa) for d in dims]
    betas = sorted((b for k in range(top) for b in _order(n, range(n), k)),
                   key=lambda b: sum(b[h] for h in held))
    c = ChamberPoint(default_anchor(x), JetPoint(x, [(0,) * n] + _order(n, free, top)))
    parts = {}
    for m, w in weights:
        parts.setdefault(sum(m), []).append((m, w))
    coeffs, errs = dict.fromkeys(x.index, 0.0), dict.fromkeys(x.index, 0.0)
    # with no weights the one empty sum still checks rel_tol
    for ell, part in (parts or {0: []}).items():
        ward = ((-1, hw), (0, (-_rho_degree(dims, ell, kappa),) + (0.0,) * (n - 1)), (1, hw))
        jet = _evaluate(part, c, dims, kappa, rel_tol / max(1.0, spread))
        value, est = dict(jet.coeffs), dict(jet.errs)
        for beta in betas:
            unknowns = [_shifted(beta, h, 1) for h in held]
            # sum_h y_h^(1+p) (beta_h + 1) c_(beta + e_h) = side_p
            sides = []
            for p, w in ward[:identities]:
                side = {}
                for _, alpha, f in generator_terms(p, mean, x, w, beta, range(n)):
                    if alpha not in unknowns:
                        side[alpha] = side.get(alpha, 0.0) + f
                sides.append(side)
            for row, h, gamma in zip(inverse, held, unknowns):
                terms = {}
                for wk, side in zip(row, sides):
                    for alpha, f in side.items():
                        terms[alpha] = terms.get(alpha, 0.0) + wk * f
                value[gamma] = sum(f * value[alpha] for alpha, f in terms.items()) / gamma[h]
                est[gamma] = sum(abs(f) * est[alpha] for alpha, f in terms.items()) / gamma[h]
        for alpha in x.index:
            coeffs[alpha] += value[alpha]
            errs[alpha] += est[alpha]
    return Jet(x.index, coeffs, errs)


def _shifted(alpha, i, by):
    return alpha[:i] + (alpha[i] + by,) + alpha[i + 1:]


# -- collapse asymptotics and the point at infinity ------------------------


def _power_fit(seps, values):
    """Pairwise log-log slopes and their geometric extrapolation."""
    mags = [abs(z) for z in values]
    if min(mags) == 0.0:
        nan = float("nan")
        return (nan,) * (len(seps) - 1), nan
    slopes = tuple(
        math.log(mags[i + 1] / mags[i]) / math.log(seps[i + 1] / seps[i])
        for i in range(len(seps) - 1)
    )
    # the leading correction to each slope shrinks by the separation ratio
    r = seps[-1] / seps[-2]
    return slopes, slopes[-1] + (slopes[-1] - slopes[-2]) * r / (1.0 - r)


def asymptotics_check(v: TensorVector, j, k, d, eta, kappa,
                      rel_tol: float = 1e-9) -> dict:
    """Collapse the points x_j..x_k at the fixed ratios eta and compare
    with the predicted power law and constant.

    The points sit at 1..n, and the block at xi - sep/2 + eta * sep about
    its midpoint xi, for each separation sep of _SEPARATIONS.  v must lie
    in the d summand of the block: uqsl2.project_block splits it into
    paths (tau, hat), and F[v] / sep^(h_d - sum of the block's h_i) tends
    to the reference, the sum over paths of F_hwv(tau, eta) times F_anchor
    of hat with the block replaced by xi.  A pair is the block (j, j+1)
    with eta = (0, 1), where F_hwv(tau, eta) is b_const.  The report holds
    the values and ratios at each separation, their pairwise log-log
    slopes, the exponent extrapolated from them, the predicted one and the
    reference.
    """
    dims = v.space.dims
    n = len(dims)
    paths = project_block(v, j, k, d)
    eta = tuple(float(e) for e in eta)
    if len(eta) != k - j + 1:
        raise ValueError(f"expected {k - j + 1} ratios, got {len(eta)}")
    if eta[0] != 0.0 or eta[-1] != 1.0:
        raise ValueError("ratios must start at 0 and end at 1")
    if any(not a < b for a, b in zip(eta, eta[1:])):
        raise ValueError("ratios must increase strictly")
    exponent_ref = h_weight(d, kappa) - sum(
        h_weight(dims[i], kappa) for i in range(j - 1, k)
    )
    xi = (j + k) / 2.0
    base = [float(i) for i in range(1, n + 1)]
    values = []
    for sep in _SEPARATIONS:
        pts = base[: j - 1] + [xi - sep / 2.0 + e * sep for e in eta] + base[k:]
        values.append(F_anchor(v, ChamberPoint(0.0, tuple(pts)), kappa, rel_tol))
    slopes, fit = _power_fit(_SEPARATIONS, values)
    collapsed = ChamberPoint(0.0, tuple(base[: j - 1] + [xi] + base[k:]))
    return {
        "separations": _SEPARATIONS,
        "eta": eta,
        "values": tuple(values),
        "ratios": tuple(z / sep ** exponent_ref for z, sep in zip(values, _SEPARATIONS)),
        "slopes": slopes,
        "exponent": fit,
        "exponent_ref": exponent_ref,
        "reference": sum(F_hwv(tau, eta, kappa, rel_tol)
                         * F_anchor(hat, collapsed, kappa, rel_tol)
                         for tau, hat in paths),
    }


def infinity_limit(v: TensorVector, side, kappa,
                   rel_tol: float = 1e-9) -> dict:
    """Send the outermost point to infinity and compare the limit with the
    function with one point less.

    side selects which end escapes: "plus" sends the last point to
    +infinity, "minus" the first point to -infinity.  Requires a vector of
    the trivial subrepresentation, so both sides are anchor free and F is
    Moebius covariant.  The finite points sit at 1..n-1, and the limit is
    read exactly, with no extrapolation: mu(z) = -1/(z - c) keeps the
    order of the points and sends the escaping one to 0, so for "plus",
    with c = x_1 - 1, lim s^(2 h_n) F(x', s) = prod_(i<n) |x_i -
    c|^(-2 h_i) F(mu(x'), 0), one F_hwv call; "minus" takes c = x_(n-1) +
    1 and F(0, mu(x')).  The reference is the edge constant times F_hwv
    of r_plus(v) or r_minus(v) at the finite points.  The report holds
    the side, the limit, the constant, the reference and the relative
    error of the limit against the reference.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    # r_plus and r_minus refuse a vector that is not trivial or has one tensorand
    reduced = r_plus(v) if side == "plus" else r_minus(v)
    dims = v.space.dims
    kp = KappaParams(kappa)
    finite = tuple(float(i) for i in range(1, len(dims)))
    if side == "plus":
        d_edge = dims[-1]
        edge_scalar = Q_COMM ** (d_edge - 1) * qfact(d_edge - 1) ** 2
        c = finite[0] - 1.0
    else:
        d_edge = dims[0]
        drop = QScalar.from_poly(LaurentPoly({-2: 1, 0: -1}))
        edge_scalar = drop ** (d_edge - 1) * qfact(d_edge - 1) ** 2
        c = finite[-1] + 1.0
    constant = eval_q(edge_scalar, kp) * b_const(1, d_edge, d_edge, kappa, rel_tol)
    images = tuple(-1.0 / (x - c) for x in finite)
    pts = images + (0.0,) if side == "plus" else (0.0,) + images
    jacobian = math.prod(abs(x - c) ** (-2.0 * h_weight(di, kappa))
                         for x, di in zip(finite, reduced.space.dims))
    limit = jacobian * F_hwv(v, pts, kappa, rel_tol)
    reference = constant * F_hwv(reduced, finite, kappa, rel_tol)
    denom = abs(reference)
    return {
        "side": side,
        "limit": limit,
        "constant": constant,
        "reference": reference,
        "relative_error": abs(limit - reference) / denom if denom > 0.0 else abs(limit),
    }
