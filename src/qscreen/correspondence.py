"""Correlation functions attached to tensor product vectors.

Each basis vector of the tensor product maps to a function on the chamber
through an exact coefficient table that trades the nested contour
integrals for real ordered ones.  The table is a triangular-array sum
over the ways each group spreads its loops over the slots at or left of
it.  A recursion over groups builds it, with the tuple of partial slot
totals as its state, so tables that share their first groups share
those states.  The bookkeeping is easy to get wrong, so every build of a
one- or two-group table is compared against an independently coded
closed form, and the test suite checks longer tables against a
slot-by-slot enumeration and low orders against the direct contour
oracle.

Vectors combine at the exact coefficient level before any quadrature
runs.  Cancellations that close the integration surface for highest
weight vectors are therefore exact, which is what makes the anchor drop
out of F_hwv up to quadrature error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add

import numpy as np

from .coulomb import (
    ChamberPoint,
    _check_increasing,
    _check_rel_tol,
    _dims_counts,
    _record,
    _rho,
    b_const,
    delta_fusion,
    h_weight,
)
from .jet import Jet, JetPoint
from .qseries import (
    KappaParams,
    LaurentPoly,
    QScalar,
    Q_ONE,
    eval_q,
    _qmultinom_poly,
    qbinom,
    qfact,
    qint,
)
from .uqsl2 import (
    Q_COMM,
    TensorSpace,
    TensorVector,
    act,
    is_hwv,
    project,
    r_minus,
    r_plus,
)

_SEPARATIONS = (1e-2, 1e-3, 1e-4)
_S_VALUES = (1e2, 1e3, 1e4)


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


def _group_prefactor(d, l):
    """Ladder product for one group; contains an exact zero once l >= d."""
    out = QScalar.q_power(l * (l - 1) // 2)
    for t in range(1, l + 1):
        out = out * (QScalar.q_power(d - t) - QScalar.q_power(t - d))
    return out


def _append_group(states, dims, s):
    """States after one more group, the group i = len(dims), with s loops.

    states pairs the partial slot totals M of groups 0..i-1 with their
    Laurent polynomial as (exponent, coefficient) pairs; the result maps
    the new totals to {exponent: coefficient}.  The group spreads its
    loops over slots 0..i as a composition k with prefix sums P; the
    assignment gains the q-multinomial of k, a q-power of k alone for the
    crossings inside the group and with the earlier groups' charges, and
    q^(-2 P[j] M[j]) for the group's loops left of slot j against the
    earlier loops in it.
    """
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
        prefix = list(accumulate(k[:-1], initial=0))
        moves.append((k, own, prefix, _qmultinom_poly(k).coeffs.items()))
    out = {}
    for state, poly in states:
        for k, own, prefix, mult in moves:
            shift = own - 2 * sum(p * mj for p, mj in zip(prefix, state))
            acc = out.setdefault(tuple(map(add, state + (0,), k)), {})
            for e1, v1 in poly:
                for e2, v2 in mult:
                    e = e1 + e2 + shift
                    acc[e] = acc.get(e, 0) + v1 * v2
    return out


@lru_cache(maxsize=None)
def _prefix_states(dims, counts):
    """The states after the groups of a proper prefix of a table, shared
    by every table that starts with it."""
    if not counts:
        return (((), ((0, 1),)),)
    states = _append_group(
        _prefix_states(dims[:-1], counts[:-1]), dims[:-1], counts[-1]
    )
    # tuples of pairs hold a cached state in less memory than dicts
    return tuple((m, tuple(poly.items())) for m, poly in states.items())


def _general_entries(dims, counts):
    """Triangular-array sum over loop reassignments, as a recursion over
    groups.

    Group i distributes its counts[i] loops over slots 0..i; slot j
    collects the loops of all groups at or beyond it, so the slot totals
    are the assignment m.  The q-power of a reassignment depends on the
    earlier groups only through their partial slot totals, so the state
    after each group is the tuple of those totals with the summed Laurent
    polynomial of the reassignments that reach it.  The states of the
    proper prefixes are cached; the last group's are not, since
    _table_entries keeps the finished table.  The product of the group
    prefactors multiplies every entry once at the end.
    """
    pref = Q_ONE
    for d, l in zip(dims, counts):
        pref = pref * _group_prefactor(d, l)
    if pref.is_zero():
        return {}
    states = _append_group(
        _prefix_states(dims[:-1], counts[:-1]), dims[:-1], counts[-1]
    )
    out = {}
    for m, poly in states.items():
        val = pref * QScalar.from_poly(LaurentPoly(poly))
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


@lru_cache(maxsize=None)
def _table_entries(dims, counts):
    entries = _general_entries(dims, counts)
    if len(dims) <= 2 and entries != _closed_form_entries(dims, counts):
        raise ArithmeticError(
            f"reduction table for dims={dims}, l={counts} fails the"
            " closed-form cross-check"
        )
    return entries


def reduction_coeffs(dims, l) -> ReductionTable:
    """Exact table taking one basis function to the real integrals.

    Each table is built once per (dims, l) and cached.  One- and two-group
    tables are checked against independent closed forms when built and
    must match exactly; a mismatch means the triangular array itself is
    wrong and raises instead of returning bad data.
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


# the jet with its error estimates, so a cached term still reports them;
# the key holds the index set and the anchor's motion, zero at a plain
# point, so plain calls share their entries whatever anchor they move
_rho_cached = lru_cache(maxsize=4096)(_rho)


def _evaluate(weights, c, dims, kappa, rel_tol, moves=None):
    # checked here too: a sum whose weights all vanish runs no integral
    _check_rel_tol(rel_tol)
    jet = isinstance(c.xs, JetPoint)
    # a plain point asks for the jet over the zero multi-index alone
    index = c.xs.index if jet else ((0,) * c.n,)
    moves = tuple(moves) if jet and moves else (0.0,) * c.n
    total = np.zeros(len(index), dtype=complex)
    err = np.zeros(len(index))
    for m, w in weights:
        value, est = _rho_cached(c, dims, m, kappa, rel_tol, index, moves)
        total += w * value
        err += abs(w) * est
    # the jet's value coefficient is what an eval_stats() block receives
    _record(float(err[0]))
    if not jet:
        return complex(total[0])
    return Jet(index, dict(zip(index, total.tolist())), dict(zip(index, err.tolist())))


@lru_cache(maxsize=1024)
def _kappa_weights(dims, coeffs, kappa):
    """Per-assignment weights of the linear extension at the numeric q of
    kappa, sorted by assignment, for the vector with the given frozenset
    of (index, coefficient); the exact sums, rephasing included, are
    formed first."""
    weights = {}
    for idx, cv in coeffs:
        for m, ck in _table_entries(dims, idx).items():
            prev = weights.get(m)
            weights[m] = ck * cv if prev is None else prev + ck * cv
    kp = KappaParams(kappa)
    return tuple(
        (m, eval_q(w * _rephasing(m), kp))
        for m, w in sorted(weights.items())
        if not w.is_zero()
    )


@lru_cache(maxsize=1024)
def _killed_by_E(dims, coeffs):
    return act("E", TensorVector(TensorSpace(dims), dict(coeffs))).is_zero()


def phi(c: ChamberPoint, dims, l, kappa, rel_tol: float = 1e-9) -> complex:
    """Basis function at one chamber point, through the reduction table.

    Exactly zero whenever some count reaches its group dimension, without
    touching the quadrature.  Marked points given as a JetPoint return
    the Taylor jet in them, with the anchor held fixed, as a Jet.
    """
    dims, counts = _dims_counts(dims, l, c.n)
    weights = _kappa_weights(dims, frozenset({(counts, Q_ONE)}), kappa)
    return _evaluate(weights, c, dims, kappa, rel_tol)


def F_anchor(v: TensorVector, c: ChamberPoint, kappa,
             rel_tol: float = 1e-9) -> complex:
    """Linear extension of the basis functions to a tensor vector.

    Coefficients of all basis components are combined exactly before any
    integral is evaluated, so the linearity holds at the coefficient level
    and exact cancellations never reach the quadrature.  Marked points
    given as a JetPoint return the Taylor jet in them, with the anchor
    held fixed, as a Jet.
    """
    return _linear_extension(v, c, kappa, rel_tol, None)


def _linear_extension(v, c, kappa, rel_tol, moves):
    # moves: how the anchor moves with the marked points, for a jet
    dims = v.space.dims
    if len(dims) != c.n:
        raise ValueError(
            f"vector lives on {len(dims)} points but the chamber has {c.n}"
        )
    weights = _kappa_weights(dims, frozenset(v.coeffs.items()), kappa)
    return _evaluate(weights, c, dims, kappa, rel_tol, moves)


def default_anchor(xs):
    """One chamber span left of the first point (one unit for a single point)."""
    return xs[0] - ((xs[-1] - xs[0]) or 1.0)


def _default_anchor_moves(n):
    # default_anchor is 2 x_1 - x_n, or x_1 - 1 for a single point
    if n == 1:
        return (1.0,)
    return (2.0,) + (0.0,) * (n - 2) + (-1.0,)


def F_hwv(v: TensorVector, x, kappa, rel_tol: float = 1e-9,
          x0=None) -> complex:
    """Function of a highest weight vector on the chamber itself.

    x0 defaults to default_anchor(x); for a highest weight vector the
    value does not depend on it up to quadrature error.  A JetPoint x
    returns the Taylor jet of F in x as a Jet, with the default anchor
    moving along, so translation and scaling act on every term alike.
    """
    if not _killed_by_E(v.space.dims, frozenset(v.coeffs.items())):
        raise ValueError("not a highest weight vector (E.v != 0)")
    xs = tuple(float(xi) for xi in x)
    _check_increasing(xs)
    if x0 is not None:
        anchor, moves = float(x0), None
    else:
        anchor, moves = default_anchor(xs), _default_anchor_moves(len(xs))
    # a JetPoint x stays one in the chamber point
    return _linear_extension(v, ChamberPoint(anchor, x), kappa, rel_tol, moves)


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
    if len(slopes) == 1:
        return slopes, slopes[0]
    # the leading correction to each slope shrinks by the separation ratio
    r = seps[-1] / seps[-2]
    return slopes, slopes[-1] + (slopes[-1] - slopes[-2]) * r / (1.0 - r)


def _collapse_series(v, points_at, exponent_ref, kappa, rel_tol):
    """F_anchor of v at points_at(s) for each separation s in _SEPARATIONS,
    the ratios after dividing out s**exponent_ref, and the fitted power."""
    values = []
    ratios = []
    for sep in _SEPARATIONS:
        val = F_anchor(v, ChamberPoint(0.0, points_at(sep)), kappa, rel_tol)
        values.append(val)
        ratios.append(val / sep ** exponent_ref)
    slopes, fit = _power_fit(_SEPARATIONS, values)
    return {
        "separations": _SEPARATIONS,
        "values": tuple(values),
        "ratios": tuple(ratios),
        "slopes": slopes,
        "exponent": fit,
        "exponent_ref": exponent_ref,
        "constant": ratios[-1],
    }


def asymptotics_check(v: TensorVector, j, d, kappa,
                      rel_tol: float = 1e-9) -> dict:
    """Collapse the neighbor pair (j, j+1) and compare with the predicted
    power law and constant.

    Returns a report with the values at each separation, the ratios after
    dividing out the predicted power, the fitted exponent, and the
    reference constant built from the reduced vector.
    """
    dims = v.space.dims
    n = len(dims)
    pi_image, hat = project(v, j, d)
    if pi_image != v:
        raise ValueError(
            f"vector is not in the d={d} summand of the pair ({j}, {j + 1})"
        )
    xi = j + 0.5
    base = [float(i) for i in range(1, n + 1)]

    def points_at(sep):
        pts = list(base)
        pts[j - 1] = xi - sep / 2.0
        pts[j] = xi + sep / 2.0
        return tuple(pts)

    exponent_ref = delta_fusion(d, dims[j - 1], dims[j], kappa)
    report = _collapse_series(v, points_at, exponent_ref, kappa, rel_tol)
    collapsed = tuple(base[: j - 1] + [xi] + base[j + 1:])
    report["reference"] = b_const(
        d, dims[j - 1], dims[j], kappa, rel_tol
    ) * F_anchor(hat, ChamberPoint(0.0, collapsed), kappa, rel_tol)
    return report


def infinity_limit(v: TensorVector, side, kappa,
                   rel_tol: float = 1e-9) -> dict:
    """Send the outermost point to infinity and compare the rescaled trend
    against the function with one variable less.

    side selects which end escapes: "plus" sends the last point to
    +infinity, "minus" the first point to -infinity.  Requires a vector of
    the trivial subrepresentation, so both sides are anchor free.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if not is_hwv(v, 1):
        raise ValueError("vector is not in the trivial subrepresentation")
    dims = v.space.dims
    n = len(dims)
    if n < 2:
        raise ValueError("need at least two tensorands")
    kp = KappaParams(kappa)
    finite = tuple(float(i) for i in range(1, n))
    if side == "plus":
        d_edge = dims[-1]
        reduced = r_plus(v)
        edge_scalar = Q_COMM ** (d_edge - 1) * qfact(d_edge - 1) ** 2
    else:
        d_edge = dims[0]
        reduced = r_minus(v)
        drop = QScalar.from_poly(LaurentPoly({-2: 1, 0: -1}))
        edge_scalar = drop ** (d_edge - 1) * qfact(d_edge - 1) ** 2
    constant = eval_q(edge_scalar, kp) * b_const(1, d_edge, d_edge, kappa, rel_tol)
    exponent = 2.0 * h_weight(d_edge, kappa)
    scaled = []
    for s in _S_VALUES:
        pts = finite + (s,) if side == "plus" else (-s,) + finite
        scaled.append(s ** exponent * F_hwv(v, pts, kappa, rel_tol))
    reference = constant * F_hwv(reduced, finite, kappa, rel_tol)
    denom = abs(reference)
    if denom > 0.0:
        errors = tuple(abs(z - reference) / denom for z in scaled)
    else:
        errors = tuple(abs(z) for z in scaled)
    return {
        "side": side,
        "s_values": _S_VALUES,
        "scaled": tuple(scaled),
        "constant": constant,
        "reference": reference,
        "relative_errors": errors,
    }


def _block_decompose(v, j, k):
    """Split v into a single outer basis configuration and the vector it
    carries on the block of positions j..k."""
    if v.is_zero():
        raise ValueError("zero vector has no block decomposition")
    dims = v.space.dims
    outer_set = {idx[: j - 1] + idx[k:] for idx in v.coeffs}
    if len(outer_set) != 1:
        raise ValueError(
            "vector is not a basis tensor outside the collapsing block"
        )
    outer = next(iter(outer_set))
    block_space = TensorSpace(dims[j - 1: k])
    block = TensorVector(
        block_space, {idx[j - 1: k]: cv for idx, cv in v.coeffs.items()}
    )
    return outer, block


def _ladder_root(u, d):
    """Write u as F^l applied to a highest weight vector of weight d.

    Returns (l, tau0); raises if u does not lie in one irreducible ladder.
    """
    chain = [u]
    w = u
    while not act("E", w).is_zero():
        w = act("E", w)
        chain.append(w)
    l = len(chain) - 1
    top = chain[-1]
    if not is_hwv(top, d):
        raise ValueError(
            f"block vector is not generated from a d={d} highest weight vector"
        )
    ladder = Q_ONE
    for t in range(1, l + 1):
        ladder = ladder * qint(t) * qint(d - t)
    tau0 = top.scale(ladder.inverse())
    check = tau0
    for _ in range(l):
        check = act("F", check)
    if check != u:
        raise ValueError(
            "block vector is not a ladder descendant of a highest weight vector"
        )
    return l, tau0


def general_asymptotics_check(v: TensorVector, j, k, d, eta, kappa,
                              rel_tol: float = 1e-9) -> dict:
    """Collapse the points x_j..x_k at fixed ratios and compare with the
    product of the block function and the reduced function.

    The vector must carry plain basis indices outside the block and a
    ladder descendant of a d-dimensional highest weight vector on it.
    """
    dims = v.space.dims
    n = len(dims)
    if not 1 <= j < k <= n:
        raise ValueError(f"block ({j}, {k}) out of range for n={n}")
    outer, block = _block_decompose(v, j, k)
    l, tau0 = _ladder_root(block, d)
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

    def points_at(sep):
        pts = list(base)
        for off, e in enumerate(eta):
            pts[j - 1 + off] = xi - sep / 2.0 + e * sep
        return tuple(pts)

    report = _collapse_series(v, points_at, exponent_ref, kappa, rel_tol)
    block_value = F_hwv(tau0, eta, kappa, rel_tol)
    hat_space = TensorSpace(dims[: j - 1] + (d,) + dims[k:])
    hat = TensorVector.basis(hat_space, outer[: j - 1] + (l,) + outer[j - 1:])
    collapsed = tuple(base[: j - 1] + [xi] + base[k:])
    report["eta"] = eta
    report["reference"] = block_value * F_anchor(
        hat, ChamberPoint(0.0, collapsed), kappa, rel_tol
    )
    report["block_value"] = block_value
    return report
