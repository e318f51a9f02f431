"""Tests for the Coulomb gas integrals and the contour oracle."""

import cmath
import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from closed_forms import (delta_fusion, delta_scaling, fd_jets, nested_reference, selberg_oracle,
                          unit_rule_by_stacking)

from qscreen import coulomb
from qscreen.coulomb import (
    ChamberPoint,
    QuadratureError,
    _anchored_log,
    b_const,
    contour_phi_oracle,
    eval_stats,
    h_weight,
    rho,
)
from qscreen.correspondence import F_hwv, _kappa_weights
from qscreen.jet import JetPoint, closure
from qscreen.jet import tables as jet_tables
from qscreen.pde import sle_pde_check, translation_check, vertex_prefactor
from qscreen.qseries import KappaParams, eval_q, qfact
from qscreen.uqsl2 import TensorSpace, hwv_pair, hwv_space_basis


def q_of(kappa):
    return cmath.exp(4j * math.pi / kappa)


def test_chamber_point_validation():
    c = ChamberPoint(0.0, (1.0, 2.5))
    assert c.n == 2
    with pytest.raises(ValueError):
        ChamberPoint(1.0, (1.0,))
    with pytest.raises(ValueError):
        ChamberPoint(0.0, (2.0, 1.0))
    with pytest.raises(ValueError):
        ChamberPoint(0.0, ())
    with pytest.raises(ValueError, match="finite"):
        ChamberPoint(float("-inf"), (0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ChamberPoint(0.0, (1.0, float("inf")))
    with pytest.raises(ValueError, match="finite"):
        ChamberPoint(0.0, (float("nan"), 1.0))


def test_rho_rel_tol_validation():
    # checked before the early return of a configuration with no screening
    for m in ((1, 0), (0, 0)):
        for rel_tol in (0.0, -1e-9, float("nan")):
            with pytest.raises(ValueError, match="rel_tol"):
                rho(ChamberPoint(0.0, (1.0, 2.0)), (2, 2), m, 8.0, rel_tol=rel_tol)


def test_integrand_trivial_dimension_drops_out():
    # a dimension-one point carries no charge, so moving it outside the
    # screening interval leaves the integral unchanged
    a = rho(ChamberPoint(0.0, (1.0, 2.0)), (3, 1), (1, 0), 10.0)
    b = rho(ChamberPoint(0.0, (1.0, 3.0)), (3, 1), (1, 0), 10.0)
    assert a == pytest.approx(b, rel=1e-14)


def test_integrand_rejects_bad_configurations():
    c = ChamberPoint(0.0, (1.0, 2.0))
    with pytest.raises(ValueError, match="expected 2 dimensions"):
        rho(c, (2,), (1,), 8.0)
    with pytest.raises(ValueError, match="positive integers"):
        rho(c, (2, 0), (1, 0), 8.0)
    with pytest.raises(ValueError, match="expected 2 screening counts"):
        contour_phi_oracle(c, (2, 2), (1,), 8.0)
    with pytest.raises(ValueError, match="nonnegative"):
        rho(c, (2, 2), (1, -1), 8.0)
    with pytest.raises(ValueError, match="kappa must be positive"):
        rho(c, (2, 2), (1, 0), 0.0)
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        rho(c, (2, 2), (1, 0), math.inf)
    # the oracle computes values only, and refuses a jet rather than drop it
    with pytest.raises(TypeError, match="JetPoint"):
        contour_phi_oracle(ChamberPoint(0.0, JetPoint((1.0, 2.0), [(1, 0)])), (2, 3), (1, 0), 10.0)


def test_rho_empty_configuration_is_prefactor():
    c = ChamberPoint(-1.0, (0.0, 2.0))
    assert rho(c, (2, 2), (0, 0), 8.0) == pytest.approx(2.0 ** 0.25, rel=1e-14)


def test_rho_one_screening_variable_closed_form():
    # single variable against one charge of weight 1/2: integral of
    # (1-w)^(-1/2) over (0, 1) equals 2
    c = ChamberPoint(0.0, (1.0,))
    assert rho(c, (2,), (1,), 8.0) == pytest.approx(2.0, rel=1e-10)


def test_rho_two_screening_variables_matches_selberg():
    c = ChamberPoint(0.0, (1.0,))
    val = rho(c, (2,), (2,), 8.0)
    ref = selberg_oracle(2, 1.0, 0.5, 0.5) / 2.0
    assert val == pytest.approx(ref, rel=1e-8)


def test_rho_selberg_family():
    kappa = 10.0
    c = ChamberPoint(0.0, (1.0,))
    for d in (2, 3):
        beta = 1.0 - 4.0 * (d - 1) / kappa
        for ell in (1, 2, 3):
            ref = selberg_oracle(ell, 1.0, beta, 4.0 / kappa) / math.factorial(ell)
            val = rho(c, (d,), (ell,), kappa, rel_tol=1e-7)
            assert val == pytest.approx(ref, rel=1e-6), (d, ell)


def test_rho_deep_offsets_below_ulp_stay_finite():
    # near the edge kappa > 12 the innermost offsets from x_1 = 1.35 fall
    # below ulp(1.35), where w - x_1 would round to zero
    kappa = 12.604
    c = ChamberPoint(0.0, (1.35, 2.369))
    alpha = 1.0 - 12.0 / kappa
    ref = selberg_oracle(3, alpha, alpha, 4.0 / kappa) / math.factorial(3)
    ref *= (2.369 - 1.35) ** delta_scaling(3, (4, 4), kappa)
    assert rho(c, (4, 4), (0, 3), kappa) == pytest.approx(ref, rel=1e-6)


def test_rho_doubling_convergence():
    c = ChamberPoint(0.0, (1.0, 2.5))
    v1 = rho(c, (2, 3), (1, 1), 10.0, rel_tol=1e-9)
    v2 = rho(c, (2, 3), (1, 1), 10.0, rel_tol=1e-12)
    assert abs(v2 - v1) <= 1e-9 * abs(v2)
    c1 = ChamberPoint(0.0, (1.0,))
    w1 = rho(c1, (2,), (3,), 8.0, rel_tol=1e-9)
    w2 = rho(c1, (2,), (3,), 8.0, rel_tol=1e-12)
    assert abs(w2 - w1) <= 1e-9 * abs(w2)


# Selberg gates near the convergence edge 4(d-1): the value meets rel_tol,
# and the quadrature's own estimate covers the true error unless that is
# below _ORACLE_FLOOR, a margin above the oracle's own rounding
_ORACLE_FLOOR = 1e-11
# the two-point form's chamber; its kappa = 16.75, l = 4 case is the
# reproducer whose error lives in the tensor grid and in the tails
_PAIR = ChamberPoint(-0.63, (0.37, 1.61))


def _selberg_one(ell, d, kappa):
    # one group on (0, 1): the anchor carries no charge, x_1 = 1 carries d
    beta = 1.0 - 4.0 * (d - 1) / kappa
    return selberg_oracle(ell, 1.0, beta, 4.0 / kappa) / math.factorial(ell)


def _selberg_pair(ell, d, kappa):
    alpha = 1.0 - 4.0 * (d - 1) / kappa
    ref = selberg_oracle(ell, alpha, alpha, 4.0 / kappa) / math.factorial(ell)
    x1, x2 = _PAIR.xs
    return ref * (x2 - x1) ** delta_scaling(ell, (d, d), kappa)


def _plan_levels(c, dims, m, kappa, rel_tol):
    # the levels of the plan of rho(c, dims, m, kappa, rel_tol), whose
    # rules stop at the tail that plan derives
    betas = coulomb._betas(dims, kappa)
    tail, _ = coulomb._plan_tail((c.x0,) + c.xs, betas, m, rel_tol)
    return coulomb._build_levels(m, betas, kappa, tail)


def _assert_gate(c, dims, m, kappa, rel_tol, ref, floor=_ORACLE_FLOOR):
    with eval_stats() as stats:
        val = rho(c, dims, m, kappa, rel_tol)
    rel = abs(val - ref) / abs(ref)
    assert rel <= rel_tol, rel
    assert max(stats.err_est / abs(val), floor) >= rel, (stats.err_est, rel)
    return stats


def test_eval_stats_blocks_nest():
    # an enclosing block receives what an inner block collected, the
    # evaluator call of an operator check included
    with eval_stats() as outer:
        with eval_stats() as inner:
            rho(ChamberPoint(0.0, (1.0,)), (3,), (2,), 9.0)
            translation_check(vertex_prefactor((2, 3), 9.0), (0.0, 1.0))
    assert inner.err_est > 0.0 and inner.grid_evals > 0 and inner.nodes > 0
    assert inner.evals == 1
    assert vars(outer) == vars(inner)


@pytest.mark.parametrize("edge", (0.5, 0.9))
@pytest.mark.parametrize("ell", (1, 2, 3))
def test_rho_selberg_gate_one_group(ell, edge):
    d = ell + 1
    kappa = 4.0 * (d - 1) + edge
    ref = _selberg_one(ell, d, kappa)
    _assert_gate(ChamberPoint(0.0, (1.0,)), (d,), (ell,), kappa, 1e-9, ref)


@pytest.mark.parametrize("edge", (0.5, 0.9))
@pytest.mark.parametrize("ell", (1, 2, 3))
def test_rho_selberg_gate_two_point(ell, edge):
    d = ell + 1
    kappa = 4.0 * (d - 1) + edge
    ref = _selberg_pair(ell, d, kappa)
    _assert_gate(_PAIR, (d, d), (0, ell), kappa, 1e-9, ref)


@pytest.mark.parametrize("ell", (1, 2, 3))
def test_rho_selberg_gate_fattest_tails(ell):
    # at kappa = 4(d - 1) + 0.05 the charged endpoint powers are within
    # 0.013 of -1: a rule at the start steps for 1e-9 folds 62 % (l = 1)
    # to 82 % of its weight onto its outermost nodes, and the gate holds
    d = ell + 1
    kappa = 4.0 * (d - 1) + 0.05
    levels = _plan_levels(_PAIR, (d, d), (0, ell), kappa, 1e-9)
    assert max(map(_folded_share, levels, coulomb._start_steps(levels, 1e-9))) > 0.4
    _assert_gate(_PAIR, (d, d), (0, ell), kappa, 1e-9, _selberg_pair(ell, d, kappa))


def test_rho_selberg_gate_mass_beyond_the_nodes():
    # at d = 5, kappa = 16.5 a rule at the start steps for 1e-9 stops
    # about 6e-25 from each charged end, and the tail beyond it holds 15 %
    # of the rule's weight, which the rule must add back
    kappa = 16.5
    c = ChamberPoint(0.0, (1.0,))
    _assert_gate(c, (5,), (1,), kappa, 1e-9, _selberg_one(1, 5, kappa))
    _assert_gate(_PAIR, (5, 5), (0, 1), kappa, 1e-9, _selberg_pair(1, 5, kappa))


def _folded_share(lev, h):
    # the share of the weight of the rule of a level at step h that its
    # outermost nodes carry for the tails beyond them: the node's own
    # tanh-sinh weight is recomputed from its t, as
    # log t - log(1 - t) = pi sinh u
    t, omt, logt, logw = coulomb._unit_rule(lev, h, 0.0)
    log1mt = np.log(omt)
    u = np.arcsinh((logt - log1mt) / math.pi)
    own = np.exp(np.log(h * math.pi * np.cosh(u)) + (1.0 + lev.aL) * logt + (1.0 + lev.aR) * log1mt)
    w = np.exp(logw)
    return float((w[0] - own[0] + w[-1] - own[-1]) / w.sum())


def test_unit_rule_build_matches_the_stacked_reference_bit_for_bit():
    # the rule masks its edges in place and writes its rows into one
    # array; the reference shifts them by np.append and np.insert and
    # stacks them.  Where the reference raises, so does the rule
    build = coulomb._unit_rule_build.__wrapped__
    exps = (-0.94, -0.3, 0.9, 3.0)
    for args in itertools.product(exps, exps, (0.0, 0.3, 1.7), (0.25, 0.5, 1.0, 2.0),
                                  (1e-3, 1e-7, 1e-12, 1e-16), (1 / 64, 0.1, 0.25, 0.5), (0.0, 0.5)):
        try:
            ref = unit_rule_by_stacking(*args)
        except (ArithmeticError, IndexError) as exc:
            with pytest.raises(type(exc)):
                build(*args)
            continue
        got = build(*args)
        assert got.shape == ref.shape and np.array_equal(got, ref), args



@pytest.mark.parametrize(
    "c, dims, counts, kappa",
    [
        # l = 1: a pivot alone, charges on both sides
        (ChamberPoint(-0.5, (0.0, 0.8, 2.0, 4.0)), (2, 2, 2, 2), (0, 0, 1, 0), 10.0),
        # l = 2: two groups, each with a group factor and charges beyond
        # both ends of its interval
        (ChamberPoint(-0.5, (0.0, 0.01, 2.0, 4.0)), (2, 2, 2, 2), (1, 0, 1, 0), 10.0),
        # l = 3: a pivot with a variable on each side, and a second group
        (ChamberPoint(-3.25, (-1.4, -0.13)), (3, 3), (2, 1), 9.0),
        # l = 4: two groups, a mirrored level, a pair across a pivot and
        # pairs to another group
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5)), (2, 4, 3), (0, 1, 3), 12.6),
    ],
)
def test_nested_sums_match_the_reference_bit_for_bit(c, dims, counts, kappa):
    # each level executes the program its plan derived once; the
    # reference re-derives it at every level call.  A plain value and
    # jets of order 1 and 2, on the first pass and on a halving of the
    # first level and of the last, give the same bits
    levels = _plan_levels(c, dims, counts, kappa, 1e-9)
    plan, x, n = coulomb._Plan(levels), (c.x0,) + c.xs, len(dims)
    steps = coulomb._start_steps(levels, 1e-9)
    passes = [coulomb._grids(steps)]
    for k in sorted({0, len(levels) - 1}):
        finer = list(steps)
        finer[k] /= 2.0
        passes.append([coulomb._grid(finer, (k,)) if j == k else coulomb._grid(steps, (j, k))
                       for j in range(len(levels))])
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for reads in ([(0,) * n], unit, [tuple(2 * a for a in unit[-1]), tuple(map(max, unit[0], unit[-1]))]):
        tab = jet_tables(closure(reads))
        for grids in passes:
            got = coulomb._nested(plan, grids, x, tab, {})
            ref = nested_reference(levels, grids, x, tab, {})
            assert got.shape == ref.shape and np.array_equal(got, ref), (reads, grids)


def test_chunked_first_pass_matches_the_reference_bit_for_bit():
    # the first pass of the four-variable two-point form at kappa = 16.75
    # sums its last levels in chunks of whole copies and of columns
    levels = _plan_levels(_PAIR, (5, 5), (0, 4), 16.75, 1e-9)
    grids = coulomb._grids(coulomb._start_steps(levels, 1e-9))
    x, tab = (_PAIR.x0,) + _PAIR.xs, jet_tables(((0, 0),))
    plan = coulomb._Plan(levels)
    rows = coulomb._stack(plan, tuple(grids))[0]
    assert len(rows[-1][0]) * math.prod(r[0].shape[1] for r in rows) > coulomb._CHUNK_CAP
    got = coulomb._nested(plan, grids, x, tab, {})
    assert np.array_equal(got, nested_reference(levels, grids, x, tab, {}))


def test_each_level_structure_builds_its_plan_once():
    # F of the (2,2,2,2) trivial vector at x and at three Moebius images,
    # at one kappa: every rho term whose counts and rule tail match share
    # one plan, built once, and a repeated evaluation builds none
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    kappa, x = 10.0, (0.0, 1.0, 2.0, 4.0)
    maps = ((1.0, 3.0, 0.0, 1.0), (1.7, 0.0, 0.0, 1.0), (1.0, 0.0, 0.05, 1.0))
    points = [x] + [tuple((a * xi + b) / (cc * xi + d) for xi in x) for a, b, cc, d in maps]
    counts = [m for m, _ in _kappa_weights(v.space.dims, frozenset(v.coeffs.items()), kappa)]
    assert all(map(any, counts))
    betas = coulomb._betas(v.space.dims, kappa)
    # F_hwv's anchor is default_anchor(x)
    keys = {(m, coulomb._plan_tail((xs[0] - (xs[-1] - xs[0]),) + xs, betas, m, 1e-9)[0])
            for xs in points for m in counts}
    terms = len(points) * len(counts)
    coulomb._rho_kept.cache_clear()
    coulomb._plan.cache_clear()
    values = [F_hwv(v, xs, kappa) for xs in points]
    info = coulomb._plan.cache_info()
    assert info.misses == info.currsize == len(keys) < terms == info.misses + info.hits, (info, keys)
    coulomb._rho_kept.cache_clear()
    assert [F_hwv(v, xs, kappa) for xs in points] == values
    again = coulomb._plan.cache_info()
    assert (again.misses, again.hits) == (info.misses, info.hits + terms), (info, again)


def test_rho_jet_sums_of_moduli_are_the_value_at_the_zero_index():
    # the integrand is positive, so over the zero multi-index the sums of
    # the moduli of the terms, which the estimates scale with, are the
    # sums themselves in every grid of a pass: a level's column factor
    # S^power multiplies both rows.  Two groups, a mirrored level and
    # three nested ones, carrying a first-order jet
    c, dims, counts, kappa = ChamberPoint(-1.0, (0.0, 1.0, 2.5)), (2, 4, 3), (0, 1, 3), 12.6
    levels = _plan_levels(c, dims, counts, kappa, 1e-6)
    assert sum(not lev.pivot for lev in levels) == 2
    tab = jet_tables(closure([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    grids = coulomb._grids(coulomb._start_steps(levels, 1e-6))
    sums = coulomb._nested(coulomb._Plan(levels), grids, (c.x0,) + c.xs, tab, {})
    assert sums.shape == (len(grids), 2, tab.size)
    np.testing.assert_allclose(sums[:, -1, 0], sums[:, 0, 0], rtol=1e-14, atol=0.0)


def test_rho_selberg_gate_four_variables():
    ref = _selberg_pair(4, 5, 16.75)
    _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)


def test_rho_plan_node_counts():
    # the plan halves from staggered start steps, and each halving sums
    # only the nodes it adds (a plan on probes summed 9.3e7 nodes, one
    # re-summing every pass 3.1e7), on rules that stop where their folded
    # tails are exact (rules that kept every node to 1e-300 from each end
    # summed 1.62e7 in 21 grids), with the variables nested from the middle
    # one (nested from the top, 9.49e6 in 21 grids), from the steps for
    # rel_tol (from steps of 1/2 and below, 5.74e6 in 17 grids); a call
    # counts its result's grids whether it sums them or reads the kept
    # result, so a repeated call counts the same grids
    ref = _selberg_pair(4, 5, 16.75)
    coulomb._rho_kept.cache_clear()
    cold = _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)
    assert cold.nodes <= 4e6 and cold.grid_evals <= 12, cold
    warm = _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)
    assert (warm.grid_evals, warm.nodes) == (cold.grid_evals, cold.nodes), (warm, cold)


def _cold_selberg_pair(ell, kappa, rel_tol):
    # rho on the two-point form, cold: the error against the Selberg
    # product is within the plan's own estimate, and the estimate within
    # rel_tol; returns the plan's counts
    coulomb._rho_kept.cache_clear()
    d = ell + 1
    with eval_stats() as stats:
        val = rho(_PAIR, (d, d), (0, ell), kappa, rel_tol)
    rel = abs(val - _selberg_pair(ell, d, kappa)) / abs(val)
    est = stats.err_est / abs(val)
    assert rel <= est <= rel_tol, (rel, est)
    return stats


@pytest.mark.parametrize(
    "ell, kappa, rel_tol, bound",
    [
        # nested from the top, the first three summed 1.78e5, 9.49e6 and
        # 3.00e7 nodes; started from steps of 1/2 and below, the second and
        # the last 5.74e6 and 4.65e7; on rules that stopped at a tail of
        # 1e-19, all four 58 947, 3 422 870, 22 730 739 and 22 730 739
        (3, 12.5, 1e-9, 4.7e4),
        (4, 16.75, 1e-9, 2.6e6),
        (5, 20.5, 1e-4, 7.2e6),
        (5, 20.5, 1e-6, 1.2e7),
    ],
    ids=["l3-12.5-1e-09", "l4-16.75-1e-09", "l5-20.5-1e-04", "l5-20.5-1e-06"],
)
def test_rho_selberg_gate_node_bounds(ell, kappa, rel_tol, bound):
    # cold, on the two-point form, the nodes summed are within the bound
    # that nesting each interval from its middle variable, starting from
    # the steps for rel_tol and stopping each rule at the tail for rel_tol
    # meet (about 1.2 times the counts they sum)
    stats = _cold_selberg_pair(ell, kappa, rel_tol)
    assert stats.nodes <= bound, stats


def test_rho_looser_rel_tol_sums_fewer_nodes():
    # l = 5 at 1e-4 and 1e-6 start from the same capped steps and halve no
    # level; their rules stop at the tail for their own rel_tol, so the
    # looser plan sums fewer nodes (at a tail of 1e-19 both summed
    # 22 730 739)
    loose = _cold_selberg_pair(5, 20.5, 1e-4)
    tight = _cold_selberg_pair(5, 20.5, 1e-6)
    assert loose.nodes < tight.nodes, (loose, tight)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=4), st.data())
def test_start_steps_are_capped_and_staggered(counts, data):
    # a pure function of the levels and rel_tol: every step at most 1/2,
    # and the j-th of a group's m levels, in nesting order from the pivot,
    # at base * 2^(j/m), base being the step at which exp(-pi^2 / (2h))
    # meets rel_tol, capped at 2^(-(m-1)/m) / 2, so no two steps of a group
    # are equal or in a rational ratio; from rel_tol = e^(-pi^2) on, and
    # at rel_tol >= 1, base is the cap
    dims = data.draw(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6)), min_size=len(counts),
                              max_size=len(counts)))
    kappa = 4.0 * (max(dims) - 1) + data.draw(st.floats(0.05, 4.0))
    rel_tol = 10.0 ** data.draw(st.floats(-14.0, -2.0))
    levels = coulomb._build_levels(tuple(counts), coulomb._betas(dims, kappa), kappa, 1e-12)
    steps = coulomb._start_steps(levels, rel_tol)
    again = coulomb._build_levels(tuple(counts), coulomb._betas(dims, kappa), kappa, 1e-12)
    assert coulomb._start_steps(again, rel_tol) == steps
    assert len(steps) == len(levels) and all(0.0 < h <= 0.5 for h in steps), steps
    for tol in (rel_tol, 1.0, 10.0):
        steps = coulomb._start_steps(levels, tol)
        for i, m in enumerate(counts, start=1):
            if not m:
                continue
            group = [h for h, lev in zip(steps, levels) if lev.group == i]
            cap = 0.5 * 2.0 ** (-(m - 1) / m)
            base = cap
            if tol < math.exp(-math.pi ** 2):
                base = min(cap, math.pi ** 2 / (2.0 * math.log(1.0 / tol)))
            assert group[0] == pytest.approx(base, rel=1e-15), (tol, group)
            js = [m * math.log2(h / group[0]) for h in group]
            assert js == pytest.approx(list(range(m)), abs=1e-9), (tol, group)


def _chain_levels(counts, betas, kappa):
    # the levels of every interval nested from its top variable down, each
    # over (x_(i-1), the one above): (group, top, aL, aR, env, grow, pair)
    levels = []
    for i, mi in enumerate(counts, start=1):
        for r in range(mi, 0, -1):
            k = r - 1
            env = k * (1.0 - betas[i - 1]) + (8.0 / kappa) * (0.5 * k * (k - 1) + k)
            aL = -betas[i - 1] + env
            aR = -betas[i] if r == mi else 8.0 / kappa
            grow = 0.0 if r == mi else betas[i]
            levels.append((i, r == mi, aL, aR, env, grow, 8.0 / kappa))
    return levels


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=4), st.data())
def test_build_levels_keeps_the_chain_up_to_two_variables(counts, data):
    # an interval of at most two variables nests from its top one, so its
    # levels are those of the chain field for field, and its results keep
    # their bits
    dims = data.draw(st.lists(st.sampled_from((1, 2, 3, 4)), min_size=len(counts),
                              max_size=len(counts)))
    kappa = 4.0 * (max(dims) - 1) + data.draw(st.floats(0.05, 4.0))
    betas = coulomb._betas(dims, kappa)
    levels = coulomb._build_levels(tuple(counts), betas, kappa, 1e-12)
    chain = _chain_levels(counts, betas, kappa)
    assert len(levels) == len(chain)
    for idx, (lev, (group, top, aL, aR, env, grow, pair)) in enumerate(zip(levels, chain)):
        assert (lev.group, lev.pivot, lev.aL, lev.aR, lev.envL, lev.grow, lev.pair) == (
            group, top, aL, aR, env, grow, pair), (idx, lev)
        assert lev.parent == (None if top else idx - 1) and not lev.mirrored and lev.envR == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4), st.data())
def test_level_factors_cover_every_pair_and_charge_once(counts, data):
    # each level lists the factors of the integrand that its rule does not
    # hold.  Over all levels, every pair of screening variables is a parent
    # link or a pair factor exactly once, every (variable, nonzero charge)
    # is held by the variable's rule or is a charge factor exactly once,
    # and the exponents _steady gives plus those of the moving factors sum
    # to the degree of homogeneity
    n = len(counts)
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    kappa = 4.0 * (max(dims) - 1) + data.draw(st.floats(0.05, 3.0))
    betas = coulomb._betas(dims, kappa)
    levels = coulomb._build_levels(tuple(counts), betas, kappa, 1e-12)
    pairs, charges, moving = Counter(), Counter(), []
    for idx, lev in enumerate(levels):
        i = lev.group
        held = (i - 1, i) if lev.pivot else (i if lev.mirrored else i - 1,)
        charges.update((idx, j) for j in held if betas[j])
        if not lev.pivot:
            pairs[frozenset((idx, lev.parent))] += 1
        # a span factor adds level k's span to the distance before it: up
        # the chain it reaches k's parent, across the pivot k itself
        reached = lev.parent
        for e, kind, k in lev.factors:
            if kind == "charge":
                assert e == -betas[k], (idx, lev.factors)
                charges[idx, k] += 1
            elif kind == "span":
                assert levels[k].group == i and reached in (k, levels[k].parent), (idx, lev.factors)
                reached = levels[k].parent if k == reached else k
                pairs[frozenset((idx, reached))] += 1
            else:
                assert levels[k].group != i, (idx, lev.factors)
                pairs[frozenset((idx, k))] += 1
            if coulomb._moves(lev, kind, k):
                moving.append(e)
    ell = len(levels)
    assert pairs == Counter(map(frozenset, itertools.combinations(range(ell), 2)))
    assert charges == Counter((idx, j) for idx in range(ell) for j, b in enumerate(betas) if b)
    x = tuple(float(k) for k in range(n + 1))
    steady = coulomb._steady(jet_tables(((0,) * n,)), x, dims, kappa, levels)[0]
    degree = coulomb._rho_degree(dims, ell, kappa)
    scale = np.abs(steady).sum() + sum(map(abs, moving)) + abs(degree)
    assert abs(steady.sum() + sum(moving) - degree) <= 1e-13 * scale, (steady, moving, degree)


@pytest.mark.parametrize(
    "c, dims, m, kappa, rel_tol",
    [
        # started from the steps for rel_tol, this case, the next and the
        # last one at kappa = 12.05 meet 1e-9 in their first pass; at these
        # rel_tol and kappa they still halve
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5, 4.0)), (2,) * 4, (1,) * 4, 10.0, 3e-13),
        (_PAIR, (4, 4), (0, 3), 12.5, 1e-14),
        (_PAIR, (5, 5), (0, 4), 16.75, 1e-9),
        # near the edge, where rules that stopped at their last node inside
        # their edges made the two differ by 0.13 of the plan's estimate
        # (at kappa = 12.05, which now meets 1e-14 unhalved)
        (_PAIR, (4, 4), (0, 3), 12.3, 1e-14),
    ],
    # the cases' names from before rel_tol was a parameter
    ids=["c0-dims0-m0-10.0", "c1-dims1-m1-12.5", "c2-dims2-m2-16.75", "c3-dims3-m3-12.3"],
)
def test_rho_composed_sums_are_the_direct_sums(monkeypatch, c, dims, m, kappa, rel_tol):
    # each halving composes the new sums from the old ones; on the cold
    # plan's final steps they must equal the direct sums over _grids up to
    # rounding and 1e-3 of the plan's own estimate.  A coarser rule stops
    # at another node than the finer one and folds its tail there, so the
    # two no longer agree to the last bits
    halve, seen = coulomb._halve, {}
    coulomb._rho_kept.cache_clear()

    def keep(plan, steps, x, rel_tol, floor, head, tab):
        seen.update(plan=plan, start=steps, x=x, tab=tab)
        seen["out"] = halve(plan, steps, x, rel_tol, floor, head, tab)
        return seen["out"]

    monkeypatch.setattr(coulomb, "_halve", keep)
    rho(c, dims, m, kappa, rel_tol)
    steps, value, moved = seen["out"]
    levels = seen["plan"].levels
    assert steps != tuple(seen["start"])
    direct, *direct_moved = coulomb._nested(seen["plan"], coulomb._grids(steps), seen["x"],
                                            seen["tab"], {})[:, 0, 0]
    est = sum(abs(a[0, 0] - value[0, 0]) for a in moved)
    bound = value[-1, 0] * len(levels) * 4 * np.finfo(float).eps + 1e-3 * est
    assert abs(value[0, 0] - direct) <= bound, (value[0, 0], direct, bound)
    for j, (a, b) in enumerate(zip(moved, direct_moved)):
        assert abs((a[0, 0] - value[0, 0]) - (b - direct)) <= bound, (j, a[0, 0], b, bound)


@pytest.mark.parametrize(
    "dims, m, kappa, first, second",
    [
        # a cold plan halves levels (0, 2, 0, 1) at the first point and
        # (1, 0, 2, 0) at the second
        ((3, 3), (2, 1), 9.0, ChamberPoint(-3.25, (-1.4, -0.13)), ChamberPoint(-0.1, (0.0, 5.0))),
        # (0, 1, 0) at the first, (0, 1) at the second
        ((2, 3), (1, 1), 8.8, ChamberPoint(-1.0, (0.0, 0.1)), ChamberPoint(0.0, (1.0, 2.5))),
    ],
)
def test_rho_does_not_depend_on_earlier_calls(dims, m, kappa, first, second):
    # a plain value sums the same grids and returns the same bits whatever
    # points were evaluated before it; a jet starts from its own point's
    # plain value, so its coefficients and estimates do not depend on them
    # either (a jet at (0; 1, 2.5) that started from the steps of the
    # latest point moved by 5e-11 relative at first order, 3e-10 at second).
    # Every evaluation empties the kept results first, so each one sums,
    # and only the state outside that cache could carry an earlier call
    def run(c):
        coulomb._rho_kept.cache_clear()
        with eval_stats() as stats:
            value = rho(c, dims, m, kappa)
        return value, stats.grid_evals, stats.nodes

    def jets(c):
        coulomb._rho_kept.cache_clear()
        return [rho(ChamberPoint(c.x0, JetPoint(c.xs, reads)), dims, m, kappa)
                for reads in ([(1, 0), (0, 1)], [(2, 0), (1, 1), (0, 2)])]

    alone = run(second)
    alone_jets = jets(second)
    before = run(first)
    before_jets = jets(first)
    assert run(second) == alone
    assert jets(second) == alone_jets
    assert run(first) == before
    assert jets(first) == before_jets


def _shift_estimates(steps, ell=4, d=5, kappa=16.75):
    # the relative change of each level's half-step shift, and the error
    # against the Selberg product, of the two-point form with ell
    # variables, four by default, at fixed steps, on the rules of a plan
    # at rel_tol 1e-12
    dims, counts = (d, d), (0, ell)
    levels = _plan_levels(_PAIR, dims, counts, kappa, 1e-12)
    x = (_PAIR.x0,) + _PAIR.xs
    # the jet over the zero multi-index alone is the value
    tab = jet_tables(((0, 0),))
    value, *moved = coulomb._nested(coulomb._Plan(levels), coulomb._grids(steps), x, tab, {})[:, 0, 0]
    ref = _selberg_pair(ell, d, kappa)
    pref = coulomb._x_prefactor(_PAIR.xs, dims, kappa)
    return [abs(m - value) / value for m in moved], abs(pref * value - ref) / ref


def test_rho_shared_step_aliases_across_a_group():
    # levels 0 and 1 are nested variables of one group, the pivot and the
    # variable below it; at one step the tensor grid misses a ridge along
    # u_0 - u_1 = const, and both shifts report the same joint error.  With
    # four variables nested from the top, steps (1/8, 1/8, 1/4, 1/4) showed
    # it; nested from the middle, those levels' errors there are below
    # 2e-13, so the two-variable form, nested as before, shows it
    ests, _ = _shift_estimates((0.15, 0.15), ell=2, d=6, kappa=20.5)
    assert abs(ests[0] - ests[1]) <= 0.1 * max(ests[0], ests[1]), ests
    assert min(ests[0], ests[1]) >= 1e-8, ests
    # an irrational step ratio removes it
    ests, err = _shift_estimates((0.15, 0.15 * 2 ** -0.5), ell=2, d=6, kappa=20.5)
    assert max(ests[0], ests[1], err) <= 1e-12, (ests, err)


@pytest.mark.parametrize(
    "c, dims, m, kappa, tight",
    [
        # a plan on probes (every other level at h = 1/2) read level 1 at
        # 1.7e-14 against a full-grid shift of 4e-13, and their sum (6e-13)
        # below the true error (1.1e-12)
        (ChamberPoint(-3.25, (-1.4, -0.13)), (2, 3), (1, 1), 8.8, 1e-14),
        # the steps a plan on probes chose missed rel_tol (2e-9) on the
        # full grid
        (ChamberPoint(-2.7, (-1.4, 2.0)), (2, 3), (1, 1), 8.8, 1e-14),
        # a probe read level 2 at 4e-12, its full-grid shift at 3.6e-11
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5, 4.0)), (2,) * 4, (1,) * 4, 10.0, 1e-12),
    ],
)
def test_rho_estimate_covers_where_probes_under_estimate(c, dims, m, kappa, tight):
    # the reference is the same integral at a far tighter rel_tol; the
    # returned estimate, the full grid's, must cover its error
    ref = rho(c, dims, m, kappa, rel_tol=tight)
    _assert_gate(c, dims, m, kappa, 1e-9, ref, floor=0.0)


def test_rho_selberg_gate_five_variables():
    ref = _selberg_pair(5, 6, 20.5)
    _assert_gate(_PAIR, (6, 6), (0, 5), 20.5, 1e-6, ref)


def test_rho_unreachable_rel_tol_raises():
    # below the rounding floor of a three-level sum no step is fine enough
    with pytest.raises(QuadratureError, match=r"l=3 .*level \d"):
        rho(_PAIR, (4, 4), (0, 3), 12.5, rel_tol=1e-15)
    # eight levels at their start steps already hold about 3e10 nodes: the
    # budget is checked before the first sum
    with eval_stats() as stats, pytest.raises(QuadratureError, match=r"l=8 .*budget"):
        rho(ChamberPoint(-1.0, (0.0, 1.0)), (9, 9), (0, 8), 32.5)
    assert stats.grid_evals == 0 and stats.nodes == 0, stats


def test_rho_raises_on_sums_that_are_not_finite(monkeypatch):
    # one nan in a node's moving series makes the nested sums nan; a nan
    # sum of moduli must not count as a level that has converged
    series, calls = coulomb.exp_series, []

    def poisoned(*args):
        out = series(*args)
        calls.append(None)
        if len(calls) == 3:
            out[-1].flat[0] = math.nan
        return out

    monkeypatch.setattr(coulomb, "exp_series", poisoned)
    coulomb._rho_kept.cache_clear()
    reads = [alpha for alpha in itertools.product(range(3), repeat=4) if sum(alpha) <= 2]
    c = ChamberPoint(-1.0, JetPoint((0.0, 1.0, 2.0, 4.0), reads))
    with pytest.raises(QuadratureError, match=r"l=2 .*nested sums are not finite"):
        rho(c, (2, 2, 2, 2), (0, 1, 1, 0), 10.0)


def test_rho_second_order_jet_across_a_shared_point():
    # variables on both sides of x_1 = -0.5: a rule that kept nodes 1e-300
    # from that end made the distance between two of them so small that its
    # second-order series overflowed, and the jet raised "not finite"; the
    # rules stop where their tails are exact, and the jet matches finite
    # differences of values
    x0, xs, dims, m, kappa = -1.5, (-0.5, -0.43), (3, 2), (1, 2), 9.07
    reads = [alpha for alpha in itertools.product(range(3), repeat=2) if sum(alpha) <= 2]
    jet = rho(ChamberPoint(x0, JetPoint(xs, reads)), dims, m, kappa)
    value = lambda x: rho(ChamberPoint(x0, x), dims, m, kappa, rel_tol=1e-12)
    fd = fd_jets(value, h=0.1)(JetPoint(xs, reads))
    for alpha in jet.index:
        assert jet[alpha] == pytest.approx(fd[alpha], rel=1e-5), alpha


def test_rho_budget_raises_before_summing_an_oversized_grid(monkeypatch):
    # the four-variable grid that meets 1e-9 holds about 4.2e5 nodes;
    # under a smaller budget the plan raises, and no grid it sums exceeds
    # it.  The second pass's grid holds 419 796 nodes and its copies with
    # level 2 or 3 shifted 430 560 and 443 118, so the budget must bound
    # the shifted copies too (on rules that stopped at a tail of 1e-19,
    # 648 440 against 673 380 and 680 862 were pinned by a budget of 6.6e5)
    monkeypatch.setattr(coulomb, "_GRID_BUDGET", 4.3e5)
    coulomb._rho_kept.cache_clear()
    summed = []
    nested = coulomb._nested

    def counting(plan, grids, geo, jet, work):
        summed.extend(coulomb._nodes(plan.levels, grid) for grid in grids)
        return nested(plan, grids, geo, jet, work)

    monkeypatch.setattr(coulomb, "_nested", counting)
    with eval_stats() as stats, pytest.raises(QuadratureError, match=r"l=4 .*budget"):
        rho(_PAIR, (5, 5), (0, 4), 16.75)
    assert summed and max(summed) <= 4.3e5, summed
    assert stats.nodes == sum(summed), stats


def test_rho_bits_do_not_depend_on_the_chunk_size(monkeypatch):
    # a level sums its outer grid in chunks, column by column, and writes
    # its arrays into the plan's scratch arrays; cut into many chunks, each
    # value, jet coefficient and estimate keeps its bits, which a scratch
    # array that aliases another or outlives its chunk would change
    cases = [
        (_PAIR, (5, 5), (0, 4), 16.75, 1e-7, None),
        (_PAIR, (4, 4), (0, 3), 12.5, 1e-9, [(1, 0), (0, 1)]),
        (ChamberPoint(-3.25, (-1.4, -0.13)), (3, 3), (2, 1), 9.0, 1e-9, [(2, 0), (1, 1), (0, 2)]),
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5, 4.0)), (2,) * 4, (1,) * 4, 10.0, 1e-6, [(0, 1, 0, 0)]),
    ]

    def run():
        # every result is summed, none read from the cache
        coulomb._rho_kept.cache_clear()
        results = []
        for c, dims, m, kappa, rel_tol, reads in cases:
            if reads:
                c = ChamberPoint(c.x0, JetPoint(c.xs, reads))
            with eval_stats() as stats:
                results.append(rho(c, dims, m, kappa, rel_tol))
            results.append(stats.err_est)
        return results

    default = run()
    monkeypatch.setattr(coulomb, "_CHUNK_CAP", 1 << 10)
    assert run() == default


@st.composite
def _chunk_cases(draw):
    # 2 to 4 marked points, 1 to 3 screening variables on random
    # intervals, kappa up to 4 past the convergence edge, and a plain
    # value or one first-order jet
    n = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    x0 = draw(st.floats(-2.0, 0.0))
    xs = tuple(x0 + sum(gaps[: i + 1]) for i in range(n))
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n)))
    m = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        m[i] += 1
    kappa = 4.0 * (max(dims) - 1) + draw(st.floats(0.5, 4.0))
    read = draw(st.none() | st.integers(0, n - 1))
    if read is not None:
        xs = JetPoint(xs, [tuple(int(i == read) for i in range(n))])
    return ChamberPoint(x0, xs), dims, tuple(m), kappa


@settings(max_examples=100, deadline=None)
@given(_chunk_cases())
# under 1 << 8 this case's last chunk of a level would hold one column,
# whose nodes numpy sums pairwise, not in node order
@example((ChamberPoint(0.0, (0.05, 1.1312438955933422)), (2, 2), (2, 0), 4.768809822266578))
def test_rho_bits_do_not_depend_on_the_chunk_size_on_random_cases(case):
    # the test above on drawn geometries: in chunks of 1 << 8 elements, the
    # value or jet and its estimate keep their bits
    def run():
        coulomb._rho_kept.cache_clear()
        with eval_stats() as stats:
            value = rho(*case, 1e-6)
        return value, stats.err_est

    default = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coulomb, "_CHUNK_CAP", 1 << 8)
        assert run() == default


def _clear_rules():
    # every cache that holds rules, or what was derived from them
    for cache in (coulomb._unit_rule_build, coulomb._stack, coulomb._largest, coulomb._rho_kept):
        cache.cache_clear()


def _orders(n, order):
    # every multi-index in n points of total order <= order
    return closure([alpha for alpha in itertools.product(range(order + 1), repeat=n)
                    if sum(alpha) <= order])


@st.composite
def _edge_cases(draw):
    # 1 to 3 marked points with gaps from 1e-3 to 3, charges of dimension
    # 2 to 4, 1 to 3 screening variables on random intervals, kappa at most
    # 1.5 past the convergence edge, and a value, a first-order or a
    # second-order jet in every point
    n = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    x0 = draw(st.floats(-2.0, 0.0))
    xs = tuple(x0 + sum(gaps[: i + 1]) for i in range(n))
    dims = tuple(draw(st.lists(st.sampled_from((2, 3, 4)), min_size=n, max_size=n)))
    m = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        m[i] += 1
    kappa = 4.0 * (max(dims) - 1) + draw(st.floats(0.02, 1.5))
    rel_tol = draw(st.sampled_from((1e-6, 1e-9, 1e-11)))
    return ChamberPoint(x0, xs), dims, tuple(m), kappa, rel_tol, _orders(n, draw(st.integers(0, 2)))


@settings(max_examples=100, deadline=None)
@given(_edge_cases())
# a rule that stopped at its last node inside the edge moved this jet's
# value and first-order coefficient by their estimates: at step 1/8 that
# node sat far inside the edge, and the charge 1e-3 beyond the lower end
# made the integrand reach its limit slowly
@example((ChamberPoint(0.0, (0.5, 0.501, 1.251)), (3, 2, 2), (0, 0, 1), 8.0625, 1e-6, _orders(3, 2)))
# the charge at x_2, 1/512 beyond the end of an interval of length 1,
# scales the move of the folds by up to gap / delta = 512: with that
# factor left out of the plan's tail, the value moved by 4.4e-7 against
# summed estimates of 2.3e-8
@example((ChamberPoint(0.0, (1.0, 1.001953125)), (2, 3), (1, 0), 9.0, 1e-6, _orders(2, 0)))
def test_rho_derived_edges_agree_with_the_float_floor(case):
    # every rule stops at its first node beyond the edge where the tail
    # folded onto it moves a sum by about the plan's tail relative, at
    # most a hundredth of rel_tol; with every edge at the float floor
    # instead, each value and jet coefficient must agree within the sum of
    # both estimates.  At the float floor the nodes nearest a point shared
    # by two intervals can overflow a second-order series, which then is
    # not finite and raises
    def run():
        _clear_rules()
        try:
            return coulomb._rho(*case)[:2]
        except QuadratureError:
            return None

    derived, floor = run(), None
    # a case the derived edges cannot meet is discarded whatever the float
    # floor does, so it is not summed there
    if derived is not None:
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(coulomb, "_log_edge", lambda a, b, tail: coulomb._LOG_EDGE)
            floor = run()
    _clear_rules()
    assume(derived is not None and floor is not None)
    (value, est), (value_floor, est_floor) = derived, floor
    assert np.all(np.abs(value - value_floor) <= est + est_floor), (value, value_floor, est, est_floor)


@st.composite
def _pivot_cases(draw):
    # 1 to 3 marked points with gaps from 1e-2 to 3, charges of dimension
    # 2 to 5, one interval holding 3 or 4 variables and sometimes another
    # one a single variable, kappa 0.05 to 1.5 past the convergence edge,
    # and a value or the first-order jet in every point
    n = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(1e-2, 3.0), min_size=n, max_size=n))
    x0 = draw(st.floats(-2.0, 0.0))
    xs = tuple(x0 + sum(gaps[: i + 1]) for i in range(n))
    dims = tuple(draw(st.lists(st.sampled_from((2, 3, 4, 5)), min_size=n, max_size=n)))
    m = [0] * n
    m[draw(st.integers(0, n - 1))] = draw(st.integers(3, 4))
    if n > 1 and draw(st.booleans()):
        m[draw(st.sampled_from([i for i in range(n) if not m[i]]))] = 1
    kappa = 4.0 * (max(dims) - 1) + draw(st.floats(0.05, 1.5))
    return ChamberPoint(x0, xs), dims, tuple(m), kappa, 1e-6, _orders(n, draw(st.integers(0, 1)))


@settings(max_examples=25, deadline=None)
@given(_pivot_cases())
# four variables between two d = 5 charges near the edge, with the jet
@example((ChamberPoint(-1.0, (0.0, 0.7)), (5, 5), (0, 4), 16.1, 1e-6, _orders(2, 1)))
# three variables by a d = 5 charge: started from steps of 1/2 and below,
# the chain's top level stayed at h = 1/2, and its estimate (7.9e-6) did
# not cover its error (9.2e-6)
@example((ChamberPoint(0.0, (1.0, 2.0, 3.0)), (2, 2, 5), (0, 0, 3), 17.0, 1e-6, _orders(3, 0)))
def test_rho_pivot_nesting_agrees_with_the_chain(case):
    # nesting each interval from its middle variable changes the grids,
    # not the integral: against every interval nested from its top
    # variable (the pivot rule returning 0), each value and first-order
    # jet coefficient agrees within the sum of both estimates
    def run():
        _clear_rules()
        try:
            return coulomb._rho(*case)[:2]
        except QuadratureError:
            return None

    pivot, chain = run(), None
    # a case the middle nesting cannot meet is discarded whatever the
    # chain does, so the chain is not summed (on one draw it ran 42 s to
    # the node budget)
    if pivot is not None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coulomb, "_pivot", lambda m: 0)
            chain = run()
    _clear_rules()
    assume(pivot is not None and chain is not None)
    (value, est), (value_chain, est_chain) = pivot, chain
    assert np.all(np.abs(value - value_chain) <= est + est_chain), (value, value_chain, est, est_chain)


@pytest.mark.parametrize("kappa", (12.5, 12.05))
def test_rho_selberg_gate_chain_nesting(monkeypatch, kappa):
    # nested from the top down (the pivot rule returning 0), the variable
    # below the top one grows toward it like the charge at x_2; a rule
    # that dropped that growth from its weight filter alone dropped nodes
    # that these gates need, which the middle nesting no longer shows
    monkeypatch.setattr(coulomb, "_pivot", lambda m: 0)
    _clear_rules()
    try:
        _assert_gate(_PAIR, (4, 4), (0, 3), kappa, 1e-9, _selberg_pair(3, 4, kappa))
    finally:
        _clear_rules()


@pytest.mark.parametrize("small_chunks", (False, True))
@pytest.mark.parametrize(
    "c, dims, m, kappa",
    [
        (ChamberPoint(0.0, (1.0,)), (3,), (1,), 9.0),
        (ChamberPoint(-0.5, (0.0, 1.0, 2.0, 4.0)), (2, 2, 2, 2), (1, 0, 1, 0), 10.0),
        (ChamberPoint(-0.5, (0.0, 1.0, 2.0)), (2, 2, 3), (0, 0, 2), 10.0),
        (ChamberPoint(-3.25, (-1.4, -0.13)), (3, 3), (2, 1), 9.0),
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5, 4.0)), (2,) * 4, (1,) * 4, 10.0),
    ],
)
def test_rho_pass_sums_each_grid_as_alone(monkeypatch, c, dims, m, kappa, small_chunks):
    # a pass sums its grids in one nested call, as copies padded to the
    # longest rule of each level, a halving's finer grid cut in two at its
    # halved level; each grid's value, jet coefficients and sums of moduli
    # are those of the grid summed alone, bit for bit but where a pad or a
    # cut reorders a sum over the nodes, and within 1e-15 of the sums of
    # moduli there
    if small_chunks:
        monkeypatch.setattr(coulomb, "_CHUNK_CAP", 1 << 10)
    n = len(dims)
    levels = _plan_levels(c, dims, m, kappa, 1e-9)
    x = (c.x0,) + c.xs
    steps = coulomb._start_steps(levels, 1e-9)
    passes = [coulomb._grids(steps)]
    for k in sorted({0, len(levels) - 1}):
        finer = list(steps)
        finer[k] /= 2.0
        cross = [coulomb._grid(steps, (j, k)) for j in range(len(levels)) if j != k]
        fine = coulomb._grid(finer, (k,))
        # level by level: the finer grid's rule at the halved level spans
        # the range of the cross grids' rule at half its spacing, each
        # stopping one node beyond its edges, so it holds 2n - 4 to 2n
        # nodes where that rule holds n; every other level's rule is within
        # one node of each cross grid's
        rules = coulomb._rules(levels, fine)
        for g in cross:
            for i, (a, b) in enumerate(zip(rules, coulomb._rules(levels, g))):
                low, high = (2 * b.shape[1] - 4, 2 * b.shape[1]) if i == k else (b.shape[1] - 1, b.shape[1] + 1)
                assert low <= a.shape[1] <= high, (k, i, a.shape, b.shape)
        passes.append(cross + [fine])
    plan = coulomb._Plan(levels)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    jets = [[(0,) * n], unit, [tuple(2 * a for a in unit[0]), tuple(map(max, unit[0], unit[-1]))]]
    if small_chunks and len(levels) == 4:
        # four-variable jets in chunks this small take seconds; the chunk
        # test above cuts one into them
        jets = jets[:1]
    for reads in jets:
        tab = jet_tables(closure(reads))
        for grids in passes:
            batched = coulomb._nested(plan, grids, x, tab, {})
            assert batched.shape[0] == len(grids)
            for j, (got, grid) in enumerate(zip(batched, grids)):
                alone = coulomb._nested(plan, [grid], x, tab, {})[0]
                assert np.all(np.abs(got - alone) <= 1e-15 * alone[-1]), (reads, j, got, alone)


def test_rho_counts_one_nested_call_per_pass(monkeypatch):
    # the first pass sums the grid and its l shifted copies, and each
    # halving l grids, each pass in one nested call; grid_evals and nodes
    # count the grids and their own nodes, not the copies or the pads.
    # The charges at x_1 = 0 and x_2 = 0.01, each 0.01 beyond the end of
    # one of the two intervals, make the plan halve both levels from its
    # start steps (at x_2 = 1 it meets 1e-9 in one pass)
    calls = []
    nested = coulomb._nested
    coulomb._rho_kept.cache_clear()

    def counting(plan, grids, geo, jet, work):
        calls.append((len(grids), sum(coulomb._nodes(plan.levels, grid) for grid in grids)))
        return nested(plan, grids, geo, jet, work)

    monkeypatch.setattr(coulomb, "_nested", counting)
    with eval_stats() as stats:
        rho(ChamberPoint(-0.5, (0.0, 0.01, 2.0, 4.0)), (2, 2, 2, 2), (1, 0, 1, 0), 10.0)
    assert [g for g, _ in calls] == [3, 2, 2], calls
    assert stats.passes == len(calls)
    assert (stats.grid_evals, stats.nodes) == (7, 6717) == tuple(map(sum, zip(*calls)))


def test_rho_plain_plan_meets_its_rel_tol_in_one_pass():
    # started from the steps at which a level's error exp(-pi^2 / (2h))
    # meets 1e-9, a pde-quartet plan sums the grid and its two shifted
    # copies once (started from 1/2 and 2^(-1/2), it summed 7 grids in 3
    # passes)
    coulomb._rho_kept.cache_clear()
    with eval_stats() as stats:
        rho(ChamberPoint(-0.5, (0.0, 1.0, 2.0, 4.0)), (2, 2, 2, 2), (1, 0, 1, 0), 10.0)
    assert (stats.passes, stats.grid_evals) == (1, 3), stats


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
def test_rho_faults_its_scratch_pages_in_once():
    # a plan writes its large arrays into one set of scratch arrays; when
    # every chunk allocated its own, the allocator gave their pages back to
    # the kernel at every chunk, and a warm call made about 50 000 minor
    # faults (30 000 under pytest) with a tracemalloc peak of 5.82 MiB
    import resource
    import tracemalloc

    def faults_of(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rho(*args)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    args = (_PAIR, (5, 5), (0, 4), 16.75, 1e-7)
    rho(*args)
    # warm rules, but a plan that is summed again
    coulomb._rho_kept.cache_clear()
    faults = faults_of(*args)
    coulomb._rho_kept.cache_clear()
    tracemalloc.start()
    try:
        rho(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert faults <= 10_000, faults
    assert peak <= 5.5 * 2**20, peak / 2**20

    # a second-order jet writes its series into the scratch arrays too;
    # when every series made its own temporaries, a warm plan made about
    # 12 600 minor faults
    xs = (0.0, 1.0, 2.0, 4.0)
    reads = [alpha for alpha in itertools.product(range(3), repeat=4) if sum(alpha) <= 2]
    jet = (ChamberPoint(-0.5, JetPoint(xs, reads)), (3, 2, 2, 3), (0, 2, 0, 1), 10.0, 1e-9)
    rho(*jet)
    # warm rules and the plain entry kept, but a jet plan summed again
    coulomb._rho_kept.cache_clear()
    rho(ChamberPoint(-0.5, xs), *jet[1:])
    faults = faults_of(*jet)
    assert faults <= 1_000, faults


def test_kept_jets_survive_later_evaluations():
    # a kept result owns its arrays: later evaluations write the scratch
    # arrays at other shapes, over larger and smaller index sets at
    # other points and in other spaces, and leave it as a cold sum makes it
    coulomb._rho_kept.cache_clear()
    second = [alpha for alpha in itertools.product(range(3), repeat=4) if sum(alpha) <= 2]
    args = ((2, 2, 2, 2), (1, 0, 1, 0), 10.0, 1e-9, closure(second))
    c = ChamberPoint(-0.5, (0.0, 1.0, 2.0, 4.0))
    value, est, _ = coulomb._rho(c, *args)
    kept = value.copy(), est.copy()
    # smaller index sets first, so the scratch arrays are written over in
    # place before a larger set makes them anew
    later = [
        (ChamberPoint(-0.5, (0.0, 1.0, 2.0)), (2, 2, 3), (0, 0, 2), [(1, 0, 0), (0, 0, 1)]),
        (ChamberPoint(-0.5, (0.0, 1.5, 2.0, 4.5)), (2, 2, 2, 2), (1, 0, 1, 0), [(0, 1, 0, 0)]),
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5)), (3, 3, 3), (0, 1, 0),
         [alpha for alpha in itertools.product(range(4), repeat=3) if sum(alpha) <= 3]),
    ]
    others = []
    for point, dims, m, reads in later:
        others.append(coulomb._rho(point, dims, m, 10.0, 1e-9, closure(reads))[:2])
    assert np.array_equal(value, kept[0]) and np.array_equal(est, kept[1])
    for a, b in itertools.product((value, est), [a for pair in others for a in pair]):
        assert not np.shares_memory(a, b)
    coulomb._rho_kept.cache_clear()
    cold, cold_est, _ = coulomb._rho(c, *args)
    assert np.array_equal(cold, kept[0]) and np.array_equal(cold_est, kept[1])


@pytest.mark.parametrize(
    "c, dims, m, kappa",
    [
        (ChamberPoint(-2.7, (-1.4, 2.0)), (2, 3), (1, 1), 8.8),
        (_PAIR, (4, 4), (0, 3), 12.5),
    ],
)
def test_rho_plain_value_is_the_zero_order_jet(c, dims, m, kappa):
    # a plain value is the jet over the zero multi-index: the same sums on
    # the same grid from the same start steps.  Both share one kept
    # result, so each is summed from an empty cache
    zero = (0,) * c.n
    coulomb._rho_kept.cache_clear()
    with eval_stats() as plain:
        value = rho(c, dims, m, kappa)
    coulomb._rho_kept.cache_clear()
    with eval_stats() as stats:
        jet = rho(ChamberPoint(c.x0, JetPoint(c.xs, [zero])), dims, m, kappa)
    assert jet.index == (zero,)
    assert jet[zero] == value and jet.errs[zero] == plain.err_est
    assert stats.grid_evals == plain.grid_evals, (stats, plain)


def test_f_hwv_plain_value_is_the_zero_order_jet():
    v, x, kappa = hwv_pair(3, 3, 2), (0.3, 1.7), 9.1
    coulomb._rho_kept.cache_clear()
    with eval_stats() as plain:
        value = F_hwv(v, x, kappa)
    coulomb._rho_kept.cache_clear()
    with eval_stats() as stats:
        jet = F_hwv(v, JetPoint(x, [(0, 0)]), kappa)
    assert jet[(0, 0)] == value and jet.errs[(0, 0)] == plain.err_est == stats.err_est


def test_jets_at_one_point_share_the_plain_value(monkeypatch):
    # every jet at a point starts from the final steps of the kept plain
    # value there; the SLE check plans the value once, and the translation
    # check at the same point plans it no more
    halve, plain_runs = coulomb._halve, []

    def counting(plan, steps, geo, rel_tol, floor, head, tab):
        if not tab.active:
            plain_runs.append(steps)
        return halve(plan, steps, geo, rel_tol, floor, head, tab)

    monkeypatch.setattr(coulomb, "_halve", counting)
    coulomb._rho_kept.cache_clear()
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    ev = lambda y: F_hwv(v, y, 10.0)
    x = (-0.4, 0.85, 2.15, 3.7)
    sle_pde_check(ev, x, 10.0, 1)
    assert plain_runs
    planned = len(plain_runs)
    translation_check(ev, x)
    assert len(plain_runs) == planned, plain_runs[planned:]


def test_jet_then_value_at_one_point_plan_the_value_once(monkeypatch):
    # a jet starts from its point's kept plain value; the plain value at
    # that point afterwards reads the same entry, sums no grid of its own
    # and counts the grids the entry summed
    halve, runs = coulomb._halve, []

    def counting(plan, steps, geo, rel_tol, floor, head, tab):
        runs.append(bool(tab.active))
        return halve(plan, steps, geo, rel_tol, floor, head, tab)

    monkeypatch.setattr(coulomb, "_halve", counting)
    coulomb._rho_kept.cache_clear()
    c, dims, m, kappa = ChamberPoint(-0.6, (0.2, 1.9)), (2, 3), (1, 1), 9.4
    rho(ChamberPoint(c.x0, JetPoint(c.xs, [(1, 0), (0, 1)])), dims, m, kappa)
    with eval_stats() as stats:
        value = rho(c, dims, m, kappa)
    assert runs == [False, True], runs
    assert stats.grid_evals > 0
    coulomb._rho_kept.cache_clear()
    with eval_stats() as cold:
        assert rho(c, dims, m, kappa) == value
    assert runs == [False, True, False], runs
    assert (cold.grid_evals, cold.nodes, cold.passes) == (stats.grid_evals, stats.nodes, stats.passes)


def test_repeated_rho_jet_reads_its_kept_result(monkeypatch):
    # a jet is kept like a value: a repeated call runs no halving, returns
    # the same bits and counts the grids of the first
    coulomb._rho_kept.cache_clear()
    c = ChamberPoint(-0.6, JetPoint((0.2, 1.9), [(1, 0), (0, 1)]))
    with eval_stats() as first:
        jet = rho(c, (2, 3), (1, 1), 9.4)
    assert first.grid_evals > 0
    halve, runs = coulomb._halve, []

    def counting(*args):
        runs.append(args)
        return halve(*args)

    monkeypatch.setattr(coulomb, "_halve", counting)
    with eval_stats() as again:
        assert rho(c, (2, 3), (1, 1), 9.4) == jet
    assert runs == []
    assert vars(again) == vars(first)


def test_rho_list_arguments_share_the_tuple_key():
    # dims and m are normalized before the lookup, so lists hash and a
    # call with tuples reads the same kept result
    c = ChamberPoint(-0.5, (0.0, 1.0, 2.0, 4.0))
    coulomb._rho_kept.cache_clear()
    with eval_stats() as listed:
        value = rho(c, [2, 2, 2, 2], [1, 0, 1, 0], 10.0)
    with eval_stats() as tupled:
        assert rho(c, (2, 2, 2, 2), (1, 0, 1, 0), 10.0) == value
    assert vars(tupled) == vars(listed)
    assert coulomb._rho_kept.cache_info().currsize == 1


def test_rho_deterministic():
    # a result is kept once per argument set and a repeated call reads it,
    # so it must agree bit for bit with the first, which the
    # finite-difference lattices rely on; a cold sum does too
    cases = [
        (ChamberPoint(0.0, (1.0, 2.0)), (2, 2), (1, 0), 10.0),
        (ChamberPoint(-2.7, (-1.4, 2.0)), (2, 3), (1, 1), 8.8),
        (_PAIR, (4, 4), (0, 3), 12.5),
    ]
    for c, dims, m, kappa in cases:
        coulomb._rho_kept.cache_clear()
        cold = rho(c, dims, m, kappa)
        assert rho(c, dims, m, kappa) == cold, (dims, m)
        coulomb._rho_kept.cache_clear()
        assert rho(c, dims, m, kappa) == cold, (dims, m)


def test_rho_scaling_law():
    dims = (2, 3)
    kappa = 10.0
    c = ChamberPoint(0.5, (1.0, 2.2))
    base = rho(c, dims, (1, 1), kappa)
    expo = delta_scaling(2, dims, kappa)
    for lam in (2.0, 1.0 / 3.0):
        scaled = rho(
            ChamberPoint(lam * c.x0, tuple(lam * x for x in c.xs)),
            dims,
            (1, 1),
            kappa,
        )
        assert scaled == pytest.approx(lam ** expo * base, rel=1e-8), lam


def test_rho_translation_invariance():
    dims = (2, 3)
    c = ChamberPoint(0.0, (1.0, 2.2))
    shifted = ChamberPoint(0.7, (1.7, 2.9))
    a = rho(c, dims, (0, 1), 10.0)
    b = rho(shifted, dims, (0, 1), 10.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_rho_refuses_divergent_kappa():
    c = ChamberPoint(0.0, (1.0,))
    with pytest.raises(ValueError, match="outside convergent regime"):
        rho(c, (2,), (1,), 4.0)
    with pytest.raises(ValueError, match="outside convergent regime"):
        rho(c, (3,), (1,), 8.0)


def test_b_const_empty():
    assert b_const(3, 2, 2, 8.0) == 1.0


def test_b_const_beta_function_value():
    assert b_const(1, 2, 2, 8.0) == pytest.approx(math.pi, rel=1e-9)


def test_b_const_one_variable_gamma_ratio():
    for kappa in (8.0, 10.0, 16.0):
        for d1, d2 in ((2, 2), (2, 3), (3, 3)):
            if kappa <= 4.0 * (max(d1, d2) - 1):
                continue
            d = d1 + d2 - 3
            b1 = 4.0 * (d1 - 1) / kappa
            b2 = 4.0 * (d2 - 1) / kappa
            ref = (
                math.gamma(1.0 - b1)
                * math.gamma(1.0 - b2)
                / math.gamma(2.0 - b1 - b2)
            )
            assert b_const(d, d1, d2, kappa) == pytest.approx(ref, rel=1e-10), (
                kappa,
                d1,
                d2,
            )


def test_b_const_rejects_bad_dimension():
    with pytest.raises(ValueError, match="not in decomposition"):
        b_const(2, 2, 2, 8.0)
    with pytest.raises(ValueError, match="not in decomposition"):
        b_const(7, 2, 2, 8.0)
    with pytest.raises(ValueError, match="not in decomposition"):
        b_const(1, 2, 4, 16.0)


def test_selberg_oracle_examples():
    assert selberg_oracle(1, 0.5, 0.5, 0.3) == pytest.approx(math.pi, rel=1e-12)
    assert selberg_oracle(1, 1.0, 0.5, 0.5) == pytest.approx(2.0, rel=1e-12)
    val = selberg_oracle(2, 1.0, 0.5, 0.5)
    assert val > 0.0
    assert selberg_oracle(0, 1.0, 1.0, 1.0) == 1.0


def test_selberg_oracle_rejects_outside_convergence():
    with pytest.raises(ValueError):
        selberg_oracle(1, -0.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        selberg_oracle(2, 1.0, 0.5, -0.6)


def test_h_weight_values():
    for kappa in (6.0, 8.0, 10.0):
        assert h_weight(1, kappa) == 0.0
        assert h_weight(2, kappa) == pytest.approx((6.0 - kappa) / (2.0 * kappa))


def test_delta_fusion_values():
    for kappa in (8.0, 10.0):
        assert delta_fusion(1, 2, 2, kappa) == pytest.approx((kappa - 6.0) / kappa)
        assert delta_fusion(3, 2, 2, kappa) == pytest.approx(2.0 / kappa)
    # the closed form is the difference of Kac weights that asymptotics_check uses
    for kappa in (6.5, 8.0, 10.0, 12.0, 16.75, 20.0):
        for d1, d2 in itertools.product(range(1, 6), repeat=2):
            for d in range(abs(d1 - d2) + 1, d1 + d2, 2):
                h_form = h_weight(d, kappa) - h_weight(d1, kappa) - h_weight(d2, kappa)
                gap = abs(h_form - delta_fusion(d, d1, d2, kappa))
                assert gap <= 1e-15 * max(1.0, abs(h_form))


def test_delta_scaling_matches_weight_difference():
    for dims in ((2, 2), (3, 2, 4), (2, 3, 3, 2)):
        n = len(dims)
        for kappa in (7.0, 10.0):
            for ell in range(4):
                dhat = sum(dims) - n + 1 - 2 * ell
                ref = h_weight(dhat, kappa) - sum(h_weight(d, kappa) for d in dims)
                assert delta_scaling(ell, dims, kappa) == pytest.approx(
                    ref, abs=1e-12
                ), (dims, kappa, ell)


# branch continuation: the oracle continues each factor (z - pole)^expo
# along a sampled path with _anchored_log; its endpoint difference gives
# the factor the branch picks up


def polyline(*corners, n=64):
    pieces = [np.linspace(a, b, n, endpoint=False) for a, b in zip(corners, corners[1:])]
    return np.concatenate(pieces + [np.array([complex(corners[-1])])])


def arc(center, radius, a0, a1, n=256):
    return center + radius * np.exp(1j * np.linspace(a0, a1, n))


def continued(z, pole, expo):
    logs = _anchored_log(np.asarray(z, dtype=complex), pole, 0)
    return complex(np.exp(expo * (logs[-1] - logs[0])))


def charge(d, kappa):
    return -4.0 * (d - 1) / kappa


def test_branch_continue_contractible_loop():
    path = polyline(2.0, 2.0 + 0.6j, 1.4 + 0.6j, 1.4, 2.0)
    val = 2.3 * continued(path, 0.5, charge(2, 8.0))
    assert val == pytest.approx(2.3, abs=1e-10)


def test_branch_continue_full_loop_monodromy():
    kappa = 10.0
    d = 3
    val = continued(arc(1.0, 0.4, 0.0, 2.0 * math.pi), 1.0, charge(d, kappa))
    assert val == pytest.approx(q_of(kappa) ** (-2 * (d - 1)), abs=1e-10)


def test_branch_continue_half_turn_below():
    val = continued(arc(1.0, 0.4, 0.0, -math.pi), 1.0, charge(2, 8.0))
    assert val == pytest.approx(1j, abs=1e-10)


def test_branch_continue_pair_factor_loop():
    # moving one screening variable around another picks up q^4
    kappa = 10.0
    val = continued(arc(2.0, 0.3, 0.0, 2.0 * math.pi), 2.0, 8.0 / kappa)
    assert val == pytest.approx(q_of(kappa) ** 4, abs=1e-10)


def test_branch_continue_path_independence():
    base = 0.8 + 0.1j
    expo = charge(3, 10.0)
    va = base * continued(arc(1.0, 0.5, 0.0, math.pi), 1.0, expo)
    square = polyline(1.5, 1.5 + 2.0j, 0.5 + 2.0j, 0.5)
    vb = base * continued(square, 1.0, expo)
    assert va == pytest.approx(vb, abs=1e-10 * abs(va))


def test_oracle_empty_configuration():
    c = ChamberPoint(-1.0, (0.0, 2.0))
    val = contour_phi_oracle(c, (2, 2), (0, 0), 8.0)
    assert val == pytest.approx(2.0 ** 0.25, rel=1e-12)


def test_oracle_one_point_value():
    c = ChamberPoint(0.0, (1.0,))
    val = contour_phi_oracle(c, (2,), (1,), 8.0)
    assert val == pytest.approx(4.0j, rel=1e-6)


def test_oracle_one_point_general_formula_single_loop():
    c = ChamberPoint(0.0, (1.0,))
    kappa = 10.0
    d = 3
    q = q_of(kappa)
    expected = (q ** (d - 1) - q ** (1 - d)) * rho(c, (d,), (1,), kappa)
    val = contour_phi_oracle(c, (d,), (1,), kappa)
    assert val == pytest.approx(expected, rel=1e-6)


def test_oracle_one_point_general_formula_nested_loops():
    c = ChamberPoint(0.0, (1.0,))
    kappa = 10.0
    d = 3
    q = q_of(kappa)
    kp = KappaParams(kappa)
    const = eval_q(qfact(2), kp) * (q ** 2 - q ** -2) * (q - q ** -1)
    expected = const * rho(c, (d,), (2,), kappa)
    val = contour_phi_oracle(c, (d,), (2,), kappa)
    assert val == pytest.approx(expected, rel=5e-6)


def test_oracle_vanishes_when_loops_exceed_dimension():
    c = ChamberPoint(0.0, (1.0,))
    val = contour_phi_oracle(c, (2,), (2,), 8.0)
    assert abs(val) <= 1e-6


def test_oracle_translation_invariance():
    dims = (2, 3)
    kappa = 10.0
    a = contour_phi_oracle(ChamberPoint(0.0, (1.0, 2.2)), dims, (0, 1), kappa)
    b = contour_phi_oracle(ChamberPoint(0.3, (1.3, 2.5)), dims, (0, 1), kappa)
    assert b == pytest.approx(a, rel=1e-6)


def test_oracle_scaling_covariance():
    dims = (2, 3)
    kappa = 10.0
    lam = 2.0
    a = contour_phi_oracle(ChamberPoint(0.5, (1.0, 2.2)), dims, (1, 1), kappa)
    b = contour_phi_oracle(
        ChamberPoint(lam * 0.5, (lam * 1.0, lam * 2.2)), dims, (1, 1), kappa
    )
    assert b == pytest.approx(lam ** delta_scaling(2, dims, kappa) * a, rel=1e-6)


def test_oracle_nested_pair_translation_invariance():
    dims = (2, 3)
    kappa = 12.0
    a = contour_phi_oracle(ChamberPoint(0.0, (1.0, 2.0)), dims, (0, 2), kappa)
    b = contour_phi_oracle(ChamberPoint(-0.4, (0.6, 1.6)), dims, (0, 2), kappa)
    assert b == pytest.approx(a, rel=1e-6)
    assert abs(a) > 0


def test_oracle_rejects_too_many_loops():
    c = ChamberPoint(0.0, (1.0,))
    with pytest.raises(ValueError, match="at most two"):
        contour_phi_oracle(c, (4,), (3,), 20.0)
