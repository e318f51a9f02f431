"""Tests for the Coulomb gas integrals and the contour oracle."""

import cmath
import math
import sys

import numpy as np
import pytest

from closed_forms import delta_scaling, selberg_oracle

from qscreen import coulomb
from qscreen.coulomb import (
    ChamberPoint,
    QuadratureError,
    _anchored_log,
    b_const,
    contour_phi_oracle,
    delta_fusion,
    eval_stats,
    h_weight,
    rho,
)
from qscreen.correspondence import F_hwv
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


def test_rho_selberg_gate_mass_beyond_the_nodes():
    # the nodes stop 1e-300 from each end; at d = 5, kappa = 16.5 the mass
    # beyond them is (1e-300)^(1 - beta), about 8e-10 of the integral per
    # end, and the rule must add it back
    kappa = 16.5
    c = ChamberPoint(0.0, (1.0,))
    _assert_gate(c, (5,), (1,), kappa, 1e-9, _selberg_one(1, 5, kappa))
    _assert_gate(_PAIR, (5, 5), (0, 1), kappa, 1e-9, _selberg_pair(1, 5, kappa))


def test_rho_selberg_gate_four_variables():
    ref = _selberg_pair(4, 5, 16.75)
    _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)


def test_rho_plan_node_counts():
    # the plan halves from staggered start steps, and each halving sums
    # only the nodes it adds (a plan on probes summed 9.3e7 nodes, one
    # re-summing every pass 3.1e7); a plain value plans at every call, so a
    # repeated call sums the same grids
    ref = _selberg_pair(4, 5, 16.75)
    cold = _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)
    assert cold.nodes <= 2e7, cold
    warm = _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)
    assert (warm.grid_evals, warm.nodes) == (cold.grid_evals, cold.nodes), (warm, cold)


def _folded_share(lev, h):
    # the weight each rule of a level at step h adds to its outermost
    # nodes for the tails beyond them, against the rule's total weight: the
    # node's own tanh-sinh weight is recomputed from its t, as
    # log t - log(1 - t) = pi sinh u
    share = 0.0
    for shift in (0.0, 0.5):
        t, omt, logt, logw = coulomb._unit_rule(lev, h, shift)
        log1mt = np.log(omt)
        u = np.arcsinh((logt - log1mt) / math.pi)
        own = np.log(h * math.pi * np.cosh(u)) + (1.0 + lev.aL) * logt + (1.0 + lev.aR) * log1mt
        w = np.exp(logw)
        share = max(share, float((w[0] - math.exp(own[0]) + w[-1] - math.exp(own[-1])) / w.sum()))
    return share


@pytest.mark.parametrize(
    "c, dims, m, kappa",
    [
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5, 4.0)), (2,) * 4, (1,) * 4, 10.0),
        (_PAIR, (4, 4), (0, 3), 12.5),
        # near the edge, where the rules fold about 4e-13 of the integral
        # into their outermost nodes
        (_PAIR, (5, 5), (0, 4), 16.75),
    ],
)
def test_rho_composed_sums_are_the_direct_sums(monkeypatch, c, dims, m, kappa):
    # each halving composes the new sums from the old ones; on the cold
    # plan's final steps they must equal the direct sums over _grids up to
    # rounding and the tail mass the coarser rules fold into other nodes
    halve, seen = coulomb._halve, {}

    def keep(levels, steps, geo, rel_tol, head, jet):
        seen.update(levels=levels, start=steps, geo=geo, jet=jet)
        seen["out"] = halve(levels, steps, geo, rel_tol, head, jet)
        return seen["out"]

    monkeypatch.setattr(coulomb, "_halve", keep)
    rho(c, dims, m, kappa)
    steps, value, moved = seen["out"]
    levels = seen["levels"]
    assert steps != tuple(seen["start"])
    direct, *direct_moved = coulomb._nested(levels, coulomb._grids(steps), seen["geo"],
                                            seen["jet"], {})[:, 0, 0]
    total = value[-1, 0]
    bound = total * (len(levels) * 4 * np.finfo(float).eps
                     + sum(_folded_share(lev, h) for lev, h in zip(levels, steps)))
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
    # value plan, so its coefficients and estimates do not depend on them
    # either (a jet at (0; 1, 2.5) that started from the steps of the
    # latest point moved by 5e-11 relative at first order, 3e-10 at second)
    def run(c):
        with eval_stats() as stats:
            value = rho(c, dims, m, kappa)
        return value, stats.grid_evals, stats.nodes

    def jets(c):
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


def _shift_estimates(steps):
    # the relative change of each level's half-step shift, and the error
    # against the Selberg product, of the four-variable two-point form at
    # fixed steps
    dims, counts, kappa = (5, 5), (0, 4), 16.75
    betas = coulomb._betas(dims, kappa)
    levels = coulomb._build_levels(counts, betas, kappa)
    geo = coulomb._geometry(levels, (_PAIR.x0,) + _PAIR.xs, betas, kappa)
    # the jet over the zero multi-index alone is the value
    plan = coulomb._JetPlan(jet_tables(((0, 0),)), ((),) * 3)
    value, *moved = coulomb._nested(levels, coulomb._grids(steps), geo, plan, {})[:, 0, 0]
    ref = _selberg_pair(4, 5, kappa)
    pref = coulomb._x_prefactor(_PAIR.xs, dims, kappa)
    return [abs(m - value) / value for m in moved], abs(pref * value - ref) / ref


def test_rho_shared_step_aliases_across_a_group():
    # levels 0 and 1 are nested variables of one group; at one step the
    # tensor grid misses a ridge along u_0 - u_1 = const, and both shifts
    # report the same joint error
    ests, _ = _shift_estimates((1 / 8, 1 / 8, 1 / 4, 1 / 4))
    assert abs(ests[0] - ests[1]) <= 0.1 * max(ests[0], ests[1]), ests
    assert min(ests[0], ests[1]) >= 1e-8, ests
    # an irrational step ratio removes it
    ests, err = _shift_estimates((1 / 8, 2 ** -3.5, 1 / 4, 1 / 4))
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


def test_rho_budget_raises_before_summing_an_oversized_grid(monkeypatch):
    # the four-variable grid that meets 1e-9 holds about 3e6 nodes; under
    # a smaller budget the plan raises, and no grid it sums exceeds it.
    # The third pass's grid holds 8.13e5 nodes and its copy with level 1
    # shifted 8.26e5, so the budget must bound the shifted copies too
    monkeypatch.setattr(coulomb, "_GRID_BUDGET", 8.2e5)
    summed = []
    nested = coulomb._nested

    def counting(levels, grids, geo, jet, work):
        summed.extend(coulomb._nodes(levels, grid) for grid in grids)
        return nested(levels, grids, geo, jet, work)

    monkeypatch.setattr(coulomb, "_nested", counting)
    with eval_stats() as stats, pytest.raises(QuadratureError, match=r"l=4 .*budget"):
        rho(_PAIR, (5, 5), (0, 4), 16.75)
    assert summed and max(summed) <= 8.2e5, summed
    assert stats.nodes == sum(summed), stats


def test_rho_bits_do_not_depend_on_the_chunk_size(monkeypatch):
    # a level sums its outer grid in chunks, column by column, and writes
    # its arrays into the plan's scratch arrays; cut into many chunks, with
    # every level in the scratch arrays, each value, jet coefficient and
    # estimate keeps its bits, which a scratch array that aliases another
    # or outlives its chunk would change
    cases = [
        (_PAIR, (5, 5), (0, 4), 16.75, 1e-7, None),
        (_PAIR, (4, 4), (0, 3), 12.5, 1e-9, [(1, 0), (0, 1)]),
        (ChamberPoint(-3.25, (-1.4, -0.13)), (3, 3), (2, 1), 9.0, 1e-9, [(2, 0), (1, 1), (0, 2)]),
        (ChamberPoint(-1.0, (0.0, 1.0, 2.5, 4.0)), (2,) * 4, (1,) * 4, 10.0, 1e-6, [(0, 1, 0, 0)]),
    ]

    def run():
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
    monkeypatch.setattr(coulomb, "_SCRATCH_MIN", 0)
    assert run() == default


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
        monkeypatch.setattr(coulomb, "_SCRATCH_MIN", 0)
    n = len(dims)
    betas = coulomb._betas(dims, kappa)
    levels = coulomb._build_levels(m, betas, kappa)
    geo = coulomb._geometry(levels, (c.x0,) + c.xs, betas, kappa)
    steps = coulomb._start_steps(levels)
    passes = [coulomb._grids(steps)]
    for k in sorted({0, len(levels) - 1}):
        finer = list(steps)
        finer[k] /= 2.0
        cross = [coulomb._grid(steps, (j, k)) for j in range(len(levels)) if j != k]
        fine = coulomb._grid(finer, (k,))
        # the finer grid holds about twice the nodes of each cross grid
        assert all(1.8 <= coulomb._nodes(levels, fine) / coulomb._nodes(levels, g) <= 2.2 for g in cross)
        passes.append(cross + [fine])
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    jets = [[(0,) * n], unit, [tuple(2 * a for a in unit[0]), tuple(map(max, unit[0], unit[-1]))]]
    if small_chunks and len(levels) == 4:
        # four-variable jets in chunks this small take seconds; the chunk
        # test above cuts one into them
        jets = jets[:1]
    for reads in jets:
        plan = coulomb._plan(closure(reads), (0.0,) * n)
        for grids in passes:
            batched = coulomb._nested(levels, grids, geo, plan, {})
            assert batched.shape[0] == len(grids)
            for j, (got, grid) in enumerate(zip(batched, grids)):
                alone = coulomb._nested(levels, [grid], geo, plan, {})[0]
                assert np.all(np.abs(got - alone) <= 1e-15 * alone[-1]), (reads, j, got, alone)


def test_rho_counts_one_nested_call_per_pass(monkeypatch):
    # the first pass sums the grid and its l shifted copies, and each
    # halving l grids, each pass in one nested call; grid_evals and nodes
    # count the grids and their own nodes, not the copies or the pads
    calls = []
    nested = coulomb._nested

    def counting(levels, grids, geo, jet, work):
        calls.append((len(grids), sum(coulomb._nodes(levels, grid) for grid in grids)))
        return nested(levels, grids, geo, jet, work)

    monkeypatch.setattr(coulomb, "_nested", counting)
    with eval_stats() as stats:
        rho(ChamberPoint(-0.5, (0.0, 1.0, 2.0, 4.0)), (2, 2, 2, 2), (1, 0, 1, 0), 10.0)
    assert [g for g, _ in calls] == [3, 2, 2], calls
    assert stats.passes == len(calls)
    assert (stats.grid_evals, stats.nodes) == (7, 2757) == tuple(map(sum, zip(*calls)))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
def test_rho_faults_its_scratch_pages_in_once():
    # a plan writes its large arrays into one set of scratch arrays; when
    # every chunk allocated its own, the allocator gave their pages back to
    # the kernel at every chunk, and a warm call made about 50 000 minor
    # faults (30 000 under pytest) with a tracemalloc peak of 5.82 MiB
    import resource
    import tracemalloc

    args = (_PAIR, (5, 5), (0, 4), 16.75, 1e-7)
    rho(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rho(*args)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    tracemalloc.start()
    try:
        rho(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert faults <= 10_000, faults
    assert peak <= 5.5 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "c, dims, m, kappa",
    [
        (ChamberPoint(-2.7, (-1.4, 2.0)), (2, 3), (1, 1), 8.8),
        (_PAIR, (4, 4), (0, 3), 12.5),
    ],
)
def test_rho_plain_value_is_the_zero_order_jet(c, dims, m, kappa):
    # a plain value is the jet over the zero multi-index: the same sums on
    # the same grid from the same start steps
    zero = (0,) * c.n
    with eval_stats() as plain:
        value = rho(c, dims, m, kappa)
    with eval_stats() as stats:
        jet = rho(ChamberPoint(c.x0, JetPoint(c.xs, [zero])), dims, m, kappa)
    assert jet.index == (zero,)
    assert jet[zero] == value and jet.errs[zero] == plain.err_est
    assert stats.grid_evals == plain.grid_evals, (stats, plain)


def test_f_hwv_plain_value_is_the_zero_order_jet():
    v, x, kappa = hwv_pair(3, 3, 2), (0.3, 1.7), 9.1
    with eval_stats() as plain:
        value = F_hwv(v, x, kappa)
    with eval_stats() as stats:
        jet = F_hwv(v, JetPoint(x, [(0, 0)]), kappa)
    assert jet[(0, 0)] == value and jet.errs[(0, 0)] == plain.err_est == stats.err_est


def test_jets_at_one_point_share_the_value_plan(monkeypatch):
    # every jet at a point starts from the final steps of the value's plan
    # there; the SLE check plans the value once, and the translation check
    # at the same point plans it no more
    halve, plain_runs = coulomb._halve, []

    def counting(levels, steps, geo, rel_tol, head, jet):
        if not jet.tables.active:
            plain_runs.append(steps)
        return halve(levels, steps, geo, rel_tol, head, jet)

    monkeypatch.setattr(coulomb, "_halve", counting)
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    ev = lambda y: F_hwv(v, y, 10.0)
    x = (-0.4, 0.85, 2.15, 3.7)
    sle_pde_check(ev, x, 10.0, 1)
    assert plain_runs
    planned = len(plain_runs)
    translation_check(ev, x)
    assert len(plain_runs) == planned, plain_runs[planned:]


def test_rho_deterministic():
    # a plain value plans its steps from the start steps at every call, so
    # a repeated call must sum the same grids in the same order and agree
    # bit for bit, which the finite-difference lattices rely on
    cases = [
        (ChamberPoint(0.0, (1.0, 2.0)), (2, 2), (1, 0), 10.0),
        (ChamberPoint(-2.7, (-1.4, 2.0)), (2, 3), (1, 1), 8.8),
        (_PAIR, (4, 4), (0, 3), 12.5),
    ]
    for c, dims, m, kappa in cases:
        cold = rho(c, dims, m, kappa)
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
