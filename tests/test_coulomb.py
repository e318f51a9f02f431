"""Tests for the Coulomb gas integrals and the contour oracle."""

import cmath
import math

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
from qscreen.qseries import KappaParams, eval_q, qfact


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
    # an enclosing block receives what an inner block collected
    with eval_stats() as outer:
        with eval_stats() as inner:
            rho(ChamberPoint(0.0, (1.0,)), (3,), (2,), 9.0)
    assert inner.err_est > 0.0 and inner.grid_evals > 0 and inner.nodes > 0
    assert (outer.err_est, outer.grid_evals, outer.nodes) == (
        inner.err_est, inner.grid_evals, inner.nodes)


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


def test_rho_plan_node_counts(monkeypatch):
    # the cold plan halves from staggered start steps on the full grid
    # (a plan on probes summed 9.3e7 nodes); a warm call sums the value
    # and one half-step shift per level, once
    monkeypatch.setattr(coulomb, "_STEPS", {})
    ref = _selberg_pair(4, 5, 16.75)
    cold = _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)
    assert cold.nodes <= 4e7, cold
    warm = _assert_gate(_PAIR, (5, 5), (0, 4), 16.75, 1e-9, ref)
    assert warm.grid_evals == 4 + 1 and warm.nodes <= 2e7, warm


def _shift_estimates(steps):
    # the relative change of each level's half-step shift, and the error
    # against the Selberg product, of the four-variable two-point form at
    # fixed steps
    dims, counts, kappa = (5, 5), (0, 4), 16.75
    betas = coulomb._betas(dims, kappa)
    levels = coulomb._build_levels(counts, betas, kappa)
    geo = coulomb._geometry(levels, (_PAIR.x0,) + _PAIR.xs, betas, kappa)
    value, *moved = (coulomb._nested(levels, rules, geo) for rules in coulomb._grids(levels, steps))
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
def test_rho_estimate_covers_where_probes_under_estimate(
    monkeypatch, c, dims, m, kappa, tight
):
    # the reference is the same integral at a far tighter rel_tol; the
    # returned estimate, the full grid's, must cover its error
    monkeypatch.setattr(coulomb, "_STEPS", {})
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
    monkeypatch.setattr(coulomb, "_STEPS", {})
    monkeypatch.setattr(coulomb, "_GRID_BUDGET", 8.2e5)
    summed = []
    nested = coulomb._nested

    def counting(levels, rules, geo, jet=None):
        summed.append(math.prod(len(rule[0]) for rule in rules))
        return nested(levels, rules, geo, jet)

    monkeypatch.setattr(coulomb, "_nested", counting)
    with eval_stats() as stats, pytest.raises(QuadratureError, match=r"l=4 .*budget"):
        rho(_PAIR, (5, 5), (0, 4), 16.75)
    assert summed and max(summed) <= 8.2e5, summed
    assert stats.nodes == sum(summed), stats


def test_rho_deterministic(monkeypatch):
    # a cold call plans its steps and a warm one starts from them; both
    # must return the direct sum on the same full grid, bit for bit, which
    # the finite-difference lattices rely on
    monkeypatch.setattr(coulomb, "_STEPS", {})
    cases = [
        (ChamberPoint(0.0, (1.0, 2.0)), (2, 2), (1, 0), 10.0),
        (ChamberPoint(-2.7, (-1.4, 2.0)), (2, 3), (1, 1), 8.8),
        (_PAIR, (4, 4), (0, 3), 12.5),
    ]
    for c, dims, m, kappa in cases:
        coulomb._STEPS.clear()
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
