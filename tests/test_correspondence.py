"""Tests for the reduction tables and the functions built on them."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.coulomb import (
    ChamberPoint,
    ScreeningConfig,
    b_const,
    contour_phi_oracle,
    delta_fusion,
    delta_scaling,
    h_weight,
    rho,
)
from qscreen.correspondence import (
    F_anchor,
    F_hwv,
    ReductionTable,
    asymptotics_check,
    general_asymptotics_check,
    infinity_limit,
    phi,
    reduction_coeffs,
)
from qscreen.qseries import KappaParams, QScalar, Q_ONE, eval_q, qbinom
from qscreen.uqsl2 import (
    TensorSpace,
    TensorVector,
    hwv_pair,
    hwv_space_basis,
    is_hwv,
)

KAPPA = 10.0

C1 = ChamberPoint(-0.6, (0.5,))
C2 = ChamberPoint(-0.7, (0.0, 1.1))
C3 = ChamberPoint(-0.7, (0.0, 0.9, 2.3))


def ladder_factor(d, t):
    return QScalar.q_power(d - t) - QScalar.q_power(t - d)


def tensor_product(u, w):
    space = TensorSpace(u.space.dims + w.space.dims)
    coeffs = {}
    for iu, cu in u.coeffs.items():
        for iw, cw in w.coeffs.items():
            coeffs[iu + iw] = cu * cw
    return TensorVector(space, coeffs)


# -- reduction tables ------------------------------------------------------


def test_reduction_single_group_closed_form():
    table = reduction_coeffs((3,), (2,))
    expected = QScalar.q_power(1) * ladder_factor(3, 1) * ladder_factor(3, 2)
    assert set(table.entries) == {(2,)}
    assert table.entries[(2,)] == expected

    table = reduction_coeffs((2,), ScreeningConfig((1,)))
    assert table.entries == {(1,): ladder_factor(2, 1)}


def test_reduction_two_group_closed_form():
    table = reduction_coeffs((2, 3), (1, 2))
    pref = (
        QScalar.q_power(1)
        * ladder_factor(2, 1)
        * ladder_factor(3, 1)
        * ladder_factor(3, 2)
    )
    expected = {
        (1 + t, 2 - t): pref * qbinom(2, t) * QScalar.q_power(t * (t - 1))
        for t in range(3)
    }
    assert table.entries == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.data(),
)
def test_reduction_entries_conserve_and_dominate(dims, data):
    counts = tuple(
        data.draw(st.integers(0, 2), label=f"l_{i}") for i in range(len(dims))
    )
    table = reduction_coeffs(tuple(dims), counts)
    if any(l >= d for l, d in zip(counts, dims)):
        assert table.entries == {}
        return
    for m in table.entries:
        assert sum(m) == sum(counts)
        run_l = run_m = 0
        for li, mi in zip(counts, m):
            run_l += li
            run_m += mi
            assert run_l <= run_m


def test_reduction_vanishing_is_exact():
    assert reduction_coeffs((2, 2), (2, 0)).entries == {}
    assert reduction_coeffs((2, 3), (1, 3)).entries == {}
    assert reduction_coeffs((3,), (3,)).entries == {}


def test_reduction_table_rejects_bad_assignments():
    with pytest.raises(ValueError, match="conserve"):
        ReductionTable((2, 2), (1, 0), {(1, 1): Q_ONE})
    with pytest.raises(ValueError, match="away from the anchor"):
        ReductionTable((2, 2), (1, 0), {(0, 1): Q_ONE})


# -- basis functions -------------------------------------------------------


def test_phi_no_screening_is_the_prefactor():
    c = ChamberPoint(-0.5, (0.2, 1.4))
    val = phi(c, (2, 3), (0, 0), KAPPA)
    assert val == pytest.approx((1.4 - 0.2) ** (2.0 * 1 * 2 / KAPPA), rel=1e-14)


def test_phi_one_point_unit_interval():
    val = phi(ChamberPoint(0.0, (1.0,)), (2,), (1,), 8.0)
    assert val == pytest.approx(4j, rel=1e-10)


@pytest.mark.parametrize(
    "c, dims, l",
    [
        (C1, (2,), (1,)),
        (C1, (3,), (1,)),
        (C1, (3,), (2,)),
        (C2, (2, 2), (1, 1)),
        (C2, (3, 2), (1, 1)),
        (C2, (2, 3), (0, 2)),
        (C3, (2, 2, 2), (0, 1, 1)),
        (C3, (2, 2, 2), (1, 1, 0)),
        (C3, (2, 2, 2), (1, 0, 1)),
    ],
)
def test_phi_matches_contour_oracle(c, dims, l):
    got = phi(c, dims, l, KAPPA)
    want = contour_phi_oracle(c, dims, l, KAPPA)
    assert got == pytest.approx(want, rel=1e-6)


def test_phi_vanishing_configs_return_exact_zero():
    assert phi(C2, (2, 2), (2, 0), KAPPA) == 0
    assert phi(C2, (2, 3), (1, 3), KAPPA) == 0
    assert phi(C1, (2,), (5,), KAPPA) == 0


def test_phi_ignores_points_with_unit_dimension():
    a = phi(ChamberPoint(-0.5, (0.0, 0.8, 2.0)), (2, 1, 2), (1, 0, 1), KAPPA)
    b = phi(ChamberPoint(-0.5, (0.0, 1.6, 2.0)), (2, 1, 2), (1, 0, 1), KAPPA)
    assert a == pytest.approx(b, rel=1e-8)


def test_phi_translation_invariance():
    c = ChamberPoint(-0.7, (0.0, 1.3))
    shifted = ChamberPoint(-0.7 + 0.37, (0.37, 1.3 + 0.37))
    a = phi(c, (2, 3), (1, 1), KAPPA)
    b = phi(shifted, (2, 3), (1, 1), KAPPA)
    assert b == pytest.approx(a, rel=1e-9)


def test_phi_scaling_homogeneity():
    lam = 1.7
    c = ChamberPoint(-0.7, (0.0, 1.3))
    scaled = ChamberPoint(-0.7 * lam, (0.0, 1.3 * lam))
    a = phi(c, (2, 3), (1, 1), KAPPA)
    b = phi(scaled, (2, 3), (1, 1), KAPPA)
    assert b == pytest.approx(a * lam ** delta_scaling(2, (2, 3), KAPPA), rel=1e-8)


# -- linear extension ------------------------------------------------------


def test_f_anchor_basis_vector_matches_phi():
    space = TensorSpace((2, 3))
    v = TensorVector.basis(space, (1, 1))
    assert F_anchor(v, C2, KAPPA) == pytest.approx(
        phi(C2, (2, 3), (1, 1), KAPPA), rel=1e-14
    )


def test_f_anchor_zero_vector():
    assert F_anchor(TensorVector.zero(TensorSpace((2, 2))), C2, KAPPA) == 0


def test_f_anchor_is_linear():
    space = TensorSpace((2, 2))
    v = TensorVector.basis(space, (0, 1))
    w = TensorVector.basis(space, (1, 0))
    a = QScalar.from_int(3) - QScalar.q_power(1)
    b = QScalar.q_power(-2, 2)
    combo = v.scale(a) + w.scale(b)
    kp = KappaParams(KAPPA)
    want = eval_q(a, kp) * F_anchor(v, C2, KAPPA) + eval_q(b, kp) * F_anchor(
        w, C2, KAPPA
    )
    assert F_anchor(combo, C2, KAPPA) == pytest.approx(want, rel=1e-12)


def test_f_anchor_closed_surface_drops_the_anchor():
    v = hwv_pair(2, 2, 1)
    a = F_anchor(v, ChamberPoint(-1.0, (0.0, 1.0)), 8.0)
    b = F_anchor(v, ChamberPoint(-5.0, (0.0, 1.0)), 8.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_f_anchor_rejects_mismatched_chamber():
    v = TensorVector.basis(TensorSpace((2, 2)), (0, 0))
    with pytest.raises(ValueError, match="chamber"):
        F_anchor(v, C3, KAPPA)


# -- highest weight vector functions ---------------------------------------


def test_f_hwv_two_point_value():
    v = hwv_pair(2, 2, 1)
    for x1, x2 in ((0.0, 1.0), (0.3, 2.1)):
        got = F_hwv(v, (x1, x2), 8.0)
        assert got == pytest.approx(math.pi * (x2 - x1) ** 0.25, rel=1e-8)


@pytest.mark.parametrize(
    "d1, d2, m, kappa",
    [(2, 3, 1, 10.0), (3, 3, 2, 10.0), (3, 2, 1, 12.0)],
)
def test_f_hwv_two_point_family(d1, d2, m, kappa):
    d = d1 + d2 - 1 - 2 * m
    got = F_hwv(hwv_pair(d1, d2, m), (0.2, 1.7), kappa)
    want = b_const(d, d1, d2, kappa) * (1.7 - 0.2) ** delta_fusion(d, d1, d2, kappa)
    assert got == pytest.approx(want, rel=1e-7)


def test_f_hwv_requires_highest_weight():
    v = TensorVector.basis(TensorSpace((2, 2)), (1, 0))
    with pytest.raises(ValueError, match="highest weight"):
        F_hwv(v, (0.0, 1.0), KAPPA)


def test_f_hwv_anchor_independence():
    v = hwv_pair(2, 3, 1)
    x = (0.0, 1.0)
    a = F_hwv(v, x, KAPPA, x0=-1.0)
    b = F_hwv(v, x, KAPPA, x0=-10.0)
    assert a == pytest.approx(b, rel=1e-8)
    assert F_hwv(v, x, KAPPA) == a


def test_f_hwv_one_point_constant():
    assert F_hwv(TensorVector.basis(TensorSpace((3,)), (0,)), (0.4,), 16.0) == 1
    assert F_hwv(TensorVector.basis(TensorSpace((1,)), (0,)), (2.0,), KAPPA) == 1


def test_f_hwv_coordinates_must_increase():
    with pytest.raises(ValueError, match="increase"):
        F_hwv(hwv_pair(2, 2, 1), (1.0, 0.5), 8.0)


# -- mixed functions ---------------------------------------------------------
# the pair (j, j+1) carries a vector of one summand, every other point a
# plain basis vector; F_anchor evaluates it like any other vector


def test_alpha_two_point_closed_form():
    c = ChamberPoint(-1.0, (0.0, 1.0))
    assert F_anchor(hwv_pair(2, 2, 1), c, 8.0) == pytest.approx(
        rho(c, (2, 2), (0, 1), 8.0), rel=1e-10
    )
    assert F_anchor(hwv_pair(2, 3, 1), c, KAPPA) == pytest.approx(
        rho(c, (2, 3), (0, 1), KAPPA), rel=1e-10
    )


def test_alpha_leading_summand_reduces_to_phi():
    c = ChamberPoint(-1.0, (0.0, 1.0))
    got = F_anchor(hwv_pair(2, 3, 0), c, KAPPA)
    assert got == pytest.approx(phi(c, (2, 3), (0, 0), KAPPA), rel=1e-12)


def test_alpha_three_point_matches_linear_extension():
    tau = hwv_pair(2, 2, 1)
    e1 = TensorVector.basis(TensorSpace((2,)), (1,))
    got = F_anchor(tensor_product(e1, tau), C3, KAPPA)
    kp = KappaParams(KAPPA)
    want = sum(
        eval_q(cv, kp) * phi(C3, (2, 2, 2), (1,) + idx, KAPPA)
        for idx, cv in tau.coeffs.items()
    )
    assert got == pytest.approx(want, rel=1e-9)


# -- pair collapse asymptotics ---------------------------------------------


def test_asymptotics_pure_power_pair():
    report = asymptotics_check(hwv_pair(2, 2, 1), 1, 1, KAPPA)
    assert report["exponent_ref"] == pytest.approx((KAPPA - 6.0) / KAPPA)
    assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-8)
    assert report["reference"] == pytest.approx(b_const(1, 2, 2, KAPPA), rel=1e-12)
    for ratio in report["ratios"]:
        assert ratio == pytest.approx(report["reference"], rel=1e-6)


def test_asymptotics_upper_summand_is_flat():
    v = TensorVector.basis(TensorSpace((2, 2)), (0, 0))
    report = asymptotics_check(v, 1, 3, KAPPA)
    assert report["exponent_ref"] == pytest.approx(2.0 / KAPPA)
    assert report["exponent"] == pytest.approx(2.0 / KAPPA, abs=1e-8)
    assert report["reference"] == pytest.approx(1.0, rel=1e-12)
    for ratio in report["ratios"]:
        assert ratio == pytest.approx(1.0, rel=1e-10)


def test_asymptotics_rejects_wrong_summand():
    v = TensorVector.basis(TensorSpace((2, 2)), (0, 0))
    with pytest.raises(ValueError, match="summand"):
        asymptotics_check(v, 1, 1, KAPPA)


def test_asymptotics_four_point_collapse():
    v = tensor_product(hwv_pair(2, 2, 1), hwv_pair(2, 2, 1))
    assert is_hwv(v, 1)
    report = asymptotics_check(v, 1, 1, KAPPA)
    mid = report["ratios"][1]
    assert abs(mid / report["reference"] - 1.0) <= 1e-2
    assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-3)


# -- multi-point collapse --------------------------------------------------


def test_general_collapse_matches_pair_specialization():
    v = hwv_pair(2, 2, 1)
    pair = asymptotics_check(v, 1, 1, KAPPA)
    gen = general_asymptotics_check(v, 1, 2, 1, (0.0, 1.0), KAPPA)
    for a, b in zip(gen["ratios"], pair["ratios"]):
        assert a == pytest.approx(b, rel=1e-10)
    assert gen["reference"] == pytest.approx(pair["reference"], rel=1e-8)


def test_general_three_point_collapse():
    tau = hwv_space_basis(TensorSpace((2, 2, 2)), 2)[0]
    report = general_asymptotics_check(tau, 1, 3, 2, (0.0, 0.4, 1.0), KAPPA)
    assert report["exponent_ref"] == pytest.approx(-2.0 * h_weight(2, KAPPA))
    assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-3)
    mid = report["ratios"][1]
    assert abs(mid / report["reference"] - 1.0) <= 2e-2


def test_general_collapse_rejects_malformed_vectors():
    space = TensorSpace((2, 2, 2))
    mixed_outer = TensorVector.basis(space, (0, 0, 0)) + TensorVector.basis(
        space, (0, 1, 1)
    ).scale(QScalar.q_power(1))
    with pytest.raises(ValueError, match="outside the collapsing block"):
        general_asymptotics_check(mixed_outer, 1, 2, 1, (0.0, 1.0), KAPPA)
    pair_space = TensorSpace((2, 2))
    not_ladder = TensorVector.basis(pair_space, (0, 0)) + TensorVector.basis(
        pair_space, (1, 1)
    )
    with pytest.raises(ValueError, match="highest weight"):
        general_asymptotics_check(not_ladder, 1, 2, 2, (0.0, 1.0), KAPPA)
    with pytest.raises(ValueError, match="ratios"):
        general_asymptotics_check(hwv_pair(2, 2, 1), 1, 2, 1, (0.0, 0.5), KAPPA)


# -- the point at infinity -------------------------------------------------


def test_infinity_limit_two_point_both_sides():
    v = hwv_pair(2, 2, 1)
    for side in ("plus", "minus"):
        report = infinity_limit(v, side, 8.0)
        assert report["reference"] == pytest.approx(math.pi, rel=1e-9)
        errs = report["relative_errors"]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 2e-2


def test_infinity_limit_three_point_trend():
    v = hwv_space_basis(TensorSpace((2, 2, 3)), 1)[0]
    report = infinity_limit(v, "plus", KAPPA)
    errs = report["relative_errors"]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 2e-2


def test_infinity_limit_rejects_nontrivial_vectors():
    with pytest.raises(ValueError, match="trivial"):
        infinity_limit(hwv_pair(2, 2, 0), "plus", KAPPA)
    with pytest.raises(ValueError, match="side"):
        infinity_limit(hwv_pair(2, 2, 1), "up", KAPPA)
