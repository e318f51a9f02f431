"""Tests for the differential operator and covariance checks."""

from fractions import Fraction

import pytest

from qscreen.coulomb import h_weight
from qscreen.correspondence import F_hwv
from qscreen.pde import (
    FdScheme,
    apply_bsa,
    build_bsa,
    euler_check,
    mobius_check,
    sle_pde_check,
    sle_proportionality_check,
    special_conformal_identity_check,
    translation_check,
)
from qscreen.uqsl2 import TensorSpace, hwv_pair, hwv_space_basis

KAPPA = 10.0

# analytic evaluators get a coarser step: truncation still vanishes under
# Richardson while rounding noise stays far below the 1e-6 targets
COARSE = FdScheme(h=1e-2)


def power_product(dims, kappa):
    def ev(y):
        out = 1.0
        for i in range(len(y)):
            for k in range(i + 1, len(y)):
                out *= (y[k] - y[i]) ** (2.0 * (dims[i] - 1) * (dims[k] - 1) / kappa)
        return out

    return ev


def quartet_function(kappa):
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    return v, lambda y: F_hwv(v, y, kappa)


# -- operator construction -------------------------------------------------


def test_bsa_order_two_terms():
    op = build_bsa(1, (2, 2), 8.0)
    by_factors = {t.factors: t for t in op.compositions}
    assert set(by_factors) == {(1, 1), (2,)}
    assert by_factors[(1, 1)].rational == Fraction(1)
    assert by_factors[(1, 1)].coefficient == 1.0
    assert by_factors[(2,)].rational == Fraction(1)
    assert by_factors[(2,)].coefficient == -0.5


def test_bsa_order_three_terms():
    op = build_bsa(2, (2, 3, 2), KAPPA)
    by_factors = {t.factors: (t.rational, t.power) for t in op.compositions}
    assert by_factors == {
        (1, 1, 1): (Fraction(1), 0),
        (1, 2): (Fraction(2), 1),
        (2, 1): (Fraction(2), 1),
        (3,): (Fraction(4), 2),
    }
    for t in op.compositions:
        assert t.coefficient == pytest.approx(
            float(t.rational) * (-4.0 / KAPPA) ** t.power
        )


@pytest.mark.parametrize("d", range(1, 7))
def test_bsa_composition_count(d):
    op = build_bsa(1, (d,), KAPPA)
    assert len(op.compositions) == 2 ** (d - 1)
    assert all(sum(t.factors) == d for t in op.compositions)


def test_bsa_rejects_bad_positions():
    with pytest.raises(ValueError, match="position"):
        build_bsa(3, (2, 2), KAPPA)
    with pytest.raises(ValueError, match="positive"):
        build_bsa(1, (2, 0), KAPPA)


def test_fd_scheme_validation():
    with pytest.raises(ValueError, match="step"):
        FdScheme(h=0.0)
    with pytest.raises(ValueError, match="step"):
        FdScheme(h=float("nan"))


# -- residuals on known solutions ------------------------------------------


def test_pure_power_is_annihilated():
    op = build_bsa(1, (2, 2), 8.0)
    f = lambda y: (y[1] - y[0]) ** (1.0 - 6.0 / 8.0)
    residual, scale = apply_bsa(op, f, (0.3, 1.4))
    assert abs(residual) / scale <= 1e-6


def test_power_product_is_annihilated():
    dims = (2, 3, 2)
    f = power_product(dims, KAPPA)
    for j in (1, 2, 3):
        op = build_bsa(j, dims, KAPPA)
        residual, scale = apply_bsa(op, f, (0.0, 1.0, 2.5), COARSE)
        assert abs(residual) / scale <= 1e-6

    op = build_bsa(1, (3, 3), KAPPA)
    residual, scale = apply_bsa(op, power_product((3, 3), KAPPA), (0.2, 1.9), COARSE)
    assert abs(residual) / scale <= 1e-6


def test_generic_function_is_not_annihilated():
    op = build_bsa(2, (2, 3, 2), KAPPA)
    bad = lambda y: ((y[1] - y[0]) * (y[2] - y[0]) * (y[2] - y[1])) ** 0.3
    residual, scale = apply_bsa(op, bad, (0.0, 1.0, 2.5), COARSE)
    assert abs(residual) / scale >= 1e-2


def test_quartet_function_satisfies_the_operator():
    _, ev = quartet_function(KAPPA)
    op = build_bsa(2, (2, 2, 2, 2), KAPPA)
    residual, scale = apply_bsa(op, ev, (0.0, 1.0, 2.0, 4.0))
    assert abs(residual) / scale <= 1e-6


def test_apply_bsa_input_checks():
    op = build_bsa(2, (2, 3, 2), KAPPA)
    f = power_product((2, 3, 2), KAPPA)
    with pytest.raises(ValueError, match="clearance"):
        apply_bsa(op, f, (0.0, 1.0, 2.5), FdScheme(h=0.3))
    with pytest.raises(ValueError, match="coordinates"):
        apply_bsa(op, f, (0.0, 1.0))
    with pytest.raises(ValueError, match="increase"):
        apply_bsa(op, f, (0.0, 2.5, 1.0))
    nan_point = (0.0, float("nan"), 2.0)
    with pytest.raises(ValueError, match="increase"):
        apply_bsa(op, f, nan_point)
    with pytest.raises(ValueError, match="increase"):
        sle_pde_check(f, nan_point, KAPPA, 1)
    with pytest.raises(ValueError, match="increase"):
        translation_check(f, nan_point)
    with pytest.raises(ValueError, match="increase"):
        euler_check(f, nan_point, 0.0)
    inf_point = (0.0, 1.0, float("inf"))
    with pytest.raises(ValueError, match="finite"):
        apply_bsa(op, f, inf_point)
    with pytest.raises(ValueError, match="finite"):
        sle_pde_check(f, inf_point, KAPPA, 1)
    with pytest.raises(ValueError, match="finite"):
        translation_check(f, inf_point)
    with pytest.raises(ValueError, match="finite"):
        euler_check(f, (float("-inf"), 1.0, 2.0), 0.0)


# -- the second order growth process equation ------------------------------


def test_sle_equation_on_quartet_function():
    _, ev = quartet_function(KAPPA)
    for j in (1, 2):
        residual, scale = sle_pde_check(ev, (0.0, 1.0, 2.0, 4.0), KAPPA, j)
        assert abs(residual) / scale <= 1e-4


def test_sle_equation_on_pure_power():
    f = lambda y: (y[1] - y[0]) ** (1.0 - 6.0 / 8.0)
    residual, scale = sle_pde_check(f, (0.3, 1.4), 8.0, 1)
    assert abs(residual) / scale <= 1e-6


def test_sle_equation_matches_composed_operator():
    worst = sle_proportionality_check((0.0, 1.0, 2.0, 4.0), KAPPA, 2)
    assert worst <= 1e-8


# -- infinitesimal covariance ----------------------------------------------


def test_translation_operator_annihilates():
    _, ev = quartet_function(KAPPA)
    residual, scale = translation_check(ev, (0.0, 1.0, 2.0, 4.0))
    assert abs(residual) / scale <= 1e-8

    two = lambda y: F_hwv(hwv_pair(2, 2, 1), y, 8.0)
    residual, scale = translation_check(two, (0.3, 1.4))
    assert abs(residual) / scale <= 1e-8


def test_euler_operator_with_known_degrees():
    _, ev = quartet_function(KAPPA)
    degree = -4.0 * h_weight(2, KAPPA)
    residual, scale = euler_check(ev, (0.0, 1.0, 2.0, 4.0), degree)
    assert abs(residual) / scale <= 1e-8

    two = lambda y: F_hwv(hwv_pair(2, 2, 1), y, 8.0)
    residual, scale = euler_check(two, (0.3, 1.4), 0.25)
    assert abs(residual) / scale <= 1e-8


# -- Mobius covariance -----------------------------------------------------


def test_mobius_identity_is_exact():
    v, _ = quartet_function(KAPPA)
    report = mobius_check(v, (1.0, 0.0, 0.0, 1.0), (-1.5, -0.5, 0.5, 1.5), KAPPA)
    assert report["deviation"] == 0.0


def test_mobius_translation_and_scaling():
    v, _ = quartet_function(KAPPA)
    x = (-1.5, -0.5, 0.5, 1.5)
    assert mobius_check(v, (1.0, 3.0, 0.0, 1.0), x, KAPPA)["deviation"] <= 1e-8
    assert mobius_check(v, (1.7, 0.0, 0.0, 1.0), x, KAPPA)["deviation"] <= 1e-8


def test_mobius_special_conformal():
    v, _ = quartet_function(KAPPA)
    x = (-1.5, -0.5, 0.5, 1.5)
    report = mobius_check(v, (1.0, 0.0, 0.05, 1.0), x, KAPPA)
    assert report["deviation"] <= 1e-6


def test_mobius_rejections():
    v, _ = quartet_function(KAPPA)
    x = (-1.5, -0.5, 0.5, 1.5)
    with pytest.raises(ValueError, match="orientation"):
        mobius_check(v, (1.0, 0.0, 0.0, -1.0), x, KAPPA)
    with pytest.raises(ValueError, match="ordering"):
        mobius_check(v, (1.0, 0.0, 1.0, 1.0), x, KAPPA)
    with pytest.raises(ValueError, match="trivial"):
        mobius_check(hwv_pair(2, 3, 1), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0), KAPPA)


# -- the rational identity behind special conformal covariance -------------


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 3, 3)])
def test_special_conformal_identity_vanishes(dims):
    assert special_conformal_identity_check(dims) <= 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_special_conformal_identity_feels_perturbations(dims):
    assert special_conformal_identity_check(dims, perturbation=1e-3) >= 1e-4


def test_special_conformal_identity_needs_integer_count():
    with pytest.raises(ValueError, match="even"):
        special_conformal_identity_check((2, 3))
