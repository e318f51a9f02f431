"""Tests for the differential operator and covariance checks."""

import math
import random

import numpy as np
import pytest
from closed_forms import fd_jets, hyp2f1

from qscreen import coulomb, uqsl2
from qscreen.coulomb import ChamberPoint, _rho_degree, eval_stats, h_weight, rho
from qscreen.correspondence import F_anchor, F_hwv
from qscreen.jet import JetPoint
from qscreen.pde import (
    _separated_points,
    apply_bsa,
    build_bsa,
    euler_check,
    mobius_check,
    sle_pde_check,
    sle_proportionality_check,
    special_conformal_check,
    special_conformal_identity_check,
    translation_check,
    vertex_prefactor,
)
from qscreen.uqsl2 import TensorSpace, hwv_pair, hwv_space_basis

KAPPA = 10.0


def quartet_function(kappa):
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    return v, lambda y: F_hwv(v, y, kappa)


# -- operator construction -------------------------------------------------


def test_bsa_order_two_terms():
    # (d-1)!^2 / prod (n_1+..+n_m)(n_(m+1)+..+n_k) times (-4/kappa)^(d-k):
    # 1 for (1, 1) and -4/8 for (2,)
    op = build_bsa(1, (2, 2), 8.0)
    by_factors = {t.factors: t.coefficient for t in op.compositions}
    assert by_factors == {(1, 1): 1.0, (2,): -0.5}


def test_bsa_order_three_terms():
    # 2!^2 / (1 * 2 * 2 * 1) = 1 for (1, 1, 1), 4 / (1 * 2) = 2 for (1, 2)
    # and (2, 1), 4 for (3,), each times (-4/kappa)^(3-k)
    op = build_bsa(2, (2, 3, 2), KAPPA)
    by_factors = {t.factors: t.coefficient for t in op.compositions}
    g = -4.0 / KAPPA
    assert by_factors.keys() == {(1, 1, 1), (1, 2), (2, 1), (3,)}
    assert by_factors[(1, 1, 1)] == 1.0
    assert by_factors[(1, 2)] == pytest.approx(2 * g)
    assert by_factors[(2, 1)] == pytest.approx(2 * g)
    assert by_factors[(3,)] == pytest.approx(4 * g ** 2)


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


def test_kappa_must_be_positive():
    f = vertex_prefactor((2, 2), KAPPA)
    # at kappa = inf the weights would be evaluated at q = 1
    for kappa in (0.0, -3.0, float("nan"), math.inf):
        with pytest.raises(ValueError, match="kappa"):
            build_bsa(1, (2, 2), kappa)
        with pytest.raises(ValueError, match="kappa"):
            sle_pde_check(f, (0.0, 1.0), kappa, 1)


def test_fd_scheme_validation():
    # the finite-difference reference the jet path is compared against
    f = vertex_prefactor((2, 2), KAPPA)
    for h in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="step"):
            fd_jets(f, h=h)
    # a composition of order d moves each point by up to 2d coarse steps:
    # these steps pass a clearance of d+1 steps but would cross the points
    for dims, h in (((2, 2), 0.3), ((3, 3), 0.2)):
        with pytest.raises(ValueError, match="clearance"):
            apply_bsa(build_bsa(1, dims, 8.0), fd_jets(f, h=h), (0.0, 1.0))


# -- residuals on known solutions ------------------------------------------


def test_pure_power_is_annihilated():
    # (x_2 - x_1)**(1 - 6/8)
    op = build_bsa(1, (2, 2), 8.0)
    residual, scale = apply_bsa(op, vertex_prefactor((2, 2), 8.0), (0.3, 1.4))
    assert abs(residual) / scale <= 1e-12


def test_power_product_is_annihilated():
    dims = (2, 3, 2)
    f = vertex_prefactor(dims, KAPPA)
    for j in (1, 2, 3):
        op = build_bsa(j, dims, KAPPA)
        residual, scale = apply_bsa(op, f, (0.0, 1.0, 2.5))
        assert abs(residual) / scale <= 1e-12

    op = build_bsa(1, (3, 3), KAPPA)
    residual, scale = apply_bsa(op, vertex_prefactor((3, 3), KAPPA), (0.2, 1.9))
    assert abs(residual) / scale <= 1e-12


def test_generic_function_is_not_annihilated():
    # ((x_2 - x_1) (x_3 - x_1) (x_3 - x_2))**0.3, a null function of the
    # operators of (2, 2, 2) at kappa = 2/0.3 but not of those of (2, 3, 2)
    op = build_bsa(2, (2, 3, 2), KAPPA)
    bad = vertex_prefactor((2, 2, 2), 2.0 / 0.3)
    residual, scale = apply_bsa(op, bad, (0.0, 1.0, 2.5))
    assert abs(residual) / scale >= 1e-2


def test_quartet_function_satisfies_the_operator():
    _, ev = quartet_function(KAPPA)
    op = build_bsa(2, (2, 2, 2, 2), KAPPA)
    residual, scale = apply_bsa(op, ev, (0.0, 1.0, 2.0, 4.0))
    assert abs(residual) / scale <= 1e-6


@pytest.mark.parametrize("j, dims", [(1, (3, 2, 2, 3)), (3, (2, 2, 3, 3)), (3, (2, 2, 3))])
def test_bsa_at_a_d3_point(j, dims):
    # the order-3 operators at a d = 3 point, on third-order jets of F;
    # F_hwv holds x_1, x_3 and x_4 at these four points and carries x_2
    # through the quadrature.  At three points it fills a trivial F from
    # its value alone, so the (2,2,3) case reads F_anchor's jets at a
    # fixed anchor, every point through the quadrature
    v = hwv_space_basis(TensorSpace(dims), 1)[0]
    if len(dims) == 3:
        x, f = (0.0, 1.0, 2.5), lambda y: F_anchor(v, ChamberPoint(-1.0, y), KAPPA)
    else:
        x, f = (0.0, 1.0, 2.0, 4.0), lambda y: F_hwv(v, y, KAPPA)
    residual, scale = apply_bsa(build_bsa(j, dims, KAPPA), f, x)
    assert abs(residual) <= 1e-8 * scale


def test_bsa_at_a_d4_point():
    # the order-4 operator at a d = 4 point, at kappa = 14 and rel_tol 1e-6:
    # the jet F_hwv asks the quadrature for has 5 of its 35 coefficients
    v = hwv_space_basis(TensorSpace((4, 2, 2, 4)), 1)[0]
    op = build_bsa(1, v.space.dims, 14.0)
    residual, scale = apply_bsa(op, lambda y: F_hwv(v, y, 14.0, 1e-6), (0.0, 1.0, 2.0, 4.0))
    assert abs(residual) <= 1e-8 * scale


def test_sle_and_bsa_checks_share_their_rho_jets():
    # at a (2,2,2,2) point, SLE j=1 and BSA j=2 both hold x_1, x_3 and x_4
    # and ask for the order-2 jet in x_2, so the BSA check reads the rho
    # results the SLE check kept
    _, ev = quartet_function(KAPPA)
    x = (0.0, 0.9, 2.1, 4.2)
    misses = coulomb._rho_kept.cache_info().misses
    sle_pde_check(ev, x, KAPPA, 1)
    assert coulomb._rho_kept.cache_info().misses > misses
    misses = coulomb._rho_kept.cache_info().misses
    apply_bsa(build_bsa(2, (2, 2, 2, 2), KAPPA), ev, x)
    assert coulomb._rho_kept.cache_info().misses == misses


def test_apply_bsa_input_checks():
    op = build_bsa(2, (2, 3, 2), KAPPA)
    f = vertex_prefactor((2, 3, 2), KAPPA)
    with pytest.raises(ValueError, match="clearance"):
        apply_bsa(op, fd_jets(f, h=0.3), (0.0, 1.0, 2.5))
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
    with pytest.raises(ValueError, match="increase"):
        special_conformal_check(f, nan_point, (0.1,) * 3)
    inf_point = (0.0, 1.0, float("inf"))
    with pytest.raises(ValueError, match="finite"):
        apply_bsa(op, f, inf_point)
    with pytest.raises(ValueError, match="finite"):
        sle_pde_check(f, inf_point, KAPPA, 1)
    with pytest.raises(ValueError, match="finite"):
        translation_check(f, inf_point)
    with pytest.raises(ValueError, match="finite"):
        euler_check(f, (float("-inf"), 1.0, 2.0), 0.0)
    with pytest.raises(ValueError, match="finite"):
        special_conformal_check(f, inf_point, (0.1,) * 3)


# -- the second order growth process equation ------------------------------


def test_sle_equation_on_quartet_function():
    _, ev = quartet_function(KAPPA)
    for j in (1, 2):
        residual, scale = sle_pde_check(ev, (0.0, 1.0, 2.0, 4.0), KAPPA, j)
        assert abs(residual) / scale <= 1e-4


def test_sle_equation_on_pure_power():
    # (x_2 - x_1)**(1 - 6/8)
    residual, scale = sle_pde_check(vertex_prefactor((2, 2), 8.0), (0.3, 1.4), 8.0, 1)
    assert abs(residual) / scale <= 1e-12


def test_sle_equation_matches_composed_operator():
    worst = sle_proportionality_check((0.0, 1.0, 2.0, 4.0), KAPPA, 2)
    assert worst <= 1e-11


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


@pytest.mark.parametrize("dims, d", [((2, 2, 3), 1), ((2, 2, 2), 2), ((3, 3), 3)])
def test_rho_degree_is_the_euler_degree(dims, d):
    # the degree F_hwv fills its jets with, checked against the first-order
    # jet that F_anchor carries through the quadrature in every point
    v = hwv_space_basis(TensorSpace(dims), d)[0]
    ell = (sum(di - 1 for di in dims) - (d - 1)) // 2
    degree = _rho_degree(dims, ell, KAPPA)
    if d == 1:
        assert degree == pytest.approx(-sum(h_weight(di, KAPPA) for di in dims), abs=1e-14)
    x = (0.0, 1.0, 2.5)[: len(dims)]
    ev = lambda y: F_anchor(v, ChamberPoint(-1.0, y), KAPPA)
    residual, scale = euler_check(ev, x, degree)
    assert abs(residual) <= 1e-8 * scale
    residual, scale = euler_check(ev, x, degree + 1e-3)
    assert abs(residual) >= 1e-5 * scale


def test_special_conformal_generator_holds_for_the_sum_alone():
    # the third Ward identity, on F_anchor's first-order jets, which carry
    # every point through the quadrature; a single rho term of the same
    # vector misses it by a third of its scale
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    x, weights = (0.0, 1.0, 2.0, 4.0), (h_weight(2, KAPPA),) * 4
    ev = lambda y: F_anchor(v, ChamberPoint(-1.0, y), KAPPA)
    residual, scale = special_conformal_check(ev, x, weights)
    assert abs(residual) <= 1e-8 * scale
    term = lambda y: rho(ChamberPoint(-1.0, y), v.space.dims, (0, 0, 1, 1), KAPPA)
    residual, scale = special_conformal_check(term, x, weights)
    assert abs(residual) >= 1e-1 * scale
    with pytest.raises(ValueError, match="weights"):
        special_conformal_check(ev, x, weights[:3])


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


def test_mobius_covariance_at_d3_points():
    v = hwv_space_basis(TensorSpace((3, 2, 2, 3)), 1)[0]
    x = (-1.5, -0.5, 0.5, 1.5)
    assert mobius_check(v, (1.0, 3.0, 0.0, 1.0), x, KAPPA)["deviation"] <= 1e-8
    assert mobius_check(v, (1.7, 0.0, 0.0, 1.0), x, KAPPA)["deviation"] <= 1e-8
    assert mobius_check(v, (1.0, 0.0, 0.05, 1.0), x, KAPPA)["deviation"] <= 1e-6


def test_jets_and_mobius_checks_of_one_vector_run_the_gate_once(monkeypatch):
    # the Ward-filled jets of F_hwv (3 identities for a trivial vector) and
    # the Moebius checks read one kept gate, which acts with E alone
    v, ev = quartet_function(KAPPA)
    x = (-1.5, -0.5, 0.5, 1.5)
    gens = []
    act = uqsl2.act
    monkeypatch.setattr(uqsl2, "act", lambda gen, w: gens.append(gen) or act(gen, w))
    uqsl2._hwv_weights.cache_clear()
    translation_check(ev, x)
    euler_check(ev, x, -sum(h_weight(d, KAPPA) for d in v.space.dims))
    mobius_check(v, (1.7, 0.0, 0.0, 1.0), x, KAPPA)
    mobius_check(v, (1.0, 0.0, 0.05, 1.0), x, KAPPA)
    info = uqsl2._hwv_weights.cache_info()
    assert (info.misses, gens) == (1, ["E"]) and info.hits >= 3


def test_mobius_rejections():
    v, _ = quartet_function(KAPPA)
    x = (-1.5, -0.5, 0.5, 1.5)
    with pytest.raises(ValueError, match="orientation"):
        mobius_check(v, (1.0, 0.0, 0.0, -1.0), x, KAPPA)
    with pytest.raises(ValueError, match="ordering"):
        mobius_check(v, (1.0, 0.0, 1.0, 1.0), x, KAPPA)
    with pytest.raises(ValueError, match="trivial"):
        mobius_check(hwv_pair(2, 3, 1), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0), KAPPA)
    # at kappa = 6 the function of vector 0 of (2,)^6 is below its error
    # estimate: a deviation would be a ratio of noise to noise
    sextet = hwv_space_basis(TensorSpace((2,) * 6), 1)[0]
    with pytest.raises(ValueError, match="F vanishes within its error estimate"):
        mobius_check(sextet, (1.7, 0.0, 0.0, 1.0), (0.0, 1.3, 2.0, 3.3, 4.0, 5.3), 6.0)


# -- the rational identity behind special conformal covariance -------------


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 3, 3), (2,) * 6, (2,) * 8])
def test_special_conformal_identity_vanishes(dims):
    assert special_conformal_identity_check(dims) <= 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_special_conformal_identity_feels_perturbations(dims):
    assert special_conformal_identity_check(dims, perturbation=1e-3) >= 1e-4


def test_special_conformal_identity_needs_integer_count():
    with pytest.raises(ValueError, match="even"):
        special_conformal_identity_check((2, 3))


# -- one jet pass against the finite-difference reference -----------------


def _quartet_vector(k):
    basis = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)
    return basis[0] + basis[1] if k == "sum" else basis[k]


_GRID = (0.0, 1.0, 2.0, 4.0)
_QUARTET_DEGREE = -4.0 * h_weight(2, KAPPA)
# every F_hwv evaluator the operator checks of test_pde and test_acceptance
# see, and the special conformal generator on two of them: (vector, kappa,
# point, check, total order of the operator)
F_HWV_CASES = (
    [(("quartet", 0), KAPPA, _GRID, ("bsa", j), 2) for j in (1, 2, 3, 4)]
    + [(("quartet", 1), KAPPA, _GRID, ("bsa", j), 2) for j in (1, 2, 3, 4)]
    + [(("quartet", 0), KAPPA, _GRID, ("sle", j), 2) for j in (1, 2)]
    + [(("quartet", k), KAPPA, _GRID, ("translation",), 1) for k in (0, "sum")]
    + [(("quartet", k), KAPPA, _GRID, ("euler", _QUARTET_DEGREE), 1) for k in (0, "sum")]
    + [(("pair",), 8.0, (0.3, 1.4), ("translation",), 1),
       (("pair",), 8.0, (0.3, 1.4), ("euler", 0.25), 1)]
    + [(("quartet", 0), KAPPA, _GRID, ("special_conformal", (h_weight(2, KAPPA),) * 4), 1),
       (("pair",), 8.0, (0.3, 1.4), ("special_conformal", (h_weight(2, 8.0),) * 2), 1)]
)
# the finite-difference reference's error: its fourth order stencils
# extrapolated over two strides leave about 1e-7 of the scale at total order
# two and 1e-11 at one
FD_ERROR = {1: 1e-10, 2: 1e-6}


def _run_case(vector, kappa, x, check, f):
    if check[0] == "bsa":
        return apply_bsa(build_bsa(check[1], vector.space.dims, kappa), f, x)
    if check[0] == "sle":
        return sle_pde_check(f, x, kappa, check[1])
    if check[0] == "translation":
        return translation_check(f, x)
    if check[0] == "special_conformal":
        return special_conformal_check(f, x, check[1])
    return euler_check(f, x, check[1])


@pytest.mark.parametrize("which, kappa, x, check, order", F_HWV_CASES)
def test_jet_path_agrees_with_the_black_box_path(which, kappa, x, check, order):
    vector = hwv_pair(2, 2, 1) if which[0] == "pair" else _quartet_vector(which[1])
    points = []

    def jets(y):
        points.append(y)
        return F_hwv(vector, y, kappa)

    with eval_stats() as stats:
        residual, scale = _run_case(vector, kappa, x, check, jets)
    # one evaluator call, asking for a jet, and a jet comes back
    assert len(points) == 1 and isinstance(points[0], JetPoint)
    assert stats.evals == 1
    # the same function of plain points, its jet from finite differences
    plain = []

    def values(y):
        plain.append(y)
        return F_hwv(vector, y, kappa)

    with eval_stats() as stats:
        fd_residual, fd_scale = _run_case(vector, kappa, x, check, fd_jets(values))
    assert stats.evals == 1
    assert len(plain) > 1 and all(type(y) is tuple for y in plain)
    assert abs(residual - fd_residual) <= FD_ERROR[order] * fd_scale
    assert abs(scale - fd_scale) <= FD_ERROR[order] * fd_scale
    # and the jet path is held to the quadrature's accuracy, far below the
    # finite-difference floor
    assert abs(residual) <= 1e-8 * scale


def test_vanishing_function_raises_instead_of_a_ratio():
    # at kappa = 6 every h_{1,2} is zero and the functions of the trivial
    # vectors of (2,)^4 are constant, so every term of an operator vanishes
    # up to quadrature error: a ratio of noise to noise means nothing
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    with pytest.raises(ValueError, match="F vanishes within its error estimate"):
        sle_pde_check(lambda y: F_hwv(v, y, 6.0), _GRID, 6.0, 1)
    with pytest.raises(ValueError, match="F vanishes within its error estimate"):
        apply_bsa(build_bsa(2, v.space.dims, 6.0), lambda y: F_hwv(v, y, 6.0), _GRID)
    with pytest.raises(ValueError, match="F vanishes within its error estimate"):
        translation_check(lambda y: F_hwv(v, y, 6.0), _GRID)
    with pytest.raises(ValueError, match="F vanishes within its error estimate"):
        special_conformal_check(lambda y: F_hwv(v, y, 6.0), _GRID, (h_weight(2, 6.0),) * 4)
    # nearby it does not
    residual, scale = sle_pde_check(lambda y: F_hwv(v, y, 6.5), _GRID, 6.5, 1)
    assert abs(residual) <= 1e-8 * scale


def test_plain_number_evaluators_are_refused():
    # called at a JetPoint, an evaluator must return a Jet: a number alone
    # says nothing about the derivatives the operator reads
    f = vertex_prefactor((2, 2), KAPPA)
    plain = lambda y: f(tuple(y))
    x = (0.3, 1.4)
    with eval_stats() as stats:
        for run in (lambda: apply_bsa(build_bsa(1, (2, 2), KAPPA), plain, x),
                    lambda: sle_pde_check(plain, x, KAPPA, 1),
                    lambda: translation_check(plain, x),
                    lambda: euler_check(plain, x, 0.0),
                    lambda: special_conformal_check(plain, x, (0.1, 0.2))):
            with pytest.raises(TypeError, match="must return a Jet"):
                run()
    assert stats.evals == 5


# -- the four-point function against the hypergeometric solutions ---------


def _hypergeometric_solutions(x, kappa):
    # u_1 and u_2 of the ordinary differential equation in the cross ratio z
    # to which the operators of (2, 2, 2, 2) reduce (Bauer, Bernard and
    # Kytola 2005)
    z = (x[1] - x[0]) * (x[3] - x[2]) / ((x[2] - x[0]) * (x[3] - x[1]))
    r = 8.0 / kappa
    edge = (1.0 - z) ** (2.0 / kappa)
    u1 = edge * hyp2f1(r / 2, 1.0 - r / 2, 2.0 - r, z)
    u2 = z ** (r - 1.0) * edge * hyp2f1(r / 2, 1.5 * r - 1.0, r, z)
    return u1, u2


def _reduced_function(v, x, kappa):
    # G = F (x_2 - x_1)**(2h) (x_4 - x_3)**(2h), h = (6 - kappa)/(2 kappa)
    h = (6.0 - kappa) / (2.0 * kappa)
    return F_hwv(v, x, kappa) * ((x[1] - x[0]) * (x[3] - x[2])) ** (2.0 * h)


@pytest.mark.parametrize("kappa", [5.0, 7.3, 10.0])
def test_quartet_functions_solve_the_hypergeometric_equation(kappa):
    fit = [(0.0, 1.0, 2.0, 4.0), (0.0, 0.3, 2.0, 2.5)]
    rng = random.Random(2026)
    held = [tuple(sorted(_separated_points(rng, 4, -2.0, 2.0, 0.05))) for _ in range(8)]
    # near collisions of each neighbour pair, and of two pairs at once
    held += [(0.0, 0.01, 1.0, 2.0), (0.0, 1.0, 1.01, 3.0), (0.0, 1.0, 2.0, 2.01),
             (-1.0, -0.99, 0.5, 0.51), (0.0, 0.001, 1.0, 2.0)]
    for k, v in enumerate(hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)):
        # a and b of G = a u_1 + b u_2 from two points, the rest held to them
        a, b = np.linalg.solve(
            np.array([_hypergeometric_solutions(x, kappa) for x in fit], dtype=complex),
            np.array([_reduced_function(v, x, kappa) for x in fit]))
        for x in held:
            u1, u2 = _hypergeometric_solutions(x, kappa)
            G = _reduced_function(v, x, kappa)
            assert abs(G - a * u1 - b * u2) <= 1e-9 * abs(G), (k, x)
        if k == 1:
            # vector 1 is a pure multiple of u_1
            assert abs(b) <= 1e-8 * abs(a)
