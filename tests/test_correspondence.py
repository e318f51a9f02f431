"""Tests for the reduction tables and the functions built on them."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    ANCHOR_FREE_SPACES,
    delta_fusion,
    delta_scaling,
    reduction_entries_by_enumeration,
)

from qscreen import correspondence, coulomb
from qscreen.coulomb import (
    ChamberPoint,
    b_const,
    contour_phi_oracle,
    eval_stats,
    h_weight,
    rho,
)
from qscreen.correspondence import (
    F_anchor,
    F_hwv,
    _append_group,
    _check_anchor_free,
    _exact_weights,
    _group_prefactor,
    _groups_prefactor,
    _moves,
    _products,
    _rephasing,
    _table_entries,
    asymptotics_check,
    default_anchor,
    infinity_limit,
    phi,
    reduction_coeffs,
)
from qscreen.jet import JetPoint
from qscreen.qseries import KappaParams, LaurentPoly, QScalar, Q_ONE, eval_q, qbinom
from qscreen.uqsl2 import (
    TensorSpace,
    TensorVector,
    hwv_pair,
    hwv_space_basis,
    is_hwv,
    project,
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

    table = reduction_coeffs((2,), (1,))
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
    st.lists(st.integers(1, 3), min_size=1, max_size=5),
    st.data(),
)
def test_reduction_entries_conserve_and_dominate(dims, data):
    counts = tuple(
        data.draw(st.integers(0, 2), label=f"l_{i}") for i in range(len(dims))
    )
    table = reduction_coeffs(tuple(dims), counts)
    assert table.entries == reduction_entries_by_enumeration(tuple(dims), counts)
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


@pytest.mark.parametrize(
    "dims, d",
    [
        pytest.param(dims, d, id=",".join(map(str, dims)) + f"/{d}")
        for dims, d in [((2,) * 6, 1), ((3,) * 5, 1), ((3,) * 4, 3), ((4, 4, 4, 4), 1)]
        + [(order, 2) for order in sorted(set(itertools.permutations((2, 2, 2, 3, 3))))]
    ],
)
def test_reduction_tables_equal_enumeration_reference(dims, d):
    # verify compares the one- and two-group tables with closed forms;
    # longer tables are compared here with the slot-by-slot enumeration
    # on every index of a highest weight basis
    basis = hwv_space_basis(TensorSpace(dims), d)
    support = sorted({idx for v in basis for idx in v.coeffs})
    assert support
    for idx in support:
        assert reduction_coeffs(dims, idx).entries == (
            reduction_entries_by_enumeration(dims, idx)
        ), idx


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_reduction_tables_equal_enumeration_on_random_counts(dims, data):
    # every group's moves come from one table per (earlier dims, count);
    # up to four loops a group and below its dimension, so that no
    # prefactor vanishes
    dims = tuple(dims)
    counts = tuple(data.draw(st.integers(0, min(4, d - 1)), label=f"l_{i}")
                   for i, d in enumerate(dims))
    assert reduction_coeffs(dims, counts).entries == (
        reduction_entries_by_enumeration(dims, counts))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4)), min_size=1, max_size=4))
def test_state_maps_hold_only_positive_coefficients(groups):
    # _general_entries wraps each final state map without the zero trim,
    # which holds because every coefficient is a sum of products of
    # q-multinomial terms; counts at or above a group's dimension are kept,
    # as _append_group does not read the prefactor
    dims = tuple(d for d, _ in groups)
    states = {(): {0: 1}}
    for i, (_, s) in enumerate(groups):
        states = _append_group(states, dims[:i], s)
        assert states
        assert all(poly and all(c > 0 for c in poly.values())
                   for poly in states.values())


def test_reduction_tables_share_moves():
    # a group's moves depend on its loops and on the dimensions of the
    # groups before it alone, so these tables read the first one's moves
    reduction_coeffs((3, 3, 3, 5), (2, 2, 1, 1))
    misses = _moves.cache_info().misses
    reduction_coeffs((3, 3, 3, 6), (2, 2, 1, 1))
    reduction_coeffs((3, 3, 3, 7), (2, 2, 1, 1))
    assert _moves.cache_info().misses == misses


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=1, max_size=6),
       st.data())
def test_shared_prefactor_is_the_product_of_the_groups_in_any_order(groups, data):
    # the groups with l >= d make the product an exact zero
    product = Q_ONE
    for d, l in data.draw(st.permutations(groups), label="order"):
        product = product * _group_prefactor(d, l)
    assert _groups_prefactor(tuple(sorted(g for g in groups if g[1]))) == product
    assert product.is_zero() == any(l >= d for d, l in groups)


def test_reduction_tables_share_their_products():
    # the 2142 entries of the (3,)^5 trivial support hold 216 distinct
    # values; each product of a prefactor and a state polynomial is made
    # once
    dims = (3,) * 5
    support = sorted({idx for v in hwv_space_basis(TensorSpace(dims), 1) for idx in v.coeffs})
    values = [c for idx in support for c in reduction_coeffs(dims, idx).entries.values()]
    assert len(values) == 2142
    assert len({id(c) for c in values}) <= 310


def test_equal_state_polynomials_under_different_prefactors():
    # the last group's dimension enters the prefactor but not the states,
    # so these two tables multiply the same polynomials by different
    # prefactors; built cold in one process, each must keep its own
    tables = [((2, 3, 2), (1, 1, 1)), ((2, 3, 3), (1, 1, 1))]
    states = []
    for dims, counts in tables:
        states.append({(): {0: 1}})
        for i, s in enumerate(counts):
            states[-1] = _append_group(states[-1], dims[:i], s)
    assert states[0] == states[1]
    assert _group_prefactor(2, 1) != _group_prefactor(3, 1)
    _table_entries.cache_clear()
    _products.cache_clear()
    for dims, counts in tables:
        assert reduction_coeffs(dims, counts).entries == (
            reduction_entries_by_enumeration(dims, counts))


def test_reduction_rejects_empty_dims():
    with pytest.raises(ValueError, match="at least one marked point"):
        reduction_coeffs((), ())


def test_reduction_vanishing_is_exact():
    assert reduction_coeffs((2, 2), (2, 0)).entries == {}
    assert reduction_coeffs((2, 3), (1, 3)).entries == {}
    assert reduction_coeffs((3,), (3,)).entries == {}


# -- rephasing of the real integrals ---------------------------------------


def test_rephasing_trivial_counts():
    assert _rephasing((1, 1)) == Q_ONE
    assert _rephasing((0, 1, 0)) == Q_ONE


def test_rephasing_two_variables():
    assert _rephasing((2,)) == Q_ONE + QScalar.q_power(-2)
    # at kappa = 8, q = i and the factor 1 + q^-2 vanishes
    assert abs(eval_q(_rephasing((2,)), KappaParams(8.0))) <= 1e-12


def _inversions(perm):
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def test_rephasing_matches_inversion_generating_function():
    # [m]! q^(-m(m-1)/2) is the sum of q^(-2 inversions) over permutations
    for m in range(6):
        brute = QScalar.from_int(0)
        for perm in itertools.permutations(range(m)):
            brute = brute + QScalar.q_power(-2 * _inversions(perm))
        assert _rephasing((m,)) == brute, m
    assert _rephasing((2, 3)) == _rephasing((2,)) * _rephasing((3,))


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


def test_phi_rejects_bad_rel_tol_without_integrals():
    # every weight vanishes, so no integral would check rel_tol
    c = ChamberPoint(-1.0, (0.0, 1.0))
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="rel_tol"):
            phi(c, (2, 2), (2, 0), 8.0, rel_tol=bad)
        with pytest.raises(ValueError, match="rel_tol"):
            F_anchor(TensorVector(TensorSpace((2, 2))), c, 8.0, rel_tol=bad)


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
    assert F_anchor(TensorVector(TensorSpace((2, 2))), C2, KAPPA) == 0


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


@pytest.mark.parametrize("points", (3, 5))
@pytest.mark.parametrize("jet", (False, True))
def test_f_hwv_and_f_anchor_reject_a_wrong_number_of_points(points, jet):
    # the (2,2,2,2) trivial vector lives on four points; three or five, as
    # a plain point or a JetPoint, raise the same ValueError from both
    # evaluators before any weight or integral is formed
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    x = tuple(float(k) for k in range(points))
    if jet:
        x = JetPoint(x, [(1,) + (0,) * (points - 1)])
    message = f"vector lives on 4 points but the chamber has {points}"
    with pytest.raises(ValueError, match=message):
        F_hwv(v, x, KAPPA)
    with pytest.raises(ValueError, match=message):
        F_anchor(v, ChamberPoint(-1.0, x), KAPPA)


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
    # the anchor drops out exactly: F_anchor at two anchors, neither the
    # one F_hwv uses, sums afresh and gives F_hwv's bits as a value.  As a
    # jet, F_hwv fills a trivial vector at three points from its value and
    # the three Ward identities: every coefficient lies within the summed
    # estimates of F_anchor's full-index jet at either anchor
    v = hwv_space_basis(TensorSpace((2, 2, 3)), 1)[0]
    x = (0.0, 1.3, 2.0)
    jx = JetPoint(x, [(0, 1, 1), (2, 0, 0)])
    plain, jet = F_hwv(v, x, KAPPA), F_hwv(v, jx, KAPPA)
    for x0 in (x[0] - 1.0, x[0] - 7.5):
        assert F_anchor(v, ChamberPoint(x0, x), KAPPA) == plain
        full = F_anchor(v, ChamberPoint(x0, jx), KAPPA)
        for alpha in jx.index:
            assert abs(jet[alpha] - full[alpha]) <= jet.errs[alpha] + full.errs[alpha]


def _order_two(n):
    return [tuple(int(i == j) + int(i == k) for i in range(n))
            for j in range(n) for k in range(j, n)]


def _bsa_reads(n, j, order):
    # the multi-indices apply_bsa reads at position j: every order up to
    # the operator's in the other points
    others = [i for i in range(n) if i != j - 1]
    return [tuple(combo.count(i) for i in range(n))
            for combo in itertools.combinations_with_replacement(others, order)]


_GRID = (0.0, 1.0, 2.0, 4.0)


# (dims, kappa, point, reads, weights): the full order-2 sets and the
# index sets of BSA checks, on the first vector of each weight d listed.
# The sum of the trivial and the d = 3 vector of (2,2,2,2) is killed by E
# but has two weights, so it is filled from two identities, and its rho
# terms have two degrees, each filled with its own
_FILLED_CASES = [
    ((2, 2, 2, 2), KAPPA, _GRID, _order_two(4), (1,)),
    ((2, 2, 3), KAPPA, (0.0, 1.3, 2.0), _order_two(3), (1,)),
    ((3, 2, 2, 3), KAPPA, _GRID, _order_two(4), (1,)),
    ((2, 2, 3, 3), KAPPA, _GRID, _order_two(4), (1,)),
    ((2, 2, 2, 2), KAPPA, _GRID, _bsa_reads(4, 2, 2), (1,)),
    ((2, 2, 3), KAPPA, (0.0, 1.3, 2.0), _bsa_reads(3, 1, 2), (1,)),
    ((3, 2, 2, 3), KAPPA, _GRID, _bsa_reads(4, 1, 3), (1,)),
    ((2, 2, 3, 3), KAPPA, _GRID, _bsa_reads(4, 3, 3), (1,)),
    ((2, 2, 2, 2), KAPPA, _GRID, _order_two(4), (1, 3)),
]


@pytest.mark.parametrize("dims, kappa, x, reads, weights", _FILLED_CASES)
def test_f_hwv_jets_match_full_index_jets(dims, kappa, x, reads, weights):
    # F_hwv fills the coefficients of its held points from the Ward
    # identities: three for a trivial vector, two for any other; each lies
    # within the summed estimates of the jet the quadrature carries over
    # every point
    space = TensorSpace(dims)
    v = sum((hwv_space_basis(space, d)[0] for d in weights[1:]), hwv_space_basis(space, weights[0])[0])
    point = JetPoint(x, reads)
    jet = F_hwv(v, point, kappa)
    full = F_anchor(v, ChamberPoint(default_anchor(x), point), kappa)
    assert jet.index == full.index == point.index
    for alpha in point.index:
        assert abs(jet[alpha] - full[alpha]) <= jet.errs[alpha] + full.errs[alpha], alpha
        assert jet.errs[alpha] <= 1e-6 * max(abs(jet[alpha]), abs(jet[point.index[0]]))


def test_hwv_weights_keep_no_variable_left_of_the_first_point():
    # the exact sums of every highest weight vector cancel each weight at
    # an assignment with m_0 > 0, with no quadrature; a plain basis vector
    # keeps them, and the check raises
    assert len(ANCHOR_FREE_SPACES) == 18
    checked = 0
    for dims in ANCHOR_FREE_SPACES:
        for d in range(sum(di - 1 for di in dims) + 1, 0, -2):
            for v in hwv_space_basis(TensorSpace(dims), d):
                _check_anchor_free(dims, frozenset(v.coeffs.items()))
                checked += 1
    assert checked == 263
    plain = frozenset(TensorVector.basis(TensorSpace((2, 2)), (0, 1)).coeffs.items())
    assert [m for m, _ in _exact_weights((2, 2), plain)] == [(0, 1), (1, 0)]
    with pytest.raises(ArithmeticError, match=r"\[x0, x_1\]"):
        _check_anchor_free((2, 2), plain)


def _weights_by_the_general_formula(dims, coeffs):
    # the sum over the coefficients of each table entry times the
    # coefficient, in full QScalar arithmetic, times the rephasing
    weights = {}
    for idx, cv in coeffs:
        for m, ck in reduction_coeffs(dims, idx).entries.items():
            weights[m] = weights.get(m, QScalar.from_int(0)) + ck * cv
    return tuple((m, w * _rephasing(m)) for m, w in sorted(weights.items()) if not w.is_zero())


# (1 + 2q) / (3 + q^2 - q^3): a scalar with a denominator that no table
# entry divides
_RATIONAL = QScalar(LaurentPoly({0: 1, 1: 2}), LaurentPoly({0: 3, 2: 1, 3: -1}))


@pytest.mark.parametrize("v", [
    hwv_pair(5, 5, 4),
    hwv_pair(4, 4, 3),
    hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[1],
    hwv_space_basis(TensorSpace((3, 2, 2, 3)), 3)[0],
], ids=["pair-554", "pair-443", "trivial-2222", "d3-3223"])
def test_exact_weights_on_one_denominator_are_the_general_ones(v):
    # the weights are summed on the numerators over the coefficients'
    # shared denominator D and divided by D once: those of v.scale(s) are
    # exactly s times those of v, and both are what the general formula
    # gives
    dims = v.space.dims
    coeffs = frozenset(v.coeffs.items())
    assert len({c.den for _, c in coeffs}) == 1
    weights = _exact_weights(dims, coeffs)
    assert weights and weights == _weights_by_the_general_formula(dims, coeffs)
    scaled = frozenset(v.scale(_RATIONAL).coeffs.items())
    assert not any(c.den.is_one() for _, c in scaled)
    assert _exact_weights(dims, scaled) == tuple((m, _RATIONAL * w) for m, w in weights)
    assert _exact_weights(dims, scaled) == _weights_by_the_general_formula(dims, scaled)


def test_exact_weights_on_two_denominators_are_the_general_ones():
    # coefficients that share no denominator are summed as they stand
    pair = frozenset(hwv_pair(3, 2, 1).coeffs.items())
    assert len({c.den for _, c in pair}) == 2
    half = QScalar(LaurentPoly({0: 1}), LaurentPoly({0: 1, 2: 1}))
    plain = frozenset({(0, 1, 1): _RATIONAL, (0, 2, 0): half, (1, 1, 0): Q_ONE}.items())
    for dims, coeffs in (((3, 2), pair), ((2, 3, 2), plain)):
        weights = _exact_weights(dims, coeffs)
        assert weights and weights == _weights_by_the_general_formula(dims, coeffs)


def test_f_hwv_one_point_constant():
    assert F_hwv(TensorVector.basis(TensorSpace((3,)), (0,)), (0.4,), 16.0) == 1
    assert F_hwv(TensorVector.basis(TensorSpace((1,)), (0,)), (2.0,), KAPPA) == 1
    # a single point is held alone: translation fills its derivatives
    jet = F_hwv(TensorVector.basis(TensorSpace((3,)), (0,)), JetPoint((0.4,), [(2,)]), 16.0)
    assert jet.coeffs == {(0,): 1, (1,): 0, (2,): 0}


def test_f_hwv_coordinates_must_increase():
    with pytest.raises(ValueError, match="increase"):
        F_hwv(hwv_pair(2, 2, 1), (1.0, 0.5), 8.0)


@pytest.mark.parametrize("jet", (False, True))
@pytest.mark.parametrize("name", ("rho", "phi", "F_anchor", "F_hwv"))
def test_a_repeated_call_counts_the_grids_of_the_first(name, jet):
    # every evaluator reads one kept rho result per argument set and counts
    # the grids that result summed, whether it was summed or read; so a
    # repeated call returns the same bits and counts what the first did,
    # here on the trivial vector of (2, 2, 2, 2), as a value and as a
    # first-order jet
    dims, x = (2, 2, 2, 2), (0.0, 1.0, 2.0, 4.0)
    if jet:
        x = JetPoint(x, [tuple(int(i == j) for i in range(4)) for j in range(4)])
    v = hwv_space_basis(TensorSpace(dims), 1)[0]
    c = ChamberPoint(-1.0, x)
    evaluate = {
        "rho": lambda: rho(c, dims, (1, 0, 1, 0), KAPPA),
        "phi": lambda: phi(c, dims, (1, 0, 1, 0), KAPPA),
        "F_anchor": lambda: F_anchor(v, c, KAPPA),
        "F_hwv": lambda: F_hwv(v, x, KAPPA),
    }[name]
    coulomb._rho_kept.cache_clear()
    with eval_stats() as first:
        value = evaluate()
    with eval_stats() as again:
        assert evaluate() == value
    assert first.grid_evals > 0
    assert vars(again) == vars(first)


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
    report = asymptotics_check(hwv_pair(2, 2, 1), 1, 2, 1, (0.0, 1.0), KAPPA)
    assert report["exponent_ref"] == pytest.approx((KAPPA - 6.0) / KAPPA)
    assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-8)
    assert report["reference"] == pytest.approx(b_const(1, 2, 2, KAPPA), rel=1e-12)
    for ratio in report["ratios"]:
        assert ratio == pytest.approx(report["reference"], rel=1e-6)


def test_asymptotics_upper_summand_is_flat():
    v = TensorVector.basis(TensorSpace((2, 2)), (0, 0))
    report = asymptotics_check(v, 1, 2, 3, (0.0, 1.0), KAPPA)
    assert report["exponent_ref"] == pytest.approx(2.0 / KAPPA)
    assert report["exponent"] == pytest.approx(2.0 / KAPPA, abs=1e-8)
    assert report["reference"] == pytest.approx(1.0, rel=1e-12)
    for ratio in report["ratios"]:
        assert ratio == pytest.approx(1.0, rel=1e-10)


def test_asymptotics_rejects_wrong_summand():
    v = TensorVector.basis(TensorSpace((2, 2)), (0, 0))
    with pytest.raises(ValueError, match="summand"):
        asymptotics_check(v, 1, 2, 1, (0.0, 1.0), KAPPA)


def test_asymptotics_four_point_collapse():
    v = tensor_product(hwv_pair(2, 2, 1), hwv_pair(2, 2, 1))
    assert is_hwv(v, 1)
    report = asymptotics_check(v, 1, 2, 1, (0.0, 1.0), KAPPA)
    mid = report["ratios"][1]
    assert abs(mid / report["reference"] - 1.0) <= 1e-8
    assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-7)


@pytest.mark.parametrize("dims", [(3, 3, 2, 2), (3, 3, 3, 3)], ids=["3,3,2,2", "3,3,3,3"])
def test_asymptotics_d3_channel(dims):
    # the d = 3 images of the trivial vectors under the pair (x_1, x_2);
    # the leading correction goes like sep^2
    images = [project(w, 1, 3)[0] for w in hwv_space_basis(TensorSpace(dims), 1)]
    images = [pi for pi in images if not pi.is_zero()]
    assert images
    for pi in images:
        report = asymptotics_check(pi, 1, 2, 3, (0.0, 1.0), KAPPA)
        assert abs(report["ratios"][-1] / report["reference"] - 1.0) <= 1e-8
        assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-6)


# -- multi-point collapse --------------------------------------------------


def test_general_collapse_matches_pair_specialization():
    # at a pair the one check's reference is b_const times the collapsed
    # F of project's image, to the bit
    v = tensor_product(hwv_pair(2, 2, 1), hwv_pair(2, 2, 1))
    report = asymptotics_check(v, 1, 2, 1, (0.0, 1.0), KAPPA)
    hat = project(v, 1, 1)[1]
    collapsed = F_anchor(hat, ChamberPoint(0.0, (1.5, 3.0, 4.0)), KAPPA)
    assert report["reference"] == b_const(1, 2, 2, KAPPA) * collapsed


def test_general_three_point_collapse():
    tau = hwv_space_basis(TensorSpace((2, 2, 2)), 2)[0]
    report = asymptotics_check(tau, 1, 3, 2, (0.0, 0.4, 1.0), KAPPA)
    assert report["exponent_ref"] == pytest.approx(-2.0 * h_weight(2, KAPPA))
    assert report["exponent"] == pytest.approx(report["exponent_ref"], abs=1e-10)
    mid = report["ratios"][1]
    assert abs(mid / report["reference"] - 1.0) <= 1e-10


def test_block_collapse_with_a_mixed_context():
    # the trivial vectors of (2,2,2,2) are no single basis tensor outside
    # the block x_1..x_3; the leading correction is linear in sep
    for v in hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1):
        report = asymptotics_check(v, 1, 3, 2, (0.0, 0.4, 1.0), KAPPA)
        errs = [abs(r / report["reference"] - 1.0) for r in report["ratios"]]
        assert errs[-1] <= 1e-4
        assert errs[1] >= 5.0 * errs[-1]


def test_general_collapse_rejects_malformed_vectors():
    space = TensorSpace((2, 2, 2))
    mixed_outer = TensorVector.basis(space, (0, 0, 0)) + TensorVector.basis(
        space, (0, 1, 1)
    ).scale(QScalar.q_power(1))
    with pytest.raises(ValueError, match="summand of the block"):
        asymptotics_check(mixed_outer, 1, 2, 1, (0.0, 1.0), KAPPA)
    pair_space = TensorSpace((2, 2))
    not_ladder = TensorVector.basis(pair_space, (0, 0)) + TensorVector.basis(
        pair_space, (1, 1)
    )
    with pytest.raises(ValueError, match="summand of the block"):
        asymptotics_check(not_ladder, 1, 2, 2, (0.0, 1.0), KAPPA)
    with pytest.raises(ValueError, match="ratios"):
        asymptotics_check(hwv_pair(2, 2, 1), 1, 2, 1, (0.0, 0.5), KAPPA)
    with pytest.raises(ValueError, match="out of range"):
        asymptotics_check(hwv_pair(2, 2, 1), 2, 3, 1, (0.0, 1.0), KAPPA)


# -- the point at infinity -------------------------------------------------


def test_infinity_limit_two_point_both_sides(monkeypatch):
    calls = []
    counted = lambda *args: calls.append(args) or F_hwv(*args)
    monkeypatch.setattr(correspondence, "F_hwv", counted)
    v = hwv_pair(2, 2, 1)
    for side in ("plus", "minus"):
        report = infinity_limit(v, side, 8.0)
        assert report["reference"] == pytest.approx(math.pi, rel=1e-9)
        assert report["relative_error"] <= 1e-9
    # one evaluation at the Moebius image and one of the reference per side
    assert len(calls) == 4


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 2, 2, 2), (3, 2, 2, 3)],
                         ids=["2,2,3", "2,2,2,2", "3,2,2,3"])
def test_infinity_limit_is_exact_on_every_trivial_vector(dims):
    for v in hwv_space_basis(TensorSpace(dims), 1):
        for side in ("plus", "minus"):
            assert infinity_limit(v, side, KAPPA)["relative_error"] <= 1e-9


def test_infinity_limit_rejects_nontrivial_vectors():
    with pytest.raises(ValueError, match="trivial"):
        infinity_limit(hwv_pair(2, 2, 0), "plus", KAPPA)
    with pytest.raises(ValueError, match="side"):
        infinity_limit(hwv_pair(2, 2, 1), "up", KAPPA)
