"""Acceptance checks: one test per headline requirement of the package.

Each test is self-contained, states its tolerance inline, and prints the
measured margin so a verbose run doubles as a numeric report.  Where a
requirement carries a runtime budget the elapsed time is asserted too.
"""

import itertools
import math
import time

from closed_forms import as_poly, is_poly, selberg_oracle, stretch

from qscreen.coulomb import (
    ChamberPoint,
    b_const,
    contour_phi_oracle,
    h_weight,
    rho,
)
from qscreen.correspondence import (
    F_anchor,
    F_hwv,
    asymptotics_check,
    infinity_limit,
    phi,
)
from qscreen.pde import (
    apply_bsa,
    build_bsa,
    euler_check,
    mobius_check,
    sle_proportionality_check,
    special_conformal_identity_check,
    translation_check,
    vertex_prefactor,
)
from qscreen.qseries import LaurentPoly, QScalar, qbinom, qfact, qint
from qscreen.uqsl2 import (
    TensorSpace,
    TensorVector,
    act,
    cyclic_constant,
    hwv_pair,
    hwv_space_basis,
    project,
)

Q = LaurentPoly.q_power

KAPPA = 10.0
QUARTET = TensorSpace((2, 2, 2, 2))


def test_01_q_identities_exact():
    start = time.perf_counter()

    # product of two q-integers as a two-sided geometric sum
    den = Q(1) + Q(-1, -1)
    for d in range(2, 8):
        for l in range(1, d):
            num = LaurentPoly()
            for u in range(l):
                num = num + Q(d - 1 - 2 * u) + Q(-(d - 1 - 2 * u), -1)
            assert qint(l) * qint(d - l) == QScalar(num, den), (d, l)

    # inversion statistic over all permutations
    for n in range(1, 7):
        lhs = LaurentPoly()
        for sigma in itertools.permutations(range(n)):
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if sigma[i] > sigma[j]
            )
            lhs = lhs + Q(-2 * inv)
        rhs = qfact(n) * QScalar.q_power(-(n * (n - 1)) // 2)
        assert QScalar.from_poly(lhs) == rhs, n

    # subset statistic over all increasing tuples
    for n in range(1, 7):
        for k in range(n + 1):
            lhs = LaurentPoly()
            for rs in itertools.combinations(range(1, n + 1), k):
                s = sum(r - j for j, r in enumerate(rs, start=1))
                lhs = lhs + Q(-2 * s)
            assert QScalar.from_poly(lhs) == QScalar.q_power(-k * (n - k)) * qbinom(
                n, k
            ), (n, k)

    # alternating binomial sum factorizes; square-root variable u, q = u^2
    for n in range(7):
        for beta in range(-6, 7):
            lhs = QScalar.from_int(0)
            for m in range(n + 1):
                lhs = lhs + qbinom(n, m) * QScalar.q_power(m * beta, (-1) ** m)
            lhs_u = stretch(as_poly(lhs), 2)
            rhs_u = LaurentPoly.q_power(n * beta)
            for s in range(n):
                e = n - 1 - beta - 2 * s
                rhs_u = rhs_u * (Q(e) + Q(-e, -1))
            assert lhs_u == rhs_u, (n, beta)

    # binomials stay polynomial: denominators cancel completely
    for n in range(13):
        for k in range(n + 1):
            assert is_poly(qbinom(n, k)), (n, k)

    elapsed = time.perf_counter() - start
    print(f"q-identities exact, {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0


def test_02_clebsch_gordan_exact():
    start = time.perf_counter()
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            summands = [d1 + d2 - 1 - 2 * m for m in range(min(d1, d2))]
            assert sum(summands) == d1 * d2, (d1, d2)
            for m, d in enumerate(summands):
                tau0 = hwv_pair(d1, d2, m)
                assert act("E", tau0).is_zero(), (d1, d2, m)
                assert act("K", tau0) == tau0.scale(QScalar.q_power(d - 1)), (
                    d1,
                    d2,
                    m,
                )
            # the projections onto the summands resolve the identity
            space = TensorSpace((d1, d2))
            for i1 in range(d1):
                for i2 in range(d2):
                    v = TensorVector.basis(space, (i1, i2))
                    total = TensorVector(space)
                    for d in summands:
                        total = total + project(v, 1, d)[0]
                    assert total == v, (d1, d2, i1, i2)
    elapsed = time.perf_counter() - start
    print(f"Clebsch-Gordan exact over d1,d2 <= 5, {elapsed:.2f}s (budget 10s)")
    assert elapsed < 10.0


def test_03_trivial_subrepresentation_dimensions():
    start = time.perf_counter()
    found = []
    for count, expected in ((2, 1), (4, 2), (6, 5)):
        basis = hwv_space_basis(TensorSpace((2,) * count), 1)
        found.append(len(basis))
        assert len(basis) == expected, count
    elapsed = time.perf_counter() - start
    print(f"trivial subrep dims {found} == [1, 2, 5], {elapsed:.2f}s (budget 30s)")
    assert elapsed < 30.0


def test_04_simplex_quadrature_matches_selberg():
    start = time.perf_counter()
    c = ChamberPoint(0.0, (1.0,))
    beta = 1.0 - 4.0 / KAPPA
    gamma = 4.0 / KAPPA
    worst = 0.0
    for ell, tol in ((1, 1e-6), (2, 1e-6), (3, 1e-5)):
        ref = selberg_oracle(ell, 1.0, beta, gamma) / math.factorial(ell)
        val = rho(c, (2,), (ell,), KAPPA)
        rel = abs(val - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= tol, (ell, rel)
    elapsed = time.perf_counter() - start
    print(f"three-fold simplex vs product formula, worst rel {worst:.2e},"
          f" {elapsed:.2f}s (budget 60s)")
    assert elapsed < 60.0


def test_05_pairing_constants():
    pi_rel = abs(b_const(1, 2, 2, 8.0) - math.pi) / math.pi
    assert pi_rel <= 1e-10

    worst = 0.0
    for kappa in (8.0, 10.0, 16.0):
        for d1, d2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
            if kappa <= 4.0 * (max(d1, d2) - 1):
                continue  # outside the convergent domain of the constant
            b1 = 4.0 * (d1 - 1) / kappa
            b2 = 4.0 * (d2 - 1) / kappa
            ref = (
                math.gamma(1.0 - b1)
                * math.gamma(1.0 - b2)
                / math.gamma(2.0 - b1 - b2)
            )
            val = b_const(d1 + d2 - 3, d1, d2, kappa)
            rel = abs(val - ref) / abs(ref)
            worst = max(worst, rel)
            assert rel <= 1e-10, (kappa, d1, d2, rel)
    print(f"beta value rel {pi_rel:.2e}, gamma ratios worst rel {worst:.2e}")


def test_06_reduction_matches_contour_oracle():
    c1 = ChamberPoint(-0.6, (0.5,))
    c2 = ChamberPoint(-0.7, (0.0, 1.1))
    cases = []
    for dims in itertools.product((1, 2, 3), repeat=1):
        cases.extend((c1, dims, l) for l in itertools.product(range(3), repeat=1)
                     if sum(l) <= 2)
    for dims in itertools.product((1, 2, 3), repeat=2):
        cases.extend((c2, dims, l) for l in itertools.product(range(3), repeat=2)
                     if sum(l) <= 2)
    worst = 0.0
    checked = vanished = 0
    for c, dims, l in cases:
        if any(li >= di for li, di in zip(l, dims)):
            assert phi(c, dims, l, KAPPA) == 0, (dims, l)
            vanished += 1
            continue
        got = phi(c, dims, l, KAPPA)
        want = contour_phi_oracle(c, dims, l, KAPPA)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-6, (dims, l, rel)
        checked += 1
    print(f"reduction vs contour oracle: {checked} cases worst rel {worst:.2e},"
          f" {vanished} exact zeros")


def test_07_two_point_closed_form():
    v = hwv_pair(2, 2, 1)
    worst = 0.0
    for kappa in (8.0, 10.0):
        constant = b_const(1, 2, 2, kappa)
        expo = 1.0 - 6.0 / kappa
        for x in ((0.0, 1.0), (1.0, 3.0)):
            val = F_hwv(v, x, kappa)
            ref = constant * (x[1] - x[0]) ** expo
            rel = abs(val - ref) / abs(ref)
            worst = max(worst, rel)
            assert rel <= 1e-8, (kappa, x, rel)
    # no weight of v puts a variable left of x_1, so the anchor drops out
    # exactly: F_anchor gives F_hwv's bits at every anchor
    x = (1.0, 3.0)
    for x0 in (x[0] - 1.0, x[0] - 7.5):
        assert F_anchor(v, ChamberPoint(x0, x), KAPPA) == F_hwv(v, x, KAPPA)
    print(f"two-point closed form worst rel {worst:.2e}, F_anchor bit-equal at two anchors")


def test_08_pde_residuals():
    x = (0.0, 1.0, 2.0, 4.0)
    worst = 0.0
    for v in hwv_space_basis(QUARTET, 1):
        ev = lambda y: F_hwv(v, y, KAPPA)
        for j in (1, 2, 3, 4):
            residual, scale = apply_bsa(build_bsa(j, QUARTET.dims, KAPPA), ev, x)
            rel = abs(residual) / scale
            worst = max(worst, rel)
            assert rel <= 1e-4, (j, rel)

    cross = max(sle_proportionality_check(x, KAPPA, j) for j in (1, 2, 3, 4))
    assert cross <= 1e-11

    # the product of pair powers is a null function of every operator
    points = (0.0, 1.0, 2.5, 3.6)
    null_worst = 0.0
    for dims in ((2, 2), (3, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3)):
        f = vertex_prefactor(dims, KAPPA)
        pts = points[: len(dims)]
        for j in range(1, len(dims) + 1):
            residual, scale = apply_bsa(build_bsa(j, dims, KAPPA), f, pts)
            rel = abs(residual) / scale
            null_worst = max(null_worst, rel)
            assert rel <= 1e-12, (dims, j, rel)
    print(f"operator residuals worst {worst:.2e}, growth-process identity"
          f" {cross:.2e}, vertex null worst {null_worst:.2e}")


def test_09_mobius_covariance():
    b0, b1 = hwv_space_basis(QUARTET, 1)
    v = b0 + b1
    x = (-1.5, -0.5, 0.5, 1.5)
    shift = mobius_check(v, (1.0, 3.0, 0.0, 1.0), x, KAPPA)["deviation"]
    stretch = mobius_check(v, (1.7, 0.0, 0.0, 1.0), x, KAPPA)["deviation"]
    assert shift <= 1e-8
    assert stretch <= 1e-8
    special = mobius_check(v, (1.0, 0.0, 0.05, 1.0), x, KAPPA)["deviation"]
    assert special <= 1e-6

    ev = lambda y: F_hwv(v, y, KAPPA)
    pts = (0.0, 1.0, 2.0, 4.0)
    residual, scale = translation_check(ev, pts)
    flat = abs(residual) / scale
    assert flat <= 1e-8
    residual, scale = euler_check(ev, pts, -4.0 * h_weight(2, KAPPA))
    euler = abs(residual) / scale
    assert euler <= 1e-8
    print(f"translation {shift:.2e}, scaling {stretch:.2e}, special conformal"
          f" {special:.2e}, generators {max(flat, euler):.2e}")


def test_10_collapse_asymptotics():
    lower = asymptotics_check(hwv_pair(2, 2, 1), 1, 2, 1, (0.0, 1.0), KAPPA)
    gap = abs(lower["exponent"] - (KAPPA - 6.0) / KAPPA)
    assert gap <= 1e-8
    drift = abs(lower["ratios"][1] / lower["reference"] - 1.0)
    assert drift <= 1e-8

    upper = asymptotics_check(TensorVector.basis(TensorSpace((2, 2)), (0, 0)),
                              1, 2, 3, (0.0, 1.0), KAPPA)
    gap3 = abs(upper["exponent"] - 2.0 / KAPPA)
    assert gap3 <= 1e-8
    drift3 = abs(upper["ratios"][1] / upper["reference"] - 1.0)
    assert drift3 <= 1e-8

    tau = hwv_space_basis(TensorSpace((2, 2, 2)), 2)[0]
    triple = asymptotics_check(tau, 1, 3, 2, (0.0, 0.4, 1.0), KAPPA)
    drift_triple = abs(triple["ratios"][1] / triple["reference"] - 1.0)
    assert drift_triple <= 1e-8
    print(f"fusion exponents off by {gap:.2e} and {gap3:.2e}, constants off by"
          f" {drift:.2e} / {drift3:.2e}, three-point {drift_triple:.2e}")


def test_11_point_at_infinity():
    worst = 0.0
    cases = [(hwv_pair(2, 2, 1), 8.0)] + [(v4, KAPPA) for v4 in hwv_space_basis(QUARTET, 1)]
    for v, kappa in cases:
        for side in ("plus", "minus"):
            err = infinity_limit(v, side, kappa)["relative_error"]
            worst = max(worst, err)
            assert err <= 1e-9, (v.space.dims, side, err)
    print(f"point at infinity worst rel {worst:.2e}")


def test_12_cyclic_permutation_scalar():
    # cyclic_constant itself raises unless the composition is an exact
    # scalar multiple of the identity on every basis vector
    pair = cyclic_constant(TensorSpace((2, 2)))
    assert pair == QScalar.q_power(-2)
    quartet = cyclic_constant(QUARTET)
    assert quartet == QScalar.q_power(-4)
    print("cyclic scalars q^-2 and q^-4 confirmed symbolically")


def test_13_special_conformal_rational_identity():
    worst = 0.0
    for dims in ((2, 2), (3, 3)):
        measured = special_conformal_identity_check(dims)
        worst = max(worst, measured)
        assert measured <= 1e-9, (dims, measured)
    print(f"rational identity worst rel {worst:.2e} over 100 seeded points")
