"""Independent oracles for the benchmark's correctness checks.

Everything here is coded from closed forms, apart from `contour_phi`,
which calls the package's loop-integral oracle (a code path that shares
nothing with the reduction tables it checks) and is itself tested
against a closed form.  Each oracle has a self-test on known values;
`self_test` runs them all and returns the names of those that failed.
"""

import cmath
import math


def h_weight(d, kappa):
    """Boundary conformal weight h_{1,d} = (d-1)(2(d+1)-kappa)/(2 kappa)."""
    return (d - 1) * (2.0 * (d + 1) - kappa) / (2.0 * kappa)


def selberg(n, alpha, beta, gamma):
    """Selberg integral over [0,1]^n of
    prod t_i^(alpha-1) (1-t_i)^(beta-1) prod_{i<j} |t_i-t_j|^(2 gamma)
    (Forrester-Warnaar, "The importance of the Selberg integral", 2008)."""
    total = 0.0
    for j in range(n):
        plus = (alpha + j * gamma, beta + j * gamma, 1.0 + (j + 1) * gamma)
        minus = (alpha + beta + (n + j - 1) * gamma, 1.0 + gamma)
        if min(plus + minus) <= 0.0:
            raise ValueError("Selberg parameters outside the convergent region")
        total += sum(math.lgamma(a) for a in plus) - sum(math.lgamma(a) for a in minus)
    return math.exp(total)


def _pair_power(d1, d2, m, kappa, x1, x2):
    d = d1 + d2 - 1 - 2 * m
    return (x2 - x1) ** (h_weight(d, kappa) - h_weight(d1, kappa) - h_weight(d2, kappa))


def hwv_pair_value(d1, d2, m, kappa, x1, x2):
    """F[hwv_pair(d1, d2, m)] at x1 < x2: Selberg_m(1-b1, 1-b2, 4/kappa)/m!
    times the power law fixed by the conformal weights, b_i = 4(d_i-1)/kappa."""
    b1, b2 = 4.0 * (d1 - 1) / kappa, 4.0 * (d2 - 1) / kappa
    s = selberg(m, 1.0 - b1, 1.0 - b2, 4.0 / kappa) / math.factorial(m)
    return s * _pair_power(d1, d2, m, kappa, x1, x2)


def gamma_ratio_value(d1, d2, kappa, x1, x2):
    """The m = 1 case as a Beta function Gamma(a)Gamma(b)/Gamma(a+b)."""
    a, b = 1.0 - 4.0 * (d1 - 1) / kappa, 1.0 - 4.0 * (d2 - 1) / kappa
    beta_fn = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return beta_fn * _pair_power(d1, d2, 1, kappa, x1, x2)


def pi_value(x1, x2):
    """F[hwv_pair(2, 2, 1)] at kappa = 8 is b(1,2,2,8) (x2-x1)^(1/4) = pi (x2-x1)^(1/4)."""
    return math.pi * (x2 - x1) ** 0.25


def one_loop_phi(d, kappa, x0, x1):
    """phi for one point of dimension d with one screening loop from the
    anchor x0: (q^(d-1) - q^(1-d)) (x1-x0)^(1-b)/(1-b), q = exp(4 pi i/kappa)."""
    q = cmath.exp(4j * math.pi / kappa)
    b = 4.0 * (d - 1) / kappa
    return (q ** (d - 1) - q ** (1 - d)) * (x1 - x0) ** (1.0 - b) / (1.0 - b)


def contour_phi(x0, xs, dims, l, kappa):
    """phi from explicitly constructed nested loops (at most two), with the
    branch continued along each loop.  Converges to 5e-8 relative."""
    from qscreen.coulomb import ChamberPoint, contour_phi_oracle

    return contour_phi_oracle(ChamberPoint(x0, tuple(xs)), tuple(dims), tuple(l), kappa)


CONTOUR_RTOL = 5e-8


def cg_multiplicity(dims, d):
    """How often the d-dimensional irreducible appears in the tensor product
    of the given dimensions, by the Clebsch-Gordan rule
    M_a (x) M_b = M_{|a-b|+1} + M_{|a-b|+3} + ... + M_{a+b-1}."""
    mult = {1: 1}
    for a in dims:
        nxt = {}
        for b, count in mult.items():
            for c in range(abs(a - b) + 1, a + b, 2):
                nxt[c] = nxt.get(c, 0) + count
        mult = nxt
    return mult.get(d, 0)


def weight_ok(dims, d, idx):
    """A basis index carries the K eigenvalue q^(d-1) of the summand."""
    return sum(di - 1 - 2 * li for di, li in zip(dims, idx)) == d - 1


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


def self_test():
    """Check every oracle on known values; returns the failing names."""
    failed = []
    # S_2(1,1,1) = int int (x-y)^2 = 1/6; gamma = 0 factorises into Betas
    if not _close(selberg(2, 1.0, 1.0, 1.0), 1.0 / 6.0, 1e-13):
        failed.append("selberg.known_value")
    beta = math.gamma(0.7) * math.gamma(1.3) / math.gamma(2.0)
    if not _close(selberg(3, 0.7, 1.3, 0.0), beta ** 3, 1e-13):
        failed.append("selberg.product_of_betas")
    if not _close(selberg(1, 0.5, 0.5, 0.3), math.pi, 1e-13):
        failed.append("selberg.pi")
    if not _close(gamma_ratio_value(2, 3, 8.9, 0.0, 1.7),
                  hwv_pair_value(2, 3, 1, 8.9, 0.0, 1.7), 1e-12):
        failed.append("gamma_ratio.matches_selberg")
    if not _close(hwv_pair_value(2, 2, 1, 8.0, 0.0, 1.0), math.pi, 1e-13):
        failed.append("pi.b_1228")
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(1, 7)]
    if [cg_multiplicity((2,) * (2 * n), 1) for n in range(1, 7)] != catalan:
        failed.append("cg.catalan")
    if (cg_multiplicity((3, 3, 3, 3), 1), cg_multiplicity((2,) * 7, 2)) != (3, 14):
        failed.append("cg.known_counts")
    for d, kappa, x0, x1 in ((2, 10.0, 0.0, 1.0), (3, 9.3, -0.5, 1.2)):
        got = contour_phi(x0, (x1,), (d,), (1,), kappa)
        if not _close(got, one_loop_phi(d, kappa, x0, x1), CONTOUR_RTOL):
            failed.append("contour.one_loop")
    return failed
