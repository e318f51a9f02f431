"""Closed forms, reference kernels and q-arithmetic helpers the tests share."""

import math
from fractions import Fraction
from functools import cache
from itertools import product

from qscreen.correspondence import _compositions, _group_prefactor
from qscreen.jet import Jet
from qscreen.qseries import Q_ONE, Q_ZERO, LaurentPoly, QScalar, qmultinom
from qscreen.uqsl2 import TensorVector, act


def is_poly(x) -> bool:
    """Whether the QScalar x is a Laurent polynomial."""
    return x.den.is_one()


def as_poly(x) -> LaurentPoly:
    """The Laurent polynomial the QScalar x equals; ArithmeticError when it
    is a true quotient."""
    if not is_poly(x):
        raise ArithmeticError(f"not a Laurent polynomial: {x!r}")
    return x.num


def stretch(p, m) -> LaurentPoly:
    """The Laurent polynomial p with q -> q^m (exponents multiplied by m)."""
    return LaurentPoly({k * m: v for k, v in p.coeffs.items()})


def selberg_oracle(l, alpha, beta, gamma) -> float:
    """Selberg product formula for the l-dimensional hypercube integral.

    Divide by l! to compare with integrals over the ordered simplex.  Every
    Gamma argument is positive in the convergence region enforced here.
    """
    l = int(l)
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        return 1.0
    if alpha <= 0 or beta <= 0:
        raise ValueError("parameters outside the convergence region")
    if l >= 2:
        if gamma <= -min(1.0 / l, alpha / (l - 1), beta / (l - 1)):
            raise ValueError("parameters outside the convergence region")
    elif gamma <= -1.0:
        raise ValueError("parameters outside the convergence region")
    log_total = 0.0
    for j in range(l):
        for arg in (alpha + j * gamma, beta + j * gamma, 1.0 + (j + 1) * gamma):
            log_total += math.lgamma(arg)
        for arg in (alpha + beta + (l + j - 1) * gamma, 1.0 + gamma):
            log_total -= math.lgamma(arg)
    return math.exp(log_total)


def delta_scaling(l, dims, kappa) -> float:
    """Homogeneity degree of the screened integrals under scaling."""
    dims = tuple(int(d) for d in dims)
    cross = sum(
        (dims[i] - 1) * (dims[j] - 1)
        for i in range(len(dims))
        for j in range(i + 1, len(dims))
    )
    stot = sum(d - 1 for d in dims)
    return (2.0 * cross - 4.0 * l * stot + 4.0 * l * (l - 1)) / kappa + l


def gauss_jordan(rows, ncols):
    """Reduced row echelon form of a matrix of QScalars over its first
    ncols columns: (the nonzero rows, their pivot columns).  The reference
    keeps its own elimination, so it does not share the library's."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                f = row[c]
                rows[i] = [x if y.is_zero() else x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def hwv_basis_by_elimination(space, d):
    """Highest weight basis of weight q^(d-1) as the kernel of the E-matrix
    on the K-eigenspace, by exact Gaussian elimination, echelon-normalized
    against ascending multi-index order."""
    total = sum(dd - 1 for dd in space.dims)
    twice_s = total - (d - 1)
    if twice_s < 0 or twice_s % 2:
        return []
    s = twice_s // 2
    indices = list(product(*map(range, space.dims)))
    col_idx = sorted(i for i in indices if sum(i) == s)
    if not col_idx:
        return []
    row_idx = sorted(i for i in indices if sum(i) == s - 1)
    row_pos = {i: r for r, i in enumerate(row_idx)}
    # rows are target indices, columns the weight-space basis
    emat = [[Q_ZERO] * len(col_idx) for _ in row_idx]
    for c, idx in enumerate(col_idx):
        img = act("E", TensorVector.basis(space, idx))
        for tgt, val in img.coeffs.items():
            emat[row_pos[tgt]][c] = val
    # with no rows the echelon form is empty and every column is free
    reduced, pivots = gauss_jordan(emat, len(col_idx))
    pivset = set(pivots)
    kernel = []
    for free in range(len(col_idx)):
        if free in pivset:
            continue
        vec = [Q_ZERO] * len(col_idx)
        vec[free] = Q_ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        kernel.append(vec)
    if not kernel:
        return []
    canon, _ = gauss_jordan(kernel, len(col_idx))
    return [TensorVector(space, {col_idx[i]: val for i, val in enumerate(row)
                                 if not val.is_zero()})
            for row in canon]


def reduction_entries_by_enumeration(dims, counts):
    """Triangular-array sum over loop reassignments, one slot assignment
    at a time.

    Group i distributes its counts[i] loops over slots 1..i; slot j
    collects the loops of all groups at or beyond it.  Each reassignment
    carries a q-multinomial and integer q-powers for the crossings it
    introduces.
    """
    n = len(dims)
    pref = Q_ONE
    for d, l in zip(dims, counts):
        pref = pref * _group_prefactor(d, l)
    if pref.is_zero():
        return {}
    entries = {}
    slot_choices = [_compositions(counts[i], i + 1) for i in range(n)]
    for arrays in product(*slot_choices):
        mult = Q_ONE
        expo = 0
        for gi, parts in enumerate(arrays):
            mult = mult * qmultinom(counts[gi], parts)
            s = sum(parts)
            expo -= (s * s - sum(p * p for p in parts)) // 2
        for i in range(n):
            ki = arrays[i]
            for ip in range(i + 1, n):
                kip = arrays[ip]
                # later-group loops parked strictly left of earlier ones
                expo -= 2 * sum(ki[j] * sum(kip[:j]) for j in range(1, len(ki)))
                expo += (dims[i] - 1) * sum(kip[: i + 1])
        m = tuple(sum(arrays[i][j] for i in range(j, n)) for j in range(n))
        entries[m] = entries.get(m, Q_ZERO) + mult * QScalar.q_power(expo)
    out = {}
    for m, coeff in entries.items():
        val = pref * coeff
        if not val.is_zero():
            out[m] = val
    return out


def _gamma(x) -> float:
    """Gamma through math.lgamma, with its sign on the negative axis."""
    if x <= 0 and x == int(x):
        raise ValueError("Gamma has a pole at non-positive integers")
    sign = -1.0 if x < 0 and math.ceil(-x) % 2 else 1.0
    return sign * math.exp(math.lgamma(x))


def hyp2f1(a, b, c, z) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real 0 <= z < 1.

    The power series sums directly for z <= 1/2.  Above that, the
    z <-> 1 - z connection formula (Abramowitz-Stegun 15.3.6) maps it to
    two series in 1 - z; it needs c - a - b away from the integers.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError("z must lie in [0, 1)")
    if z > 0.5:
        s = c - a - b
        if s == round(s):
            raise ValueError("c - a - b is an integer: the connection is degenerate")
        w = 1.0 - z
        first = _gamma(c) * _gamma(s) / (_gamma(c - a) * _gamma(c - b))
        second = _gamma(c) * _gamma(-s) / (_gamma(a) * _gamma(b))
        return (first * hyp2f1(a, b, 1.0 - s, w)
                + second * w**s * hyp2f1(c - a, c - b, 1.0 + s, w))
    term, total, k = 1.0, 1.0, 0
    while abs(term) > 1e-17 * abs(total):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
        if k > 10_000:
            raise ArithmeticError("2F1 series did not converge")
    return total


# -- the finite-difference reference of the operator checks ----------------
#
# Central differences of a plain function on a lattice of points,
# extrapolated over two strides, give the Taylor coefficients an operator
# check reads.  The step h is relative: the stencil spacing is h times the
# smallest gap between consecutive coordinates.  Stencils are of order
# _STENCIL_ORDER and extrapolated over _RICHARDSON_LEVELS strides.

_STENCIL_ORDER = 4
_RICHARDSON_LEVELS = 2

_FIRST = {-2: Fraction(1, 12), -1: Fraction(-2, 3), 1: Fraction(2, 3), 2: Fraction(-1, 12)}
_SECOND = {-2: Fraction(-1, 12), -1: Fraction(4, 3), 0: Fraction(-5, 2),
           1: Fraction(4, 3), 2: Fraction(-1, 12)}


@cache
def _stencil(k):
    """Offsets and weights of a central difference for the k-th derivative
    with error O(h^4): the second-derivative stencil k // 2 times and the
    first-derivative one k % 2 times, composed."""
    weights = {0: Fraction(1)}
    for factor in [_SECOND] * (k // 2) + [_FIRST] * (k % 2):
        out = {}
        for a, wa in weights.items():
            for b, wb in factor.items():
                out[a + b] = out.get(a + b, 0) + wa * wb
        weights = out
    return tuple((o, float(w)) for o, w in sorted(weights.items()) if w)


def _difference(g, alpha, stride, step):
    # the tensor product of the one-dimensional stencils, as a Taylor
    # coefficient
    points = {(0,) * len(alpha): 1.0}
    for i, k in enumerate(alpha):
        if k:
            moved = {}
            for key, w in points.items():
                for o, wo in _stencil(k):
                    at = key[:i] + (key[i] + o * stride,) + key[i + 1:]
                    moved[at] = moved.get(at, 0.0) + w * wo
            points = moved
    total = sum(w * g(key) for key, w in points.items())
    return total / (step ** sum(alpha) * math.prod(math.factorial(k) for k in alpha))


def _richardson(values):
    # values listed coarse to fine; stencil error expands in even powers
    table = list(values)
    order = _STENCIL_ORDER
    while len(table) > 1:
        factor = 2**order
        table = [
            (factor * fine - coarse) / (factor - 1)
            for coarse, fine in zip(table, table[1:])
        ]
        order += 2
    return table[0]


def _steps(h, x, total_order):
    gap = min((b - a for a, b in zip(x, x[1:])), default=1.0)
    h_abs = h * gap
    # the difference of a multi-index moves point i by up to
    # 2 ceil(alpha_i / 2) <= 2 alpha_i coarse steps, so two neighbours close
    # in by at most 2 * total_order of them, and they must not meet or cross
    if not gap > 2 * total_order * h_abs:
        raise ValueError(
            f"clearance {gap:g} is not above 2*{total_order} stencil steps of {h_abs:g}"
        )
    levels = _RICHARDSON_LEVELS
    h_fine = h_abs / 2 ** (levels - 1)
    strides = tuple(2 ** (levels - 1 - t) for t in range(levels))
    return h_fine, strides


def _fd_jet(f, x, reads, total_order, h, value):
    """The Taylor coefficients `reads` of the plain function f, from
    central differences on a lattice of step h_fine whose origin holds
    value, extrapolated over the strides."""
    h_fine, strides = _steps(h, x, total_order)
    memo = {(0,) * len(x): value}

    def g(k):
        got = memo.get(k)
        if got is None:
            got = memo[k] = f(tuple(xi + h_fine * ki for xi, ki in zip(x, k)))
        return got

    coeffs = {}
    for alpha in reads:
        if any(alpha):
            coeffs[alpha] = _richardson([_difference(g, alpha, s, h_fine * s) for s in strides])
        else:
            coeffs[alpha] = value
    return Jet(tuple(coeffs), coeffs, dict.fromkeys(coeffs, 0.0))


def fd_jets(f, h=1e-3):
    """Jet evaluator for the plain function f of a point tuple: called at a
    JetPoint, it returns the jet over the point's index set from finite
    differences of f with relative step h, with zero error estimates."""
    if not h > 0:
        raise ValueError("step must be positive")

    def ev(point):
        x = tuple(point)
        return _fd_jet(f, x, point.index, sum(point.index[-1]), h, f(x))

    return ev
