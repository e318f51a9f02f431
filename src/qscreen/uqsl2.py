"""Exact representation theory of the quantum group U_q(sl2).

Tensor products of the d-dimensional irreducibles M_d are handled with
sparse vectors whose coefficients are exact rational functions of q.  The
storage order of a multi-index (l_1, ..., l_n) follows the variable order:
index i belongs to the point x_i, and the printed tensor runs right to
left, e_{l_n} (x) ... (x) e_{l_1}.

Highest weight bases are built by fusion recursion: the vectors on n
factors come from those on the first n-1 factors fused with M_{d_n}
through the two-point Clebsch-Gordan vectors.  Their coefficients stay
Laurent polynomials, held as plain exponent maps {idx: {e: c}} that F
acts on directly, until one final echelon normalization, which wraps
each entry in a QScalar once.  Its forward pass only permutes the fusion
vectors, whose leading columns differ, and its back substitution keeps
them over denominator 1, where QScalar's difference and quotient skip
the general formulas, and divides each row by its pivot exactly, with no
polynomial gcd on these bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .qseries import LaurentPoly, QScalar, Q_ONE, Q_ZERO, qbinom, qfact, qint, shared_denominator

Q_COMM = QScalar.from_poly(LaurentPoly({1: 1, -1: -1}))  # q - 1/q


@dataclass(frozen=True)
class TensorSpace:
    """Tensor product of irreducibles, dims[i-1] = d_i for position i."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise ValueError(f"bad tensor space dims {self.dims}")

    @property
    def n(self) -> int:
        return len(self.dims)

    def contains_index(self, idx) -> bool:
        return (len(idx) == self.n
                and all(0 <= l < d for l, d in zip(idx, self.dims)))


class TensorVector:
    """Sparse vector in a TensorSpace with QScalar coefficients."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: TensorSpace, coeffs: dict | None = None):
        self.space = space
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if not space.contains_index(idx):
                raise ValueError(f"index {idx} outside space {space.dims}")
            if not c.is_zero():
                clean[idx] = c
        self.coeffs = clean

    @classmethod
    def basis(cls, space: TensorSpace, idx) -> "TensorVector":
        return cls(space, {tuple(idx): Q_ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if self.space != other.space:
            raise ValueError("tensor vectors live in different spaces")
        c = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            c[idx] = c.get(idx, Q_ZERO) + v
        return TensorVector(self.space, c)

    def __neg__(self) -> "TensorVector":
        return TensorVector(self.space,
                            {i: -v for i, v in self.coeffs.items()})

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def scale(self, a: QScalar) -> "TensorVector":
        return TensorVector(self.space,
                            {i: a * v for i, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TensorVector)
                and self.space == other.space and self.coeffs == other.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            basis = "⊗".join(f"e_{l}" for l in reversed(idx))
            parts.append(f"({self.coeffs[idx]!r}) * {basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<TensorVector {self.space.dims}: {self}>"


def act(gen: str, v: TensorVector) -> TensorVector:
    """Action of a generator E, F, K or Kinv through the iterated coproduct.

    E carries K's on the factors right of it in printed order (lower
    positions), F carries Kinv's on the factors left of it (higher
    positions).  Factor b of an index has K-weight d_b - 1 - 2 l_b, and
    one pass over the factors builds the K exponent that each position
    carries: the running sum of the weights below it for E, the total
    less the running sum up to it for F.
    """
    dims = v.space.dims
    n = len(dims)
    out: dict[tuple, QScalar] = {}

    def accumulate(idx, c):
        if not c.is_zero():
            out[idx] = out.get(idx, Q_ZERO) + c

    if gen in ("K", "Kinv"):
        sgn = 1 if gen == "K" else -1
        for idx, c in v.coeffs.items():
            e = sgn * sum(dims[i] - 1 - 2 * idx[i] for i in range(n))
            accumulate(idx, QScalar.q_power(e) * c)
    elif gen == "E":
        for idx, c in v.coeffs.items():
            kexp = 0
            for a in range(n):
                la = idx[a]
                if la:
                    factor = qint(la) * qint(dims[a] - la) * QScalar.q_power(kexp)
                    new = idx[:a] + (la - 1,) + idx[a + 1:]
                    accumulate(new, factor * c)
                kexp += dims[a] - 1 - 2 * la
    elif gen == "F":
        for idx, c in v.coeffs.items():
            kexp = -sum(dims[b] - 1 - 2 * idx[b] for b in range(n))
            for a in range(n):
                la = idx[a]
                kexp += dims[a] - 1 - 2 * la
                if la != dims[a] - 1:
                    new = idx[:a] + (la + 1,) + idx[a + 1:]
                    accumulate(new, QScalar.q_power(kexp) * c)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return TensorVector(v.space, out)


def is_hwv(v: TensorVector, d: int | None) -> bool:
    """Exact check that v is annihilated by E and, unless d is None, has
    K-eigenvalue q^(d-1).  The answer is cached per (dims, coefficients,
    d), so a repeated check of one vector costs a lookup."""
    return _hwv_test(v.space.dims, frozenset(v.coeffs.items()), d)


@lru_cache(maxsize=1024)
def _hwv_test(dims, coeffs, d):
    # E and K act linearly, so on the numerators over a shared denominator
    # (shared_denominator) alike
    v = TensorVector(TensorSpace(dims), shared_denominator(coeffs)[0])
    if not act("E", v).is_zero():
        return False
    return d is None or act("K", v) == v.scale(QScalar.q_power(d - 1))


def _pair_weights(d1: int, d2: int, m: int) -> dict:
    """Laurent-polynomial coefficients of hwv_pair(d1, d2, m) times
    [m]! [d1-1]! [d2-1]! (q - 1/q)^m, keyed by pair index."""
    out = {}
    for l1 in range(max(0, m - (d2 - 1)), min(m, d1 - 1) + 1):
        l2 = m - l1
        out[(l1, l2)] = (qbinom(m, l1) * qfact(d1 - 1 - l1) * qfact(d2 - 1 - l2)
                         * QScalar.q_power(l1 * (d1 - l1), (-1) ** l1))
    return out


def hwv_pair(d1: int, d2: int, m: int) -> TensorVector:
    """Highest weight vector generating the d = d1+d2-1-2m summand of the
    two-point tensor product.

    Its (l1, l2) coefficient, _pair_weights' over [m]! [d1-1]! [d2-1]!
    (q - 1/q)^m, is (-1)^l1 q^(l1 (d1-l1)) over (q - 1/q)^m and the
    q-integers [1..l1], [1..l2], [d1-l1..d1-1] and [d2-l2..d2-1].  With
    t = q^2, [k] = q^(1-k) (1 + t + ... + t^(k-1)) and q - 1/q =
    -q^-1 (1 - t), so the coefficient is built in canonical form with no
    gcd: a signed monomial over the product of those polynomials in t,
    whose constant term is 1.
    """
    if not 0 <= m <= min(d1, d2) - 1:
        raise ValueError(f"no summand with m={m} in dims ({d1},{d2})")
    coeffs = {}
    for l1 in range(max(0, m - (d2 - 1)), min(m, d1 - 1) + 1):
        l2 = m - l1
        ks = [*range(2, l1 + 1), *range(2, l2 + 1),
              *range(max(2, d1 - l1), d1), *range(max(2, d2 - l2), d2)]
        den = [1]  # coefficients of 1, t, t^2, ...
        for k in ks:
            # times 1 - t^k, then summed as a series: times 1 + ... + t^(k-1)
            den = list(accumulate(a - b for a, b in zip(den + [0] * k, [0] * k + den)))[:-1]
        for _ in range(m):
            den = [a - b for a, b in zip(den + [0], [0] + den)]
        num = {l1 * (d1 - l1) + sum(ks) - len(ks) + m: (-1) ** (l1 + m)}
        coeffs[(l1, l2)] = QScalar._canonical(
            LaurentPoly._trusted(num),
            LaurentPoly._trusted({2 * j: c for j, c in enumerate(den) if c}))
    return TensorVector(TensorSpace((d1, d2)), coeffs)


# -- exact linear algebra over QScalar ------------------------------------


def _rref(rows, ncols):
    """Reduced row echelon form over the first ncols columns: (the nonzero
    rows, their pivot columns).

    A forward pass finds the pivots: for each column it brings up the
    first remaining row that is nonzero there and clears the column in
    the rows below it.  Rows with distinct leading columns, such as the
    fusion vectors, are only permuted.  Back substitution then runs from
    the last pivot row up: each row subtracts multiples of the canonical
    rows below it, which clears their pivot columns, and is divided by its
    own pivot.  On Laurent-polynomial rows the products and subtractions
    stay over denominator 1, a subtraction in one pass over the
    numerators, and a division goes straight to the QScalar constructor,
    which divides exactly before it reduces, so only an entry its pivot
    does not divide pays a gcd.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows))
                    if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if not rows[i][c].is_zero():
                f = rows[i][c] / top[c]
                # x - f*0 is x: skipping it spares a gcd on each rational x
                rows[i] = [x if y.is_zero() else x - f * y
                           for x, y in zip(rows[i], top)]
        pivots.append(c)
    rows = rows[:len(pivots)]
    for r in range(len(pivots) - 1, -1, -1):
        row = rows[r]
        for below, c in zip(rows[r + 1:], pivots[r + 1:]):
            f = row[c]
            if not f.is_zero():
                row = [x if y.is_zero() else x - f * y
                       for x, y in zip(row, below)]
        p = row[pivots[r]]
        rows[r] = [x if x.is_zero() else x / p for x in row]
    return rows, pivots


def _invert_matrix(mat):
    """Exact inverse of a square matrix of QScalars: row reduce [A | I]."""
    n = len(mat)
    aug = [list(row) + [Q_ONE if i == j else Q_ZERO for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = _rref(aug, n)
    if pivots != list(range(n)):
        raise ArithmeticError("singular matrix in exact inversion")
    return [row[n:] for row in rows]


@lru_cache(maxsize=None)
def _pair_change_of_basis(d1: int, d2: int):
    """Change of basis data for a two-point tensor product.

    Returns (columns, levels): columns maps a summand key (d, l) to the
    pair-space coefficients of F^l.tau_0; levels maps each total weight
    s to (pair index list, summand key list, inverse transition matrix),
    restricted to that weight since the transition is weight-graded.
    """
    columns: dict[tuple, dict] = {}
    for m in range(min(d1, d2)):
        d = d1 + d2 - 1 - 2 * m
        v = hwv_pair(d1, d2, m)
        for l in range(d):
            columns[(d, l)] = dict(v.coeffs)
            if l < d - 1:
                v = act("F", v)
    levels = {}
    for s in range(d1 + d2 - 1):
        pair_idx = [(a, s - a) for a in range(d1) if 0 <= s - a < d2]
        keys = sorted(k for k in columns
                      if (d1 + d2 - 1 - k[0]) // 2 + k[1] == s)
        mat = [[columns[k].get(pi, Q_ZERO) for k in keys] for pi in pair_idx]
        levels[s] = (pair_idx, keys, _invert_matrix(mat))
    return columns, levels


def project(v: TensorVector, j: int, d: int):
    """Split off the M_d component of the pair (x_j, x_{j+1}).

    Returns (pi_image, hat_image): the projection inside the original
    space, and the same component written in the space where the pair is
    replaced by a single tensorand of dimension d, with F^l.tau_0 mapped
    to e_l.
    """
    dims = v.space.dims
    n = len(dims)
    if not 1 <= j <= n - 1:
        raise ValueError(f"pair position {j} out of range for n={n}")
    d1, d2 = dims[j - 1], dims[j]
    allowed = [d1 + d2 - 1 - 2 * m for m in range(min(d1, d2))]
    if d not in allowed:
        raise ValueError(
            f"d={d} not in the decomposition of the pair ({d1},{d2})")
    columns, levels = _pair_change_of_basis(d1, d2)
    hat_dims = dims[:j - 1] + (d,) + dims[j + 1:]
    hat_space = TensorSpace(hat_dims)
    pi_coeffs: dict[tuple, QScalar] = {}
    hat_coeffs: dict[tuple, QScalar] = {}

    # group coefficients by the context (all positions except j, j+1)
    groups: dict[tuple, dict] = {}
    for idx, c in v.coeffs.items():
        ctx = idx[:j - 1] + idx[j + 1:]
        groups.setdefault(ctx, {})[(idx[j - 1], idx[j])] = c
    for ctx, pair_coeffs in groups.items():
        by_level: dict[int, dict] = {}
        for pi, c in pair_coeffs.items():
            by_level.setdefault(pi[0] + pi[1], {})[pi] = c
        for s, cs in by_level.items():
            pair_idx, keys, inv = levels[s]
            col = [cs.get(pi, Q_ZERO) for pi in pair_idx]
            for row, key in enumerate(keys):
                if key[0] != d:
                    continue
                a = Q_ZERO
                for t, cval in enumerate(col):
                    if not cval.is_zero():
                        a = a + inv[row][t] * cval
                if a.is_zero():
                    continue
                l = key[1]
                hat_idx = ctx[:j - 1] + (l,) + ctx[j - 1:]
                hat_coeffs[hat_idx] = hat_coeffs.get(hat_idx, Q_ZERO) + a
                for pi, base_c in columns[(d, l)].items():
                    full = ctx[:j - 1] + pi + ctx[j - 1:]
                    val = pi_coeffs.get(full, Q_ZERO) + a * base_c
                    pi_coeffs[full] = val
    return (TensorVector(v.space, pi_coeffs),
            TensorVector(hat_space, hat_coeffs))


def project_block(v: TensorVector, j: int, k: int, d: int):
    """Split off the M_d component of the block of positions j..k.

    Fuses the block left to right by repeated project(w, j, d') calls,
    one path per chain of channels d'.  A path carries its reduced
    vector w, whose slot j stands for the block fused so far, and that
    block's highest weight vector tau, which grows at each step as
    sum_(l1, l2) hwv_pair(d', d_next, m)[(l1, l2)] F^l1.tau (x) e_l2, so
    that project's map F^l.tau -> e_l holds at every step.  The last step
    keeps the channel d alone.

    Returns ((tau, hat), ...) over the paths with a nonzero hat: tau is a
    highest weight vector of weight q^(d-1) on the block's factors, hat
    lives where the block is replaced by a single tensorand of dimension
    d, and v is the sum over paths of hat with each e_l at position j
    read as F^l.tau.  Raises ValueError unless v lies in the d summand
    of the block, that is unless the last step keeps all of every w.
    """
    dims = v.space.dims
    n = len(dims)
    if not 1 <= j < k <= n:
        raise ValueError(f"block ({j}, {k}) out of range for n={n}")
    paths = [(TensorVector.basis(TensorSpace(dims[j - 1:j]), (0,)), v)]
    for p in range(j, k):
        d2, last = dims[p], p == k - 1
        grown = []
        for tau, w in paths:
            d1 = w.space.dims[j - 1]
            parts = [(m, *project(w, j, d1 + d2 - 1 - 2 * m))
                     for m in range(min(d1, d2))
                     if not last or d1 + d2 - 1 - 2 * m == d]
            if last and (not parts or parts[0][1] != w):
                raise ValueError(
                    f"vector is not in the d={d} summand of the block ({j}, {k})")
            for m, _, hat in parts:
                if hat.is_zero():
                    continue
                pair = hwv_pair(d1, d2, m)
                powers = [tau]
                for _ in range(max(l1 for l1, _ in pair.coeffs)):
                    powers.append(act("F", powers[-1]))
                grown.append((TensorVector(
                    TensorSpace(tau.space.dims + (d2,)),
                    {idx + (l2,): c * val
                     for (l1, l2), c in pair.coeffs.items()
                     for idx, val in powers[l1].coeffs.items()}), hat))
        paths = grown
    return tuple(paths)


def _f_on_laurent(dims: tuple, vec: dict) -> dict:
    """F on a vector of exponent maps {idx: {e: c}}, as act("F") does on
    Laurent-polynomial coefficients: the term at index idx moves to each
    raised index with its exponents shifted by the K exponent F carries
    there, and the terms that reach one index sum into one map.  No map
    of vec is changed, and no zero coefficient or empty map is kept."""
    n = len(dims)
    out: dict[tuple, dict] = {}
    for idx, poly in vec.items():
        kexp = -sum(dims[b] - 1 - 2 * idx[b] for b in range(n))
        for a in range(n):
            la = idx[a]
            kexp += dims[a] - 1 - 2 * la
            if la != dims[a] - 1:
                acc = out.setdefault(idx[:a] + (la + 1,) + idx[a + 1:], {})
                for e, c in poly.items():
                    e += kexp
                    acc[e] = acc.get(e, 0) + c
    trimmed = ((idx, {e: c for e, c in acc.items() if c}) for idx, acc in out.items())
    return {idx: poly for idx, poly in trimmed if poly}


@lru_cache(maxsize=1024)
def _fused_hwvs(dims: tuple, d: int) -> tuple[dict, ...]:
    """A basis, not normalized, of the highest weight vectors of weight
    q^(d-1) on the factors dims, each an exponent map {idx: {e: c}} of
    its Laurent-polynomial coefficients.

    Each highest weight vector u of weight q^(d'-1) on the first n-1
    factors spans a copy of M_d' through e_l -> F^l.u; fusing that copy
    with M_{d_n} by the pair vector of the summand M_d gives one vector,
    whose coefficient at idx + (l2,) is the numerator of the pair weight
    at (l1, l2) times that of F^l1.u at idx.  Over all d' and u these
    vectors form a basis, since the first n-1 factors are the direct sum
    of such copies.  The F powers act on the maps (_f_on_laurent), with
    no QScalar per term.  The cache lets spaces with common leading
    factors, such as (3,)^5 and (3,)^4, share their sub-bases across
    calls, so the maps it hands out are never changed.
    """
    out = []
    if len(dims) == 1:
        if d == dims[0]:
            out.append({(0,): {0: 1}})
    else:
        head, dn = dims[:-1], dims[-1]
        for m in range(dn):
            dp = d - dn + 1 + 2 * m
            # M_d sits in M_dp (x) M_dn at this m only if m < min(dp, dn)
            if m > dp - 1:
                continue
            weights = [(l1, l2, c.num) for (l1, l2), c in _pair_weights(dp, dn, m).items()]
            top = max(l1 for l1, _, _ in weights)
            for u in _fused_hwvs(head, dp):
                f_powers = [u]
                for _ in range(top):
                    f_powers.append(_f_on_laurent(head, f_powers[-1]))
                out.append({idx + (l2,): (w * LaurentPoly._trusted(poly)).coeffs
                            for l1, l2, w in weights
                            for idx, poly in f_powers[l1].items()})
    return tuple(out)


def hwv_space_basis(space: TensorSpace, d: int) -> list[TensorVector]:
    """Exact basis of highest weight vectors of weight q^(d-1).

    The vectors come from fusion recursion over the factors (the
    Clebsch-Gordan fusion-tree basis) and are then echelon-normalized
    against ascending multi-index order, so the basis depends only on
    the space it spans.  Each entry of the fusion vectors becomes a
    QScalar once, for the echelon step.  d must be positive; a d above
    every summand gives the empty basis.
    """
    if d < 1:
        raise ValueError(f"summand dimension d must be a positive integer, got {d}")
    vectors = _fused_hwvs(space.dims, d)
    cols = sorted({idx for v in vectors for idx in v})
    rows = [[QScalar.from_poly(LaurentPoly._trusted(v[i])) if i in v else Q_ZERO
             for i in cols] for v in vectors]
    canon, _ = _rref(rows, len(cols))
    return [TensorVector(space, {cols[i]: val for i, val in enumerate(row)
                                 if not val.is_zero()})
            for row in canon]


# -- trivial subrepresentation and the cyclic structure -------------------


def _require_trivial(v: TensorVector):
    if (not act("E", v).is_zero() or not act("F", v).is_zero()
            or act("K", v) != v):
        raise ValueError("not a trivial-subrepresentation vector")


def _require_hwv(u: TensorVector, d: int):
    if not is_hwv(u, d):
        raise ValueError(f"not a highest weight vector of weight q^{d - 1}")


def r_plus(v: TensorVector) -> TensorVector:
    """Component of an invariant vector at e_{d_n - 1} in the last tensorand
    (leftmost printed); a highest weight vector of weight d_n in the
    remaining factors."""
    _require_trivial(v)
    dims = v.space.dims
    if len(dims) < 2:
        raise ValueError("need at least two tensorands")
    d = dims[-1]
    sub = TensorSpace(dims[:-1])
    coeffs = {idx[:-1]: c for idx, c in v.coeffs.items()
              if idx[-1] == d - 1}
    return TensorVector(sub, coeffs)


def r_minus(v: TensorVector) -> TensorVector:
    """Component of an invariant vector at e_{d_1 - 1} in the first
    tensorand (rightmost printed)."""
    _require_trivial(v)
    dims = v.space.dims
    if len(dims) < 2:
        raise ValueError("need at least two tensorands")
    d = dims[0]
    sub = TensorSpace(dims[1:])
    coeffs = {idx[1:]: c for idx, c in v.coeffs.items()
              if idx[0] == d - 1}
    return TensorVector(sub, coeffs)


def r_minus_inv(u: TensorVector, d: int) -> TensorVector:
    """Rebuild the invariant vector with M_d as the first tensorand
    (rightmost printed)."""
    _require_hwv(u, d)
    space = TensorSpace((d,) + u.space.dims)
    coeffs: dict[tuple, QScalar] = {}
    w = u
    for l in range(d - 1, -1, -1):
        a = QScalar.q_power((l - 1) * (d - 1 - l), (-1) ** (d - 1 - l))
        for idx, c in w.coeffs.items():
            full = (l,) + idx
            coeffs[full] = coeffs.get(full, Q_ZERO) + a * c
        if l > 0:
            w = act("F", w)
    return TensorVector(space, coeffs)


def s_operator(v: TensorVector) -> TensorVector:
    """Move the last tensorand to the first position: an invariant vector
    for dims (d_1,...,d_n) is sent to one for (d_n,d_1,...,d_{n-1})."""
    return r_minus_inv(r_plus(v), v.space.dims[-1])


def cyclic_constant(space: TensorSpace) -> QScalar:
    """Scalar by which the full cycle of single-step rotations acts on the
    trivial subrepresentation; raises if the composite is not an exact
    multiple of the identity."""
    basis = hwv_space_basis(space, 1)
    if not basis:
        raise ValueError(
            f"trivial subrepresentation of {space.dims} is zero")
    scalar = None
    for b in basis:
        w = b
        for _ in range(space.n):
            w = s_operator(w)
        lead = min(b.coeffs)
        lam = w.coeffs.get(lead, Q_ZERO) / b.coeffs[lead]
        if w != b.scale(lam):
            raise ArithmeticError(
                "cyclic composite is not proportional to the identity")
        if scalar is None:
            scalar = lam
        elif scalar != lam:
            raise ArithmeticError(
                "cyclic composite acts with different scalars on the basis")
    return scalar
