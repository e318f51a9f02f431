"""Exact representation theory of the quantum group U_q(sl2).

Tensor products of the d-dimensional irreducibles M_d are handled with
sparse vectors whose coefficients are exact rational functions of q.  The
storage order of a multi-index (l_1, ..., l_n) follows the variable order:
index i belongs to the point x_i, and the printed tensor runs right to
left, e_{l_n} (x) ... (x) e_{l_1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .qseries import LaurentPoly, QScalar, Q_ONE, Q_ZERO, qfact, qint

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

    def indices(self):
        """All multi-indices in ascending lexicographic storage order."""
        return product(*(range(d) for d in self.dims))

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

    @classmethod
    def zero(cls, space: TensorSpace) -> "TensorVector":
        return cls(space, {})

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
    positions).
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
            for a in range(n):
                la = idx[a]
                if la == 0:
                    continue
                kexp = sum(dims[b] - 1 - 2 * idx[b] for b in range(a))
                factor = qint(la) * qint(dims[a] - la) * QScalar.q_power(kexp)
                new = idx[:a] + (la - 1,) + idx[a + 1:]
                accumulate(new, factor * c)
    elif gen == "F":
        for idx, c in v.coeffs.items():
            for a in range(n):
                la = idx[a]
                if la == dims[a] - 1:
                    continue
                kexp = -sum(dims[b] - 1 - 2 * idx[b] for b in range(a + 1, n))
                new = idx[:a] + (la + 1,) + idx[a + 1:]
                accumulate(new, QScalar.q_power(kexp) * c)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return TensorVector(v.space, out)


def is_hwv(v: TensorVector, d: int) -> bool:
    """Exact check that v is annihilated by E and has K-eigenvalue q^(d-1)."""
    if v.is_zero():
        return True
    if not act("E", v).is_zero():
        return False
    return act("K", v) == v.scale(QScalar.q_power(d - 1))


def hwv_pair(d1: int, d2: int, m: int) -> TensorVector:
    """Highest weight vector generating the d = d1+d2-1-2m summand of the
    two-point tensor product."""
    if not 0 <= m <= min(d1, d2) - 1:
        raise ValueError(f"no summand with m={m} in dims ({d1},{d2})")
    space = TensorSpace((d1, d2))
    comm_pow = Q_COMM ** (-m)
    coeffs = {}
    for l1 in range(max(0, m - (d2 - 1)), min(m, d1 - 1) + 1):
        l2 = m - l1
        num = qfact(d1 - 1 - l1) * qfact(d2 - 1 - l2)
        den = qfact(l1) * qfact(d1 - 1) * qfact(l2) * qfact(d2 - 1)
        c = (num / den) * QScalar.q_power(l1 * (d1 - l1), (-1) ** l1)
        coeffs[(l1, l2)] = c * comm_pow
    return TensorVector(space, coeffs)


# -- exact linear algebra over QScalar ------------------------------------


def _rref(rows, ncols):
    """Reduced row echelon form in place terms; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows))
                    if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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


def hwv_space_basis(space: TensorSpace, d: int) -> list[TensorVector]:
    """Exact basis of highest weight vectors of weight q^(d-1).

    Kernel of the E-action on the K-eigenspace, computed by exact Gaussian
    elimination; echelon-normalized against ascending multi-index order.
    """
    total = sum(dd - 1 for dd in space.dims)
    twice_s = total - (d - 1)
    if twice_s < 0 or twice_s % 2:
        return []
    s = twice_s // 2
    col_idx = sorted(i for i in space.indices() if sum(i) == s)
    if not col_idx:
        return []
    row_idx = sorted(i for i in space.indices() if sum(i) == s - 1)
    row_pos = {i: r for r, i in enumerate(row_idx)}
    # E-matrix: rows are target indices, columns the weight-space basis
    emat = [[Q_ZERO] * len(col_idx) for _ in row_idx]
    for c, idx in enumerate(col_idx):
        img = act("E", TensorVector.basis(space, idx))
        for tgt, val in img.coeffs.items():
            emat[row_pos[tgt]][c] = val
    if row_idx:
        reduced, pivots = _rref(emat, len(col_idx))
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
    else:
        kernel = [[Q_ONE if i == f else Q_ZERO for i in range(len(col_idx))]
                  for f in range(len(col_idx))]
    if not kernel:
        return []
    # canonicalize: echelon form over the fixed multi-index order
    canon, _ = _rref(kernel, len(col_idx))
    out = []
    for row in canon:
        coeffs = {col_idx[i]: val for i, val in enumerate(row)
                  if not val.is_zero()}
        out.append(TensorVector(space, coeffs))
    return out


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
