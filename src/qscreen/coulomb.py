"""Coulomb gas integrals on the real chamber.

Evaluates the positive integrand on configurations x0 < x_1 < ... < x_n,
the screened integrals over nested ordered simplices, the rephased
hypercube variants, the boundary fusion constants, conformal weight and
exponent helpers, and a direct contour oracle that integrates the same
density over explicitly constructed nested loops with the branch tracked
along the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, gammasgn, roots_jacobi, roots_legendre

from .qseries import KappaParams, QScalar, eval_q, qfact


@dataclass(frozen=True)
class ChamberPoint:
    """Anchor and marked points with x0 < x_1 < ... < x_n strictly."""

    x0: float
    xs: tuple

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "xs", tuple(float(x) for x in self.xs))
        if not self.xs:
            raise ValueError("at least one marked point is required")
        pts = (self.x0,) + self.xs
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise ValueError("chamber requires x0 < x_1 < ... < x_n strictly")

    @property
    def n(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class ScreeningConfig:
    """Counts of screening variables per interval."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("screening counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the nested panel quadrature.

    nodes_per_panel is the Gauss rule size on each panel and
    max_subdivisions the number of geometric refinement levels toward each
    endpoint; successive panels shrink by _SPLIT_RATIO.
    """

    nodes_per_panel: int = 12
    max_subdivisions: int = 20
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


def _dims_counts(dims, m, n=None):
    """Validated dimensions and screening counts, one of each per point;
    n, when given, is the number of marked points of the chamber."""
    dims = tuple(int(d) for d in dims)
    counts = m.counts if isinstance(m, ScreeningConfig) else tuple(int(c) for c in m)
    if n is not None and len(dims) != n:
        raise ValueError(f"expected {n} dimensions, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive integers")
    if len(counts) != len(dims):
        raise ValueError(f"expected {len(dims)} screening counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("screening counts must be nonnegative")
    return dims, counts


def _betas(dims, kappa):
    # index 0 is the uncharged anchor
    return [0.0] + [4.0 * (d - 1) / kappa for d in dims]


def _check_convergent(dims, kappa):
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    dmax = max(dims)
    if dmax > 1 and not kappa > 4.0 * (dmax - 1):
        raise ValueError(
            f"kappa={kappa} is outside convergent regime for dimensions {tuple(dims)}"
            f" (need kappa > {4.0 * (dmax - 1)})"
        )


def _check_increasing(xs):
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise ValueError("coordinates must increase strictly")


def _x_prefactor(xs, dims, kappa):
    total = 1.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            e = 2.0 * (dims[i] - 1) * (dims[j] - 1) / kappa
            if e:
                total *= (xs[j] - xs[i]) ** e
    return total


# geometric ratio of successive panels toward each endpoint: it sets how
# strongly nodes cluster where a variable meets a charge or its neighbour
_SPLIT_RATIO = 0.5


@lru_cache(maxsize=None)
def _unit_rule_build(aL, aR, nodes, subdivisions):
    # nodes and weights approximating int_0^1 t^aL (1-t)^aR g(t) dt as
    # sum w_k g(t_k); the endpoint powers are folded into the weights,
    # exactly on the edge panels via Gauss-Jacobi rules.
    if aL <= -1.0 or aR <= -1.0:
        raise ValueError("endpoint exponents must exceed -1")
    xg, wg = roots_legendre(nodes)
    edge = 0.5 * _SPLIT_RATIO ** subdivisions
    t_parts, w_parts = [], []

    def interior(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * xg
        w = half * wg * t ** aL * (1.0 - t) ** aR
        t_parts.append(t)
        w_parts.append(w)

    xj, wj = roots_jacobi(nodes, 0.0, aL)
    t = edge * 0.5 * (1.0 + xj)
    w = wj * (edge * 0.5) ** (1.0 + aL) * (1.0 - t) ** aR
    t_parts.append(t)
    w_parts.append(w)
    for k in range(subdivisions - 1, -1, -1):
        interior(0.5 * _SPLIT_RATIO ** (k + 1), 0.5 * _SPLIT_RATIO ** k)
    for k in range(subdivisions):
        interior(1.0 - 0.5 * _SPLIT_RATIO ** k, 1.0 - 0.5 * _SPLIT_RATIO ** (k + 1))
    xj, wj = roots_jacobi(nodes, aR, 0.0)
    t = 1.0 - edge * 0.5 * (1.0 - xj)
    w = wj * (edge * 0.5) ** (1.0 + aR) * t ** aL
    t_parts.append(t)
    w_parts.append(w)
    return np.concatenate(t_parts), np.concatenate(w_parts)


def _unit_rule(aL, aR, spec):
    return _unit_rule_build(
        round(aL, 12),
        round(aR, 12),
        spec.nodes_per_panel,
        spec.max_subdivisions,
    )


@dataclass(frozen=True)
class _Level:
    group: int
    r: int
    top: bool
    aL: float
    aR: float
    env: float


def _build_levels(counts, betas, kappa):
    # integration proceeds outermost first within each group: the variable
    # nearest x_i ranges over (x_{i-1}, x_i), each one below it over
    # (x_{i-1}, w_above).  env is the growth exponent of the nested inner
    # integral at the lower end: k inner variables contribute k measure
    # factors, k lower-endpoint powers and C(k,2)+k vanishing pair factors.
    levels = []
    for i, mi in enumerate(counts, start=1):
        for r in range(mi, 0, -1):
            k = r - 1
            env = k * (1.0 - betas[i - 1]) + (8.0 / kappa) * (0.5 * k * (k - 1) + k)
            aL = -betas[i - 1] + env
            aR = -betas[i] if r == mi else 8.0 / kappa
            levels.append(_Level(i, r, r == mi, aL, aR, env))
    return levels


_CHUNK_CAP = 4_000_000


def _level_value(levels, idx, ws, t, om, x_ext, betas, kappa, spec):
    lev = levels[idx]
    last = idx == len(levels) - 1
    if not last:
        t_next, om_next = _unit_rule(levels[idx + 1].aL, levels[idx + 1].aR, spec)
        outer = ws[-1].size if ws else 1
        budget = max(1, _CHUNK_CAP // max(1, outer * len(t_next)))
        if len(t) > budget:
            acc = None
            for s in range(0, len(t), budget):
                part = _level_value(
                    levels, idx, ws, t[s : s + budget], om[s : s + budget],
                    x_ext, betas, kappa, spec,
                )
                acc = part if acc is None else acc + part
            return acc
    A = x_ext[lev.group - 1]
    U = x_ext[lev.group] if lev.top else ws[-1]
    expo = 1.0 + lev.aL + lev.aR
    if isinstance(U, np.ndarray):
        S = (U - A)[..., None]
    else:
        S = U - A
        t = t.reshape((1,) * idx + (-1,))
    w = A + S * t
    G = om * S ** expo
    for j in range(1, len(x_ext)):
        if j == lev.group - 1:
            continue
        if lev.top and j == lev.group:
            continue
        if betas[j]:
            G = G * np.abs(w - x_ext[j]) ** (-betas[j])
    if lev.env:
        # the offset S*t, not w - A: at deep levels it falls below ulp(A),
        # where w - A rounds to zero and its negative power overflows
        G = G * (S * t) ** (-lev.env)
    for p in range(idx):
        pl = levels[p]
        if pl.group == lev.group and pl.r == lev.r + 1:
            continue
        wp = ws[p]
        if isinstance(wp, np.ndarray) and wp.ndim < w.ndim:
            wp = wp.reshape(wp.shape + (1,) * (w.ndim - wp.ndim))
        G = G * np.abs(w - wp) ** (8.0 / kappa)
    if last:
        return (G * np.ones_like(w)).sum(axis=-1)
    inner = _level_value(
        levels, idx + 1, ws + [w], t_next, om_next, x_ext, betas, kappa, spec
    )
    return (G * inner).sum(axis=-1)


def _effective_spec(spec, ell):
    if ell <= 3:
        return spec
    nodes, sub = spec.nodes_per_panel, spec.max_subdivisions
    cap = int(3.0e8 ** (1.0 / ell))
    while nodes * (2 * sub + 2) > cap:
        if sub > 3:
            sub -= 1
        elif nodes > 4:
            nodes -= 1
        else:
            raise ValueError("screening configuration too large for direct quadrature")
    return QuadratureSpec(nodes, sub, spec.rel_tol)


def rho(c: ChamberPoint, dims, m, kappa, quad: QuadratureSpec | None = None) -> float:
    """Screened integral over the nested ordered simplices.

    m gives the number of screening variables per interval.  Requires
    kappa to exceed 4(max d_i - 1); outside that regime the integral
    diverges and the call is refused.
    """
    dims, counts = _dims_counts(dims, m, c.n)
    _check_convergent(dims, kappa)
    quad = quad if quad is not None else QuadratureSpec()
    pref = _x_prefactor(c.xs, dims, kappa)
    ell = sum(counts)
    if ell == 0:
        return pref
    spec = _effective_spec(quad, ell)
    betas = _betas(dims, kappa)
    x_ext = (c.x0,) + c.xs
    levels = _build_levels(counts, betas, kappa)
    t0, om0 = _unit_rule(levels[0].aL, levels[0].aR, spec)
    val = _level_value(levels, 0, [], t0, om0, x_ext, betas, kappa, spec)
    return pref * float(val)


def tilde_rho(c: ChamberPoint, dims, m, kappa, quad: QuadratureSpec | None = None) -> complex:
    """Rephased variant: exact q-prefactor times the real integral."""
    dims, counts = _dims_counts(dims, m, c.n)
    base = rho(c, dims, counts, kappa, quad)
    kp = KappaParams(kappa)
    pref = complex(1.0)
    for mi in counts:
        scalar = qfact(mi) * QScalar.q_power(-(mi * (mi - 1) // 2))
        pref *= eval_q(scalar, kp)
    return pref * base


def b_const(d, d1, d2, kappa, quad: QuadratureSpec | None = None) -> float:
    """Fusion constant: the simplex integral on [0, 1] with endpoint
    charges d1, d2 and (d1 + d2 - 1 - d)/2 screening variables."""
    d, d1, d2 = int(d), int(d1), int(d2)
    if min(d, d1, d2) < 1:
        raise ValueError("dimensions must be positive integers")
    two_m = d1 + d2 - 1 - d
    if two_m < 0 or two_m % 2 or two_m // 2 > min(d1, d2) - 1:
        raise ValueError(f"d={d} not in decomposition of the pair ({d1}, {d2})")
    mm = two_m // 2
    if mm == 0:
        return 1.0
    c = ChamberPoint(-1.0, (0.0, 1.0))
    return rho(c, (d1, d2), (0, mm), kappa, quad)


def selberg_oracle(l, alpha, beta, gamma) -> float:
    """Selberg product formula for the l-dimensional hypercube integral.

    Divide by l! to compare with integrals over the ordered simplex.
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

    def lg(x):
        if x <= 0 and abs(x - round(x)) < 1e-12:
            raise ValueError(f"Gamma pole at argument {x:g}")
        return float(gammaln(x)), float(gammasgn(x))

    log_total, sign = 0.0, 1.0
    for j in range(l):
        for arg in (alpha + j * gamma, beta + j * gamma, 1.0 + (j + 1) * gamma):
            v, s = lg(arg)
            log_total += v
            sign *= s
        for arg in (alpha + beta + (l + j - 1) * gamma, 1.0 + gamma):
            v, s = lg(arg)
            log_total -= v
            sign *= s
    return sign * math.exp(log_total)


def h_weight(d, kappa) -> float:
    """Boundary conformal weight of the degree-d field."""
    return (d - 1) * (2.0 * (d + 1) - kappa) / (2.0 * kappa)


def delta_fusion(d, d1, d2, kappa) -> float:
    """Exponent governing the merging asymptotics of a neighbor pair."""
    return (2.0 * (1 + d * d - d1 * d1 - d2 * d2) + kappa * (d1 + d2 - d - 1)) / (
        2.0 * kappa
    )


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


class _Chain:
    """Accumulates quadrature nodes along one loop, with a zero-weight
    marker node at the reference point where the branch phase is fixed."""

    def __init__(self, nodes_per_panel):
        self._xg, self._wg = roots_legendre(nodes_per_panel)
        self.zs = []
        self.dzs = []
        self.ref = None
        self._count = 0

    def _push(self, z, dz):
        self.zs.append(z)
        self.dzs.append(dz)
        self._count += len(z)

    def seg(self, z0, z1, panels=1, grade_start=False, grade_end=False):
        z0, z1 = complex(z0), complex(z1)
        # graded ends halve 16 times toward the anchor
        graded = [0.0] + [0.5 ** k for k in range(16, -1, -1)]
        if grade_start:
            bounds = graded
        elif grade_end:
            bounds = [1.0 - b for b in graded][::-1]
        else:
            bounds = np.linspace(0.0, 1.0, max(1, panels) + 1).tolist()
        for a, b in zip(bounds, bounds[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            t = mid + half * self._xg
            self._push(z0 + (z1 - z0) * t, (z1 - z0) * half * self._wg)

    def arc(self, center, radius, a0, a1):
        panels = max(1, int(math.ceil(abs(a1 - a0) / (math.pi / 4))))
        bounds = np.linspace(a0, a1, panels + 1)
        for a, b in zip(bounds, bounds[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            th = mid + half * self._xg
            z = center + radius * np.exp(1j * th)
            self._push(z, 1j * radius * np.exp(1j * th) * half * self._wg)

    def mark_ref(self, z):
        self._push(np.array([complex(z)]), np.array([0j]))
        self.ref = self._count - 1

    def build(self):
        return np.concatenate(self.zs), np.concatenate(self.dzs), self.ref


def _min_gap(c):
    pts = (c.x0,) + c.xs
    return min(b - a for a, b in zip(pts, pts[1:]))


def _lollipop_chain(c, i, radius, depth, angle, m):
    # anchored loop: angled descent, corridor below the axis, rise to the
    # circle around x_i, full positive turn, and the reverse return
    x0, xi = c.x0, c.xs[i - 1]
    g = _min_gap(c)
    ch = _Chain(m)
    pa = complex(x0 + depth * math.tan(angle), -depth)
    pb = complex(xi, -depth)
    pc = complex(xi, -radius)
    corr = max(1, int(math.ceil(abs(pb - pa) / (g / 6.0))))
    ch.seg(x0, pa, grade_start=True)
    ch.seg(pa, pb, panels=corr)
    ch.seg(pb, pc, panels=2)
    ch.arc(xi, radius, -0.5 * math.pi, 0.0)
    ch.mark_ref(xi + radius)
    ch.arc(xi, radius, 0.0, 1.5 * math.pi)
    ch.seg(pc, pb, panels=2)
    ch.seg(pb, pa, panels=corr)
    ch.seg(pa, x0, grade_end=True)
    return ch.build()


def _potato_chain(c, i, reach, depth, height, dip, halfwidth, angle, approach, m):
    # outer loop of a nested pair: descends below everything, rises beyond
    # the inner loop at x_i + reach, returns above the axis, and dips under
    # each marked point left of x_i so their upward rays are never crossed
    x0, xs = c.x0, c.xs
    xi = xs[i - 1]
    g = _min_gap(c)
    h = g / 6.0
    ch = _Chain(m)
    pa = complex(x0 + depth * math.tan(angle), -depth)
    pb = complex(xi + reach, -depth)
    ch.seg(x0, pa, grade_start=True)
    ch.seg(pa, pb, panels=max(1, int(math.ceil(abs(pb - pa) / h))))
    ch.seg(pb, complex(xi + reach, 0.0), panels=2)
    ch.mark_ref(complex(xi + reach, 0.0))
    cur = complex(xi + reach, height)
    ch.seg(complex(xi + reach, 0.0), cur, panels=2)
    for j in range(i - 1, 0, -1):
        xj = xs[j - 1]
        p1 = complex(xj + halfwidth, height)
        p2 = complex(xj + halfwidth, -dip)
        p3 = complex(xj - halfwidth, -dip)
        p4 = complex(xj - halfwidth, height)
        ch.seg(cur, p1, panels=max(1, int(math.ceil(abs(p1 - cur) / h))))
        ch.seg(p1, p2, panels=3)
        ch.seg(p2, p3, panels=2)
        ch.seg(p3, p4, panels=3)
        cur = p4
    pfin = complex(x0 + approach, height)
    ch.seg(cur, pfin, panels=max(1, int(math.ceil(abs(pfin - cur) / h))))
    ch.seg(pfin, x0, grade_end=True)
    return ch.build()


def _anchored_log(z, pole, ref):
    # continued logarithm along the chain, rephased to be real at the
    # reference node; valid because consecutive nodes subtend small angles
    w = z - pole
    steps = np.log(w[1:] / w[:-1])
    cum = np.concatenate(([0.0j], np.cumsum(steps)))
    phase = cum.imag - cum.imag[ref]
    return np.log(np.abs(w)) + 1j * phase


def _unwrap_from(a, r):
    # unwrap along axis 0 outward from row r in both directions
    out = np.empty_like(a)
    out[r:] = np.unwrap(a[r:], axis=0)
    out[: r + 1] = np.unwrap(a[r::-1], axis=0)[::-1]
    return out


def _pair_sum(z1, a1, z2, a2, ref1, ref2, expo):
    # sum a1_j a2_k |z2_k - z1_j|^expo exp(i expo Theta(j,k)) with the pair
    # angle continued over the whole parameter square from the reference
    # pair, where it is zero; unwrapping runs outward from the reference
    # so corner ambiguities stay confined to negligible-weight nodes
    row_pr = np.angle(z2 - z1[ref1])
    row_u = _unwrap_from(row_pr, ref2)
    total = 0j
    gross = 0.0
    block = max(1, 2_000_000 // max(1, len(z1)))
    for s in range(0, len(z2), block):
        zb = z2[s : s + block]
        D = zb[None, :] - z1[:, None]
        A = np.angle(D)
        U = _unwrap_from(A, ref1)
        TH = U + (row_u[s : s + block] - row_pr[s : s + block])[None, :]
        T = (
            a1[:, None]
            * a2[s : s + block][None, :]
            * np.exp(expo * (np.log(np.abs(D)) + 1j * TH))
        )
        total += T.sum()
        gross += np.abs(T).sum()
    return total, gross


def _oracle_chains(c, groups, m):
    g = _min_gap(c)
    if len(groups) == 1:
        return [_lollipop_chain(c, groups[0], 0.25 * g, 0.32 * g, 0.40, m)]
    i1, i2 = groups
    if i1 == i2:
        inner = _lollipop_chain(c, i1, 0.10 * g, 0.14 * g, 0.45, m)
        outer = _potato_chain(
            c, i1, 0.20 * g, 0.24 * g, 0.18 * g, 0.05 * g, 0.08 * g, 0.20, 0.10 * g, m
        )
        return [inner, outer]
    first = _lollipop_chain(c, i1, 0.15 * g, 0.20 * g, 0.45, m)
    second = _lollipop_chain(c, i2, 0.25 * g, 0.32 * g, 0.20, m)
    return [first, second]


def _oracle_eval(c, betas, groups, kappa, m):
    chains = _oracle_chains(c, groups, m)
    factors = []
    for z, dz, ref in chains:
        logf = np.zeros(len(z), dtype=complex)
        for j, xj in enumerate(c.xs):
            if betas[j]:
                logf += (-betas[j]) * _anchored_log(z, xj, ref)
        factors.append(dz * np.exp(logf))
    if len(chains) == 1:
        terms = factors[0]
        return terms.sum(), np.abs(terms).sum()
    (z1, _, r1), (z2, _, r2) = chains
    return _pair_sum(z1, factors[0], z2, factors[1], r1, r2, 8.0 / kappa)


_ORACLE_NODES = 12


def contour_phi_oracle(c: ChamberPoint, dims, l, kappa) -> complex:
    """Direct contour integral over nested anchored loops.

    Builds the loops explicitly for at most two screening variables,
    continues the branch along each loop from the reference configuration
    where the integrand is positive, and refines the node count until two
    successive evaluations agree.
    """
    dims, counts = _dims_counts(dims, l, c.n)
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    ell = sum(counts)
    if ell > 2:
        raise ValueError("contour oracle supports at most two screening loops")
    xpref = _x_prefactor(c.xs, dims, kappa)
    if ell == 0:
        return complex(xpref)
    betas = _betas(dims, kappa)[1:]
    groups = [i for i, li in enumerate(counts, start=1) for _ in range(li)]
    prev = None
    for mult in (1, 2, 4):
        val, gross = _oracle_eval(c, betas, groups, kappa, _ORACLE_NODES * mult)
        val *= xpref
        gross *= xpref
        if prev is not None:
            err = abs(val - prev)
            if err <= max(5e-8 * abs(val), 1e-9 * gross, 1e-12):
                return val
        prev = val
    raise RuntimeError(
        "contour oracle did not converge at four times the base node count"
    )
