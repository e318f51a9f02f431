"""Exact checks for the quantum group layer: generator actions, pair
decompositions, invariant vectors and the rotation maps."""

import random
from itertools import product

import pytest
from closed_forms import (
    ANCHOR_FREE_SPACES,
    act_by_resumming,
    gauss_jordan,
    hwv_basis_by_elimination,
    hwv_pair_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.qseries import LaurentPoly, QScalar, Q_ONE, Q_ZERO, qint
from qscreen.uqsl2 import (
    TensorSpace,
    TensorVector,
    _f_on_laurent,
    _hwv_weights,
    _invert_matrix,
    _rref,
    act,
    cyclic_constant,
    hwv_pair,
    hwv_space_basis,
    is_hwv,
    project,
    project_block,
    r_minus,
    r_minus_inv,
    r_plus,
    s_operator,
)

QP = QScalar.q_power


def basis(dims, idx):
    return TensorVector.basis(TensorSpace(tuple(dims)), idx)


def random_vector(dims, rng, nterms=4):
    space = TensorSpace(tuple(dims))
    all_idx = list(product(*map(range, space.dims)))
    coeffs = {}
    for idx in rng.sample(all_idx, min(nterms, len(all_idx))):
        poly = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        coeffs[idx] = QScalar.from_poly(poly)
    return TensorVector(space, coeffs)


# -- generator actions ----------------------------------------------------


def test_single_factor_actions():
    e0 = basis([2], (0,))
    e1 = basis([2], (1,))
    assert act("K", e0) == e0.scale(QP(1))
    assert act("K", e1) == e1.scale(QP(-1))
    assert act("E", e0).is_zero()
    assert act("F", e1).is_zero()
    assert act("F", e0) == e1
    # E.e_1 = [1][d-1] e_0 = e_0 for d=2
    assert act("E", e1) == e0


def test_pair_action_examples():
    # printed e_1 (x) e_0 is storage (l_1, l_2) = (0, 1)
    v = basis([2, 2], (0, 1))
    assert act("E", v) == basis([2, 2], (0, 0)).scale(QP(1))
    w = basis([2, 2], (0, 0))
    fw = act("F", w)
    assert fw == (basis([2, 2], (0, 1))
                  + basis([2, 2], (1, 0)).scale(QP(-1)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.data())
def test_act_matches_resummed_k_exponents(dims, data):
    # act builds each position's K exponent in one pass over the factors;
    # the reference sums it afresh for every position
    space = TensorSpace(tuple(dims))
    coeffs = data.draw(st.dictionaries(
        st.tuples(*(st.integers(0, d - 1) for d in dims)),
        st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), min_size=1, max_size=3)
        .map(lambda c: QScalar.from_poly(LaurentPoly(c))),
        max_size=8), label="coeffs")
    v = TensorVector(space, coeffs)
    for gen in ("E", "F", "K"):
        assert act(gen, v) == act_by_resumming(gen, v)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.data())
def test_f_on_exponent_maps_is_act_f(dims, data):
    # the fusion raises its vectors on exponent maps; small coefficients
    # make the terms that meet at one index cancel often
    dims = tuple(dims)
    maps = data.draw(st.dictionaries(
        st.tuples(*(st.integers(0, d - 1) for d in dims)),
        st.dictionaries(st.integers(-4, 4), st.integers(-2, 2).filter(bool),
                        min_size=1, max_size=3),
        max_size=8), label="maps")
    before = {idx: dict(poly) for idx, poly in maps.items()}
    got = _f_on_laurent(dims, maps)
    assert maps == before
    want = act("F", TensorVector(TensorSpace(dims), {
        idx: QScalar.from_poly(LaurentPoly(poly)) for idx, poly in maps.items()}))
    assert all(c.den.is_one() for c in want.coeffs.values())
    assert got == {idx: c.num.coeffs for idx, c in want.coeffs.items()}


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        act("X", basis([2], (0,)))


RELATION_SPACES = [(2,), (4,), (2, 2), (3, 2), (2, 2, 2), (4, 3), (2, 3, 2),
                   (2, 2, 2, 2), (2,) * 8]


@pytest.mark.parametrize("dims", RELATION_SPACES)
def test_defining_relations(dims):
    rng = random.Random(7)
    space = TensorSpace(tuple(dims))
    vectors = [TensorVector.basis(space, i) for i in product(*map(range, space.dims))]
    if len(vectors) > 24:
        vectors = rng.sample(vectors, 24)
    vectors.append(random_vector(dims, rng))
    for v in vectors:
        assert act("K", act("E", v)) == act("E", act("K", v)).scale(QP(2))
        assert act("K", act("F", v)) == act("F", act("K", v)).scale(QP(-2))
        # [E, F] = (K - K^-1)/(q - 1/q) is [w] on e_idx of K-weight w
        lhs = act("E", act("F", v)) - act("F", act("E", v))
        weight = lambda idx: sum(d - 1 - 2 * l for d, l in zip(dims, idx))
        assert lhs == TensorVector(space, {idx: c * qint(weight(idx)) for idx, c in v.coeffs.items()})


def test_action_splits_through_tensor_blocks():
    # the iterated coproduct factors through any split of the tensorands:
    # E acts as (E on upper block) * (K on lower block) + (E on lower block)
    dims = (2, 3, 2)
    space = TensorSpace(dims)
    for k in (1, 2):
        lower, upper = dims[:k], dims[k:]
        for idx in product(*map(range, space.dims)):
            v = TensorVector.basis(space, idx)
            il, iu = idx[:k], idx[k:]
            expect = {}
            ku = sum(d - 1 - 2 * l for d, l in zip(lower, il))
            eu = act("E", basis(upper, iu))
            for ju, c in eu.coeffs.items():
                expect[il + ju] = expect.get(il + ju, Q_ZERO) + c * QP(ku)
            el = act("E", basis(lower, il))
            for jl, c in el.coeffs.items():
                expect[jl + iu] = expect.get(jl + iu, Q_ZERO) + c
            assert act("E", v) == TensorVector(space, expect)


# -- pair decomposition ---------------------------------------------------


def test_hwv_pair_examples():
    assert hwv_pair(2, 2, 0) == basis([2, 2], (0, 0))
    comm = QScalar.from_poly(LaurentPoly({1: 1, -1: -1}))
    v = hwv_pair(2, 2, 1)
    expect = TensorVector(TensorSpace((2, 2)), {
        (0, 1): comm.inverse(),
        (1, 0): -QP(1) * comm.inverse(),
    })
    assert v == expect
    with pytest.raises(ValueError):
        hwv_pair(2, 2, 2)


@pytest.mark.parametrize("d1", range(1, 6))
@pytest.mark.parametrize("d2", range(1, 6))
def test_hwv_pair_is_highest_weight(d1, d2):
    for m in range(min(d1, d2)):
        d = d1 + d2 - 1 - 2 * m
        v = hwv_pair(d1, d2, m)
        assert not v.is_zero()
        assert act("E", v).is_zero()
        assert act("K", v) == v.scale(QP(d - 1))


@pytest.mark.parametrize("d1", range(1, 7))
@pytest.mark.parametrize("d2", range(1, 7))
def test_hwv_pair_is_the_reduced_reference(d1, d2):
    # each coefficient, built in canonical form, is the one the general
    # constructor reduces to: equal, with the same hash and repr
    for m in range(min(d1, d2)):
        got, want = hwv_pair(d1, d2, m).coeffs, hwv_pair_reference(d1, d2, m).coeffs
        assert got.keys() == want.keys()
        for idx, c in want.items():
            assert got[idx] == c, (d1, d2, m, idx)
            assert hash(got[idx]) == hash(c)
            assert repr(got[idx]) == repr(c)


def test_submodule_vector_examples():
    # F^l applied to the highest weight vectors of the pair (2, 2)
    v = act("F", hwv_pair(2, 2, 0))
    expect = TensorVector(TensorSpace((2, 2)), {
        (0, 1): Q_ONE,
        (1, 0): QP(-1),
    })
    assert v == expect
    # the m=1 summand is one dimensional, F kills it
    assert act("F", hwv_pair(2, 2, 1)).is_zero()
    # the m=0 summand is three dimensional: F^3 kills it, F^2 does not
    assert not act("F", v).is_zero()
    assert act("F", act("F", v)).is_zero()


def test_decomposition_dimension_count():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            sizes = [d1 + d2 - 1 - 2 * m for m in range(min(d1, d2))]
            assert sum(sizes) == d1 * d2


def test_project_examples():
    v = hwv_pair(2, 2, 1)
    pi, hat = project(v, 1, 1)
    assert pi == v
    assert hat == basis([1], (0,))
    w = basis([2, 2], (0, 0))
    pi3, hat3 = project(w, 1, 3)
    assert pi3 == w
    assert hat3 == basis([3], (0,))
    pi_off, hat_off = project(v, 1, 3)
    assert pi_off.is_zero() and hat_off.is_zero()
    with pytest.raises(ValueError):
        project(v, 1, 2)
    with pytest.raises(ValueError):
        project(v, 2, 1)


@pytest.mark.parametrize("dims,j", [((3, 2), 1), ((2, 2, 2), 2),
                                    ((4, 3), 1), ((2, 3, 2), 1)])
def test_projections_sum_to_identity(dims, j):
    d1, d2 = dims[j - 1], dims[j]
    summands = [d1 + d2 - 1 - 2 * m for m in range(min(d1, d2))]
    space = TensorSpace(dims)
    rng = random.Random(11)
    vectors = [TensorVector.basis(space, i) for i in product(*map(range, space.dims))]
    vectors.append(random_vector(dims, rng))
    for v in vectors:
        total = TensorVector(space)
        for d in summands:
            pi, _ = project(v, j, d)
            total = total + pi
        assert total == v


def test_project_is_idempotent():
    v = random_vector((3, 3), random.Random(3))
    for d in (5, 3, 1):
        pi, hat = project(v, 1, d)
        pi2, hat2 = project(pi, 1, d)
        assert pi2 == pi and hat2 == hat


def _unfused(paths, j, dims):
    # the sum over paths of hat with each e_l at position j read as F^l.tau
    out = TensorVector(TensorSpace(dims))
    for tau, hat in paths:
        powers = [tau]
        for _ in range(hat.space.dims[j - 1] - 1):
            powers.append(act("F", powers[-1]))
        out = out + TensorVector(out.space, {
            idx[:j - 1] + b + idx[j:]: c * cb
            for idx, c in hat.coeffs.items()
            for b, cb in powers[idx[j - 1]].coeffs.items()})
    return out


@pytest.mark.parametrize("dims,j,k,d", [((2, 2, 2, 2), 1, 3, 2), ((2, 2, 2, 2), 2, 4, 2),
                                        ((3, 2, 2, 3), 1, 3, 3), ((3, 3, 3, 3), 1, 3, 3),
                                        ((2, 2, 2), 1, 3, 2)])
def test_project_block_rebuilds_the_vector(dims, j, k, d):
    # a trivial vector lies in the d summand of a block that leaves out
    # one point of dimension d; a block of every point takes the highest
    # weight vectors of weight d
    vectors = hwv_space_basis(TensorSpace(dims), d if k - j + 1 == len(dims) else 1)
    assert vectors
    for v in vectors:
        paths = project_block(v, j, k, d)
        assert paths
        for tau, hat in paths:
            assert is_hwv(tau, d) and tau.space.dims == dims[j - 1:k]
            assert hat.space.dims == dims[:j - 1] + (d,) + dims[k:]
        assert _unfused(paths, j, dims) == v


def test_project_block_at_a_pair_is_project():
    v = hwv_pair(2, 2, 1)
    (tau, hat), = project_block(v, 1, 2, 1)
    assert tau == v and hat == project(v, 1, 1)[1]


def test_project_block_refuses_other_summands():
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    with pytest.raises(ValueError, match="d=4 summand of the block"):
        project_block(v, 1, 3, 4)
    # no chain of channels of three d = 2 points reaches d = 3
    with pytest.raises(ValueError, match="d=3 summand of the block"):
        project_block(v, 1, 3, 3)
    with pytest.raises(ValueError, match="out of range"):
        project_block(v, 3, 3, 2)


# -- invariant vectors ----------------------------------------------------


def test_hwv_space_basis_pair():
    out = hwv_space_basis(TensorSpace((2, 2)), 1)
    assert len(out) == 1
    b = out[0]
    # echelon normalization: leading coefficient one
    assert b.coeffs[min(b.coeffs)] == Q_ONE
    # proportional to the pair highest weight vector
    v = hwv_pair(2, 2, 1)
    lam = v.coeffs[min(v.coeffs)]
    assert v == b.scale(lam)


@pytest.mark.parametrize("n_pairs,expected", [(1, 1), (2, 2), (3, 5), (4, 14)])
def test_trivial_space_catalan_dimension(n_pairs, expected):
    space = TensorSpace((2,) * (2 * n_pairs))
    out = hwv_space_basis(space, 1)
    assert len(out) == expected
    for b in out:
        assert act("E", b).is_zero()
        assert act("F", b).is_zero()
        assert act("K", b) == b
        assert b.coeffs[min(b.coeffs)] == Q_ONE


def test_hwv_space_basis_weights():
    # d=3 highest weight vectors in M_2 (x) M_2: just e_0 (x) e_0
    out = hwv_space_basis(TensorSpace((2, 2)), 3)
    assert len(out) == 1 and out[0] == basis([2, 2], (0, 0))
    # no invariant vector in an odd total weight space
    assert hwv_space_basis(TensorSpace((2, 2, 2)), 1) == []
    assert hwv_space_basis(TensorSpace((2, 2)), 2) == []
    out4 = hwv_space_basis(TensorSpace((3, 3)), 1)
    assert len(out4) == 1
    assert is_hwv(out4[0], 1)


def test_is_hwv_acts_on_the_numerators_of_a_shared_denominator():
    # hwv_pair(5, 5, 4) has five coefficients over one denominator; the
    # check acts on their numerators, and still tells a rational vector
    # that E does not kill
    v = hwv_pair(5, 5, 4)
    assert len(v.coeffs) == 5 and len({c.den for c in v.coeffs.values()}) == 1
    assert not next(iter(v.coeffs.values())).den.is_one()
    assert is_hwv(v, None) and is_hwv(v, 1) and not is_hwv(v, 3)
    s = QScalar(LaurentPoly({0: 1, 1: 2}), LaurentPoly({0: 3, 2: 1}))
    assert is_hwv(v.scale(s), 1)
    off = TensorVector(v.space, {idx: c for idx, c in v.coeffs.items() if idx != (0, 4)})
    assert not act("E", off).is_zero() and not is_hwv(off, None)
    lone = TensorVector(TensorSpace((2, 3)), {(1, 0): s, (0, 1): s})
    assert not is_hwv(lone, None)


def test_is_hwv_is_kept_per_vector_and_weight():
    # E.v = 0 alone (d None) or with the K eigenvalue q^(d-1); a vector of
    # two weights is killed by E but is no K eigenvector.  The gate runs
    # once per vector, whatever d is asked, and an equal vector built
    # afresh reads the kept answer
    space = TensorSpace((2, 2, 2, 2))
    v = hwv_space_basis(space, 1)[0]
    mixed = v + hwv_space_basis(space, 3)[0]
    _hwv_weights.cache_clear()
    assert is_hwv(v, None) and is_hwv(v, 1) and not is_hwv(v, 3)
    assert _hwv_weights.cache_info().misses == 1
    assert is_hwv(mixed, None) and not is_hwv(mixed, 1) and not is_hwv(mixed, 3)
    assert not is_hwv(basis([2, 2, 2, 2], (1, 0, 0, 0)), None)
    assert _hwv_weights.cache_info().misses == 3
    hits = _hwv_weights.cache_info().hits
    assert is_hwv(TensorVector(space, dict(v.coeffs)), 1)
    assert _hwv_weights.cache_info().hits == hits + 1
    assert _hwv_weights.cache_info().misses == 3


def _gate_inputs():
    # every vector of every summand of the anchor-free spaces, every basis
    # vector of (2,3,2), a sum of two weights, a rational multiple and zero
    for dims in ANCHOR_FREE_SPACES:
        for d in range(sum(di - 1 for di in dims) + 1, 0, -2):
            yield from hwv_space_basis(TensorSpace(dims), d)
    yield from (basis([2, 3, 2], idx) for idx in product(range(2), range(3), range(2)))
    space = TensorSpace((2, 2, 2, 2))
    yield hwv_space_basis(space, 1)[0] + hwv_space_basis(space, 3)[1]
    yield hwv_space_basis(space, 1)[1].scale(QScalar(LaurentPoly({0: 1, 1: 2}),
                                                     LaurentPoly({0: 3, 2: 1, 3: -1})))
    yield TensorVector(TensorSpace((2, 3, 2)), {})


def test_the_gate_agrees_with_an_independent_action():
    # is_hwv at every d against E and K acting through the resummed
    # coproduct; a vector the gate calls trivial is also killed by F, and
    # r_plus and r_minus take exactly those vectors
    inputs = list(_gate_inputs())
    assert len(inputs) == 263 + 12 + 3
    trivial = 0
    for v in inputs:
        kills = act_by_resumming("E", v).is_zero()
        kv = act_by_resumming("K", v)
        top = sum(di - 1 for di in v.space.dims) + 1
        assert is_hwv(v, None) == kills
        for d in range(1, top + 2):
            assert is_hwv(v, d) == (kills and kv == v.scale(QP(d - 1))), (v, d)
        if not is_hwv(v, 1):
            for r in (r_plus, r_minus):
                with pytest.raises(ValueError, match="^not a trivial-subrepresentation vector$"):
                    r(v)
            continue
        trivial += 1
        assert act_by_resumming("F", v).is_zero()
        assert r_plus(v).space.dims == v.space.dims[:-1]
        assert r_minus(v).space.dims == v.space.dims[1:]
    # the 40 trivial basis vectors of the spaces, the multiple and zero
    assert trivial == 42


# the spaces on which the elimination kernel takes at most half a second,
# with every weight of (2,)^n
ELIMINATION_SPACES = [
    ((2,) * n, d) for n in range(2, 7) for d in range(n % 2 + 1, n + 2, 2)
] + [((3,) * 4, 1), ((3,) * 4, 3), ((2, 2, 2, 3, 3), 2), ((2, 2, 2, 2, 3), 1),
     ((3, 2, 3, 2), 1), ((3, 2, 2, 3, 2), 2)]


@pytest.mark.parametrize("dims,d", ELIMINATION_SPACES)
def test_fusion_basis_equals_elimination_reference(dims, d):
    space = TensorSpace(dims)
    assert hwv_space_basis(space, d) == hwv_basis_by_elimination(space, d)


# -- exact elimination ----------------------------------------------------

_polys = st.builds(LaurentPoly, st.dictionaries(st.integers(-2, 2), st.integers(1, 3)
                                                | st.integers(-3, -1), min_size=1, max_size=3))
_entries = st.one_of(
    st.just(Q_ZERO),
    _polys.map(QScalar.from_poly),
    st.builds(QScalar, _polys, _polys),
)


@st.composite
def _matrices(draw):
    """A small matrix over Q(q) with zero columns, rows that start at
    different columns, a dependent and a zero row, in any row order, and
    the number of leading columns to reduce over."""
    width = draw(st.integers(1, 5))
    zero_cols = draw(st.sets(st.integers(0, width - 1), max_size=width - 1))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.integers(0, width - 1))
        rows.append([Q_ZERO if c < lead or c in zero_cols else draw(_entries)
                     for c in range(width)])
    if draw(st.booleans()):
        a, b = draw(_entries), draw(_entries)
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.append([Q_ZERO] * width)
    return draw(st.permutations(rows)), draw(st.integers(0, width))


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_equals_gauss_jordan(case):
    # the reduced echelon form is unique: back substitution with exact
    # division must give the normalize-then-clear elimination's rows
    rows, ncols = case
    assert _rref(rows, ncols) == gauss_jordan(rows, ncols)


def _matmul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Q_ZERO)
             for j in range(len(b[0]))] for row in a]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.booleans())
def test_invert_matrix_is_exact(mat, singular):
    n = len(mat)
    if singular and n > 1:
        # the last row a combination of the others
        mat = mat[:-1] + [[sum((QP(k) * row[j] for k, row in enumerate(mat[:-1])), Q_ZERO)
                           for j in range(n)]]
    if len(gauss_jordan(mat, n)[1]) < n:
        with pytest.raises(ArithmeticError, match="singular"):
            _invert_matrix(mat)
        return
    eye = [[Q_ONE if i == j else Q_ZERO for j in range(n)] for i in range(n)]
    assert _matmul(_invert_matrix(mat), mat) == eye


def _cg_multiplicity(dims, d):
    """Multiplicity of M_d from the character: the number of basis indices
    of weight d-1 minus the number of weight d+1."""
    weights = [sum(dd - 1 - 2 * l for dd, l in zip(dims, idx))
               for idx in product(*map(range, dims))]
    return weights.count(d - 1) - weights.count(d + 1)


@pytest.mark.parametrize("dims", [(1,), (5,), (2, 2), (1, 2, 3), (2, 3, 4),
                                  (4, 2, 3), (3, 3, 3, 3), (2, 2, 2, 3, 3),
                                  (3, 2, 2, 3, 2), (4, 4, 4, 4), (3,) * 5])
def test_basis_sizes_are_clebsch_gordan_multiplicities(dims):
    top = 1 + sum(dd - 1 for dd in dims)
    # there is no summand M_d with d < 1; one above every summand (d = top
    # + 1) has multiplicity zero and an empty basis
    for d in (0, -1):
        with pytest.raises(ValueError, match="must be a positive integer"):
            hwv_space_basis(TensorSpace(dims), d)
    for d in range(1, top + 2):
        out = hwv_space_basis(TensorSpace(dims), d)
        assert len(out) == _cg_multiplicity(dims, d), d
        for v in out:
            assert act("E", v).is_zero()
            assert act("K", v) == v.scale(QP(d - 1))
            assert v.coeffs[min(v.coeffs)] == Q_ONE


# -- rotation maps --------------------------------------------------------


def test_r_plus_example():
    comm = QScalar.from_poly(LaurentPoly({1: 1, -1: -1}))
    u = r_plus(hwv_pair(2, 2, 1))
    assert u == TensorVector(TensorSpace((2,)), {(0,): comm.inverse()})
    assert is_hwv(u, 2)


def r_plus_inv(u, d):
    """Rebuild the invariant vector of M_d tensor (printed left) from its
    highest component; the inverse of r_plus."""
    space = TensorSpace(u.space.dims + (d,))
    coeffs = {}
    w = u
    for l in range(d - 1, -1, -1):
        a = QScalar.q_power((l + 1) * (d - 1 - l), (-1) ** (d - 1 - l))
        for idx, c in w.coeffs.items():
            full = idx + (l,)
            coeffs[full] = coeffs.get(full, Q_ZERO) + a * c
        if l > 0:
            w = act("F", w)
    return TensorVector(space, coeffs)


def test_r_maps_reject_non_invariant_vectors():
    with pytest.raises(ValueError, match="trivial-subrepresentation"):
        r_plus(basis([2, 2], (0, 1)))
    with pytest.raises(ValueError, match="trivial-subrepresentation"):
        r_minus(basis([2, 2], (0, 0)))
    with pytest.raises(ValueError, match="highest weight"):
        r_minus_inv(basis([2], (1,)), 2)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (3, 2, 2, 3)])
def test_r_round_trips(dims):
    space = TensorSpace(dims)
    for v in hwv_space_basis(space, 1):
        up = r_plus(v)
        assert is_hwv(up, dims[-1])
        assert r_plus_inv(up, dims[-1]) == v
        um = r_minus(v)
        assert is_hwv(um, dims[0])
        assert r_minus_inv(um, dims[0]) == v


def test_r_maps_are_bijections_onto_hwv_spaces():
    for dims in [(2, 2, 2, 2), (3, 2, 3)]:
        space = TensorSpace(dims)
        h1 = hwv_space_basis(space, 1)
        hplus = hwv_space_basis(TensorSpace(dims[:-1]), dims[-1])
        assert len(h1) == len(hplus)


def test_s_operator_rotates_and_preserves_invariance():
    v = hwv_pair(2, 2, 1)
    sv = s_operator(v)
    assert sv.space.dims == (2, 2)
    assert sv == v.scale(QP(-1, -1))  # -1/q times v
    for b in hwv_space_basis(TensorSpace((3, 2, 2, 3)), 1):
        sb = s_operator(b)
        assert sb.space.dims == (3, 3, 2, 2)
        assert act("E", sb).is_zero() and act("F", sb).is_zero()
        assert act("K", sb) == sb


def test_cyclic_constant_pair():
    assert cyclic_constant(TensorSpace((2, 2))) == QP(-2)


def test_cyclic_constant_four_points():
    lam = cyclic_constant(TensorSpace((2, 2, 2, 2)))
    # proportionality on a 2-dimensional space is the real content; the
    # scalar itself is pinned as a regression value
    assert lam == QP(-4)


def test_cyclic_constant_matches_weight_sum():
    # observed closed form: the cycle acts by q^(-sum(d_i - 1))
    for dims in [(2, 2), (3, 3), (2, 3, 3, 2)]:
        expected = QP(-sum(d - 1 for d in dims))
        assert cyclic_constant(TensorSpace(dims)) == expected


def test_cyclic_constant_rejects_zero_space():
    with pytest.raises(ValueError):
        cyclic_constant(TensorSpace((2, 3)))


# -- structure and serialization ------------------------------------------


def test_space_validation():
    with pytest.raises(ValueError):
        TensorSpace(())
    with pytest.raises(ValueError):
        TensorVector(TensorSpace((2, 2)), {(0, 5): Q_ONE})


def test_serialization_order():
    v = hwv_pair(2, 2, 1)
    s = str(v)
    assert "e_1⊗e_0" in s and "e_0⊗e_1" in s
    assert str(TensorVector(TensorSpace((2,)))) == "0"
    rng = random.Random(1)
    w = random_vector((2, 3), rng)
    assert " * " in str(w)
