from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke import linalg
from skewhecke.scalars import PrimeField, Rationals

Q = Rationals()
F7 = PrimeField(7)


def small_matrix(field, rows, cols):
    if field.characteristic == 0:
        entry = st.integers(min_value=-5, max_value=5).map(Fraction)
    else:
        entry = st.integers(min_value=0, max_value=field.characteristic - 1)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def mat_vec(field, rows, x):
    out = []
    for r in rows:
        acc = field.zero
        for a, b in zip(r, x):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


@settings(max_examples=200)
@given(small_matrix(Q, 3, 4))
def test_rref_pivots_and_rank(m):
    red, pivots = linalg.rref(Q, m)
    assert linalg.rank(Q, m) == len(pivots)
    for i, pc in enumerate(pivots):
        assert red[i][pc] == Q.one
        for k in range(len(red)):
            if k != i:
                assert Q.is_zero(red[k][pc])


@settings(max_examples=200)
@given(small_matrix(Q, 3, 5))
def test_nullspace_annihilated(m):
    ns = linalg.nullspace(Q, m, ncols=5)
    assert len(ns) == 5 - linalg.rank(Q, m)
    for v in ns:
        assert all(Q.is_zero(c) for c in mat_vec(Q, m, v))


@settings(max_examples=200)
@given(small_matrix(F7, 4, 4), st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_solve_prime_field(m, rhs):
    x = linalg.solve(F7, m, rhs)
    if x is None:
        # rhs outside the column span: ranks must differ
        aug = [r + [b] for r, b in zip(m, rhs)]
        assert linalg.rank(F7, aug) == linalg.rank(F7, m) + 1
    else:
        assert [c % 7 for c in mat_vec(F7, m, x)] == [b % 7 for b in rhs]


def test_solve_inconsistent():
    m = [[Q.one, Q.one], [Q.one, Q.one]]
    assert linalg.solve(Q, m, [Q.one, Q.zero]) is None


def test_span_basis_membership():
    sb = linalg.SpanBasis(Q, 3)
    v1 = [Q.one, Q.zero, Q.one]
    v2 = [Q.zero, Q.one, Q.one]
    assert sb.insert(v1)
    assert sb.insert(v2)
    assert not sb.insert([Q.one, Q.one, Fraction(2)])  # v1 + v2
    assert sb.dim == 2
    assert sb.contains([Fraction(3), Fraction(-1), Fraction(2)])
    assert not sb.contains([Q.one, Q.zero, Q.zero])


def test_coordinate_solver_exact():
    vectors = [
        [Q.one, Q.zero, Q.one],
        [Q.zero, Q.one, Fraction(2)],
    ]
    cs = linalg.CoordinateSolver(Q, vectors, n=3)
    coords = cs.coordinates(enumerate([Fraction(2), Fraction(3), Fraction(8)]))
    assert coords == {0: Fraction(2), 1: Fraction(3)}
    assert cs.coordinates(enumerate([Q.one, Q.zero, Q.zero])) is None
    # sparse input: absent columns are zero
    assert cs.coordinates([(2, Fraction(8)), (0, Fraction(2)), (1, Fraction(3))]) == coords


def dense_coordinates(field, vectors, n, v):
    """Reference solve: T from rref([B | I]), then w = T v row by row (dense dots)."""
    m = len(vectors)
    aug = [[vectors[j][i] for j in range(m)]
           + [field.one if k == i else field.zero for k in range(n)] for i in range(n)]
    red, pivots = linalg.rref(field, aug)
    pivots = [p for p in pivots if p < m]
    transform = [row[m:] for row in red]
    w = []
    for row in transform:
        acc = field.zero
        for a, b in zip(row, v):
            if not (field.is_zero(a) or field.is_zero(b)):
                acc = field.add(acc, field.mul(a, b))
        w.append(acc)
    if any(not field.is_zero(x) for x in w[len(pivots):]):
        return None
    coords = [field.zero] * m
    for i, pc in enumerate(pivots):
        coords[pc] = w[i]
    return coords


@settings(max_examples=150)
@given(st.sampled_from([Q, F7]), st.data())
def test_sparse_coordinates_match_dense(field, data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(0, n))
    span = linalg.SpanBasis(field, n)
    for v in data.draw(small_matrix(field, m, n)):
        span.insert(v)
    vectors = span.originals
    cs = linalg.CoordinateSolver(field, vectors, n=n)
    inside = data.draw(st.lists(st.integers(-3, 3), min_size=len(vectors),
                                max_size=len(vectors)))
    v_in = [field.zero] * n
    for c, b in zip(inside, vectors):
        v_in = [field.add(x, field.mul(field.from_int(c), y)) for x, y in zip(v_in, b)]
    v_any = data.draw(small_matrix(field, 1, n))[0]
    for v in (v_in, v_any):
        expected = dense_coordinates(field, vectors, n, v)
        if expected is not None:
            expected = {i: c for i, c in enumerate(expected) if not field.is_zero(c)}
        assert cs.coordinates(enumerate(v)) == expected
        nonzero = [(j, x) for j, x in enumerate(v) if not field.is_zero(x)]
        assert cs.coordinates(reversed(nonzero)) == expected
    inside = [field.from_int(c) for c in inside]
    assert cs.coordinates(enumerate(v_in)) == {
        i: c for i, c in enumerate(inside) if not field.is_zero(c)}
    if len(vectors) < n:
        # some unit vector lies outside a proper subspace
        units = [[field.one if k == j else field.zero for k in range(n)] for j in range(n)]
        outside = [u for u in units if not span.contains(u)]
        assert outside
        for u in outside:
            assert cs.coordinates(enumerate(u)) is None
            assert dense_coordinates(field, vectors, n, u) is None


def test_coordinate_solver_rejects_dependent():
    with pytest.raises(ValueError):
        linalg.CoordinateSolver(
            Q, [[Q.one, Q.zero], [Fraction(2), Q.zero]], n=2
        )


def test_empty_matrix_nullspace_is_everything():
    ns = linalg.nullspace(Q, [], ncols=3)
    assert len(ns) == 3
