from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke import linalg
from skewhecke.scalars import PrimeField, Rationals

from reference_shapes import assert_canonical

Q = Rationals()
F2 = PrimeField(2)
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


@st.composite
def elimination_input(draw):
    """(field, rows) over Q, GF(2) or GF(7): up to 8 rows of width 1..5, so often
    more rows than columns, with zero and repeated rows mixed in."""
    field = draw(st.sampled_from([Q, F2, F7]))
    ncols = draw(st.integers(1, 5))
    if field.characteristic == 0:
        entry = st.builds(lambda a, b: Q.mul(Q.from_int(a), Q.inv(Q.from_int(b))),
                          st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, field.characteristic - 1)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        extra = (list(draw(st.sampled_from(rows))) if rows and draw(st.booleans())
                 else [field.zero] * ncols)
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return field, rows


@settings(max_examples=300)
@given(elimination_input())
def test_rref_is_the_reduced_echelon_form_of_the_span(problem):
    field, rows = problem
    before = [list(r) for r in rows]
    red, pivots = linalg.rref(field, rows)
    assert rows == before  # the input is not modified
    assert len(red) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, pc in zip(red, pivots):
        assert all(field.is_zero(x) for x in row[:pc])
        assert row[pc] == field.one
        assert all(field.is_zero(row[p]) for p in pivots if p != pc)
    # the span is kept: each input row is the combination its pivot entries give
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        assert combination(field, [r[p] for p in pivots], red, ncols) == r
    span = linalg.SpanBasis(field, ncols)
    for r in rows:
        span.insert(r)
    assert linalg.rank(field, rows) == span.dim == len(pivots)


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "GF2", "GF7"])
def test_rref_of_empty_and_zero_matrices(field):
    assert linalg.rref(field, []) == ([], [])
    assert linalg.rref(field, [[]]) == ([], [])
    assert linalg.rref(field, [[field.zero] * 3] * 4) == ([], [])
    assert linalg.rank(field, [[field.zero] * 3] * 4) == 0


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "GF2", "GF7"])
def test_solve_with_zero_width_rows(field):
    assert linalg.solve(field, [[], []], [field.zero, field.zero]) == []
    assert linalg.solve(field, [[], []], [field.zero, field.one]) is None


@settings(max_examples=200)
@given(small_matrix(Q, 3, 5))
def test_nullspace_annihilated(m):
    ns = linalg.CoordinateSolver(Q, m, 5).basis
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


def field_value(field):
    if field.characteristic == 0:
        return st.integers(-4, 4).map(Q.from_int)
    return st.integers(0, field.characteristic - 1)


@st.composite
def kernel_problem(draw):
    """(field, rows, ncols) over Q or GF(7), with repeated and zero rows allowed."""
    field = draw(st.sampled_from([Q, F7]))
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(field_value(field), min_size=ncols, max_size=ncols),
                         max_size=5))
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    return field, rows, ncols


def combination(field, coeffs, vectors, ncols):
    v = [field.zero] * ncols
    for c, b in zip(coeffs, vectors):
        v = [field.add(x, field.mul(c, y)) for x, y in zip(v, b)]
    return v


@settings(max_examples=200)
@given(kernel_problem(), st.data())
def test_solver_coordinates_recover_combinations(problem, data):
    field, rows, ncols = problem
    cs = linalg.CoordinateSolver(field, rows, ncols)
    # the basis spans the kernel: annihilated, independent, of dimension ncols - rank
    assert len(cs.basis) == ncols - linalg.rank(field, rows)
    assert linalg.rank(field, cs.basis) == len(cs.basis)
    for b in cs.basis:
        assert all(field.is_zero(x) for x in mat_vec(field, rows, b))
    coeffs = data.draw(st.lists(field_value(field), min_size=len(cs.basis),
                                max_size=len(cs.basis)))
    v = combination(field, coeffs, cs.basis, ncols)
    assert cs.coordinates(enumerate(v)) == {
        i: c for i, c in enumerate(coeffs) if not field.is_zero(c)}


@settings(max_examples=200)
@given(kernel_problem(), st.data())
def test_solver_rejects_exactly_the_vectors_outside_the_kernel(problem, data):
    field, rows, ncols = problem
    cs = linalg.CoordinateSolver(field, rows, ncols)
    v = data.draw(st.lists(field_value(field), min_size=ncols, max_size=ncols))
    coords = cs.coordinates(enumerate(v))
    outside = any(not field.is_zero(x) for x in mat_vec(field, rows, v))
    assert (coords is None) == outside
    if coords is not None:
        dense = [coords.get(i, field.zero) for i in range(len(cs.basis))]
        assert combination(field, dense, cs.basis, ncols) == v


@settings(max_examples=200)
@given(kernel_problem(), st.data())
def test_solver_ignores_term_order_and_zero_entries(problem, data):
    field, rows, ncols = problem
    cs = linalg.CoordinateSolver(field, rows, ncols)
    inside = combination(
        field, data.draw(st.lists(field_value(field), min_size=len(cs.basis),
                                  max_size=len(cs.basis))), cs.basis, ncols)
    anywhere = data.draw(st.lists(field_value(field), min_size=ncols, max_size=ncols))
    for v in (inside, anywhere):
        expected = cs.coordinates(enumerate(v))
        if expected is not None:
            assert list(expected) == sorted(expected)
        nonzero = [(j, x) for j, x in enumerate(v) if not field.is_zero(x)]
        assert cs.coordinates(nonzero) == expected
        shuffled = data.draw(st.permutations(list(enumerate(v))))
        got = cs.coordinates(shuffled)
        assert got == expected
        if got is not None:
            assert list(got) == sorted(got)


def naive_add(field, out, coeffs, c):
    """out + c * coeffs as a new dict (c None means 1), zeros dropped at the end."""
    total = dict(out)
    for l, x in coeffs.items():
        y = x if c is None else field.mul(c, x)
        total[l] = field.add(total.get(l, field.zero), y)
    return {l: x for l, x in total.items() if not field.is_zero(x)}


@settings(max_examples=300)
@given(st.sampled_from([Q, F7]), st.data())
def test_add_into_matches_a_naive_sum(field, data):
    nonzero = field_value(field).filter(lambda x: not field.is_zero(x))
    labels = st.integers(0, 5)
    out = data.draw(st.dictionaries(labels, nonzero, max_size=5))
    coeffs = data.draw(st.dictionaries(labels, nonzero, max_size=5))
    c = data.draw(st.sampled_from([None, field.zero, field.one, field.from_int(3)]))
    if data.draw(st.booleans()):
        # cancellation: out holds -c * coeffs on some labels
        for l, x in coeffs.items():
            if data.draw(st.booleans()):
                out[l] = field.neg(x if c is None else field.mul(c, x))
        out = {l: x for l, x in out.items() if not field.is_zero(x)}
    expected = naive_add(field, out, coeffs, c)
    result = linalg.add_into(field, out, coeffs, c)
    assert result is out
    assert result == expected
    assert not any(field.is_zero(x) for x in result.values())
    for x in result.values():
        assert_canonical(x, field)


def test_empty_matrix_nullspace_is_everything():
    ns = linalg.CoordinateSolver(Q, [], 3).basis
    assert len(ns) == 3
