from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke import linalg
from skewhecke.algebras import FunctionAlgebra, MatrixAlgebra, left_translation_action
from skewhecke.groups import symmetric_group
from skewhecke.scalars import PrimeField, Rationals
from skewhecke.skewgroup import SkewGroupAlgebra

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


def vec(field, v):
    """A dense vector as the coefficient map linalg takes: {position: entry},
    zeros dropped."""
    return {j: x for j, x in enumerate(v) if not field.is_zero(x)}


def maps(field, rows):
    return [vec(field, r) for r in rows]


def to_list(field, v, ncols):
    """A coefficient map over 0..ncols-1 back as a list."""
    return [v.get(j, field.zero) for j in range(ncols)]


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
    red, pivots = linalg.rref(Q, maps(Q, m))
    red = [to_list(Q, r, 4) for r in red]
    assert linalg.rank(Q, maps(Q, m)) == len(pivots)
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
    ncols = len(rows[0]) if rows else 0
    sparse = maps(field, rows)
    before = [dict(r) for r in sparse]
    red, pivots = linalg.rref(field, sparse)
    assert sparse == before  # the input is not modified
    red = [to_list(field, r, ncols) for r in red]
    assert len(red) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, pc in zip(red, pivots):
        assert all(field.is_zero(x) for x in row[:pc])
        assert row[pc] == field.one
        assert all(field.is_zero(row[p]) for p in pivots if p != pc)
    # the span is kept: each input row is the combination its pivot entries give
    for r in rows:
        assert combination(field, [r[p] for p in pivots], red, ncols) == r
    span = linalg.SpanBasis(field)
    for r in sparse:
        span.insert(r)
    assert linalg.rank(field, sparse) == span.dim == len(pivots)


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "GF2", "GF7"])
def test_rref_of_empty_and_zero_matrices(field):
    assert linalg.rref(field, []) == ([], [])
    assert linalg.rref(field, maps(field, [[]])) == ([], [])
    assert linalg.rref(field, maps(field, [[field.zero] * 3] * 4)) == ([], [])
    assert linalg.rank(field, maps(field, [[field.zero] * 3] * 4)) == 0


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "GF2", "GF7"])
def test_solve_with_zero_width_rows(field):
    rows = maps(field, [[], []])
    assert linalg.solve(field, rows, vec(field, [field.zero, field.zero])) == {}
    assert linalg.solve(field, rows, vec(field, [field.zero, field.one])) is None


@settings(max_examples=200)
@given(small_matrix(Q, 3, 5))
def test_nullspace_annihilated(m):
    ns = linalg.CoordinateSolver(Q, maps(Q, m), 5).basis
    assert len(ns) == 5 - linalg.rank(Q, maps(Q, m))
    for v in ns:
        assert all(Q.is_zero(c) for c in mat_vec(Q, m, to_list(Q, v, 5)))


@settings(max_examples=200)
@given(small_matrix(F7, 4, 4), st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_solve_prime_field(m, rhs):
    x = linalg.solve(F7, maps(F7, m), vec(F7, rhs))
    if x is None:
        # rhs outside the column span: ranks must differ
        aug = [r + [b] for r, b in zip(m, rhs)]
        assert linalg.rank(F7, maps(F7, aug)) == linalg.rank(F7, maps(F7, m)) + 1
    else:
        x = to_list(F7, x, 4)
        assert [c % 7 for c in mat_vec(F7, m, x)] == [b % 7 for b in rhs]


def test_solve_inconsistent():
    m = [[Q.one, Q.one], [Q.one, Q.one]]
    assert linalg.solve(Q, maps(Q, m), vec(Q, [Q.one, Q.zero])) is None


def test_span_basis_membership():
    sb = linalg.SpanBasis(Q)
    v1 = [Q.one, Q.zero, Q.one]
    v2 = [Q.zero, Q.one, Q.one]
    assert sb.insert(vec(Q, v1))
    assert sb.insert(vec(Q, v2))
    assert not sb.insert(vec(Q, [Q.one, Q.one, Fraction(2)]))  # v1 + v2
    assert sb.dim == 2
    assert sb.contains(vec(Q, [Fraction(3), Fraction(-1), Fraction(2)]))
    assert not sb.contains(vec(Q, [Q.one, Q.zero, Q.zero]))


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
    cs = linalg.CoordinateSolver(field, maps(field, rows), ncols)
    basis = [to_list(field, b, ncols) for b in cs.basis]
    # the basis spans the kernel: annihilated, independent, of dimension ncols - rank
    assert len(cs.basis) == ncols - linalg.rank(field, maps(field, rows))
    assert linalg.rank(field, cs.basis) == len(cs.basis)
    for b in basis:
        assert all(field.is_zero(x) for x in mat_vec(field, rows, b))
    coeffs = data.draw(st.lists(field_value(field), min_size=len(cs.basis),
                                max_size=len(cs.basis)))
    v = combination(field, coeffs, basis, ncols)
    assert cs.coordinates(enumerate(v)) == {
        i: c for i, c in enumerate(coeffs) if not field.is_zero(c)}


@settings(max_examples=200)
@given(kernel_problem(), st.data())
def test_solver_rejects_exactly_the_vectors_outside_the_kernel(problem, data):
    field, rows, ncols = problem
    cs = linalg.CoordinateSolver(field, maps(field, rows), ncols)
    basis = [to_list(field, b, ncols) for b in cs.basis]
    v = data.draw(st.lists(field_value(field), min_size=ncols, max_size=ncols))
    coords = cs.coordinates(enumerate(v))
    outside = any(not field.is_zero(x) for x in mat_vec(field, rows, v))
    assert (coords is None) == outside
    if coords is not None:
        dense = [coords.get(i, field.zero) for i in range(len(cs.basis))]
        assert combination(field, dense, basis, ncols) == v


@settings(max_examples=200)
@given(kernel_problem(), st.data())
def test_solver_ignores_term_order_and_zero_entries(problem, data):
    field, rows, ncols = problem
    cs = linalg.CoordinateSolver(field, maps(field, rows), ncols)
    basis = [to_list(field, b, ncols) for b in cs.basis]
    inside = combination(
        field, data.draw(st.lists(field_value(field), min_size=len(cs.basis),
                                  max_size=len(cs.basis))), basis, ncols)
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


def with_dependent_rows(draw, field, rows):
    """rows with one to three rows mixed in that depend on them: a repeat, a
    negation (it cancels its row), or a difference or sum of two rows, so
    inserts reduce and some reduce to zero."""
    one = field.one
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        extra = draw(st.sampled_from([
            dict(a),
            linalg.add_into(field, {}, a, field.neg(one)),
            linalg.add_into(field, dict(a), b, field.neg(one)),
            linalg.add_into(field, dict(a), b),
        ]))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


def coefficient_maps(field, keys):
    nonzero = field_value(field).filter(lambda x: not field.is_zero(x))
    return st.dictionaries(keys, nonzero, max_size=4)


@settings(max_examples=200)
@given(st.sampled_from([Q, F2, F7]), st.data())
def test_elimination_leaves_its_map_arguments_unmodified(field, data):
    # callers pass an element's own coeffs, so a reduce in place would corrupt it
    ncols = 6
    rows = data.draw(st.lists(coefficient_maps(field, st.integers(0, ncols - 1)),
                              min_size=1, max_size=6))
    rows = with_dependent_rows(data.draw, field, rows)
    rhs = data.draw(coefficient_maps(field, st.integers(0, len(rows) - 1)))
    before = [dict(r) for r in rows]
    rhs_before = dict(rhs)
    span = linalg.SpanBasis(field)
    for r in rows:
        span.contains(r)
        span.insert(r)
    assert all(span.contains(r) for r in rows)
    assert not any(kept is r for kept in span.rows for r in rows)
    red, _ = linalg.rref(field, rows)
    assert not any(kept is r for kept in red for r in rows)
    linalg.solve(field, rows, rhs)
    cs = linalg.CoordinateSolver(field, rows, ncols)
    for r in rows:
        cs.coordinates(r.items())
    assert rows == before
    assert rhs == rhs_before


def skew_group_labels():
    """The (l, g) labels of R^{S3} x| S3."""
    G = symmetric_group(3)
    A = FunctionAlgebra(Q, G)
    return SkewGroupAlgebra(A, G, left_translation_action(G, A)).labels()


LABEL_SETS = {
    "skew_group_pairs": skew_group_labels(),
    "matrix_units": MatrixAlgebra(Q, 4).labels(),
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(LABEL_SETS)), st.sampled_from([Q, F7]), st.data())
def test_label_keyed_maps_eliminate_as_their_int_renumbering(name, field, data):
    labels = LABEL_SETS[name]
    assert all(isinstance(l, tuple) for l in labels)
    # any numbering will do, so one that disagrees with the label order
    number = dict(zip(labels, data.draw(st.permutations(range(len(labels))))))

    def renumber(v):
        return {number[l]: x for l, x in v.items()}

    label_maps = coefficient_maps(field, st.sampled_from(labels))
    rows = data.draw(st.lists(label_maps, min_size=1, max_size=6))
    rows = with_dependent_rows(data.draw, field, rows)
    assert linalg.rank(field, rows) == linalg.rank(field, [renumber(r) for r in rows])
    by_label, by_int = linalg.SpanBasis(field), linalg.SpanBasis(field)
    for r in rows:
        assert by_label.insert(r) == by_int.insert(renumber(r))
    inside = linalg.add_into(field, dict(rows[0]), rows[-1], field.from_int(2))
    assert by_label.contains(inside)
    for v in [inside, {}] + data.draw(st.lists(label_maps, max_size=3)):
        assert by_label.contains(v) == by_int.contains(renumber(v))
