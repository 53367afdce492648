import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke.algebras import (
    BasedAlgebra,
    FunctionAlgebra,
    GroupAction,
    GroupAlgebra,
    InvariantSubalgebra,
    MatrixAlgebra,
    OppositeAlgebra,
    PolynomialAlgebra,
    StructureConstantAlgebra,
    TensorAlgebra,
    cocycle_perturbed_action,
    conjugation_action,
    element_inverse,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
    scalar_algebra,
    tensor_product_action,
    trivial_action,
)
from skewhecke.groups import (
    cyclic_group,
    full_subgroup,
    subgroup_from_generators,
    symmetric_group,
)
from skewhecke.hecke import HeckeContext
from skewhecke.scalars import NotAUnitError, PrimeField, Rationals
from skewhecke.skewgroup import SkewGroupAlgebra

from reference_shapes import (
    assert_canonical,
    averaging_image,
    check_associativity,
    reference_mul,
)

Q = Rationals()
S3 = symmetric_group(3)


def t(name):
    return S3.element_by_name(name)


@pytest.fixture
def poly():
    return PolynomialAlgebra(Q, 3, 6)


# -- algebra families --------------------------------------------------------


@pytest.mark.parametrize(
    "A",
    [
        GroupAlgebra(Q, S3),
        FunctionAlgebra(Q, S3),
        MatrixAlgebra(Q, 3),
        TensorAlgebra(GroupAlgebra(Q, S3), MatrixAlgebra(Q, 2)),
        OppositeAlgebra(MatrixAlgebra(Q, 2)),
        scalar_algebra(PrimeField(5)),
    ],
)
def test_families_associative_unital(A):
    assert check_associativity(A, max_triples=500, rng=random.Random(0)) == []


def test_structure_constant_table_zeros_are_not_stored():
    # an explicit zero in the table must not become a stored zero of a product
    F5 = PrimeField(5)
    A = StructureConstantAlgebra(
        F5, 2, {(0, 0): {0: 1, 1: 0}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 0}},
        {0: 1})
    x = A.element({0: 2, 1: 3})
    assert (x * x).coeffs == {0: 4, 1: 2}
    assert (A.basis_element(1) * A.basis_element(1)).coeffs == {}


def test_element_and_table_values_are_canonical():
    # element() and the structure-constant table reduce each value on a copy
    F5 = PrimeField(5)
    A = scalar_algebra(F5)
    coeffs = {0: -1}
    assert A.element(coeffs) == A.element({0: 4})
    assert coeffs == {0: -1}
    assert A.element({0: 6}).coeffs == {0: 1}
    assert A.element({0: 10}).is_zero
    half = scalar_algebra(Q).element({0: Fraction(4, 2)}).coeffs[0]
    assert half == 2 and type(half) is int
    B = StructureConstantAlgebra(F5, 1, {(0, 0): {0: 6}}, {0: -4})
    assert B.product_on_basis(0, 0) == {0: 1}
    assert B.one().coeffs == {0: 1}


def test_factor_from_another_algebra_is_refused():
    # the product reads the left factor's table, so a right factor from
    # another algebra would be read as labels of the wrong group
    A, B = GroupAlgebra(Q, S3), GroupAlgebra(Q, cyclic_group(6))
    with pytest.raises(TypeError):
        A.basis_element(1) * B.basis_element(1)
    with pytest.raises(TypeError):
        B.basis_element(1) * A.basis_element(1)


def test_polynomial_associative(poly):
    assert check_associativity(poly, degree_cap=2, max_triples=300,
                               rng=random.Random(0)) == []


def test_polynomial_degree_enumeration(poly):
    assert poly.enumerate_degree(0) == [(0, 0, 0)]
    labels = poly.enumerate_degree(2)
    assert len(labels) == 6
    assert all(sum(l) == 2 for l in labels)
    with pytest.raises(ValueError):
        poly.enumerate_degree(7)  # beyond the enumeration cap


def test_polynomial_arithmetic_unbounded(poly):
    # products may exceed the enumeration cap; arithmetic must stay exact
    x1 = poly.variable(1)
    p = x1
    for _ in range(9):
        p = p * x1
    assert p == poly.basis_element((10, 0, 0))


def test_element_str_deterministic(poly):
    x1, x2 = poly.variable(1), poly.variable(2)
    e = x1 * x1 + x2.scale(Q.from_int(-2)) + poly.one()
    assert str(e) == "1 + -2*x2 + x1^2"


def test_tensor_pure_products():
    A = GroupAlgebra(Q, S3)
    B = MatrixAlgebra(Q, 2)
    T = TensorAlgebra(A, B)
    x = T.pure(A.basis_element(t("(1 2)")), B.basis_element((0, 1)))
    y = T.pure(A.basis_element(t("(1 3)")), B.basis_element((1, 0)))
    assert x * y == T.pure(
        A.basis_element(S3.mul(t("(1 2)"), t("(1 3)"))), B.basis_element((0, 0))
    )


def test_opposite_reverses_products():
    A = MatrixAlgebra(Q, 2)
    Aop = OppositeAlgebra(A)
    x, y = A.basis_element((0, 1)), A.basis_element((1, 0))
    assert Aop.from_op(Aop.to_op(x) * Aop.to_op(y)) == y * x


@settings(max_examples=200)
@given(st.sampled_from([Q, PrimeField(7)]), st.data())
def test_combination_matches_a_naive_sum(field, data):
    A = MatrixAlgebra(field, 2)
    values = st.integers(-3, 3).map(field.from_int)
    nonzero = values.filter(lambda x: not field.is_zero(x))
    elements = st.dictionaries(st.sampled_from(A.labels()), nonzero, max_size=4).map(
        lambda coeffs: A.element_class(A, coeffs))
    coeffs = st.sampled_from([None, field.zero, field.one]) | values
    terms = data.draw(st.lists(st.tuples(elements, coeffs), max_size=5))
    if terms and data.draw(st.booleans()):
        # cancellation: the first term again, negated
        x, c = terms[0]
        terms.append((x, field.neg(field.one if c is None else c)))
    naive: dict = {}
    for x, c in terms:
        for l, v in x.coeffs.items():
            v = v if c is None else field.mul(c, v)
            naive[l] = field.add(naive.get(l, field.zero), v)
    result = A.combination(iter(terms))
    assert type(result) is A.element_class and result.alg is A
    assert result.coeffs == {l: v for l, v in naive.items() if not field.is_zero(v)}
    assert not any(field.is_zero(v) for v in result.coeffs.values())


# -- actions -----------------------------------------------------------------


def test_permutation_action_verifies(poly):
    act = permutation_variable_action(S3, poly)
    assert act.verify(degree_cap=2).ok


def test_left_translation_action_verifies():
    A = FunctionAlgebra(Q, S3)
    assert left_translation_action(S3, A).verify().ok


def test_conjugation_action_verifies():
    A = GroupAlgebra(Q, S3)
    assert conjugation_action(S3, A).verify().ok


def test_broken_action_detected():
    A = GroupAlgebra(Q, S3)
    # "act" by right multiplication: not by algebra automorphisms
    bad = GroupAction(S3, A, lambda g, n: A.basis_element(S3.mul(n, g)))
    report = bad.verify()
    assert not report.ok
    assert any(check == "multiplicativity" for check, _ in report.failures)


def test_moved_by_names_the_first_moving_generator_in_order():
    A = FunctionAlgebra(Q, S3)
    act = left_translation_action(S3, A)
    t12, t23 = t("(1 2)"), t("(2 3)")
    e = A.basis_element(0)
    assert act.moved_by(e, [t12, t23]) == t12
    assert act.moved_by(e, [t23, t12]) == t23
    fixed_by_t12 = e + A.basis_element(t12)
    assert act.moved_by(fixed_by_t12, [t12, t23]) == t23
    assert act.moved_by(fixed_by_t12, [t12]) is None
    assert act.moved_by(A.one(), [t12, t23]) is None


# -- GroupAction.permutation ----------------------------------------------------


def test_permutation_of_left_translation_is_the_group_table():
    A = FunctionAlgebra(Q, S3)
    act = left_translation_action(S3, A)
    assert [act.permutation(g, A.labels()) for g in range(S3.order)] \
        == [list(row) for row in S3.table]


# (1 2) on the degree-2 monomials x1^2, x1x2, x1x3, x2^2, x2x3, x3^2
SWAP_12_DEGREE_2 = [3, 1, 4, 0, 2, 5]


def test_permutation_of_a_fresh_graded_action_on_one_degree():
    A = PolynomialAlgebra(Q, 3, 2)
    act = permutation_variable_action(S3, A)
    assert act.permutation(t("(1 2)"), A.basis_labels(2)) == SWAP_12_DEGREE_2


def test_permutation_of_signed_variables_in_degrees_one_and_two():
    # x_i -> sgn(g) x_{g(i)}: an odd g scales a degree-d monomial by (-1)^d
    A = PolynomialAlgebra(Q, 3, 2)
    plain = permutation_variable_action(S3, A)
    even = subgroup_from_generators(S3, [t("(1 2 3)")]).members
    act = GroupAction(S3, A, lambda g, l: plain.on_label(g, l).scale(
        Q.from_int(1 if g in even else (-1) ** sum(l))))
    assert act.permutation(t("(1 2)"), A.basis_labels(1)) is None
    assert act.permutation(t("(1 2)"), A.basis_labels(2)) == SWAP_12_DEGREE_2
    assert act.permutation(t("(1 2 3)"), A.basis_labels(1)) is not None


def test_permutation_is_none_unless_the_labels_are_permuted():
    # a zero image: tests/test_action_verify.py::test_zero_image_is_dropped
    A = FunctionAlgebra(Q, S3)
    collapse = GroupAction(S3, A, lambda g, l: A.basis_element(0 if g else l))
    assert collapse.permutation(1, A.labels()) is None
    assert collapse.permutation(0, A.labels()) == A.labels()
    # images outside the given labels; alpha_g's table still covers all of A,
    # so apply relabels without forming any image a second time
    calls, g = [], t("(1 2 3)")
    act = GroupAction(S3, A, lambda g, l: calls.append(l) or A.basis_element(S3.mul(g, l)))
    assert act.permutation(g, [0, g]) is None  # alpha_g(delta_g) = delta_{g^2}
    act.apply(g, A.one())
    assert sorted(calls) == A.labels()


def test_permutation_indexes_the_given_label_order():
    A = FunctionAlgebra(Q, S3)
    act = left_translation_action(S3, A)
    shuffled = [4, 0, 5, 2, 1, 3]
    for labels in (shuffled, A.labels()):  # the first call indexes shuffled
        for g in range(S3.order):
            assert act.permutation(g, labels) \
                == [labels.index(S3.mul(g, k)) for k in labels]


def test_action_on_element_linear(poly):
    act = permutation_variable_action(S3, poly)
    x1, x3 = poly.variable(1), poly.variable(3)
    g = t("(1 3)")
    assert act.apply(g, x1 + x3.scale(Q.from_int(2))) == x3 + x1.scale(
        Q.from_int(2)
    )


# -- invariants --------------------------------------------------------------


def test_polynomial_invariants_degree_one(poly):
    # under <(1 2)> the degree-1 invariants are spanned by x1 + x2 and x3
    act = permutation_variable_action(S3, poly)
    basis = invariants_compute(poly, [t("(1 2)")], act, degree=1)
    assert len(basis) == 2
    x1, x2, x3 = (poly.variable(i) for i in (1, 2, 3))
    from skewhecke.linalg import SpanBasis

    sb = SpanBasis(Q)
    for b in basis:
        sb.insert(b.coeffs)
    assert sb.contains((x1 + x2).coeffs)
    assert sb.contains(x3.coeffs)
    assert not sb.contains(x1.coeffs)


@pytest.mark.parametrize("gens", [["(1 2)"], ["(1 2 3)"], ["(1 2)", "(1 3)"]])
def test_invariants_match_averaging_oracle(gens, poly):
    act = permutation_variable_action(S3, poly)
    H = subgroup_from_generators(S3, [t(s) for s in gens])
    for d in range(4):
        fixed = invariants_compute(poly, H.generators(), act, degree=d)
        averaged = averaging_image(poly, H.elements, act, degree=d)
        from skewhecke.linalg import SpanBasis

        sb = SpanBasis(Q)
        for b in fixed:
            sb.insert(b.coeffs)
        assert sb.dim == len(averaged)
        assert all(sb.contains(a.coeffs) for a in averaged)


def test_invariant_subalgebra_closed():
    A = FunctionAlgebra(Q, S3)
    act = left_translation_action(S3, A)
    H = subgroup_from_generators(S3, [t("(1 2)")])
    inv = InvariantSubalgebra(A, H.generators(), act)
    assert inv.dim == 3  # functions on H\S3
    assert check_associativity(inv) == []
    # inclusion is multiplicative
    for a in inv.labels():
        for b in inv.labels():
            x, y = inv.basis_element(a), inv.basis_element(b)
            assert inv.include(x * y) == inv.include(x) * inv.include(y)


def test_invariant_subalgebra_express_rejects_noninvariant():
    A = FunctionAlgebra(Q, S3)
    act = left_translation_action(S3, A)
    H = subgroup_from_generators(S3, [t("(1 2)")])
    inv = InvariantSubalgebra(A, H.generators(), act)
    assert inv.express(A.basis_element(0)) is None


def test_finite_invariant_subalgebra_labels_are_indices():
    A = FunctionAlgebra(Q, S3)
    act = left_translation_action(S3, A)
    H = subgroup_from_generators(S3, [t("(1 2)")])
    inv = InvariantSubalgebra(A, H.generators(), act)
    assert inv.labels() == [0, 1, 2]
    assert inv.space().basis == invariants_compute(A, H.generators(), act)
    one = inv.express(A.one())
    assert set(one.coeffs) <= {0, 1, 2}
    assert inv.include(one) == A.one()


def test_graded_invariant_subalgebra_express_per_degree(poly):
    # symmetric polynomials in x1, x2, x3: 1; e1; p2 and e2 (labels (d, i))
    act = permutation_variable_action(S3, poly)
    inv = InvariantSubalgebra(poly, full_subgroup(S3).generators(), act)
    assert [inv.enumerate_degree(d) for d in range(3)] == \
        [[(0, 0)], [(1, 0)], [(2, 0), (2, 1)]]
    rng = random.Random(4)
    for _ in range(10):
        # a nonzero coefficient on every label: parts in degrees 0, 1 and 2
        x = inv.element({l: Q.from_int(rng.choice([-2, -1, 1, 2]))
                         for d in range(3) for l in inv.enumerate_degree(d)})
        a = inv.include(x)
        assert {poly.degree(l) for l in a.coeffs} == {0, 1, 2}
        assert inv.express(a) == x
        # exactly one part (degree 1 or 2) is not invariant
        for moved in (poly.variable(1), poly.variable(1) * poly.variable(2)):
            assert inv.express(a + moved) is None
        # a degree-1 space reads only the degree-1 part of a
        assert inv.space(1).coordinates(a) == {0: x.coeffs[(1, 0)]}


# -- unit inversion ----------------------------------------------------------


def test_element_inverse_group_algebra():
    A = GroupAlgebra(Q, S3)
    g = A.basis_element(t("(1 2 3)"))
    inv = element_inverse(g)
    assert inv == A.basis_element(S3.inverse(t("(1 2 3)")))


def test_element_inverse_non_unit():
    A = FunctionAlgebra(Q, S3)
    with pytest.raises(NotAUnitError):
        element_inverse(A.basis_element(0))  # an idempotent, not a unit


@settings(max_examples=50)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_matrix_inverse_two_sided(entries):
    A = MatrixAlgebra(Q, 2)
    m = A.element(
        {
            (i, j): Q.from_int(entries[2 * i + j])
            for i in range(2)
            for j in range(2)
        }
    )
    det = entries[0] * entries[3] - entries[1] * entries[2]
    if det == 0:
        with pytest.raises(NotAUnitError):
            element_inverse(m)
    else:
        inv = element_inverse(m)
        assert m * inv == A.one() == inv * m


def test_element_inverse_graded_solves_in_degree_zero():
    A = PolynomialAlgebra(Q, 2, 4)
    assert element_inverse(A.one()) == A.one()
    three = A.from_scalar(Q.from_int(3))
    assert element_inverse(three) == A.from_scalar(Q.inv(Q.from_int(3)))
    # x1 is refused, not reported as a non-unit: in a graded algebra an element
    # with a positive-degree term can be a unit (1 + n, n nilpotent), which a
    # degree-0 solve cannot find
    with pytest.raises(ValueError, match="only in degree 0") as exc:
        element_inverse(A.variable(1))
    assert not isinstance(exc.value, NotAUnitError)


def test_element_inverse_graded_tensor_product():
    T = TensorAlgebra(PolynomialAlgebra(Q, 2, 4), MatrixAlgebra(Q, 2))
    two = T.from_scalar(Q.from_int(2))
    inv = element_inverse(two)
    assert inv == T.from_scalar(Q.inv(Q.from_int(2)))
    assert two * inv == T.one() == inv * two
    with pytest.raises(NotAUnitError):
        element_inverse(T.basis_element(((0, 0), (0, 0))))  # 1 (x) E[1,1]


# -- fast paths against plain references ----------------------------------------


def random_algebra_element(A, labels, rng, density=0.6):
    f = A.field
    return A.element({
        l: f.from_int(rng.randint(-3, 3)) for l in labels if rng.random() < density
    })


def keyed_algebras(field):
    C2 = cyclic_group(2)
    return {
        "functions": (FunctionAlgebra(field, S3), None),
        "matrix": (MatrixAlgebra(field, 3), None),
        "group": (GroupAlgebra(field, S3), None),
        "polynomial": (PolynomialAlgebra(field, 2, 4), 2),
        "tensor": (TensorAlgebra(MatrixAlgebra(field, 2), FunctionAlgebra(field, C2)), None),
        "tensor_group_matrix": (TensorAlgebra(GroupAlgebra(field, S3), MatrixAlgebra(field, 3)),
                                None),
        "tensor_polynomial_matrix": (
            TensorAlgebra(PolynomialAlgebra(field, 2, 4), MatrixAlgebra(field, 2)), 2),
        "opposite_matrix": (OppositeAlgebra(MatrixAlgebra(field, 3)), None),
    }


@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("name", list(keyed_algebras(Q)))
def test_keyed_product_matches_all_pairs(field, name):
    A, cap = keyed_algebras(field)[name]
    labels = A.labels_up_to(cap)
    if A.product_keys is not None:
        left_key, right_key = A.product_keys
        for l1 in labels:
            for l2 in labels:
                if A.product_on_basis(l1, l2):
                    assert left_key(l1) == right_key(l2), (l1, l2)
    rng = random.Random(11)
    for _ in range(40):
        x = random_algebra_element(A, labels, rng, rng.choice([0.2, 0.6, 1.0]))
        y = random_algebra_element(A, labels, rng, rng.choice([0.2, 0.6, 1.0]))
        assert x * y == reference_mul(x, y)


def test_declared_product_keys():
    assert FunctionAlgebra(Q, S3).product_keys is not None
    assert MatrixAlgebra(Q, 2).product_keys is not None
    assert OppositeAlgebra(MatrixAlgebra(Q, 2)).product_keys is not None
    assert GroupAlgebra(Q, S3).product_keys is None


def mixed_structure_constants(field):
    """A structure-constant algebra whose basis products are one coefficient-one
    label, one label with another coefficient, several terms, or zero (given
    as {} or missing), so its rows hold both kinds of entry."""
    n = field.from_int
    table = {(0, j): {j: n(1)} for j in range(3)}
    table.update({(1, 0): {1: n(1)}, (2, 0): {2: n(1)}, (1, 1): {0: n(1), 2: n(3)},
                  (1, 2): {}, (2, 1): {1: n(2)}})
    return StructureConstantAlgebra(field, 3, table, {0: n(1)})


def mul_into_cases(field):
    """name -> (algebra, labels): every keyed_algebras family, structure-constant
    algebras whose basis products have several terms (and one is zero) or mix
    one-label, multi-term and zero products, polynomial labels above the
    enumeration cap, the opposite of a function algebra, a skew group algebra,
    and the matrix model of a context whose coefficients are a tensor product,
    so that block products nest one kernel in another."""
    cases = {name: (A, A.labels_up_to(cap)) for name, (A, cap) in keyed_algebras(field).items()}
    n = field.from_int
    table = {(i, j): {(i + j) % 3: n(1), (i * j + 1) % 3: n(2 + i), 2: n(j - 1)}
             for i in range(3) for j in range(3) if (i, j) != (2, 2)}
    sc = StructureConstantAlgebra(field, 3, table, {0: n(1)})
    cases["structure_constants"] = (sc, sc.labels())
    mixed = mixed_structure_constants(field)
    cases["structure_constants_mixed"] = (mixed, mixed.labels())
    poly = PolynomialAlgebra(field, 2, 2)
    cases["polynomial_above_cap"] = (poly, poly.labels_up_to(2) + [(3, 0), (2, 2), (0, 5)])
    op = OppositeAlgebra(FunctionAlgebra(field, S3))
    cases["opposite_functions"] = (op, op.labels())
    F = FunctionAlgebra(field, S3)
    sga = SkewGroupAlgebra(F, S3, left_translation_action(S3, F))
    cases["skew_group"] = (sga, sga.labels())
    T = TensorAlgebra(FunctionAlgebra(field, S3), MatrixAlgebra(field, 2))
    ids = range(S3.order)
    act = tensor_product_action(S3, ids, ids, left_translation_action(S3, T.A),
                                trivial_action(S3, T.B), T)
    H = subgroup_from_generators(S3, [t("(1 2)")])
    model = HeckeContext(S3, H, T, act, verify_action=False).matrix_model
    cases["matrix_model_over_tensor"] = (model, model.labels())
    return cases


def _algebras_within(A):
    """A and the algebras it is built from (tensor factors, opposite's A)."""
    out = [A]
    for part in (getattr(A, "A", None), getattr(A, "B", None)):
        if isinstance(part, BasedAlgebra):
            out.extend(_algebras_within(part))
    return out


@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("name", list(mul_into_cases(Q)))
def test_mul_into_matches_the_all_pairs_product(field, name):
    """out += c (x y) against reference_mul, for c in {None, 0, 1, -1, 3, 1/2},
    onto an empty and a non-empty out, and onto -c (x y), which cancels to {};
    every coefficient comes out canonical.  Some
    right factors are one label or zero, shorter than a keyed algebra's rows."""
    A, labels = mul_into_cases(field)[name]
    rng = random.Random(13)
    density = min(0.6, 20 / len(labels))
    cs = [None] + [field.from_int(c) for c in (0, 1, -1, 3)] + [field.parse("1/2")]
    runs = []  # (x, y, z, c, c x y into {}, z + c x y into z)
    for c in cs:
        for kind in ("random",) * 4 + ("one label", "zero"):
            x, y, z = (random_algebra_element(A, labels, rng, density) for _ in range(3))
            if kind != "random":
                y = A.basis_element(rng.choice(labels)) if kind == "one label" else A.zero()
            out = {}
            assert A.mul_into(out, x.coeffs, y.coeffs, c) is out
            onto = A.mul_into(dict(z.coeffs), x.coeffs, y.coeffs, c)
            runs.append((x, y, z, c, out, onto))
    # the kernel visits only the pairs that product_keys allows: a product off
    # the keys' buckets would enter the cache before any reference product
    for B in _algebras_within(A):
        if B.product_keys is not None:
            left_key, right_key = B.product_keys
            assert all(left_key(l1) == right_key(l2) for l1, l2 in B._product_cache)
    for x, y, z, c, out, onto in runs:
        expected = reference_mul(x, y).scale(field.one if c is None else c)
        assert out == expected.coeffs
        assert onto == (z + expected).coeffs
        for v in (*out.values(), *onto.values()):  # no raw value escapes the kernel
            assert_canonical(v, field)
        if not expected.is_zero:
            assert A.mul_into(dict((-expected).coeffs), x.coeffs, y.coeffs, c) == {}


def test_product_rows_share_the_product_cache():
    """Rows hold no product of their own: an entry is the label l3 when the
    _product_cache dict of its pair is {l3: 1}, and that dict itself otherwise,
    also for labels above a graded algebra's enumeration cap and through an
    opposite algebra, whose cached products are A's (l2, l1) dicts."""
    poly = PolynomialAlgebra(Q, 2, 2)
    M = MatrixAlgebra(Q, 3)
    op = OppositeAlgebra(M)
    mixed = mixed_structure_constants(Q)
    rng = random.Random(3)
    high = [(3, 0), (2, 2), (0, 5)]  # degrees past the cap of 2
    for A, labels in ((poly, poly.labels_up_to(2) + high), (op, op.labels()),
                      (mixed, mixed.labels())):
        for _ in range(10):
            x = random_algebra_element(A, labels, rng)
            y = random_algebra_element(A, labels, rng)
            assert x * y == reference_mul(x, y)
    assert any(sum(l1) > 2 for l1 in poly._product_rows)
    kinds = set()
    for A in (poly, op, mixed):
        assert A._product_rows
        for l1, row in A._product_rows.items():
            for l2, p in row.items():
                cached = A._product_cache[(l1, l2)]
                if isinstance(p, dict):
                    assert p is cached
                    assert len(cached) != 1 or Q.one not in cached.values()
                else:
                    assert cached == {p: Q.one}
                kinds.add((A is mixed, isinstance(p, dict)))
                if A is op:
                    assert cached is M._product_cache[(l2, l1)]
    assert kinds == {(False, False), (True, False), (True, True)}


def reference_apply(act, g, x):
    out = act.A.zero()
    for l, c in x.coeffs.items():
        out = out + act.on_label(g, l).scale(c)
    return out


def swap_and_negate_action(A):
    """C2 on Q[x1, x2] by x1 -> -x2, x2 -> -x1: every image is one label times +-1."""
    C2 = cyclic_group(2)

    def on_label(g, label):
        if g == 0:
            return A.basis_element(label)
        a, b = label
        return A.basis_element((b, a)).scale(Q.from_int((-1) ** (a + b)))

    return GroupAction(C2, A, on_label, name="swap_and_negate")


def unipotent_perturbed_matrix_action():
    """The trivial action on M_2(Q) conjugated by u = [[1, 1], [0, 1]] off the
    identity: most images of matrix units have several terms."""
    A = MatrixAlgebra(Q, 2)
    u = A.element({(0, 0): 1, (0, 1): 1, (1, 1): 1})
    chi = {g: (A.one() if g == 0 else u) for g in range(S3.order)}
    return cocycle_perturbed_action(trivial_action(S3, A), chi)


def test_apply_matches_term_by_term_sum():
    # relabelled images (coefficient one, label not yet in the result) and the
    # rest (coefficient -1, images with several terms, images landing on a
    # label already in the result)
    rng = random.Random(5)
    poly = PolynomialAlgebra(Q, 3, 4)
    poly2 = PolynomialAlgebra(Q, 2, 4)
    A_fun = FunctionAlgebra(PrimeField(3), S3)
    A_grp = GroupAlgebra(Q, S3)
    perturbed = unipotent_perturbed_matrix_action()
    cases = [
        (permutation_variable_action(S3, poly), poly.labels_up_to(3)),
        (left_translation_action(S3, A_fun), A_fun.labels()),
        (conjugation_action(S3, A_grp), A_grp.labels()),
        (swap_and_negate_action(poly2), poly2.labels_up_to(3)),
        (perturbed, perturbed.A.labels()),
    ]
    for act, labels in cases:
        for _ in range(20):
            x = random_algebra_element(act.A, labels, rng)
            for g in range(act.G.order):
                assert act.apply(g, x) == reference_apply(act, g, x)
    # the last two cases have a -1 single label and multi-term images
    assert list(swap_and_negate_action(poly2).on_label(1, (1, 0)).coeffs.values()) \
        == [Q.from_int(-1)]
    assert any(len(perturbed.on_label(1, l).coeffs) > 1 for l in perturbed.A.labels())


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "GF7"])
def test_apply_of_a_perturbed_action_is_the_label_by_label_sum(field):
    """A non-relabelling action: beta_g = u (-) u^-1 on M_2 for g != e, with
    u = [[2, 1], [0, 1]], so images have several terms with coefficients other
    than one, and sums cancel.  apply must equal the plain sum over labels,
    with the same order of terms."""
    A = MatrixAlgebra(field, 2)
    u = A.element({(0, 0): field.from_int(2), (0, 1): field.one, (1, 1): field.one})
    chi = {g: (A.one() if g == 0 else u) for g in range(S3.order)}
    act = cocycle_perturbed_action(trivial_action(S3, A), chi)
    assert any(len(act.on_label(1, l).coeffs) > 1 for l in A.labels())
    rng = random.Random(8)
    for _ in range(30):
        x = random_algebra_element(A, A.labels(), rng)
        for g in range(S3.order):
            expected: dict = {}
            for l, c in x.coeffs.items():
                for l2, c2 in act.on_label(g, l).coeffs.items():
                    s = field.add(expected.get(l2, field.zero), field.mul(c, c2))
                    if field.is_zero(s):
                        expected.pop(l2, None)
                    else:
                        expected[l2] = s
            assert list(act.apply(g, x).coeffs.items()) == list(expected.items())


# -- generator-only action verification ------------------------------------------


def test_corruption_off_the_generators_is_detected():
    A = GroupAlgebra(Q, S3)
    gens = full_subgroup(S3).generators()
    bad_g = next(g for g in range(1, S3.order) if g not in gens)

    def on_label(g, n):
        # alpha_{bad_g} replaced by the identity, still an automorphism
        return A.basis_element(n if g == bad_g else S3.conjugate(g, n))

    report = GroupAction(S3, A, on_label).verify()
    assert not report.ok
    assert any(check == "composition" for check, _ in report.failures)
    assert all(w[0] in gens for check, w in report.failures if check == "composition")


def test_graded_corruption_above_the_cap_is_detected():
    A = PolynomialAlgebra(Q, 3, 6)
    good = permutation_variable_action(S3, A)
    gens = full_subgroup(S3).generators()
    bad_g = next(g for g in range(1, S3.order) if g not in gens)

    def on_label(g, label):
        # only degrees above the cap, reached by products of capped labels
        if g == bad_g and sum(label) > 2:
            return A.basis_element(label)
        return good.on_label(g, label)

    report = GroupAction(S3, A, on_label).verify(degree_cap=2)
    assert not report.ok
    assert any(check == "composition" for check, _ in report.failures)
