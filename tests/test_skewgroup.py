import pathlib
import random

import pytest

from skewhecke import linalg
from skewhecke.algebras import (
    FunctionAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    conjugation_action,
    left_translation_action,
    scalar_algebra,
    trivial_action,
)
from skewhecke.cli import build_context, parse_config
from skewhecke.groups import (
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
)
from skewhecke.isomorphisms import corner_lift, to_matrix
from skewhecke.scalars import NotAUnitError, PrimeField, Rationals
from skewhecke.skewgroup import SkewGroupAlgebra, corner_basis, hecke_idempotent, subgroup_sum

from reference_shapes import check_associativity, reference_mul

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

Q = Rationals()
S3 = symmetric_group(3)


def make_sga(field=Q):
    A = FunctionAlgebra(field, S3)
    act = left_translation_action(S3, A)
    return SkewGroupAlgebra(A, S3, act)


def random_element(sga, rng):
    coeffs = {}
    for pair in sga.labels():
        c = rng.randint(-2, 2)
        if c:
            coeffs[pair] = sga.field.from_int(c)
    return sga.element(coeffs)


def test_twisted_product_on_terms():
    sga = make_sga()
    A, G = sga.A, sga.G
    g = G.element_by_name("(1 2)")
    k = G.element_by_name("(2 3)")
    a = A.basis_element(0)          # delta_id
    b = A.basis_element(k)          # delta_(2 3)
    # (a.g)(b.k) = a (alpha_g b) . (gk)
    lhs = sga.term(a, g) * sga.term(b, k)
    twisted = A.basis_element(G.mul(g, k))  # alpha_g delta_k = delta_gk
    rhs = sga.term(a * twisted, G.mul(g, k))
    assert lhs == rhs


def test_associativity_random_triples():
    sga = make_sga()
    rng = random.Random(0)
    for _ in range(200):
        x, y, z = (random_element(sga, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_unit():
    sga = make_sga()
    rng = random.Random(1)
    one = sga.one()
    x = random_element(sga, rng)
    assert one * x == x == x * one


def test_idempotent():
    sga = make_sga()
    H = subgroup_from_generators(S3, [S3.element_by_name("(1 2)")])
    e = hecke_idempotent(sga, H)
    assert e * e == e


def test_idempotent_unavailable_in_characteristic_two():
    sga = make_sga(PrimeField(2))
    H = subgroup_from_generators(S3, [S3.element_by_name("(1 2)")])
    with pytest.raises(NotAUnitError, match="unavailable"):
        hecke_idempotent(sga, H)


def test_corner_dimension_s3_s2():
    # e_H (A x| G) e_H has the double-coset dimension 3 + 6 = 9
    sga = make_sga()
    H = subgroup_from_generators(S3, [S3.element_by_name("(1 2)")])
    e = hecke_idempotent(sga, H)
    assert len(corner_basis(sga, e)) == 9


def test_corner_trivial_subgroup_is_everything():
    sga = make_sga()
    e = hecke_idempotent(sga, trivial_subgroup(S3))
    assert e == sga.one()
    assert len(corner_basis(sga, e)) == sga.dim == 36


def test_corner_scalar_coefficients_classical_dimension():
    A = scalar_algebra(Q)
    sga = SkewGroupAlgebra(A, S3, trivial_action(S3, A))
    H = subgroup_from_generators(S3, [S3.element_by_name("(1 2)")])
    e = hecke_idempotent(sga, H)
    assert len(corner_basis(sga, e)) == 2  # one per double coset


def full_corner_span(sga, e):
    """Reference: the span of e.(b,g).e over all dim(A)|G| basis pairs."""
    span = linalg.SpanBasis(sga.field)
    for (l, g) in sga.labels():
        span.insert((e * sga.term(sga.A.basis_element(l), g) * e).coeffs)
    return span


CORNER_FAMILIES = {
    "matrix_trivial": lambda f: (MatrixAlgebra(f, 2), trivial_action),
    "group_conjugation": lambda f: (GroupAlgebra(f, S3), conjugation_action),
    "functions": lambda f: (FunctionAlgebra(f, S3), left_translation_action),
}


@pytest.mark.parametrize("subgroup", ["(1 2)", "(1 2 3)"])
@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("family", sorted(CORNER_FAMILIES))
def test_corner_basis_from_double_cosets_spans_the_full_corner(family, field, subgroup):
    A, action = CORNER_FAMILIES[family](field)
    sga = SkewGroupAlgebra(A, S3, action(S3, A))
    e = hecke_idempotent(sga, subgroup_from_generators(S3, [S3.element_by_name(subgroup)]))
    reduced = corner_basis(sga, e)
    full = full_corner_span(sga, e)
    # independent, inside the corner, and as many as the full set's rank
    assert linalg.rank(field, [x.coeffs for x in reduced]) == len(reduced)
    assert all(e * x * e == x and full.contains(x.coeffs) for x in reduced)
    assert len(reduced) == full.dim


def reference_skew_mul(x, y):
    """Definitional product: (a.g)(b.k) = a alpha_g(b) . gk, term by term."""
    p = x.alg
    f, G = p.field, p.G
    out = {}
    for (l1, g), c1 in x.coeffs.items():
        for (l2, k), c2 in y.coeffs.items():
            for lt, ct in p.action.on_label(g, l2).coeffs.items():
                for l3, c3 in p.A.product_cached(l1, lt).items():
                    key = (l3, G.mul(g, k))
                    s = f.add(out.get(key, f.zero), f.mul(f.mul(c1, c2), f.mul(ct, c3)))
                    if f.is_zero(s):
                        out.pop(key, None)
                    else:
                        out[key] = s
    return p.element(out)


def sparse_random_element(sga, rng):
    f = sga.field
    return sga.element({
        pair: f.from_int(rng.randint(-2, 2))
        for pair in sga.labels() if rng.random() < 0.3
    })


def skew_fixture(family):
    """S3 functions under left translation over GF(5), R[S3] under conjugation
    over Q, or M_2(Q) with the trivial action."""
    if family == "functions":
        return make_sga(PrimeField(5))
    if family == "group_conjugation":
        A = GroupAlgebra(Q, S3)
        return SkewGroupAlgebra(A, S3, conjugation_action(S3, A))
    A = MatrixAlgebra(Q, 2)
    return SkewGroupAlgebra(A, S3, trivial_action(S3, A))


@pytest.mark.parametrize("family", ["functions", "group_conjugation", "matrix_trivial"])
def test_grouped_product_matches_definition(family):
    sga = skew_fixture(family)
    rng = random.Random(3)
    for _ in range(30):
        x, y = sparse_random_element(sga, rng), sparse_random_element(sga, rng)
        assert x * y == reference_skew_mul(x, y)


@pytest.mark.parametrize("family", ["functions", "group_conjugation", "matrix_trivial"])
def test_twisted_product_passes_the_generic_associativity_check(family):
    # A x| G is a BasedAlgebra, so the checker every algebra family uses applies
    sga = skew_fixture(family)
    assert check_associativity(sga, max_triples=500, rng=random.Random(5)) == []


# ---------------------------------------------------------------------------
# products whose right factor repeats an A-block under several group labels


@pytest.mark.parametrize("name", ["functions_s3", "group_algebra_conjugation", "functions_s3_gf5"])
def test_repeated_blocks_match_the_label_product(name):
    """The block loop forms x_g alpha_g(y) once per left group label g and
    distinct right block y, and adds it to every target; each product is
    checked against the label-by-label product_on_basis sum.  The corner lift
    repeats each value |H| times, E = sum_h 1 . h repeats 1_A, and ``repeated``
    puts one block that alpha moves, and twice it, under every group label."""
    ctx = build_context(parse_config((GOLDEN / f"{name}.cfg").read_text()))
    sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
    A, G, f = ctx.A, ctx.G, ctx.field
    rng = random.Random(17)
    lifts = [corner_lift(ctx, sga, ctx.random_element(rng)) for _ in range(3)]
    E = subgroup_sum(sga, ctx.H)
    y = A.combination((A.basis_element(l), f.from_int(c))
                      for l, c in zip(A.labels(), (1, -2, 0, 3, 1, 0)) if c)
    assert any(ctx.action.apply(g, y) != y for g in range(G.order))
    repeated = sga.from_components({g: y.scale(f.from_int(1 + g % 2)) for g in range(G.order)})
    pairs = [(x, z) for x in lifts for z in lifts]
    terms = [sga.term(A.basis_element(l), g) for l in A.labels()[:2] for g in (1, 3)]
    pairs += [(E, t) for t in terms] + [(E * t, E) for t in terms]
    pairs += [(x, repeated) for x in lifts + [repeated, random_element(sga, rng)]]
    for x, z in pairs:
        assert x * z == reference_mul(x, z)


def test_matrix_model_product_matches_the_label_product():
    ctx = build_context(parse_config((GOLDEN / "functions_s3.cfg").read_text()))
    rng = random.Random(19)
    x, z = (to_matrix(ctx.random_element(rng)) for _ in range(2))
    assert x * z == reference_mul(x, z)
