import random

import pytest

from skewhecke.algebras import (
    FunctionAlgebra,
    GroupAction,
    PolynomialAlgebra,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
)
from skewhecke.groups import (
    CosetSpace,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
    full_subgroup,
)
from skewhecke.hecke import (
    HeckeContext,
    HeckeElement,
    StabilizerInvarianceError,
    classical_context,
    hecke_as_based_algebra,
    structure_constants,
)
from skewhecke.scalars import PrimeField, Rationals

from reference_convolution import (
    alternative_reps,
    classical_structure_constants_counting,
    reference_convolve,
)
from reference_shapes import check_associativity

Q = Rationals()
S3 = symmetric_group(3)
S4 = symmetric_group(4)


def s2_subgroup():
    return subgroup_from_generators(S3, [S3.element_by_name("(1 2)")])


def function_context(field=Q, H=None):
    A = FunctionAlgebra(field, S3)
    act = left_translation_action(S3, A)
    return HeckeContext(S3, H if H is not None else s2_subgroup(), A, act)


def polynomial_context(cap=2):
    A = PolynomialAlgebra(Q, 3, 2 * cap)
    act = permutation_variable_action(S3, A)
    return HeckeContext(S3, s2_subgroup(), A, act, degree_cap=cap)


# -- module structure --------------------------------------------------------


def test_dimensions():
    # orbit stabilizers S2 and 1 give invariant spaces of dims 3 and 6
    assert function_context().dimension() == 9
    # H = 1: one orbit per coset, no invariance constraint
    assert function_context(H=trivial_subgroup(S3)).dimension() == 36
    # H = G: single orbit, G-invariant functions = constants
    assert function_context(H=full_subgroup(S3)).dimension() == 1
    # classical: one basis element per double coset
    assert classical_context(Q, S3, s2_subgroup()).dimension() == 2


def test_graded_dimensions():
    ctx = polynomial_context()
    # degree 1: orbit 0 invariants {x1+x2, x3}, orbit 1 all of degree 1
    assert ctx.dimension(degree=0) == 2
    assert ctx.dimension(degree=1) == 5


def test_context_verifies_its_action_at_its_own_degree_cap():
    # alpha doubles every degree-3 image: no check at cap 1 reaches degree 3,
    # so a context at cap 1 builds, and one at cap 3 on the same action refuses it
    A = PolynomialAlgebra(Q, 3, 6)
    good = permutation_variable_action(S3, A)

    def on_label(g, label):
        image = good.on_label(g, label)
        return image.scale(Q.from_int(2)) if sum(label) == 3 else image

    action = GroupAction(S3, A, on_label)
    assert not action.verify(degree_cap=3).ok
    HeckeContext(S3, s2_subgroup(), A, action, degree_cap=1)
    with pytest.raises(ValueError, match="invalid group action"):
        HeckeContext(S3, s2_subgroup(), A, action, degree_cap=3)


def test_from_values_rejects_non_invariant_value():
    ctx = function_context()
    # orbit 0 has stabilizer H = <(1 2)>; delta at the identity is moved
    with pytest.raises(StabilizerInvarianceError) as exc:
        ctx.from_values({0: ctx.A.basis_element(0)})
    assert exc.value.orbit == 0


def test_module_coordinates_names_the_moving_generator():
    ctx = function_context()
    phi = HeckeElement(ctx, {0: ctx.A.basis_element(0)})  # bypasses from_values
    with pytest.raises(StabilizerInvarianceError) as exc:
        ctx.module_coordinates(phi)
    assert exc.value.orbit == 0
    assert exc.value.witness_h == S3.element_by_name("(1 2)")
    assert "?" not in str(exc.value)


def test_expand_equivariance():
    ctx = function_context()
    rng = random.Random(3)
    phi = ctx.random_element(rng)
    exp = phi.expand()
    cs = ctx.cosets
    for h in ctx.H.elements:
        for ci in range(cs.n):
            moved = cs.h_action[h][ci]
            assert exp[moved] == ctx.action.apply(h, exp[ci])


def test_module_coordinates_roundtrip():
    ctx = function_context()
    rng = random.Random(4)
    phi = ctx.random_element(rng)
    coords = ctx.module_coordinates(phi)
    basis = ctx.basis_hecke_elements()
    rebuilt = ctx.zero()
    for t, c in coords.items():
        rebuilt = rebuilt + basis[t].scale(c)
    assert rebuilt == phi


# -- convolution -------------------------------------------------------------


def test_identity_two_sided():
    for ctx in [function_context(), polynomial_context(),
                classical_context(Q, S4, subgroup_from_generators(
                    S4, [S4.element_by_name("(1 2 3 4)"),
                         S4.element_by_name("(1 3)")]))]:
        rng = random.Random(5)
        one = ctx.identity()
        for _ in range(5):
            phi = ctx.random_element(rng, degree=1 if ctx.graded else None)
            assert one * phi == phi == phi * one


def test_associativity_random():
    ctx = function_context()
    rng = random.Random(6)
    for _ in range(50):
        x, y, z = (ctx.random_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_convolution_rep_independent():
    # the convolution sum must not depend on the choice of coset representatives
    ctx = function_context()
    cs = ctx.cosets
    alt = alternative_reps(cs)
    assert alt != list(cs.reps)
    rng = random.Random(7)
    for _ in range(20):
        x, y = ctx.random_element(rng), ctx.random_element(rng)
        assert x.convolve(y) == reference_convolve(x, y, alt)
        assert reference_convolve(x, y, cs.reps) == reference_convolve(x, y, alt)


def test_convolution_closed_under_stabilizers():
    # products of valid elements pass value validation (convolve validates)
    ctx = polynomial_context()
    rng = random.Random(8)
    for _ in range(10):
        x, y = ctx.random_element(rng), ctx.random_element(rng)
        x.convolve(y)


# -- embeddings and expectation ---------------------------------------------


def test_embed_invariant_is_multiplicative():
    ctx = function_context()
    inv = invariants_compute(ctx.A, ctx.H.generators(), ctx.action)
    for a in inv:
        for b in inv:
            assert ctx.embed_invariant(a * b) == (
                ctx.embed_invariant(a) * ctx.embed_invariant(b)
            )
    assert ctx.embed_invariant(ctx.A.one()) == ctx.identity()


def test_embed_invariant_rejects_moved_element():
    ctx = function_context()
    with pytest.raises(ValueError, match="H-invariant"):
        ctx.embed_invariant(ctx.A.basis_element(0))


def test_embed_scalar_hecke_multiplicative():
    ctx = function_context()
    cl = classical_context(Q, S3, ctx.H)
    basis = cl.basis_hecke_elements()
    for r in basis:
        for s in basis:
            assert ctx.embed_scalar_hecke(r * s) == (
                ctx.embed_scalar_hecke(r) * ctx.embed_scalar_hecke(s)
            )
    assert ctx.embed_scalar_hecke(cl.identity()) == ctx.identity()


def test_expectation_bimodule_law():
    # E(a . phi . b) = a E(phi) b for a, b in A^H, with A^H acting through
    # the invariant embedding
    ctx = function_context()
    rng = random.Random(9)
    inv = invariants_compute(ctx.A, ctx.H.generators(), ctx.action)
    for _ in range(20):
        a = sum(
            (v.scale(Q.from_int(rng.randint(-2, 2))) for v in inv),
            ctx.A.zero(),
        )
        b = sum(
            (v.scale(Q.from_int(rng.randint(-2, 2))) for v in inv),
            ctx.A.zero(),
        )
        phi = ctx.random_element(rng)
        lhs = (ctx.embed_invariant(a) * phi * ctx.embed_invariant(b)).expectation()
        assert lhs == a * phi.expectation() * b


def test_expectation_of_identity():
    ctx = function_context()
    assert ctx.identity().expectation() == ctx.A.one()


# -- grading -----------------------------------------------------------------


def test_graded_degree_additive():
    ctx = polynomial_context()
    rng = random.Random(10)
    for d1 in range(2):
        for d2 in range(2):
            x = ctx.random_element(rng, degree=d1)
            y = ctx.random_element(rng, degree=d2)
            p = x * y
            if not p.is_zero:
                assert p.homogeneous_degree() == d1 + d2


def test_inhomogeneous_degree_is_none():
    ctx = polynomial_context()
    x = ctx.identity() + ctx.embed_invariant(
        ctx.A.variable(1) + ctx.A.variable(2)
    )
    assert x.homogeneous_degree() is None


# -- structure constants vs the counting oracle ------------------------------


@pytest.mark.parametrize(
    "G,Hgens",
    [
        (S3, ["(1 2)"]),
        (S4, ["(1 2)", "(2 3)"]),  # S3 <= S4
        (S4, ["(1 2 3 4)", "(1 3)"]),  # D4 <= S4
    ],
)
@pytest.mark.parametrize("field", [Q, PrimeField(5), PrimeField(2)])
def test_classical_structure_constants_match_counting(G, Hgens, field):
    H = subgroup_from_generators(G, [G.element_by_name(s) for s in Hgens])
    ctx = classical_context(field, G, H)
    _, rows = structure_constants(ctx)
    computed = {(i, j, k): c for i, j, k, c in rows}
    oracle = classical_structure_constants_counting(field, CosetSpace(G, H))
    oracle = {key: c for key, c in oracle.items() if not field.is_zero(c)}
    assert computed == oracle


def test_materialized_algebra_roundtrip_and_associative():
    ctx = function_context()
    B, to_hecke, from_hecke = hecke_as_based_algebra(ctx)
    assert len(B.labels()) == 9
    assert check_associativity(B, max_triples=300, rng=random.Random(0)) == []
    rng = random.Random(11)
    for _ in range(10):
        phi = ctx.random_element(rng)
        assert to_hecke(from_hecke(phi)) == phi
    assert to_hecke(B.one()) == ctx.identity()
