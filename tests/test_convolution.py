"""Differential tests of the skeleton convolution against its definition.

``HeckeElement.convolve`` reads the product skeleton of the coset space; the
reference loop in ``reference_convolution`` expands both factors and walks
every coset.  They must agree for any choice of coset representatives, and
so must every product rebuilt from ``structure_constants`` rows, the matrix,
corner and Stone models, the opposite, quotient and cocycle transports, and the
same integral product computed over Q and over GF(p) (extension of scalars).
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke.algebras import (
    AlgebraElement,
    FunctionAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    PolynomialAlgebra,
    cocycle_perturbed_action,
    conjugation_action,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
    trivial_action,
)
from skewhecke.groups import (
    CosetSpace,
    cyclic_group,
    dihedral_group,
    full_subgroup,
    is_normal,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
)
from skewhecke.linalg import add_into
from skewhecke.hecke import (
    HeckeContext,
    HeckeElement,
    StabilizerInvarianceError,
    classical_context,
    structure_constants,
)
from skewhecke.isomorphisms import (
    StoneModel,
    coboundary_from_unit,
    cocycle_transport,
    opposite_transport,
    quotient_transport,
    to_corner,
    to_matrix,
)
from skewhecke.scalars import PrimeField, Rationals, field_make
from skewhecke.skewgroup import SkewGroupAlgebra

from reference_convolution import (
    alternative_reps,
    classical_structure_constants_counting,
    reference_convolve,
    reference_structure_constants,
)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
S3 = symmetric_group(3)
S4 = symmetric_group(4)
D4 = dihedral_group(4)


def gens(G, *names):
    return subgroup_from_generators(G, [G.element_by_name(n) for n in names])


def functions(field, G, H):
    A = FunctionAlgebra(field, G)
    return HeckeContext(G, H, A, left_translation_action(G, A))


def conjugation(field, G, H):
    A = GroupAlgebra(field, G)
    return HeckeContext(G, H, A, conjugation_action(G, A))


def polynomial(field, G, H, cap):
    A = PolynomialAlgebra(field, len(G.perms[0]), 2 * cap)
    return HeckeContext(G, H, A, permutation_variable_action(G, A), degree_cap=cap)


def matrix_trivial(field, G, H, n=2):
    A = MatrixAlgebra(field, n)
    return HeckeContext(G, H, A, trivial_action(G, A))


def cocycle_perturbed(field, G, H, u_name):
    """Conjugation on the group algebra perturbed by the coboundary chi of the
    unit u = 2 + u_name: beta_g(l) = chi(g) (g l g^-1) chi(g)^-1 has images of
    several terms, so beta permutes no labels.  H must fix u."""
    ctx = conjugation(field, G, H)
    A = ctx.A
    u = A.element({0: field.from_int(2), G.element_by_name(u_name): field.one})
    beta = cocycle_perturbed_action(ctx.action, coboundary_from_unit(ctx, u))
    return HeckeContext(G, H, A, beta)


CASES = {
    "functions_q": lambda: functions(Q, S3, gens(S3, "(1 2)")),
    "functions_gf5": lambda: functions(F5, S3, gens(S3, "(1 2)")),
    "group_conjugation": lambda: conjugation(Q, S3, gens(S3, "(1 2)")),
    "polynomial_graded": lambda: polynomial(Q, S3, gens(S3, "(1 2)"), 2),
    "matrix_trivial": lambda: matrix_trivial(Q, S3, gens(S3, "(1 2)")),
    "h_trivial": lambda: functions(Q, S3, trivial_subgroup(S3)),
    "h_full": lambda: conjugation(Q, S3, full_subgroup(S3)),
    "h_normal": lambda: functions(Q, S3, gens(S3, "(1 2 3)")),
    "dihedral4_gf3": lambda: conjugation(F3, D4, gens(D4, "(1 3)")),
    "polynomial_h_trivial": lambda: polynomial(Q, S3, trivial_subgroup(S3), 1),
    "polynomial_h_full_gf5": lambda: polynomial(F5, S3, full_subgroup(S3), 2),
    "cocycle_perturbed": lambda: cocycle_perturbed(Q, S3, gens(S3, "(1 2)"), "(1 2)"),
}


@functools.lru_cache(maxsize=None)
def case(name):
    return CASES[name]()


def random_pairs(ctx, seed, count):
    rng = random.Random(seed)
    return [(ctx.random_element(rng), ctx.random_element(rng)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_convolve_matches_reference(name):
    ctx = case(name)
    cs = ctx.cosets
    alt = alternative_reps(cs)
    assert (alt != list(cs.reps)) == (ctx.H.order > 1)
    pairs = random_pairs(ctx, 11, 6)
    pairs += [(ctx.zero(), pairs[0][1]), (ctx.identity(), pairs[0][1]),
              (pairs[0][0], ctx.identity())]
    for x, y in pairs:
        product = x.convolve(y)
        assert product == reference_convolve(x, y, cs.reps)
        assert product == reference_convolve(x, y, alt)


def _element_of_key(ctx, basis):
    """Module-basis element for each row key k of structure_constants."""

    def element(k):
        if isinstance(k, tuple):  # ("deg", d, t): a degree past the basis
            _, d, t = k
            oi, v = ctx.module_basis(d)[t]
        else:
            oi, v, _ = basis[k]
        return HeckeElement(ctx, {oi: v})

    return element


@pytest.mark.parametrize("name", ["functions_q", "functions_gf5", "group_conjugation",
                                  "polynomial_graded", "matrix_trivial", "h_normal",
                                  "dihedral4_gf3"])
def test_structure_constant_rows_rebuild_products(name):
    ctx = case(name)
    basis, rows = structure_constants(ctx)
    element = _element_of_key(ctx, basis)
    rebuilt = {}
    for i, j, k, c in rows:
        term = element(k).scale(c)
        rebuilt[(i, j)] = rebuilt[(i, j)] + term if (i, j) in rebuilt else term
    for i in range(len(basis)):
        for j in range(len(basis)):
            expected = reference_convolve(element(i), element(j), ctx.cosets.reps)
            assert rebuilt.get((i, j), ctx.zero()) == expected, (i, j)


@pytest.mark.parametrize("name", sorted(CASES))
def test_structure_constants_match_the_per_pair_reference(name):
    # the block table against convolve and module_coordinates on each
    # basis pair: same basis, same rows in the same order
    ctx = case(name)
    basis, rows = structure_constants(ctx)
    expected_basis, expected_rows = reference_structure_constants(ctx)
    assert basis == expected_basis
    assert rows == expected_rows
    if name == "cocycle_perturbed":
        assert any(len(ctx.action.on_label(g, l).coeffs) > 1
                   for g in range(ctx.G.order) for l in ctx.A.labels())


@pytest.mark.parametrize("make", [
    lambda: functions(Q, S3, gens(S3, "(1 2)")),
    lambda: polynomial(Q, S3, gens(S3, "(1 2)"), 2),
], ids=["functions", "polynomial_graded"])
def test_table_refuses_a_product_outside_its_fixed_space(monkeypatch, make):
    # alpha_(2 3) doubled: some products at orbit 0 are no longer fixed by its
    # stabilizer <(1 2)>; the table must refuse them as convolve does
    ctx = make()
    bad = S3.element_by_name("(2 3)")
    apply = ctx.action.apply
    monkeypatch.setattr(ctx.action, "apply",
                        lambda g, x: apply(g, x).scale(2) if g == bad else apply(g, x))
    witnesses = set()
    elements = [x for d in ctx.A.degrees(ctx.degree_cap) for x in ctx.basis_hecke_elements(d)]
    for x in elements:
        for y in elements:
            try:
                x.convolve(y)
            except StabilizerInvarianceError as exc:
                witnesses.add((exc.orbit, exc.witness_h))
    assert witnesses == {(0, S3.element_by_name("(1 2)"))}
    with pytest.raises(StabilizerInvarianceError) as exc:
        structure_constants(ctx)
    assert (exc.value.orbit, exc.value.witness_h) in witnesses


@pytest.mark.parametrize("G, H", [
    (S3, gens(S3, "(1 2)")),
    (S3, trivial_subgroup(S3)),
    (S3, gens(S3, "(1 2 3)")),
    (S4, gens(S4, "(1 2 3 4)", "(1 3)")),
    (S4, gens(S4, "(1 2)")),
    (D4, gens(D4, "(1 3)")),
])
def test_classical_rows_match_counting(G, H):
    ctx = classical_context(Q, G, H)
    _, rows = structure_constants(ctx)
    assert {(i, j, k): c for i, j, k, c in rows} == \
        classical_structure_constants_counting(Q, CosetSpace(G, H))


def test_skeleton_built_lazily_once():
    ctx = functions(Q, S3, gens(S3, "(1 2)"))
    assert ctx.cosets._skeleton is None
    x, y = random_pairs(ctx, 3, 1)[0]
    x * y
    skeleton = ctx.cosets._skeleton
    assert skeleton is not None
    x * y
    assert ctx.cosets.product_skeleton() is skeleton
    # every (target orbit, coset) pair is listed exactly once
    n_terms = sum(len(terms) for entries in skeleton.values() for _, terms in entries)
    assert n_terms == len(ctx.orbits) * ctx.cosets.n


# -- random (group, subgroup, algebra, action) tuples -------------------------

GROUPS = {"symmetric(3)": S3, "dihedral(4)": D4, "cyclic(4)": cyclic_group(4)}
FIELDS = ("prime_field(5)", "rationals")
PRIMES = (2, 3, 5, 7, 2 ** 61 - 1)  # the last makes raw sums pass 2^64
FAMILIES = ("functions", "conjugation", "matrix_trivial", "scalar", "polynomial")


@functools.lru_cache(maxsize=None)
def random_context(group, gen_indices, family, field):
    G, f = GROUPS[group], field_make(field)
    H = subgroup_from_generators(G, list(gen_indices))
    if family == "functions":
        return functions(f, G, H)
    if family == "conjugation":
        return conjugation(f, G, H)
    if family == "matrix_trivial":
        return matrix_trivial(f, G, H)
    if family == "scalar":
        return classical_context(f, G, H)
    return polynomial(f, G, H, 1)


@st.composite
def tuples(draw):
    group = draw(st.sampled_from(sorted(GROUPS)))
    G = GROUPS[group]
    gen_indices = draw(st.lists(st.integers(0, G.order - 1), max_size=2, unique=True))
    family = draw(st.sampled_from(FAMILIES))
    if family == "polynomial" and G.perms is None:
        family = "functions"
    return group, tuple(sorted(gen_indices)), family


@st.composite
def contexts(draw):
    group, gen_indices, family = draw(tuples())
    field = draw(st.sampled_from(FIELDS))
    return random_context(group, gen_indices, family, field)


@functools.lru_cache(maxsize=None)
def fixed_matrix_count(ctx):
    """dim of the fixed points of the diagonal G-action on A (x) End_R(Ind_H^G R)."""
    model = ctx.matrix_model
    return len(invariants_compute(model, full_subgroup(ctx.G).generators(), model.diagonal))


@functools.lru_cache(maxsize=None)
def transports(ctx):
    """The opposite transport of ctx, and the quotient by H when H is normal."""
    quotient = quotient_transport(ctx, ctx.H) if is_normal(ctx.G, ctx.H) else None
    return opposite_transport(ctx), quotient


def right_coset_unit(ctx, start):
    """The function on G with value 1 + (start + r) mod 4 on the r-th right
    coset Hx, the cosets in order of their least element.  Its values are
    units over Q and GF(5); left translation by H fixes it, and the first two
    cosets get different values, so G moves it unless H = G."""
    G, H = ctx.G, ctx.H
    least = [min(G.mul(h, x) for h in H.elements) for x in range(G.order)]
    rank = {r: i for i, r in enumerate(sorted(set(least)))}
    f = ctx.field
    return ctx.A.element({x: f.from_int(1 + (start + rank[r]) % 4)
                          for x, r in enumerate(least)})


@settings(max_examples=60, deadline=None)
@given(contexts(), st.integers(0, 10**6))
def test_random_tuples_convolve_and_matrix_model(ctx, seed):
    (x, y), = random_pairs(ctx, seed, 1)
    product = x * y
    assert product == reference_convolve(x, y, alternative_reps(ctx.cosets))
    assert to_matrix(product) == to_matrix(x) * to_matrix(y)
    if not ctx.graded:
        # the matrix model theorem: to_matrix is onto the diagonal fixed points
        diagonal = ctx.matrix_model.diagonal
        gens = full_subgroup(ctx.G).generators()
        assert all(diagonal.apply(s, to_matrix(b)) == to_matrix(b)
                   for b in ctx.basis_hecke_elements() for s in gens)
        assert fixed_matrix_count(ctx) == ctx.dimension()
    if StoneModel.applies(ctx):
        # R^G under left translation: the Stone model M_n(R) and its inverse
        sm = StoneModel(ctx)
        assert sm.apply(product) == sm.apply(x) * sm.apply(y)
        assert sm.preimage(sm.apply(x)) == x
    p = ctx.field.characteristic
    if not ctx.graded and (p == 0 or ctx.H.order % p):
        # |H| is a unit: the corner model e_H (A x| G) e_H applies too
        sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
        assert to_corner(ctx, sga, product) == \
            to_corner(ctx, sga, x) * to_corner(ctx, sga, y)
    opposite, quotient = transports(ctx)
    assert opposite.forward(product) == opposite.forward(y) * opposite.forward(x)
    assert opposite.backward(opposite.forward(x)) == x
    if quotient is not None:
        # (G/H, 1, A^H): values pass through InvariantSubalgebra.express and
        # the induced action, graded or finite
        assert quotient.forward(product) == quotient.forward(x) * quotient.forward(y)
        assert quotient.backward(quotient.forward(x)) == x
    # the coboundary of a unit u that H fixes: on R^G a function constant on
    # each right coset Hx, which G moves unless H = G; elsewhere an invertible
    # scalar (element_inverse solves a graded A in degree 0, where u lies)
    start = random.Random(seed).randint(1, 4)
    if ctx.action.name == "left_translation":
        u = right_coset_unit(ctx, start)
        moved = ctx.action.moved_by(u, full_subgroup(ctx.G).generators())
        assert (moved is not None) == (ctx.H.order < ctx.G.order)
    else:
        u = ctx.A.from_scalar(ctx.field.from_int(start))
    cocycle = cocycle_transport(ctx, coboundary_from_unit(ctx, u))
    assert cocycle.forward(product) == cocycle.forward(x) * cocycle.forward(y)
    assert cocycle.backward(cocycle.forward(x)) == x
    # module coordinates: nonzero, at increasing positions, summing back in each degree
    rng = random.Random(seed)
    for d in ctx.A.degrees(ctx.degree_cap):
        phi = ctx.random_element(rng, degree=d)
        coords = ctx.module_coordinates(phi, degree=d)
        assert list(coords) == sorted(coords)
        assert not any(ctx.field.is_zero(c) for c in coords.values())
        basis = ctx.basis_hecke_elements(d)
        assert sum((basis[t].scale(c) for t, c in coords.items()), ctx.zero()) == phi


def integral_element(ctx, rng):
    """Integer values: at each orbit, the sum over its stabilizer S of
    alpha_s(v) for a random integer-valued v, which S fixes."""
    f = ctx.field
    labels = ctx.A.labels_up_to(ctx.degree_cap)
    values = {}
    for oi, orbit in enumerate(ctx.orbits):
        v = ctx.A.element({l: f.from_int(rng.randint(-3, 3)) for l in labels})
        total: dict = {}
        for s in orbit.stabilizer.elements:
            add_into(f, total, ctx.action.apply(s, v).coeffs)
        values[oi] = AlgebraElement(ctx.A, total)
    return ctx.from_values(values)


def reduce_mod(x, ctx_p):
    """The element x of an integral Q-context, its values reduced into ctx_p."""
    F = ctx_p.field
    return ctx_p.from_values({
        oi: ctx_p.A.element({l: F.from_int(c) for l, c in v.coeffs.items()})
        for oi, v in x.values.items()})


@settings(max_examples=60, deadline=None)
@given(tuples(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_extension_of_scalars_from_q_to_gf_p(spec, p, seed):
    # the convolution is integral, so reducing mod p commutes with products
    ctx_q = random_context(*spec, "rationals")
    ctx_p = random_context(*spec, f"prime_field({p})")
    rng = random.Random(seed)
    x, y = integral_element(ctx_q, rng), integral_element(ctx_q, rng)
    over_q = to_matrix(x * y)
    over_p = to_matrix(reduce_mod(x, ctx_p) * reduce_mod(y, ctx_p))
    # integral rationals are stored as int
    assert all(type(c) is int for c in over_q.coeffs.values())
    assert {l: c % p for l, c in over_q.coeffs.items() if c % p} == over_p.coeffs
