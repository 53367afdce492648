import random

import pytest

from skewhecke.algebras import (
    FunctionAlgebra,
    GroupAction,
    GroupAlgebra,
    PolynomialAlgebra,
    TensorAlgebra,
    conjugation_action,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
    trivial_action,
)
from skewhecke.cli import JobConfig, SuiteRun, build_context, suite_stone
from skewhecke.groups import (
    Subgroup,
    cyclic_group,
    power_group,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
    full_subgroup,
)
from skewhecke.hecke import HeckeContext, classical_context, structure_constants
from skewhecke.isomorphisms import (
    CocycleConditionError,
    StoneModel,
    coboundary_from_unit,
    cocycle_transport,
    cocycle_verify,
    conjugate_transport,
    from_corner,
    from_matrix,
    intermediate_embed,
    matrix_invariance_witness,
    opposite_transport,
    product_transport,
    quotient_transport,
    relativise,
    semidirect_transport,
    to_corner,
    to_matrix,
    verify_algebra_map,
)
from skewhecke.scalars import PrimeField, Rationals
from skewhecke.skewgroup import SkewGroupAlgebra, hecke_idempotent

from reference_shapes import (
    diagonal_sum_preimage,
    special_case_full_subgroup,
    special_case_normal_subgroup,
    special_case_trivial_action,
    special_case_trivial_subgroup,
)

Q = Rationals()
S3 = symmetric_group(3)
S4 = symmetric_group(4)


def s2_subgroup(G=S3):
    return subgroup_from_generators(G, [G.element_by_name("(1 2)")])


def function_context(G=S3, H=None):
    A = FunctionAlgebra(Q, G)
    act = left_translation_action(G, A)
    return HeckeContext(G, H if H is not None else s2_subgroup(G), A, act)


def polynomial_context(cap=2):
    A = PolynomialAlgebra(Q, 3, 2 * cap)
    act = permutation_variable_action(S3, A)
    return HeckeContext(S3, s2_subgroup(), A, act, degree_cap=cap)


def hecke_vectorizer(ctx):
    return ctx.module_coordinates


# -- matrix model ------------------------------------------------------------


def test_matrix_roundtrip_and_invariance():
    ctx = function_context()
    rng = random.Random(0)
    for _ in range(10):
        phi = ctx.random_element(rng)
        m = to_matrix(phi)
        assert matrix_invariance_witness(m) is None
        assert from_matrix(m) == phi


def test_matrix_multiplicative():
    ctx = function_context()
    rng = random.Random(1)
    pairs = [
        (ctx.random_element(rng), ctx.random_element(rng)) for _ in range(15)
    ]
    assert all(to_matrix(x * y) == to_matrix(x) * to_matrix(y) for x, y in pairs)
    assert to_matrix(ctx.identity()) == ctx.matrix_model.one()


def test_matrix_untwisted_variant_fails():
    # dropping the alpha_k twist from the matrix assignment breaks invariance
    ctx = function_context()
    cs, G = ctx.cosets, ctx.G
    rng = random.Random(2)
    found = False
    for _ in range(5):
        phi = ctx.random_element(rng)
        exp = phi.expand()
        m = ctx.matrix_model.from_components({
            (a, b): exp[cs.coset_of[G.mul(G.inverse(cs.reps[a]), cs.reps[b])]]
            for a in range(cs.n)
            for b in range(cs.n)
        })
        if matrix_invariance_witness(m) is not None:
            found = True
            break
    assert found


def test_from_matrix_rejects_non_invariant():
    ctx = function_context()
    m = ctx.matrix_model.from_components({(1, 1): ctx.A.basis_element(0)})
    with pytest.raises(ValueError, match="not G-invariant"):
        from_matrix(m)


def test_relativise_diagonal_polynomials():
    ctx = polynomial_context()
    A = ctx.A
    x1, x2, x3 = (A.variable(i) for i in (1, 2, 3))
    m = relativise(ctx, x3)
    entries = m.alg.components(m)
    diag = [entries[(i, i)] for i in range(3)]
    assert diag == [x3, x2, x1]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert (i, j) not in entries


def test_relativise_matches_matrix_of_embedding():
    ctx = polynomial_context()
    inv = invariants_compute(ctx.A, ctx.H.generators(), ctx.action, degree=2)
    for a in inv:
        assert relativise(ctx, a) == to_matrix(ctx.embed_invariant(a))
    assert relativise(ctx, ctx.A.one()) == ctx.matrix_model.one()


def test_relativise_rejects_moved_element():
    ctx = polynomial_context()
    with pytest.raises(ValueError, match="H-invariant"):
        relativise(ctx, ctx.A.variable(1))


# -- corner model ------------------------------------------------------------


def test_corner_roundtrip_and_multiplicative():
    ctx = function_context()
    sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
    e = hecke_idempotent(sga, ctx.H)
    rng = random.Random(3)
    elems = [ctx.random_element(rng) for _ in range(8)]
    for phi in elems:
        x = to_corner(ctx, sga, phi)
        assert e * x * e == x  # lands in the corner
        assert from_corner(ctx, sga, x) == phi
    for phi in elems[:4]:
        for psi in elems[4:]:
            assert to_corner(ctx, sga, phi * psi) == (
                to_corner(ctx, sga, phi) * to_corner(ctx, sga, psi)
            )
    assert to_corner(ctx, sga, ctx.identity()) == e


# -- function coefficients: full matrix algebra ------------------------------


def test_stone_model_is_isomorphism():
    ctx = function_context()
    sm = StoneModel(ctx)
    basis = ctx.basis_hecke_elements()
    report = verify_algebra_map(
        "stone",
        basis,
        sm.apply,
        ctx.identity(),
        sm.matrices.one(),
        Q,
        vectorize=lambda m: m.coeffs,
        target_dim=sm.n * sm.n,
        rng=random.Random(4),
    )
    assert report.ok, str(report)


STONE_SHAPES = [
    pytest.param(S3, ["(1 2)"], Q, id="S3-S2-Q"),
    pytest.param(S3, ["(1 2)"], PrimeField(5), id="S3-S2-GF5"),
    pytest.param(S4, ["(1 2)", "(1 2 3)"], Q, id="S4-S3-Q"),
    pytest.param(S4, ["(1 2)"], PrimeField(3), id="S4-S2-GF3"),  # 3 divides |G|
]


def stone_model(G, gens, field):
    A = FunctionAlgebra(field, G)
    H = subgroup_from_generators(G, [G.element_by_name(g) for g in gens])
    return StoneModel(HeckeContext(G, H, A, left_translation_action(G, A)))


@pytest.mark.parametrize("G, gens, field", STONE_SHAPES)
def test_stone_inverse_round_trips(G, gens, field):
    sm = stone_model(G, gens, field)
    ctx = sm.ctx
    labels = sm.matrices.labels()
    rng = random.Random(5)
    for _ in range(3):
        m = sm.matrices.element({ab: field.from_int(rng.randint(-3, 3)) for ab in labels})
        assert sm.apply(sm.preimage(m)) == m
        phi = ctx.random_element(rng)
        assert sm.preimage(sm.apply(phi)) == phi


@pytest.mark.parametrize("G, gens, field", STONE_SHAPES + [
    pytest.param(S3, [], Q, id="S3-1-Q"),  # n = 6
    pytest.param(S3, ["(1 2)", "(1 2 3)"], Q, id="S3-S3-Q"),  # n = 1
])
def test_stone_inverse_formula_equals_the_diagonal_sum(G, gens, field):
    sm = stone_model(G, gens, field)
    labels = sm.matrices.labels()
    assert len(labels) == (G.order // sm.ctx.H.order) ** 2
    rng = random.Random(6)
    ms = [sm.matrices.basis_element(ab) for ab in labels]
    ms += [sm.matrices.element({ab: field.from_int(rng.randint(-3, 3)) for ab in labels})
           for _ in range(3)]
    for m in ms:
        assert sm.preimage(m) == diagonal_sum_preimage(sm, m)


def test_stone_preimages_and_matrix_units():
    ctx = function_context()
    sm = StoneModel(ctx)
    n = sm.n
    units = {
        (i, j): sm.preimage(sm.matrices.basis_element((i, j)))
        for i in range(n)
        for j in range(n)
    }
    for (i, j), u in units.items():
        assert sm.apply(u) == sm.matrices.basis_element((i, j))
    # matrix-unit relations pulled back through the isomorphism
    for (i, j), u in units.items():
        for (k, l), v in units.items():
            prod = u * v
            if j == k:
                assert prod == units[(i, l)]
            else:
                assert prod.is_zero
    assert sum(
        (units[(i, i)] for i in range(n)), ctx.zero()
    ) == ctx.identity()


def test_stone_model_applies_exactly_to_left_translation():
    A = FunctionAlgebra(Q, S3)
    H = s2_subgroup()
    translate = GroupAction(S3, A, lambda g, k: A.basis_element(S3.mul(g, k)),
                            name="translate")
    ctx = HeckeContext(S3, H, A, translate)
    assert StoneModel.applies(ctx)
    lines = []
    run = SuiteRun(lines.append)
    suite_stone(run, ctx, random.Random(0))
    assert run.executed and not run.failed, lines
    # delta_k -> delta_{k g^-1} is an action, but not the left translation
    right = GroupAction(S3, A, lambda g, k: A.basis_element(S3.mul(k, S3.inverse(g))),
                        name="left_translation")
    assert not StoneModel.applies(HeckeContext(S3, H, A, right))
    # the CLI's action, which the functions_* verify goldens run the Stone suite on
    assert StoneModel.applies(build_context(JobConfig(algebra="functions",
                                                      action="left_translation")))


# -- transports along group operations ---------------------------------------


def test_quotient_transport_s4_d4_mod_v4():
    G = S4
    H = subgroup_from_generators(
        G, [G.element_by_name("(1 2 3 4)"), G.element_by_name("(1 3)")]
    )
    V4 = Subgroup(
        G,
        [0]
        + [G.perms.index(p) for p in [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]],
    )
    ctx = function_context(G, H)
    tr = quotient_transport(ctx, V4)
    assert ctx.dimension() == tr.target.dimension()
    report = verify_algebra_map(
        "quotient",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        tr.target.identity(),
        Q,
        vectorize=hecke_vectorizer(tr.target),
        target_dim=tr.target.dimension(),
        rng=random.Random(5),
    )
    assert report.ok, str(report)
    rng = random.Random(6)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


def test_graded_quotient_keeps_the_degree_cap():
    A = PolynomialAlgebra(Q, 3, 4)
    N = subgroup_from_generators(S3, [S3.element_by_name("(1 2 3)")])
    ctx = HeckeContext(S3, N, A, permutation_variable_action(S3, A), degree_cap=2)
    tr = quotient_transport(ctx, N)
    assert tr.target.degree_cap == 2
    structure_constants(tr.target)
    assert [tr.target.dimension(d) for d in range(3)] \
        == [ctx.dimension(d) for d in range(3)] == [2, 2, 4]


def test_quotient_transport_requires_containment():
    ctx = function_context()
    A3 = subgroup_from_generators(S3, [S3.element_by_name("(1 2 3)")])
    with pytest.raises(ValueError, match="not contained"):
        quotient_transport(ctx, A3)


def test_product_transport():
    ctx1 = function_context()
    C2 = cyclic_group(2)
    ctx2 = classical_context(Q, C2, trivial_subgroup(C2))
    tr = product_transport(ctx1, ctx2)
    BT = tr.source
    basis = [BT.basis_element(l) for l in BT.labels()]
    report = verify_algebra_map(
        "product",
        basis,
        tr.forward,
        BT.one(),
        tr.target.identity(),
        Q,
        vectorize=hecke_vectorizer(tr.target),
        target_dim=tr.info["target_dim"],
        rng=random.Random(7),
    )
    assert report.ok, str(report)
    assert len(basis) == tr.info["target_dim"] == 18


def test_product_transport_refuses_a_graded_factor():
    C2 = cyclic_group(2)
    finite = classical_context(Q, C2, trivial_subgroup(C2))
    for ctx1, ctx2 in ((polynomial_context(), finite), (finite, polynomial_context())):
        with pytest.raises(ValueError, match="graded context has no finite table"):
            product_transport(ctx1, ctx2)


def test_tensor_values_multiply_through_the_grouped_product(monkeypatch):
    """Hecke values in A (x) B are elements of A (x) B: convolution, combinations
    and random elements never reach the label-pair TensorAlgebra.product_on_basis."""
    C2 = cyclic_group(2)
    ctx2 = classical_context(Q, C2, trivial_subgroup(C2))
    T = product_transport(function_context(), ctx2).target
    rng = random.Random(1)
    x, y = T.random_element(rng), T.random_element(rng)

    def label_pair_product(self, l1, l2):
        raise AssertionError("label-pair tensor product reached")

    monkeypatch.setattr(TensorAlgebra, "product_on_basis", label_pair_product)
    xy = x * y
    assert not xy.is_zero
    for phi in (x, y, xy, T.combination([(x, Q.one), (xy, Q.one)])):
        assert all(v.alg is T.A for v in phi.values.values())


def test_intermediate_embed_chain_s2_s3_s4():
    G = S4
    H = subgroup_from_generators(G, [G.element_by_name("(1 2)")])
    K = subgroup_from_generators(
        G, [G.element_by_name("(1 2)"), G.element_by_name("(2 3)")]
    )
    ctx = function_context(G, H)
    tr = intermediate_embed(ctx, K)
    src = tr.source
    report = verify_algebra_map(
        "intermediate",
        src.basis_hecke_elements(),
        tr.forward,
        src.identity(),
        ctx.identity(),
        Q,
        vectorize=hecke_vectorizer(ctx),
        rng=random.Random(8),
        max_pairs=60,
    )
    assert report.ok, str(report)
    # extended elements vanish on cosets not meeting K
    kset = set(e for e in K.elements)
    rng = random.Random(9)
    phi = tr.forward(src.random_element(rng))
    exp = phi.expand()
    for ci, coset in enumerate(ctx.cosets.cosets):
        if not (set(coset) & kset):
            assert exp[ci].is_zero


def test_conjugate_transport():
    ctx = function_context()
    s = S3.element_by_name("(2 3)")
    tr = conjugate_transport(ctx, s)
    assert tr.target.H.elements != ctx.H.elements
    report = verify_algebra_map(
        "conjugate",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        tr.target.identity(),
        Q,
        vectorize=hecke_vectorizer(tr.target),
        target_dim=tr.target.dimension(),
        rng=random.Random(10),
    )
    assert report.ok, str(report)
    rng = random.Random(11)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


def test_semidirect_transport():
    N, tuples, index = power_group(cyclic_group(2), 3)

    def act(k, n):
        p = S3.perms[k]
        t = tuples[n]
        out = [0, 0, 0]
        for i in range(3):
            out[p[i]] = t[i]
        return index[tuple(out)]

    H = s2_subgroup()
    tr = semidirect_transport(Q, N, K=S3, act=act, H=H)
    src, tgt = tr.source, tr.target
    assert src.dimension() == tgt.dimension() == 14
    report = verify_algebra_map(
        "semidirect",
        src.basis_hecke_elements(),
        tr.forward,
        src.identity(),
        tgt.identity(),
        Q,
        vectorize=hecke_vectorizer(tgt),
        target_dim=tgt.dimension(),
        rng=random.Random(12),
    )
    assert report.ok, str(report)
    rng = random.Random(13)
    for _ in range(5):
        phi = src.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


# -- cocycle perturbations ----------------------------------------------------


def group_algebra_context():
    A = GroupAlgebra(Q, S3)
    return HeckeContext(S3, trivial_subgroup(S3), A, trivial_action(S3, A))


def test_cocycle_transport_group_algebra():
    ctx = group_algebra_context()
    chi = {g: ctx.A.basis_element(g) for g in range(S3.order)}
    assert cocycle_verify(ctx, chi) == []
    tr = cocycle_transport(ctx, chi)
    report = verify_algebra_map(
        "cocycle",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        tr.target.identity(),
        Q,
        vectorize=hecke_vectorizer(tr.target),
        target_dim=tr.target.dimension(),
        rng=random.Random(14),
        max_pairs=200,
    )
    assert report.ok, str(report)
    rng = random.Random(15)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


def test_cocycle_violation_detected():
    # the sign character satisfies the cocycle identity but is not trivial
    # on H, so the perturbation is rejected with that witness
    ctx = function_context()
    sign = {}
    for g in range(S3.order):
        p = S3.perms[g]
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]
        )
        c = Q.from_int((-1) ** inversions)
        sign[g] = ctx.A.one().scale(c)
    with pytest.raises(CocycleConditionError) as exc:
        cocycle_transport(ctx, sign)
    assert any(check == "trivial_on_H" for check, _ in exc.value.failures)


def test_graded_cocycle_with_a_positive_degree_term_is_a_named_failure():
    # 1 + x1 cannot be inverted in degree 0: a witness naming g, not a crash
    ctx = polynomial_context()
    A = ctx.A
    g = S3.element_by_name("(1 3)")
    chi = {k: A.one() for k in range(S3.order)}
    chi[g] = A.one() + A.variable(1)
    assert cocycle_verify(ctx, chi) == [
        ("unit", "chi((1 3)): a graded element is inverted only in degree 0")]
    with pytest.raises(CocycleConditionError) as exc:
        cocycle_transport(ctx, chi)
    assert exc.value.failures == cocycle_verify(ctx, chi)


def test_coboundary_from_unit():
    A = GroupAlgebra(Q, S3)
    H = subgroup_from_generators(S3, [S3.element_by_name("(1 2 3)")])
    ctx = HeckeContext(S3, H, A, conjugation_action(S3, A))
    u = A.basis_element(S3.element_by_name("(1 2 3)"))
    chi = coboundary_from_unit(ctx, u)
    assert cocycle_verify(ctx, chi) == []
    tr = cocycle_transport(ctx, chi)
    rng = random.Random(16)
    for _ in range(5):
        x, y = ctx.random_element(rng), ctx.random_element(rng)
        assert tr.forward(x * y) == tr.forward(x) * tr.forward(y)


# -- opposite algebras --------------------------------------------------------


def test_opposite_transport_anti_multiplicative():
    ctx = function_context()
    tr = opposite_transport(ctx)
    report = verify_algebra_map(
        "opposite",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        tr.target.identity(),
        Q,
        vectorize=hecke_vectorizer(tr.target),
        target_dim=tr.target.dimension(),
        rng=random.Random(17),
        anti=True,
    )
    assert report.ok, str(report)
    rng = random.Random(18)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


# -- degenerate shapes --------------------------------------------------------


def test_special_case_trivial_action():
    C4 = cyclic_group(4)
    A = GroupAlgebra(Q, C4)
    ctx = HeckeContext(S3, s2_subgroup(), A, trivial_action(S3, A))
    tr = special_case_trivial_action(ctx)
    T = tr.target
    labels = T.labels()
    report = verify_algebra_map(
        "trivial_action",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        T.one(),
        Q,
        vectorize=lambda x: x.coeffs,
        target_dim=len(labels),
        rng=random.Random(19),
    )
    assert report.ok, str(report)
    rng = random.Random(20)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


def test_special_case_full_subgroup():
    ctx = function_context(H=full_subgroup(S3))
    tr = special_case_full_subgroup(ctx)
    AG = tr.target
    labels = AG.labels()
    report = verify_algebra_map(
        "full_subgroup",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        AG.one(),
        Q,
        vectorize=lambda x: x.coeffs,
        target_dim=len(labels),
        rng=random.Random(21),
    )
    assert report.ok, str(report)
    assert AG.dim == 1  # constants


def test_special_case_trivial_subgroup():
    ctx = function_context(H=trivial_subgroup(S3))
    tr = special_case_trivial_subgroup(ctx)
    sga = tr.target
    report = verify_algebra_map(
        "trivial_subgroup",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        sga.one(),
        Q,
        vectorize=lambda x: x.coeffs,
        target_dim=sga.dim,
        rng=random.Random(22),
        max_pairs=200,
    )
    assert report.ok, str(report)
    rng = random.Random(23)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi


def test_special_case_normal_subgroup():
    A3 = subgroup_from_generators(S3, [S3.element_by_name("(1 2 3)")])
    ctx = function_context(H=A3)
    tr = special_case_normal_subgroup(ctx)
    sga = tr.target
    report = verify_algebra_map(
        "normal_subgroup",
        ctx.basis_hecke_elements(),
        tr.forward,
        ctx.identity(),
        sga.one(),
        Q,
        vectorize=lambda x: x.coeffs,
        target_dim=sga.dim,
        rng=random.Random(24),
    )
    assert report.ok, str(report)
    assert ctx.dimension() == sga.dim == 4
    rng = random.Random(25)
    for _ in range(5):
        phi = ctx.random_element(rng)
        assert tr.backward(tr.forward(phi)) == phi
