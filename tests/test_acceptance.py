"""Acceptance gate: one exact-equality criterion per test, one report line each.

Each test prints ``ACCEPTANCE <n> <name>: PASS|FAIL`` (visible under ``pytest -s``
or in captured output) and fails the suite on any inexact result.
"""

import random

from skewhecke import linalg
from skewhecke.algebras import (
    FunctionAlgebra,
    GroupAlgebra,
    PolynomialAlgebra,
    conjugation_action,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
    trivial_action,
)
from skewhecke.cli import main as cli_main
from skewhecke.groups import (
    CosetSpace,
    Subgroup,
    cyclic_group,
    dihedral_group,
    power_group,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
    full_subgroup,
)
from skewhecke.hecke import (
    HeckeContext,
    HeckeElement,
    classical_context,
    structure_constants,
)
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
from skewhecke.scalars import NotAUnitError, PrimeField, Rationals
from skewhecke.skewgroup import SkewGroupAlgebra, corner_basis, hecke_idempotent

from reference_convolution import classical_structure_constants_counting
from reference_shapes import (
    special_case_full_subgroup,
    special_case_normal_subgroup,
    special_case_trivial_action,
    special_case_trivial_subgroup,
)

Q = Rationals()
S3 = symmetric_group(3)
S4 = symmetric_group(4)


def report(n, name, body):
    try:
        body()
        err = None
    except Exception as exc:  # report the line even on failure
        err = exc
    status = "PASS" if err is None else "FAIL"
    print(f"ACCEPTANCE {n:2d} {name}: {status}")
    if err is not None:
        raise err


def s2(G=S3):
    return subgroup_from_generators(G, [G.element_by_name("(1 2)")])


def function_context(G=S3, H=None, field=Q):
    A = FunctionAlgebra(field, G)
    return HeckeContext(G, H if H is not None else s2(G), A,
                        left_translation_action(G, A))


def polynomial_context(G=S3, H=None, nvars=3, cap=2):
    A = PolynomialAlgebra(Q, nvars, 2 * cap)
    return HeckeContext(G, H if H is not None else s2(G), A,
                        permutation_variable_action(G, A), degree_cap=cap)


def conjugation_context():
    A = GroupAlgebra(Q, S3)
    return HeckeContext(S3, s2(), A, conjugation_action(S3, A))


def coordinate_map(ctx):
    """phi -> its module coordinates as a {position: value} map."""
    return ctx.module_coordinates


def random_invariant(ctx, rng, degrees=None):
    out = ctx.A.zero()
    if ctx.graded:
        for d in degrees if degrees is not None else range(ctx.degree_cap + 1):
            for b in invariants_compute(ctx.A, ctx.H.generators(), ctx.action,
                                        degree=d):
                out = out + b.scale(ctx.field.from_int(rng.randint(-3, 3)))
        return out
    for b in invariants_compute(ctx.A, ctx.H.generators(), ctx.action):
        out = out + b.scale(ctx.field.from_int(rng.randint(-3, 3)))
    return out


def random_free(ctx, rng, degrees=None):
    out = ctx.A.zero()
    if ctx.graded:
        labels = [
            l
            for d in (degrees if degrees is not None else range(ctx.degree_cap + 1))
            for l in ctx.A.enumerate_degree(d)
        ]
    else:
        labels = ctx.A.labels()
    for l in labels:
        out = out + ctx.A.basis_element(l).scale(
            ctx.field.from_int(rng.randint(-3, 3))
        )
    return out


# -- 1: classical product formula for (S3, S2) -------------------------------


def test_acceptance_01_classical_product_formula():
    def body():
        ctx = classical_context(Q, S3, s2())
        _, rows = structure_constants(ctx)
        computed = {(i, j, k): c for i, j, k, c in rows}
        # (r,s)(r',s') = (rr' + 2ss', rs' + sr' + ss')
        expected = {
            (0, 0, 0): Q.one,
            (0, 1, 1): Q.one,
            (1, 0, 1): Q.one,
            (1, 1, 0): Q.from_int(2),
            (1, 1, 1): Q.one,
        }
        assert computed == expected

    report(1, "classical (S3,S2) product formula (rr'+2ss', rs'+sr'+ss')", body)


# -- 2: closed product formula with polynomial coefficients ------------------


def test_acceptance_02_polynomial_closed_formula():
    def body():
        ctx = polynomial_context()
        G = ctx.G
        t12 = G.element_by_name("(1 2)")
        t23 = G.element_by_name("(2 3)")
        t13 = G.element_by_name("(1 3)")
        act = ctx.action
        rng = random.Random(202)
        for _ in range(100):
            a = random_invariant(ctx, rng)
            ap = random_invariant(ctx, rng)
            b = random_free(ctx, rng)
            bp = random_free(ctx, rng)
            phi = ctx.from_values({0: a, 1: b})
            psi = ctx.from_values({0: ap, 1: bp})
            prod = phi.convolve(psi)
            t = b * act.apply(t23, bp)
            first = a * ap + t + act.apply(t12, t)
            second = (
                a * bp
                + b * act.apply(t23, ap)
                + act.apply(t12, b) * act.apply(t13, bp)
            )
            assert prod.value(0) == first
            assert prod.value(1) == second

    report(2, "closed convolution formula, 100 random polynomial pairs", body)


# -- 3: double-coset decomposition and bimodule law --------------------------


def _check_decomposition_and_bimodule(ctx, rng):
    degree = 1 if ctx.graded else None
    basis = ctx.module_basis(degree)
    assert basis
    # bijection: coordinates round-trip
    for _ in range(3):
        x = ctx.random_element(rng, degree=degree)
        coords = ctx.module_coordinates(x, degree=degree)
        y = ctx.zero()
        for t, c in coords.items():
            y = y + HeckeElement(ctx, dict([basis[t]])).scale(c)
        assert y == x
    # bimodule law on every module-basis element
    a = random_invariant(ctx, rng)
    ap = random_invariant(ctx, rng)
    da, dap = ctx.embed_invariant(a), ctx.embed_invariant(ap)
    for oi, v in basis:
        phi = HeckeElement(ctx, {oi: v})
        lhs = da.convolve(phi).convolve(dap)
        g = ctx.cosets.reps[ctx.orbits[oi].rep_coset]
        expected = a * v * ctx.action.apply(g, ap)
        assert lhs.values == ({oi: expected} if not expected.is_zero else {})


def test_acceptance_03_decomposition_bimodule():
    def body():
        rng = random.Random(303)
        pairs = [
            (S3, s2(S3)),
            (S4, subgroup_from_generators(
                S4, [S4.element_by_name("(1 2)"), S4.element_by_name("(2 3)")])),
            (S4, subgroup_from_generators(
                S4, [S4.element_by_name("(1 2 3 4)"), S4.element_by_name("(1 3)")])),
        ]
        D4 = dihedral_group(4)  # |K| = 8 group-algebra coefficients
        for G, H in pairs:
            AK = GroupAlgebra(Q, D4)
            ctxs = [
                HeckeContext(G, H, AK, trivial_action(G, AK)),
                function_context(G, H),
                polynomial_context(G, H, nvars=len(G.perms[0])),
            ]
            for ctx in ctxs:
                _check_decomposition_and_bimodule(ctx, rng)

    report(3, "double-coset decomposition + bimodule law, 3 (G,H) x 3 coefficient families", body)


# -- 4: matrix model ----------------------------------------------------------


def _invariant_matrix_dimension(ctx):
    """dim of {M : alpha_s M_{s^-1 g, s^-1 k} = M_{g,k}} by exact nullspace."""
    cs, G, A = ctx.cosets, ctx.G, ctx.A
    labels = A.labels()
    m = len(labels)
    nvar = cs.n * cs.n * m
    # variables x[(ci, cj, l)]; for each generator s and each (i, j, l2):
    # sum_l coeff(alpha_s e_l, l2) x[(mi, mj, l)] - x[(i, j, l2)] = 0
    rows = []
    for s in full_subgroup(G).generators():
        si = G.inverse(s)
        moved = [cs.coset_of[G.mul(si, cs.reps[i])] for i in range(cs.n)]
        action_cols = {
            l: ctx.action.apply(s, A.basis_element(l)).coeffs for l in labels
        }
        for i in range(cs.n):
            for j in range(cs.n):
                src = (moved[i] * cs.n + moved[j]) * m
                dst = (i * cs.n + j) * m
                for t2, l2 in enumerate(labels):
                    row = {src + t: action_cols[l][l2] for t, l in enumerate(labels)
                           if l2 in action_cols[l]}
                    linalg.add_into(ctx.field, row, {dst + t2: ctx.field.neg(ctx.field.one)})
                    rows.append(row)
    return len(linalg.CoordinateSolver(ctx.field, rows, nvar).basis)


def test_acceptance_04_matrix_model():
    def body():
        rng = random.Random(404)
        for ctx in [classical_context(Q, S3, s2()), function_context(),
                    conjugation_context()]:
            xs = [ctx.random_element(rng) for _ in range(5)]
            for x in xs:
                mx = to_matrix(x)
                assert matrix_invariance_witness(mx) is None
                assert from_matrix(mx) == x
            pairs = [(ctx.random_element(rng), ctx.random_element(rng))
                     for _ in range(20)]
            assert all(to_matrix(x * y) == to_matrix(x) * to_matrix(y)
                       for x, y in pairs)
            assert to_matrix(ctx.identity()) == ctx.matrix_model.one()
            # image = all G-invariant matrices: exact rank equality
            vecs = [to_matrix(b).coeffs for b in ctx.basis_hecke_elements()]
            r = linalg.rank(ctx.field, vecs)
            assert r == ctx.dimension() == _invariant_matrix_dimension(ctx)

    report(4, "matrix model: inverse pair, image = G-invariant matrices, multiplicativity", body)


# -- 5: corner model -----------------------------------------------------------


def test_acceptance_05_corner_model():
    def body():
        ctx = function_context()
        sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
        e = hecke_idempotent(sga, ctx.H)
        assert e * e == e
        rng = random.Random(505)
        xs = [ctx.random_element(rng) for _ in range(6)]
        for x in xs:
            c = to_corner(ctx, sga, x)
            assert e * c * e == c
            assert from_corner(ctx, sga, c) == x
        for x in xs[:3]:
            for y in xs[3:]:
                assert to_corner(ctx, sga, x * y) == (
                    to_corner(ctx, sga, x) * to_corner(ctx, sga, y)
                )
        assert to_corner(ctx, sga, ctx.identity()) == e
        vecs = [to_corner(ctx, sga, b).coeffs for b in ctx.basis_hecke_elements()]
        assert linalg.rank(Q, vecs) == ctx.dimension()
        assert len(corner_basis(sga, e)) == ctx.dimension()
        # over GF(2) with |H| = 2 the model must be reported unavailable
        F2 = PrimeField(2)
        A2 = FunctionAlgebra(F2, S3)
        sga2 = SkewGroupAlgebra(A2, S3, left_translation_action(S3, A2))
        try:
            hecke_idempotent(sga2, s2())
            raise AssertionError("expected NotAUnitError over GF(2)")
        except NotAUnitError as exc:
            assert "unavailable" in str(exc)

    report(5, "corner model: idempotent, unital bijection, GF(2) unavailability", body)


# -- 6: full matrix algebra for function coefficients -------------------------


def test_acceptance_06_full_matrix_description(capsys, tmp_path):
    def body():
        ctx = function_context()
        assert ctx.dimension() == 9
        sm = StoneModel(ctx)
        assert sm.n == 3  # |G/H| = 3: the target is M_3, not M_2
        units = {
            (i, j): sm.preimage(sm.matrices.basis_element((i, j)))
            for i in range(3)
            for j in range(3)
        }
        for (i, j), u in units.items():
            for (k, l), v in units.items():
                expected = units[(i, l)] if j == k else ctx.zero()
                assert u * v == expected
        assert sum((units[(i, i)] for i in range(3)), ctx.zero()) == ctx.identity()
        # the discrepancy flag appears in the CLI verification report
        cfg = tmp_path / "stone.cfg"
        cfg.write_text(
            "field = rationals\ngroup = symmetric(3)\nsubgroup = (1 2)\n"
            "algebra = functions\naction = left_translation\n"
        )
        code = cli_main(["verify", "stone", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "stone.rank_discrepancy_flag: PASS" in out

    report(6, "function coefficients: H = M_3(Q) with discrepancy flagged", body)


# -- 7: degenerate shapes ------------------------------------------------------


def test_acceptance_07_special_cases():
    def body():
        rng = random.Random(707)
        # (a) A = Q, trivial: structure constants equal the counting model
        ctx = classical_context(Q, S3, s2())
        _, rows = structure_constants(ctx)
        assert {(i, j, k): c for i, j, k, c in rows} == (
            classical_structure_constants_counting(Q, CosetSpace(S3, s2()))
        )
        # (c) trivial action: A (x) classical Hecke algebra
        C4 = cyclic_group(4)
        A = GroupAlgebra(Q, C4)
        ctx_c = HeckeContext(S3, s2(), A, trivial_action(S3, A))
        tr = special_case_trivial_action(ctx_c)
        labels = tr.target.labels()
        rep = verify_algebra_map(
            "c", ctx_c.basis_hecke_elements(), tr.forward, ctx_c.identity(),
            tr.target.one(), Q, vectorize=lambda x: x.coeffs,
            target_dim=len(labels), rng=rng,
        )
        assert rep.ok, str(rep)
        # (d) H = G: the G-invariant subalgebra
        ctx_d = function_context(H=full_subgroup(S3))
        tr = special_case_full_subgroup(ctx_d)
        labels = tr.target.labels()
        rep = verify_algebra_map(
            "d", ctx_d.basis_hecke_elements(), tr.forward, ctx_d.identity(),
            tr.target.one(), Q, vectorize=lambda x: x.coeffs,
            target_dim=len(labels), rng=rng,
        )
        assert rep.ok, str(rep)
        # (e) H = 1: the skew group algebra
        ctx_e = function_context(H=trivial_subgroup(S3))
        tr = special_case_trivial_subgroup(ctx_e)
        rep = verify_algebra_map(
            "e", ctx_e.basis_hecke_elements(), tr.forward, ctx_e.identity(),
            tr.target.one(), Q, vectorize=lambda x: x.coeffs,
            target_dim=tr.target.dim, rng=rng, max_pairs=300,
        )
        assert rep.ok, str(rep)
        # (f) H = A3 normal in S3: A^{A3} x| Z/2
        A3 = subgroup_from_generators(S3, [S3.element_by_name("(1 2 3)")])
        ctx_f = function_context(H=A3)
        tr = special_case_normal_subgroup(ctx_f)
        assert tr.info["quotient_order"] == 2
        rep = verify_algebra_map(
            "f", ctx_f.basis_hecke_elements(), tr.forward, ctx_f.identity(),
            tr.target.one(), Q, vectorize=lambda x: x.coeffs,
            target_dim=tr.target.dim, rng=rng,
        )
        assert rep.ok, str(rep)

    report(7, "special cases (a)(c)(d)(e)(f) vs independently built models", body)


# -- 8: transports along group operations -------------------------------------


def test_acceptance_08_transports():
    def body():
        rng = random.Random(808)
        # quotient: V4 normal in S4, V4 <= D4
        D4sub = subgroup_from_generators(
            S4, [S4.element_by_name("(1 2 3 4)"), S4.element_by_name("(1 3)")]
        )
        V4 = Subgroup(
            S4,
            [0] + [S4.perms.index(p)
                   for p in [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]],
        )
        ctx = function_context(S4, D4sub)
        tr = quotient_transport(ctx, V4)
        assert tr.target.G.order == 6 and tr.target.H.order == 2
        rep = verify_algebra_map(
            "quotient", ctx.basis_hecke_elements(), tr.forward, ctx.identity(),
            tr.target.identity(), Q, vectorize=coordinate_map(tr.target),
            target_dim=tr.target.dimension(), rng=rng,
        )
        assert rep.ok, str(rep)
        # product: (S3, S2) x (Z/2, 1)
        C2 = cyclic_group(2)
        ctx2 = classical_context(Q, C2, trivial_subgroup(C2))
        trp = product_transport(function_context(), ctx2)
        BT = trp.source
        basis = [BT.basis_element(l) for l in BT.labels()]
        rep = verify_algebra_map(
            "product", basis, trp.forward, BT.one(), trp.target.identity(), Q,
            vectorize=coordinate_map(trp.target),
            target_dim=trp.info["target_dim"], rng=rng, max_pairs=200,
        )
        assert rep.ok, str(rep)
        # intermediate: S2 <= S3 <= S4, injective and multiplicative
        H = subgroup_from_generators(S4, [S4.element_by_name("(1 2)")])
        K = subgroup_from_generators(
            S4, [S4.element_by_name("(1 2)"), S4.element_by_name("(2 3)")]
        )
        ctx4 = function_context(S4, H)
        tre = intermediate_embed(ctx4, K)
        rep = verify_algebra_map(
            "intermediate", tre.source.basis_hecke_elements(), tre.forward,
            tre.source.identity(), ctx4.identity(), Q,
            vectorize=coordinate_map(ctx4), rng=rng, max_pairs=60,
        )
        assert rep.ok, str(rep)
        # conjugation by s = (2 3)
        ctx3 = function_context()
        trc = conjugate_transport(ctx3, S3.element_by_name("(2 3)"))
        rep = verify_algebra_map(
            "conjugate", ctx3.basis_hecke_elements(), trc.forward,
            ctx3.identity(), trc.target.identity(), Q,
            vectorize=coordinate_map(trc.target),
            target_dim=trc.target.dimension(), rng=rng,
        )
        assert rep.ok, str(rep)
        # semidirect: (Z/2)^3 x| S3 with H = S2, dimension 14 on both sides
        N, tuples, index = power_group(cyclic_group(2), 3)

        def act(k, n):
            p = S3.perms[k]
            t = tuples[n]
            out = [0, 0, 0]
            for i in range(3):
                out[p[i]] = t[i]
            return index[tuple(out)]

        trs = semidirect_transport(Q, N, S3, act, s2())
        assert trs.source.dimension() == trs.target.dimension() == 14
        rep = verify_algebra_map(
            "semidirect", trs.source.basis_hecke_elements(), trs.forward,
            trs.source.identity(), trs.target.identity(), Q,
            vectorize=coordinate_map(trs.target),
            target_dim=trs.target.dimension(), rng=rng,
        )
        assert rep.ok, str(rep)

    report(8, "transports: quotient, product, intermediate, conjugate, semidirect", body)


# -- 9: cocycle perturbations --------------------------------------------------


def test_acceptance_09_cocycles():
    def body():
        rng = random.Random(909)
        # coboundary fixture on (S3, S2, Q[S3], conjugation)
        A = GroupAlgebra(Q, S3)
        ctx = HeckeContext(S3, s2(), A, conjugation_action(S3, A))
        u = A.basis_element(S3.element_by_name("(1 2)"))
        chi = coboundary_from_unit(ctx, u)
        assert cocycle_verify(ctx, chi) == []
        tr = cocycle_transport(ctx, chi)
        rep = verify_algebra_map(
            "coboundary", ctx.basis_hecke_elements(), tr.forward,
            ctx.identity(), tr.target.identity(), Q,
            vectorize=coordinate_map(tr.target),
            target_dim=tr.target.dimension(), rng=rng, max_pairs=200,
        )
        assert rep.ok, str(rep)
        # inner-action fixture: trivial action on Q[S3], H = 1, chi(g) = [g]
        ctx_i = HeckeContext(S3, trivial_subgroup(S3), A, trivial_action(S3, A))
        chi_i = {g: A.basis_element(g) for g in range(S3.order)}
        tr_i = cocycle_transport(ctx_i, chi_i)
        rep = verify_algebra_map(
            "inner", ctx_i.basis_hecke_elements(), tr_i.forward,
            ctx_i.identity(), tr_i.target.identity(), Q,
            vectorize=coordinate_map(tr_i.target),
            target_dim=tr_i.target.dimension(), rng=rng, max_pairs=200,
        )
        assert rep.ok, str(rep)
        # a chi violating triviality on H is rejected with that witness
        try:
            cocycle_transport(ctx, chi_i)
            raise AssertionError("expected CocycleConditionError")
        except CocycleConditionError as exc:
            assert any(c == "trivial_on_H" for c, _ in exc.failures)

    report(9, "cocycles: coboundary + inner fixtures pass, violation detected", body)


# -- 10: grading ----------------------------------------------------------------


def test_acceptance_10_grading():
    def body():
        ctx = polynomial_context(cap=2)
        for d1 in range(3):
            for d2 in range(3):
                for oi, v in ctx.module_basis(d1):
                    for oj, w in ctx.module_basis(d2):
                        p = HeckeElement(ctx, {oi: v}) * HeckeElement(ctx, {oj: w})
                        if not p.is_zero:
                            assert p.homogeneous_degree() == d1 + d2

    report(10, "grading: deg(phi * psi) = deg phi + deg psi, exhaustive to degree 2", body)


# -- 11: opposite algebras -------------------------------------------------------


def test_acceptance_11_opposite():
    def body():
        rng = random.Random(1111)
        # anti-multiplicative on a noncommutative fixture
        ctx = conjugation_context()
        tr = opposite_transport(ctx)
        for _ in range(100):
            x, y = ctx.random_element(rng), ctx.random_element(rng)
            assert tr.forward(x * y) == tr.forward(y) * tr.forward(x)
        assert tr.forward(ctx.identity()) == tr.target.identity()
        # involutive on a commutative fixture: sigma(phi)(xH) = alpha_x phi(x^-1 H)
        ctxc = function_context()
        G, cs = ctxc.G, ctxc.cosets

        def sigma(phi):
            exp = phi.expand()
            values = {}
            for oi, orbit in enumerate(ctxc.orbits):
                x = cs.reps[orbit.rep_coset]
                values[oi] = ctxc.action.apply(
                    x, exp[cs.coset_of[G.inverse(x)]]
                )
            return ctxc.from_values(values)

        for _ in range(50):
            x, y = ctxc.random_element(rng), ctxc.random_element(rng)
            assert sigma(sigma(x)) == x
            assert sigma(x * y) == sigma(y) * sigma(x)

    report(11, "opposite: anti-multiplicative (noncommutative), involutive (commutative)", body)


# -- 12: associativity and unitality ---------------------------------------------


def test_acceptance_12_associativity_unitality():
    def body():
        fixtures = [
            classical_context(Q, S3, s2()),
            classical_context(
                Q, S4,
                subgroup_from_generators(
                    S4,
                    [S4.element_by_name("(1 2 3 4)"), S4.element_by_name("(1 3)")],
                ),
            ),
            function_context(),
            conjugation_context(),
            polynomial_context(),
        ]
        rng = random.Random(1212)
        for ctx in fixtures:
            one = ctx.identity()
            for _ in range(100):
                x, y, z = (ctx.random_element(rng) for _ in range(3))
                assert (x * y) * z == x * (y * z)
            x = ctx.random_element(rng)
            assert one * x == x == x * one

    report(12, "associativity + unit: 100 random triples per fixture", body)


# -- 13: the diagonal embedding of invariants -------------------------------------


def test_acceptance_13_relativise():
    def body():
        for ctx in [function_context(), conjugation_context(),
                    polynomial_context()]:
            if ctx.graded:
                inv = [
                    b
                    for d in range(ctx.degree_cap + 1)
                    for b in invariants_compute(
                        ctx.A, ctx.H.generators(), ctx.action, degree=d
                    )
                ]
            else:
                inv = invariants_compute(ctx.A, ctx.H.generators(), ctx.action)
            for a in inv:
                assert relativise(ctx, a) == to_matrix(ctx.embed_invariant(a))
                for b in inv:
                    assert relativise(ctx, a * b) == (
                        relativise(ctx, a) * relativise(ctx, b)
                    )
            assert relativise(ctx, ctx.A.one()) == ctx.matrix_model.one()
            vecs = [relativise(ctx, a).coeffs for a in inv]
            assert linalg.rank(ctx.field, vecs) == len(inv)

    report(13, "invariants embed diagonally: multiplicative, injective, factors through the matrix model", body)
