"""The suites of ``skewhecke verify``, one per identification checked: each
takes a ``SuiteRun``, the Hecke context and a seeded ``random.Random``, and
``SUITES`` maps each suite's name on the command line to it."""

from __future__ import annotations

# to_matrix, to_corner, verify_algebra_map, corner_basis, hecke_idempotent: called through
# their modules, since perfbench/job.py's tracer rebinds by-name imports only in modules it lists
from . import isomorphisms, linalg, skewgroup
from .algebras import FunctionAlgebra, GroupAlgebra, left_translation_action, trivial_action
from .groups import (
    cyclic_group,
    power_group,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
)
from .hecke import HeckeContext, HeckeElement, classical_context
from .isomorphisms import (
    CocycleConditionError,
    StoneModel,
    cocycle_transport,
    conjugate_transport,
    corner_lift,
    from_corner,
    from_matrix,
    intermediate_embed,
    matrix_invariance_witness,
    opposite_transport,
    product_transport,
    quotient_transport,
    semidirect_transport,
)
from .scalars import NotAUnitError
from .skewgroup import SkewGroupAlgebra, subgroup_sum


class SuiteRun:
    def __init__(self, write):
        self.write = write
        self.failed = 0
        self.executed = 0

    def record(self, name, ok, detail="", witnesses=()):
        """One line for the check, then one per (failed check, witness) pair."""
        self.executed += 1
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failed += 1
        suffix = f" ({detail})" if detail else ""
        self.write(f"{name}: {status}{suffix}")
        for failed, witness in witnesses:
            self.write(f"  FAIL {failed}: witness {witness}")

    def skip(self, name, reason):
        self.write(f"{name}: SKIP ({reason})")


# random pairs drawn by the matrix, corner, stone and opposite product checks
PAIRS = 20


def _random_elements(ctx, rng, count):
    return tuple(ctx.random_element(rng) for _ in range(count))


def _record_random_pairs(run, name, ctx, rng, holds):
    """Record whether holds(x, y) on PAIRS random pairs; the draws stop at the
    first failing pair, whose index is the witness."""
    bad = next((i for i in range(PAIRS) if not holds(*_random_elements(ctx, rng, 2))),
               None)
    run.record(name, bad is None,
               f"{PAIRS} pairs" if bad is None else f"witness pair {bad}")


def suite_assoc(run: SuiteRun, ctx, rng):
    triples = (_random_elements(ctx, rng, 3) for _ in range(100))
    bad = next((t for t in triples if (t[0] * t[1]) * t[2] != t[0] * (t[1] * t[2])), None)
    run.record("assoc.random_triples", bad is None,
               "100 triples" if bad is None else f"witness {bad}")
    one = ctx.identity()
    x = ctx.random_element(rng)
    run.record("assoc.unit", one * x == x and x * one == x)


def suite_decomp(run: SuiteRun, ctx, rng):
    degree = min(1, ctx.degree_cap) if ctx.graded else None
    basis = ctx.module_basis(degree)
    run.record("decomp.basis_nonempty", len(basis) > 0, f"dim {len(basis)}")
    # bijection: coordinates of a random element round-trip
    x = ctx.random_element(rng, degree=degree)
    coords = ctx.module_coordinates(x, degree=degree)
    y = ctx.combination((HeckeElement(ctx, dict([basis[t]])), c) for t, c in coords.items())
    run.record("decomp.bijection_roundtrip", y == x)
    # bimodule law: delta_{H,a} * phi * delta_{H,a'} has values a v alpha_g a'
    a = _random_invariant(ctx, rng)
    ap = _random_invariant(ctx, rng)
    da, dap = ctx.embed_invariant(a), ctx.embed_invariant(ap)

    def holds(oi, v):
        lhs = da.convolve(HeckeElement(ctx, {oi: v})).convolve(dap)
        expected = a * v * ctx.action.apply(ctx.orbits[oi].rep_element, ap)
        return lhs.values == ({oi: expected} if not expected.is_zero else {})

    bad = next((oi for oi, v in basis if not holds(oi, v)), None)
    run.record("decomp.bimodule_law", bad is None,
               "" if bad is None else f"witness orbit {bad}")


def _random_invariant(ctx, rng):
    """A random element of A^H: orbit 0 is the coset H, whose stabilizer is H."""
    f = ctx.field
    return ctx.A.combination((b, f.from_int(rng.randint(-2, 2)))
                             for d in ctx.A.degrees(ctx.degree_cap)
                             for b in ctx.orbit_space(0, d).basis)


def suite_matrix(run: SuiteRun, ctx, rng):
    to_matrix = isomorphisms.to_matrix
    xs = _random_elements(ctx, rng, 5)
    images = [to_matrix(x) for x in xs]
    witness = next(filter(None, map(matrix_invariance_witness, images)), None)
    # from_matrix inverts to_matrix on G-invariant matrices only
    if witness is None:
        run.record("matrix.roundtrip", all(from_matrix(m) == x for m, x in zip(images, xs)))
        run.record("matrix.image_invariant", True)
    else:
        run.record("matrix.roundtrip", False, "image not G-invariant")
        run.record("matrix.image_invariant", False, f"witness {witness}")
    _record_random_pairs(run, "matrix.multiplicativity", ctx, rng,
                         lambda x, y: to_matrix(x * y) == to_matrix(x) * to_matrix(y))
    run.record("matrix.unit", to_matrix(ctx.identity()) == ctx.matrix_model.one())
    if not ctx.graded:
        vecs = [to_matrix(b).coeffs for b in ctx.basis_hecke_elements()]
        r = linalg.rank(ctx.field, vecs)
        run.record("matrix.injective", r == ctx.dimension(), f"rank {r}")


def suite_corner(run: SuiteRun, ctx, rng):
    if ctx.graded:
        run.skip("corner", "coefficient algebra is infinite-dimensional")
        return
    sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
    try:
        e = skewgroup.hecke_idempotent(sga, ctx.H)
    except NotAUnitError as exc:
        run.skip("corner", f"unavailable: {exc}")
        return
    run.record("corner.idempotent", e * e == e)
    xs = _random_elements(ctx, rng, 5)
    images = [isomorphisms.to_corner(ctx, sga, x) for x in xs]
    run.record("corner.roundtrip",
               all(from_corner(ctx, sga, c) == x for x, c in zip(xs, images)))
    # The dense products run on the integral T = |H| to_corner and E = |H| e:
    # with |H| a unit, E T E = |H|^2 T and T(xy) |H| = T(x) T(y) are the
    # corner theorem's identities, not weaker ones (see ``corner_lift``).
    E = subgroup_sum(sga, ctx.H)
    order = ctx.field.from_int(ctx.H.order)
    run.record("corner.image_in_corner",
               all(E * t * E == t.scale(ctx.field.mul(order, order))
                   for t in (corner_lift(ctx, sga, x) for x in xs)))
    _record_random_pairs(run, "corner.multiplicativity", ctx, rng, lambda x, y: (
        corner_lift(ctx, sga, x * y).scale(order)
        == corner_lift(ctx, sga, x) * corner_lift(ctx, sga, y)))
    run.record("corner.unit", isomorphisms.to_corner(ctx, sga, ctx.identity()) == e)
    cb = skewgroup.corner_basis(sga, e)
    run.record("corner.dimension", len(cb) == ctx.dimension(),
               f"corner dim {len(cb)}, module dim {ctx.dimension()}")


def suite_stone(run: SuiteRun, ctx, rng):
    if not StoneModel.applies(ctx):
        run.skip("stone", "requires the function algebra with left translation")
        return
    sm = StoneModel(ctx)
    n = sm.n
    run.record("stone.size", n == ctx.cosets.n, f"n = {n} = [G:H]")
    _record_random_pairs(run, "stone.multiplicativity", ctx, rng,
                         lambda x, y: sm.apply(x * y) == sm.apply(x) * sm.apply(y))
    vecs = [sm.apply(b).coeffs for b in ctx.basis_hecke_elements()]
    r = linalg.rank(ctx.field, vecs)
    run.record("stone.bijective", r == n * n and ctx.dimension() == n * n,
               f"rank {r}, dim {ctx.dimension()}, n^2 = {n * n}")
    # matrix-unit relations through preimages: B_ij B_kl = delta_jk B_il
    B = {(i, j): sm.preimage(sm.matrices.basis_element((i, j)))
         for i in range(n) for j in range(n)}
    ok = all(B[(i, j)] * B[(k, l)] == (B[(i, l)] if j == k else ctx.zero())
             for (i, j) in B for (k, l) in B)
    run.record("stone.matrix_units", ok, f"{n ** 4} relations")
    if ctx.G.order == 6 and ctx.H.order == 2:
        run.record(
            "stone.rank_discrepancy_flag", n == 3,
            "computed target is M_3 (|G/H| = 3); a rank-2 / M_2 description "
            "is inconsistent and is overridden",
        )


def _record_map(run, check, detail, tr, rng, onto=True):
    """Record whether the ``Transport`` tr is an injective algebra map from
    ``tr.source`` (a Hecke context, or a based algebra such as a tensor product
    of two) into the Hecke context ``tr.target``, onto it unless ``onto`` is
    False; multiplicativity is checked on at most 60 basis pairs.  A failed
    check is followed by one line per witness."""
    source, target = tr.source, tr.target
    if isinstance(source, HeckeContext):
        basis, one = source.basis_hecke_elements(), source.identity()
    else:
        basis, one = [source.basis_element(l) for l in source.labels()], source.one()
    rep = isomorphisms.verify_algebra_map(
        check, basis, tr.forward, one, target.identity(), target.field,
        vectorize=target.module_coordinates,
        target_dim=target.dimension() if onto else None, rng=rng, max_pairs=60,
    )
    run.record(check, rep.ok, detail, rep.failures)


def suite_group_ops(run: SuiteRun, ctx, rng):
    f = ctx.field
    # conjugation on the configured context (finite coefficients only)
    if not ctx.graded and ctx.H.order < ctx.G.order:
        s = next(g for g in range(ctx.G.order) if g not in ctx.H)
        _record_map(run, "group_ops.conjugate", f"s = {ctx.G.name(s)}",
                    conjugate_transport(ctx, s), rng)
    else:
        run.skip("group_ops.conjugate", "needs finite coefficients and H < G")
    # the remaining transports run on fixed small fixtures: S3 acting on R^S3
    # by left translation, with H3 = <(1 2)> and N3 = <(1 2 3)> = A3 = C3
    G3 = symmetric_group(3)
    H3 = subgroup_from_generators(G3, [G3.element_by_name("(1 2)")])
    N3 = subgroup_from_generators(G3, [G3.element_by_name("(1 2 3)")])
    A3 = FunctionAlgebra(f, G3)
    left = left_translation_action(G3, A3)
    ctx3 = HeckeContext(G3, H3, A3, left, verify_action=False)
    # quotient by the normal subgroup N3, with H = N3
    ctxq = HeckeContext(G3, N3, A3, left, verify_action=False)
    _record_map(run, "group_ops.quotient", "(S3, A3) / A3",
                quotient_transport(ctxq, N3), rng)
    # product with (C2, 1, R[C2])
    C2 = cyclic_group(2)
    A2 = GroupAlgebra(f, C2)
    ctx2 = HeckeContext(C2, trivial_subgroup(C2), A2, trivial_action(C2, A2),
                        verify_action=False)
    _record_map(run, "group_ops.product", "(S3,S2) x (C2,1)",
                product_transport(ctx3, ctx2), rng)
    # intermediate: 1 <= C3 <= S3 (extend by zero)
    ctxt = HeckeContext(G3, trivial_subgroup(G3), A3, left, verify_action=False)
    _record_map(run, "group_ops.intermediate", "C3 <= S3, injective",
                intermediate_embed(ctxt, N3), rng, onto=False)
    # semidirect: (Z/2)^3 x| S3 with H = S2
    Ncube, tuples, index = power_group(cyclic_group(2), 3)

    def act(k, n):
        p = G3.perms[k]
        t = tuples[n]
        out = [0, 0, 0]
        for i in range(3):
            out[p[i]] = t[i]
        return index[tuple(out)]

    trs = semidirect_transport(f, Ncube, G3, act, H3)
    _record_map(run, "group_ops.semidirect",
                f"dim {trs.info['dim']} = {trs.info['classical_dim']}", trs, rng)


def suite_cocycle(run: SuiteRun, ctx, rng):
    f = ctx.field
    # inner-action fixture: trivial action on R[S3], H = 1, chi(g) = [g]
    G3 = symmetric_group(3)
    A = GroupAlgebra(f, G3)
    ctxc = HeckeContext(G3, trivial_subgroup(G3), A, trivial_action(G3, A),
                        verify_action=False)
    chi = {g: A.basis_element(g) for g in range(G3.order)}
    try:
        _record_map(run, "cocycle.inner_fixture", "trivial action perturbed to conjugation",
                    cocycle_transport(ctxc, chi), rng)
    except CocycleConditionError as exc:
        run.record("cocycle.inner_fixture", False, "cocycle conditions violated",
                   exc.failures)
    # violation of triviality on H must be detected
    H2 = subgroup_from_generators(G3, [G3.element_by_name("(1 2)")])
    ctxv = HeckeContext(G3, H2, A, trivial_action(G3, A), verify_action=False)
    try:
        cocycle_transport(ctxv, chi)
        run.record("cocycle.violation_detected", False, "no error raised")
    except CocycleConditionError as exc:
        witnessed = any(c == "trivial_on_H" for c, _ in exc.failures)
        run.record("cocycle.violation_detected", witnessed,
                   f"witness {exc.failures}")


def suite_opposite(run: SuiteRun, ctx, rng):
    tr = opposite_transport(ctx)
    _record_random_pairs(run, "opposite.anti_multiplicative", ctx, rng,
                         lambda x, y: tr.forward(x * y) == tr.forward(y) * tr.forward(x))
    run.record("opposite.unit", tr.forward(ctx.identity()) == tr.target.identity())
    xs = _random_elements(ctx, rng, 5)
    run.record("opposite.roundtrip",
               all(tr.backward(tr.forward(x)) == x for x in xs))


def suite_graded(run: SuiteRun, ctx, rng):
    if not ctx.graded:
        run.skip("graded", "coefficient algebra is not graded")
        return
    bad = _degree_failure(ctx)
    witnesses = () if bad is None else [("graded.degree_additive", bad)]
    run.record("graded.degree_additive", bad is None, f"degrees 0..{ctx.degree_cap}",
               witnesses)


def _degree_failure(ctx):
    """The first product of module basis elements of degrees d1, d2 (d1 + d2 at
    most the degree cap) that is nonzero and not homogeneous of degree d1 + d2,
    named by its orbits, d1, d2 and the degree found (None if inhomogeneous);
    None if every product is."""
    cap = ctx.degree_cap
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            for oi, v in ctx.module_basis(d1):
                for oj, w in ctx.module_basis(d2):
                    p = HeckeElement(ctx, {oi: v}) * HeckeElement(ctx, {oj: w})
                    if not p.is_zero and (found := p.homogeneous_degree()) != d1 + d2:
                        return (f"orbits ({oi}, {oj}), degrees ({d1}, {d2}), "
                                f"product degree {found}")
    return None


def suite_s3(run: SuiteRun, ctx, rng):
    G = ctx.G
    if G.order != 6 or G.perms is None or ctx.H.order != 2 \
            or G.element_by_name("(1 2)") not in ctx.H:
        run.skip("s3_fixtures", "requires (S3, S2 = <(1 2)>)")
        return
    t12 = G.element_by_name("(1 2)")
    t23 = G.element_by_name("(2 3)")
    t13 = G.element_by_name("(1 3)")
    act = ctx.action
    ok = True
    for _ in range(30):
        a, ap = _random_invariant(ctx, rng), _random_invariant(ctx, rng)
        b = _random_free(ctx, rng)
        bp = _random_free(ctx, rng)
        phi = ctx.from_values({0: a, 1: b})
        psi = ctx.from_values({0: ap, 1: bp})
        prod = phi.convolve(psi)
        t = b * act.apply(t23, bp)
        first = a * ap + t + act.apply(t12, t)
        second = a * bp + b * act.apply(t23, ap) \
            + act.apply(t12, b) * act.apply(t13, bp)
        if prod.value(0) != first or prod.value(1) != second:
            ok = False
            break
    run.record("s3_fixtures.product_formula", ok, "30 random pairs")
    # classical specialization: (0,1)*(0,1) = (2,1)
    cl = classical_context(ctx.field, G, ctx.H)
    one = cl.A.one()
    t = cl.from_values({1: one})
    sq = t.convolve(t)
    ok = sq.value(0) == one.scale(ctx.field.from_int(2)) and sq.value(1) == one
    run.record("s3_fixtures.classical_square", ok, "(0,1)^2 = (2,1)")


def _random_free(ctx, rng):
    return ctx.A.element({l: ctx.field.from_int(rng.randint(-2, 2))
                          for l in ctx.A.labels_up_to(ctx.degree_cap)})


SUITES = {
    "assoc": suite_assoc,
    "decomp": suite_decomp,
    "matrix": suite_matrix,
    "corner": suite_corner,
    "stone": suite_stone,
    "group_ops": suite_group_ops,
    "cocycle": suite_cocycle,
    "opposite": suite_opposite,
    "graded": suite_graded,
    "s3_fixtures": suite_s3,
}
