"""Structural isomorphisms and embeddings between skew Hecke algebra models.

Implements the matrix model (G-invariant matrices over A), the corner-ring
model inside the skew group algebra, the full-matrix-algebra description of
the function-algebra case, transports along group-level operations (quotients,
products, intermediate subgroups, conjugation, semidirect products), cocycle
perturbations of the action, opposite algebras, and a generic exact checker
for algebra maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebras import (
    AlgebraElement,
    GroupAction,
    GroupAlgebra,
    FunctionAlgebra,
    InvariantSubalgebra,
    MatrixAlgebra,
    OppositeAlgebra,
    TensorAlgebra,
    cocycle_perturbed_action,
    element_inverse,
    group_automorphism_action,
    opposite_action,
    restricted_action,
    tensor_product_action,
)
from .groups import (
    Subgroup,
    conjugate_subgroup,
    direct_product,
    full_subgroup,
    quotient_group,
    semidirect_product,
)
from .hecke import (
    HeckeContext,
    HeckeElement,
    StabilizerInvarianceError,
    classical_context,
    hecke_as_based_algebra,
)
from .scalars import NotAUnitError


# ---------------------------------------------------------------------------
# generic exact verification of algebra maps


@dataclass
class AlgebraMapReport:
    name: str
    ok: bool
    failures: list = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{self.name}: {status}"]
        for k, v in sorted(self.details.items()):
            lines.append(f"  {k}: {v}")
        for check, witness in self.failures:
            lines.append(f"  FAIL {check}: witness {witness}")
        return "\n".join(lines)


def verify_algebra_map(
    name,
    basis,
    apply_map,
    one_src,
    one_target,
    field,
    vectorize=None,
    target_dim=None,
    rng=None,
    max_pairs=None,
    anti=False,
):
    """Exact checks that a linear map on a spanned domain is an algebra map.

    ``basis`` spans the domain; elements must support +, *, scale, ==.
    Checks: unit, linearity (on sampled combinations), multiplicativity on
    basis pairs (exhaustive unless max_pairs caps it, then seeded sampling),
    and, if ``vectorize`` (image -> coefficient map) is given, injectivity by
    exact rank (plus surjectivity when target_dim is known).  ``anti=True`` checks
    F(xy) = F(y)F(x) instead.  An image that is not a Hecke element (a value
    not fixed by its stabilizer) is an ``image`` failure and ends the checks.
    """
    failures = []
    details = {"basis_size": len(basis)}
    try:
        if apply_map(one_src) != one_target:
            failures.append(("unit", "F(1) != 1"))
        images = [apply_map(b) for b in basis]
        # linearity spot checks on random small combinations
        if rng is not None and len(basis) >= 2:
            for _ in range(10):
                i = rng.randrange(len(basis))
                j = rng.randrange(len(basis))
                c = field.from_int(rng.randint(-3, 3))
                x = basis[i] + basis[j].scale(c)
                if apply_map(x) != images[i] + images[j].scale(c):
                    failures.append(("linearity", (i, j)))
                    break
        pairs = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
        if max_pairs is not None and len(pairs) > max_pairs:
            if rng is None:
                raise ValueError("sampling pairs requires an rng")
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(max_pairs)]
            details["pairs"] = f"{max_pairs} sampled"
        else:
            details["pairs"] = f"{len(pairs)} exhaustive"
        for i, j in pairs:
            lhs = apply_map(basis[i] * basis[j])
            rhs = images[j] * images[i] if anti else images[i] * images[j]
            if lhs != rhs:
                failures.append(("multiplicativity", (i, j)))
                break
        if vectorize is not None:
            vecs = [vectorize(im) for im in images]
            r = linalg.rank(field, vecs)
            details["rank"] = r
            if r != len(basis):
                failures.append(("injectivity", f"rank {r} < dim {len(basis)}"))
            if target_dim is not None:
                details["target_dim"] = target_dim
                if r != target_dim:
                    failures.append(
                        ("surjectivity", f"rank {r} != target dim {target_dim}")
                    )
    except StabilizerInvarianceError as exc:
        failures.append(("image", exc))
    return AlgebraMapReport(name=name, ok=not failures, failures=failures,
                            details=details)


@dataclass
class Transport:
    """An isomorphism (or embedding) between two Hecke-algebra models."""

    source: object
    target: object
    forward: object
    backward: object = None
    info: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# matrix model: phi |-> sum alpha_{k_a} phi(k_a^-1 k_b H) (x) E[a,b]


class HeckeMatrix(AlgebraElement):
    """An element of a context's ``MatrixModel``; it multiplies by ``TensorAlgebra.accumulate``."""

    __slots__ = ()
    # its own attribute, so a wrapper on it by name sees only matrix-model products
    __mul__ = AlgebraElement.__mul__


class MatrixModel(TensorAlgebra):
    """A (x) End_R(Ind_H^G R) = A (x) M_n(R), n = [G:H], for one context.

    E[a,b] is the matrix unit of the cosets k_a H, k_b H (k_a the coset
    representatives).  ``diagonal`` is the action of G by alpha on A and by
    E[a,b] |-> E[ga,gb] on M_n(R); the paper's matrix model is its algebra of
    fixed points, the image of ``to_matrix``.
    """

    element_class = HeckeMatrix

    def __init__(self, ctx: HeckeContext):
        cs, G = ctx.cosets, ctx.G
        super().__init__(ctx.A, MatrixAlgebra(ctx.field, cs.n))
        self.ctx = ctx
        E = self.B
        moves = [[cs.coset_of[G.mul(g, k)] for k in cs.reps] for g in range(G.order)]

        def permute(g, ab):
            return E.basis_element((moves[g][ab[0]], moves[g][ab[1]]))

        ids = range(G.order)
        cosets = GroupAction(G, E, permute, name="coset_permutation")
        self.diagonal = tensor_product_action(G, ids, ids, ctx.action, cosets, self)


def to_matrix(phi: HeckeElement) -> HeckeMatrix:
    """phi |-> the matrix with alpha_{k_a} phi(k_a^-1 k_b H) at E[a,b].

    The model's product is the standard one, A-entries multiplied in order, so
    to_matrix(phi * psi) = to_matrix(phi) to_matrix(psi).
    """
    ctx = phi.ctx
    cs, G, apply = ctx.cosets, ctx.G, ctx.action.apply
    exp = phi.expand()
    return ctx.matrix_model.from_components({
        (a, b): apply(k, exp[cs.coset_of[G.mul(G.inverse(k), g)]])
        for a, k in enumerate(cs.reps) for b, g in enumerate(cs.reps)
    })


def matrix_invariance_witness(M: HeckeMatrix):
    """None if M is fixed by the model's diagonal action; else a witness naming
    a generator s of G and a matrix unit E[a,b] where s.M and M differ.

    Checking a generating set of G suffices (fixed points of a G-action).
    """
    model = M.alg
    act = model.diagonal
    s = act.moved_by(M, full_subgroup(act.G).generators())
    if s is None:
        return None
    ab = min(ab for _, ab in (act.apply(s, M) - M).coeffs)
    return f"s={act.G.name(s)} at {model.B.label_str(ab)}"


def from_matrix(M: HeckeMatrix) -> HeckeElement:
    """Inverse of ``to_matrix`` on G-invariant matrices; validated.

    Row 0 is the coset H, whose representative is e: M[0,b] = phi(k_b H).
    """
    witness = matrix_invariance_witness(M)
    if witness is not None:
        raise ValueError(f"matrix is not G-invariant: fails for {witness}")
    ctx = M.alg.ctx
    blocks, zero = M.alg.components(M), ctx.A.zero()
    return ctx.from_values({oi: blocks.get((0, orbit.rep_coset), zero)
                            for oi, orbit in enumerate(ctx.orbits)})


def relativise(ctx: HeckeContext, a) -> HeckeMatrix:
    """A^H -> matrix model: a |-> diag(alpha_{k_i} a) over coset reps k_i."""
    if ctx.action.moved_by(a, ctx.H.generators()) is not None:
        raise ValueError("element is not H-invariant")
    return ctx.matrix_model.from_components(
        {(i, i): ctx.action.apply(k, a) for i, k in enumerate(ctx.cosets.reps)})


# ---------------------------------------------------------------------------
# corner model inside the skew group algebra


def corner_lift(ctx: HeckeContext, sga, phi: HeckeElement):
    """T(phi) = sum_{g in G} phi(gH) . g in A x| G, with no 1/|H|.

    T is integral and defined over any field.  For every phi, psi,

        T(phi) T(psi) = |H| T(phi * psi),   T(1) = sum_{h in H} 1_A . h,

    because the coefficient of m in T(phi) T(psi) is
    sum_g phi(gH) alpha_g psi(g^-1 mH), a sum over G whose summand is constant
    on each coset gH.  ``to_corner`` is T/|H|: when |H| is a unit,
    to_corner(phi psi) = to_corner(phi) to_corner(psi) holds exactly when
    |H| T(phi psi) = T(phi) T(psi), so checks on T state the corner theorem,
    not a weaker identity, while integral values stay integral.
    """
    exp = phi.expand()
    coset_of = ctx.cosets.coset_of
    return sga.from_components({g: exp[coset_of[g]] for g in range(ctx.G.order)})


def to_corner(ctx: HeckeContext, sga, phi: HeckeElement):
    """phi |-> sum_{g in G} (1/|H|) phi(gH) . g in e_H (A x| G) e_H.

    This is ``corner_lift`` scaled by 1/|H| (|H| must be a unit): a map of
    algebras with to_corner(1) = e_H, since T(phi) T(psi) = |H| T(phi psi) and
    T(1) = |H| e_H.
    """
    f = ctx.field
    return corner_lift(ctx, sga, phi).scale(f.inv(f.from_int(ctx.H.order)))


def from_corner(ctx: HeckeContext, sga, x) -> HeckeElement:
    """Inverse of ``to_corner``: phi(gH) = |H| . (A-coefficient of g in x)."""
    h = ctx.field.from_int(ctx.H.order)
    blocks, zero = sga.components(x), ctx.A.zero()
    return ctx.from_values({oi: blocks.get(orbit.rep_element, zero).scale(h)
                            for oi, orbit in enumerate(ctx.orbits)})


# ---------------------------------------------------------------------------
# function-algebra coefficients: full matrix algebra over the scalars


class StoneModel:
    """H_R(G, H, R^G, left translation) ~= M_n(R) with n = [G : H].

    The map evaluates each function entry of the matrix model at the group
    identity; M_n(R) is the model's second tensor factor.  As (alpha_g f)(y) =
    f(g^-1 y), entry (a, b) of m = apply(phi) is phi(k_a^-1 k_b H)(k_a^-1).  The
    inverse is phi(xH)(y) = m[y^-1 H, y^-1 xH]: for k_a = y^-1 h, k_b = y^-1 x h'
    (h, h' in H), H-invariance gives phi(h^-1 xH)(h^-1 y) = phi(xH)(y).  It is
    onto: if hxH = xH, y -> h^-1 y fixes both cosets, so h fixes phi(xH).
    """

    def __init__(self, ctx: HeckeContext):
        if not self.applies(ctx):
            raise ValueError("model requires A = functions on G under left translation")
        self.ctx = ctx
        self.n = ctx.cosets.n
        self.matrices = ctx.matrix_model.B

    @staticmethod
    def applies(ctx: HeckeContext) -> bool:
        """Whether ctx has R^G under left translation: alpha_g delta_k = delta_{gk}."""
        A, G = ctx.A, ctx.G
        return isinstance(A, FunctionAlgebra) and A.G is G and all(
            ctx.action.permutation(g, A.labels()) == list(G.table[g]) for g in range(G.order))

    def apply(self, phi: HeckeElement):
        """sum over a, b of M[a,b](e) E[a,b], M = to_matrix(phi)."""
        return self.matrices.element(
            {ab: c for (l, ab), c in to_matrix(phi).coeffs.items() if l == 0})

    def preimage(self, m) -> HeckeElement:
        """The phi with apply(phi) = m: phi(xH)(y) = m[y^-1 H, y^-1 xH]."""
        ctx = self.ctx
        G, coset_of, zero = ctx.G, ctx.cosets.coset_of, ctx.field.zero
        inverses = [(y, G.inverse(y)) for y in range(G.order)]
        try:
            return ctx.from_values({oi: ctx.A.element({
                y: m.coeffs.get((coset_of[yi], coset_of[G.mul(yi, orbit.rep_element)]), zero)
                for y, yi in inverses}) for oi, orbit in enumerate(ctx.orbits)})
        except StabilizerInvarianceError as exc:
            # every value is stabilizer-fixed by the formula: a witness means a defect
            raise ArithmeticError("matrix is not in the image (bug: map is onto)") from exc


# ---------------------------------------------------------------------------
# transports along group operations


def pull_map(target: HeckeContext, value_at):
    """The map phi |-> psi with psi(xH') = value_at(phi.at, x) at each target orbit rep x.

    ``phi.at(y)`` is phi(yH) in phi's context.  Images go through
    ``from_values``, so every value is checked against its orbit stabilizer.
    """
    return lambda phi: target.from_values(
        {oi: value_at(phi.at, orbit.rep_element) for oi, orbit in enumerate(target.orbits)})


def quotient_transport(ctx: HeckeContext, N: Subgroup) -> Transport:
    """For N normal in G with N <= H: pass to (G/N, H/N, A^N)."""
    G, H, A = ctx.G, ctx.H, ctx.A
    Q, proj = quotient_group(G, N)  # refuses an N that is not normal
    if not N.members <= H.members:
        raise ValueError("normal subgroup is not contained in H")
    section = [proj.index(q) for q in range(Q.order)]
    HQ = Subgroup(Q, {proj[h] for h in H.elements}, check=False)
    AN = InvariantSubalgebra(A, N.generators(), ctx.action)
    actQ = AN.induced_action(Q, section)
    target = HeckeContext(Q, HQ, AN, actQ, verify_action=False,
                          degree_cap=ctx.degree_cap)

    def express(at, q):
        v = AN.express(at(section[q]))
        if v is None:
            raise ArithmeticError("value is not N-invariant (bug)")
        return v

    return Transport(
        source=ctx, target=target,
        forward=pull_map(target, express),
        backward=pull_map(ctx, lambda at, g: AN.include(at(proj[g]))),
        info={"quotient_order": Q.order},
    )


def product_transport(ctx1: HeckeContext, ctx2: HeckeContext) -> Transport:
    """Tensor product of two contexts vs the context of the product group.

    The target is the Hecke context of (G1 x G2, H1 x H2, A1 (x) A2); the
    source is the tensor product of the two materialized Hecke algebras.
    """
    Gp, e1, e2, p1, p2 = direct_product(ctx1.G, ctx2.G)
    Hp = Subgroup(
        Gp,
        {Gp.mul(e1[h1], e2[h2]) for h1 in ctx1.H.elements for h2 in ctx2.H.elements},
        check=False,
    )
    Ap = TensorAlgebra(ctx1.A, ctx2.A)
    actp = tensor_product_action(Gp, p1, p2, ctx1.action, ctx2.action, Ap)
    target = HeckeContext(Gp, Hp, Ap, actp, verify_action=False)

    B1, to_h1, _ = hecke_as_based_algebra(ctx1)
    B2, to_h2, _ = hecke_as_based_algebra(ctx2)
    BT = TensorAlgebra(B1, B2)

    def pair_image(phi1: HeckeElement, phi2: HeckeElement) -> HeckeElement:
        return target.from_values({
            oi: Ap.pure(phi1.at(p1[orbit.rep_element]), phi2.at(p2[orbit.rep_element]))
            for oi, orbit in enumerate(target.orbits)})

    image_cache = {}

    def image(i, j) -> HeckeElement:
        im = image_cache.get((i, j))
        if im is None:
            im = pair_image(to_h1(B1.basis_element(i)), to_h2(B2.basis_element(j)))
            image_cache[(i, j)] = im
        return im

    def forward(x) -> HeckeElement:
        return target.combination((image(i, j), c) for (i, j), c in x.coeffs.items())

    return Transport(source=BT, target=target, forward=forward,
                     info={"target_dim": target.dimension()})


def intermediate_embed(ctx: HeckeContext, K: Subgroup) -> Transport:
    """For H <= K <= G: extend-by-zero embedding of the (K, H) context."""
    if not ctx.H.members <= K.members:
        raise ValueError("H is not contained in K")
    Kgrp, embed = K.as_group()
    pos = {g: i for i, g in enumerate(embed)}
    HK = Subgroup(Kgrp, [pos[h] for h in ctx.H.elements], check=False)
    actK = restricted_action(Kgrp, embed, ctx.action)
    source = HeckeContext(Kgrp, HK, ctx.A, actK, verify_action=False,
                          degree_cap=ctx.degree_cap)
    zero = ctx.A.zero()

    def extend_by_zero(at, g):
        return at(pos[g]) if g in pos else zero

    return Transport(source=source, target=ctx,
                     forward=pull_map(ctx, extend_by_zero),
                     info={"index": ctx.cosets.n, "sub_index": source.cosets.n})


def conjugate_transport(ctx: HeckeContext, s: int) -> Transport:
    """Replace H by sHs^-1: phi'(xH') = alpha_s phi(s^-1 x s H)."""
    G = ctx.G
    H2 = conjugate_subgroup(G, ctx.H, s)
    target = HeckeContext(G, H2, ctx.A, ctx.action, verify_action=False,
                          degree_cap=ctx.degree_cap)
    si = G.inverse(s)

    def conjugated_by(t):
        ti = G.inverse(t)
        return lambda at, x: ctx.action.apply(t, at(G.mul(G.mul(ti, x), t)))

    return Transport(source=ctx, target=target,
                     forward=pull_map(target, conjugated_by(s)),
                     backward=pull_map(ctx, conjugated_by(si)),
                     info={"conjugator": G.name(s)})


def semidirect_transport(field, N, K, act, H: Subgroup) -> Transport:
    """H_R(K, H, R[N], alpha) vs the classical algebra of (N x| K, H).

    ``act(k, n)`` is the K-action on N by automorphisms, ``H`` a subgroup of K.
    The map sends phi to psi with psi((n;k)H~) = coefficient of n in phi(kH).
    """
    A = GroupAlgebra(field, N)
    alpha = group_automorphism_action(K, A, act)
    source = HeckeContext(K, H, A, alpha, verify_action=False)

    sd = semidirect_product(N, K, act)
    Gt = sd.group
    Ht = Subgroup(Gt, [sd.embed_k[h] for h in H.elements], check=False)
    target = classical_context(field, Gt, Ht)
    scalars = target.A

    def coefficient(at, g):
        c = at(sd.project_k[g]).coeffs.get(sd.normal_part[g], field.zero)
        return scalars.from_scalar(c)

    def group_element(at, k):
        return A.element({
            n: at(Gt.mul(sd.embed_n[n], sd.embed_k[k])).coeffs.get(0, field.zero)
            for n in range(N.order)
        })

    return Transport(source=source, target=target,
                     forward=pull_map(target, coefficient),
                     backward=pull_map(source, group_element),
                     info={"dim": source.dimension(),
                           "classical_dim": target.dimension()})


# ---------------------------------------------------------------------------
# cocycle perturbations


class CocycleConditionError(ValueError):
    def __init__(self, failures):
        self.failures = failures
        lines = ["cocycle conditions violated:"]
        for check, witness in failures:
            lines.append(f"  {check}: witness {witness}")
        super().__init__("\n".join(lines))


def cocycle_verify(ctx: HeckeContext, chi: dict):
    """Failure witnesses for the cocycle conditions (empty list = valid).

    (a) chi(gg') = chi(g) . alpha_g chi(g'); (c) chi(h) = 1 for h in H;
    each chi(g) must be a unit that ``element_inverse`` inverts, which in a
    graded A means one of degree 0.
    """
    G, A = ctx.G, ctx.A
    failures = []
    for g in range(G.order):
        if g not in chi:
            failures.append(("completeness", f"missing chi({G.name(g)})"))
            return failures
    for g in range(G.order):
        try:
            element_inverse(chi[g])
        except NotAUnitError:
            failures.append(("unit", f"chi({G.name(g)}) is not a unit"))
            return failures
        except ValueError as exc:  # a graded chi(g) with a positive-degree term
            failures.append(("unit", f"chi({G.name(g)}): {exc}"))
            return failures
    for g in range(G.order):
        for g2 in range(G.order):
            lhs = chi[G.mul(g, g2)]
            rhs = chi[g] * ctx.action.apply(g, chi[g2])
            if lhs != rhs:
                failures.append(("cocycle", (G.name(g), G.name(g2))))
                break
    one = A.one()
    for h in ctx.H.elements:
        if chi[h] != one:
            failures.append(("trivial_on_H", G.name(h)))
    return failures


def cocycle_transport(ctx: HeckeContext, chi: dict) -> Transport:
    """Perturb alpha to beta_g = chi(g) alpha_g(-) chi(g)^-1; same algebra.

    The map multiplies each value by chi(g)^-1 on the right:
    phi'(gH) = phi(gH) . chi(g)^-1.  chi is checked with ``cocycle_verify``.
    """
    failures = cocycle_verify(ctx, chi)
    if failures:
        raise CocycleConditionError(failures)
    beta = cocycle_perturbed_action(ctx.action, chi)
    target = HeckeContext(ctx.G, ctx.H, ctx.A, beta, verify_action=False,
                          degree_cap=ctx.degree_cap)
    inv_chi = {g: element_inverse(u) for g, u in chi.items()}
    return Transport(
        source=ctx, target=target,
        forward=pull_map(target, lambda at, g: at(g) * inv_chi[g]),
        backward=pull_map(ctx, lambda at, g: at(g) * chi[g]),
    )


def coboundary_from_unit(ctx: HeckeContext, u) -> dict:
    """chi(g) = u . (alpha_g u)^-1, the coboundary of a unit u of A."""
    return {
        g: u * element_inverse(ctx.action.apply(g, u))
        for g in range(ctx.G.order)
    }


# ---------------------------------------------------------------------------
# opposite algebras


def opposite_transport(ctx: HeckeContext) -> Transport:
    """Anti-isomorphism onto the (A^op, alpha^op) context.

    phi |-> (gH |-> alpha_g phi(g^-1 H)); reverses products.
    """
    Aop = OppositeAlgebra(ctx.A)
    actop = opposite_action(ctx.action, Aop)
    target = HeckeContext(ctx.G, ctx.H, Aop, actop, verify_action=False,
                          degree_cap=ctx.degree_cap)
    G = ctx.G

    def forward(at, x):
        return Aop.to_op(ctx.action.apply(x, at(G.inverse(x))))

    def backward(at, x):
        return Aop.from_op(actop.apply(x, at(G.inverse(x))))

    return Transport(source=ctx, target=target,
                     forward=pull_map(target, forward),
                     backward=pull_map(ctx, backward))

