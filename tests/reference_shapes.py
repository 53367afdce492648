"""Independent descriptions of degenerate shapes, and plain references.

The paper's two degenerate shapes, and two shapes between them, each have a
description that does not go through the double-coset normal form.  Each map
here is a composition of public pieces of the package:

- trivial action: A (x) H_R(G, H), from ``classical_context``,
  ``hecke_as_based_algebra`` and ``TensorAlgebra``;
- H = G: A^G, ``quotient_transport`` by N = G read at the one coset of G/G;
- H = 1: the skew group algebra A x| G, by ``corner_lift`` and
  ``from_corner``;
- H normal: A^H x| (G/H), ``quotient_transport`` by N = H, then the H = 1 map
  on the quotient context.

The rest are plain references that tests compare the package against:
averaging images of invariants, the all-pairs product, associativity on basis
triples, the Stone inverse as a sum over the diagonal action, subgroup
intersection, permutation inverse and the canonical form of a scalar.
"""

from fractions import Fraction

from skewhecke import linalg
from skewhecke.algebras import TensorAlgebra
from skewhecke.groups import Subgroup
from skewhecke.hecke import classical_context, hecke_as_based_algebra
from skewhecke.isomorphisms import (
    Transport,
    corner_lift,
    from_corner,
    from_matrix,
    quotient_transport,
)
from skewhecke.skewgroup import SkewGroupAlgebra


# -- degenerate shapes ---------------------------------------------------------


def special_case_trivial_action(ctx) -> Transport:
    """Trivial action: the algebra is A tensor the classical Hecke algebra."""
    if ctx.action.name != "trivial":
        raise ValueError("requires the trivial action")
    B, _, _ = hecke_as_based_algebra(classical_context(ctx.field, ctx.G, ctx.H))
    # B's basis element oi is the indicator of orbit oi: phi |-> sum phi(oi) (x) oi
    T = TensorAlgebra(ctx.A, B)
    return Transport(source=ctx, target=T,
                     forward=lambda phi: T.from_components(phi.values),
                     backward=lambda x: ctx.from_values(T.components(x)))


def special_case_full_subgroup(ctx) -> Transport:
    """H = G: evaluation at the unique coset identifies the algebra with A^G."""
    if ctx.H.order != ctx.G.order:
        raise ValueError("requires H = G")
    q = quotient_transport(ctx, ctx.H)
    return Transport(source=ctx, target=q.target.A,
                     forward=lambda phi: q.forward(phi).value(0),
                     backward=lambda a: q.backward(q.target.from_values({0: a})))


def special_case_trivial_subgroup(ctx) -> Transport:
    """H = 1: the algebra is the skew group algebra A x| G."""
    if ctx.H.order != 1:
        raise ValueError("requires H = 1")
    sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
    # |H| = 1: corner_lift is to_corner, phi |-> sum phi(g).g, inverted by from_corner
    return Transport(source=ctx, target=sga,
                     forward=lambda phi: corner_lift(ctx, sga, phi),
                     backward=lambda x: from_corner(ctx, sga, x))


def special_case_normal_subgroup(ctx) -> Transport:
    """H normal in G: the algebra is A^H x| (G/H).

    ``quotient_transport`` by N = H (which refuses an H that is not normal)
    lands in the (G/H, 1, A^H) context, which ``special_case_trivial_subgroup``
    identifies with A^H x| (G/H).
    """
    q = quotient_transport(ctx, ctx.H)
    t = special_case_trivial_subgroup(q.target)
    return Transport(source=ctx, target=t.target,
                     forward=lambda phi: t.forward(q.forward(phi)),
                     backward=lambda x: q.backward(t.backward(x)),
                     info=q.info)


# -- plain references ------------------------------------------------------------


def averaging_image(A, S_elements, action, degree=None):
    """Image basis of the averaging operator (1/|S|) sum alpha_s; needs |S| a unit."""
    f = A.field
    S = list(S_elements)
    inv = f.inv(f.from_int(len(S)))
    span = linalg.SpanBasis(f)
    out = []
    for l in A.basis_labels(degree):
        img = A.combination((action.on_label(s, l), None) for s in S).scale(inv)
        if span.insert(img.coeffs):
            out.append(img)
    return out


def reference_mul(x, y):
    """All-pairs product: every (l1, l2) through product_cached, keys ignored."""
    A = x.alg
    f = A.field
    out = {}
    for l1, c1 in x.coeffs.items():
        for l2, c2 in y.coeffs.items():
            for l3, c3 in A.product_cached(l1, l2).items():
                s = f.add(out.get(l3, f.zero), f.mul(f.mul(c1, c2), c3))
                if f.is_zero(s):
                    out.pop(l3, None)
                else:
                    out[l3] = s
    return A.element(out)


def check_associativity(A, degree_cap=None, max_triples=None, rng=None):
    """Associativity + unitality on basis triples; exhaustive when small.

    Returns a list of violation witnesses (empty = pass).
    """
    labels = A.labels_up_to(degree_cap)
    one = A.one()
    failures = []
    for l in labels:
        b = A.basis_element(l)
        if one * b != b or b * one != b:
            failures.append(("unit", l))
    triples = [(a, b, c) for a in labels for b in labels for c in labels]
    if max_triples is not None and len(triples) > max_triples and rng is not None:
        triples = [triples[rng.randrange(len(triples))] for _ in range(max_triples)]
    for la, lb, lc in triples:
        ea, eb, ec = A.basis_element(la), A.basis_element(lb), A.basis_element(lc)
        if (ea * eb) * ec != ea * (eb * ec):
            failures.append(("associativity", (la, lb, lc)))
    return failures


def diagonal_sum_preimage(sm, m):
    """The Stone inverse through the matrix model: the diagonal action sends
    delta_k (x) E[a,b] to delta_{gk} (x) E[ga,gb], so the only fixed matrix with
    entry m at delta_e is the sum over g of diagonal_g(delta_e (x) m), and
    ``from_matrix`` reads phi off it."""
    ctx = sm.ctx
    model = ctx.matrix_model
    seed = model.pure(ctx.A.basis_element(0), m)
    return from_matrix(model.combination((model.diagonal.apply(g, seed), None)
                                         for g in range(ctx.G.order)))


def intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    assert H.group is K.group
    return Subgroup(H.group, H.members & K.members, check=False)


def perm_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def assert_canonical(x, field=None):
    """x is a scalar in canonical form: over GF(p) an int in [0, p); over Q
    (field None or Rationals) an int when integral, a Fraction otherwise."""
    if getattr(field, "characteristic", 0):
        assert type(x) is int and 0 <= x < field.p
    else:
        assert type(x) in (int, Fraction)
        assert (type(x) is int) == (Fraction(x).denominator == 1)
