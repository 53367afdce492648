"""``GroupAction.verify`` by its definition, for differential tests.

The same checks in the same order, with multiplicativity tested on every
label pair (l1, l2) for each generator s, whatever the algebra's
``product_keys`` say.  No pair is skipped and nothing is cached beyond
``on_label``.  Images of elements are ``reference_apply``, the linear
extension of ``on_label``, so no check reads the action's label table or its
``apply``.
"""

from skewhecke.algebras import ActionReport
from skewhecke.groups import full_subgroup


def reference_apply(action, g, x):
    """alpha_g(x) as the plain sum of c_l on_label(g, l) over the terms of x;
    x itself for g the identity, as ``GroupAction.apply`` reads it."""
    if g == 0:
        return x
    return action.A.combination((action.on_label(g, l), c) for l, c in x.coeffs.items())


def reference_verify(action, degree_cap=None) -> ActionReport:
    A, G = action.A, action.G
    labels = A.labels_up_to(degree_cap)
    gens = full_subgroup(G).generators()
    checked = labels
    if A.graded:
        products = [l for l1 in labels for l2 in labels for l in A.product_cached(l1, l2)]
        checked = list(dict.fromkeys(labels + products))
    failures = []
    for l in checked:
        if action.on_label(0, l) != A.basis_element(l):
            failures.append(("identity", l))
    for s in gens:
        for k in range(G.order):
            sk = G.mul(s, k)
            for l in checked:
                if reference_apply(action, s, action.on_label(k, l)) != action.on_label(sk, l):
                    failures.append(("composition", (s, k, l)))
                    break
    one = A.one()
    for s in gens:
        if reference_apply(action, s, one) != one:
            failures.append(("unit", s))
        for l1 in labels:
            for l2 in labels:
                lhs = reference_apply(action, s, A.basis_element(l1) * A.basis_element(l2))
                rhs = action.on_label(s, l1) * action.on_label(s, l2)
                if lhs != rhs:
                    failures.append(("multiplicativity", (s, l1, l2)))
                    break
        if A.graded:
            for l in labels:
                img = action.on_label(s, l)
                if not img.is_zero and img.homogeneous_degree() != A.degree(l):
                    failures.append(("degree", (s, l)))
    return ActionReport(ok=not failures, failures=failures)
