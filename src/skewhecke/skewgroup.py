"""The skew group algebra A x| G, its Hecke idempotent, and corner bases.

A x| G is the tensor product A (x) R[G] on the labels (l, g), l a basis label
of A and g a group element, with the product twisted by the action:
(a.g)(b.k) = a (alpha_g b) . (gk).
"""

from __future__ import annotations

from . import linalg
from .algebras import (
    AlgebraElement,
    BasedAlgebra,
    GroupAction,
    GroupAlgebra,
    TensorAlgebra,
)
from .groups import CosetSpace, Subgroup
from .scalars import NotAUnitError


class SkewGroupElement(AlgebraElement):
    """An element of A x| G; it multiplies by ``TensorAlgebra.accumulate``, twisted."""

    __slots__ = ()
    # its own attribute, so a wrapper on it by name sees only A x| G products
    __mul__ = AlgebraElement.__mul__


class SkewGroupAlgebra(TensorAlgebra):
    """A x| G = A (x) R[G] with twist(g, b) = alpha_g(b)."""

    element_class = SkewGroupElement

    def __init__(self, A: BasedAlgebra, G, action: GroupAction):
        if action.A is not A or action.G is not G:
            raise ValueError("action does not match (A, G)")
        super().__init__(A, GroupAlgebra(A.field, G))
        self.G = G
        self.action = action

    def twist(self, g, b: AlgebraElement) -> AlgebraElement:
        return self.action.apply(g, b)

    def label_str(self, label):
        l, g = label
        return f"{self.A.label_str(l)}.{self.G.name(g)}"

    def label_sort_key(self, label):
        l, g = label
        return (g, self.A.label_sort_key(l))

    def term(self, a: AlgebraElement, g: int) -> SkewGroupElement:
        return self.from_components({g: a})


def subgroup_sum(sga: SkewGroupAlgebra, H) -> SkewGroupElement:
    """E = sum_h 1_A . h over h in H: the integral |H| e_H, defined over any field."""
    return sga.from_components({h: sga.A.one() for h in H.elements})


def hecke_idempotent(sga: SkewGroupAlgebra, H) -> SkewGroupElement:
    """e_H = (1/|H|) sum_h 1_A . h; requires |H| a unit in the field."""
    f = sga.field
    try:
        inv = f.inv(f.from_int(H.order))
    except NotAUnitError as exc:
        raise NotAUnitError(
            f"|H| = {H.order} is not a unit; corner-ring model unavailable"
        ) from exc
    e = subgroup_sum(sga, H).scale(inv)
    if e * e != e:
        raise ArithmeticError("e_H is not idempotent (bug)")
    return e


def corner_basis(sga: SkewGroupAlgebra, e: SkewGroupElement):
    """Exact basis of e (A x| G) e, spanned by {E.(b,g).E} and rank-reduced.

    For e = e_H, the group elements of e are H, and e.(1,h) = e = (1,h).e for
    h in H.  Since (b, h g h') = (1,h).(alpha_{h^-1} b, g).(1,h'),

        e.(b, h g h').e = e.(alpha_{h^-1} b, g).e,

    so b over a basis of A and g over representatives of H\\G/H already span
    the corner: dim(A)|H\\G/H| pairs instead of dim(A)|G|.  The products use
    E = sum_h 1_A . h = |H| e (see ``subgroup_sum``): E.x.E = |H|^2 e.x.e, and
    |H| is a unit wherever e exists, so both span the same space, and E keeps
    integral coefficients integral.
    """
    H = Subgroup(sga.G, {g for (_, g) in e.coeffs})
    E = subgroup_sum(sga, H)
    reps = [dc.rep_element for dc in CosetSpace(sga.G, H).double_cosets]
    span = linalg.SpanBasis(sga.field)
    basis = []
    for l in sga.A.labels():
        b = sga.A.basis_element(l)
        for g in reps:
            x = E * sga.term(b, g) * E
            if span.insert(x.coeffs):
                basis.append(x)
    return basis
