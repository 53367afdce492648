"""The skew group algebra A x| G, its Hecke idempotent, and corner bases.

A x| G is a based algebra on the labels (l, g), l a basis label of A and g a
group element.  Its elements share AlgebraElement's arithmetic, all but the
twisted product (a.g)(b.k) = a (alpha_g b) . (gk).
"""

from __future__ import annotations

from . import linalg
from .algebras import AlgebraElement, BasedAlgebra, GroupAction, add_into
from .groups import CosetSpace, Subgroup
from .scalars import NotAUnitError


class SkewGroupElement(AlgebraElement):
    """An element of A x| G; only its product differs from AlgebraElement's."""

    __slots__ = ()

    def __mul__(self, other):
        """(sum_g a_g.g)(sum_k b_k.k) = sum over g, k of (a_g alpha_g(b_k)) . gk."""
        if not isinstance(other, SkewGroupElement) or other.alg is not self.alg:
            return NotImplemented
        p = self.alg
        G, act = p.G, p.action
        right = p.components(other)
        by_group: dict = {}
        for g, a in p.components(self).items():
            for k, b in right.items():
                add_into(p.field, by_group.setdefault(G.mul(g, k), {}),
                         (a * act.apply(g, b)).coeffs)
        return SkewGroupElement(
            p, {(l, gk): c for gk, coeffs in by_group.items() for l, c in coeffs.items()}
        )


class SkewGroupAlgebra(BasedAlgebra):
    """A x| G as a based algebra on the labels (l, g): l a label of A, g in G."""

    element_class = SkewGroupElement

    def __init__(self, A: BasedAlgebra, G, action: GroupAction):
        if action.A is not A or action.G is not G:
            raise ValueError("action does not match (A, G)")
        super().__init__(A.field)
        self.A = A
        self.G = G
        self.action = action

    def labels(self):
        return [(l, g) for l in self.A.labels() for g in range(self.G.order)]

    def one_coeffs(self):
        return {(l, 0): c for l, c in self.A.one_coeffs().items()}

    def label_str(self, label):
        l, g = label
        return f"{self.A.label_str(l)}.{self.G.name(g)}"

    def label_sort_key(self, label):
        l, g = label
        return (g, self.A.label_sort_key(l))

    def term(self, a: AlgebraElement, g: int) -> SkewGroupElement:
        return self.element({(l, g): c for l, c in a.coeffs.items()})

    def components(self, x: SkewGroupElement) -> dict:
        """x as {g: its A-coefficient}; group elements absent from x are omitted."""
        out: dict = {}
        for (l, g), c in x.coeffs.items():
            out.setdefault(g, {})[l] = c
        return {g: AlgebraElement(self.A, coeffs) for g, coeffs in out.items()}

    def coefficient_function(self, x: SkewGroupElement, g: int) -> AlgebraElement:
        """The A-coefficient of the group element g in x."""
        return self.components(x).get(g, self.A.zero())


def subgroup_sum(sga: SkewGroupAlgebra, H) -> SkewGroupElement:
    """E = sum_h 1_A . h over h in H: the integral |H| e_H, defined over any field."""
    return sga.element(
        {(l, h): c for l, c in sga.A.one_coeffs().items() for h in H.elements}
    )


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
    pairs = sga.labels()
    span = linalg.SpanBasis(sga.field, len(pairs))
    basis = []
    for l in sga.A.labels():
        b = sga.A.basis_element(l)
        for g in reps:
            x = E * sga.term(b, g) * E
            if not x.is_zero and span.insert(x.to_vector(pairs)):
                basis.append(x)
    return basis
