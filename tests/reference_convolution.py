"""Plain references for differential tests.

``reference_convolve`` is the convolution by its definition.  It expands both
factors over every left coset and walks all cosets kH with representatives
``reps``:

    (phi * psi)(gH) = sum_kH phi(kH) alpha_k psi(k^-1 gH).

No product skeleton, no caching, no validation.

``reference_structure_constants`` is the multiplication table one basis pair
at a time: ``convolve`` on each pair, then ``module_coordinates``.

``classical_structure_constants_counting`` is the table of H_R(G, H) by
counting cosets, with no convolution at all.
"""

from skewhecke.algebras import AlgebraElement
from skewhecke.linalg import add_into
from skewhecke.hecke import HeckeElement


def reference_convolve(phi, psi, reps):
    ctx = phi.ctx
    G, cs = ctx.G, ctx.cosets
    phi_exp, psi_exp = phi.expand(), psi.expand()
    vals = {}
    for oi, orbit in enumerate(ctx.orbits):
        g = cs.reps[orbit.rep_coset]
        total: dict = {}
        for ci in range(cs.n):
            k = reps[ci]
            a = phi_exp[ci]
            b = psi_exp[cs.coset_of[G.mul(G.inverse(k), g)]]
            add_into(ctx.field, total, (a * ctx.action.apply(k, b)).coeffs)
        vals[oi] = AlgebraElement(ctx.A, total)
    return HeckeElement(ctx, vals)


def alternative_reps(cs):
    """The largest element of each coset: representatives other than cs.reps."""
    return [max(coset) for coset in cs.cosets]


def reference_structure_constants(ctx, degree_cap=None):
    """(basis, rows) of ``hecke.structure_constants``, by a product per pair."""
    if degree_cap is None:
        degree_cap = ctx.degree_cap
    basis = []
    start_of = {}
    for d in ctx.A.degrees(degree_cap):
        start_of[d] = len(basis)
        basis.extend((oi, v, d or 0) for oi, v in ctx.module_basis(d))
    elements = [HeckeElement(ctx, {oi: v}) for oi, v, _ in basis]
    rows = []
    for i, (_, _, di) in enumerate(basis):
        for j, (_, _, dj) in enumerate(basis):
            prod = elements[i].convolve(elements[j])
            dk = di + dj if ctx.graded else None
            start = start_of.get(dk)
            for t, c in ctx.module_coordinates(prod, degree=dk).items():
                k = ("deg", dk, t) if start is None else start + t
                rows.append((i, j, k, c))
    return basis, rows


def classical_structure_constants_counting(field, cosets):
    """Structure constants of H_R(G,H) by direct double-coset counting.

    Independent of the convolution implementation: c_{ijk} counts left cosets
    kH inside double coset i with k^{-1} g_k H inside double coset j, for g_k
    the representative of double coset k.
    """
    G = cosets.G
    orbits = cosets.double_cosets
    out = {}
    for i, Di in enumerate(orbits):
        for j in range(len(orbits)):
            for k, Dk in enumerate(orbits):
                g = Dk.rep_element
                count = 0
                for ci in Di.coset_indices:
                    krep = cosets.reps[ci]
                    target = cosets.coset_of[G.mul(G.inverse(krep), g)]
                    if cosets.orbit_of_coset[target] == j:
                        count += 1
                if count:
                    out[(i, j, k)] = field.from_int(count)
    return out
