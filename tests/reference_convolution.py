"""The convolution by its definition, for differential tests.

Expands both factors over every left coset and walks all cosets kH with
representatives ``reps``:

    (phi * psi)(gH) = sum_kH phi(kH) alpha_k psi(k^-1 gH).

No product skeleton, no caching, no validation.
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
