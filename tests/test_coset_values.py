"""``HeckeElement.at`` against the rule phi(h xH) = alpha_h phi(xH).

An element stores one value per H-orbit of cosets, at the orbit's
representative coset xH; ``at(g)`` reads phi(gH).  For every g of the group,
on the golden configs and on one H = 1 and one H = G context:

- ``at(g)`` is alpha_h of the stored value, for an h in H with h xH = gH
  found here by scanning H, not read off the orbit's transversal;
- ``at(h g)`` is alpha_h ``at(g)`` for every h in H;
- ``expand()`` lists ``at`` at each coset's representative.
"""

import pathlib
import random

import pytest

from skewhecke.cli import JobConfig, build_context, parse_config

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"

SHAPES = {
    "trivial_subgroup": JobConfig(group="symmetric(3)", subgroup="trivial",
                                  algebra="group(self)", action="conjugation"),
    "full_subgroup": JobConfig(group="symmetric(3)", subgroup="full",
                               algebra="polynomial(3)", action="permute_variables",
                               degree_cap=2),
}


def contexts():
    out = [pytest.param(lambda p=p: build_context(parse_config(p.read_text())), id=p.stem)
           for p in sorted(GOLDEN.glob("*.cfg"))]
    out += [pytest.param(lambda c=cfg: build_context(c), id=name)
            for name, cfg in SHAPES.items()]
    return out


def elements(ctx):
    """A random element, carried by every orbit, and one basis element of
    the top degree, carried by a single orbit, so ``at`` also reads zeros."""
    top = list(ctx.A.degrees(ctx.degree_cap))[-1]
    return [ctx.random_element(random.Random(7)), ctx.basis_hecke_elements(top)[-1]]


def definitional_value(phi, g):
    """alpha_h phi(xH) with xH the representative coset of the orbit holding
    gH, and h the last element of H in its order with h xH = gH."""
    ctx = phi.ctx
    G, coset_of = ctx.G, ctx.cosets.coset_of
    found = None
    for oi, orbit in enumerate(ctx.orbits):
        for h in ctx.H.elements:
            if coset_of[G.mul(h, orbit.rep_element)] == coset_of[g]:
                found = (oi, h)
    oi, h = found
    return ctx.action.apply(h, phi.value(oi))


@pytest.mark.parametrize("make", contexts())
def test_at_is_the_definitional_value(make):
    ctx = make()
    for phi in elements(ctx):
        for g in range(ctx.G.order):
            assert phi.at(g) == definitional_value(phi, g), ctx.G.name(g)


@pytest.mark.parametrize("make", contexts())
def test_at_is_equivariant_under_h(make):
    ctx = make()
    G, apply = ctx.G, ctx.action.apply
    for phi in elements(ctx):
        for g in range(G.order):
            value = phi.at(g)
            for h in ctx.H.elements:
                assert phi.at(G.mul(h, g)) == apply(h, value), (G.name(h), G.name(g))


@pytest.mark.parametrize("make", contexts())
def test_expand_reads_at_on_every_coset(make):
    ctx = make()
    reps = ctx.cosets.reps
    for phi in elements(ctx):
        exp = phi.expand()
        assert sorted(exp) == list(range(len(reps)))
        for ci, k in enumerate(reps):
            assert exp[ci] == phi.at(k)
