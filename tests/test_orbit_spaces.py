"""Fixed spaces by orbit sums against the elimination they stand in for.

When every generator permutes the labels of a degree, ``InvariantSpace`` takes
the orbit sums of the labels as its basis and reads coordinates off one entry
per orbit; otherwise it reduces the invariance conditions with a
``CoordinateSolver``.  Each orbit-sum space here is compared with a solver of
the same conditions, built as the general path builds it: the same basis, in
the same order, and the same coordinates, None included, on fixed elements,
on moved ones, on elements that list part of an orbit and on elements with
terms outside the degree.  The spaces are every orbit space of the golden
configs and of (S5, <(1 2), (1 2 3)>, functions), and those of S3 and S4 over
GF(2) and GF(3), where p divides the order of the stabilizer.
"""

import pathlib
import random

import pytest

from skewhecke import linalg
from skewhecke.algebras import (
    GroupAction,
    InvariantSpace,
    PolynomialAlgebra,
    permutation_variable_action,
)
from skewhecke.cli import JobConfig, build_context, parse_config
from skewhecke.groups import full_subgroup, symmetric_group
from skewhecke.scalars import PrimeField, Rationals

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
Q = Rationals()


def solver_reference(A, S_elements, action, degree=None):
    """(index, solver, basis) of the fixed space by elimination: one block of
    rows alpha_s(l) - l per s, reduced by one CoordinateSolver."""
    labels = A.basis_labels(degree)
    index = {l: j for j, l in enumerate(labels)}
    rows = []
    for s in S_elements:
        if s == 0:
            continue
        block = {l: {} for l in labels}  # the rows of this s, one per label
        for j, l in enumerate(labels):
            for m, x in (action.on_label(s, l) - A.basis_element(l)).coeffs.items():
                block[m][j] = x
        rows.extend(block.values())
    solver = linalg.CoordinateSolver(A.field, rows, len(labels))
    basis = [A.element({labels[j]: x for j, x in v.items()}) for v in solver.basis]
    return index, solver, basis


def probes(space, A, degree, rng):
    """Elements to read coordinates of: zero, each basis vector, random
    combinations of it (fixed), each perturbed at one label (moved unless
    that orbit is one label), random elements of the degree, a fixed element
    missing one label of an orbit, and a fixed element plus terms of another
    degree."""
    f, labels = A.field, A.basis_labels(degree)
    out = [A.zero(), *space.basis]

    def rand():
        return f.from_int(rng.randint(-3, 3))

    for _ in range(6):
        fixed = A.combination((v, rand()) for v in space.basis)
        out.append(fixed)
        if labels:
            out.append(fixed + A.basis_element(rng.choice(labels)).scale(rand()))
        out.append(A.element({l: rand() for l in labels if rng.random() < 0.5}))
    for v in space.basis:
        if len(v.coeffs) > 1:
            out.append(A.element(dict(list(v.coeffs.items())[1:])))
    if A.graded:
        other = A.basis_labels(degree + 1) if degree < A.degree_cap else []
        if other:
            out.append(out[-1] + A.basis_element(other[0]))
    return out


def assert_orbit_space_matches_solver(A, S_elements, action, degree, seed=0):
    space = InvariantSpace(A, S_elements, action, degree)
    assert space.solver is None, "a label-permuting action took the solver path"
    index, solver, basis = solver_reference(A, S_elements, action, degree)
    assert space.index == index
    assert [list(v.coeffs.items()) for v in space.basis] \
        == [list(v.coeffs.items()) for v in basis]
    for a in probes(space, A, degree, random.Random(seed)):
        expected = solver.coordinates(
            (index[l], x) for l, x in a.coeffs.items() if l in index)
        got = space.coordinates(a.coeffs)
        assert got == expected
        if got is not None:
            assert list(got) == sorted(got)


def context_spaces(ctx):
    """(S, degree) for every orbit space of ctx, and for A^G in each degree."""
    gens = full_subgroup(ctx.G).generators()
    return [(S, d) for d in ctx.A.degrees(ctx.degree_cap)
            for S in [o.stabilizer.generators() for o in ctx.orbits] + [gens]]


def assert_context_matches_solver(ctx):
    for i, (S, d) in enumerate(context_spaces(ctx)):
        assert_orbit_space_matches_solver(ctx.A, S, ctx.action, d, seed=i)
    # the context's own cached spaces are the orbit-sum ones
    for d in ctx.A.degrees(ctx.degree_cap):
        assert all(space.solver is None for space, _ in ctx.coordinate_layout(d))


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.cfg")))
def test_golden_config_spaces_match_solver(name):
    ctx = build_context(parse_config((GOLDEN / f"{name}.cfg").read_text()))
    assert_context_matches_solver(ctx)


def test_s5_function_spaces_match_solver():
    ctx = build_context(JobConfig(group="symmetric(5)", subgroup="(1 2), (1 2 3)",
                                  algebra="functions", action="left_translation"))
    assert_context_matches_solver(ctx)


SMALL_CHARACTERISTIC = [
    (field, group, subgroup, algebra, action)
    for field in ("prime_field(2)", "prime_field(3)")
    for group, n in (("symmetric(3)", 3), ("symmetric(4)", 4))
    for subgroup in ("(1 2)", "(1 2), (1 2 3)")
    for algebra, action in (("functions", "left_translation"),
                            ("group(self)", "conjugation"),
                            (f"polynomial({n})", "permute_variables"),
                            ("matrix(2)", "trivial"))
]


@pytest.mark.parametrize("field, group, subgroup, algebra, action", SMALL_CHARACTERISTIC,
                         ids=["-".join(c) for c in SMALL_CHARACTERISTIC])
def test_spaces_in_small_characteristic_match_solver(field, group, subgroup, algebra,
                                                     action):
    ctx = build_context(JobConfig(field=field, group=group, subgroup=subgroup,
                                  algebra=algebra, action=action))
    assert_context_matches_solver(ctx)


# -- the successor check, one kind of probe at a time ---------------------------


@pytest.mark.parametrize("field", [Q, PrimeField(3), PrimeField(5)], ids=str)
def test_successor_check_probe_by_probe(field):
    # <(1 2)> on the quadratic monomials in x1, x2, x3: the orbits
    # {x1^2, x2^2} and {x1 x3, x2 x3}, and the singletons {x1 x2} and {x3^2}
    S3 = symmetric_group(3)
    A = PolynomialAlgebra(field, 3, 2)
    act = permutation_variable_action(S3, A)
    gens = [S3.element_by_name("(1 2)")]
    space = InvariantSpace(A, gens, act, 2)
    index, solver, _ = solver_reference(A, gens, act, 2)
    assert sorted(map(len, space.orbits)) == [1, 1, 2, 2]

    def coordinates(coeffs):
        got = space.coordinates(coeffs)
        assert got == solver.coordinates(
            (index[l], x) for l, x in coeffs.items() if l in index)
        return got

    def value(t):  # nonzero in each field; other(t) differs from it
        return field.from_int(1 + t % 2)

    def other(t):
        return field.from_int(2 - t % 2)

    fixed = {l: value(t) for t, orbit in enumerate(space.orbits) for l in orbit}
    expected = {t: value(t) for t in range(len(space.orbits))}
    assert coordinates({}) == {}
    assert coordinates(fixed) == expected
    for t, orbit in enumerate(space.orbits):
        for l in orbit:
            changed = {**fixed, l: other(t)}
            dropped = {m: x for m, x in fixed.items() if m != l}
            if len(orbit) == 1:  # any value of a singleton orbit is fixed
                assert coordinates(changed) == {**expected, t: other(t)}
                assert coordinates(dropped) == {s: x for s, x in expected.items() if s != t}
            else:
                assert coordinates(changed) is None
                assert coordinates(dropped) is None
    # labels of degrees 0 and 1, x1 alone among them moved, are read past
    others = {(0, 0, 0): field.one, (1, 0, 0): other(0)}
    assert coordinates({**others, **fixed}) == expected
    assert coordinates({**fixed, **others}) == expected
    t, orbit = next((t, orbit) for t, orbit in enumerate(space.orbits) if len(orbit) > 1)
    assert coordinates({**others, **fixed, orbit[0]: other(t)}) is None


# -- actions that do not permute the labels keep the solver ---------------------


def signed_variable_action(G, A):
    """x_i -> sgn(g) x_{g(i)}: a monomial of degree d goes to sgn(g)^d times
    the permuted monomial, so odd degrees are not relabelled by odd g."""
    def on_label(g, label):
        p = G.perms[g]
        out = [0] * A.nvars
        for i, e in enumerate(label):
            out[p[i]] = e
        sign = (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        return A.basis_element(tuple(out)).scale(A.field.from_int(sign ** sum(label)))

    return GroupAction(G, A, on_label, name="signed_variables")


def test_signed_monomial_action_builds_a_solver():
    S3 = symmetric_group(3)
    A = PolynomialAlgebra(Q, 3, 2)
    act = signed_variable_action(S3, A)
    assert act.verify(degree_cap=1).ok
    gens = [S3.element_by_name("(1 2)")]
    odd = InvariantSpace(A, gens, act, 1)
    assert isinstance(odd.solver, linalg.CoordinateSolver)
    # x1 - x2 is fixed: (1 2) sends it to -(x2 - x1)
    x = A.variable(1) - A.variable(2)
    assert odd.coordinates(x.coeffs) is not None \
        and odd.coordinates(A.variable(3).coeffs) is None
    assert len(odd.basis) == 1
    # in degree 2 the sign squares to 1: the labels are permuted again
    assert_orbit_space_matches_solver(A, gens, act, 2)


def test_non_injective_relabelling_builds_a_solver():
    # every monomial of degree 1 -> x1 under g != e: one label each, not a
    # permutation, so the orbit sums would not be fixed
    S3 = symmetric_group(3)
    A = PolynomialAlgebra(Q, 3, 1)
    act = GroupAction(S3, A, lambda g, l: A.basis_element(
        l if g == 0 or sum(l) != 1 else (1, 0, 0)))
    space = InvariantSpace(A, [S3.element_by_name("(1 2)")], act, 1)
    assert isinstance(space.solver, linalg.CoordinateSolver)
    assert [v.coeffs for v in space.basis] == [{(1, 0, 0): 1}]
