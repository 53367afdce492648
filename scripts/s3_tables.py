#!/usr/bin/env python3
"""Print exact multiplication data for the (S3, <(1 2)>) fixture family.

For each coefficient family (scalars, functions on S3, polynomials in three
variables) this prints the double-coset orbit data, the module dimension, and
the structure constants, then spot-checks the closed two-component product
formula on a few sample elements.

Usage: python3 scripts/s3_tables.py [--seed N]
"""

import argparse
import random

from skewhecke import (
    FunctionAlgebra,
    HeckeContext,
    PolynomialAlgebra,
    Rationals,
    classical_context,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
    structure_constants,
    subgroup_from_generators,
    symmetric_group,
)

Q = Rationals()
S3 = symmetric_group(3)
H = subgroup_from_generators(S3, [S3.element_by_name("(1 2)")])


def contexts():
    yield "scalars", classical_context(Q, S3, H)
    A = FunctionAlgebra(Q, S3)
    yield "functions on S3", HeckeContext(S3, H, A, left_translation_action(S3, A))
    P = PolynomialAlgebra(Q, 3, 4)
    yield "polynomials (3 vars)", HeckeContext(
        S3, H, P, permutation_variable_action(S3, P), degree_cap=2
    )


def print_orbits(ctx):
    for oi, orbit in enumerate(ctx.orbits):
        rep = ctx.cosets.reps[orbit.rep_coset]
        print(
            f"  orbit {oi}: rep {ctx.G.name(rep)}H, "
            f"{len(orbit.coset_indices)} cosets, "
            f"stabilizer order {orbit.stabilizer.order}"
        )


def print_structure_constants(ctx):
    basis, rows = structure_constants(ctx)
    print(f"  module basis: {len(basis)} elements")
    for i, j, k, c in rows:
        print(f"    e{i} * e{j} -> {ctx.field.format(c)} . e{k}")


def sample_products(ctx, rng):
    for _ in range(2):
        x = ctx.random_element(rng, coeff_range=(-2, 2))
        y = ctx.random_element(rng, coeff_range=(-2, 2))
        print(f"  ({x})")
        print(f"    * ({y})")
        print(f"    = ({x * y})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name, ctx in contexts():
        print(f"== coefficients: {name} ==")
        print_orbits(ctx)
        inv = invariants_compute(
            ctx.A, ctx.H.generators(), ctx.action,
            degree=1 if ctx.graded else None,
        )
        deg = " (degree 1)" if ctx.graded else ""
        print(f"  invariant coefficients{deg}: " + ", ".join(str(v) for v in inv))
        if not ctx.graded or ctx.A.nvars <= 3:
            print_structure_constants(ctx)
        sample_products(ctx, random.Random(args.seed))
        print()


if __name__ == "__main__":
    main()
