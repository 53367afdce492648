import math
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke.cli import build_context, parse_config
from skewhecke.groups import (
    MAX_GROUP_ORDER,
    CosetSpace,
    GroupAxiomError,
    FiniteGroup,
    Subgroup,
    conjugate_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_make,
    intersection,
    is_normal,
    parse_cycles,
    perm_compose,
    perm_cycle_notation,
    perm_inverse,
    power_group,
    quotient_group,
    semidirect_product,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
    full_subgroup,
)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"


def s2_subgroup(G=S3):
    return subgroup_from_generators(G, [G.element_by_name("(1 2)")])


def d4_subgroup():
    return subgroup_from_generators(
        S4, [S4.element_by_name("(1 2 3 4)"), S4.element_by_name("(1 3)")]
    )


# -- permutation helpers -----------------------------------------------------


perms4 = st.permutations(list(range(4))).map(tuple)


@given(perms4, perms4)
def test_perm_compose_inverse(p, q):
    assert perm_compose(p, perm_inverse(p)) == tuple(range(4))
    assert perm_inverse(perm_compose(p, q)) == perm_compose(
        perm_inverse(q), perm_inverse(p)
    )


@given(perms4)
def test_cycle_notation_roundtrip(p):
    assert parse_cycles(perm_cycle_notation(p), 4) == p


def test_parse_cycles_compact_form():
    assert parse_cycles("(12)", 3) == parse_cycles("(1 2)", 3)
    assert parse_cycles("id", 3) == (0, 1, 2)


# -- group constructors ------------------------------------------------------


@pytest.mark.parametrize(
    "G,order",
    [
        (symmetric_group(3), 6),
        (symmetric_group(4), 24),
        (cyclic_group(5), 5),
        (dihedral_group(4), 8),
        (dihedral_group(2), 4),
        (dihedral_group(1), 2),
    ],
)
def test_group_axioms(G, order):
    assert G.order == order
    n = G.order
    for a in range(n):
        assert G.mul(0, a) == a == G.mul(a, 0)
        assert G.mul(a, G.inverse(a)) == 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_bad_table_rejected():
    with pytest.raises(GroupAxiomError):
        FiniteGroup([[0, 1], [1, 1]])


def test_symmetric_group_ordering():
    # identity first, then lexicographic on permutation tuples
    assert S3.perms[0] == (0, 1, 2)
    assert S3.names[0] == "id"
    assert list(S3.perms) == sorted(S3.perms)


def test_element_by_name():
    g = S3.element_by_name("(1 2 3)")
    assert S3.perms[g] == (1, 2, 0)
    assert S3.element_by_name("id") == 0


def test_direct_product_structure():
    G, e1, e2, p1, p2 = direct_product(S3, cyclic_group(2))
    assert G.order == 12
    for a in range(S3.order):
        for b in range(S3.order):
            assert G.mul(e1[a], e1[b]) == e1[S3.mul(a, b)]
    for g in range(G.order):
        assert G.mul(e1[p1[g]], e2[p2[g]]) == g


def test_power_group():
    G, tuples, index = power_group(cyclic_group(2), 3)
    assert G.order == 8
    assert all(G.mul(g, g) == 0 for g in range(8))


def test_semidirect_rejects_non_action():
    C3 = cyclic_group(3)
    C2 = cyclic_group(2)
    with pytest.raises(GroupAxiomError):
        # k=1 acting by n -> n+1 is not an automorphism
        semidirect_product(C3, C2, lambda k, n: (n + k) % 3)


def test_semidirect_s3():
    C3 = cyclic_group(3)
    C2 = cyclic_group(2)
    sd = semidirect_product(C3, C2, lambda k, n: n if k == 0 else (-n) % 3)
    G = sd.group
    assert G.order == 6
    # non-abelian
    assert any(G.mul(a, b) != G.mul(b, a) for a in range(6) for b in range(6))


def test_group_make():
    assert group_make("symmetric(4)").order == 24
    assert group_make("dihedral(5)").order == 10
    with pytest.raises(ValueError):
        group_make("monster")


# -- subgroups, cosets, double cosets ---------------------------------------


def test_subgroup_closure_check():
    with pytest.raises(GroupAxiomError):
        Subgroup(S3, [0, S3.element_by_name("(1 2 3)")])  # not closed


def test_subgroup_generators_regenerate():
    H = d4_subgroup()
    assert H.order == 8
    regenerated = subgroup_from_generators(S4, H.generators())
    assert regenerated.elements == H.elements


def greedy_generators(H):
    """The greedy generating set, recomputed: each element of H, in order, that
    the ones before it do not generate."""
    gens, current = [], {0}
    for a in H.elements:
        if a not in current:
            gens.append(a)
            current = set(subgroup_from_generators(H.group, gens).elements)
            if len(current) == H.order:
                break
    return gens


def all_subgroups(G):
    """Every subgroup of G generated by two elements (all of them for S3, S4)."""
    return {subgroup_from_generators(G, [a, b])
            for a in range(G.order) for b in range(a, G.order)}


def golden_stabilizers():
    out = []
    for path in sorted(GOLDEN.glob("*.cfg")):
        ctx = build_context(parse_config(path.read_text()))
        out.extend(orbit.stabilizer for orbit in ctx.orbits)
    return out


def test_generators_are_the_greedy_list_and_a_fresh_copy():
    s4_subgroups = all_subgroups(S4)
    assert len(s4_subgroups) == 30
    for H in [*all_subgroups(S3), *s4_subgroups, *golden_stabilizers()]:
        expected = greedy_generators(H)
        gens = H.generators()
        assert gens == expected
        gens.append(0)
        gens.reverse()
        assert H.generators() == expected


def test_as_group_isomorphic():
    H = d4_subgroup()
    K, embed = H.as_group()
    assert K.order == 8
    for a in range(8):
        for b in range(8):
            assert embed[K.mul(a, b)] == S4.mul(embed[a], embed[b])


def test_coset_partition():
    for G, H in [(S3, s2_subgroup()), (S4, d4_subgroup())]:
        cs = CosetSpace(G, H)
        assert cs.n == G.order // H.order
        seen = set()
        for coset in cs.cosets:
            assert len(coset) == H.order
            seen.update(coset)
        assert seen == set(range(G.order))
        assert cs.reps[0] == 0  # identity coset first


def test_coset_transversal_law():
    cs = CosetSpace(S4, d4_subgroup())
    for orbit in cs.double_cosets:
        rep = orbit.rep_coset
        for ci, h in orbit.transversal.items():
            assert cs.h_action[h][rep] == ci


@pytest.mark.parametrize(
    "G,Hgens,expected_orbits",
    [
        (S3, ["(1 2)"], 2),
        (S4, ["(1 2)", "(1 3)", "(2 3)"], 2),  # S3 <= S4
        (S4, ["(1 2 3 4)", "(1 3)"], 2),  # D4 <= S4: orbits of sizes 8 and 16
    ],
)
def test_double_coset_counts(G, Hgens, expected_orbits):
    H = subgroup_from_generators(G, [G.element_by_name(s) for s in Hgens])
    cs = CosetSpace(G, H)
    assert len(cs.double_cosets) == expected_orbits
    # orbit sizes partition the coset space
    assert sum(len(o.coset_indices) for o in cs.double_cosets) == cs.n
    # stabilizer = H \cap gHg^-1 for the representative
    for o in cs.double_cosets:
        g = cs.reps[o.rep_coset]
        conj = conjugate_subgroup(G, H, g)
        assert o.stabilizer.elements == intersection(H, conj).elements


def test_quotient_s4_by_v4():
    V4 = Subgroup(
        S4,
        [0]
        + [S4.perms.index(p) for p in [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]],
    )
    assert is_normal(S4, V4)
    Q, proj = quotient_group(S4, V4)
    assert Q.order == 6
    # isomorphic to S3: non-abelian of order 6
    assert any(Q.mul(a, b) != Q.mul(b, a) for a in range(6) for b in range(6))
    for a in range(S4.order):
        for b in range(S4.order):
            assert proj[S4.mul(a, b)] == Q.mul(proj[a], proj[b])


def test_quotient_requires_normal():
    with pytest.raises(GroupAxiomError):
        quotient_group(S3, s2_subgroup())


def test_trivial_and_full():
    assert trivial_subgroup(S3).order == 1
    assert full_subgroup(S3).order == 6


@pytest.mark.parametrize("spec", ["symmetric(8)", "cyclic(1000000000)",
                                  "dihedral(1000000000)", "symmetric(1000000000)"])
def test_group_order_cap_refuses_before_building(spec):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"order over {MAX_GROUP_ORDER}"):
            group_make(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no table: S8 alone would need 1.6e9 entries


def test_group_order_cap_admits_s6():
    assert MAX_GROUP_ORDER >= 720
    assert group_make("symmetric(6)").order == 720


def test_element_not_in_permutation_group_is_named():
    with pytest.raises(ValueError, match=r"'\(1 2\)' is not in this group of order 8"):
        dihedral_group(4).element_by_name("(1 2)")
