import hashlib
import math
import pathlib
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke.cli import build_context, parse_config
from skewhecke import groups
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
    is_normal,
    parse_cycles,
    perm_compose,
    perm_cycle_notation,
    power_group,
    quotient_group,
    semidirect_product,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
    full_subgroup,
)

from reference_parsing import reference_element_by_name
from reference_shapes import intersection, perm_inverse

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


@pytest.mark.parametrize("s", ["(1 1)", "(2 2 3)", "(1 2 1)", "(1 2", "(1 2)(3", "(1 2) x"])
def test_parse_cycles_refuses_malformed_cycles(s):
    with pytest.raises(ValueError, match=re.escape(f"bad cycle notation: {s!r}")):
        parse_cycles(s, 4)


def test_parse_cycles_accepts_disjoint_cycles():
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("(1,2,3) (4)", 4) == (1, 2, 0, 3)


def test_a_written_product_of_cycles_is_their_product_in_the_group():
    # overlapping cycles compose as mul does: "(1 2)(2 3)" is (1 2) * (2 3)
    assert S3.name(S3.element_by_name("(1 2)(2 3)")) == "(1 2 3)"
    for a in range(1, S4.order):
        for b in range(1, S4.order):
            assert S4.element_by_name(S4.name(a) + S4.name(b)) == S4.mul(a, b), \
                (S4.name(a), S4.name(b))


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


@pytest.mark.parametrize("n", [0, -1])
def test_symmetric_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="n >= 1 required"):
        symmetric_group(n)
    with pytest.raises(ValueError, match="n >= 1 required"):
        group_make(f"symmetric({n})")


def test_symmetric_of_one_point_is_trivial():
    G = symmetric_group(1)
    assert (G.names, G.table, G.perms) == (("id",), ((0,),), ((0,),))


def cube_semidirect_s3():
    """(Z/2)^3 x| S3, S3 permuting the three factors."""
    N, tuples, index = power_group(cyclic_group(2), 3)

    def act(k, n):
        p, t, out = S3.perms[k], tuples[n], [0, 0, 0]
        for i in range(3):
            out[p[i]] = t[i]
        return index[tuple(out)]

    return semidirect_product(N, S3, act).group


def klein_four():
    return subgroup_from_generators(
        S4, [S4.element_by_name("(1 2)(3 4)"), S4.element_by_name("(1 3)(2 4)")])


# sha256 of repr((names, table, perms)) of each table builder's group, recorded
# before the builders shared one construction
@pytest.mark.parametrize("build, digest", [
    pytest.param(lambda: symmetric_group(3),
                 "6ce7b1d6d93f9d4d11dc744761121d2ed3bc541149a42294b5def72c0bbea54b",
                 id="symmetric_3"),
    pytest.param(lambda: symmetric_group(4),
                 "27fd37f5d6c611a7c54e1534362a0d6e7dad492625aa4b27fa116c6e318075ae",
                 id="symmetric_4"),
    pytest.param(lambda: dihedral_group(3),
                 "1998de82d045a04c50d272c352dd707e9deed2dcf199d918e3416c40549d91f1",
                 id="dihedral_3"),
    pytest.param(lambda: dihedral_group(4),
                 "8cb1df142478bfe08e8c82582a82c5df10296a5540e9d183213c021375023bbf",
                 id="dihedral_4"),
    pytest.param(lambda: dihedral_group(5),
                 "3aa5866a69c534a21be922a3a8b8abdc19a1af7c84b5f31928cd9bde63884ae1",
                 id="dihedral_5"),
    pytest.param(lambda: cyclic_group(4),
                 "5c674544d051fc35733e029b72a5f458a84adc39201b6e47e51869b272c3a76a",
                 id="cyclic_4"),
    pytest.param(lambda: direct_product(S3, cyclic_group(2))[0],
                 "f5404faecdf11a51c948b503f4d549329fbafb5db9a8eecdf2cb31c48b48fbdd",
                 id="S3_times_C2"),
    pytest.param(cube_semidirect_s3,
                 "2c03e2c67499011dca91bb4ae486ae08751205393d9d7fb777d31aa560be31ec",
                 id="C2_cubed_by_S3"),
    pytest.param(lambda: power_group(cyclic_group(2), 3)[0],
                 "8d89ab7f44b254ddf80ad8eee882718bef06135f4311fd33444719163975d7f3",
                 id="C2_cubed"),
    pytest.param(lambda: d4_subgroup().as_group()[0],
                 "2771e391bd71b6a3861e6808d026534b5609a4cf13c49a1b58a475b6e025614c",
                 id="D4_in_S4"),
    pytest.param(lambda: quotient_group(S4, klein_four())[0],
                 "26877e4e390c6c1bee9050a52e8b7eb51e8241d1530995c74f9c33cae285d281",
                 id="S4_mod_V4"),
])
def test_table_builders_keep_names_table_and_perms(build, digest):
    G = build()
    assert hashlib.sha256(repr((G.names, G.table, G.perms)).encode()).hexdigest() == digest


def direct_group_on(elements, mul, name, perms=None):
    """``groups._group_on`` with every one of the |G|^2 products taken by mul."""
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table, names=[name(e) for e in elements], perms=perms,
                       check=False), index


def c4_on_c5():
    """Z/5 x| Z/4, the generator of Z/4 acting as multiplication by 2."""
    return semidirect_product(cyclic_group(5), cyclic_group(4),
                              lambda k, n: n * pow(2, k, 5) % 5).group


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda n=n: symmetric_group(n), id=f"symmetric_{n}") for n in range(1, 7)),
    *(pytest.param(lambda n=n: cyclic_group(n), id=f"cyclic_{n}") for n in (1, 2, 4, 5)),
    *(pytest.param(lambda n=n: dihedral_group(n), id=f"dihedral_{n}") for n in (1, 2, 4, 5)),
    pytest.param(lambda: direct_product(S3, cyclic_group(4))[0], id="S3_times_C4"),
    pytest.param(lambda: power_group(cyclic_group(2), 3)[0], id="C2_cubed"),
    pytest.param(c4_on_c5, id="C5_by_C4"),
    pytest.param(cube_semidirect_s3, id="C2_cubed_by_S3"),
    pytest.param(lambda: quotient_group(S4, klein_four())[0], id="S4_mod_V4"),
    pytest.param(lambda: d4_subgroup().as_group()[0], id="D4_in_S4"),
])
def test_composed_rows_are_the_direct_table(build, monkeypatch):
    # the rows composed from the generators' rows against all |G|^2 products
    G = build()
    monkeypatch.setattr(groups, "_group_on", direct_group_on)
    direct = build()
    assert all(type(row) is tuple for row in G.table)
    assert G.table == direct.table
    assert (G.names, G.perms, G.inv_table) == (direct.names, direct.perms, direct.inv_table)


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


S5 = symmetric_group(5)


@pytest.mark.parametrize("G", [S5, dihedral_group(4), cyclic_group(4), power_group(S3, 2)[0]],
                         ids=["S5", "D4", "C4", "S3^2"])
def test_element_by_name_is_the_linear_scan(G):
    for name in G.names:
        assert G.element_by_name(name) == reference_element_by_name(G, name)


@pytest.mark.parametrize("name", ["(2 1)", "(3 1 2)", " (12) ", "(5 4)(2 1 3)",
                                  "(1,2)", "(1 2)(1 2)", "()", "e"])
def test_element_by_name_reads_other_spellings_of_s5_cycles(name):
    g = S5.element_by_name(name)
    assert g == reference_element_by_name(S5, name)
    assert S5.perms[g] == parse_cycles(name, 5)


@pytest.mark.parametrize("G, name", [
    (S5, "(1 6)"), (S5, "(1 1)"), (S5, "x"), (dihedral_group(4), "(1 2)"),
    (cyclic_group(4), "t^4"), (cyclic_group(4), "g4"), (FiniteGroup([[0]]), "g1"),
])
def test_element_by_name_keeps_its_errors(G, name):
    with pytest.raises(ValueError) as expected:
        reference_element_by_name(G, name)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        G.element_by_name(name)


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


def products_closure(G, gens):
    """{e} and gens closed under all pairwise products, to a fixed point."""
    elems = {0, *gens}
    while True:
        grown = elems | {G.mul(a, b) for a in elems for b in elems}
        if grown == elems:
            return elems
        elems = grown


def test_subgroup_from_generators_is_the_closure_for_every_pair_of_s4():
    for a in range(S4.order):
        for b in range(S4.order):
            H = subgroup_from_generators(S4, [a, b])
            assert set(H.elements) == products_closure(S4, [a, b])


def test_members_is_the_frozen_element_set():
    H, V4 = d4_subgroup(), klein_four()
    assert H.members == frozenset(H.elements) and isinstance(H.members, frozenset)
    assert [g for g in range(S4.order) if g in H] == list(H.elements)
    assert intersection(H, V4) == V4
    assert is_normal(S4, V4) and not is_normal(S4, H)


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
