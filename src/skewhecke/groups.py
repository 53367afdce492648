"""Finite groups via full multiplication tables.

Elements are indices 0..n-1 with 0 the identity.  Symmetric and dihedral
groups carry permutation data and cycle-notation names.  Coset spaces record
left cosets, the H-action on them, the double-coset orbits together with
their stabilizers H \\cap gHg^{-1}, and the product skeleton of convolution.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

# Largest group order built from a name: the multiplication table has
# order**2 entries (S6 = 720 fits; S7 would need 2.5e7 entries).
MAX_GROUP_ORDER = 1000


class GroupAxiomError(ValueError):
    """A purported multiplication table fails the group axioms."""


def _check_order(spec: str, order: int):
    """Refuse a group before its order**2-entry table is allocated."""
    if order > MAX_GROUP_ORDER:
        raise ValueError(
            f"{spec} has order over {MAX_GROUP_ORDER}; larger tables are not built"
        )


# ---------------------------------------------------------------------------
# permutation helpers (tuples p with p[i] = image of i, 0-indexed)

def perm_compose(p, q):
    """(p*q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def perm_cycle_notation(p) -> str:
    """Cycle notation with 1-indexed points, 'id' for the identity."""
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        while p[cyc[-1]] != i:
            cyc.append(p[cyc[-1]])
        seen.update(cyc)
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "id"


def parse_cycles(s: str, n: int):
    """Parse cycle notation like '(1 2)(3 4)' or '(12)' into a permutation of n points."""
    s = s.strip()
    if s in ("id", "()", "e", "1"):
        return tuple(range(n))
    perm = list(range(n))
    depth_items: list[list[int]] = []
    i = 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        j = s.find(")", i)
        if s[i] != "(" or j < 0:
            raise ValueError(f"bad cycle notation: {s!r}")
        body = s[i + 1 : j].replace(",", " ")
        if " " in body.strip():
            pts = [int(t) - 1 for t in body.split()]
        else:
            pts = [int(ch) - 1 for ch in body.strip()]
        for pt in pts:
            if not 0 <= pt < n:
                raise ValueError(f"point {pt + 1} out of range in {s!r}")
        if len(set(pts)) < len(pts):  # a point repeated within one cycle
            raise ValueError(f"bad cycle notation: {s!r}")
        depth_items.append(pts)
        i = j + 1
    # the written product c1 c2 ... is the map c1 o c2 o ..., applied right to
    # left as ``mul`` composes: fold the cycles in their written order
    for pts in depth_items:
        new = list(perm)
        for k, pt in enumerate(pts):
            new[pt] = perm[pts[(k + 1) % len(pts)]]
        perm = new
    return tuple(perm)


# ---------------------------------------------------------------------------


class FiniteGroup:
    def __init__(self, table, names=None, perms=None, check=True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if names is None:
            names = ["id"] + [f"g{i}" for i in range(1, self.order)]
        self.names = tuple(names)
        self.perms = tuple(perms) if perms is not None else None
        if check:
            self._check_axioms()
        for a, row in enumerate(self.table):
            if 0 not in row:
                raise GroupAxiomError(f"element {a} has no inverse")
        self.inv_table = tuple(row.index(0) for row in self.table)

    def _check_axioms(self):
        n = self.order
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupAxiomError("malformed multiplication table")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise GroupAxiomError("index 0 is not a two-sided identity")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupAxiomError(
                            f"non-associative at ({a},{b},{c})"
                        )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv_table[a]

    def name(self, a: int) -> str:
        return self.names[a]

    @functools.cached_property
    def _name_index(self) -> dict:
        """name -> the index of its first occurrence in ``names``."""
        names = self.names
        return dict(zip(reversed(names), range(len(names) - 1, -1, -1)))

    def element_by_name(self, name: str) -> int:
        name = name.strip()
        i = self._name_index.get(name)
        if i is not None:
            return i
        if self.perms is not None:
            p = parse_cycles(name, len(self.perms[0]))
            if p not in self.perms:
                raise ValueError(
                    f"element {name!r} is not in this group of order {self.order}"
                )
            return self.perms.index(p)
        if name.startswith("g") and name[1:].isdigit() and int(name[1:]) < self.order:
            return int(name[1:])
        raise ValueError(f"unknown element {name!r}")

    def conjugate(self, s: int, a: int) -> int:
        return self.mul(self.mul(s, a), self.inverse(s))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _group_on(elements, mul, name, perms=None):
    """(G, index): the group on ``elements``, identity first, under ``mul``;
    element i is elements[i], printed as name(elements[i]), and index maps each
    element back to i."""
    index = {e: i for i, e in enumerate(elements)}
    table = [None] * len(index)
    generators, found = [], []
    # Only the rows of a greedily chosen generating set are products by mul;
    # every other row composes two known ones: row[s*a][b] = row[s][row[a][b]].
    for g, e in enumerate(elements):
        if table[g] is not None:
            continue
        table[g] = tuple([index[mul(e, b)] for b in elements])
        generators.append(table[g])
        found.append(g)
        for a in found:  # grows while it is scanned
            for row_s in generators:
                sa = row_s[a]
                if table[sa] is None:
                    table[sa] = tuple(map(row_s.__getitem__, table[a]))
                    found.append(sa)
    names = [name(e) for e in elements]
    return FiniteGroup(table, names=names, perms=perms, check=False), index


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on n points; identity first, remaining permutations in lex order."""
    if n < 1:
        raise ValueError("n >= 1 required")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > MAX_GROUP_ORDER:
            break
    _check_order(f"symmetric({n})", order)
    perms = sorted(itertools.permutations(range(n)))
    # lex order already puts the identity first
    return _group_on(perms, perm_compose, perm_cycle_notation, perms)[0]


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n >= 1 required")
    _check_order(f"cyclic({n})", n)
    names = ["id", "t"] + [f"t^{i}" for i in range(2, n)]
    return _group_on(range(n), lambda a, b: (a + b) % n, names.__getitem__)[0]


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n as permutations of n vertices."""
    if n < 1:
        raise ValueError("n >= 1 required")
    _check_order(f"dihedral({n})", 2 * n)
    if n <= 2:
        # degenerate cases where the vertex permutation action is unfaithful
        if n == 1:
            return cyclic_group(2)
        G, _, _, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
        return G
    # the rotations j -> j + i, then the reflections j -> -(j + i), mod n
    perms = [tuple(sign * (j + i) % n for j in range(n)) for sign in (1, -1) for i in range(n)]
    return _group_on(perms, perm_compose, perm_cycle_notation, perms)[0]


def direct_product(G1: FiniteGroup, G2: FiniteGroup):
    """Returns (G, embed1, embed2, project1, project2); pairs in lex order."""
    pairs = [(a, b) for a in range(G1.order) for b in range(G2.order)]
    G, index = _group_on(
        pairs,
        lambda x, y: (G1.mul(x[0], y[0]), G2.mul(x[1], y[1])),
        lambda p: f"({G1.name(p[0])},{G2.name(p[1])})",
    )
    embed1 = [index[(a, 0)] for a in range(G1.order)]
    embed2 = [index[(0, b)] for b in range(G2.order)]
    project1 = [a for (a, b) in pairs]
    project2 = [b for (a, b) in pairs]
    return G, embed1, embed2, project1, project2


@dataclass
class SemidirectProduct:
    group: FiniteGroup
    embed_n: list          # N element -> index in the product
    embed_k: list          # K element -> index in the product
    project_k: list        # product element -> K element
    normal_part: list      # product element -> N element


def semidirect_product(N: FiniteGroup, K: FiniteGroup, act) -> SemidirectProduct:
    """N x| K for a K-action on N by automorphisms; act(k, n) -> n.

    Verifies that each act(k, -) is an automorphism and that the assignment is
    a homomorphism K -> Aut(N).  Product: (n1,k1)(n2,k2) = (n1 * k1.n2, k1k2).
    """
    for k in range(K.order):
        if act(k, 0) != 0:
            raise GroupAxiomError(f"act({k},-) does not fix the identity")
        for a in range(N.order):
            for b in range(N.order):
                if act(k, N.mul(a, b)) != N.mul(act(k, a), act(k, b)):
                    raise GroupAxiomError(
                        f"act({k},-) is not a homomorphism at ({a},{b})"
                    )
    for k1 in range(K.order):
        for k2 in range(K.order):
            k12 = K.mul(k1, k2)
            for a in range(N.order):
                if act(k12, a) != act(k1, act(k2, a)):
                    raise GroupAxiomError(
                        f"action is not a homomorphism K -> Aut(N) at ({k1},{k2},{a})"
                    )
    pairs = [(a, b) for a in range(N.order) for b in range(K.order)]
    G, index = _group_on(
        pairs,
        lambda x, y: (N.mul(x[0], act(x[1], y[0])), K.mul(x[1], y[1])),
        lambda p: f"({N.name(p[0])};{K.name(p[1])})",
    )
    return SemidirectProduct(
        group=G,
        embed_n=[index[(a, 0)] for a in range(N.order)],
        embed_k=[index[(0, b)] for b in range(K.order)],
        project_k=[b for (a, b) in pairs],
        normal_part=[a for (a, b) in pairs],
    )


def power_group(L: FiniteGroup, k: int):
    """L^k as a FiniteGroup, plus the tuple list (for factor-permuting actions)."""
    tuples = list(itertools.product(range(L.order), repeat=k))
    G, index = _group_on(
        tuples,
        lambda a, b: tuple(map(L.mul, a, b)),
        lambda t: "(" + ",".join(map(L.name, t)) + ")",
    )
    return G, tuples, index


def group_make(spec) -> FiniteGroup:
    """Build a group from a text descriptor: symmetric(n), cyclic(n), dihedral(n)."""
    s = str(spec).strip().lower()
    for prefix, fn in (
        ("symmetric", symmetric_group),
        ("cyclic", cyclic_group),
        ("dihedral", dihedral_group),
    ):
        if s.startswith(prefix + "(") and s.endswith(")"):
            return fn(int(s[len(prefix) + 1 : -1]))
    raise ValueError(f"unknown group spec {spec!r}")


# ---------------------------------------------------------------------------


class Subgroup:
    def __init__(self, group: FiniteGroup, elements, check=True):
        self.group = group
        self.members = frozenset(elements)
        self.elements = tuple(sorted(self.members))
        if check:
            if 0 not in self.members:
                raise GroupAxiomError("subgroup must contain the identity")
            for a in self.elements:
                if group.inverse(a) not in self.members:
                    raise GroupAxiomError(f"not closed under inversion at {a}")
                for b in self.elements:
                    if group.mul(a, b) not in self.members:
                        raise GroupAxiomError(f"not closed at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.group is self.group
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((id(self.group), self.elements))

    @functools.cached_property
    def _greedy_generators(self) -> tuple:
        gens: list[int] = []
        current = {0}
        for a in self.elements:
            if a not in current:
                gens.append(a)
                current = subgroup_from_generators(self.group, gens).members
                if len(current) == self.order:
                    break
        return tuple(gens)

    def generators(self) -> list:
        """A small generating set, found greedily once per subgroup; a fresh list."""
        return list(self._greedy_generators)

    def as_group(self):
        """This subgroup as a standalone FiniteGroup plus the embedding list."""
        G, elems = self.group, list(self.elements)  # sorted: the identity 0 first
        perms = None if G.perms is None else [G.perms[e] for e in elems]
        return _group_on(elems, G.mul, G.name, perms)[0], elems

    def __repr__(self):
        return f"Subgroup(order={self.order})"


def subgroup_from_generators(G: FiniteGroup, gens) -> Subgroup:
    """The closure of {e} under right multiplication by ``gens``, breadth
    first: each element found is multiplied by each generator once."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise IndexError(f"generator index {g} out of range")
    found = [0]
    seen = {0}
    for a in found:  # grows while it is scanned
        for g in gens:
            x = G.mul(a, g)
            if x not in seen:
                seen.add(x)
                found.append(x)
    return Subgroup(G, seen, check=False)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [0], check=False)


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order), check=False)


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return all(
        G.conjugate(s, h) in H.members for s in range(G.order) for h in H.elements
    )


def conjugate_subgroup(G: FiniteGroup, H: Subgroup, s: int) -> Subgroup:
    return Subgroup(G, [G.conjugate(s, h) for h in H.elements], check=False)


def left_cosets(G: FiniteGroup, H: Subgroup):
    """(cosets, coset_of): the left cosets aH as sorted tuples, and the index of
    the coset of each element of G.

    Scanning a = 0, 1, ... meets each coset first at its least element, so the
    cosets come in order of their least element, H first.
    """
    coset_of = [None] * G.order
    cosets = []
    for a in range(G.order):
        if coset_of[a] is None:
            members = tuple(sorted(G.mul(a, h) for h in H.elements))
            for m in members:
                coset_of[m] = len(cosets)
            cosets.append(members)
    return cosets, coset_of


def quotient_group(G: FiniteGroup, N: Subgroup):
    """(G/N, projection list).  Requires N normal; the coset of g is
    proj[g], and proj.index(q) is the least element of coset q."""
    if not is_normal(G, N):
        raise GroupAxiomError("subgroup is not normal")
    cosets, coset_of = left_cosets(G, N)
    reps = [c[0] for c in cosets]
    Q, _ = _group_on(reps, lambda a, b: reps[coset_of[G.mul(a, b)]],
                     lambda r: f"[{G.name(r)}]")
    return Q, coset_of


# ---------------------------------------------------------------------------


@dataclass
class DoubleCoset:
    rep_coset: int          # coset index of the orbit representative
    rep_element: int        # canonical group element representing HgH
    coset_indices: tuple    # all left-coset indices in the H-orbit
    stabilizer: Subgroup    # H \cap gHg^{-1} for g = rep_element
    transversal: dict = field(default_factory=dict)  # coset -> h with h.rep_coset = coset


class CosetSpace:
    """Left cosets of H in G with the H-action and double-coset orbits."""

    def __init__(self, G: FiniteGroup, H: Subgroup):
        if H.group is not G:
            raise ValueError("subgroup does not belong to the given group")
        self.G = G
        self.H = H
        self.cosets, self.coset_of = left_cosets(G, H)
        self.reps = [c[0] for c in self.cosets]
        self.n = len(self.cosets)
        # H-action on coset indices
        self.h_action = {
            h: [self.coset_of[G.mul(h, self.reps[ci])] for ci in range(self.n)]
            for h in H.elements
        }
        self.double_cosets = self._compute_orbits()
        self.orbit_of_coset = [None] * self.n
        for oi, dc in enumerate(self.double_cosets):
            for ci in dc.coset_indices:
                self.orbit_of_coset[ci] = oi
        self._skeleton = None

    def _compute_orbits(self):
        """The H-orbits on cosets, in one scan of H per orbit.

        Cosets come in order of their least element, so the first coset not
        yet seen represents its orbit, and the orbits come out in order of
        least element.  Scanning h over H (identity first) gives the members,
        the transversal (the first h with h.rep_coset = member) and the
        stabilizer.
        """
        G, H = self.G, self.H
        seen = [False] * self.n
        orbits = []
        for ci in range(self.n):
            if seen[ci]:
                continue
            transversal = {}
            stab = []
            for h in H.elements:
                cj = self.h_action[h][ci]
                transversal.setdefault(cj, h)
                seen[cj] = True
                if cj == ci:
                    stab.append(h)
            orbits.append(
                DoubleCoset(
                    rep_coset=ci,
                    rep_element=self.reps[ci],
                    coset_indices=tuple(sorted(transversal)),
                    stabilizer=Subgroup(G, stab, check=False),
                    transversal=transversal,
                )
            )
        return orbits

    def product_skeleton(self):
        """Convolution as group data, built on first use: (oi, oj) -> [(o, [(h, m)])],
        the target orbits o increasing.

        For g the representative of target orbit o, each coset kH of orbit oi
        with k^{-1}gH in orbit oj gives h, the oi-transversal element at kH,
        and m = k t, t the oj-transversal element at k^{-1}gH.  Values v at oi
        and w at oj then convolve to sum alpha_h(v) alpha_m(w) at gH.
        """
        if self._skeleton is None:
            G, orbits = self.G, self.double_cosets
            by_pair: dict = {}
            for o, target in enumerate(orbits):
                for ci in range(self.n):
                    k = self.reps[ci]
                    cj = self.coset_of[G.mul(G.inverse(k), target.rep_element)]
                    oi, oj = self.orbit_of_coset[ci], self.orbit_of_coset[cj]
                    m = G.mul(k, orbits[oj].transversal[cj])
                    terms = by_pair.setdefault((oi, oj), {}).setdefault(o, [])
                    terms.append((orbits[oi].transversal[ci], m))
            self._skeleton = {key: list(by_o.items()) for key, by_o in by_pair.items()}
        return self._skeleton

    def __repr__(self):
        return (
            f"CosetSpace(|G|={self.G.order}, |H|={self.H.order}, "
            f"cosets={self.n}, double_cosets={len(self.double_cosets)})"
        )
