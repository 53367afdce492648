"""Command-line front end: dims, mul, sc (structure constants), verify.

A job configuration is a line-oriented key = value document:

    field = rationals              # or prime_field(p)
    group = symmetric(3)           # symmetric(n) | cyclic(n) | dihedral(n)
    subgroup = (1 2)               # generator list, comma separated; or trivial | full
    algebra = polynomial(3)        # scalar | functions | group(self) | group(<spec>)
                                   # | matrix(n) | polynomial(nvars)
    action = permute_variables     # trivial | left_translation | conjugation
    degree_cap = 2                 # graded contexts only

Hecke elements are written as a parenthesised list of per-double-coset values
in canonical orbit order, e.g. ``(2; 1)`` or ``(x3; x1 + -1*x2)``; values use
the per-family label syntax (monomials ``x1^2*x3``, group elements ``[(1 2)]``,
indicator functions ``delta[(1 2)]``, matrix units ``E[1,2]``).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import re
import sys
from dataclasses import dataclass, fields

from . import linalg
from .algebras import (
    FunctionAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    PolynomialAlgebra,
    action_make,
    left_translation_action,
    scalar_algebra,
    trivial_action,
)
from .groups import (
    cyclic_group,
    full_subgroup,
    group_make,
    power_group,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
)
from .hecke import (
    HeckeContext,
    HeckeElement,
    StabilizerInvarianceError,
    classical_context,
    structure_constant_blocks,
)
from .scalars import NotAUnitError, field_make
from .skewgroup import SkewGroupAlgebra, corner_basis, hecke_idempotent, subgroup_sum
from .isomorphisms import (
    CocycleConditionError,
    StoneModel,
    cocycle_transport,
    conjugate_transport,
    corner_lift,
    from_corner,
    from_matrix,
    intermediate_embed,
    matrix_invariance_witness,
    product_transport,
    quotient_transport,
    semidirect_transport,
    opposite_transport,
    to_corner,
    to_matrix,
    verify_algebra_map,
)


class ConfigError(ValueError):
    pass


# Largest algebra basis built from a configuration (matrix(64) fits): an action
# keeps a label table of |G|.|labels| positions, |G| up to
# groups.MAX_GROUP_ORDER, and its verification visits label pairs.  The other
# families are bounded by the group order cap already.
MAX_BASIS_SIZE = 4096


@dataclass
class JobConfig:
    field: str = "rationals"
    group: str = "symmetric(3)"
    subgroup: str = "(1 2)"
    algebra: str = "scalar"
    action: str = "trivial"
    degree_cap: int = 2

    def canonical(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))


def parse_config(text: str) -> JobConfig:
    cfg = JobConfig()
    known = {f.name for f in fields(JobConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:  # each value takes the type of its field's default: str or int
            setattr(cfg, key, type(getattr(cfg, key))(value))
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be an integer")
    return cfg


def _basis_size(alg: str, degree_cap: int) -> int:
    """The number of basis labels of a matrix(n) or polynomial(nvars) spec,
    from the spec alone: n^2 matrix units, or the monomials up to degree
    2 * degree_cap, a context's enumeration cap.  0 for any other family and
    for a polynomial spec its constructor refuses."""
    if alg.startswith("matrix(") and alg.endswith(")"):
        return int(alg[7:-1]) ** 2
    if alg.startswith("polynomial(") and alg.endswith(")"):
        nvars, top = int(alg[11:-1]), 2 * degree_cap
        if nvars < 1 or top < 0:
            return 0
        # C(nvars + top, top), in at most 64 factors: exact unless both nvars
        # and top pass 64, where C(nvars + top, 64) is a lower bound far past
        # any cap
        return math.comb(nvars + top, min(nvars, top, 64))
    return 0


def build_context(cfg: JobConfig) -> HeckeContext:
    alg = cfg.algebra.strip().lower()
    if _basis_size(alg, cfg.degree_cap) > MAX_BASIS_SIZE:
        raise ConfigError(f"algebra {cfg.algebra.strip()} has a basis of over "
                          f"{MAX_BASIS_SIZE} labels; larger algebras are not built")
    field = field_make(cfg.field)
    G = group_make(cfg.group)
    sub = cfg.subgroup.strip().lower()
    if sub == "trivial":
        H = trivial_subgroup(G)
    elif sub == "full":
        H = full_subgroup(G)
    else:
        gens = [G.element_by_name(t) for t in _split_top(cfg.subgroup, ",") if t]
        H = subgroup_from_generators(G, gens)
    if alg == "scalar":
        A = scalar_algebra(field)
    elif alg == "functions":
        A = FunctionAlgebra(field, G)
    elif alg.startswith("group(") and alg.endswith(")"):
        inner = alg[6:-1].strip()
        K = G if inner == "self" else group_make(inner)
        A = GroupAlgebra(field, K)
    elif alg.startswith("matrix(") and alg.endswith(")"):
        A = MatrixAlgebra(field, int(alg[7:-1]))
    elif alg.startswith("polynomial(") and alg.endswith(")"):
        nvars = int(alg[11:-1])
        # enumeration cap must cover products of two capped module elements
        A = PolynomialAlgebra(field, nvars, 2 * cfg.degree_cap)
    else:
        raise ConfigError(f"unknown algebra spec {cfg.algebra!r}")
    try:
        action = action_make(cfg.action, G, A)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return HeckeContext(G, H, A, action, degree_cap=cfg.degree_cap)


# ---------------------------------------------------------------------------
# element literals


def _split_top(s: str, seps: str):
    """The parts of s between the characters of ``seps`` at top level, each
    stripped: (...) and [...] are opaque, so a separator splits only where the
    brackets before it balance.  Empty parts are kept; the callers refuse them.

    One ``str.split`` at every separator (each mapped to the first), then a
    part ends at the first separator after which its brackets balance; parts
    are sliced from s, so a separator inside brackets is kept as written.
    ``str`` methods compile nothing; a first ``re.split`` pattern would be
    compiled in every process that builds a context."""
    flat = s
    for sep in seps[1:]:
        flat = flat.replace(sep, seps[0])
    parts, start, end, depth = [], 0, 0, 0
    for piece in flat.split(seps[0]):
        end += len(piece)  # the separator after piece, or len(s)
        depth += _depth(piece)
        if not depth:
            parts.append(s[start:end].strip())
            start = end + 1
        end += 1
    if depth:  # unbalanced to the end: the rest is one part
        parts.append(s[start:].strip())
    return parts


def _depth(s: str) -> int:
    """Opening minus closing brackets of s, (...) and [...] alike."""
    return s.count("(") + s.count("[") - s.count(")") - s.count("]")


_COEFF_RE = re.compile(r"^-?\d+(/\d+)?")


def parse_algebra_element(A, s: str):
    """The element of A written as terms ``c*label`` joined by ``+``: each term
    a run of ``-`` signs, an optional coefficient ``a`` or ``a/b``, then a
    label, ``*`` between the two; a bare coefficient (or ``1``) is a multiple
    of the unit.  An empty term, a ``*`` with no label after it and a term of
    signs alone are refused."""
    field = A.field
    s = s.strip()
    if s == "0":
        return A.zero()
    terms = []
    for term in _split_top(s, "+"):
        if not term:
            raise ValueError(f"empty term in the value {s!r}")
        negate = False
        rest = term
        while rest.startswith("-"):
            negate = not negate
            rest = rest[1:].strip()
        m = _COEFF_RE.match(rest)
        c = field.one
        if m:
            c = field.parse(m.group(0))
            rest = rest[m.end():].strip()
            if rest.startswith("*"):
                rest = rest[1:].strip()
                if not rest:
                    raise ValueError(f"no label after '*' in the term {term!r}")
        elif not rest:
            raise ValueError(f"the term {term!r} has no coefficient or label")
        b = A.one() if rest in ("", "1") else A.basis_element(A.parse_label(rest))
        terms.append((b, field.neg(c) if negate else c))
    return A.combination(terms)


def parse_hecke_element(ctx: HeckeContext, s: str) -> HeckeElement:
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("Hecke element literal must be parenthesised")
    parts = _split_top(s[1:-1], ";,")
    for i, p in enumerate(parts):
        if not p:
            raise ValueError(f"double-coset value {i + 1} of {len(parts)} is empty")
    if len(parts) != len(ctx.orbits):
        raise ValueError(
            f"expected {len(ctx.orbits)} double-coset values, got {len(parts)}"
        )
    values = {i: parse_algebra_element(ctx.A, p) for i, p in enumerate(parts)}
    return ctx.from_values(values)


def format_hecke_element(phi: HeckeElement) -> str:
    parts = []
    for oi in range(len(phi.ctx.orbits)):
        parts.append(str(phi.value(oi)))
    return "(" + "; ".join(parts) + ")"


# ---------------------------------------------------------------------------
# subcommands


def cmd_dims(ctx: HeckeContext, write):
    write(f"|G| = {ctx.G.order}")
    write(f"|H| = {ctx.H.order}")
    write(f"[G:H] = {ctx.cosets.n}")
    write(f"double cosets = {len(ctx.orbits)}")
    for oi, orbit in enumerate(ctx.orbits):
        rep = orbit.rep_element
        write(
            f"orbit {oi}: rep {ctx.G.name(rep)}, size {len(orbit.coset_indices)}, "
            f"stabilizer order {orbit.stabilizer.order}"
        )
    if ctx.graded:
        for d in range(ctx.degree_cap + 1):
            per = [len(ctx.orbit_space(oi, d).basis) for oi in range(len(ctx.orbits))]
            write(
                f"degree {d}: dim A_{d} = {len(ctx.A.enumerate_degree(d))}, "
                f"invariants per orbit = {per}, dim = {sum(per)}"
            )
        total = sum(ctx.dimension(d) for d in range(ctx.degree_cap + 1))
        write(f"dim (degrees 0..{ctx.degree_cap}) = {total}")
    else:
        write(f"dim A = {ctx.A.dim}")
        per = [len(ctx.orbit_space(oi).basis) for oi in range(len(ctx.orbits))]
        write(f"invariants per orbit = {per}")
        write(f"dim = {ctx.dimension()}")
    return 0


@contextlib.contextmanager
def _refused_product_is_a_defect():
    """A product of stabilizer-fixed values under a verified action is fixed,
    so its refusal is a defect (exit 3), not bad input (exit 2)."""
    try:
        yield
    except StabilizerInvarianceError as exc:
        raise ArithmeticError(f"product refused: {exc} (bug: the action was verified)") from exc


def cmd_mul(ctx: HeckeContext, lit1: str, lit2: str, write):
    phi = parse_hecke_element(ctx, lit1)
    psi = parse_hecke_element(ctx, lit2)
    with _refused_product_is_a_defect():
        product = phi.convolve(psi)
    write(format_hecke_element(product))
    return 0


def cmd_sc(ctx: HeckeContext, write):
    """The basis lines, then one string per left block of the table: its rows
    joined by newlines (the writer ends every string with one), so neither a
    row list nor a string per row is kept."""
    basis, blocks = structure_constant_blocks(ctx)
    for i, (oi, v, d) in enumerate(basis):
        rep = ctx.orbits[oi].rep_element
        deg = f", degree {d}" if ctx.graded else ""
        write(f"# {i}: orbit {oi} (rep {ctx.G.name(rep)}){deg}, value {v}")
    fmt = ctx.field.format
    with _refused_product_is_a_defect():
        for rows in blocks:
            if rows:
                write("\n".join([f"{i}\t{j}\t{k}\t{fmt(c)}" for i, j, k, c in rows]))
    return 0


# ---------------------------------------------------------------------------
# verification suites


class SuiteRun:
    def __init__(self, write):
        self.write = write
        self.failed = 0
        self.executed = 0

    def record(self, name, ok, detail="", witnesses=()):
        """One line for the check, then one per (failed check, witness) pair."""
        self.executed += 1
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failed += 1
        suffix = f" ({detail})" if detail else ""
        self.write(f"{name}: {status}{suffix}")
        for failed, witness in witnesses:
            self.write(f"  FAIL {failed}: witness {witness}")

    def skip(self, name, reason):
        self.write(f"{name}: SKIP ({reason})")


# random pairs drawn by the matrix, corner, stone and opposite product checks
PAIRS = 20


def _random_elements(ctx, rng, count):
    return [ctx.random_element(rng) for _ in range(count)]


def _record_random_pairs(run, name, ctx, rng, holds):
    """Record whether holds(x, y) on PAIRS random pairs; the draws stop at the
    first failing pair, whose index is the witness."""
    bad = next((i for i in range(PAIRS) if not holds(*_random_elements(ctx, rng, 2))),
               None)
    run.record(name, bad is None,
               f"{PAIRS} pairs" if bad is None else f"witness pair {bad}")


def suite_assoc(run: SuiteRun, ctx, rng):
    bad = None
    for _ in range(100):
        x, y, z = _random_elements(ctx, rng, 3)
        if (x * y) * z != x * (y * z):
            bad = (x, y, z)
            break
    run.record("assoc.random_triples", bad is None,
               "100 triples" if bad is None else f"witness {bad}")
    one = ctx.identity()
    x = ctx.random_element(rng)
    run.record("assoc.unit", one * x == x and x * one == x)


def suite_decomp(run: SuiteRun, ctx, rng):
    degree = min(1, ctx.degree_cap) if ctx.graded else None
    basis = ctx.module_basis(degree)
    run.record("decomp.basis_nonempty", len(basis) > 0, f"dim {len(basis)}")
    # bijection: coordinates of a random element round-trip
    x = ctx.random_element(rng, degree=degree)
    coords = ctx.module_coordinates(x, degree=degree)
    y = ctx.combination((HeckeElement(ctx, dict([basis[t]])), c) for t, c in coords.items())
    run.record("decomp.bijection_roundtrip", y == x)
    # bimodule law: delta_{H,a} * phi * delta_{H,a'} has values a v alpha_g a'
    a = _random_invariant(ctx, rng)
    ap = _random_invariant(ctx, rng)
    da, dap = ctx.embed_invariant(a), ctx.embed_invariant(ap)

    def holds(oi, v):
        lhs = da.convolve(HeckeElement(ctx, {oi: v})).convolve(dap)
        expected = a * v * ctx.action.apply(ctx.orbits[oi].rep_element, ap)
        return lhs.values == ({oi: expected} if not expected.is_zero else {})

    bad = next((oi for oi, v in basis if not holds(oi, v)), None)
    run.record("decomp.bimodule_law", bad is None,
               "" if bad is None else f"witness orbit {bad}")


def _random_invariant(ctx, rng):
    """A random element of A^H: orbit 0 is the coset H, whose stabilizer is H."""
    f = ctx.field
    return ctx.A.combination((b, f.from_int(rng.randint(-2, 2)))
                             for d in ctx.A.degrees(ctx.degree_cap)
                             for b in ctx.orbit_space(0, d).basis)


def suite_matrix(run: SuiteRun, ctx, rng):
    xs = _random_elements(ctx, rng, 5)
    images = [to_matrix(x) for x in xs]
    witness = next(filter(None, map(matrix_invariance_witness, images)), None)
    # from_matrix inverts to_matrix on G-invariant matrices only
    if witness is None:
        run.record("matrix.roundtrip", all(from_matrix(m) == x for m, x in zip(images, xs)))
        run.record("matrix.image_invariant", True)
    else:
        run.record("matrix.roundtrip", False, "image not G-invariant")
        run.record("matrix.image_invariant", False, f"witness {witness}")
    _record_random_pairs(run, "matrix.multiplicativity", ctx, rng,
                         lambda x, y: to_matrix(x * y) == to_matrix(x) * to_matrix(y))
    run.record("matrix.unit", to_matrix(ctx.identity()) == ctx.matrix_model.one())
    if not ctx.graded:
        vecs = [to_matrix(b).coeffs for b in ctx.basis_hecke_elements()]
        r = linalg.rank(ctx.field, vecs)
        run.record("matrix.injective", r == ctx.dimension(), f"rank {r}")


def suite_corner(run: SuiteRun, ctx, rng):
    if ctx.graded:
        run.skip("corner", "coefficient algebra is infinite-dimensional")
        return
    sga = SkewGroupAlgebra(ctx.A, ctx.G, ctx.action)
    try:
        e = hecke_idempotent(sga, ctx.H)
    except NotAUnitError as exc:
        run.skip("corner", f"unavailable: {exc}")
        return
    run.record("corner.idempotent", e * e == e)
    xs = _random_elements(ctx, rng, 5)
    images = [to_corner(ctx, sga, x) for x in xs]
    run.record("corner.roundtrip",
               all(from_corner(ctx, sga, c) == x for x, c in zip(xs, images)))
    # The dense products run on the integral T = |H| to_corner and E = |H| e:
    # with |H| a unit, E T E = |H|^2 T and T(xy) |H| = T(x) T(y) are the
    # corner theorem's identities, not weaker ones (see ``corner_lift``).
    E = subgroup_sum(sga, ctx.H)
    order = ctx.field.from_int(ctx.H.order)
    run.record("corner.image_in_corner",
               all(E * t * E == t.scale(ctx.field.mul(order, order))
                   for t in (corner_lift(ctx, sga, x) for x in xs)))
    _record_random_pairs(run, "corner.multiplicativity", ctx, rng, lambda x, y: (
        corner_lift(ctx, sga, x * y).scale(order)
        == corner_lift(ctx, sga, x) * corner_lift(ctx, sga, y)))
    run.record("corner.unit", to_corner(ctx, sga, ctx.identity()) == e)
    cb = corner_basis(sga, e)
    run.record("corner.dimension", len(cb) == ctx.dimension(),
               f"corner dim {len(cb)}, module dim {ctx.dimension()}")


def suite_stone(run: SuiteRun, ctx, rng):
    if not StoneModel.applies(ctx):
        run.skip("stone", "requires the function algebra with left translation")
        return
    sm = StoneModel(ctx)
    n = sm.n
    run.record("stone.size", n == ctx.cosets.n, f"n = {n} = [G:H]")
    _record_random_pairs(run, "stone.multiplicativity", ctx, rng,
                         lambda x, y: sm.apply(x * y) == sm.apply(x) * sm.apply(y))
    vecs = [sm.apply(b).coeffs for b in ctx.basis_hecke_elements()]
    r = linalg.rank(ctx.field, vecs)
    run.record("stone.bijective", r == n * n and ctx.dimension() == n * n,
               f"rank {r}, dim {ctx.dimension()}, n^2 = {n * n}")
    # matrix-unit relations through preimages: B_ij B_kl = delta_jk B_il
    B = {(i, j): sm.preimage(sm.matrices.basis_element((i, j)))
         for i in range(n) for j in range(n)}
    ok = all(B[(i, j)] * B[(k, l)] == (B[(i, l)] if j == k else ctx.zero())
             for (i, j) in B for (k, l) in B)
    run.record("stone.matrix_units", ok, f"{n ** 4} relations")
    if ctx.G.order == 6 and ctx.H.order == 2:
        run.record(
            "stone.rank_discrepancy_flag", n == 3,
            "computed target is M_3 (|G/H| = 3); a rank-2 / M_2 description "
            "is inconsistent and is overridden",
        )


def _record_map(run, check, detail, basis, forward, one, target, rng, onto=True):
    """Record whether ``forward`` is an injective algebra map from the span of
    ``basis`` (unit ``one``) into the Hecke context ``target``, onto it unless
    ``onto`` is False; multiplicativity is checked on at most 60 basis pairs.
    A failed check is followed by one line per witness."""
    rep = verify_algebra_map(
        check, basis, forward, one, target.identity(), target.field,
        vectorize=target.module_coordinates,
        target_dim=target.dimension() if onto else None, rng=rng, max_pairs=60,
    )
    run.record(check, rep.ok, detail, rep.failures)


def suite_group_ops(run: SuiteRun, ctx, rng):
    f = ctx.field
    # conjugation on the configured context (finite coefficients only)
    if not ctx.graded and ctx.H.order < ctx.G.order:
        s = next(g for g in range(ctx.G.order) if g not in ctx.H)
        tr = conjugate_transport(ctx, s)
        _record_map(run, "group_ops.conjugate", f"s = {ctx.G.name(s)}",
                    ctx.basis_hecke_elements(), tr.forward, ctx.identity(), tr.target, rng)
    else:
        run.skip("group_ops.conjugate", "needs finite coefficients and H < G")
    # the remaining transports run on fixed small fixtures: S3 acting on R^S3
    # by left translation, with H3 = <(1 2)> and N3 = <(1 2 3)> = A3 = C3
    G3 = symmetric_group(3)
    H3 = subgroup_from_generators(G3, [G3.element_by_name("(1 2)")])
    N3 = subgroup_from_generators(G3, [G3.element_by_name("(1 2 3)")])
    A3 = FunctionAlgebra(f, G3)
    left = left_translation_action(G3, A3)
    ctx3 = HeckeContext(G3, H3, A3, left, verify_action=False)
    # quotient by the normal subgroup N3, with H = N3
    ctxq = HeckeContext(G3, N3, A3, left, verify_action=False)
    trq = quotient_transport(ctxq, N3)
    _record_map(run, "group_ops.quotient", "(S3, A3) / A3",
                ctxq.basis_hecke_elements(), trq.forward, ctxq.identity(), trq.target, rng)
    # product with (C2, 1, R[C2])
    C2 = cyclic_group(2)
    A2 = GroupAlgebra(f, C2)
    ctx2 = HeckeContext(C2, trivial_subgroup(C2), A2, trivial_action(C2, A2),
                        verify_action=False)
    trp = product_transport(ctx3, ctx2)
    BT = trp.source
    basis = [BT.basis_element(l) for l in BT.labels()]
    _record_map(run, "group_ops.product", "(S3,S2) x (C2,1)",
                basis, trp.forward, BT.one(), trp.target, rng)
    # intermediate: 1 <= C3 <= S3 (extend by zero)
    ctxt = HeckeContext(G3, trivial_subgroup(G3), A3, left, verify_action=False)
    tre = intermediate_embed(ctxt, N3)
    _record_map(run, "group_ops.intermediate", "C3 <= S3, injective",
                tre.source.basis_hecke_elements(), tre.forward, tre.source.identity(),
                ctxt, rng, onto=False)
    # semidirect: (Z/2)^3 x| S3 with H = S2
    Ncube, tuples, index = power_group(cyclic_group(2), 3)

    def act(k, n):
        p = G3.perms[k]
        t = tuples[n]
        out = [0, 0, 0]
        for i in range(3):
            out[p[i]] = t[i]
        return index[tuple(out)]

    trs = semidirect_transport(f, Ncube, G3, act, H3)
    _record_map(run, "group_ops.semidirect",
                f"dim {trs.info['dim']} = {trs.info['classical_dim']}",
                trs.source.basis_hecke_elements(), trs.forward, trs.source.identity(),
                trs.target, rng)


def suite_cocycle(run: SuiteRun, ctx, rng):
    f = ctx.field
    # inner-action fixture: trivial action on R[S3], H = 1, chi(g) = [g]
    G3 = symmetric_group(3)
    A = GroupAlgebra(f, G3)
    ctxc = HeckeContext(G3, trivial_subgroup(G3), A, trivial_action(G3, A),
                        verify_action=False)
    chi = {g: A.basis_element(g) for g in range(G3.order)}
    try:
        tr = cocycle_transport(ctxc, chi)
        _record_map(run, "cocycle.inner_fixture", "trivial action perturbed to conjugation",
                    ctxc.basis_hecke_elements(), tr.forward, ctxc.identity(), tr.target, rng)
    except CocycleConditionError as exc:
        run.record("cocycle.inner_fixture", False, "cocycle conditions violated",
                   exc.failures)
    # violation of triviality on H must be detected
    H2 = subgroup_from_generators(G3, [G3.element_by_name("(1 2)")])
    ctxv = HeckeContext(G3, H2, A, trivial_action(G3, A), verify_action=False)
    try:
        cocycle_transport(ctxv, chi)
        run.record("cocycle.violation_detected", False, "no error raised")
    except CocycleConditionError as exc:
        witnessed = any(c == "trivial_on_H" for c, _ in exc.failures)
        run.record("cocycle.violation_detected", witnessed,
                   f"witness {exc.failures}")


def suite_opposite(run: SuiteRun, ctx, rng):
    tr = opposite_transport(ctx)
    _record_random_pairs(run, "opposite.anti_multiplicative", ctx, rng,
                         lambda x, y: tr.forward(x * y) == tr.forward(y) * tr.forward(x))
    run.record("opposite.unit", tr.forward(ctx.identity()) == tr.target.identity())
    xs = _random_elements(ctx, rng, 5)
    run.record("opposite.roundtrip",
               all(tr.backward(tr.forward(x)) == x for x in xs))


def suite_graded(run: SuiteRun, ctx, rng):
    if not ctx.graded:
        run.skip("graded", "coefficient algebra is not graded")
        return
    bad = _degree_failure(ctx)
    witnesses = () if bad is None else [("graded.degree_additive", bad)]
    run.record("graded.degree_additive", bad is None, f"degrees 0..{ctx.degree_cap}",
               witnesses)


def _degree_failure(ctx):
    """The first product of module basis elements of degrees d1, d2 (d1 + d2 at
    most the degree cap) that is nonzero and not homogeneous of degree d1 + d2,
    named by its orbits, d1, d2 and the degree found (None if inhomogeneous);
    None if every product is."""
    cap = ctx.degree_cap
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            for oi, v in ctx.module_basis(d1):
                for oj, w in ctx.module_basis(d2):
                    p = HeckeElement(ctx, {oi: v}) * HeckeElement(ctx, {oj: w})
                    if not p.is_zero and (found := p.homogeneous_degree()) != d1 + d2:
                        return (f"orbits ({oi}, {oj}), degrees ({d1}, {d2}), "
                                f"product degree {found}")
    return None


def suite_s3(run: SuiteRun, ctx, rng):
    G = ctx.G
    if G.order != 6 or G.perms is None or ctx.H.order != 2 \
            or G.element_by_name("(1 2)") not in ctx.H:
        run.skip("s3_fixtures", "requires (S3, S2 = <(1 2)>)")
        return
    t12 = G.element_by_name("(1 2)")
    t23 = G.element_by_name("(2 3)")
    t13 = G.element_by_name("(1 3)")
    act = ctx.action
    ok = True
    for _ in range(30):
        a, ap = _random_invariant(ctx, rng), _random_invariant(ctx, rng)
        b = _random_free(ctx, rng)
        bp = _random_free(ctx, rng)
        phi = ctx.from_values({0: a, 1: b})
        psi = ctx.from_values({0: ap, 1: bp})
        prod = phi.convolve(psi)
        t = b * act.apply(t23, bp)
        first = a * ap + t + act.apply(t12, t)
        second = a * bp + b * act.apply(t23, ap) \
            + act.apply(t12, b) * act.apply(t13, bp)
        if prod.value(0) != first or prod.value(1) != second:
            ok = False
            break
    run.record("s3_fixtures.product_formula", ok, "30 random pairs")
    # classical specialization: (0,1)*(0,1) = (2,1)
    cl = classical_context(ctx.field, G, ctx.H)
    one = cl.A.one()
    t = cl.from_values({1: one})
    sq = t.convolve(t)
    ok = sq.value(0) == one.scale(ctx.field.from_int(2)) and sq.value(1) == one
    run.record("s3_fixtures.classical_square", ok, "(0,1)^2 = (2,1)")


def _random_free(ctx, rng):
    return ctx.A.element({l: ctx.field.from_int(rng.randint(-2, 2))
                          for l in ctx.A.labels_up_to(ctx.degree_cap)})


SUITES = {
    "assoc": suite_assoc,
    "decomp": suite_decomp,
    "matrix": suite_matrix,
    "corner": suite_corner,
    "stone": suite_stone,
    "group_ops": suite_group_ops,
    "cocycle": suite_cocycle,
    "opposite": suite_opposite,
    "graded": suite_graded,
    "s3_fixtures": suite_s3,
}


def cmd_verify(ctx: HeckeContext, cfg: JobConfig, suite: str, seed: int, write):
    write("verify report")
    write(f"seed = {seed}")
    write("config:")
    for line in cfg.canonical().rstrip().splitlines():
        write("  " + line)
    names = list(SUITES) if suite == "all" else [suite]
    run = SuiteRun(write)
    for name in names:
        rng = random.Random(seed)
        SUITES[name](run, ctx, rng)
    write(f"checks executed = {run.executed}, failed = {run.failed}")
    # a run that executed no check verified nothing, whatever its suites skipped
    if run.executed == 0:
        print("error: no verification check executed", file=sys.stderr)
        return 2
    return 0 if run.failed == 0 else 1


# ---------------------------------------------------------------------------


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to a job configuration file")
    common.add_argument("--seed", type=int)
    common.add_argument("--degree-cap", type=int)
    common.add_argument("--out", help="write output to this path instead of stdout")
    parser = argparse.ArgumentParser(
        prog="skewhecke",
        description="Exact skew Hecke algebra computations and verification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dims", help="print dimension data", parents=[common])
    p_mul = sub.add_parser("mul", help="convolve two Hecke element literals",
                           parents=[common])
    p_mul.add_argument("phi")
    p_mul.add_argument("psi")
    sub.add_parser("sc", help="emit structure constants (tab-separated)",
                   parents=[common])
    p_ver = sub.add_parser("verify", help="run a verification suite",
                           parents=[common])
    p_ver.add_argument("suite", choices=["all"] + list(SUITES))
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    seed = getattr(args, "seed", 0)
    degree_cap = getattr(args, "degree_cap", None)
    out_path = getattr(args, "out", None)

    lines = []

    def write(s):
        lines.append(s)

    try:
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = JobConfig()
        if degree_cap is not None:
            cfg.degree_cap = degree_cap
        ctx = build_context(cfg)
        if args.command == "dims":
            code = cmd_dims(ctx, write)
        elif args.command == "mul":
            code = cmd_mul(ctx, args.phi, args.psi, write)
        elif args.command == "sc":
            code = cmd_sc(ctx, write)
        else:
            code = cmd_verify(ctx, cfg, args.suite, seed, write)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                _write_lines(fh, lines)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect of the program, not a failed check (1) or bad input (2)
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3
    if not out_path:
        try:
            _write_lines(sys.stdout, lines)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk
            print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
            # the interpreter flushes stdout again at exit; let that land nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 2
    return code


def _write_lines(stream, lines):
    """Each line and its newline, one at a time: the output is never joined
    into a second copy of itself."""
    stream.writelines(f"{line}\n" for line in lines)


if __name__ == "__main__":
    sys.exit(main())
