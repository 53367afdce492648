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

from .algebras import (
    FunctionAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    PolynomialAlgebra,
    action_make,
    scalar_algebra,
)
from .groups import full_subgroup, group_make, subgroup_from_generators, trivial_subgroup
from .hecke import (
    HeckeContext,
    HeckeElement,
    StabilizerInvarianceError,
    structure_constant_blocks,
)
from .scalars import field_make
# by name, so cli.SUITES is verify.SUITES: perfbench/job.py wraps the suites in place there
from .verify import SUITES, SuiteRun


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
    given = set()
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
        if key in given:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        given.add(key)
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
