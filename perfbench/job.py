"""Run one ``skewhecke`` CLI job in this interpreter and record what it cost.

Usage: python3 perfbench/job.py <time|trace|count> <stats.json> <cli args...>

The job is one ``skewhecke.cli.main(argv)`` call against the package under
``src/`` of the checkout.  Its exit status is the CLI's.  Before the call the
runner wraps functions of the package from the outside (the package itself
carries no instrumentation):

- ``time``:  only ``cli.build_context`` and the ``cli.cmd_*`` subcommands, for
  the end-to-end ``setup_s`` and ``job_s``;
- ``trace``: one span per call at every layer boundary in ``SPANS``, aggregated
  in memory by (name, parent name); self time is computed with a stack;
- ``count``: calls of the scalar field operations and hits of the two
  label-level caches.  These wrappers sit on the innermost loops, so they run
  in a pass of their own and do not distort the span self times.

After the call it writes the stats as JSON, including the peak RSS.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (metric name, module, attribute path) of each traced layer boundary.
SPANS = [
    ("linalg.coordinates", "linalg", "CoordinateSolver.coordinates"),
    ("linalg.solver_build", "linalg", "CoordinateSolver.__init__"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.span_insert", "linalg", "SpanBasis.insert"),
    ("hecke.structure_constants", "hecke", "structure_constants"),
    ("hecke.module_coordinates", "hecke", "HeckeContext.module_coordinates"),
    ("hecke.convolve", "hecke", "HeckeElement.convolve"),
    ("hecke.expand", "hecke", "HeckeElement.expand"),
    ("hecke.validate_value", "hecke", "HeckeContext.validate_value"),
    ("algebras.action_verify", "algebras", "GroupAction.verify"),
    ("algebras.apply", "algebras", "GroupAction.apply"),
    ("algebras.element_mul", "algebras", "AlgebraElement.__mul__"),
    ("algebras.invariants", "algebras", "invariants_compute"),
    ("skewgroup.element_mul", "skewgroup", "SkewGroupElement.__mul__"),
    ("skewgroup.corner_basis", "skewgroup", "corner_basis"),
    ("skewgroup.idempotent", "skewgroup", "hecke_idempotent"),
    ("isomorphisms.to_matrix", "isomorphisms", "to_matrix"),
    ("isomorphisms.matrix_mul", "isomorphisms", "HeckeMatrix.__mul__"),
    ("isomorphisms.to_corner", "isomorphisms", "to_corner"),
    ("isomorphisms.stone_apply", "isomorphisms", "StoneModel.apply"),
    ("isomorphisms.verify_algebra_map", "isomorphisms", "verify_algebra_map"),
    ("groups.group_make", "groups", "group_make"),
    ("groups.coset_space", "groups", "CosetSpace.__init__"),
    ("cli.build_context", "cli", "build_context"),
] + [("cli.cmd", "cli", f"cmd_{c}") for c in ("dims", "mul", "sc", "verify")]
# Every entry of cli.SUITES is traced as cli.suite.<name>; these ten are reported.
SUITES = ("assoc", "decomp", "matrix", "corner", "stone", "group_ops", "cocycle",
          "opposite", "graded", "s3_fixtures")

# Field operations counted in the count pass, per field class.
SCALAR_OPS = ("add", "sub", "mul", "inv", "is_zero")
FIELDS = {"rationals": "Rationals", "prime_field": "PrimeField"}

ROOT_SPAN = "job"


def _package():
    sys.path.insert(0, str(ROOT / "src"))
    names = ("scalars", "linalg", "groups", "algebras", "skewgroup", "hecke",
             "isomorphisms", "cli")
    pkg = importlib.import_module("skewhecke")
    mods = {n: importlib.import_module(f"skewhecke.{n}") for n in names}
    return pkg, mods


def _replace(pkg, mods, owner, attr, wrapper):
    """Install ``wrapper`` for ``owner.attr``, also where it was imported by name."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for mod in (pkg, *mods.values()):
        if vars(mod).get(attr) is original:
            setattr(mod, attr, wrapper)


def _resolve(mods, module, path):
    owner = mods[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory spans: (name, parent) -> [calls, total seconds, self seconds]."""

    def __init__(self):
        self.agg = {}
        self.names = [ROOT_SPAN]
        self.child = [0.0]

    def wrap(self, name, fn):
        agg, names, child, clock = self.agg, self.names, self.child, time.perf_counter

        def wrapper(*args, **kwargs):
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                names.pop()
                child[-1] += dt
                key = (name, names[-1])
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, dt, dt - inner]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - inner

        return wrapper

    def spans(self, root_seconds):
        out = [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
               for (n, p), (c, t, s) in sorted(self.agg.items())]
        out.append({"name": ROOT_SPAN, "parent": None, "calls": 1,
                    "total_s": root_seconds, "self_s": root_seconds - self.child[0]})
        return out


def _install_timers(pkg, mods, stats):
    cli = mods["cli"]

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[key] += time.perf_counter() - t0
        return wrapper

    stats["setup_s"] = stats["job_s"] = 0.0
    _replace(pkg, mods, cli, "build_context", timed("setup_s", cli.build_context))
    for c in ("dims", "mul", "sc", "verify"):
        _replace(pkg, mods, cli, f"cmd_{c}", timed("job_s", getattr(cli, f"cmd_{c}")))


def _install_tracer(pkg, mods):
    tracer = Tracer()
    for name, module, path in SPANS:
        owner, attr = _resolve(mods, module, path)
        _replace(pkg, mods, owner, attr, tracer.wrap(name, getattr(owner, attr)))
    suites = mods["cli"].SUITES
    for suite, fn in suites.items():
        suites[suite] = tracer.wrap(f"cli.suite.{suite}", fn)
    return tracer


def _install_counters(mods):
    counts = {}
    scalars, algebras = mods["scalars"], mods["algebras"]

    def counted(key, fn):
        cell = counts.setdefault(key, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    for kind, cls_name in FIELDS.items():
        cls = getattr(scalars, cls_name)
        for op in SCALAR_OPS:
            setattr(cls, op, counted(f"scalars.{kind}.{op}", getattr(cls, op)))

    def cache_probe(key, fn, cache_of):
        lookups = counts.setdefault(f"{key}.lookups", [0])
        hits = counts.setdefault(f"{key}.hits", [0])

        def wrapper(self, a, b):
            lookups[0] += 1
            if (a, b) in cache_of(self):
                hits[0] += 1
            return fn(self, a, b)
        return wrapper

    base, action = algebras.BasedAlgebra, algebras.GroupAction
    base.product_cached = cache_probe(
        "algebras.product_cache", base.product_cached, lambda s: s._product_cache)
    action.on_label = cache_probe(
        "algebras.action_cache", action.on_label, lambda s: s._cache)
    return counts


def main(argv):
    mode, stats_path, cli_args = argv[0], pathlib.Path(argv[1]), argv[2:]
    pkg, mods = _package()
    stats = {"mode": mode}
    tracer = counts = None
    if mode == "time":
        _install_timers(pkg, mods, stats)
    elif mode == "trace":
        tracer = _install_tracer(pkg, mods)
    elif mode == "count":
        counts = _install_counters(mods)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    code = mods["cli"].main(cli_args)
    elapsed = time.perf_counter() - t0
    stats["exit"] = code
    stats["main_s"] = elapsed
    stats["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        stats["spans"] = tracer.spans(elapsed)
    if counts is not None:
        stats["counts"] = {k: v[0] for k, v in counts.items()}
    stats_path.write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
