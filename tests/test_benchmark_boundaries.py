"""The package names that perfbench/job.py wraps from outside must keep existing.

The benchmark's traced and counting passes replace these attributes by name;
a refactor that renames or deletes one breaks ``perfbench/run.py --trace 1``
while every other test still passes.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from skewhecke import cli, scalars
from skewhecke.algebras import BasedAlgebra, GroupAction, GroupAlgebra, trivial_action
from skewhecke.groups import cyclic_group
from skewhecke.scalars import Rationals

JOB_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "job.py"


def _load_job():
    spec = importlib.util.spec_from_file_location("perfbench_job", JOB_PATH)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


job = _load_job()


@pytest.mark.parametrize("name,module,path", job.SPANS, ids=[s[0] for s in job.SPANS])
def test_traced_span_resolves(name, module, path):
    owner = importlib.import_module(f"skewhecke.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name


METHOD_SPANS = [s for s in job.SPANS if "." in s[2]]


@pytest.mark.parametrize("name,module,path", METHOD_SPANS, ids=[s[0] for s in METHOD_SPANS])
def test_traced_method_is_defined_on_its_class(name, module, path):
    # an inherited method is the base class's: wrapping it by name would nest
    # the base's span inside this one and leave this span no self time
    *outer, attr = path.split(".")
    owner = importlib.import_module(f"skewhecke.{module}")
    for cls in outer:
        owner = getattr(owner, cls)
    assert attr in vars(owner), name


def test_counted_caches_and_field_ops_exist():
    assert callable(BasedAlgebra.product_cached)
    assert callable(GroupAction.on_label)
    G = cyclic_group(2)
    A = GroupAlgebra(Rationals(), G)
    assert isinstance(A._product_cache, dict)
    assert isinstance(trivial_action(G, A)._cache, dict)
    for cls_name in job.FIELDS.values():
        cls = getattr(scalars, cls_name)
        for op in job.SCALAR_OPS:
            assert callable(getattr(cls, op)), (cls_name, op)


def test_suite_names_match():
    assert tuple(cli.SUITES) == job.SUITES


# (parent span, span) edges of a traced verify run: each suite calls these
# functions itself, so a suite that binds one by name escapes the tracer
SUITE_EDGES = [
    ("cli.suite.matrix", "isomorphisms.to_matrix"),
    ("cli.suite.corner", "isomorphisms.to_corner"),
    ("cli.suite.corner", "skewgroup.corner_basis"),
    ("cli.suite.corner", "skewgroup.idempotent"),
    ("cli.suite.group_ops", "isomorphisms.verify_algebra_map"),
    ("cli.suite.cocycle", "isomorphisms.verify_algebra_map"),
    ("cli.suite.stone", "isomorphisms.stone_apply"),
]


def test_traced_verify_reaches_every_suite_and_its_spans(tmp_path):
    root = JOB_PATH.parent.parent
    stats = tmp_path / "stats.json"
    subprocess.run(
        [sys.executable, str(JOB_PATH), "trace", str(stats), "verify", "all", "--seed", "0",
         "--config", str(root / "tests/data/golden/functions_s3.cfg"),
         "--out", str(tmp_path / "report.txt")],
        cwd=root, check=True, timeout=120)
    spans = json.loads(stats.read_text())["spans"]
    names = {s["name"] for s in spans}
    assert {f"cli.suite.{suite}" for suite in job.SUITES} <= names
    edges = {(s["parent"], s["name"]) for s in spans}
    assert [e for e in SUITE_EDGES if e not in edges] == []
