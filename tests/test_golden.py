"""``sc``, ``dims`` and ``verify`` output, byte for byte, against recorded goldens.

``tests/data/golden/<name>.cfg`` holds a job configuration (the six that
``scripts/run_verification.py`` reads from here, so an edit to one changes
that battery too, graded polynomials over GF(7) on (S4, <(1 2)>) and functions
on (S4, <(1 2), (1 2 3)>) under left translation); ``<name>.<command>.txt`` is
the output the CLI printed for it, with the arguments in ``ARGS``, when the
file was recorded.  The ``verify`` goldens pin the details of each check
(``corner dim N, module dim N``, ranks, pair counts) as well as its status.  A
change that alters any byte of these outputs, reordering rows included, fails
here; where a change of output is intended, rewrite the file with ``skewhecke
<command> <ARGS> --config <name>.cfg --out <name>.<command>.txt`` and say why
in the change log.
``s3_tables.txt``, one dot in its name, is the stdout of
``scripts/s3_tables.py``, which CI compares; it is not a CLI golden.
"""

import pathlib

import pytest

from skewhecke.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
# command -> the arguments its goldens were recorded with
ARGS = {"dims": [], "sc": [], "verify": ["all", "--seed", "0"]}
CASES = sorted(
    (path.name.split(".")[0], path.name.split(".")[1])
    for path in GOLDEN.glob("*.*.txt")
)


def test_goldens_cover_every_config():
    configs = {path.stem for path in GOLDEN.glob("*.cfg")}
    assert len(configs) == 8
    assert {name for name, _ in CASES} == configs
    assert {command for _, command in CASES} == set(ARGS)
    for command in ("sc", "dims"):
        assert {name for name, c in CASES if c == command} == configs
    assert {name for name, c in CASES if c == "verify"} \
        == configs - {"polynomial_s4_gf7"}


@pytest.mark.parametrize("name, command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_cli_output_matches_golden(tmp_path, name, command):
    out = tmp_path / "out.txt"
    code = main([command, *ARGS[command], "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{command}.txt").read_bytes()


def test_stdout_prints_the_golden_too(capsys):
    # the stdout path of the writer, which the goldens above do not reach
    assert main(["sc", "--config", str(GOLDEN / "polynomial_s3.cfg")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "polynomial_s3.sc.txt").read_text(encoding="utf-8")
    assert captured.err == ""
