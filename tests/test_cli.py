import os
import pathlib
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke import cli
from skewhecke.linalg import add_into
from skewhecke.cli import (
    ConfigError,
    JobConfig,
    _split_top,
    build_context,
    format_hecke_element,
    main,
    parse_algebra_element,
    parse_config,
    parse_hecke_element,
)
from skewhecke.groups import CosetSpace
from skewhecke.hecke import StabilizerInvarianceError
from skewhecke.isomorphisms import (
    CocycleConditionError,
    conjugate_transport,
    opposite_transport,
    pull_map,
    semidirect_transport,
)
from skewhecke.scalars import Rationals
from skewhecke.skewgroup import SkewGroupElement

from reference_convolution import classical_structure_constants_counting
from reference_parsing import reference_split_top

CLASSICAL = """\
field = rationals
group = symmetric(3)
subgroup = (1 2)
algebra = scalar
action = trivial
"""

POLY = """\
field = rationals
group = symmetric(3)
subgroup = (1 2)
algebra = polynomial(3)
action = permute_variables
degree_cap = 2
"""

STONE = """\
field = rationals
group = symmetric(3)
subgroup = (1 2)
algebra = functions
action = left_translation
"""


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="job.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- configuration -----------------------------------------------------------


def test_parse_config_canonical_roundtrip():
    for text in (CLASSICAL, POLY, STONE):
        cfg = parse_config(text)
        assert parse_config(cfg.canonical()) == cfg


def test_parse_config_comments_and_defaults():
    cfg = parse_config("# just a comment\nfield = rationals\n")
    assert cfg.group == "symmetric(3)"
    assert cfg.degree_cap == 2


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("colour = blue\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("field rationals\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("degree_cap = two\n")
    with pytest.raises(ConfigError, match="^line 3: key 'group' given twice$"):
        parse_config("group = symmetric(3)\nfield = rationals\nGroup = cyclic(2)\n")


def test_build_context_rejects_bad_specs():
    cfg = parse_config(CLASSICAL)
    cfg.algebra = "octonion"
    with pytest.raises(ConfigError):
        build_context(cfg)
    cfg = parse_config(CLASSICAL)
    cfg.action = "mystery"
    with pytest.raises(ConfigError):
        build_context(cfg)


# -- element literals --------------------------------------------------------


def test_hecke_literal_roundtrip():
    ctx = build_context(parse_config(POLY))
    phi = parse_hecke_element(ctx, "(x1 + x2; 2*x3 + -1)")
    assert parse_hecke_element(ctx, format_hecke_element(phi)) == phi


GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
LARGE = GOLDEN.parent / "large"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.cfg")))
def test_hecke_literal_roundtrip_on_golden_configs(name):
    ctx = build_context(parse_config((GOLDEN / f"{name}.cfg").read_text()))
    f = ctx.field
    rng = random.Random(0)
    for _ in range(10):
        x = ctx.random_element(rng)
        # over Q, a third of x has fractional coefficients
        for y in [x, x.scale(f.inv(f.from_int(3)))] if f.characteristic == 0 else [x]:
            assert parse_hecke_element(ctx, format_hecke_element(y)) == y


@pytest.mark.parametrize("field", ["rationals", "prime_field(5)"])
@pytest.mark.parametrize("group", ["symmetric(3)", "cyclic(4)", "dihedral(4)",
                                   "dihedral(2)"])
def test_algebra_literal_roundtrip(field, group):
    # every coefficient family build_context makes prints literals it parses back;
    # cyclic(4) and dihedral(2) name their elements t^i and (t,id), not cycles
    rng = random.Random(0)
    for algebra in ["scalar", "functions", "group(self)", "group(cyclic(4))",
                    "matrix(2)", "polynomial(3)"]:
        cfg = JobConfig(field=field, group=group, subgroup="trivial", algebra=algebra)
        A = build_context(cfg).A
        f = A.field
        labels = A.labels_up_to(cfg.degree_cap)
        samples = [A.zero(), A.one()] + [A.basis_element(l) for l in labels]
        for _ in range(10):
            samples.append(A.element({
                l: f.mul(f.from_int(rng.randint(-3, 3)), f.inv(f.from_int(rng.randint(1, 3))))
                for l in labels}))
        for x in samples:
            assert parse_algebra_element(A, str(x)) == x, (algebra, str(x))


def test_hecke_literal_roundtrip_on_s5():
    # a dense element on the mul-s5 config: 734 terms over 7 double cosets
    ctx = build_context(parse_config((LARGE / "functions_s5.cfg").read_text()))
    x = ctx.random_element(random.Random(0))
    assert sum(len(v.coeffs) for v in x.values.values()) > 600
    assert parse_hecke_element(ctx, format_hecke_element(x)) == x


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="()[];,+ x1", max_size=40), st.sampled_from([";,", "+", ","]))
def test_split_top_matches_the_per_character_reference(s, seps):
    # unbalanced brackets included: a separator splits only at depth 0
    assert _split_top(s, seps) == reference_split_top(s, seps)


def test_hecke_literal_wrong_arity():
    ctx = build_context(parse_config(CLASSICAL))
    with pytest.raises(ValueError, match="expected 2"):
        parse_hecke_element(ctx, "(1; 2; 3)")


# -- subcommands -------------------------------------------------------------


def test_dims_output(capsys, cfg_file):
    code, out = run_cli(capsys, "dims", "--config", cfg_file(CLASSICAL))
    assert code == 0
    assert "|G| = 6" in out
    assert "[G:H] = 3" in out
    assert "double cosets = 2" in out
    assert "dim = 2" in out


def test_mul_classical_square(capsys, cfg_file):
    code, out = run_cli(
        capsys, "mul", "(0; 1)", "(0; 1)", "--config", cfg_file(CLASSICAL)
    )
    assert code == 0
    assert out.strip() == "(2; 1)"


def test_mul_polynomial_square(capsys, cfg_file):
    # (0, x1)^2 = (x1^2 + x2^2, x2*x3) in the two-value normal form
    path = cfg_file(POLY)
    code, out = run_cli(capsys, "mul", "(0; x1)", "(0; x1)", "--config", path)
    assert code == 0
    ctx = build_context(parse_config(POLY))
    result = parse_hecke_element(ctx, out.strip())
    A = ctx.A
    x1, x2, x3 = (A.variable(i) for i in (1, 2, 3))
    assert result == ctx.from_values({0: x1 * x1 + x2 * x2, 1: x2 * x3})


STONE_GF5 = STONE.replace("rationals", "prime_field(5)")


def test_mul_reads_fractions_over_gf_p(capsys, cfg_file):
    # 1/2 is 3 mod 5
    path = cfg_file(STONE_GF5)
    code, out = run_cli(capsys, "mul", "(0; 1/2)", "(0; 1)", "--config", path)
    assert code == 0
    assert run_cli(capsys, "mul", "(0; 3)", "(0; 1)", "--config", path) == (0, out)


def test_sc_matches_counting_oracle(capsys, cfg_file):
    code, out = run_cli(capsys, "sc", "--config", cfg_file(CLASSICAL))
    assert code == 0
    computed = {}
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        i, j, k, c = line.split("\t")
        computed[(int(i), int(j), int(k))] = Rationals().parse(c)
    ctx = build_context(parse_config(CLASSICAL))
    oracle = classical_structure_constants_counting(
        Rationals(), CosetSpace(ctx.G, ctx.H)
    )
    assert computed == oracle


# -- verify ------------------------------------------------------------------


def test_verify_all_classical(capsys, cfg_file):
    code, out = run_cli(
        capsys, "verify", "all", "--config", cfg_file(CLASSICAL), "--seed", "0"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "failed = 0" in out


def test_verify_deterministic(capsys, cfg_file):
    path = cfg_file(STONE)
    _, out1 = run_cli(capsys, "verify", "all", "--config", path, "--seed", "3")
    _, out2 = run_cli(capsys, "verify", "all", "--config", path, "--seed", "3")
    assert out1 == out2
    assert "seed = 3" in out1


def test_verify_all_graded_degree_cap_zero(capsys, cfg_file):
    path = cfg_file(POLY.replace("degree_cap = 2", "degree_cap = 0"))
    code, out = run_cli(capsys, "verify", "all", "--config", path, "--seed", "0")
    assert code == 0
    assert "FAIL" not in out
    assert "failed = 0" in out


def test_degree_cap_flag_overrides_the_config(capsys):
    path = str(GOLDEN / "polynomial_s3.cfg")  # degree_cap = 2 in the file
    code, out = run_cli(capsys, "dims", "--config", path, "--degree-cap", "1")
    assert code == 0
    assert out.splitlines()[-1] == "dim (degrees 0..1) = 7"
    code, out = run_cli(capsys, "verify", "assoc", "--config", path, "--degree-cap", "1")
    assert code == 0
    assert "  degree_cap = 1" in out.splitlines()


def test_verify_stone_runs_on_function_config(capsys, cfg_file):
    code, out = run_cli(capsys, "verify", "stone", "--config", cfg_file(STONE))
    assert code == 0
    assert "stone.matrix_units: PASS" in out
    assert "stone.rank_discrepancy_flag: PASS" in out


def test_verify_stone_skipped_elsewhere(capsys, cfg_file):
    # a run whose suites all skip has checked nothing: exit 2, report still written
    code = main(["verify", "stone", "--config", cfg_file(CLASSICAL)])
    captured = capsys.readouterr()
    assert code == 2
    assert "stone: SKIP" in captured.out
    assert "checks executed = 0, failed = 0" in captured.out
    assert captured.err == "error: no verification check executed\n"


def test_verify_out_file(tmp_path, capsys, cfg_file):
    out_path = tmp_path / "report.txt"
    code, out = run_cli(
        capsys,
        "verify",
        "assoc",
        "--config",
        cfg_file(CLASSICAL),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    assert "assoc.unit: PASS" in out_path.read_text()


def test_flags_accepted_before_subcommand(capsys, cfg_file):
    path = cfg_file(CLASSICAL)
    code, out = run_cli(capsys, "--config", path, "dims")
    assert code == 0
    assert "|G| = 6" in out


def _config(group, subgroup, algebra, action):
    return (f"group = {group}\nsubgroup = {subgroup}\n"
            f"algebra = {algebra}\naction = {action}\n")


@pytest.mark.parametrize("text", [
    pytest.param("group = monster(1)\n", id="unknown_group"),
    pytest.param("colour = blue\n", id="unknown_key"),
    pytest.param("group = symmetric(3)\ngroup = cyclic(2)\n", id="repeated_key"),
    pytest.param(_config("symmetric(3)", "(1 2)", "scalar", "left_translation"),
                 id="left_translation_on_scalar"),
    pytest.param(_config("symmetric(3)", "(1 2)", "functions", "permute_variables"),
                 id="permute_variables_on_functions"),
    pytest.param(_config("symmetric(3)", "(1 2)", "matrix(2)", "conjugation"),
                 id="conjugation_on_matrix"),
    pytest.param(_config("symmetric(3)", "(1 2)", "polynomial(3)", "conjugation"),
                 id="conjugation_on_polynomial"),
    pytest.param(_config("cyclic(4)", "g9", "scalar", "trivial"), id="generator_g9"),
    pytest.param(_config("symmetric(3)", "(1 4)", "scalar", "trivial"),
                 id="cycle_point_out_of_range"),
    pytest.param(_config("cyclic(0)", "trivial", "scalar", "trivial"), id="cyclic_0"),
    pytest.param(_config("cyclic(-2)", "trivial", "scalar", "trivial"), id="cyclic_negative"),
    pytest.param(_config("symmetric(0)", "trivial", "scalar", "trivial"), id="symmetric_0"),
    pytest.param(_config("symmetric(-1)", "trivial", "scalar", "trivial"),
                 id="symmetric_negative"),
    pytest.param(_config("dihedral(4)", "(1 2)", "scalar", "trivial"),
                 id="element_not_in_group"),
    pytest.param(_config("symmetric(8)", "trivial", "scalar", "trivial"), id="symmetric_8"),
    pytest.param(_config("cyclic(1000000000)", "trivial", "scalar", "trivial"),
                 id="cyclic_1e9"),
])
def test_bad_config_exits_2(capsys, cfg_file, text):
    code = main(["dims", "--config", cfg_file(text)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("algebra, degree_cap", [
    ("matrix(1000000)", 2),
    ("matrix(65)", 2),  # 4225 matrix units, just past the cap
    ("polynomial(3)", 10**12),
    ("polynomial(10000)", 1),
    (f"polynomial({10**9})", 10**9),  # both past 64: a lower bound is counted
])
def test_oversized_algebra_is_refused_before_it_is_built(capsys, cfg_file, monkeypatch,
                                                        algebra, degree_cap):
    def not_built(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "MatrixAlgebra", not_built)
    monkeypatch.setattr(cli, "PolynomialAlgebra", not_built)
    text = _config("symmetric(3)", "(1 2)", algebra, "permute_variables")
    code = main(["dims", "--config", cfg_file(text + f"degree_cap = {degree_cap}\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: algebra {algebra} has a basis of over "
                            f"{cli.MAX_BASIS_SIZE} labels; larger algebras are not built\n")


@pytest.mark.parametrize("algebra, degree_cap, size", [
    ("matrix(64)", 2, 4096), ("polynomial(4)", 2, 70), ("polynomial(3)", 0, 1),
    ("polynomial(1)", 2048, 4097), ("polynomial(4096)", 0, 1), ("functions", 9, 0),
])
def test_basis_size_counts_from_the_spec(algebra, degree_cap, size):
    # monomials up to degree 2 * degree_cap: C(nvars + 2 * degree_cap, nvars)
    assert cli._basis_size(algebra, degree_cap) == size


def test_element_not_in_group_is_named(capsys, cfg_file):
    code = main(["dims", "--config",
                 cfg_file(_config("dihedral(4)", "(1 2)", "scalar", "trivial"))])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: element '(1 2)' is not in this group of order 8\n")


@pytest.mark.parametrize("cycle", ["(1 1)", "(2 2 3)", "(1 2 1)", "(1 2"])
def test_malformed_cycle_is_named(capsys, cfg_file, cycle):
    # a repeated point or an unclosed cycle is refused, not reinterpreted
    code = main(["dims", "--config",
                 cfg_file(_config("symmetric(4)", cycle, "scalar", "trivial"))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: bad cycle notation: {cycle!r}\n"


CORNER_GF2 = STONE.replace("rationals", "prime_field(2)")


def test_verify_with_no_check_executed_exits_2(capsys, cfg_file):
    # |H| = 2 is not a unit mod 2, so the corner suite skips everything
    code = main(["verify", "corner", "--config", cfg_file(CORNER_GF2)])
    captured = capsys.readouterr()
    assert code == 2
    assert "corner: SKIP" in captured.out
    assert "checks executed = 0, failed = 0" in captured.out
    assert captured.err == "error: no verification check executed\n"


def test_verify_all_with_skipped_corner_passes(capsys, cfg_file):
    code = main(["verify", "all", "--config", cfg_file(CORNER_GF2)])
    captured = capsys.readouterr()
    assert code == 0
    assert "corner: SKIP" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("target", [
    pytest.param(lambda tmp: tmp / "missing" / "x.txt", id="missing_directory"),
    pytest.param(lambda tmp: tmp, id="a_directory"),
])
def test_unwritable_out_path_exits_2(capsys, cfg_file, tmp_path, target):
    # an output path that cannot be written is bad input: one error line, no output
    code = main(["dims", "--config", cfg_file(CLASSICAL), "--out", str(target(tmp_path))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def cli_process(args, stdout, entry=("-m", "skewhecke.cli")):
    """``python <entry> <args>`` in a child process, its stderr piped; the
    entry is the CLI module unless a script is named."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, *entry, *args],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def assert_one_error_line(proc):
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_closed_stdout_exits_2_with_one_error_line():
    # 16 395 lines, more than a pipe buffer holds: the reader closes after one
    proc = cli_process(["sc", "--config", str(GOLDEN / "polynomial_s4_gf7.cfg")],
                       subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# 0:")
    proc.stdout.close()
    assert_one_error_line(proc)


PEAK_RSS = str(pathlib.Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py")


@pytest.mark.parametrize("bound, config, status", [
    ("1000", "functions_s3.cfg", 0),
    ("0", "functions_s3.cfg", 1),  # past the bound
    ("1000", "missing.cfg", 2),  # the CLI's own code
])
def test_peak_rss_script_exits_with_the_cli_code_or_1_past_its_bound(bound, config, status):
    proc = cli_process([bound, "dims", "--config", str(GOLDEN / config)],
                       subprocess.PIPE, entry=(PEAK_RSS,))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == status
    if status != 2:
        assert out == (GOLDEN / "functions_s3.dims.txt").read_bytes()
    assert re.search(rb"^peak RSS \d+\.\d MB\n\Z", err, re.M)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "wb") as full:
        proc = cli_process(["dims", "--config", str(GOLDEN / "functions_s3.cfg")], full)
    assert_one_error_line(proc)


def test_missing_config_file_exits_2(capsys, tmp_path):
    code = main(["dims", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("config, phi, bad", [
    pytest.param(POLY, "(0; y1)", "'y1'", id="unknown_variable"),
    pytest.param(STONE, "(1/0*delta[()]; 0)", "'1/0'", id="zero_denominator_coefficient"),
    pytest.param(CLASSICAL, "(0; 1/0)", "'1/0'", id="zero_denominator_scalar"),
    pytest.param(STONE_GF5, "(0; 2/5)", "'2/5'", id="denominator_zero_mod_p"),
    # malformed, not a value: not 2*1, -1, 1 + 1, 1, nor (1; 0)
    pytest.param(STONE, "(2*; 0)", "'2*'", id="coefficient_star_without_label"),
    pytest.param(STONE, "(-; 0)", "'-'", id="sign_alone"),
    pytest.param(STONE, "(1 + + 1; 0)", "'1 + + 1'", id="empty_term"),
    pytest.param(STONE, "(1 +; 0)", "'1 +'", id="trailing_plus"),
    pytest.param(STONE, "(+1; 0)", "'+1'", id="leading_plus"),
    pytest.param(STONE, "(1;;0)", "value 2 of 3", id="empty_value"),
    pytest.param(STONE, "(1; 0;)", "value 3 of 3", id="trailing_semicolon"),
])
def test_bad_literal_exits_2(capsys, cfg_file, config, phi, bad):
    code = main(["mul", phi, "(0; 1)", "--config", cfg_file(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert bad in err


def _fails_after_the_first_block(monkeypatch, exc):
    """Patch the table ``cmd_sc`` streams to raise ``exc`` once its first
    block has been yielded; returns the list of the blocks yielded."""
    blocks_of = cli.structure_constant_blocks
    yielded = []

    def broken(ctx):
        basis, blocks = blocks_of(ctx)

        def failing():
            yielded.append(next(blocks))
            yield yielded[-1]
            raise exc

        return basis, failing()

    monkeypatch.setattr("skewhecke.cli.structure_constant_blocks", broken)
    return yielded


def test_internal_error_exits_3(capsys, cfg_file, monkeypatch):
    # a defect (not bad input, not a failed check) gets its own exit status,
    # and the block written before it never reaches stdout
    yielded = _fails_after_the_first_block(
        monkeypatch, ArithmeticError("fixed value outside its basis\n(bug)"))
    code = main(["sc", "--config", cfg_file(CLASSICAL)])
    captured = capsys.readouterr()
    assert yielded and yielded[0]
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: ArithmeticError: fixed value outside its basis (bug)\n")


def test_product_refused_in_sc_exits_3(capsys, cfg_file, monkeypatch):
    # the action was verified, so a table product its stabilizer moves is a
    # defect of the program, not bad input
    _fails_after_the_first_block(monkeypatch, StabilizerInvarianceError(1, 1, "(1 2)"))
    code = main(["sc", "--config", cfg_file(CLASSICAL)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: ArithmeticError: product refused: value at double-coset "
        "orbit 1 is not fixed by stabilizer element (1 2) (bug: the action was verified)\n")


def test_product_refused_in_mul_exits_3(capsys, cfg_file, monkeypatch):
    def moved(phi, psi):
        raise StabilizerInvarianceError(0, 1, "(1 2)")

    monkeypatch.setattr("skewhecke.hecke.HeckeElement.convolve", moved)
    code = main(["mul", "(delta[id] + delta[(1 2)]; 0)", "(0; 1)",
                 "--config", cfg_file(STONE)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: ArithmeticError: product refused: value at double-coset "
        "orbit 0 is not fixed by stabilizer element (1 2) (bug: the action was verified)\n")


def test_literal_its_stabilizer_moves_exits_2(capsys, cfg_file):
    # the same refusal on an input value is bad input
    code = main(["mul", "(delta[id]; 0)", "(0; 1)", "--config", cfg_file(STONE)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: value at double-coset orbit 0 is not fixed by "
                            "stabilizer element (1 2)\n")


def test_stone_matrix_outside_the_image_exits_3(capsys, cfg_file, monkeypatch):
    # the Stone map is onto, so a matrix with no preimage is a defect, not bad input:
    # force the stabilizer check of the inverse's values to report a witness
    # (within verify stone, only StoneModel.preimage calls from_values)
    def moved_value(ctx, values):
        raise StabilizerInvarianceError(1, 1, "(1 2)")

    monkeypatch.setattr("skewhecke.hecke.HeckeContext.from_values", moved_value)
    code = main(["verify", "stone", "--config", cfg_file(STONE)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal error: ArithmeticError: matrix is not in the "
                            "image (bug: map is onto)\n")


# -- a matrix image that is not G-invariant is a failed check -------------------


def untwisted_to_matrix(phi):
    """phi(k_a^-1 k_b H) at E[a,b]: to_matrix with alpha_{k_a} dropped."""
    ctx = phi.ctx
    cs, G = ctx.cosets, ctx.G
    exp = phi.expand()
    return ctx.matrix_model.from_components({
        (a, b): exp[cs.coset_of[G.mul(G.inverse(k), g)]]
        for a, k in enumerate(cs.reps) for b, g in enumerate(cs.reps)})


def test_untwisted_matrix_image_fails_invariance_with_a_witness(capsys, cfg_file,
                                                                monkeypatch):
    monkeypatch.setattr("skewhecke.isomorphisms.to_matrix", untwisted_to_matrix)
    code, out = run_cli(capsys, "verify", "matrix", "--config", cfg_file(STONE))
    assert code == 1
    assert "matrix.roundtrip: FAIL (image not G-invariant)\n" \
        "matrix.image_invariant: FAIL (witness s=(2 3) at E[1,1])\n" in out
    assert "matrix.unit: PASS" in out


# -- the integral corner checks still catch faults ------------------------------


def untwisted_skew_mul(self, other):
    """(a.g)(b.k) = ab.gk: the skew product with alpha_g dropped."""
    p = self.alg
    out = {}
    for g, a in p.components(self).items():
        for k, b in p.components(other).items():
            gk = p.G.mul(g, k)
            add_into(p.field, out, {(l, gk): c for l, c in (a * b).coeffs.items()})
    return p.element(out)


def corner_lift_wrong_coset(ctx, sga, phi):
    """sum_g phi(g^-1 H).g in place of sum_g phi(gH).g."""
    exp = phi.expand()
    coset_of, G = ctx.cosets.coset_of, ctx.G
    return sga.element({(l, g): c for g in range(G.order)
                        for l, c in exp[coset_of[G.inverse(g)]].coeffs.items()})


@pytest.mark.parametrize("config", [STONE, STONE_GF5], ids=["Q", "GF5"])
def test_untwisted_skew_product_fails_corner_multiplicativity(capsys, cfg_file,
                                                              monkeypatch, config):
    monkeypatch.setattr(SkewGroupElement, "__mul__", untwisted_skew_mul)
    code, out = run_cli(capsys, "verify", "corner", "--config", cfg_file(config))
    assert code == 1
    assert "corner.multiplicativity: FAIL" in out
    assert re.search(r"^corner\.multiplicativity: FAIL \(witness pair \d+\)$", out, re.M)


@pytest.mark.parametrize("config", [STONE, STONE_GF5], ids=["Q", "GF5"])
def test_corner_lift_reading_the_wrong_coset_fails(capsys, cfg_file, monkeypatch,
                                                   config):
    # only the integral checks use corner_lift; to_corner is left intact
    monkeypatch.setattr("skewhecke.verify.corner_lift", corner_lift_wrong_coset)
    code, out = run_cli(capsys, "verify", "corner", "--config", cfg_file(config))
    assert code == 1
    assert "corner.roundtrip: PASS" in out and "corner.unit: PASS" in out
    assert "corner.multiplicativity: FAIL" in out


# -- a failed transport check is reported with its witnesses ----------------------


def test_doubled_semidirect_forward_prints_the_unit_witness(capsys, cfg_file,
                                                             monkeypatch):
    def doubled(*args):
        tr = semidirect_transport(*args)
        two = tr.target.field.from_int(2)
        return replace(tr, forward=lambda phi: tr.forward(phi).scale(two))

    monkeypatch.setattr("skewhecke.verify.semidirect_transport", doubled)
    code, out = run_cli(capsys, "verify", "group_ops", "--config", cfg_file(STONE))
    assert code == 1
    assert "group_ops.semidirect: FAIL (dim 14 = 14)\n  FAIL unit: witness F(1) != 1\n" \
        in out
    assert "group_ops.conjugate: PASS" in out


def test_conjugate_forward_without_alpha_is_a_failed_check(capsys, cfg_file,
                                                           monkeypatch):
    # phi'(xH') = phi(s^-1 x s H) with alpha_s dropped is not stabilizer-fixed
    def untwisted(ctx, s):
        tr = conjugate_transport(ctx, s)
        G, si = ctx.G, ctx.G.inverse(s)
        forward = pull_map(tr.target, lambda at, x: at(G.mul(G.mul(si, x), s)))
        return replace(tr, forward=forward)

    monkeypatch.setattr("skewhecke.verify.conjugate_transport", untwisted)
    code, out = run_cli(capsys, "verify", "group_ops", "--config", cfg_file(STONE))
    assert code == 1
    assert "group_ops.conjugate: FAIL" in out
    assert "  FAIL image: witness value at double-coset orbit 0 is not fixed by " \
        "stabilizer element (1 3)\n" in out
    assert "group_ops.semidirect: PASS" in out


def test_opposite_forward_that_keeps_the_order_names_a_witness_pair(capsys, cfg_file,
                                                                    monkeypatch):
    # the identity into the context itself does not reverse products in M_3
    def unreversed(ctx):
        return replace(opposite_transport(ctx), target=ctx,
                       forward=lambda x: x, backward=lambda x: x)

    monkeypatch.setattr("skewhecke.verify.opposite_transport", unreversed)
    code, out = run_cli(capsys, "verify", "opposite", "--config", cfg_file(STONE))
    assert code == 1
    assert re.search(r"^opposite\.anti_multiplicative: FAIL \(witness pair \d+\)$",
                     out, re.M)
    assert "opposite.unit: PASS" in out and "opposite.roundtrip: PASS" in out


def test_graded_degree_failure_stops_at_its_first_witness(capsys, cfg_file, monkeypatch):
    calls = []

    def wrong_degree(self):
        calls.append(self)
        return 7

    monkeypatch.setattr("skewhecke.hecke.HeckeElement.homogeneous_degree", wrong_degree)
    code, out = run_cli(capsys, "verify", "graded", "--config", cfg_file(POLY))
    assert code == 1
    assert "graded.degree_additive: FAIL (degrees 0..2)\n" \
        "  FAIL graded.degree_additive: witness orbits (0, 0), degrees (0, 0), " \
        "product degree 7\n" in out
    assert len(calls) == 1


def test_cocycle_condition_error_prints_its_witnesses(capsys, cfg_file, monkeypatch):
    def violated(ctx, chi):
        raise CocycleConditionError([("cocycle", ("(1 2)", "(1 3)"))])

    monkeypatch.setattr("skewhecke.verify.cocycle_transport", violated)
    code, out = run_cli(capsys, "verify", "cocycle", "--config", cfg_file(CLASSICAL))
    assert code == 1
    assert "cocycle.inner_fixture: FAIL (cocycle conditions violated)\n" \
        "  FAIL cocycle: witness ('(1 2)', '(1 3)')\n" in out
