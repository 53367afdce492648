"""``GroupAction.verify`` against the exhaustive loop of ``reference_action_verify``.

``verify`` checks multiplicativity only on the label pairs that an algebra's
``product_keys`` let be nonzero on either side; the reference checks every
pair.  The two reports must be equal, failures in the same order, on the
actions the CLI builds, on derived actions, and on actions that are not
actions by algebra automorphisms.
"""

import pytest

from skewhecke.algebras import (
    FunctionAlgebra,
    GroupAction,
    GroupAlgebra,
    MatrixAlgebra,
    OppositeAlgebra,
    TensorAlgebra,
    left_translation_action,
    opposite_action,
    tensor_product_action,
)
from skewhecke.cli import ConfigError, JobConfig, build_context
from skewhecke.groups import cyclic_group, direct_product, symmetric_group
from skewhecke.scalars import Rationals

from reference_action_verify import reference_verify

Q = Rationals()
C2 = cyclic_group(2)
S3 = symmetric_group(3)

GROUPS = {"symmetric(3)": 3, "symmetric(4)": 4}
FIELDS = ("rationals", "prime_field(5)")
ALGEBRAS = ("scalar", "functions", "group(self)", "polynomial({n})", "matrix(2)")
ACTIONS = ("trivial", "permute_variables", "left_translation", "conjugation")


def assert_same_report(action, degree_cap=None):
    report = action.verify(degree_cap=degree_cap)
    assert report == reference_verify(action, degree_cap=degree_cap)
    return report


def cli_actions():
    """Every (group, field, algebra, action) the CLI builds, with its action."""
    out = []
    for group, n in GROUPS.items():
        for field in FIELDS:
            for algebra in ALGEBRAS:
                for spec in ACTIONS:
                    cfg = JobConfig(field=field, group=group, subgroup="(1 2)",
                                    algebra=algebra.format(n=n), action=spec)
                    try:
                        ctx = build_context(cfg)
                    except ConfigError:
                        continue  # action_make refuses this algebra
                    out.append(pytest.param(ctx.action, cfg.degree_cap,
                                            id=f"{group}-{field}-{cfg.algebra}-{spec}"))
    return out


@pytest.mark.parametrize("action, degree_cap", cli_actions())
def test_cli_actions_match_reference(action, degree_cap):
    assert assert_same_report(action, degree_cap).ok


def test_tensor_product_action_matches_reference():
    Gp, _, _, p1, p2 = direct_product(S3, C2)
    A1, A2 = FunctionAlgebra(Q, S3), FunctionAlgebra(Q, C2)
    A = TensorAlgebra(A1, A2)
    act = tensor_product_action(Gp, p1, p2, left_translation_action(S3, A1),
                                left_translation_action(C2, A2), A)
    assert assert_same_report(act).ok


def test_opposite_action_matches_reference():
    A = FunctionAlgebra(Q, S3)
    Aop = OppositeAlgebra(A)
    assert assert_same_report(opposite_action(left_translation_action(S3, A), Aop)).ok


def test_matrix_model_diagonal_matches_reference():
    cfg = JobConfig(group="symmetric(3)", subgroup="(1 2)", algebra="functions",
                    action="left_translation")
    ctx = build_context(cfg)
    assert assert_same_report(ctx.matrix_model.diagonal).ok


# -- faulty actions ------------------------------------------------------------


def c2_action(A, image):
    """C2 acting by the identity and, at the generator 1, by image(label)."""
    return GroupAction(C2, A, lambda g, l: image(l) if g else A.basis_element(l))


def test_failure_on_a_zero_basis_product_is_found():
    # delta0 -> delta0 + delta1, delta1 -> -delta1: alpha(delta0 delta1) = 0 but
    # alpha(delta0) alpha(delta1) = -delta1; key 0 of l1 = 0 meets no key of
    # l2 = 1 or of its image, only the image of l1 carries key 1
    A = FunctionAlgebra(Q, C2)
    images = {0: A.basis_element(0) + A.basis_element(1), 1: -A.basis_element(1)}
    report = assert_same_report(c2_action(A, images.__getitem__))
    assert ("multiplicativity", (1, 0, 1)) in report.failures


def test_row_swap_on_matrices_fails_like_reference():
    A = MatrixAlgebra(Q, 2)
    act = c2_action(A, lambda l: A.basis_element((1 - l[0], l[1])))
    report = assert_same_report(act)
    assert any(check == "multiplicativity" for check, _ in report.failures)
    # the opposite algebra reverses the keys; its report must agree too
    assert not assert_same_report(opposite_action(act, OppositeAlgebra(A))).ok


@pytest.mark.parametrize("A, relabel", [
    (FunctionAlgebra(Q, C2), lambda l: 0),  # every delta_l -> delta_0 (keyed)
    (GroupAlgebra(Q, C2), lambda l: 1 - l),  # 1 <-> g (no keys)
], ids=["functions-collapse", "group-swap"])
def test_non_unital_relabelling_fails_like_reference(A, relabel):
    report = assert_same_report(c2_action(A, lambda l: A.basis_element(relabel(l))))
    assert ("unit", 1) in report.failures
