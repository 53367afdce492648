"""``GroupAction.verify`` and ``apply`` against ``reference_action_verify``.

``verify`` checks multiplicativity only on the label pairs that an algebra's
``product_keys`` let be nonzero on either side, and reads identity and
composition off the action's label table where it can; the reference checks
every pair, with images formed as plain sums.  The two reports must be
equal, failures in the same order, on the actions the CLI builds, on derived
actions, and on actions that are not actions by algebra automorphisms.
``apply``, which relabels where the table allows, must equal the plain sum of
``on_label`` images on the same actions.  Near-relabellings, permutation
tables with a few entries spoiled, reach the element comparison that
``verify`` runs only where the tables do not settle a check.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke.algebras import (
    FunctionAlgebra,
    GroupAction,
    GroupAlgebra,
    MatrixAlgebra,
    OppositeAlgebra,
    TensorAlgebra,
    cocycle_perturbed_action,
    conjugation_action,
    element_inverse,
    left_translation_action,
    opposite_action,
    tensor_product_action,
)
from skewhecke.cli import ConfigError, JobConfig, build_context
from skewhecke.groups import cyclic_group, direct_product, symmetric_group
from skewhecke.scalars import Rationals

from reference_action_verify import reference_apply, reference_verify

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


def tensor_action():
    Gp, _, _, p1, p2 = direct_product(S3, C2)
    A1, A2 = FunctionAlgebra(Q, S3), FunctionAlgebra(Q, C2)
    A = TensorAlgebra(A1, A2)
    return tensor_product_action(Gp, p1, p2, left_translation_action(S3, A1),
                                 left_translation_action(C2, A2), A)


def opposite_functions_action():
    A = FunctionAlgebra(Q, S3)
    return opposite_action(left_translation_action(S3, A), OppositeAlgebra(A))


def matrix_model_diagonal():
    cfg = JobConfig(group="symmetric(3)", subgroup="(1 2)", algebra="functions",
                    action="left_translation")
    return build_context(cfg).matrix_model.diagonal


def perturbed_conjugation_action():
    """Conjugation on Q[S3] perturbed by the coboundary of u = 2 + [(1 2)]:
    beta_g = chi(g) alpha_g(-) chi(g)^-1 with chi(g) = u (alpha_g u)^-1, whose
    images of most labels have several terms."""
    A = GroupAlgebra(Q, S3)
    act = conjugation_action(S3, A)
    u = A.element({0: 2, S3.element_by_name("(1 2)"): 1})
    chi = {g: u * element_inverse(act.apply(g, u)) for g in range(S3.order)}
    return cocycle_perturbed_action(act, chi)


@pytest.mark.parametrize("action, degree_cap", cli_actions())
def test_cli_actions_match_reference(action, degree_cap):
    assert assert_same_report(action, degree_cap).ok


def test_tensor_product_action_matches_reference():
    assert assert_same_report(tensor_action()).ok


def test_opposite_action_matches_reference():
    assert assert_same_report(opposite_functions_action()).ok


def test_matrix_model_diagonal_matches_reference():
    assert assert_same_report(matrix_model_diagonal()).ok


# -- apply against the plain sum ------------------------------------------------


def assert_apply_is_the_plain_sum(action, degree_cap=None, seed=0, draws=4):
    """apply(g, x) = sum of c_l on_label(g, l), terms in the same order, for
    every g and a few random x over the labels up to ``degree_cap``."""
    A, rng = action.A, random.Random(seed)
    labels = A.labels_up_to(degree_cap)
    f = A.field
    for _ in range(draws):
        x = A.element({l: f.from_int(rng.randint(-3, 3)) for l in labels
                       if rng.random() < 0.5})
        for g in range(action.G.order):
            assert list(action.apply(g, x).coeffs.items()) \
                == list(reference_apply(action, g, x).coeffs.items())


@pytest.mark.parametrize("action, degree_cap", cli_actions())
def test_cli_actions_apply_the_plain_sum(action, degree_cap):
    assert_apply_is_the_plain_sum(action, degree_cap)


@pytest.mark.parametrize("make", [
    tensor_action, opposite_functions_action, matrix_model_diagonal,
    perturbed_conjugation_action,
], ids=["tensor", "opposite", "matrix-diagonal", "cocycle-perturbed"])
def test_derived_actions_apply_the_plain_sum(make):
    action = make()
    if make is perturbed_conjugation_action:  # not a relabelling
        assert any(len(action.on_label(1, l).coeffs) > 1 for l in action.A.labels())
    assert_apply_is_the_plain_sum(action)


def test_colliding_relabelling_adds_and_drops_cancelled_labels():
    # alpha_g delta_k = delta_e for g != e: every label collides on e
    A = FunctionAlgebra(Q, S3)
    act = GroupAction(S3, A, lambda g, l: A.basis_element(0 if g else l))
    d = A.basis_element
    assert act.apply(1, d(1) - d(2)).is_zero
    assert act.apply(1, d(1) - d(2) + d(3)) == d(0)
    assert act.apply(1, d(0) + d(1).scale(2) + d(4)) == d(0).scale(4)
    assert_apply_is_the_plain_sum(act)


def test_zero_image_is_dropped():
    # alpha_g kills delta_1 and fixes the other labels, for g != e
    A = FunctionAlgebra(Q, S3)
    act = GroupAction(S3, A, lambda g, l: A.zero() if g and l == 1 else A.basis_element(l))
    d = A.basis_element
    assert act.permutation(2, A.labels()) is None
    assert act.permutation(2, [0, 2, 3, 4, 5]) == [0, 1, 2, 3, 4]
    assert act.apply(2, d(1).scale(5) + d(3)) == d(3)
    assert act.apply(2, d(1)).is_zero
    assert_apply_is_the_plain_sum(act)


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


def test_right_translation_fails_composition_like_reference():
    # delta_k -> delta_{kg} permutes the labels for each g, but
    # alpha_s alpha_k delta_l = delta_{lks} while alpha_{sk} delta_l = delta_{lsk}
    A = FunctionAlgebra(Q, S3)
    act = GroupAction(S3, A, lambda g, k: A.basis_element(S3.mul(k, g)))
    report = assert_same_report(act)
    assert report.failures
    assert {check for check, _ in report.failures} == {"composition"}


def test_non_injective_relabelling_fails_like_reference():
    # every [k] -> 1 for g != e: the augmentation, multiplicative and unital,
    # but alpha_s alpha_{s^-1} [k] = 1 while alpha_e [k] = [k]
    A = GroupAlgebra(Q, S3)
    act = GroupAction(S3, A, lambda g, l: A.basis_element(0 if g else l))
    report = assert_same_report(act)
    assert report.failures
    assert {check for check, _ in report.failures} == {"composition"}


def test_identity_that_relabels_fails_like_reference():
    # alpha_e and alpha_g both swap delta_0 and delta_1: each is a permutation
    # of the labels, and the identity check must still refuse alpha_e
    A = FunctionAlgebra(Q, C2)
    report = assert_same_report(GroupAction(C2, A, lambda g, l: A.basis_element(1 - l)))
    assert ("identity", 0) in report.failures and ("identity", 1) in report.failures


# -- near-relabellings: where the label tables do not settle a check -----------


def _odd(p):
    return sum(p[a] > p[b] for a in range(len(p)) for b in range(a + 1, len(p))) % 2


# name -> (A, a relabelling action of S3 on A's labels, a label outside A's basis):
# left translation on Q^{S3}; on M_2(Q), odd permutations conjugate by the swap
NEAR_RELABELLINGS = {
    "functions": (FunctionAlgebra(Q, S3), S3.mul, S3.order),
    "matrices": (MatrixAlgebra(Q, 2),
                 lambda g, l: (1 - l[0], 1 - l[1]) if _odd(S3.perms[g]) else l, (2, 2)),
}
SPOILS = ("double", "zero", "two_labels", "outside")


def near_relabelling(name, spoiled):
    """The relabelling action ``name`` with alpha_g(l) replaced, for each
    (g, i, spoil) of ``spoiled`` and l the i-th label: by twice its image, by
    zero, by its image plus the next label, or by the label outside A."""
    A, relabel, outside = NEAR_RELABELLINGS[name]
    labels = A.labels()
    images = {}
    for g, i, spoil in spoiled:
        l = labels[i % len(labels)]
        x = A.basis_element(relabel(g, l))
        nxt = A.basis_element(labels[(labels.index(relabel(g, l)) + 1) % len(labels)])
        images[(g, l)] = {"double": x.scale(2), "zero": A.zero(), "two_labels": x + nxt,
                          "outside": A.basis_element(outside)}[spoil]

    def on_label(g, l):  # every alpha_g fixes the label outside A
        if (g, l) in images:
            return images[(g, l)]
        return A.basis_element(l if l == outside else relabel(g, l))

    return lambda: GroupAction(S3, A, on_label)


@given(st.sampled_from(sorted(NEAR_RELABELLINGS)),
       st.lists(st.tuples(st.integers(0, S3.order - 1), st.integers(0, 5),
                          st.sampled_from(SPOILS)), max_size=4))
@settings(max_examples=80, deadline=None)
def test_near_relabellings_match_reference(name, spoiled):
    make = near_relabelling(name, spoiled)
    report = make().verify()
    assert report == reference_verify(make())
    assert report.ok or spoiled
    assert_apply_is_the_plain_sum(make(), draws=2)


def test_verify_keeps_no_element_per_relabelled_label():
    # the S5 tables are 120 tuples of 120 positions; an element per (g, label)
    # of the 14 400 would take several MiB
    G = symmetric_group(5)
    A = FunctionAlgebra(Q, G)
    action = left_translation_action(G, A)
    tracemalloc.start()
    try:
        report = action.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak <= 2.5 * 2**20
