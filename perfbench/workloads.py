"""Workloads of the benchmark: the CLI jobs each one runs, and their inputs.

Every workload is a fixed list of ``skewhecke`` CLI jobs.  The seed chooses
the two ``mul`` literals and the ``verify --seed``; ``sc`` does not depend on
it.  Each job's output is checked by ``run.py`` against ``reference.json``
(``sc``, ``verify``) or against a convolution evaluated here from the group
table alone (``mul``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction


def _config(group, subgroup, algebra, action, fld="rationals", degree_cap=None):
    text = (f"field = {fld}\ngroup = {group}\nsubgroup = {subgroup}\n"
            f"algebra = {algebra}\naction = {action}\n")
    if degree_cap is not None:
        text += f"degree_cap = {degree_cap}\n"
    return text


# The six configurations of scripts/run_verification.py, copied so that the
# benchmark's inputs stay fixed when the script changes.
SCRIPT_CONFIGS = {
    "classical_s3": _config("symmetric(3)", "(1 2)", "scalar", "trivial"),
    "classical_s4_d4": _config("symmetric(4)", "(1 2 3 4), (1 3)", "scalar", "trivial"),
    "functions_s3": _config("symmetric(3)", "(1 2)", "functions", "left_translation"),
    "group_algebra_conjugation": _config(
        "symmetric(3)", "(1 2)", "group(self)", "conjugation"),
    "polynomial_s3": _config(
        "symmetric(3)", "(1 2)", "polynomial(3)", "permute_variables", degree_cap=2),
    "functions_s3_gf5": _config(
        "symmetric(3)", "(1 2)", "functions", "left_translation", fld="prime_field(5)"),
}

S4_CONJUGATION = _config("symmetric(4)", "(1 2)", "group(self)", "conjugation")
S4_POLYNOMIAL_GF7 = _config("symmetric(4)", "(1 2)", "polynomial(4)",
                            "permute_variables", fld="prime_field(7)", degree_cap=2)
S4_FUNCTIONS = _config("symmetric(4)", "(1 2), (1 2 3)", "functions", "left_translation")
S5_FUNCTIONS = _config("symmetric(5)", "(1 2), (1 2 3)", "functions", "left_translation")


@dataclass
class Job:
    """One CLI invocation: ``skewhecke <command> <args> --config <config>``."""

    name: str
    command: str
    config: str
    args: list = field(default_factory=list)
    expected: object = None  # mul only: (FunctionsContext, product per orbit)


def _sc_jobs(seed):
    return [Job("sc_s4_conjugation", "sc", S4_CONJUGATION),
            Job("sc_s4_polynomial_gf7", "sc", S4_POLYNOMIAL_GF7)]


def _mul_jobs(seed):
    phi, psi, expected = mul_inputs(S5_FUNCTIONS, seed)
    return [Job("mul_s5_functions", "mul", S5_FUNCTIONS, [phi, psi], expected)]


def _verify_jobs(seed):
    configs = dict(SCRIPT_CONFIGS, functions_s4=S4_FUNCTIONS)
    return [Job(f"verify_{name}", "verify", text, ["all", "--seed", str(seed)])
            for name, text in configs.items()]


# Workload name -> jobs for a seed.  BENCHMARK.json records why each was chosen.
WORKLOADS = {
    "sc-s4": _sc_jobs,
    "mul-s5": _mul_jobs,
    "verify-battery": _verify_jobs,
}


# ---------------------------------------------------------------------------
# mul: seeded literals and the expected product, from the group table alone


class FunctionsContext:
    """(G, H) for A = R^G under left translation, alpha_g delta_k = delta_{gk}.

    Uses only the group table, the coset space and the orbit normal form of
    ``skewhecke.groups``; no product code of the package.
    """

    def __init__(self, config_text):
        from skewhecke.groups import CosetSpace, group_make, subgroup_from_generators

        spec = dict(line.split("=", 1) for line in config_text.splitlines())
        spec = {k.strip(): v.strip() for k, v in spec.items()}
        if spec["algebra"] != "functions" or spec["action"] != "left_translation" \
                or spec["field"] != "rationals":
            raise ValueError("mul inputs need rational functions under left translation")
        G = group_make(spec["group"])
        H = subgroup_from_generators(
            G, [G.element_by_name(t) for t in spec["subgroup"].split(",")])
        self.G = G
        self.cosets = CosetSpace(G, H)
        self.orbits = self.cosets.double_cosets

    def random_value(self, rng, oi):
        """A dense function fixed by the orbit's stabilizer S under left translation.

        alpha_s f = f means f(s x) = f(x): f is constant on each right coset S x.
        """
        G, stab = self.G, self.orbits[oi].stabilizer.elements
        coeff = {}
        value = {}
        for x in range(G.order):
            cls = min(G.mul(s, x) for s in stab)
            if cls not in coeff:
                coeff[cls] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            value[x] = coeff[cls]
        return value

    def literal(self, values):
        name = self.G.name
        return "(" + "; ".join(
            " + ".join(f"{c}*delta[{name(x)}]" for x, c in sorted(v.items())) or "0"
            for v in values) + ")"

    def expand(self, values):
        """coset index -> function, phi(h gH) = alpha_h phi(gH)."""
        G, out = self.G, {}
        for orbit, v in zip(self.orbits, values):
            for ci in orbit.coset_indices:
                h = orbit.transversal[ci]
                out[ci] = {G.mul(h, x): c for x, c in v.items()}
        return out

    def convolve(self, phi, psi):
        """(phi * psi)(gH) = sum_kH phi(kH) . alpha_k psi(k^-1 gH), pointwise in R^G.

        Coset representatives k are the largest element of each coset, not the
        package's choice, so the result also checks independence of that choice.
        """
        G, cs = self.G, self.cosets
        a_exp, b_exp = self.expand(phi), self.expand(psi)
        out = []
        for orbit in self.orbits:
            g = cs.reps[orbit.rep_coset]
            total = {}
            for ci, members in enumerate(cs.cosets):
                k = max(members)
                a = a_exp[ci]
                b = b_exp[cs.coset_of[G.mul(G.inverse(k), g)]]
                for y, c in b.items():
                    x = G.mul(k, y)
                    if x in a:
                        total[x] = total.get(x, 0) + a[x] * c
            out.append({x: c for x, c in total.items() if c != 0})
        return out

    def parse(self, text):
        """The CLI's printed element '(v0; v1; ...)' as a list of functions."""
        index = {self.G.name(x): x for x in range(self.G.order)}
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("product is not a parenthesised element")
        values = []
        for part in text[1:-1].split("; "):
            v = {}
            if part != "0":
                for term in part.split(" + "):
                    coeff, sep, label = term.partition("*")
                    if not sep:
                        coeff, label = "1", term
                    if not (label.startswith("delta[") and label.endswith("]")):
                        raise ValueError(f"bad term {term!r}")
                    v[index[label[6:-1]]] = Fraction(coeff)
            values.append(v)
        return values


def mul_inputs(config_text, seed):
    """Two seeded dense literals and their product; same seed, same bytes."""
    fc = FunctionsContext(config_text)
    rng = random.Random(seed)
    phi = [fc.random_value(rng, oi) for oi in range(len(fc.orbits))]
    psi = [fc.random_value(rng, oi) for oi in range(len(fc.orbits))]
    return fc.literal(phi), fc.literal(psi), (fc, fc.convolve(phi, psi))
