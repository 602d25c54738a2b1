"""Output checks: recorded digests, an independent exchange-relation
oracle for A-side expansions, and the gallery expectations.

The oracle and the gallery comparison do not come from the code under
test: the oracle iterates the Fomin-Zelevinsky exchange relation on plain
``Fraction`` values with its own matrix mutation, and the gallery values
are the JSON expectations shipped with the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")

# Evaluation point for the oracle; nonzero everywhere, so every Laurent
# monomial is defined there.
POINT = (Fraction(2, 3), Fraction(5, 7), Fraction(3, 2), Fraction(7, 5), Fraction(11, 13), Fraction(13, 11))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the oracle -------------------------------------------------------------------


def fz_mutate(b, k):
    """Matrix mutation in the symmetric form of Fomin-Zelevinsky."""
    n = len(b)
    return [
        [
            -b[i][j] if k in (i, j) else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(n)
        ]
        for i in range(n)
    ]


def exchange_iterate(b, seq):
    """Cluster variables at ``POINT`` after mutating along ``seq``, using
    x_k x_k' = prod_{b_ik > 0} x_i^b_ik + prod_{b_ik < 0} x_i^-b_ik."""
    x = list(POINT[: len(b)])
    for k in seq:
        pos = neg = Fraction(1)
        for i, row in enumerate(b):
            if row[k] > 0:
                pos *= x[i] ** row[k]
            elif row[k] < 0:
                neg *= x[i] ** -row[k]
        x[k] = (pos + neg) / x[k]
        b = fz_mutate(b, k)
    return x


def evaluate(expr):
    """Value of a rational expression with integral exponents at ``POINT``."""

    def poly(p):
        total = Fraction(0)
        for exp, coeff in p.terms.items():
            term = Fraction(coeff)
            for x, e in zip(POINT, exp):
                if not isinstance(e, int):
                    raise ValueError("fractional exponent")
                term *= x**e
            total += term
        return total

    return poly(expr.num) / poly(expr.den)


def evaluate_rendered(text: str) -> Fraction:
    """Value of a rendered Laurent polynomial such as ``A1^-1*A2 + 2*A3``."""
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        value = Fraction(1)
        if term.startswith("-"):
            value, term = -value, term[1:]
        for factor in term.split("*"):
            if factor[0].isalpha():
                name, _, power = factor[1:].partition("^")
                value *= POINT[int(name) - 1] ** int(power or 1)
            else:
                value *= Fraction(factor)
        total += value
    return total


# -- the gallery ------------------------------------------------------------------


def gallery_mismatches(ct) -> list:
    """Names of gallery expectations the library no longer reproduces.

    Recomputes values through the public API and compares them with the
    JSON files in ``cluster_twist/examples_data``; also pins the oracle's
    exchange convention against the gallery's written-out expansions.
    """
    data_dir = Path(ct.__file__).with_name("examples_data")
    gallery = {name: json.loads((data_dir / f"{name}.json").read_text()) for name in ("a1", "sl3", "digon")}
    bad = []

    def check(name, got, want):
        if got != want:
            bad.append(name)

    gen = ct.LaurentPoly.generator

    data = gallery["a1"]
    seed, want = ct.seed_from_json(data["seed"]), data["expect"]
    seq = tuple(k - 1 for k in data["sequence"])
    traj = ct.run_trajectory(seed, seq)
    check("a1.E", traj.e_matrix.to_lists(), want["E"])
    check("a1.F", traj.f_matrix.to_lists(), want["F"])
    check("a1.signs", list(traj.signs), want["signs"])
    exp_a = ct.expand_cluster_variable(seed, seq, 0, "A")
    check("a1.expansion_A_1", exp_a.expr.render("A"), want["expansion_A_1"])
    check("a1.expansion_A_1_degree", list(exp_a.pointed.degree), want["expansion_A_1_degree"])
    check("a1.expansion_X_1", ct.expand_cluster_variable(seed, seq, 0, "X").expr.render("X"), want["expansion_X_1"])
    check("a1.expansion_X_2", ct.expand_cluster_variable(seed, seq, 1, "X").expr.render("X"), want["expansion_X_2"])
    pair = ct.build_dt_twist(seed)
    check("a1.dt_var_m", pair.tw_a.variation.matrix.to_lists(), want["dt_var_m"])
    check("a1.dt_var_n", pair.tw_x.variation.matrix.to_lists(), want["dt_var_n"])
    check("a1.dt_twist_A_1", ct.apply_twist(pair.tw_a, gen(seed, 0)).render("A"), want["dt_twist_A_1"])
    check("a1.dt_twist_X_2", ct.apply_twist(pair.tw_x, gen(seed, 1)).render("X"), want["dt_twist_X_2"])
    check("a1.lambda", pair.lam_base.lam.to_lists(), want["lambda"])
    check("a1.omega", ct.omega_from_seed(seed).w.to_lists(), want["omega"])
    oracle = exchange_iterate(seed.b.to_lists(), seq)[0]
    check("a1.oracle_convention", oracle, evaluate_rendered(want["expansion_A_1"]))

    data = gallery["sl3"]
    seed, want = ct.seed_from_json(data["seed"]), data["expect"]
    wit = ct.find_t1(seed)
    check("sl3.t1_sequence", [k + 1 for k in wit.seq], want["t1_sequence"])
    check("sl3.sigma", [[i + 1, j + 1] for i, j in wit.sigma.pairs], want["sigma"])
    exch = ct.expand_cluster_variable(seed, wit.seq, 0, "A")
    check("sl3.exchange_A_1", exch.expr.render("A"), want["exchange_A_1"])
    pair = ct.build_dt_twist(seed)
    for i in range(3):
        check(f"sl3.twist_A_{i + 1}", ct.apply_twist(pair.tw_a, gen(seed, i)).render("A"), want[f"twist_A_{i + 1}"])
    check("sl3.twist_A_1_prime", ct.apply_twist(pair.tw_a, exch.expr.as_poly()).render("A"), want["twist_A_1_prime"])
    oracle = exchange_iterate(seed.b.to_lists(), wit.seq)[0]
    check("sl3.oracle_convention", oracle, evaluate_rendered(want["exchange_A_1"]))

    data = gallery["digon"]
    seed, want = ct.seed_from_json(data["seed"]), data["expect"]
    seq = tuple(k - 1 for k in data["sequence"])
    traj = ct.run_trajectory(seed, seq)
    check("digon.b_end_is_negated", traj.final.b == -seed.b, want["b_end_is_negated"])
    for i in range(4):
        got = ct.expand_cluster_variable(seed, seq, i, "X").expr.render("X")
        check(f"digon.mutation_X_{i + 1}", got, want[f"mutation_X_{i + 1}"])
    check("digon.variation_family_dim", ct.solve_N_variation(seed, traj.final).dim, want["variation_family_dim"])
    check("digon.poisson_family_dim", ct.solve_N_variation(seed, traj.final, poisson=True).dim, want["poisson_family_dim"])
    return bad


class Checker:
    """Checks each task's output against its recorded digest, and samples
    A-side expansions for the oracle."""

    def __init__(self, workload: str):
        self.expected = json.loads(EXPECTED.read_text())[workload]
        self.samples = {}  # key -> (value at POINT, oracle input)
        self.messages = []

    def check(self, task, result) -> bool:
        try:
            text = task.canon(result)
        except (ValueError, KeyError, AttributeError) as exc:
            self.messages.append(f"{task.key}: output unreadable: {exc}")
            return False
        want = self.expected.get(task.key)
        if want is None or digest(text) != want:
            self.messages.append(f"{task.key}: digest {digest(text)} != expected {want}")
            return False
        if task.oracle is not None and task.key not in self.samples:
            self.samples[task.key] = (evaluate(result.expr), task.oracle)
        return True

    def oracle_mismatches(self) -> list:
        bad = []
        for key, (value, (b, seq, i)) in sorted(self.samples.items()):
            if exchange_iterate(b, seq)[i] != value:
                bad.append(key)
        return bad
