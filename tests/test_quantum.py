import random
from fractions import Fraction

from cluster_twist.laurent import LaurentPoly
from cluster_twist.poisson import omega_from_seed, solve_compatible_lambda
from cluster_twist.quantum import (
    QTorusElem,
    homomorphism_check,
    poisson_limit_check,
    q_mul,
    quantum_monomial_map,
)
from cluster_twist.seeds import make_seed, mutate_b_along
from cluster_twist.variation import NVariation, is_poisson, solve_N_variation

from test_variation import digon_n_matrix


def test_q_mul_a1(a1_seed):
    form = omega_from_seed(a1_seed)
    x1 = QTorusElem.generator(form, 0)
    x2 = QTorusElem.generator(form, 1)
    prod = q_mul(x1, x2)
    assert prod.term_dict == {((1, 1), 1): 1}
    assert q_mul(x2, x1).term_dict == {((1, 1), -1): 1}
    sq = q_mul(x1, x1)
    assert sq.term_dict == {((2, 0), 0): 1}


def test_q_mul_associative_random():
    rng = random.Random(91)
    seed = make_seed([[0, 1], [-2, 0]], frozen=[1], d=[1, 2])
    form = omega_from_seed(seed)
    for _ in range(30):
        def relem():
            return QTorusElem.from_terms(
                form,
                {
                    tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(1, 3)
                    for _ in range(rng.randint(1, 2))
                },
            )

        a, b, c = relem(), relem(), relem()
        assert q_mul(q_mul(a, b), c) == q_mul(a, q_mul(b, c))


def test_q_mul_classical_limit(a1_seed):
    rng = random.Random(93)
    form = omega_from_seed(a1_seed)
    for _ in range(20):
        t1 = {tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(1, 3) for _ in range(2)}
        t2 = {tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(1, 3) for _ in range(2)}
        a = QTorusElem.from_terms(form, t1)
        b = QTorusElem.from_terms(form, t2)
        classical = LaurentPoly(a1_seed, t1) * LaurentPoly(a1_seed, t2)
        assert q_mul(a, b).evaluate_classical() == classical


def test_poisson_limit_a1_and_digon(a1_seed, digon_seed):
    rng = random.Random(101)
    for seed in (a1_seed, digon_seed):
        form = omega_from_seed(seed)
        for _ in range(100):
            n1 = tuple(rng.randint(-3, 3) for _ in range(seed.n))
            n2 = tuple(rng.randint(-3, 3) for _ in range(seed.n))
            rep = poisson_limit_check(n1, n2, form)
            assert rep["ok"], (seed.n, n1, n2, rep)


def test_poisson_limit_equal_exponents(a1_seed):
    form = omega_from_seed(a1_seed)
    rep = poisson_limit_check((1, -2), (1, -2), form)
    assert rep["ok"] and rep["limit"].is_zero()


def test_poisson_limit_a_side(a1_seed):
    lam, _ = solve_compatible_lambda(a1_seed, alpha=1)
    rng = random.Random(103)
    for _ in range(100):
        m1 = tuple(rng.randint(-3, 3) for _ in range(2))
        m2 = tuple(rng.randint(-3, 3) for _ in range(2))
        rep = poisson_limit_check(m1, m2, lam)
        assert rep["ok"]


def test_poisson_limit_fractional_exponents():
    b2 = make_seed([[0, 1], [-2, 0]], frozen=[1], d=[1, 2])
    form = omega_from_seed(b2)
    rng = random.Random(107)
    for _ in range(50):
        n1 = tuple(rng.randint(-3, 3) for _ in range(2))
        n2 = tuple(rng.randint(-3, 3) for _ in range(2))
        rep = poisson_limit_check(n1, n2, form)
        assert rep["ok"]


def test_quantum_monomial_map_regimes(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    source_form = omega_from_seed(digon_seed)
    target_form = omega_from_seed(end)
    good = NVariation(digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, 1, 1, [[0, 0], [0, 0]]))
    assert homomorphism_check(good, source_form, target_form)["ok"]
    bad = NVariation(digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, 1, 1, [[1, 0], [0, 0]]))
    assert not homomorphism_check(bad, source_form, target_form)["ok"]
    ident_like = NVariation(
        digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, 1, 1, [[1, 0], [0, 1]])
    )
    assert homomorphism_check(ident_like, source_form, target_form)["ok"] == is_poisson(ident_like)
    elem = QTorusElem.from_terms(source_form, {(1, 0, 2, 0): 3}) + QTorusElem.monomial(
        source_form, (0, 1, 0, 0), k=Fraction(1, 2)
    )
    moved = quantum_monomial_map(good, elem, target_form)
    assert len(moved.terms) == 2


def test_homomorphism_matches_form_preservation_sampled(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    source_form = omega_from_seed(digon_seed)
    target_form = omega_from_seed(end)
    vals = (-1, 0, 1, 2)
    rng = random.Random(109)
    for _ in range(30):
        lam, mu = rng.choice(vals), rng.choice(vals)
        vh = [[rng.choice(vals) for _ in range(2)] for _ in range(2)]
        v = NVariation(digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, lam, mu, vh))
        assert homomorphism_check(v, source_form, target_form)["ok"] == is_poisson(v)
