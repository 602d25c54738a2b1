import random

import pytest

from cluster_twist.exact import Infeasible, Matrix
from cluster_twist.laurent import LaurentPoly, RationalExpr
from cluster_twist.mutation import mutate_expr, run_trajectory, trans_matrix
from cluster_twist.poisson import (
    LambdaForm,
    check_lambda_omega_link,
    mutate_lambda,
    omega_from_seed,
    poisson_bracket,
    solve_compatible_lambda,
    transport_lambda,
)
from cluster_twist.seeds import make_seed, mutate_b

from conftest import random_symmetrizable_seed


def test_omega_examples(a1_seed, digon_seed):
    assert omega_from_seed(a1_seed).w == -a1_seed.b
    assert omega_from_seed(digon_seed).w == -digon_seed.b
    zero = make_seed([[0, 0], [0, 0]], frozen=[1], d=[1, 1])
    assert omega_from_seed(zero).w == Matrix.zero(2, 2)
    b2 = make_seed([[0, 1], [-2, 0]], frozen=[1], d=[1, 2])
    w = omega_from_seed(b2).w
    assert w == Matrix([[0, -1], [1, 0]])  # b_ji / d_j stays skew


def test_solve_compatible_lambda_a1(a1_seed):
    form, dim = solve_compatible_lambda(a1_seed, alpha=1)
    assert form.lam == a1_seed.b
    assert form.alpha == 1 and dim == 0
    assert form.delta == (1,)


def test_solve_compatible_lambda_principal(a2_principal):
    form, dim = solve_compatible_lambda(a2_principal)
    # the closed-form choice is admissible and compatible
    closed = (a2_principal.b.inverse().transpose() * a2_principal.d_inverse_matrix()).scale(form.alpha)
    closed_form = LambdaForm(a2_principal, closed, form.alpha)
    assert check_lambda_omega_link(closed_form, a2_principal)["ok"]
    assert check_lambda_omega_link(form, a2_principal)["ok"]


def test_solve_compatible_lambda_infeasible(digon_seed):
    with pytest.raises(Infeasible):
        solve_compatible_lambda(digon_seed)


def test_mutate_lambda_a1(a1_seed):
    form, _ = solve_compatible_lambda(a1_seed, alpha=1)
    out = mutate_lambda(form, a1_seed, 0)
    assert out.lam == Matrix([[0, -1], [1, 0]])
    back = mutate_lambda(out, mutate_b(a1_seed, 0), 0)
    assert back.lam == form.lam


def test_mutate_lambda_randomized():
    rng = random.Random(53)
    done = 0
    while done < 15:
        seed = random_symmetrizable_seed(rng, require_full_rank=True)
        try:
            form, _ = solve_compatible_lambda(seed, alpha_bound=8)
        except Infeasible:
            continue
        k = rng.choice(seed.unfrozen)
        out = mutate_lambda(form, seed, k)
        for eps in (1, -1):  # the transported form does not depend on the sign
            pm = trans_matrix(seed, k, eps, "M").matrix
            assert pm.transpose() * form.lam * pm == out.lam, (seed, k, eps)
        assert out.lam.transpose() == -out.lam
        back = mutate_lambda(out, mutate_b(seed, k), k)
        assert back.lam == form.lam
        done += 1


def test_check_lambda_omega_link(a1_seed):
    form, _ = solve_compatible_lambda(a1_seed, alpha=1)
    assert check_lambda_omega_link(form, a1_seed)["ok"]
    corrupted = LambdaForm(a1_seed, Matrix([[0, -1], [1, 0]]), 1)
    assert not check_lambda_omega_link(corrupted, a1_seed)["ok"]


def test_bracket_monomial_formula():
    rng = random.Random(59)
    for _ in range(20):
        seed = random_symmetrizable_seed(rng)
        form = omega_from_seed(seed)
        n1 = tuple(rng.randint(-3, 3) for _ in range(seed.n))
        n2 = tuple(rng.randint(-3, 3) for _ in range(seed.n))
        got = poisson_bracket(
            LaurentPoly.monomial(seed, n1), LaurentPoly.monomial(seed, n2), form
        )
        coeff = -form.pairing(n1, n2)
        want = RationalExpr(
            LaurentPoly(seed, {tuple(a + b for a, b in zip(n1, n2)): coeff})
        )
        assert got == want


def test_bracket_alternating_and_jacobi(a1_seed):
    form = omega_from_seed(a1_seed)
    f = RationalExpr(
        LaurentPoly(a1_seed, {(1, 0): 1, (0, 1): 2}),
        LaurentPoly(a1_seed, {(0, 0): 1, (1, 0): 1}),
    )
    zero = RationalExpr(LaurentPoly.zero(a1_seed))
    assert poisson_bracket(f, f, form) == zero
    rng = random.Random(61)
    monos = [
        RationalExpr(LaurentPoly.monomial(a1_seed, (rng.randint(-2, 2), rng.randint(-2, 2))))
        for _ in range(3)
    ]
    a, b, c = monos

    def br(x, y):
        return poisson_bracket(x, y, form)

    jac = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
    assert jac == zero


def test_bracket_biderivation(a1_seed):
    form = omega_from_seed(a1_seed)
    rng = random.Random(67)
    for _ in range(8):
        def rnd():
            return RationalExpr(
                LaurentPoly(
                    a1_seed,
                    {
                        (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(1, 3)
                        for _ in range(2)
                    },
                )
            )

        f, g, h = rnd(), rnd(), rnd()
        assert poisson_bracket(f, g * h, form) == poisson_bracket(f, g, form) * h + g * poisson_bracket(f, h, form)


def test_mutation_maps_preserve_brackets(a1_seed, digon_seed):
    # X side: the canonical structure is preserved by the mutation maps
    for seed in (a1_seed, digon_seed):
        form = omega_from_seed(seed)
        for k in seed.unfrozen:
            t2 = mutate_b(seed, k)
            form2 = omega_from_seed(t2)
            gens = [LaurentPoly.generator(t2, i) for i in range(seed.n)]
            for i in range(seed.n):
                for j in range(i + 1, seed.n):
                    lhs = mutate_expr(poisson_bracket(gens[i], gens[j], form2), seed, k, "X")
                    rhs = poisson_bracket(
                        mutate_expr(gens[i], seed, k, "X"),
                        mutate_expr(gens[j], seed, k, "X"),
                        form,
                    )
                    assert lhs == rhs


def test_mutation_maps_preserve_brackets_a_side(a1_seed):
    form, _ = solve_compatible_lambda(a1_seed, alpha=1)
    k = 0
    t2 = mutate_b(a1_seed, k)
    form2 = mutate_lambda(form, a1_seed, k)
    gens = [LaurentPoly.generator(t2, i) for i in range(2)]
    lhs = mutate_expr(poisson_bracket(gens[0], gens[1], form2), a1_seed, k, "A")
    rhs = poisson_bracket(
        mutate_expr(gens[0], a1_seed, k, "A"),
        mutate_expr(gens[1], a1_seed, k, "A"),
        form,
    )
    assert lhs == rhs


def test_lambda_transport_matches_conjugation(b2_principal):
    form, _ = solve_compatible_lambda(b2_principal)
    seq = (0, 1, 0)
    chain = transport_lambda(form, seq)
    traj = run_trajectory(b2_principal, seq)
    f = traj.f_matrix
    assert f.transpose() * form.lam * f == chain[-1].lam
