import random
from fractions import Fraction

import pytest

from cluster_twist.exact import Infeasible, Matrix
from cluster_twist.laurent import LaurentPoly, RationalExpr
from cluster_twist.mutation import mutate_expr, run_trajectory, trans_matrix
from cluster_twist.poisson import (
    LambdaForm,
    OmegaForm,
    check_lambda_omega_link,
    mutate_lambda,
    omega_from_seed,
    poisson_bracket,
    solve_compatible_lambda,
    transport_lambda,
)
from cluster_twist.seeds import make_seed, mutate_b, principal_seed

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
            form, _ = solve_compatible_lambda(seed)
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


def test_omega_keeps_the_callers_seed():
    # seeds equal in content compare equal whatever their labels, so the
    # form must come back around the very seed object that was passed in
    rows = [[0, 1, 0], [-2, 0, 1], [0, -1, 0]]
    first = make_seed(rows, frozen=[2], d=[1, 2, 2], labels=["a", "b", "c"])
    second = make_seed(rows, frozen=[2], d=[1, 2, 2], labels=["x", "y", "z"])
    assert first == second
    forms = [omega_from_seed(first), omega_from_seed(second)]
    assert forms[0].seed is first and forms[1].seed is second
    assert [f.seed.labels for f in forms] == [("a", "b", "c"), ("x", "y", "z")]
    assert forms[0].w == forms[1].w


def test_check_lambda_omega_link(a1_seed):
    form, _ = solve_compatible_lambda(a1_seed, alpha=1)
    assert check_lambda_omega_link(form, a1_seed)["ok"]
    corrupted = LambdaForm(a1_seed, Matrix([[0, -1], [1, 0]]), 1)
    assert not check_lambda_omega_link(corrupted, a1_seed)["ok"]


# -- reference bracket: a biderivation from formal partial derivatives --------


def _partial(poly: LaurentPoly, i: int) -> LaurentPoly:
    out = {}
    for e, c in poly.terms.items():
        if e[i] == 0:
            continue
        ne = list(e)
        ne[i] = e[i] - 1
        key = tuple(ne)
        nc = out.get(key, 0) + c * e[i]
        if nc == 0:
            out.pop(key, None)
        else:
            out[key] = nc
    return LaurentPoly(poly.seed, out, validate=False)


def _partial_expr(expr: RationalExpr, i: int) -> RationalExpr:
    da = _partial(expr.num, i)
    db = _partial(expr.den, i)
    return RationalExpr(da * expr.den - expr.num * db, expr.den * expr.den)


def reference_bracket(f: RationalExpr, g: RationalExpr, form) -> RationalExpr:
    """{f, g} = sum over i < j of C_ij x_i x_j (d_i f d_j g - d_j f d_i g),
    with C = -W or Lambda: the log-canonical bracket extended to fractions
    through formal partial derivatives and the quotient rule."""
    cmat = -form.w if isinstance(form, OmegaForm) else form.lam
    seed = form.seed
    n = seed.n
    out = RationalExpr(LaurentPoly.zero(seed))
    pf = [_partial_expr(f, i) for i in range(n)]
    pg = [_partial_expr(g, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cij = cmat[i, j]
            if cij == 0:
                continue
            xij = [0] * n
            xij[i] += 1
            xij[j] += 1
            mono = RationalExpr(LaurentPoly.monomial(seed, xij, cij))
            out = out + mono * (pf[i] * pg[j] - pf[j] * pg[i])
    return out


def _random_oracle_seed(rng, principal):
    """A rank 2-4 seed: principal coefficients, or one frozen vertex."""
    r = rng.randint(2, 4)
    d = [rng.choice((1, 1, 2)) for _ in range(r + (0 if principal else 1))]
    s = [[0] * len(d) for _ in d]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            s[i][j] = rng.randint(-2, 2)
            s[j][i] = -s[i][j]
    b = [[d[i] * s[i][j] for j in range(len(d))] for i in range(len(d))]
    if principal:
        return principal_seed(b, d)
    return make_seed(b, frozen=[r], d=d)


def _random_oracle_poly(rng, seed, n_terms, rational_frozen):
    terms = {}
    for _ in range(n_terms):
        e = [rng.randint(-1, 1) for _ in range(seed.n)]
        if rational_frozen:
            i = rng.choice(seed.frozen)
            e[i] = Fraction(rng.choice((-3, -1, 1, 3)), 2)
        terms[tuple(e)] = rng.choice((-2, -1, 1, 2, Fraction(1, 3)))
    return LaurentPoly(seed, terms)


def test_bracket_matches_quotient_rule_reference():
    # the log-canonical bracket against the quotient-rule reference on
    # random fractions over rank 2-4 seeds, with both kinds of form
    rng = random.Random(20261018)
    pairs = 0
    seen = {"omega": 0, "lambda": 0, "den_one": 0, "den_poly": 0, "rational": 0, "principal": 0, "one_frozen": 0}
    while pairs < 64:
        principal = pairs % 4 < 2
        seed = _random_oracle_seed(rng, principal)
        forms = [omega_from_seed(seed)]
        try:
            forms.append(solve_compatible_lambda(seed)[0])
        except Infeasible:
            pass
        for form in forms:
            operands = []
            for _ in range(2):
                rational = rng.random() < 0.3
                num = _random_oracle_poly(rng, seed, rng.randint(1, 2), rational)
                # the reference's denominator grows with every pair i < j, so
                # both operands are fractions only on the smallest seeds
                fraction = rng.random() < 0.6 and (seed.n <= 4 or not operands or operands[0].is_laurent())
                den = _random_oracle_poly(rng, seed, 2, rational) if fraction else None
                if den is not None and den.is_monomial():
                    den = None
                expr = RationalExpr(num, den)
                seen["den_one" if expr.den.is_one() else "den_poly"] += 1
                seen["rational"] += rational
                operands.append(expr)
            f, g = operands
            assert poisson_bracket(f, g, form) == reference_bracket(f, g, form), (seed, form, f, g)
            seen["lambda" if isinstance(form, LambdaForm) else "omega"] += 1
            seen["principal" if principal else "one_frozen"] += 1
            pairs += 1
    assert all(count >= 8 for count in seen.values()), seen


def test_lambda_form_must_be_skew(a1_seed):
    # the bracket reads all of a^T Lambda b, so a form that is not skew
    # would change its answers silently
    with pytest.raises(ValueError):
        LambdaForm(a1_seed, Matrix([[0, 1], [1, 0]]), 1)
    with pytest.raises(ValueError):
        LambdaForm(a1_seed, Matrix([[0, 1, 0], [-1, 0, 0]]), 1)
    assert LambdaForm(a1_seed, Matrix([[0, 1], [-1, 0]]), 1).alpha == 1


def test_lambda_form_alpha_must_be_positive(a1_seed, a2_principal):
    from cluster_twist.twist import build_principal_twist

    lam = Matrix([[0, 1], [-1, 0]])
    for alpha in (0, -1, True, Fraction(1), 1.0):
        with pytest.raises(ValueError, match="alpha"):
            LambdaForm(a1_seed, lam, alpha)
    for alpha in (0, -1):
        with pytest.raises(ValueError, match="alpha"):
            solve_compatible_lambda(a1_seed, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            build_principal_twist(a2_principal, (0,), alpha=alpha)


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
        coeff = -form.w.bilinear(n1, n2)
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


# -- reference solver: the alpha scan with its rescaling fallback -------------


def reference_compatible_lambda(seed, alpha=None, alpha_bound=64):
    """Integer skew form compatible with the seed, plus the family dimension:
    the solve repeated for alpha = lcm(d_uf) * m, m = 1..alpha_bound, then a
    rescaled rational solution when no multiple has an integral member."""
    from math import lcm

    from cluster_twist.exact import InternalConsistencyError, integer_solution, solve_affine
    from cluster_twist.poisson import _compatibility_residual

    n = seed.n
    bt = seed.b_tilde()
    if bt.rank() < seed.partition.n_unfrozen:
        raise Infeasible("no compatible form: exchange columns are rank-deficient")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for i in range(n):
        for pos in range(seed.partition.n_unfrozen):
            row = []
            for (a, b) in pairs:
                coeff = 0
                if a == i:
                    coeff += bt[b, pos]
                if b == i:
                    coeff -= bt[a, pos]
                row.append(coeff)
            rows.append(row)
    coeffs = Matrix(rows).transpose()

    def rhs_for(alpha_val):
        vals = []
        for i in range(n):
            for pos, k in enumerate(seed.unfrozen):
                vals.append(-Fraction(alpha_val, seed.d[k]) if i == k else 0)
        return Matrix([vals])

    def assemble(vec):
        m = [[0] * n for _ in range(n)]
        for (a, b), v in zip(pairs, vec):
            m[a][b] = v
            m[b][a] = -v
        return Matrix(m)

    base = 1
    for k in seed.unfrozen:
        base = lcm(base, seed.d[k])
    candidates = [alpha] if alpha is not None else [base * m for m in range(1, alpha_bound + 1)]
    last_family = None
    for alpha_val in candidates:
        try:
            family = solve_affine(coeffs, rhs_for(alpha_val))
        except Infeasible:
            continue
        last_family = family
        member = integer_solution(family.particular, family.nullspace_basis)
        if member is None:
            continue
        lam = assemble(member.rows[0])
        if not _compatibility_residual(seed, lam, alpha_val):
            raise InternalConsistencyError("integer member of the family is not compatible")
        return LambdaForm(seed, lam, alpha_val), family.dim
    if alpha is None and last_family is not None:
        family = solve_affine(coeffs, rhs_for(base))
        scale = family.particular.denominator_lcm()
        lam = assemble(family.particular.scale(scale).rows[0])
        if not _compatibility_residual(seed, lam, base * scale):
            raise InternalConsistencyError("rescaled rational solution is not compatible")
        return LambdaForm(seed, lam, base * scale), family.dim
    if last_family is not None:
        raise Infeasible("no integer-valued compatible form for the requested alpha")
    raise Infeasible("compatibility equations are inconsistent")


def _lambda_or_infeasible(solver, seed, alpha):
    try:
        form, dim = solver(seed, alpha)
    except Infeasible:
        return None
    return form.lam, form.alpha, dim


def test_compatible_lambda_matches_alpha_scan():
    # one solve at alpha = lcm(d_uf) against the scan over its multiples, on
    # random seeds whose smallest admissible alpha is often a proper multiple
    from math import lcm

    from cluster_twist.poisson import _compatibility_residual

    rng = random.Random(20261019)
    seeds = [random_symmetrizable_seed(rng, d_choices=(1, 1, 2, 3), spread=3) for _ in range(100)]
    while len(seeds) < 130:
        r = rng.randint(2, 3)
        d = [rng.choice((1, 2, 3)) for _ in range(r)]
        s = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                s[i][j] = rng.randint(-2, 2)
                s[j][i] = -s[i][j]
        seeds.append(principal_seed([[d[i] * s[i][j] for j in range(r)] for i in range(r)], d))
    above_base = 0
    for seed in seeds:
        base = lcm(*(seed.d[k] for k in seed.unfrozen))
        for alpha in (None, 1, 2, 6):
            got = _lambda_or_infeasible(solve_compatible_lambda, seed, alpha)
            want = _lambda_or_infeasible(reference_compatible_lambda, seed, alpha)
            if alpha is None and want is not None and want[1] > 64 * base:
                # the reference rescaled a rational solution: its alpha is a
                # multiple of the smallest one
                assert got is not None and want[1] % got[1] == 0 and got[2] == want[2], (seed, got, want)
                assert got[0].is_integral() and _compatibility_residual(seed, got[0], got[1]), (seed, got)
            else:
                assert got == want, (seed, alpha, got, want)
            if alpha is None and got is not None and got[1] > base:
                above_base += 1
    assert above_base >= 10, above_base
