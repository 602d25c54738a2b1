import random
from fractions import Fraction

import pytest

from cluster_twist.exact import Infeasible, Matrix
from cluster_twist.laurent import LaurentPoly, pointed_decompose
from cluster_twist.mutation import find_t1, run_trajectory
from cluster_twist.poisson import solve_compatible_lambda, transport_lambda
from cluster_twist.seeds import (
    find_similarities,
    identity_witness,
    make_seed,
    mutate_b,
    mutate_b_along,
)
from cluster_twist.variation import (
    MVariation,
    NVariation,
    apply_variation,
    is_poisson,
    pullback,
    solve_M_variation,
    solve_N_variation,
    transport,
)

from conftest import random_symmetrizable_seed


def digon_n_matrix(seed, lam, mu, v_high):
    rows = [[0] * 4 for _ in range(4)]
    for k in seed.unfrozen:
        rows[k][k] = 1
    vf = [[lam - 1, mu], [lam, mu - 1]]
    for pi, i in enumerate(seed.frozen):
        for pj, j in enumerate(seed.frozen):
            rows[i][j] = vf[pi][pj]
    for pi, i in enumerate(seed.unfrozen):
        for pj, j in enumerate(seed.frozen):
            rows[i][j] = v_high[pi][pj]
    return Matrix(rows)


def test_solve_m_variation_a1(a1_seed):
    end = mutate_b(a1_seed, 0)
    fam = solve_M_variation(a1_seed, end)
    assert fam.dim == 1  # one frozen row, one annihilator direction
    assert fam.contains(Matrix([[1, 0], [-1, -1]]))
    member = fam.member()
    assert member.is_variation()
    # every family member solves the defining system exactly
    rng = random.Random(5)
    for _ in range(5):
        mat = fam.matrix_at([Fraction(rng.randint(-6, 6), rng.randint(1, 3))])
        v = MVariation(a1_seed, end, fam.sigma, mat)
        assert v.is_variation()


def test_solve_m_variation_identity_pair(a1_seed):
    fam = solve_M_variation(a1_seed, a1_seed, identity_witness(a1_seed, a1_seed))
    ident = Matrix.identity(2)
    assert fam.contains(ident)


def test_solve_m_variation_requires_full_rank(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    with pytest.raises(Infeasible):
        solve_M_variation(digon_seed, end)


def test_m_variation_dimension_truth():
    # the free directions are the frozen rows annihilating the exchange
    # columns: |frozen| per row, |frozen| rows
    rng = random.Random(71)
    done = 0
    while done < 12:
        seed = random_symmetrizable_seed(rng, require_full_rank=True)
        if not seed.frozen:
            continue
        k = rng.choice(seed.unfrozen)
        end = mutate_b(seed, k)
        sims = find_similarities(seed, end)
        if not sims:
            continue
        fam = solve_M_variation(seed, end, sims[0])
        nf = seed.partition.n_frozen
        assert fam.dim == nf * nf
        done += 1


def test_solve_n_variation_digon(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    assert fam.dim == 6
    pfam = solve_N_variation(digon_seed, end, poisson=True)
    assert pfam.dim == 5
    # the two-parameter frozen-block family from the worked example is
    # exactly the variation constraint; the displayed upper block is a
    # proper subfamily of the form-preserving members
    for lam, mu in [(0, 0), (1, 1), (2, -1), (-1, 3)]:
        for a, b in [(0, 0), (1, 2), (-1, 1)]:
            mat = digon_n_matrix(digon_seed, lam, mu, [[a, b], [a, b]])
            assert fam.contains(mat)
            assert pfam.contains(mat)
            v = NVariation(digon_seed, end, fam.sigma, mat)
            assert v.is_variation() and is_poisson(v)
    # symmetric-product members beyond the displayed shape are form-preserving
    ident_high = digon_n_matrix(digon_seed, 1, 1, [[1, 0], [0, 1]])
    assert pfam.contains(ident_high)
    assert is_poisson(NVariation(digon_seed, end, fam.sigma, ident_high))
    # breaking the symmetry condition leaves the variation family but not
    # the form-preserving one
    bad = digon_n_matrix(digon_seed, 1, 1, [[1, 0], [0, 0]])
    assert fam.contains(bad)
    assert not pfam.contains(bad)
    assert not is_poisson(NVariation(digon_seed, end, fam.sigma, bad))


def test_solve_n_variation_a1(a1_seed):
    end = mutate_b(a1_seed, 0)
    fam = solve_N_variation(a1_seed, end, poisson=True)
    mat = Matrix([[1, -1], [0, -1]])
    assert fam.contains(mat)
    v = fam.member(fam.coefficients_of(mat))
    assert is_poisson(v)


def test_digon_invertibility_locus(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    for lam in range(-3, 5):
        for mu in range(-3, 5):
            mat = digon_n_matrix(digon_seed, lam, mu, [[0, 0], [0, 0]])
            v = NVariation(digon_seed, end, fam.sigma, mat)
            det = v.v_f.det()
            assert (det in (1, -1)) == (lam + mu in (0, 2))


def test_pullback_examples(a1_seed):
    wit = find_t1(a1_seed)
    var_m = MVariation(a1_seed, wit.trajectory.final, wit.sigma, Matrix([[1, 0], [-1, -1]]))
    var_n = pullback(var_m)
    assert var_n.matrix.inverse() == Matrix([[1, -1], [0, -1]])
    ident = MVariation(a1_seed, a1_seed, identity_witness(a1_seed, a1_seed), Matrix.identity(2))
    assert pullback(ident).matrix == Matrix.identity(2)


def test_pullback_principal(a2_principal):
    traj = run_trajectory(a2_principal, (0, 1, 0))
    sims = find_similarities(a2_principal, traj.final)
    sigma = sims[0]
    m = 2
    p = sigma.uf_matrix()
    var_m = MVariation(
        a2_principal,
        traj.final,
        sigma,
        Matrix.from_blocks([[p, Matrix.zero(m, m)], [Matrix.zero(m, m), traj.c_matrix * p]]),
    )
    var_n = pullback(var_m).inverse()
    expected = Matrix.from_blocks([[p, Matrix.zero(m, m)], [Matrix.zero(m, m), traj.g_matrix * p]])
    assert var_n.matrix == expected


def test_pullback_duality_randomized():
    rng = random.Random(73)
    done = 0
    while done < 10:
        seed = random_symmetrizable_seed(rng, require_full_rank=True)
        if not seed.frozen:
            continue
        k = rng.choice(seed.unfrozen)
        end = mutate_b(seed, k)
        sims = find_similarities(seed, end)
        if not sims:
            continue
        fam = solve_M_variation(seed, end, sims[0])
        mat = fam.matrix_at([rng.randint(-2, 2) for _ in range(fam.dim)])
        v = MVariation(seed, end, sims[0], mat)
        dual = pullback(v)  # asserts the equivalence internally
        assert dual.is_variation() == v.is_variation()
        # a deliberately broken map stays broken through pullback
        rows = mat.to_lists()
        fr = seed.frozen[0]
        rows[fr][seed.unfrozen[0]] += 1
        broken = MVariation(seed, end, sims[0], Matrix(rows))
        if not broken.is_variation():
            assert not pullback(broken).is_variation()
        done += 1


def test_inverse_closure(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    mat = digon_n_matrix(digon_seed, 1, 1, [[2, 1], [2, 1]])
    v = NVariation(digon_seed, end, fam.sigma, mat)
    assert v.is_invertible()
    inv = v.inverse()
    assert inv.is_variation()
    assert is_poisson(inv) == is_poisson(v)
    assert inv.matrix * v.matrix == Matrix.identity(4)


def test_is_poisson_m_side(a1_seed):
    wit = find_t1(a1_seed)
    lam0, _ = solve_compatible_lambda(a1_seed, alpha=1)
    lam1 = transport_lambda(lam0, wit.seq)[-1]
    var_m = MVariation(a1_seed, wit.trajectory.final, wit.sigma, Matrix([[1, 0], [-1, -1]]))
    assert is_poisson(var_m, lam0, lam1)
    # any member of this family preserves the rank-2 form; a scaled frozen
    # block does not
    scaled = MVariation(a1_seed, wit.trajectory.final, wit.sigma, Matrix([[1, 0], [0, -2]]))
    assert not is_poisson(scaled, lam0, lam1)
    with pytest.raises(ValueError):
        is_poisson(var_m)


def test_commuting_square_with_exchange_map(digon_seed):
    # matrix-level: var_m . B(source) = B(target) . var_n holds exactly for
    # the form-preserving members, fails otherwise
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    good = NVariation(digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, 1, 1, [[1, 2], [1, 2]]))
    bad = NVariation(digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, 1, 1, [[1, 2], [0, 2]]))
    for v, expect in ((good, True), (bad, False)):
        var_m = pullback(v).inverse()
        assert (var_m.matrix * digon_seed.b == end.b * v.matrix) == expect
        assert is_poisson(v) == expect


def test_transport_a1(a1_seed):
    wit = find_t1(a1_seed)
    var_m = MVariation(a1_seed, wit.trajectory.final, wit.sigma, Matrix([[1, 0], [-1, -1]]))
    moved = transport(var_m, 0)
    assert moved.is_variation()
    back = transport(moved, 0)
    assert back.matrix == var_m.matrix


def test_transport_identity(a1_seed):
    ident = MVariation(a1_seed, a1_seed, identity_witness(a1_seed, a1_seed), Matrix.identity(2))
    moved = transport(ident, 0)
    assert moved.is_variation()
    assert moved.u_f == Matrix.identity(1)


def test_transport_digon_poisson(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    v = NVariation(digon_seed, end, fam.sigma, digon_n_matrix(digon_seed, 1, 1, [[0, 0], [0, 0]]))
    assert is_poisson(v)
    moved = transport(v, 1)  # asserts preservation internally
    assert is_poisson(moved)


def test_apply_variation_sl3(sl3_seed):
    wit = find_t1(sl3_seed)
    traj = wit.trajectory
    var_m = MVariation(sl3_seed, traj.final, wit.sigma, -traj.f_matrix.inverse())
    img = apply_variation(var_m, LaurentPoly.generator(sl3_seed, 0))
    # unfrozen image is the relabeled generator times a frozen monomial
    assert img == LaurentPoly(traj.final, {(1, 0, -1): 1})
    frozen_img = apply_variation(var_m, LaurentPoly.generator(sl3_seed, 1))
    assert frozen_img.is_monomial()
    assert all(frozen_img.monomial_exp()[i] == 0 for i in sl3_seed.unfrozen)
    # exchange monomials map onto exchange monomials
    pcol = LaurentPoly.monomial(sl3_seed, sl3_seed.b.col(0))
    img_p = apply_variation(var_m, pcol)
    assert img_p == LaurentPoly.monomial(traj.final, traj.final.b.col(wit.sigma.image(0)))


def test_apply_variation_pointed_transport(a2_principal):
    # pointed elements map to pointed elements: degree moves by the matrix,
    # lower-order structure is relabeled
    traj = run_trajectory(a2_principal, (0, 1, 0))
    sims = find_similarities(a2_principal, traj.final)
    sigma = sims[0]
    fam = solve_M_variation(a2_principal, traj.final, sigma)
    v = fam.member()
    from cluster_twist.mutation import expand_cluster_variable

    exp = expand_cluster_variable(a2_principal, (0,), 0, "A")
    f = exp.expr.as_poly()
    img = apply_variation(v, f)
    dec_src = pointed_decompose(f, a2_principal, "A")
    dec_img = pointed_decompose(img, traj.final, "A")
    assert dec_img is not None
    assert list(dec_img.degree) == list(v.matrix.apply(dec_src.degree))
    # F-data is carried through the relabeling of unfrozen positions
    pos_src = {i: p for p, i in enumerate(a2_principal.unfrozen)}
    pos_tgt = {i: p for p, i in enumerate(traj.final.unfrozen)}

    def relabel(exp_tuple):
        out = [0] * len(exp_tuple)
        for i in a2_principal.unfrozen:
            out[pos_tgt[sigma.image(i)]] = exp_tuple[pos_src[i]]
        return tuple(out)

    assert {relabel(e): c for e, c in dec_src.f_terms} == dict(dec_img.f_terms)


def test_variation_shape_validation(a1_seed):
    end = mutate_b(a1_seed, 0)
    wit = find_similarities(a1_seed, end)[0]
    with pytest.raises(ValueError):
        MVariation(a1_seed, end, wit, Matrix([[1, 1], [0, -1]]))  # frozen column hits unfrozen row
    with pytest.raises(ValueError):
        NVariation(a1_seed, end, wit, Matrix([[1, 0], [1, -1]]))  # unfrozen column not a unit


def test_transport_square_depth_three():
    # iterated transport keeps commuting with the mutation maps; each step
    # asserts the expression-level square on all generators
    rng = random.Random(83)
    done = 0
    while done < 6:
        seed = random_symmetrizable_seed(rng, n=rng.randint(2, 4), require_full_rank=True)
        if not seed.frozen:
            continue
        k0 = rng.choice(seed.unfrozen)
        end = mutate_b(seed, k0)
        sims = find_similarities(seed, end)
        if not sims:
            continue
        fam = solve_M_variation(seed, end, sims[0])
        cur = fam.member()
        for _ in range(3):
            cur = transport(cur, rng.choice(cur.source.unfrozen))
        assert cur.is_variation()
        done += 1


def test_family_rejects_unknown_parameters(a1_seed):
    end = mutate_b(a1_seed, 0)
    fam = solve_M_variation(a1_seed, end)
    with pytest.raises(ValueError):
        fam.matrix_at({"nu": 1})


def test_variation_families_without_frozen_vertices():
    # no frozen rows or columns to solve for: the family is the relabeling
    seed = make_seed([[0, 1], [-1, 0]])
    end = mutate_b_along(seed, (1, 0))[-1]
    families = (
        solve_M_variation(seed, end),
        solve_N_variation(seed, end),
        solve_N_variation(seed, end, poisson=True),
    )
    for fam in families:
        assert fam.dim == 0
        assert fam.particular == fam.sigma.full_matrix()
        assert fam.member().is_variation()
