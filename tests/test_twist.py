import random
import sys
from itertools import product

import pytest

from cluster_twist.exact import Matrix
from cluster_twist.laurent import LaurentPoly, RationalExpr, pointed_decompose
from cluster_twist.mutation import expand_cluster_variable, find_t1, run_trajectory
from cluster_twist.seeds import find_similarities, make_seed, mutate_b_along, principal_seed
from cluster_twist.twist import (
    apply_twist,
    build_dt_twist,
    build_principal_twist,
    invert_twist,
    make_twist,
    p_commutation_check,
    partner_twist,
    principal_composite_matrices,
    twist_roundtrip,
    verify_twist,
)
from cluster_twist.variation import NVariation, is_poisson, solve_N_variation

from test_variation import digon_n_matrix


def test_dt_twist_a1(a1_seed):
    pair = build_dt_twist(a1_seed)
    assert pair.tw_a.variation.matrix == Matrix([[1, 0], [-1, -1]])
    assert pair.tw_x.variation.matrix == Matrix([[1, -1], [0, -1]])
    # the degree identification composed with the variation is minus one
    traj = pair.trajectory
    assert traj.f_matrix * pair.tw_a.variation.matrix == -Matrix.identity(2)
    assert traj.e_matrix * pair.tw_x.variation.matrix == -Matrix.identity(2)


def test_dt_twist_sl3_images(sl3_seed):
    pair = build_dt_twist(sl3_seed)
    g = [LaurentPoly.generator(sl3_seed, i) for i in range(3)]
    assert apply_twist(pair.tw_a, g[0]).render("A") == "A1^-1*A2*A3^-1 + A1^-1"
    assert apply_twist(pair.tw_a, g[1]).render("A") == "A2^-1"
    assert apply_twist(pair.tw_a, g[2]).render("A") == "A3^-1"
    a1_prime = expand_cluster_variable(sl3_seed, pair.tw_a.seq, 0, "A").expr
    assert apply_twist(pair.tw_a, a1_prime).render("A") == "A1*A2^-1"


def test_dt_twist_digon_member(digon_seed):
    pair = build_dt_twist(digon_seed)
    v = pair.tw_x.variation
    # canonical construction: negated identity blocks on the frozen part
    assert v.v_f == -Matrix.identity(2)
    assert v.v_high == -Matrix.identity(2)
    assert is_poisson(v)
    assert pair.lam_base is None  # no compatible A-side form exists here


def test_dt_route_independence(a2_principal):
    # two different goal sequences induce the same permutation of the
    # unfrozen cluster variables: images differ by frozen monomials only
    routes = []
    for seq in product(a2_principal.unfrozen, repeat=2):
        traj = run_trajectory(a2_principal, seq)
        from cluster_twist.mutation import _negated_permutation

        if _negated_permutation(traj.c_matrix):
            routes.append(seq)
    seq3 = [s for s in product(a2_principal.unfrozen, repeat=3) if _is_goal(a2_principal, s)]
    routes.extend(seq3)
    assert len(routes) >= 2
    pairs = []
    for seq in routes[:2]:
        traj = run_trajectory(a2_principal, seq)
        sims = find_similarities(a2_principal, traj.final)
        var_m = None
        from cluster_twist.variation import MVariation

        wit = [w for w in sims if _matches_c(traj, w, a2_principal)]
        assert wit
        var_m = MVariation(a2_principal, traj.final, wit[0], -traj.f_matrix.inverse())
        pairs.append(make_twist(a2_principal, seq, var_m, kind="dt"))
    tw1, tw2 = pairs
    for i in a2_principal.unfrozen:
        img1 = apply_twist(tw1, LaurentPoly.generator(a2_principal, i))
        img2 = apply_twist(tw2, LaurentPoly.generator(a2_principal, i))
        ratio = img1 / img2
        assert ratio.is_laurent() and ratio.num.is_monomial()
        exp = ratio.num.monomial_exp()
        assert all(exp[j] == 0 for j in a2_principal.unfrozen)


def _is_goal(seed, seq):
    from cluster_twist.mutation import _negated_permutation

    traj = run_trajectory(seed, seq)
    return _negated_permutation(traj.c_matrix) is not None


def _matches_c(traj, witness, seed):
    uf = seed.unfrozen
    pos = {i: p for p, i in enumerate(uf)}
    for k in uf:
        col = traj.c_matrix.col(pos[witness.image(k)])
        want = tuple(-1 if i == pos[k] else 0 for i in range(len(uf)))
        if col != want:
            return False
    return True


def test_invert_twist_roundtrip(sl3_seed, a1_seed):
    pair = build_dt_twist(sl3_seed)
    inv = invert_twist(pair.tw_a)
    for i in range(3):
        f = LaurentPoly.generator(sl3_seed, i)
        assert twist_roundtrip(pair.tw_a, inv, f) == RationalExpr(f)
    pa1 = build_dt_twist(a1_seed)
    inv1 = invert_twist(pa1.tw_a)
    f = LaurentPoly.generator(a1_seed, 0)
    assert twist_roundtrip(pa1.tw_a, inv1, f) == RationalExpr(f)
    # X side as well
    invx = invert_twist(pa1.tw_x)
    g = LaurentPoly.generator(a1_seed, 1)
    assert twist_roundtrip(pa1.tw_x, invx, g) == RationalExpr(g)


def test_identity_twist(a1_seed):
    from cluster_twist.seeds import identity_witness
    from cluster_twist.variation import MVariation

    ident = MVariation(a1_seed, a1_seed, identity_witness(a1_seed, a1_seed), Matrix.identity(2))
    spec = make_twist(a1_seed, (), ident, kind="custom")
    f = RationalExpr(
        LaurentPoly(a1_seed, {(1, 0): 1, (0, 0): 2}),
        LaurentPoly(a1_seed, {(0, 1): 1, (0, 0): 1}),
    )
    assert apply_twist(spec, f) == f
    inv = invert_twist(spec)
    assert twist_roundtrip(spec, inv, f) == f
    rep = verify_twist(spec, check_p_commutation=True, check_homomorphism=4)
    assert rep["ok"]


def test_principal_twist_empty_sequence(a2_principal):
    pair = build_principal_twist(a2_principal, ())
    assert pair.tw_a.variation.matrix == Matrix.identity(4)
    assert pair.tw_x.variation.matrix == Matrix.identity(4)
    f = LaurentPoly.generator(a2_principal, 0)
    assert apply_twist(pair.tw_a, f) == RationalExpr(f)
    rep = verify_twist(pair.tw_a, check_poisson=True, lam=pair.lam_base, check_homomorphism=4)
    assert rep["ok"]


def test_principal_twist_wrong_shape(a1_seed):
    with pytest.raises(ValueError):
        build_principal_twist(a1_seed, (0,))


def test_principal_twist_endpoint_not_similar(b2_principal):
    # a single step flips the unfrozen block, and the unequal symmetrizers
    # rule out the transposition as a relabeling
    from cluster_twist.exact import Infeasible

    with pytest.raises(Infeasible):
        build_principal_twist(b2_principal, (0,))


def test_twists_reuse_the_seeds_of_their_path(monkeypatch):
    # both twists of a pair take the seeds of the path from its trajectory;
    # beyond the search (or the trajectory), only the transport of the
    # compatible form mutates along the path again
    import cluster_twist
    from cluster_twist import seeds

    from test_mutation import BIPARTITE_A4

    original = seeds.mutate_b
    calls = []

    def counting(seed, k):
        calls.append(k)
        return original(seed, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("cluster_twist.") or module is cluster_twist:
            for binding, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, binding, counting)

    t0 = principal_seed(BIPARTITE_A4, (1, 1, 1, 1))
    witness = find_t1(t0)
    search = len(calls)
    calls.clear()
    pair = build_dt_twist(t0)
    assert pair.trajectory.seq == witness.seq
    assert len(calls) <= search + len(witness.seq)
    assert len(calls) <= 168
    assert pair.tw_a.seeds == pair.tw_x.seeds == pair.trajectory.seeds

    a2 = principal_seed([[0, 1], [-1, 0]], (1, 1))
    seq = (0, 1, 0, 1, 0)
    calls.clear()
    pair = build_principal_twist(a2, seq)
    assert len(calls) == 2 * len(seq)
    assert pair.tw_a.seeds == pair.tw_x.seeds == mutate_b_along(a2, seq)


def test_principal_composites(b2_principal):
    pair = build_principal_twist(b2_principal, (0, 1, 0, 1))
    comp = principal_composite_matrices(pair)
    assert comp.via_a == comp.via_x
    assert comp.undressed == comp.expected
    m = 2
    assert comp.expected == Matrix.from_blocks(
        [
            [pair.tw_a.other.uf_block(pair.tw_a.other.b), -Matrix.identity(m)],
            [pair.trajectory.c_matrix, Matrix.zero(m, m)],
        ]
    )


def test_verify_twist_poisson_digon_regimes(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    good = fam.member(fam.coefficients_of(digon_n_matrix(digon_seed, 1, 1, [[0, 0], [0, 0]])))
    spec = make_twist(digon_seed, (3, 1), good, kind="custom")
    rep = verify_twist(spec, check_poisson=True, check_p_commutation=True, check_homomorphism=4)
    assert rep["poisson"] and rep["p_commutation"] and rep["homomorphism"]
    bad_mat = digon_n_matrix(digon_seed, 1, 1, [[1, 0], [0, 0]])
    bad = NVariation(digon_seed, end, fam.sigma, bad_mat)
    spec_bad = make_twist(digon_seed, (3, 1), bad, kind="custom")
    rep_bad = verify_twist(spec_bad, check_poisson=True, check_p_commutation=True)
    assert not rep_bad["poisson"] and not rep_bad["p_commutation"]


def test_verify_twist_basis_permutation_sl3(sl3_seed):
    pair = build_dt_twist(sl3_seed)
    a1_var = LaurentPoly.generator(sl3_seed, 0)
    a1_prime = expand_cluster_variable(sl3_seed, pair.tw_a.seq, 0, "A").expr.as_poly()
    rep = verify_twist(pair.tw_a, basis_family=[("A1", a1_var), ("A1p", a1_prime)])
    bp = rep["basis_permutation"]
    assert bp["ok"] and bp["bijective"]
    assert bp["assignment"]["A1"][0] == "A1p"
    assert bp["assignment"]["A1p"][0] == "A1"


def test_twist_images_are_pointed_with_relabeled_f_data(sl3_seed):
    # images of cluster variables are pointed; their lower-order data
    # agrees with the corresponding target variable's
    pair = build_dt_twist(sl3_seed)
    img = apply_twist(pair.tw_a, LaurentPoly.generator(sl3_seed, 0))
    dec = pointed_decompose(img.as_poly(), sl3_seed, "A")
    target = expand_cluster_variable(sl3_seed, pair.tw_a.seq, pair.tw_a.sigma.image(0), "A")
    assert dec is not None
    assert dict(dec.f_terms) == dict(target.pointed.f_terms)


def test_p_commutation_matches_matrix_identity(digon_seed):
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    fam = solve_N_variation(digon_seed, end)
    rng = random.Random(81)
    checked_true = checked_false = 0
    while checked_true < 3 or checked_false < 3:
        lam, mu = rng.randint(-1, 2), rng.randint(-1, 2)
        vh = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)]
        mat = digon_n_matrix(digon_seed, lam, mu, vh)
        v = NVariation(digon_seed, end, fam.sigma, mat)
        if not v.is_invertible():
            continue
        spec = make_twist(digon_seed, (3, 1), v, kind="custom")
        expected = is_poisson(v)
        assert p_commutation_check(spec) == expected
        matrix_level = pullback_identity(v, digon_seed, end)
        assert matrix_level == expected
        if expected:
            checked_true += 1
        else:
            checked_false += 1


def pullback_identity(v, source, target):
    from cluster_twist.variation import pullback

    var_m = pullback(v).inverse()
    return var_m.matrix * source.b == target.b * v.matrix


def test_partner_twist_duality(a1_seed):
    pair = build_dt_twist(a1_seed)
    partner = partner_twist(pair.tw_a)
    assert partner.side == "X"
    assert partner.variation.matrix == pair.tw_x.variation.matrix


def test_verify_twist_poisson_sl3_both_sides(sl3_seed):
    pair = build_dt_twist(sl3_seed)
    rep_a = verify_twist(pair.tw_a, check_poisson=True, lam=pair.lam_base, check_homomorphism=4)
    assert rep_a["ok"]
    rep_x = verify_twist(pair.tw_x, check_poisson=True, check_p_commutation=True)
    assert rep_x["ok"]


@pytest.mark.parametrize(
    "b, seq",
    [([[0, 1], [-1, 0]], (1, 0)), ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], (2, 1, 0))],
    ids=["rank-2", "linear-A3"],
)
def test_dt_twist_without_frozen_vertices(b, seq):
    seed = make_seed(b)
    pair = build_dt_twist(seed)
    assert pair.trajectory.seq == seq
    full_rank = len(b) % 2 == 0  # a skew matrix of odd size is singular
    assert (pair.lam_base is not None) == full_rank
    rep_x = verify_twist(pair.tw_x, check_poisson=True, check_p_commutation=True, check_homomorphism=3)
    assert rep_x["ok"], rep_x
    rep_a = verify_twist(
        pair.tw_a,
        check_poisson=full_rank,
        lam=pair.lam_base,
        check_p_commutation=True,
        check_homomorphism=3,
    )
    assert rep_a["ok"], rep_a
