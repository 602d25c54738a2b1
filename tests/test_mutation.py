import random
from math import gcd

import pytest

from cluster_twist.exact import Matrix, NotFound
from cluster_twist.laurent import LaurentPoly, RationalExpr
from cluster_twist.mutation import (
    expand_cluster_variable,
    find_t1,
    hamiltonian_decompose_check,
    mutate_expr,
    pullback_sequence,
    pushforward_sequence,
    relabel_expr,
    rho_expr,
    run_trajectory,
    trans_matrix,
    verify_matrix_identities,
)
from cluster_twist.seeds import make_seed, mutate_b, mutate_b_along, principal_seed, validate

from conftest import random_symmetrizable_seed, random_sequence


def test_trans_matrix_examples(a1_seed):
    pn = trans_matrix(a1_seed, 0, 1, "N").matrix
    pm = trans_matrix(a1_seed, 0, 1, "M").matrix
    assert pn == Matrix([[-1, 1], [0, 1]])
    assert pm == Matrix([[-1, 0], [1, 1]])
    assert pn * pn == Matrix.identity(2)
    assert pm * pm == Matrix.identity(2)
    with pytest.raises(ValueError):
        trans_matrix(a1_seed, 1, 1, "N")


def test_matrix_identities_a1(a1_seed):
    rep = verify_matrix_identities(a1_seed, 0, 1, lam=a1_seed.b)
    assert rep["ok"], rep


def test_matrix_identities_randomized():
    rng = random.Random(17)
    for _ in range(40):
        seed = random_symmetrizable_seed(rng, spread=3)
        k = rng.choice(seed.unfrozen)
        eps = rng.choice((1, -1))
        rep = verify_matrix_identities(seed, k, eps)
        assert rep["ok"], (seed, k, eps, rep)
        # explicit form of the inverse relation between the two signs
        t2 = mutate_b(seed, k)
        for letter in "NM":
            fwd = trans_matrix(seed, k, eps, letter).matrix
            back = trans_matrix(t2, k, -eps, letter).matrix
            assert back * fwd == Matrix.identity(seed.n)


def test_mutate_expr_goldens(a1_seed, digon_seed):
    t2 = mutate_b(a1_seed, 0)
    img = mutate_expr(LaurentPoly.generator(t2, 0), a1_seed, 0, "A")
    assert img.render("A") == "A1^-1*A2 + A1^-1"
    imgx = mutate_expr(LaurentPoly.generator(t2, 1), a1_seed, 0, "X")
    assert imgx.render("X") == "(X1*X2) / (X1 + 1)"
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    got = pullback_sequence(
        LaurentPoly.generator(end, 0), mutate_b_along(digon_seed, (3, 1)), (3, 1), "X"
    )
    assert got.render("X") == "(X1*X2*X4 + X1*X2) / (X2 + 1)"


def test_mutate_expr_roundtrip_randomized():
    rng = random.Random(23)
    for _ in range(25):
        seed = random_symmetrizable_seed(rng, spread=2)
        k = rng.choice(seed.unfrozen)
        t2 = mutate_b(seed, k)
        back_seed = mutate_b(t2, k)  # content-equal to seed
        for side in "AX":
            for i in range(seed.n):
                f = LaurentPoly.generator(seed, i)
                up = mutate_expr(relabel_expr(f, back_seed), t2, k, side)
                down = mutate_expr(up, seed, k, side)
                assert down == RationalExpr(f), (seed, k, side, i)


def test_hamiltonian_decomposition_small(a1_seed, digon_seed):
    for seed in (a1_seed, digon_seed):
        for side in "AX":
            for eps in (1, -1):
                for k in seed.unfrozen:
                    assert hamiltonian_decompose_check(seed, k, eps, side)["ok"]


def test_rho_fixes_flow_direction(a1_seed):
    # the flow leaves its own exponent direction untouched
    xk = LaurentPoly.generator(a1_seed, 0)
    assert rho_expr(xk, a1_seed, 0, 1, "X") == RationalExpr(xk)
    ak = LaurentPoly.generator(a1_seed, 1)
    assert rho_expr(ak, a1_seed, 0, 1, "A") == RationalExpr(ak)


def test_run_trajectory_a1(a1_seed):
    traj = run_trajectory(a1_seed, (0,))
    assert traj.e_matrix == Matrix([[-1, 1], [0, 1]])
    assert traj.f_matrix == Matrix([[-1, 0], [1, 1]])
    assert traj.signs == (1,)
    empty = run_trajectory(a1_seed, ())
    assert empty.e_matrix == Matrix.identity(2)
    assert empty.f_matrix == Matrix.identity(2)


def brute_force_exchange_graph(seed, max_depth=6):
    """Breadth-first closure of the labeled exchange graph, recording the
    reached exchange matrices; independent of the trajectory machinery."""
    from collections import deque

    start = seed.b
    seen = {start}
    frontier = deque([seed])
    while frontier:
        cur = frontier.popleft()
        for k in cur.unfrozen:
            nxt = mutate_b(cur, k)
            if nxt.b not in seen:
                seen.add(nxt.b)
                frontier.append(nxt)
    return seen


def test_a2_period_five():
    a2 = make_seed([[0, 1], [-1, 0]], frozen=[])
    graph = brute_force_exchange_graph(a2)
    assert len(graph) == 2  # B and -B only, by direct enumeration
    # five alternating steps return the exchange matrix up to the vertex
    # transposition: the endpoint is the initial seed relabeled
    traj = run_trajectory(a2, (0, 1, 0, 1, 0))
    assert traj.final.b == -a2.b
    from cluster_twist.seeds import find_similarities

    sims = find_similarities(a2, traj.final)
    assert ((0, 1), (1, 0)) in [w.pairs for w in sims]
    assert traj.c_matrix == Matrix([[0, 1], [1, 0]])
    assert traj.g_matrix == Matrix([[0, 1], [1, 0]])
    # ten alternating steps give the genuine identity
    full = run_trajectory(a2, (0, 1) * 5)
    assert full.e_matrix == Matrix.identity(2)
    assert full.f_matrix == Matrix.identity(2)
    assert full.final.b == a2.b


def test_trajectory_identities_on_corpus_sample(corpus):
    # spot check here; the acceptance suite runs the full corpus
    from cluster_twist.poisson import omega_from_seed

    for seed, seq in corpus[:20]:
        traj = run_trajectory(seed, seq)
        e, f = traj.e_matrix, traj.f_matrix
        dmat = seed.d_inverse_matrix()
        assert e.transpose() == dmat * f.inverse() * dmat.inverse()
        assert f * traj.final.b * e.inverse() == seed.b
        w0 = omega_from_seed(seed).w
        assert e.transpose() * w0 * e == omega_from_seed(traj.final).w


def test_c_g_matrices_ignore_frozen_rows():
    rng = random.Random(29)
    for _ in range(10):
        seed = random_symmetrizable_seed(rng, spread=2)
        if not seed.frozen:
            continue
        seq = random_sequence(rng, seed, max_len=4)
        traj = run_trajectory(seed, seq)
        # perturb the frozen rows of the exchange matrix
        rows = seed.b.to_lists()
        for j in seed.frozen:
            for k in seed.unfrozen:
                rows[j][k] += rng.randint(-1, 1)
        try:
            altered = make_seed(rows, frozen=seed.frozen, d=None)
        except ValueError:
            continue
        traj2 = run_trajectory(altered, seq)
        assert traj2.c_matrix == traj.c_matrix
        assert traj2.g_matrix == traj.g_matrix


def test_expand_cluster_variable_goldens(a1_seed, sl3_seed):
    exp = expand_cluster_variable(a1_seed, (0,), 0, "A")
    assert exp.expr.render("A") == "A1^-1*A2 + A1^-1"
    assert exp.pointed.degree == (-1, 1)
    assert exp.pointed.f_constant() == 1
    frozen = expand_cluster_variable(a1_seed, (0,), 1, "A")
    assert frozen.expr.render("A") == "A2"
    assert frozen.pointed.degree == (0, 1)
    sl3 = expand_cluster_variable(sl3_seed, (0,), 0, "A")
    assert sl3.expr.render("A") == "A1^-1*A2 + A1^-1*A3"
    assert sl3.pointed.degree == (-1, 0, 1)
    x2 = expand_cluster_variable(a1_seed, (0,), 1, "X")
    assert x2.ratio.degree == (1, 1)
    x1 = expand_cluster_variable(a1_seed, (0,), 0, "X")
    assert x1.ratio.degree == (-1, 0)


def test_expand_x_side_degree_on_small_corpus(corpus):
    for seed, seq in corpus[:12]:
        short = seq[:3]
        for i in range(seed.n):
            exp = expand_cluster_variable(seed, short, i, "X")
            traj = exp.trajectory
            assert list(exp.ratio.degree) == list(traj.e_matrix.col(i))
            # both parts normalized with constant term one
            assert dict(exp.ratio.p_terms).get((0,) * seed.partition.n_unfrozen) == 1
            assert dict(exp.ratio.q_terms).get((0,) * seed.partition.n_unfrozen) == 1


def test_find_t1_examples(a1_seed, digon_seed):
    w = find_t1(a1_seed)
    assert w.seq == (0,)
    assert w.sigma.is_identity()
    assert w.c_matrix == Matrix([[-1]])
    wd = find_t1(digon_seed)
    assert len(wd.seq) == 2 and sorted(wd.seq) == [1, 3]
    assert wd.sigma.is_identity()
    # two unfrozen vertices: the sink-first order reaches the goal in two
    # steps; the source-first order needs three and ends with the vertex
    # transposition -- both are valid endpoints
    a2 = make_seed([[0, 1], [-1, 0]], frozen=[])
    wa = find_t1(a2)
    assert len(wa.seq) == 2 and wa.sigma.is_identity()
    long_way = run_trajectory(a2, (0, 1, 0))
    assert long_way.c_matrix == Matrix([[0, -1], [-1, 0]])  # minus the transposition


def test_find_t1_not_found():
    # the once-punctured-torus pattern admits no green-to-red sequence
    markov = make_seed([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], frozen=[])
    with pytest.raises(NotFound) as info:
        find_t1(markov, max_depth=5)
    # every mutation of the Markov quiver doubles its arrows' signs only, so
    # the tree of sequences without immediate repeats is searched: 1 + 3 + 6
    # + 12 + 24 nodes below depth 5, each of whose children undoing the
    # parent's step is a dedup hit
    assert str(info.value) == (
        "no green-to-red endpoint within depth 5 "
        "(46 nodes expanded, 45 dedup hits, peak frontier 48)"
    )


@pytest.mark.parametrize("depth", [-1, 1.5, "3", True])
def test_find_t1_rejects_bad_depth(a1_seed, depth):
    with pytest.raises(ValueError):
        find_t1(a1_seed, max_depth=depth)


def random_principal_seed(rng, rank):
    """Principal-coefficient extension of a random skew-symmetrizable
    exchange matrix of the given rank."""
    d = [rng.choice((1, 1, 2)) for _ in range(rank)]
    b = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            v = rng.randint(-1, 1)
            b[i][j], b[j][i] = d[i] * v, -d[j] * v
    return principal_seed(b, d)


def replay(t0, seq):
    """Degree matrices and signs along ``seq`` from the transition matrices
    of the seeds ``mutate_b_along`` visits, independent of the trajectory
    code."""
    seeds = mutate_b_along(t0, seq)
    e = f = Matrix.identity(t0.n)
    signs = []
    for cur, k in zip(seeds, seq):
        cvec = [e[i, k] for i in t0.unfrozen]
        eps = -1 if any(x < 0 for x in cvec) else 1
        signs.append(eps)
        e = e * trans_matrix(cur, k, eps, "N").matrix
        f = f * trans_matrix(cur, k, eps, "M").matrix
    return seeds, tuple(signs), e, f


def test_extend_equals_replay():
    rng = random.Random(4242)
    fields = ("seq", "seeds", "signs", "e_matrix", "f_matrix")
    for _ in range(30):
        t0 = random_principal_seed(rng, rng.randint(2, 4))
        seq = random_sequence(rng, t0, max_len=7)
        traj = run_trajectory(t0, ())
        steps = [traj]
        for k in seq:
            traj = traj.extend(k)
            steps.append(traj)
        full = run_trajectory(t0, seq)
        for name in fields:
            assert getattr(traj, name) == getattr(full, name), (t0, seq, name)
        seeds, signs, e, f = replay(t0, seq)
        assert (traj.seeds, traj.signs, traj.e_matrix, traj.f_matrix) == (seeds, signs, e, f), (t0, seq)
        # extending leaves the trajectory it started from unchanged, so a
        # search can branch from one node
        for length, prefix in enumerate(steps):
            assert prefix.seq == seq[:length]
            assert len(prefix.seeds) == length + 1
            assert prefix.seeds == seeds[: length + 1]


def random_frozen_anywhere_seed(rng):
    """Seed on 2 to 5 vertices with 0 to 2 frozen ones at any position,
    d_i in {1, 2, 3} and b_ij = v*d_i/gcd(d_i, d_j) for v in [-2, 2]."""
    n = rng.randint(2, 5)
    d = [rng.choice((1, 2, 3)) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            g = gcd(d[i], d[j])
            b[i][j], b[j][i] = v * d[i] // g, -v * d[j] // g
    frozen = rng.sample(range(n), rng.randint(0, min(2, n - 1)))
    return make_seed(b, frozen=frozen, d=d)


def test_extend_equals_replay_with_frozen_vertices():
    # frozen rows and columns anywhere, unequal symmetrizers and entries of
    # both signs reach every index a step of E and F touches
    rng = random.Random(1007)
    for _ in range(400):
        t0 = random_frozen_anywhere_seed(rng)
        assert validate(t0).ok, t0
        seq = random_sequence(rng, t0, max_len=6)
        traj = run_trajectory(t0, seq)
        seeds, signs, e, f = replay(t0, seq)
        assert (traj.seeds, traj.signs, traj.e_matrix, traj.f_matrix) == (seeds, signs, e, f), (t0, seq)


def test_extend_rejects_frozen_vertex(a1_seed):
    with pytest.raises(ValueError):
        run_trajectory(a1_seed, ()).extend(1)


BIPARTITE_A4 = [[0, -1, 0, 0], [1, 0, 1, 0], [0, -1, 0, -1], [0, 0, 1, 0]]


@pytest.mark.parametrize(
    "b, d, witness",
    [
        ([[0, 1], [-1, 0]], (1, 1), (1, 0)),
        ([[0, 1], [-2, 0]], (1, 2), (1, 0)),
        ([[0, 1], [-3, 0]], (1, 3), (1, 0)),
        ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], (1, 1, 1), (2, 1, 0)),
        (BIPARTITE_A4, (1, 1, 1, 1), (0, 2, 1, 3)),
        ([[-x for x in row] for row in BIPARTITE_A4], (1, 1, 1, 1), (1, 0, 3, 2)),
    ],
    ids=["A2", "B2", "G2", "A3", "A4", "A4-opposite"],
)
def test_find_t1_witness_pinned(b, d, witness):
    # pins the breadth-first order: the first green-to-red sequence found
    w = find_t1(principal_seed(b, d))
    assert w.seq == witness
    assert w.sigma.is_identity()
    assert w.trajectory.signs == (1,) * len(witness)


def test_pushforward_inverts_pullback(a1_seed):
    seeds = mutate_b_along(a1_seed, (0,))
    f = LaurentPoly(seeds[-1], {(1, 1): 2, (0, 1): 1})
    down = pullback_sequence(f, seeds, (0,), "A")
    up = pushforward_sequence(down, seeds, (0,), "A")
    assert up == RationalExpr(f)


def test_sequences_reject_seeds_off_the_path(a1_seed):
    # a1_seed is not its own mutation at 0, so [a1_seed, a1_seed] is no path
    seeds = [a1_seed, a1_seed]
    f = LaurentPoly(a1_seed, {(1, 1): 2, (0, 1): 1})
    with pytest.raises(ValueError):
        pullback_sequence(f, seeds, (0,), "A")
    with pytest.raises(ValueError):
        pushforward_sequence(f, seeds, (0,), "A")
