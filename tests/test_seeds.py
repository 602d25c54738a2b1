import random

import pytest

from cluster_twist.exact import Matrix
from cluster_twist.seeds import (
    find_similarities,
    find_skew_symmetrizer,
    full_rank_check,
    is_principal_shape,
    make_seed,
    mutate_b,
    mutate_b_along,
    p_star,
    seed_from_json,
    seed_to_json,
    validate,
)

from conftest import random_symmetrizable_seed


def test_validate_examples(a1_seed):
    assert validate(a1_seed).ok
    ok2 = make_seed([[0, 1], [-2, 0]], frozen=[1], d=[1, 2])
    assert validate(ok2).ok
    bad = make_seed([[0, 1], [1, 0]], frozen=[1], d=[1, 1])
    rep = validate(bad)
    assert not rep.ok
    assert rep.first.where == (0, 1)


def test_find_skew_symmetrizer_examples():
    assert find_skew_symmetrizer(Matrix([[0, 1], [-1, 0]])).d == (1, 1)
    res = find_skew_symmetrizer(Matrix([[0, 1], [-2, 0]]))
    assert res.d == (1, 2) and res.unique
    block = Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    res2 = find_skew_symmetrizer(block)
    assert res2.d == (1, 1, 1, 1)
    assert not res2.unique
    assert len(res2.components) == 2
    assert find_skew_symmetrizer(Matrix([[0, 1], [1, 0]])).d is None


def test_mutate_b_examples(a1_seed, digon_seed):
    assert mutate_b(a1_seed, 0).b == -a1_seed.b
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    assert end.b == -digon_seed.b
    assert mutate_b(mutate_b(a1_seed, 0), 0).b == a1_seed.b


def mutate_b_at_sign(seed, k, eps):
    """Exchange-matrix mutation written at the sign convention ``eps``."""
    b = seed.b
    return Matrix(
        [
            [
                -b[i, j] if k in (i, j) else b[i, j] + b[i, k] * max(eps * b[k, j], 0) + max(-eps * b[i, k], 0) * b[k, j]
                for j in range(seed.n)
            ]
            for i in range(seed.n)
        ]
    )


def assert_sign_independent(seed):
    """Both sign conventions give the library's mutation at every vertex."""
    for k in seed.unfrozen:
        out = mutate_b(seed, k).b
        assert out == mutate_b_at_sign(seed, k, 1) == mutate_b_at_sign(seed, k, -1), (seed, k)


def test_mutate_b_randomized_properties():
    rng = random.Random(77)
    for _ in range(60):
        seed = random_symmetrizable_seed(rng, spread=3)
        k = rng.choice(seed.unfrozen)
        out = mutate_b(seed, k)
        assert validate(out).ok  # symmetrized skewness is preserved
        assert mutate_b(out, k).b == seed.b
        assert_sign_independent(seed)
        assert_sign_independent(out)


def test_mutate_b_sign_independent_on_corpus(corpus):
    for seed, seq in corpus:
        for cur in mutate_b_along(seed, seq):
            assert_sign_independent(cur)


def test_mutate_b_rejects_frozen(a1_seed):
    with pytest.raises(ValueError):
        mutate_b(a1_seed, 1)


def test_p_star(a1_seed, sl3_seed):
    assert p_star(a1_seed, (1, 0)) == (0, -1)
    assert p_star(a1_seed, (0, 0)) == (0, 0)
    assert p_star(sl3_seed, (1, 0, 0)) == (0, 1, -1)


def test_find_similarities(a1_seed, digon_seed):
    sims = find_similarities(a1_seed, a1_seed)
    assert [w.pairs for w in sims] == [((0, 0),)]
    end = mutate_b_along(digon_seed, (3, 1))[-1]
    sims = find_similarities(digon_seed, end)
    assert any(w.is_identity() for w in sims)  # unfrozen block is zero
    # relabeling the unfrozen block is recovered as a witness
    seed = make_seed([[0, 2, 1], [-2, 0, 0], [-1, 0, 0]], frozen=[2])
    rows = [[0, -2, 1], [2, 0, 0], [-1, 0, 0]]
    swapped = make_seed(
        [[rows[i][j] for j in range(3)] for i in range(3)], frozen=[2]
    )
    # move b_01 -> b_10 by exchanging the two unfrozen labels
    sims = find_similarities(seed, swapped)
    assert ((0, 1), (1, 0)) in [w.pairs for w in sims]


def test_similarity_block_relation(a2_principal):
    from cluster_twist.mutation import run_trajectory

    traj = run_trajectory(a2_principal, (0, 1, 0))
    sims = find_similarities(a2_principal, traj.final)
    assert sims
    for w in sims:
        p = w.uf_matrix()
        assert p * a2_principal.uf_block(a2_principal.b) == traj.final.uf_block(traj.final.b) * p


def test_full_rank_check(a1_seed, digon_seed):
    rep = full_rank_check(a1_seed)
    assert rep.is_full_rank and rep.unimodular_minor and rep.witness_rows == (1,)
    rep2 = full_rank_check(digon_seed)
    assert not rep2.is_full_rank
    zero_col = make_seed([[0, 0], [0, 0]], frozen=[1], d=[1, 1])
    assert not full_rank_check(zero_col).is_full_rank
    sl3 = make_seed([[0, -1, 1], [1, 0, 0], [-1, 0, 0]], frozen=[1, 2])
    rep3 = full_rank_check(sl3)
    assert rep3.is_full_rank and rep3.unimodular_minor


def test_seed_json_roundtrip(sl3_seed):
    data = seed_to_json(sl3_seed)
    assert data["frozen"] == [2, 3]
    back = seed_from_json(data)
    assert back == sl3_seed
    with pytest.raises(ValueError):
        seed_from_json({"n": 2, "B": [[0, 1], [-1, 0]]})
    with pytest.raises(ValueError):
        seed_from_json({"n": 2, "frozen": [5], "B": [[0, 1], [-1, 0]], "d": [1, 1]})
    with pytest.raises(ValueError):
        seed_from_json({"n": 2, "B": [[0, 1], [-1, 0]], "d": [True, 1]})


def test_principal_seed_shape(b2_principal):
    assert is_principal_shape(b2_principal)
    assert b2_principal.d == (1, 2, 1, 2)
    assert not is_principal_shape(make_seed([[0, 1], [-1, 0]], frozen=[1]))
