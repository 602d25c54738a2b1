import random
from fractions import Fraction

import pytest

from cluster_twist.exact import (
    Infeasible,
    Matrix,
    affine_combination,
    integer_diagonal_form,
    integer_solution,
    integral_member,
    permutation_matrix,
    solve_affine,
)


def independent_rank(rows):
    """Plain fraction-Gauss elimination, first-nonzero pivoting; kept
    deliberately separate from the library's reduction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_solve_affine_identity_case():
    sol = solve_affine(Matrix.identity(2), Matrix([[3, 4]]))
    assert sol.particular == Matrix([[3, 4]])
    assert sol.dim == 0


def test_solve_affine_a1_btilde_nullspace():
    # hand Gaussian elimination: x * (0, -1)^T = 0 forces x2 = 0, x1 free
    a = Matrix([[0], [-1]])
    sol = solve_affine(a, Matrix([[0]]))
    assert sol.dim == 1
    assert sol.kernel_rows == [(1, 0)]
    assert sol.particular == Matrix([[0, 0]])


def test_solve_affine_digon_variation_system():
    # the A-degree variation system of the digon pair is solvable despite
    # the rank-deficient exchange columns; its affine dimension is
    # rows * (cols - rank) = 2 * 3
    b = Matrix([[0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0]])
    bt = b.submatrix(range(4), (1, 3))
    b_low_of_negated = Matrix([[1, -1], [-1, 1]])  # frozen rows of -B at unfrozen cols
    sol = solve_affine(bt, b_low_of_negated)
    assert sol.dim == 2 * (4 - independent_rank(bt.to_lists()))
    assert sol.dim == 6
    assert sol.particular * bt == b_low_of_negated


def test_solve_affine_members_are_exact():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = Matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        x_true = Matrix([[rng.randint(-3, 3) for _ in range(rows)] for _ in range(2)])
        y = x_true * a
        sol = solve_affine(a, y)
        assert sol.particular * a == y
        assert sol.dim == 2 * (rows - independent_rank(a.to_lists()))
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sol.dim)]
        assert sol.member(coeffs) * a == y
        for z in sol.nullspace_basis:
            assert z * a == Matrix.zero(2, a.ncols)


def test_bilinear_and_affine_combination_match_matrix_products():
    rng = random.Random(17)

    def rat():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix([[rat() for _ in range(cols)] for _ in range(rows)])
        u = [rng.choice((0, rat())) for _ in range(rows)]
        v = [rat() for _ in range(cols)]
        assert m.bilinear(u, v) == (Matrix([u]) * m * Matrix.column(v))[0, 0]
        directions = [Matrix([[rat() for _ in range(cols)] for _ in range(rows)]) for _ in range(rng.randint(0, 4))]
        coeffs = [rng.choice((0, rat())) for _ in directions]
        want = m
        for c, d in zip(coeffs, directions):
            want = want + d.scale(c)
        assert affine_combination(m, coeffs, directions) == want
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).bilinear([1], [1])
    with pytest.raises(ValueError):
        affine_combination(Matrix([[1]]), [1, 2], [Matrix([[1]])])
    with pytest.raises(ValueError):
        affine_combination(Matrix([[1]]), [1], [Matrix([[1, 0]])])


def test_solve_affine_infeasible():
    a = Matrix([[0, 0]])
    with pytest.raises(Infeasible):
        solve_affine(a, Matrix([[1, 0]]))


def test_integer_solution_trivial_cases():
    p = Matrix([[2, -3]])
    assert integer_solution(p, []) == p
    half = Matrix([[Fraction(1, 2)]])
    sol = integer_solution(half, [Matrix([[1]])])
    assert sol is not None
    assert sol.is_integral()
    # no basis and a fractional particular: minimal denominator reported
    member, r = integral_member(half, [])
    assert r == 2 and member == half


def test_integer_solution_unreachable():
    # first coordinate is pinned at 1/2 whatever the parameter does
    p = Matrix([[Fraction(1, 2), 0]])
    basis = [Matrix([[0, 1]])]
    assert integer_solution(p, basis) is None
    member, r = integral_member(p, basis)
    assert r == 2
    assert member[0, 0] == Fraction(1, 2)
    # rational parameters, in contrast, can clear a single free coordinate
    member2, r2 = integral_member(Matrix([[Fraction(1, 2)]]), [Matrix([[2]])])
    assert r2 == 1 and member2.is_integral()


def test_integer_solution_randomized():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(0, 2)
        x0 = Matrix([[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]])
        basis = [Matrix([[rng.randint(-2, 2) for _ in range(n)]]) for _ in range(k)]
        member, r = integral_member(x0, basis)
        scaled = member.scale(r)
        assert scaled.is_integral()
        # member stays inside the affine family
        diff = [Fraction(a - b) for a, b in zip(member.rows[0], x0.rows[0])]
        if basis:
            bmat = Matrix([list(b.rows[0]) for b in basis])
            sol = solve_affine(bmat, Matrix([diff]))
            assert sol.particular * bmat == Matrix([diff])
        else:
            assert all(d == 0 for d in diff)


def test_permutation_matrix_basics():
    assert permutation_matrix([0, 1], 2) == Matrix.identity(2)
    assert permutation_matrix([1, 0], 2) == Matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        permutation_matrix([0, 0], 2)


def test_permutation_matrix_column_action_and_orthogonality():
    rng = random.Random(5)
    sigma = [2, 0, 1]
    p = permutation_matrix(sigma, 3)
    h = Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    hp = h * p
    for k in range(3):
        assert hp.col(k) == h.col(sigma[k])
    inv = permutation_matrix([sigma.index(i) for i in range(3)], 3)
    assert p * inv == Matrix.identity(3)
    assert p.inverse() == p.transpose()


def test_integer_diagonal_form():
    rng = random.Random(9)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        u, s, w = integer_diagonal_form(m)
        assert u * m * w == s
        assert u.det() in (1, -1) and w.det() in (1, -1)
        for i in range(s.nrows):
            for j in range(s.ncols):
                if i != j:
                    assert s[i, j] == 0


def test_matrix_inverse_and_det():
    m = Matrix([[2, 1], [1, 1]])
    assert m.det() == 1
    assert m * m.inverse() == Matrix.identity(2)
    with pytest.raises(Infeasible):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_rank_matches_independent_elimination():
    rng = random.Random(13)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert Matrix(rows).rank() == independent_rank(rows)


def test_empty_matrices_keep_their_width():
    assert Matrix.zero(0, 3).shape == (0, 3)
    assert Matrix.zero(3, 0).shape == (3, 0)
    assert Matrix.identity(3).submatrix((), (0, 2)).shape == (0, 2)
    assert Matrix.identity(3).submatrix((0, 1), ()).shape == (2, 0)
    empty = Matrix.zero(0, 3)
    assert empty.transpose().shape == (3, 0)
    assert (-empty).shape == (0, 3)
    assert (empty * Matrix.identity(3)).shape == (0, 3)
    assert (Matrix.zero(2, 0) * empty).shape == (2, 3)
    assert (Matrix.zero(2, 0) * empty) == Matrix.zero(2, 3)
    assert empty != Matrix.zero(0, 2)
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)
