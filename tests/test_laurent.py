import random
from fractions import Fraction

import pytest

from cluster_twist.exact import norm_rational
from cluster_twist.laurent import (
    DominanceUndecidable,
    LaurentPoly,
    RationalExpr,
    _dominance_solver,
    binomial_power,
    divide_binomial,
    dominance_leq,
    exact_divide,
    pointed_decompose,
)
from cluster_twist.seeds import make_seed

from conftest import random_symmetrizable_seed


@pytest.fixture
def a1():
    return make_seed([[0, 1], [-1, 0]], frozen=[1])


def X(seed, *exp):
    return LaurentPoly.monomial(seed, exp)


def test_ring_ops(a1):
    one_plus = LaurentPoly(a1, {(0, 0): 1, (1, 0): 1})
    sq = one_plus * one_plus
    assert sq == LaurentPoly(a1, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
    m = X(a1, 3, -2)
    assert m * X(a1, -3, 2) == LaurentPoly.one(a1)
    # expansion of the rank-2 exchange relation
    prod = X(a1, -1, 1) * LaurentPoly(a1, {(0, 0): 1, (0, -1): 1})
    assert prod == LaurentPoly(a1, {(-1, 1): 1, (-1, 0): 1})
    assert (one_plus ** 3).coeff((1, 0)) == 3
    assert one_plus - one_plus == LaurentPoly.zero(a1)


def test_ring_mismatch(a1):
    other = make_seed([[0, 2], [-2, 0]], frozen=[1], d=[1, 1])
    with pytest.raises(ValueError):
        LaurentPoly.one(a1) + LaurentPoly.one(other)


def test_non_rational_scalars_are_refused(a1):
    # one normalizer for matrix entries, coefficients and exponents: a float
    # raises instead of being stored
    from cluster_twist.exact import Matrix
    from cluster_twist.poisson import omega_from_seed
    from cluster_twist.quantum import QTorusElem

    with pytest.raises(TypeError):
        LaurentPoly(a1, {(0, 0): 0.5})
    with pytest.raises(TypeError):
        LaurentPoly.monomial(a1, (1, 0.5))
    form = omega_from_seed(a1)
    with pytest.raises(TypeError):
        QTorusElem.from_terms(form, {(0, 0): 1.5})
    with pytest.raises(TypeError):
        QTorusElem.monomial(form, (0, 0), k=0.5)
    with pytest.raises(TypeError):
        Matrix([[1.0]])
    # integral Fractions are stored as int
    ((exp, coeff),) = LaurentPoly(a1, {(Fraction(2, 2), Fraction(4, 2)): Fraction(3, 1)}).terms.items()
    assert [type(x) for x in (*exp, coeff)] == [int, int, int]
    (((_, k), c),) = QTorusElem.monomial(form, (0, 0), Fraction(6, 3), k=Fraction(2, 1)).terms
    assert [type(k), type(c)] == [int, int]


def test_rational_exponents_frozen_only(a1):
    p = LaurentPoly.monomial(a1, (1, Fraction(1, 2)))
    assert p.root_denominator() == 2
    with pytest.raises(ValueError):
        LaurentPoly.monomial(a1, (Fraction(1, 2), 0))


def test_product_and_shift_store_normalized_exponents():
    # two non-integral frozen exponents can add up to an integer, which is
    # stored as an int, as LaurentPoly() itself would store it
    seed = make_seed([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], frozen=[2])
    half = Fraction(1, 2)
    root = X(seed, 0, 0, half)

    def normalized(poly):
        return all(type(x) is type(norm_rational(x)) for e in poly.terms for x in e)

    ((exp, _),) = (root * root).terms.items()
    assert exp == (0, 0, 1) and type(exp[2]) is int
    ((exp, _),) = root.shift((0, 0, half)).terms.items()
    assert exp == (0, 0, 1) and type(exp[2]) is int
    mixed = LaurentPoly(seed, {(0, 0, half): 1, (1, 0, 0): 2, (0, -1, Fraction(3, 2)): 1})
    for poly in (mixed * mixed, mixed * root, mixed * X(seed, 1, 1, 1), mixed.shift((1, 0, Fraction(-3, 2)))):
        assert normalized(poly), poly.terms
        assert poly == LaurentPoly(seed, poly.terms)


def test_exact_divide_examples(a1):
    one_plus = LaurentPoly(a1, {(0, 0): 1, (1, 0): 1})
    sq = one_plus * one_plus
    assert exact_divide(sq, one_plus) == one_plus
    f = LaurentPoly(a1, {(-1, 1): 1, (-1, 0): 1})  # A1^-1*A2 + A1^-1
    g = LaurentPoly(a1, {(0, 0): 1, (0, -1): 1})  # 1 + A2^-1
    q = exact_divide(f, g)
    assert q == X(a1, -1, 1)
    assert q * g == f
    not_div = exact_divide(one_plus, LaurentPoly(a1, {(0, 0): 1, (0, 1): 1}))
    assert not_div is None


def test_exact_divide_randomized():
    rng = random.Random(21)
    seed = make_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], frozen=[2])
    for _ in range(80):
        f = LaurentPoly(
            seed,
            {
                tuple(rng.randint(-2, 2) for _ in range(3)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 4))
            },
        )
        g = LaurentPoly(
            seed,
            {
                tuple(rng.randint(-2, 2) for _ in range(3)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            },
        )
        if f.is_zero() or g.is_zero():
            continue
        assert exact_divide(f * g, g) == f


def test_divide_binomial_matches_general_division():
    # The oracle divides by 2·(1 + X^w): a binomial whose leading
    # coefficient is not 1 takes the leading-term descent of exact_divide,
    # not its divide_binomial shortcut, so the sweep is not compared with
    # itself.  Exponents on the frozen index 2 and the direction w may be
    # rational, and w_t may be negative or exceed 1 in size.
    rng = random.Random(22)
    seed = make_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], frozen=[2])

    def frozen_exp():
        return norm_rational(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))

    def normalized(p):
        return all(type(x) is type(norm_rational(x)) for e in p.terms for x in e)

    # products keep sums such as 1/2 + 1/2 as Fraction(1, 1); the quotient
    # comes back normalized all the same
    half = LaurentPoly.monomial(seed, (0, 0, Fraction(1, 2)))

    for _ in range(200):
        h = LaurentPoly(
            seed,
            {
                (rng.randint(-3, 3), rng.randint(-3, 3), frozen_exp()): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 5))
            },
        ) * half
        if h.is_zero():
            continue
        w = (rng.choice([0, 0, -3, -2, -1, 1, 2, 3]), rng.choice([0, 0, -3, -2, -1, 1, 2, 3]), frozen_exp())
        if all(x == 0 for x in w):
            continue
        g = binomial_power(seed, w, 1)
        hg = h * g
        back = divide_binomial(hg, w)
        assert back == h and normalized(back)
        f = hg if rng.random() < 0.5 else h
        got = divide_binomial(f, w)
        expected = exact_divide(f, LaurentPoly(seed, {e: 2 * c for e, c in g.terms.items()}))
        assert (got is None) == (expected is None)
        if got is not None:
            assert got == expected * 2 and normalized(got)
        # one extra term changes the alternating sum of its line by ±c
        e = (rng.randint(-4, 4), rng.randint(-4, 4), frozen_exp())
        c = rng.choice([-2, -1, Fraction(1, 2), 1, 3])
        assert divide_binomial(hg + LaurentPoly.monomial(seed, e, c), w) is None


def test_dominance(a1):
    assert dominance_leq((-1, 1), (-1, 1), a1)
    assert dominance_leq((-1, 0), (-1, 1), a1)  # difference is one exchange column
    assert not dominance_leq((-1, 2), (-1, 1), a1)  # would need a negative step
    digon = make_seed(
        [[0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0]], frozen=[0, 2]
    )
    with pytest.raises(DominanceUndecidable):
        dominance_leq((0, 0, 0, 0), (0, 0, 0, 0), digon)
    # the per-seed solver cache is bounded, not kept for every seed ever met
    assert _dominance_solver.cache_info().maxsize is not None


def test_dominance_partial_order():
    rng = random.Random(31)
    for _ in range(10):
        seed = random_symmetrizable_seed(rng, require_full_rank=True)
        pts = [tuple(rng.randint(-2, 2) for _ in range(seed.n)) for _ in range(6)]
        for a in pts:
            assert dominance_leq(a, a, seed)
        for a in pts:
            for b in pts:
                if dominance_leq(a, b, seed) and dominance_leq(b, a, seed):
                    assert a == b
                for c in pts:
                    if dominance_leq(a, b, seed) and dominance_leq(b, c, seed):
                        assert dominance_leq(a, c, seed)


def test_pointed_decompose_a_side(a1):
    f = LaurentPoly(a1, {(-1, 1): 1, (-1, 0): 1})
    dec = pointed_decompose(f, a1, "A")
    assert dec.degree == (-1, 1)
    assert dec.f_dict == {(0,): 1, (1,): 1}
    assert dec.f_poly_render() == "1 + Z1"
    assert dec.resubstitute() == f
    mono = LaurentPoly.monomial(a1, (2, -3))
    dec2 = pointed_decompose(mono, a1, "A")
    assert dec2.degree == (2, -3) and dec2.f_dict == {(0,): 1}
    bad = LaurentPoly(a1, {(-1, 1): 2, (-1, 0): 1})
    assert pointed_decompose(bad, a1, "A") is None


def test_pointed_decompose_x_side(a1):
    f = LaurentPoly(a1, {(1, 1): 1, (2, 1): 3})
    dec = pointed_decompose(f, a1, "X")
    assert dec.degree == (1, 1)
    assert dec.f_dict == {(0,): 1, (1,): 3}
    assert dec.resubstitute() == f
    mixed_frozen = LaurentPoly(a1, {(0, 0): 1, (1, 1): 1})
    assert pointed_decompose(mixed_frozen, a1, "X") is None


def test_pointed_resubstitute_roundtrip_random():
    rng = random.Random(41)
    count = 0
    while count < 25:
        seed = random_symmetrizable_seed(rng, require_full_rank=True)
        bt = seed.b_tilde()
        deg = tuple(rng.randint(-2, 2) for _ in range(seed.n))
        terms = {deg: 1}
        for _ in range(rng.randint(1, 3)):
            n = [rng.randint(0, 2) for _ in seed.unfrozen]
            shift = bt.apply(n)
            exp = tuple(d + s for d, s in zip(deg, shift))
            if exp != deg:
                terms[exp] = rng.randint(1, 4)
        f = LaurentPoly(seed, terms)
        dec = pointed_decompose(f, seed, "A")
        assert dec is not None
        assert dec.degree == deg
        assert dec.resubstitute() == f
        count += 1


def test_rational_expr_normalization(a1):
    one_plus = LaurentPoly(a1, {(0, 0): 1, (1, 0): 1})
    e = RationalExpr(one_plus * one_plus, one_plus)
    assert e.is_laurent() and e.as_poly() == one_plus
    # monomial denominators are absorbed
    e2 = RationalExpr(one_plus, X(a1, 1, 0))
    assert e2.is_laurent()
    assert e2.as_poly() == LaurentPoly(a1, {(-1, 0): 1, (0, 0): 1})
    # denominator scaled to leading coefficient one
    e3 = RationalExpr(LaurentPoly.one(a1), one_plus * 2)
    assert e3.den.terms[(1, 0)] == 1
    assert e3 * RationalExpr(one_plus * 2) == RationalExpr(LaurentPoly.one(a1))


def test_rational_expr_field_ops(a1):
    x1 = RationalExpr(X(a1, 1, 0))
    x2 = RationalExpr(X(a1, 0, 1))
    e = (x1 + x2) * (x1 - x2)
    assert e == x1 * x1 - x2 * x2
    assert (x1 / x2) * (x2 / x1) == RationalExpr(LaurentPoly.one(a1))
    assert (x1 ** -2) * x1 ** 2 == RationalExpr(LaurentPoly.one(a1))
    with pytest.raises(ZeroDivisionError):
        x1 / (x2 - x2)


def test_render_forms(a1):
    f = LaurentPoly(a1, {(-1, 1): 1, (-1, 0): 2})
    assert f.render("A") == "A1^-1*A2 + 2*A1^-1"
    assert f.render_degrees("A") == "A^(-1,1) + 2*A^(-1,0)"
    assert LaurentPoly.zero(a1).render() == "0"
