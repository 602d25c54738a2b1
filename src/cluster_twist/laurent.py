"""Sparse multivariate Laurent polynomials over exact rationals.

Exponent vectors are plain tuples; frozen coordinates may be rational
(roots of frozen variables), unfrozen coordinates must stay integral.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, lcm
from operator import add

from .exact import ExactError, Matrix, norm_rational


class DominanceUndecidable(ExactError):
    """Dominance comparisons need the exchange columns at full rank."""


def exp_add(a, b):
    return tuple(map(add, a, b))


def exp_sub(a, b):
    return tuple(norm_rational(x - y) for x, y in zip(a, b))


def exp_scale(a, s):
    return tuple(norm_rational(s * x) for x in a)


def sum_terms(pairs) -> dict:
    """The sparse accumulator: sums the coefficients of (key, coefficient)
    pairs with equal keys, then normalizes the sums and drops the zeros once,
    at the end.  Keys are taken as given."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in zip(out, map(norm_rational, out.values())) if c != 0}


def _exponent_sum_keys(a, b, out):
    """``out``, keyed by sums of an exponent of ``a`` and one of ``b``, with
    its keys normalized.  Only two non-integral exponents can add up to an
    integral Fraction, so the keys are rebuilt only when both ``a`` and
    ``b`` hold one."""
    if any(type(x) is not int for e in a for x in e) and any(type(x) is not int for e in b for x in e):
        return {tuple(map(norm_rational, e)): c for e, c in out.items()}
    return out


class LaurentPoly:
    __slots__ = ("seed", "terms")

    def __init__(self, seed, terms=None, validate=True):
        self.seed = seed
        clean = {}
        for exp, coeff in (terms or {}).items():
            coeff = norm_rational(coeff)
            if coeff == 0:
                continue
            exp = tuple(norm_rational(x) for x in exp)
            if len(exp) != seed.n:
                raise ValueError("exponent length does not match the seed")
            clean[exp] = coeff
        if validate:
            uf = seed.unfrozen
            for exp in clean:
                for i in uf:
                    if not isinstance(exp[i], int):
                        raise ValueError(f"unfrozen exponent {exp[i]} at index {i} must be integral")
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, seed):
        return _mk(seed, {})

    @classmethod
    def one(cls, seed):
        return _mk(seed, {(0,) * seed.n: 1})

    @classmethod
    def constant(cls, seed, c):
        return cls(seed, {(0,) * seed.n: c}, validate=False)

    @classmethod
    def monomial(cls, seed, exp, coeff=1):
        return cls(seed, {tuple(exp): coeff})

    @classmethod
    def generator(cls, seed, i):
        exp = [0] * seed.n
        exp[i] = 1
        return _mk(seed, {tuple(exp): 1})

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.seed.n: 1}

    def is_monomial(self):
        return len(self.terms) == 1

    def monomial_exp(self):
        if not self.is_monomial():
            raise ValueError("not a monomial")
        return next(iter(self.terms))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.terms == other.terms
            and (self.seed is other.seed or self.seed == other.seed)
        )

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def _ring_check(self, other):
        if self.seed is not other.seed and self.seed != other.seed:
            raise ValueError("operands live over different seeds")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.seed, other)
        self._ring_check(other)
        return _mk(self.seed, sum_terms(chain(self.terms.items(), other.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return _mk(self.seed, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.seed, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly.zero(self.seed)
            return _mk(self.seed, {e: norm_rational(c * other) for e, c in self.terms.items()})
        self._ring_check(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        out = sum_terms((exp_add(e1, e2), c1 * c2) for e2, c2 in small.items() for e1, c1 in big.items())
        return _mk(self.seed, _exponent_sum_keys(small, big, out))

    __rmul__ = __mul__

    def __pow__(self, m):
        if not isinstance(m, int):
            raise TypeError("exponent must be an integer")
        if self.is_monomial():
            exp, c = next(iter(self.terms.items()))
            if c == 1:
                return _mk(self.seed, {exp_scale(exp, m): 1})
            return _mk(self.seed, {exp_scale(exp, m): norm_rational(Fraction(c) ** m)})
        if m < 0:
            raise ValueError("negative power of a non-monomial")
        out = LaurentPoly.one(self.seed)
        base = self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def shift(self, exp):
        """Multiply by the monomial with the given exponent."""
        exp = tuple(exp)
        out = {exp_add(e, exp): c for e, c in self.terms.items()}
        return _mk(self.seed, _exponent_sum_keys((exp,), self.terms, out))

    # -- inspection -------------------------------------------------------

    def coeff(self, exp):
        return self.terms.get(tuple(exp), 0)

    def min_exponents(self):
        its = iter(self.terms)
        first = list(next(its))
        for e in its:
            for i, x in enumerate(e):
                if x < first[i]:
                    first[i] = x
        return tuple(first)

    def max_exponents(self):
        its = iter(self.terms)
        first = list(next(its))
        for e in its:
            for i, x in enumerate(e):
                if x > first[i]:
                    first[i] = x
        return tuple(first)

    def root_denominator(self):
        """Common denominator r of frozen exponents appearing in the poly."""
        r = 1
        for e in self.terms:
            for i in self.seed.frozen:
                if isinstance(e[i], Fraction):
                    r = lcm(r, e[i].denominator)
        return r

    def substitute_monomial(self, matrix: Matrix, target_seed):
        """Monomial map on exponents: X^n -> Y^(matrix @ n)."""
        return LaurentPoly(target_seed, sum_terms((matrix.apply(e), c) for e, c in self.terms.items()))

    # -- rendering --------------------------------------------------------

    def render(self, symbol="X"):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = []
            for i, p in enumerate(exp):
                if p == 0:
                    continue
                name = f"{symbol}{self.seed.label(i)}"
                factors.append(name if p == 1 else f"{name}^{p}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def render_degrees(self, symbol="X"):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}{symbol}^({','.join(str(x) for x in exp)})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


def _mk(seed, terms):
    p = LaurentPoly.__new__(LaurentPoly)
    p.seed = seed
    p.terms = terms
    return p


def binomial_power(seed, w_exp, m: int) -> LaurentPoly:
    """(1 + X^w)^m for m >= 0, expanded by binomial coefficients."""
    if m < 0:
        raise ValueError("negative binomial power")
    w = tuple(w_exp)
    return _mk(seed, {exp_scale(w, j): comb(m, j) for j in range(m + 1)})


def divide_binomial(f: LaurentPoly, w_exp):
    """Exact quotient of f by (1 + X^w), or None; linear-time sweep.

    Terms are grouped along lines e + Z*w; on each line the quotient
    telescopes, and divisibility reduces to the final remainder vanishing.
    A term's position on its line is the integer step s = e_t // w_t at the
    first nonzero coordinate t of w, and the line is keyed by its
    representative e - s*w.  The floor is exact for rational exponents and
    directions alike: two exponents lie on one line exactly when they
    differ by an integer multiple of w, which holds exactly when their
    representatives agree, so no step is ever a Fraction.
    """
    w = tuple(w_exp)
    if all(x == 0 for x in w):
        raise ValueError("binomial direction must be nonzero")
    if f.is_zero():
        return LaurentPoly.zero(f.seed)
    t = next(i for i, x in enumerate(w) if x != 0)
    wt = w[t]
    integral = all(type(y) is int for y in w)
    lines = {}
    for e, c in f.terms.items():
        s = e[t] // wt
        lines.setdefault(tuple(x - s * y for x, y in zip(e, w)), {})[s] = c
    q = {}
    for rep, steps in lines.items():
        # a normalized rep keeps rep + s*w normalized when w is integral
        rep = tuple(map(norm_rational, rep))
        lo_s, hi_s = min(steps), max(steps)
        prev = 0
        for s in range(lo_s, hi_s):
            cur = steps.get(s, 0) - prev
            if cur != 0:
                qe = tuple(r + s * y for r, y in zip(rep, w))
                q[qe if integral else tuple(map(norm_rational, qe))] = norm_rational(cur)
            prev = cur
        if steps.get(hi_s, 0) - prev != 0:
            return None
    return _mk(f.seed, q)


def exact_divide(f: LaurentPoly, g: LaurentPoly):
    """Quotient q with q*g = f exactly, or None when f is not divisible.

    Uses leading-term descent in lexicographic exponent order; candidate
    quotient exponents are confined to the Newton-polytope box of f minus
    that of g, which both bounds the search and guarantees termination.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.seed)
    f._ring_check(g)
    if g.is_monomial():
        ge, gc = next(iter(g.terms.items()))
        inv = Fraction(1, 1) / gc
        return _mk(f.seed, {exp_sub(e, ge): norm_rational(c * inv) for e, c in f.terms.items()})
    if len(g.terms) == 2:
        (e1, c1), (e2, c2) = sorted(g.terms.items())
        if c1 == 1 and c2 == 1:
            # g = X^e1 + X^e2 = X^e1 * (1 + X^(e2-e1)); peel the monomial
            shifted = _mk(f.seed, {exp_sub(e, e1): c for e, c in f.terms.items()})
            return divide_binomial(shifted, exp_sub(e2, e1))
    fmin, fmax = f.min_exponents(), f.max_exponents()
    gmin, gmax = g.min_exponents(), g.max_exponents()
    lo = exp_sub(fmin, gmin)
    hi = exp_sub(fmax, gmax)
    if any(l > h for l, h in zip(lo, hi)):
        return None
    gl = max(g.terms)
    glc = g.terms[gl]
    rest = [(e, c) for e, c in g.terms.items() if e != gl]
    work = dict(f.terms)
    heap = [tuple(-x for x in e) for e in work]
    heapq.heapify(heap)
    q = {}
    while work:
        fl = None
        while heap:
            cand = tuple(-x for x in heapq.heappop(heap))
            if cand in work:
                fl = cand
                break
        if fl is None:
            break
        flc = work.pop(fl)
        qe = exp_sub(fl, gl)
        if any(x < l or x > h for x, l, h in zip(qe, lo, hi)):
            return None
        qc = norm_rational(Fraction(flc) / glc)
        q[qe] = qc
        for e, c in rest:
            key = exp_add(qe, e)
            nc = norm_rational(work.get(key, 0) - qc * c)
            if nc == 0:
                work.pop(key, None)
            else:
                if key not in work:
                    heapq.heappush(heap, tuple(-x for x in key))
                work[key] = nc
    return _mk(f.seed, q)


class RationalExpr:
    """Fraction of Laurent polynomials, kept normalized.

    Normalization: zero shortcut, monomial denominators absorbed into the
    numerator, full exact division attempted, and the denominator scaled
    so its lexicographically maximal term has coefficient one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None, normalize=True):
        if den is None:
            den = LaurentPoly.one(num.seed)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._ring_check(den)
        self.num = num
        self.den = den
        if normalize:
            self._normalize()

    @property
    def seed(self):
        return self.num.seed

    def _normalize(self):
        num, den = self.num, self.den
        if num.is_zero():
            self.den = LaurentPoly.one(num.seed)
            return
        if den.is_monomial():
            e, c = next(iter(den.terms.items()))
            inv = Fraction(1, 1) / c
            self.num = _mk(num.seed, {exp_sub(t, e): norm_rational(k * inv) for t, k in num.terms.items()})
            self.den = LaurentPoly.one(num.seed)
            return
        shift = den.min_exponents()
        if any(x != 0 for x in shift):
            den = den.shift(exp_scale(shift, -1))
            num = num.shift(exp_scale(shift, -1))
        # full cancellation attempt, skipped on large operands where the
        # failure path would dominate; callers needing a guaranteed Laurent
        # result divide explicitly
        if len(num.terms) * len(den.terms) <= 40000:
            q = exact_divide(num, den)
            if q is not None:
                self.num = q
                self.den = LaurentPoly.one(num.seed)
                return
        lead = den.terms[max(den.terms)]
        if lead != 1:
            inv = Fraction(1, 1) / lead
            num = num * inv
            den = den * inv
        self.num, self.den = num, den

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.seed)
        return RationalExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = _coerce(other, self.seed)
        return RationalExpr(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalExpr(-self.num, self.den, normalize=False)

    def __mul__(self, other):
        other = _coerce(other, self.seed)
        return RationalExpr(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _coerce(other, self.seed)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return RationalExpr(self.num * other.den, self.den * other.num)

    def __pow__(self, m):
        if m == 0:
            return RationalExpr(LaurentPoly.one(self.seed))
        if m < 0:
            inv = RationalExpr(self.den, self.num)
            return inv ** (-m)
        return RationalExpr(self.num ** m, self.den ** m)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = _coerce(other, self.seed)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self):
        return self.den.is_one()

    def as_poly(self) -> LaurentPoly:
        if not self.den.is_one():
            raise ValueError("expression is not a Laurent polynomial")
        return self.num

    def root_denominator(self):
        return lcm(self.num.root_denominator(), self.den.root_denominator())

    def substitute_monomial(self, matrix: Matrix, target_seed):
        """Monomial map on exponents, X^n -> Y^(matrix @ n), applied to the
        numerator and the denominator."""
        return RationalExpr(
            self.num.substitute_monomial(matrix, target_seed),
            self.den.substitute_monomial(matrix, target_seed),
        )

    def render(self, symbol="X"):
        if self.den.is_one():
            return self.num.render(symbol)
        return f"({self.num.render(symbol)}) / ({self.den.render(symbol)})"

    def __repr__(self):
        return f"RationalExpr({self.render()})"


def _coerce(x, seed):
    if isinstance(x, RationalExpr):
        return x
    if isinstance(x, LaurentPoly):
        return RationalExpr(x)
    if isinstance(x, (int, Fraction)):
        return RationalExpr(LaurentPoly.constant(seed, x))
    raise TypeError(f"cannot coerce {type(x).__name__} into a rational expression")


# -- dominance order and pointedness ---------------------------------------


# bounded, so that a long-lived process does not keep every seed it met
@lru_cache(maxsize=128)
def _dominance_solver(seed):
    bt = seed.b_tilde()
    m = seed.partition.n_unfrozen
    if bt.rank() < m:
        return None
    _, pivots = bt.transpose().rref()
    rows = pivots[:m]
    inv = bt.submatrix(rows, range(m)).inverse()
    return (bt, rows, inv)


def dominance_solve(seed, diff):
    """Solve exchange-columns * n = diff exactly; None when inconsistent."""
    solver = _dominance_solver(seed)
    if solver is None:
        raise DominanceUndecidable(
            "exchange columns are rank-deficient; a nonnegative kernel vector cannot be excluded"
        )
    bt, rows, inv = solver
    n = inv.apply(tuple(diff[i] for i in rows))
    if bt.apply(n) != tuple(diff):
        return None
    return n


def dominance_leq(m_lo, m_hi, seed) -> bool:
    """True when m_lo = m_hi + (exchange columns) * n with integral n >= 0."""
    diff = exp_sub(tuple(m_lo), tuple(m_hi))
    n = dominance_solve(seed, diff)
    if n is None:
        return False
    return all(isinstance(x, int) and x >= 0 for x in n)


@dataclass(frozen=True)
class PointedDecomposition:
    """A dominance-maximal degree with its normalized lower-order terms.

    ``f_terms`` maps auxiliary exponents (indexed by unfrozen position) to
    coefficients; the constant term is one by construction.
    """

    seed: object
    side: str
    degree: tuple
    f_terms: tuple  # sorted ((exp tuple, coeff), ...)

    @property
    def f_dict(self):
        return dict(self.f_terms)

    def f_constant(self):
        zero = (0,) * self.seed.partition.n_unfrozen
        return self.f_dict.get(zero, 0)

    def resubstitute(self) -> LaurentPoly:
        seed = self.seed
        uf = seed.unfrozen
        out = {}
        if self.side == "A":
            bt = seed.b_tilde()
            for nexp, c in self.f_terms:
                shift = bt.apply(nexp)
                out[exp_add(self.degree, tuple(shift))] = c
        else:
            for nexp, c in self.f_terms:
                full = [0] * seed.n
                for pos, i in enumerate(uf):
                    full[i] = nexp[pos]
                out[exp_add(self.degree, tuple(full))] = c
        return LaurentPoly(seed, out)

    def f_poly_render(self):
        parts = []
        for exp, c in sorted(self.f_terms):
            factors = [
                (f"Z{self.seed.label(i)}" if p == 1 else f"Z{self.seed.label(i)}^{p}")
                for i, p in zip(self.seed.unfrozen, exp)
                if p != 0
            ]
            body = "*".join(factors) or "1"
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts) if parts else "0"


def pointed_decompose(f: LaurentPoly, seed, side: str):
    """Split f as degree-monomial times an F-polynomial with constant term 1.

    Returns None when f is not pointed: no unique dominance-maximal term,
    or its coefficient differs from one.
    """
    if f.is_zero():
        raise ValueError("the zero element has no pointed decomposition")
    if side not in ("A", "X"):
        raise ValueError("side must be 'A' or 'X'")
    uf = seed.unfrozen
    exps = list(f.terms)
    if side == "X":
        fr = seed.frozen
        base = exps[0]
        for e in exps[1:]:
            if any(e[i] != base[i] for i in fr):
                return None
        deg_uf = [min(e[i] for e in exps) for i in uf]
        degree = list(base)
        for pos, i in enumerate(uf):
            degree[i] = deg_uf[pos]
        degree = tuple(degree)
        if f.terms.get(degree) != 1:
            return None
        f_terms = {}
        for e, c in f.terms.items():
            key = tuple(e[i] - degree[i] for i in uf)
            f_terms[key] = c
        return PointedDecomposition(seed, "X", degree, tuple(sorted(f_terms.items())))

    champion = exps[0]
    for e in exps[1:]:
        if dominance_leq(champion, e, seed):
            champion = e
    if f.terms.get(champion) != 1:
        return None
    f_terms = {}
    for e, c in f.terms.items():
        n = dominance_solve(seed, exp_sub(e, champion))
        if n is None or any(not isinstance(x, int) or x < 0 for x in n):
            return None
        f_terms[n] = c
    return PointedDecomposition(seed, "A", champion, tuple(sorted(f_terms.items())))
