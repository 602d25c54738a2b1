"""Log-canonical Poisson data: the canonical skew form on X-degrees, the
compatible integer forms on A-degrees, their mutation rule, and symbolic
brackets on rational expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import Infeasible, InternalConsistencyError, Matrix, integer_solution, integral_member, solve_affine
from .laurent import LaurentPoly, RationalExpr, exp_add, sum_terms
from .mutation import trans_matrix
from .seeds import Seed, mutate_b


@dataclass(frozen=True)
class OmegaForm:
    """Canonical skew form on X-degrees: W[i][j] = b_ji / d_j."""

    seed: Seed
    w: Matrix


@dataclass(frozen=True)
class LambdaForm:
    """Compatible integer skew form on A-degrees with uniform scaling:
    pairing a degree with an exchange column is -alpha/d_k at the mutated
    vertex and zero elsewhere."""

    seed: Seed
    lam: Matrix
    alpha: int

    def __post_init__(self):
        # a zero or negative scale passes the compatibility equations but
        # makes every bracket vanish or flips its sign
        if type(self.alpha) is not int or self.alpha <= 0:
            raise ValueError(f"alpha must be a positive integer, got {self.alpha!r}")
        # the bracket reads all of a^T Lambda b, not only the upper triangle
        if not self.lam.is_skew_symmetric():
            raise ValueError("a compatible form must be a square skew-symmetric matrix")

    @property
    def delta(self) -> tuple:
        return tuple(Fraction(self.alpha, self.seed.d[k]) for k in self.seed.unfrozen)


def log_canonical_matrix(form) -> Matrix:
    """The matrix C of the log-canonical structure {X^a, X^b} = (a^T C b) X^(a+b),
    which also twists the quantum torus: C = -W for an ``OmegaForm`` and
    C = Lambda for a ``LambdaForm``."""
    if isinstance(form, OmegaForm):
        return -form.w
    if isinstance(form, LambdaForm):
        return form.lam
    raise TypeError("form must be an OmegaForm or a LambdaForm")


@lru_cache(maxsize=128)
def _skew_form(b: Matrix, d: tuple) -> Matrix:
    """W = B^T D^-1, checked skew.  Keyed on content, not on a ``Seed``,
    whose equality ignores its labels."""
    w = b.transpose() * Matrix.diagonal([Fraction(1, di) for di in d])
    if not w.is_skew_symmetric():
        raise ValueError("seed data does not induce a skew form; check the symmetrizers")
    return w


def omega_from_seed(seed: Seed) -> OmegaForm:
    return OmegaForm(seed, _skew_form(seed.b, seed.d))


def _compatibility_residual(seed: Seed, lam: Matrix, alpha) -> bool:
    prod = lam * seed.b_tilde()
    for i in range(seed.n):
        for pos, k in enumerate(seed.unfrozen):
            want = -Fraction(alpha, seed.d[k]) if i == k else 0
            if prod[i, pos] != want:
                return False
    return True


def solve_compatible_lambda(seed: Seed, alpha: int | None = None):
    """Integer skew form compatible with the seed, plus the family dimension.

    Compatibility is linear in ``alpha``, so with ``alpha`` unset the system
    is solved once at base = lcm(d_k : k unfrozen).  The family's members
    with the smallest common denominator r lie in (1/r)Z, and alpha = base*m
    has an integral member exactly when r divides m; the result is
    alpha = base*r with Lambda = r times that member.  Raises ``Infeasible``
    when the exchange columns are rank-deficient, the equations are
    inconsistent, or a given ``alpha`` has no integral member.
    """
    n = seed.n
    bt = seed.b_tilde()
    if bt.rank() < seed.partition.n_unfrozen:
        raise Infeasible("no compatible form: exchange columns are rank-deficient")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # unknowns: lam[i][j] for i<j; equations: (lam * b_tilde)[i][pos] = rhs
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
    coeffs = Matrix(rows).transpose()  # unknown-row times equation-col layout
    base = lcm(*(seed.d[k] for k in seed.unfrozen)) if alpha is None else alpha
    rhs = [-Fraction(base, seed.d[k]) if i == k else 0 for i in range(n) for k in seed.unfrozen]
    try:
        family = solve_affine(coeffs, Matrix([rhs]))
    except Infeasible:
        raise Infeasible("compatibility equations are inconsistent") from None
    if alpha is None:
        member, r = integral_member(family.particular, family.nullspace_basis)
        member, alpha = member.scale(r), base * r
    else:
        member = integer_solution(family.particular, family.nullspace_basis)
        if member is None:
            raise Infeasible("no integer-valued compatible form for the requested alpha")
    m = [[0] * n for _ in range(n)]
    for (a, b), v in zip(pairs, member.rows[0]):
        m[a][b] = v
        m[b][a] = -v
    lam = Matrix(m)
    if not _compatibility_residual(seed, lam, alpha):
        raise InternalConsistencyError("integer member of the family is not compatible")
    return LambdaForm(seed, lam, alpha), family.dim


def mutate_lambda(form: LambdaForm, seed: Seed, k: int) -> LambdaForm:
    """Transport a compatible form through one mutation.

    The transported form does not depend on the sign convention; the
    tests compare both on randomized seeds, so the plus sign is used here.
    """
    if form.seed != seed:
        raise ValueError("form does not belong to the seed being mutated")
    if not _compatibility_residual(seed, form.lam, form.alpha):
        raise ValueError("form is not compatible with the seed")
    target = mutate_b(seed, k)
    pm = trans_matrix(seed, k, 1, "M").matrix
    out = pm.transpose() * form.lam * pm
    new_form = LambdaForm(target, out, form.alpha)
    if not _compatibility_residual(target, out, form.alpha):
        raise ValueError("transported form lost compatibility")
    return new_form


def transport_lambda(form: LambdaForm, seq) -> list:
    """Forms along a mutation sequence, starting with the given one."""
    out = [form]
    for k in seq:
        out.append(mutate_lambda(out[-1], out[-1].seed, k))
    return out


def check_lambda_omega_link(form: LambdaForm, seed: Seed) -> dict:
    """Induced form on unfrozen X-degrees vs. the canonical one, and the
    pairing identity between exchange columns and the skew form."""
    omega = omega_from_seed(seed)
    bt = seed.b_tilde()
    uf = seed.unfrozen
    w_uf = omega.w.submatrix(uf, uf)
    induced = bt.transpose() * form.lam * bt
    report = {
        "compatible": _compatibility_residual(seed, form.lam, form.alpha),
        "induced_equals_minus_alpha_omega": induced == w_uf.scale(-form.alpha),
        "pairing_identity": all(
            Fraction(seed.b[j, i], seed.d[j]) == omega.w[i, j]
            for i in range(seed.n)
            for j in range(seed.n)
        ),
    }
    report["ok"] = all(report.values())
    return report


# -- symbolic brackets --------------------------------------------------------


def poisson_bracket(f, g, form) -> RationalExpr:
    """Poisson bracket of two expressions over the form's seed.

    On monomials the bracket is log-canonical,
    {X^a, X^b} = (a^T C b) X^(a+b), with C from ``log_canonical_matrix``.
    It extends bilinearly to Laurent polynomials, one pass over pairs of
    terms, and to fractions by the quotient rule
    {p/q, r/s} = (qs{p,r} - qr{p,s} - ps{q,r} + pr{q,s}) / (q^2 s^2),
    where {1, .} = 0 makes the terms of a denominator one vanish.
    """
    cmat = log_canonical_matrix(form)
    seed = form.seed
    if isinstance(f, LaurentPoly):
        f = RationalExpr(f)
    if isinstance(g, LaurentPoly):
        g = RationalExpr(g)
    if f.seed != seed or g.seed != seed:
        raise ValueError("bracket operands must live over the form's seed")

    def br(x, y):
        pairs = (
            (exp_add(a, b), ca * cb * cmat.bilinear(a, b)) for a, ca in x.terms.items() for b, cb in y.terms.items()
        )
        return LaurentPoly(seed, sum_terms(pairs), validate=False)

    p, q, r, s = f.num, f.den, g.num, g.den
    num = q * s * br(p, r) - q * r * br(p, s) - p * s * br(q, r) + p * r * br(q, s)
    return RationalExpr(num, (q * s) ** 2)
