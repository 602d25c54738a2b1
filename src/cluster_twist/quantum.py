"""Quantum torus algebras: normal-ordered elements with coefficients that
are Laurent polynomials in a root of the quantum parameter, the twisted
product, its commutative/Poisson limit, and monomial maps between tori.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from .exact import norm_rational
from .laurent import LaurentPoly, exp_add, sum_terms
from .poisson import LambdaForm, OmegaForm, poisson_bracket


class VPoly:
    """Laurent polynomial in the quantum parameter with rational exponents."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = sum_terms((norm_rational(e), c) for e, c in (terms or {}).items())

    @classmethod
    def v_power(cls, e, coeff=1):
        return cls({e: coeff})

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __add__(self, other):
        return VPoly(sum_terms(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return VPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return VPoly({e: c * other for e, c in self.terms.items()})
        return VPoly(sum_terms((e1 + e2, c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, VPoly) and self.terms == other.terms

    __hash__ = None

    def is_zero(self):
        return not self.terms

    def exponent_denominator(self) -> int:
        out = 1
        for e in self.terms:
            if isinstance(e, Fraction):
                out = lcm(out, e.denominator)
        return out

    def evaluate_at_one(self):
        return sum(self.terms.values())

    def substitute_power(self, l: int) -> "VPoly":
        """v -> w^l, turning all exponents integral for l a common multiple."""
        out = {}
        for e, c in self.terms.items():
            ne = norm_rational(e * l)
            if not isinstance(ne, int):
                raise ValueError("substitution does not clear the exponents")
            out[ne] = c
        return VPoly(out)

    def divide_by_w_minus_one(self) -> "VPoly":
        """Exact quotient by (w - 1) for integer-exponent polynomials that
        vanish at w = 1, by telescoping geometric sums."""
        if any(isinstance(e, Fraction) for e in self.terms):
            raise ValueError("quotient needs integral exponents")
        if self.evaluate_at_one() != 0:
            raise ValueError("polynomial does not vanish at one")
        # w^a - 1 = (w - 1) * (w^{a-1} + ... + 1) for a > 0, and
        # w^{-a} - 1 = -(w - 1) * w^{-a} (w^{a-1} + ... + 1)
        out = VPoly()
        for e, c in self.terms.items():
            if e == 0:
                continue
            if e > 0:
                geo = VPoly({j: c for j in range(e)})
            else:
                geo = VPoly({j + e: -c for j in range(-e)})
            out = out + geo
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda x: Fraction(x)):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}v^{e}" if e != 1 else f"{head}v")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class QTorusElem:
    """Normal-ordered element of a quantum torus over a seed's degree
    lattice, with the form fixing the twisted product."""

    form: OmegaForm | LambdaForm
    terms: tuple  # sorted ((exponent tuple, VPoly), ...)

    @property
    def seed(self):
        return self.form.seed

    @classmethod
    def from_terms(cls, form, mapping):
        items = []
        for e, c in mapping.items():
            if isinstance(c, (int, Fraction)):
                c = VPoly({0: c})
            if not c.is_zero():
                items.append((tuple(e), c))
        return cls(form, tuple(sorted(items, key=lambda t: t[0])))

    @classmethod
    def monomial(cls, form, exp, coeff=1):
        return cls.from_terms(form, {tuple(exp): coeff})

    @classmethod
    def generator(cls, form, i):
        exp = [0] * form.seed.n
        exp[i] = 1
        return cls.monomial(form, exp)

    @property
    def term_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        self._check(other)
        out = {e: c for e, c in self.terms}
        for e, c in other.terms:
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return QTorusElem.from_terms(self.form, out)

    def __sub__(self, other):
        self._check(other)
        out = {e: c for e, c in self.terms}
        for e, c in other.terms:
            cur = out.get(e, VPoly())
            out[e] = cur - c
        return QTorusElem.from_terms(self.form, out)

    def _check(self, other):
        if self.form != other.form:
            raise ValueError("operands live over different quantum tori")

    def evaluate_classical(self) -> LaurentPoly:
        """Set the quantum parameter to one."""
        return LaurentPoly(
            self.seed, {e: c.evaluate_at_one() for e, c in self.terms}
        )

    def __repr__(self):
        body = " + ".join(f"({c!r})*X^{list(e)}" for e, c in self.terms) or "0"
        return f"QTorusElem({body})"


def _twist_exponent(form, e1, e2):
    if isinstance(form, OmegaForm):
        return -form.pairing(e1, e2)
    return form.pairing(e1, e2)


def q_mul(a: QTorusElem, b: QTorusElem) -> QTorusElem:
    """Twisted product on normal-ordered terms."""
    a._check(b)
    out = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = exp_add(e1, e2)
            factor = VPoly.v_power(_twist_exponent(a.form, e1, e2))
            add = factor * c1 * c2
            cur = out.get(e)
            out[e] = add if cur is None else cur + add
    return QTorusElem.from_terms(a.form, out)


def poisson_limit_check(n1, n2, form, root_bound: int | None = None) -> dict:
    """Commutator of two quantum monomials against the classical bracket.

    The scaled commutator is divided by (parameter - 1) exactly, after a
    power substitution clears fractional exponents, then evaluated in the
    commutative limit and compared with the bracket of the corresponding
    classical monomials.
    """
    x1 = QTorusElem.monomial(form, n1)
    x2 = QTorusElem.monomial(form, n2)
    comm = q_mul(x1, x2) - q_mul(x2, x1)
    if root_bound is None:
        root_bound = 1
        for _, c in comm.terms:
            root_bound = lcm(root_bound, c.exponent_denominator())
        if isinstance(form, OmegaForm):
            d_all = 1
            for di in form.seed.d:
                d_all = lcm(d_all, di)
            root_bound = lcm(root_bound, d_all)
    limit_terms = {}
    for e, c in comm.terms:
        w_poly = c.substitute_power(root_bound)
        quotient = w_poly.divide_by_w_minus_one()
        val = Fraction(quotient.evaluate_at_one(), 2 * root_bound)
        if val != 0:
            limit_terms[e] = val
    limit = LaurentPoly(form.seed, limit_terms)
    classical = poisson_bracket(
        LaurentPoly.monomial(form.seed, n1),
        LaurentPoly.monomial(form.seed, n2),
        form,
    ).as_poly()
    return {"limit": limit, "classical": classical, "ok": limit == classical}


def quantum_monomial_map(var, elem: QTorusElem, target_form) -> QTorusElem:
    """Exponent-level action of a variation map, extended over the
    quantum coefficients."""
    if elem.seed != var.source:
        raise ValueError("element does not live over the variation's source")
    if target_form.seed != var.target:
        raise ValueError("target form does not live over the variation's target")
    out = {}
    for e, c in elem.terms:
        ne = var.matrix.apply(e)
        cur = out.get(ne)
        out[ne] = c if cur is None else cur + c
    return QTorusElem.from_terms(target_form, out)


def homomorphism_check(var, source_form, target_form) -> dict:
    """The monomial map respects the twisted product on all generator
    pairs exactly when the variation preserves the relevant form."""
    seed = var.source
    report = {}
    ok = True
    for i in range(seed.n):
        for j in range(seed.n):
            gi = QTorusElem.generator(source_form, i)
            gj = QTorusElem.generator(source_form, j)
            lhs = quantum_monomial_map(var, q_mul(gi, gj), target_form)
            rhs = q_mul(
                quantum_monomial_map(var, gi, target_form),
                quantum_monomial_map(var, gj, target_form),
            )
            good = lhs == rhs
            if not good:
                report[(i, j)] = False
                ok = False
    report["ok"] = ok
    return report
