"""Quantum torus algebras: normal-ordered elements whose terms carry a
rational power of the quantum parameter, the twisted product, its
commutative/Poisson limit, and monomial maps between tori.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .exact import InternalConsistencyError, norm_rational
from .laurent import LaurentPoly, exp_add, sum_terms
from .poisson import LambdaForm, OmegaForm, log_canonical_matrix, poisson_bracket


@dataclass(frozen=True)
class QTorusElem:
    """Normal-ordered element sum c * v^k * X^e of a quantum torus over a
    seed's degree lattice, with X^a * X^b = v^(a^T C b) * X^(a+b) for the
    form's log-canonical matrix C.  The power k of the quantum parameter v
    may be rational."""

    form: OmegaForm | LambdaForm
    terms: tuple  # sorted (((exponent tuple, k), coefficient), ...)

    @property
    def seed(self):
        return self.form.seed

    @classmethod
    def _from_pairs(cls, form, pairs):
        return cls(form, tuple(sorted(sum_terms(pairs).items())))

    @classmethod
    def from_terms(cls, form, mapping):
        """Classical element: every term has k = 0."""
        return cls._from_pairs(form, (((tuple(map(norm_rational, e)), 0), c) for e, c in mapping.items()))

    @classmethod
    def monomial(cls, form, exp, coeff=1, k=0):
        return cls._from_pairs(form, [((tuple(map(norm_rational, exp)), norm_rational(k)), coeff)])

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
        return QTorusElem._from_pairs(self.form, chain(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return QTorusElem._from_pairs(self.form, chain(self.terms, ((key, -c) for key, c in other.terms)))

    def _check(self, other):
        if self.form != other.form:
            raise ValueError("operands live over different quantum tori")

    def evaluate_classical(self) -> LaurentPoly:
        """Set the quantum parameter to one."""
        return LaurentPoly(self.seed, sum_terms((e, c) for (e, _), c in self.terms))

    def __repr__(self):
        body = " + ".join(f"{c}*v^{k}*X^{list(e)}" for (e, k), c in self.terms) or "0"
        return f"QTorusElem({body})"


def q_mul(a: QTorusElem, b: QTorusElem) -> QTorusElem:
    """Twisted product on normal-ordered terms."""
    a._check(b)
    cmat = log_canonical_matrix(a.form)
    return QTorusElem._from_pairs(
        a.form,
        (
            ((exp_add(e1, e2), norm_rational(k1 + k2 + cmat.bilinear(e1, e2))), c1 * c2)
            for (e1, k1), c1 in a.terms
            for (e2, k2), c2 in b.terms
        ),
    )


def poisson_limit_check(n1, n2, form) -> dict:
    """Commutator of two quantum monomials against the classical bracket.

    The commutator sum c_k v^k X^e vanishes at v = 1, and its quotient by
    v^2 - 1 tends to sum k c_k / 2 X^e there, exactly; that limit is
    compared with the bracket of the corresponding classical monomials.
    """
    x1 = QTorusElem.monomial(form, n1)
    x2 = QTorusElem.monomial(form, n2)
    comm = q_mul(x1, x2) - q_mul(x2, x1)
    if sum_terms((e, c) for (e, _), c in comm.terms):
        raise InternalConsistencyError("the commutator of quantum monomials does not vanish at v = 1")
    limit = LaurentPoly(form.seed, sum_terms((e, Fraction(k * c, 2)) for (e, k), c in comm.terms))
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
    return QTorusElem._from_pairs(target_form, (((var.matrix.apply(e), k), c) for (e, k), c in elem.terms))


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
