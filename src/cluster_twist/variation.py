"""Variation maps between similar seeds: frozen-direction adjustments of
degree lattices that fix the unfrozen pattern and the exchange columns.

Both sides are supported: maps on A-degrees (lower triangular against the
partition) and maps on X-degrees (upper triangular), together with exact
affine solution families, pullback duality, Poisson checks and transport
through mutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    ExactError,
    Infeasible,
    InternalConsistencyError,
    Matrix,
    affine_combination,
    integral_member,
    solve_affine,
)
from .laurent import LaurentPoly, RationalExpr
from .mutation import mutate_expr, trans_matrix
from .poisson import LambdaForm, omega_from_seed
from .seeds import Seed, SimilarityWitness, find_similarities, full_rank_check, mutate_b


class NotAffineFamily(ExactError):
    """A requested filter leads to genuinely quadratic conditions."""


_PARAM_NAMES = ("lambda", "mu", "alpha", "beta", "gamma", "delta")


def _sigma_or_first(source: Seed, target: Seed, sigma):
    if sigma is not None:
        return sigma
    sims = find_similarities(source, target)
    if not sims:
        raise Infeasible("seeds are not similar")
    return sims[0]


@dataclass(frozen=True)
class VariationMap:
    """A linear map between the degree lattices of two similar seeds that
    relabels the unfrozen directions by ``sigma``; ``MVariation`` and
    ``NVariation`` fix the lattice and the variation condition."""

    source: Seed
    target: Seed
    sigma: SimilarityWitness
    matrix: Matrix

    def __post_init__(self):
        n = self.source.n
        if self.matrix.shape != (n, n):
            raise ValueError("variation matrix has the wrong shape")

    @property
    def root_denominator(self) -> int:
        return self.matrix.denominator_lcm()

    def is_invertible(self) -> bool:
        return self.matrix.submatrix(self.target.frozen, self.source.frozen).det() != 0

    def inverse(self):
        return type(self)(self.target, self.source, self.sigma.inverse(), self.matrix.inverse())

    def apply(self, expr):
        return apply_variation(self, expr)


class MVariation(VariationMap):
    """Linear map on A-degrees: unfrozen degree vectors go to their
    relabeled counterparts plus frozen corrections, exchange columns map
    onto exchange columns."""

    side = "M"

    def __post_init__(self):
        super().__post_init__()
        V = self.matrix
        n = self.source.n
        for k in self.source.unfrozen:
            img = self.sigma.image(k)
            for r in range(n):
                want = 1 if r == img else 0
                if r in self.target.unfrozen and V[r, k] != want:
                    raise ValueError("unfrozen block must be the relabeling permutation")
        for j in self.source.frozen:
            for r in self.target.unfrozen:
                if V[r, j] != 0:
                    raise ValueError("frozen columns may not touch unfrozen degrees")

    @property
    def low_block(self) -> Matrix:
        """Frozen-row block over unfrozen columns, i.e. the corrections
        composed with the relabeling."""
        return self.matrix.submatrix(self.target.frozen, self.source.unfrozen)

    @property
    def u_low(self) -> Matrix:
        """Frozen corrections indexed by target unfrozen position."""
        return self.low_block * self.sigma.uf_matrix().inverse()

    @property
    def u_f(self) -> Matrix:
        return self.matrix.submatrix(self.target.frozen, self.source.frozen)

    def is_variation(self) -> bool:
        lhs = self.matrix * self.source.b_tilde()
        rhs = self.target.b_tilde() * self.sigma.uf_matrix()
        return lhs == rhs


class NVariation(VariationMap):
    """Linear map on X-degrees with the dual triangular shape; a variation
    map when it preserves the canonical skew pairing against unfrozen
    directions."""

    side = "N"

    def __post_init__(self):
        super().__post_init__()
        V = self.matrix
        n = self.source.n
        for k in self.source.unfrozen:
            img = self.sigma.image(k)
            for r in range(n):
                want = 1 if r == img else 0
                if V[r, k] != want:
                    raise ValueError("unfrozen columns must be unit relabeling vectors")

    @property
    def v_high(self) -> Matrix:
        return self.matrix.submatrix(self.target.unfrozen, self.source.frozen)

    @property
    def v_f(self) -> Matrix:
        return self.matrix.submatrix(self.target.frozen, self.source.frozen)

    def is_variation(self) -> bool:
        w_s = omega_from_seed(self.source).w
        w_t = omega_from_seed(self.target).w
        prod = self.matrix.transpose() * w_t * self.matrix
        return all(
            prod[i, k] == w_s[i, k] for i in range(self.source.n) for k in self.source.unfrozen
        )


def is_poisson(var, lam_source: LambdaForm | None = None, lam_target: LambdaForm | None = None) -> bool:
    """Exact form preservation: the canonical skew form for X-degree maps,
    supplied compatible forms for A-degree maps."""
    if isinstance(var, NVariation):
        w_s = omega_from_seed(var.source).w
        w_t = omega_from_seed(var.target).w
        return var.matrix.transpose() * w_t * var.matrix == w_s
    if isinstance(var, MVariation):
        if lam_source is None or lam_target is None:
            raise ValueError("A-degree Poisson check needs compatible forms for both seeds")
        return var.matrix.transpose() * lam_target.lam * var.matrix == lam_source.lam
    raise TypeError("expected a variation map")


def pullback(var):
    """Dual map between the opposite degree lattices, with source and
    target swapped.  A map is a variation exactly when its pullback is;
    the equivalence is asserted on every call."""
    if var.source.d != var.target.d:
        raise ValueError("pullback needs identical symmetrizer tuples")
    # adjoint against the pairing whose Gram matrix is diag(1/d)
    mat = var.source.d_matrix() * var.matrix.transpose() * var.source.d_inverse_matrix()
    if isinstance(var, MVariation):
        out = NVariation(var.target, var.source, var.sigma.inverse(), mat)
    elif isinstance(var, NVariation):
        out = MVariation(var.target, var.source, var.sigma.inverse(), mat)
    else:
        raise TypeError("expected a variation map")
    if out.is_variation() != var.is_variation():
        raise InternalConsistencyError("pullback broke the variation property")
    return out


def apply_variation(var, expr):
    """Monomial substitution on exponents by the variation matrix."""
    if not isinstance(expr, (LaurentPoly, RationalExpr)):
        raise TypeError("expected a Laurent polynomial or rational expression")
    if expr.seed != var.source:
        raise ValueError("expression does not live over the variation's source seed")
    return expr.substitute_monomial(var.matrix, var.target)


# -- solution families --------------------------------------------------------


@dataclass
class VariationFamily:
    """Affine family particular + span(basis) of variation matrices."""

    kind: str  # 'M' or 'N'
    source: Seed
    target: Seed
    sigma: SimilarityWitness
    particular: Matrix
    basis: list
    extra_filters: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def param_names(self) -> tuple:
        if self.dim <= len(_PARAM_NAMES):
            return _PARAM_NAMES[: self.dim]
        return tuple(f"p{i + 1}" for i in range(self.dim))

    def matrix_at(self, coeffs) -> Matrix:
        if isinstance(coeffs, dict):
            names = self.param_names
            unknown = set(coeffs) - set(names)
            if unknown:
                raise ValueError(f"unknown parameters {sorted(unknown)}; family has {list(names)}")
            coeffs = [coeffs.get(name, 0) for name in names]
        return affine_combination(self.particular, coeffs, self.basis)

    def member(self, coeffs=None):
        mat = self.particular if coeffs is None else self.matrix_at(coeffs)
        return self._variation(mat)

    def _variation(self, mat: Matrix) -> VariationMap:
        cls = MVariation if self.kind == "M" else NVariation
        return cls(self.source, self.target, self.sigma, mat)

    def coefficients_of(self, mat: Matrix):
        """Coordinates of a matrix inside the family, or None if outside."""
        diff = mat - self.particular
        flat = [x for row in diff.rows for x in row]
        if not self.basis:
            return () if all(x == 0 for x in flat) else None
        cols = [[x for row in b.rows for x in row] for b in self.basis]
        a = Matrix(cols)  # dim x (n*n); solve t * a = flat
        try:
            sol = solve_affine(a, Matrix([flat]))
        except Infeasible:
            return None
        return tuple(sol.particular.rows[0])

    def contains(self, mat: Matrix) -> bool:
        return self.coefficients_of(mat) is not None

    def integral_refinement(self):
        """Member with the smallest achievable exponent denominator."""
        mat, r = integral_member(self.particular, self.basis)
        return self._variation(mat), r


def _frozen_rows(n: int, frozen: tuple, block: Matrix) -> Matrix:
    """n x n matrix carrying the rows of ``block`` in the ``frozen`` rows
    and zero elsewhere: a direction of a variation family, or its frozen
    part."""
    rows = [[0] * n for _ in range(n)]
    for pos, r in enumerate(frozen):
        rows[r] = list(block.rows[pos])
    return Matrix(rows)


def _relabeling(n: int, sigma: SimilarityWitness) -> Matrix:
    """The unfrozen columns every member of a variation family shares."""
    rows = [[0] * n for _ in range(n)]
    for k in sigma.source.unfrozen:
        rows[sigma.image(k)][k] = 1
    return Matrix(rows)


def solve_M_variation(source: Seed, target: Seed, sigma: SimilarityWitness | None = None) -> VariationFamily:
    """Affine family of A-degree variation maps between similar seeds.

    Requires the source exchange columns at full rank; the family's free
    directions are exactly the frozen-row annihilators of those columns.
    Its dimension is therefore ``|I_f| * (n - rank B~)``, which is
    ``|I_f|**2`` under the full-rank precondition; it equals
    ``|I_f| * |I_uf|`` only when ``|I_f| == |I_uf|``.
    """
    sigma = _sigma_or_first(source, target, sigma)
    if not full_rank_check(source).is_full_rank:
        raise Infeasible("exchange columns are rank-deficient")
    bt_s = source.b_tilde()
    rhs_full = target.b_tilde() * sigma.uf_matrix()
    # unfrozen rows are forced by similarity; verify before solving
    for r in target.unfrozen:
        for pos, k in enumerate(source.unfrozen):
            want = rhs_full[r, pos]
            got = bt_s[sigma.inverse().image(r), pos]
            if want != got:
                raise Infeasible("similarity witness does not match the exchange data")
    y = rhs_full.submatrix(target.frozen, range(len(source.unfrozen)))
    sol = solve_affine(bt_s, y)
    particular = _frozen_rows(source.n, target.frozen, sol.particular) + _relabeling(source.n, sigma)
    basis = [_frozen_rows(source.n, target.frozen, b) for b in sol.nullspace_basis]
    fam = VariationFamily("M", source, target, sigma, particular, basis)
    if not fam.member().is_variation():
        raise InternalConsistencyError("particular A-degree solution is not a variation map")
    return fam


def solve_N_variation(
    source: Seed,
    target: Seed,
    sigma: SimilarityWitness | None = None,
    poisson: bool = False,
) -> VariationFamily:
    """Affine family of X-degree variation maps between similar seeds.

    With ``poisson=True`` the full form-preservation conditions are added;
    they are linear on the variation family whenever their quadratic part
    cancels, otherwise ``NotAffineFamily`` is raised.
    """
    sigma = _sigma_or_first(source, target, sigma)
    w_s = omega_from_seed(source).w
    w_t = omega_from_seed(target).w
    for i in source.unfrozen:
        for k in source.unfrozen:
            if w_t[sigma.image(i), sigma.image(k)] != w_s[i, k]:
                raise Infeasible("similarity witness does not preserve the skew form")
    n = source.n
    fr = source.frozen
    uf = source.unfrozen
    # unknown rows: columns of V at frozen source indices, transposed
    a = Matrix([[w_t[r, sigma.image(k)] for k in uf] for r in range(n)])
    y = Matrix([[w_s[i, k] for k in uf] for i in fr], len(uf))
    sol = solve_affine(a, y)

    # the unknowns are the frozen columns of V, solved for as rows
    particular = _frozen_rows(n, fr, sol.particular).transpose() + _relabeling(n, sigma)
    basis = [_frozen_rows(n, fr, b).transpose() for b in sol.nullspace_basis]
    fam = VariationFamily("N", source, target, sigma, particular, basis)
    if not fam.member().is_variation():
        raise InternalConsistencyError("particular X-degree solution is not a variation map")
    if poisson:
        fam = _poisson_filter(fam, w_s, w_t)
    return fam


def _poisson_filter(fam: VariationFamily, w_s: Matrix, w_t: Matrix) -> VariationFamily:
    """Impose the frozen-frozen form equations on an N-side family."""
    n = fam.source.n
    fr = fam.source.frozen
    dim = fam.dim
    p_cols = {j: fam.particular.col(j) for j in fr}
    z_cols = [{j: b.col(j) for j in fr} for b in fam.basis]

    lin_rows = []
    consts = []
    for ii in range(len(fr)):
        for jj in range(ii + 1, len(fr)):
            i, j = fr[ii], fr[jj]
            for a in range(dim):
                for b in range(a, dim):
                    q = w_t.bilinear(z_cols[a][i], z_cols[b][j])
                    if a != b:
                        q += w_t.bilinear(z_cols[b][i], z_cols[a][j])
                    if q != 0:
                        raise NotAffineFamily(
                            "form-preservation is quadratic on this family"
                        )
            row = [
                w_t.bilinear(z_cols[a][i], p_cols[j]) + w_t.bilinear(p_cols[i], z_cols[a][j])
                for a in range(dim)
            ]
            lin_rows.append(row)
            consts.append(w_s[i, j] - w_t.bilinear(p_cols[i], p_cols[j]))
    if not lin_rows:
        return fam
    if dim == 0:
        if any(c != 0 for c in consts):
            raise Infeasible("no form-preserving member exists")
        return fam
    a = Matrix(lin_rows).transpose()  # unknowns t: t * a = consts
    try:
        sol = solve_affine(a, Matrix([consts]))
    except Infeasible as exc:
        raise Infeasible("no form-preserving member exists") from exc
    t0 = sol.particular.rows[0]
    new_particular = fam.matrix_at(t0)
    new_basis = [affine_combination(Matrix.zero(n, n), vec, fam.basis) for vec in sol.kernel_rows]
    out = VariationFamily(
        fam.kind, fam.source, fam.target, fam.sigma, new_particular, new_basis,
        extra_filters=fam.extra_filters + ("poisson",),
    )
    if not is_poisson(out.member()):
        raise InternalConsistencyError("form-preserving member does not preserve the form")
    return out


# -- transport through mutations ----------------------------------------------


def transport(var, k: int):
    """Move a variation map one mutation step: the source mutates at k,
    the target at the relabeled vertex.

    The transported matrix is checked to be a variation map again, to
    preserve invertibility, form preservation (X-degree side), and to make
    the one-step expression square commute on every generator.
    """
    if k not in var.source.unfrozen:
        raise ValueError(f"vertex {k} is frozen")
    kk = var.sigma.image(k)
    s2 = mutate_b(var.source, k)
    t2 = mutate_b(var.target, kk)
    p_src = trans_matrix(var.source, k, 1, var.side).matrix
    p_tgt = trans_matrix(var.target, kk, 1, var.side).matrix
    new_mat = p_tgt * var.matrix * p_src
    new_sigma = SimilarityWitness(s2, t2, var.sigma.pairs)
    cls = type(var)
    out = cls(s2, t2, new_sigma, new_mat)
    if out.is_variation() != var.is_variation():
        raise InternalConsistencyError("transport broke the variation property")
    if out.is_invertible() != var.is_invertible():
        raise InternalConsistencyError("transport broke invertibility")
    if isinstance(var, NVariation) and is_poisson(out) != is_poisson(var):
        raise InternalConsistencyError("transport broke form preservation")
    side = "A" if isinstance(var, MVariation) else "X"
    for i in range(var.source.n):
        gen = LaurentPoly.generator(s2, i)
        lhs = apply_variation(var, mutate_expr(gen, var.source, k, side))
        rhs = mutate_expr(apply_variation(out, gen), var.target, kk, side)
        if lhs != rhs:
            raise InternalConsistencyError("transport square does not commute on generators")
    return out
