"""Exact rational matrices, vectors and linear solvers.

Dense matrices over arbitrary-precision rationals, sized for desk-scale
ranks (up to ~12).  All results are exact; the pivot choice (smallest
bit-length) only limits intermediate coefficient growth, never accuracy.
Matrices are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class Infeasible(ExactError):
    """A linear system admits no rational solution."""


class NotFound(ExactError):
    """A bounded search terminated without a witness."""


class InternalConsistencyError(ExactError):
    """An identity that must hold by theory failed symbolically."""


def norm_rational(x):
    """The canonical form of a rational scalar: integral Fractions collapse
    to int so hashing and printing stay tidy.  The one normalizer of the
    package, for matrix entries, coefficients and exponents alike; anything
    that is not an int or a Fraction raises ``TypeError``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


def _bitlen(x) -> int:
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return x.bit_length()


class Matrix:
    """A dense, immutable matrix with exact rational entries."""

    __slots__ = ("rows", "nrows", "ncols", "_hash")

    def __init__(self, rows, ncols: int | None = None):
        """``ncols`` gives the width of a matrix without rows; with rows it
        must match their length."""
        self.rows = tuple(tuple(norm_rational(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        if any(len(r) != ncols for r in self.rows):
            raise ValueError("ragged rows")
        self._hash = hash(self.rows)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries) -> "Matrix":
        return cls([[x] for x in entries])

    @classmethod
    def from_blocks(cls, blocks) -> "Matrix":
        """Assemble from a 2D grid of matrices, e.g. [[A, B], [C, D]]."""
        rows = []
        for block_row in blocks:
            height = block_row[0].nrows
            if any(b.nrows != height for b in block_row):
                raise ValueError("block heights differ")
            for i in range(height):
                row = []
                for b in block_row:
                    row.extend(b.rows[i])
                rows.append(row)
        return cls(rows)

    # -- basic accessors ----------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix([[self.rows[i][j] for j in col_idx] for i in row_idx], len(col_idx))

    def to_lists(self):
        return [list(r) for r in self.rows]

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Matrix({self.to_lists()!r})"

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.rows for x in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_skew_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i, self.ncols)
        )

    def denominator_lcm(self) -> int:
        out = 1
        for row in self.rows:
            for x in row:
                if isinstance(x, Fraction):
                    out = lcm(out, x.denominator)
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows], self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
            cols = [other.col(j) for j in range(other.ncols)]
            return Matrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.rows
                ],
                other.ncols,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "Matrix":
        return Matrix([[s * a for a in row] for row in self.rows], self.ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def apply(self, vec):
        """Matrix-vector product, returning a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(norm_rational(sum(a * b for a, b in zip(row, vec))) for row in self.rows)

    def bilinear(self, u, v):
        """The pairing u^T * self * v of two vectors, skipping zero entries
        of ``u``."""
        if len(u) != self.nrows or len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        total = 0
        for x, row in zip(u, self.rows):
            if x != 0:
                total += x * sum(r * y for r, y in zip(row, v))
        return total

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple).

        Pivots are chosen with the smallest bit-length among nonzero
        candidates in the current column.
        """
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            best = None
            for i in range(r, nr):
                if m[i][c] != 0:
                    if best is None or _bitlen(m[i][c]) < _bitlen(m[best][c]):
                        best = i
            if best is None:
                continue
            m[r], m[best] = m[best], m[r]
            piv = m[r][c]
            if piv != 1:
                inv = Fraction(1) / piv
                m[r] = [norm_rational(Fraction(x) * inv) if x != 0 else 0 for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [norm_rational(Fraction(a) - f * b) if (a != 0 or b != 0) else 0
                            for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        m = [list(r) for r in self.rows]
        n = self.nrows
        det = Fraction(1)
        for c in range(n):
            best = None
            for i in range(c, n):
                if m[i][c] != 0:
                    if best is None or _bitlen(m[i][c]) < _bitlen(m[best][c]):
                        best = i
            if best is None:
                return 0
            if best != c:
                m[c], m[best] = m[best], m[c]
                det = -det
            piv = Fraction(m[c][c])
            det *= piv
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = Fraction(m[i][c]) / piv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return norm_rational(det)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix(
            [list(self.rows[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
        )
        red, pivots = aug.rref()
        if pivots != tuple(range(n)):
            raise Infeasible("matrix is singular")
        return red.submatrix(range(n), range(n, 2 * n))

    def nullspace(self):
        """Basis of {v : self * v = 0}, as a list of tuples."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = norm_rational(-Fraction(red.rows[r][fc]))
            basis.append(tuple(v))
        return basis


@dataclass(frozen=True)
class IndexPartition:
    """A frozen/unfrozen split of the index set {0..n-1}.

    The orderings of both lists are fixed for the lifetime of a
    computation; block submatrices follow them.
    """

    n: int
    unfrozen: tuple
    frozen: tuple

    def __post_init__(self):
        uf, fr = tuple(self.unfrozen), tuple(self.frozen)
        object.__setattr__(self, "unfrozen", uf)
        object.__setattr__(self, "frozen", fr)
        if sorted(uf + fr) != list(range(self.n)):
            raise ValueError("unfrozen and frozen must partition 0..n-1")

    @property
    def n_unfrozen(self) -> int:
        return len(self.unfrozen)

    @property
    def n_frozen(self) -> int:
        return len(self.frozen)


def permutation_matrix(sigma, size: int) -> Matrix:
    """Matrix whose column i is the unit vector at sigma[i].

    Satisfies col_k(H @ P) = col_{sigma(k)}(H) for any H.
    """
    sigma = list(sigma)
    if sorted(sigma) != list(range(size)):
        raise ValueError(f"not a permutation of 0..{size - 1}: {sigma}")
    m = [[0] * size for _ in range(size)]
    for i, s in enumerate(sigma):
        m[s][i] = 1
    return Matrix(m)


@dataclass
class AffineSolution:
    """Solutions of X*A = Y: ``particular`` plus the span of ``kernel_rows``
    placed in any row of X.  ``dim`` counts free rational parameters."""

    particular: Matrix
    kernel_rows: list
    unknown_rows: int
    dim: int = field(init=False)

    def __post_init__(self):
        self.dim = self.unknown_rows * len(self.kernel_rows)

    @property
    def nullspace_basis(self):
        """Full list of matrix directions spanning {Z : Z*A = 0}."""
        out = []
        ncols = self.particular.ncols
        for i in range(self.unknown_rows):
            for v in self.kernel_rows:
                rows = [[0] * ncols for _ in range(self.unknown_rows)]
                rows[i] = list(v)
                out.append(Matrix(rows))
        return out

    def member(self, coeffs) -> Matrix:
        """particular + sum(c * basis direction) for flat coefficient list."""
        return affine_combination(self.particular, coeffs, self.nullspace_basis)


def affine_combination(origin: Matrix, coeffs, directions) -> Matrix:
    """origin + sum(c * direction) over paired coefficients and directions,
    summed entry by entry in one pass; ``origin`` itself when every
    coefficient is zero."""
    coeffs, directions = list(coeffs), list(directions)
    if len(coeffs) != len(directions):
        raise ValueError(f"expected {len(directions)} coefficients, got {len(coeffs)}")
    for d in directions:
        origin._same_shape(d)
    terms = [(c, d.rows) for c, d in zip(coeffs, directions) if c != 0]
    if not terms:
        return origin
    return Matrix(
        [
            [x + sum(c * rows[i][j] for c, rows in terms) for j, x in enumerate(row)]
            for i, row in enumerate(origin.rows)
        ],
        origin.ncols,
    )


def solve_affine(a: Matrix, y: Matrix) -> AffineSolution:
    """Solve X*A = Y for X exactly, row by row.

    Returns the particular solution (free variables set to zero) together
    with a basis of the row kernel {v : v*A = 0}.  Raises ``Infeasible``
    when no rational solution exists.
    """
    if a.nrows == 0:
        raise ValueError("empty coefficient matrix")
    if y.ncols != a.ncols:
        raise ValueError("column count mismatch between A and Y")
    at = a.transpose()  # x * A = y  <=>  A^T x^T = y^T
    aug = Matrix([list(at.rows[i]) + list(y.col(i)) for i in range(at.nrows)])
    red, pivots = aug.rref()
    n_unknown = a.nrows
    if any(p >= n_unknown for p in pivots):
        raise Infeasible("no rational solution: inconsistent system")
    piv_of_col = {p: r for r, p in enumerate(pivots)}
    part_rows = []
    for rhs in range(y.nrows):
        x = [0] * n_unknown
        for c, r in piv_of_col.items():
            x[c] = red.rows[r][n_unknown + rhs]
        part_rows.append(x)
    kernel = at.nullspace()
    return AffineSolution(Matrix(part_rows), kernel, y.nrows)


def integer_diagonal_form(mat: Matrix):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (U, S, W) with U*M*W = S diagonal and U, W integer matrices of
    determinant +-1.  The divisibility chain of the Smith form is not
    enforced; a plain diagonal suffices for solving linear systems over Z.
    """
    if not mat.is_integral():
        raise ValueError("integer diagonalization needs an integer matrix")
    m = [list(r) for r in mat.rows]
    nr, nc = mat.nrows, mat.ncols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    w = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, f):  # row_i -= f * row_j
        m[i] = [a - f * b for a, b in zip(m[i], m[j])]
        u[i] = [a - f * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for r in range(nr):
            m[r][i] -= f * m[r][j]
        for r in range(nc):
            w[r][i] -= f * w[r][j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(nr):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(nc):
            w[r][i], w[r][j] = w[r][j], w[r][i]

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            swapped = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    row_op(i, t, m[i][t] // m[t][t])
                    if m[i][t] != 0:  # remainder became the smaller pivot
                        swap_rows(t, i)
                        swapped = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    col_op(j, t, m[t][j] // m[t][t])
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        swapped = True
            if not swapped:
                if all(m[i][t] == 0 for i in range(t + 1, nr)) and all(
                    m[t][j] == 0 for j in range(t + 1, nc)
                ):
                    break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return Matrix(u), Matrix(m), Matrix(w)


def integral_member(particular: Matrix, basis) -> tuple:
    """Member of the affine family with the smallest common denominator.

    Returns (member, r) where every entry of ``member`` lies in (1/r) * Z
    and r is minimal over the family.  r == 1 means a genuinely integral
    member was found.
    """
    nr, nc = particular.nrows, particular.ncols
    x0 = [Fraction(x) for row in particular.rows for x in row]
    dirs = [[Fraction(x) for row in b.rows for x in row] for b in basis]
    n = nr * nc

    if not dirs:
        r = 1
        for x in x0:
            r = lcm(r, x.denominator)
        member = particular
        return member, r

    v = Matrix([[dirs[k][i] for k in range(len(dirs))] for i in range(n)])
    # rows spanning the left annihilator of the direction space
    k_rows = v.transpose().nullspace()
    if not k_rows:
        # directions span everything: pick t solving V t = -x0 exactly
        sol = solve_affine(v.transpose(), Matrix([[-x for x in x0]]))
        return affine_combination(particular, sol.particular.rows[0], basis), 1

    # scale constraint rows to integers
    scaled_rows = []
    rhs = []
    for row in k_rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        irow = [int(x * den) for x in row]
        g = 0
        for x in irow:
            g = gcd(g, x)
        if g > 1:
            irow = [x // g for x in irow]
        scaled_rows.append(irow)
        rhs.append(sum(Fraction(a) * b for a, b in zip(irow, x0)))
    kmat = Matrix(scaled_rows)
    u, s, w = integer_diagonal_form(kmat)
    c = u * Matrix.column(rhs)
    diag = [s.rows[i][i] for i in range(min(s.nrows, s.ncols))]
    r = 1
    for i in range(kmat.nrows):
        ci = Fraction(c.rows[i][0])
        si = diag[i] if i < len(diag) else 0
        if si == 0:
            if ci != 0:
                raise Infeasible("inconsistent integrality constraints")
            continue
        ratio = ci / si
        r = lcm(r, ratio.denominator)
    z = [0] * kmat.ncols
    for i in range(min(len(diag), kmat.ncols)):
        if diag[i] != 0:
            z[i] = norm_rational(Fraction(c.rows[i][0]) * r / diag[i])
            if not isinstance(z[i], int):
                raise InternalConsistencyError("scaled diagonal solution is not integral")
    member_flat = [Fraction(yi, r) for yi in w.apply(z)]
    return Matrix([member_flat[i * nc:(i + 1) * nc] for i in range(nr)]), r


def integer_solution(particular: Matrix, basis):
    """All-integer member of the affine family, or None when none exists."""
    member, r = integral_member(particular, basis)
    return member if r == 1 else None
