"""Seeds: integer exchange matrices with skew-symmetrizers and a frozen
partition, their validation, mutation, similarity detection and the
monomial map from X-degrees to A-degrees.

Indices are 0-based throughout the library; the JSON schema used by the
command line is 1-based and converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .exact import IndexPartition, Matrix, permutation_matrix


@dataclass(frozen=True)
class Seed:
    """An exchange matrix with skew-symmetrizers and an index partition."""

    partition: IndexPartition
    b: Matrix
    d: tuple
    labels: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        n = self.partition.n
        if self.b.shape != (n, n):
            raise ValueError(f"exchange matrix must be {n}x{n}")
        if len(self.d) != n:
            raise ValueError("one skew-symmetrizer per index required")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("one label per index required")

    # -- accessors ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def unfrozen(self) -> tuple:
        return self.partition.unfrozen

    @property
    def frozen(self) -> tuple:
        return self.partition.frozen

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i + 1)

    def b_tilde(self) -> Matrix:
        """The n x |unfrozen| submatrix of exchange columns."""
        return self.b.submatrix(range(self.n), self.unfrozen)

    def d_inverse_matrix(self) -> Matrix:
        """diag(1/d_i); the symmetrizing diagonal."""
        return Matrix.diagonal([Fraction(1, di) for di in self.d])

    def d_matrix(self) -> Matrix:
        return Matrix.diagonal(self.d)

    def uf_block(self, mat: Matrix) -> Matrix:
        """Unfrozen principal block of an n x n matrix, in partition order."""
        return mat.submatrix(self.unfrozen, self.unfrozen)

    def block(self, mat: Matrix, rows: str, cols: str) -> Matrix:
        pick = {"uf": self.unfrozen, "f": self.frozen}
        return mat.submatrix(pick[rows], pick[cols])

    def __repr__(self):
        return f"Seed(n={self.n}, unfrozen={self.unfrozen}, b={self.b.to_lists()}, d={self.d})"


def make_seed(b_rows, frozen=(), d=None, labels=None) -> Seed:
    """Convenience constructor from plain lists (0-based frozen indices)."""
    b = Matrix(b_rows)
    n = b.nrows
    frozen = tuple(sorted(frozen))
    unfrozen = tuple(i for i in range(n) if i not in frozen)
    part = IndexPartition(n, unfrozen, frozen)
    if d is None:
        sym = find_skew_symmetrizer(b)
        if sym.d is None:
            raise ValueError("matrix is not skew-symmetrizable; pass d explicitly")
        d = sym.d
    return Seed(part, b, tuple(d), labels)


@dataclass(frozen=True)
class SeedViolation:
    kind: str
    where: tuple
    detail: str


@dataclass(frozen=True)
class SeedReport:
    ok: bool
    violations: tuple

    @property
    def first(self):
        return self.violations[0] if self.violations else None


def validate(seed: Seed) -> SeedReport:
    """Check the seed invariants; reports the first offending pair instead
    of raising."""
    problems = []
    for i, di in enumerate(seed.d):
        if not isinstance(di, int) or di <= 0:
            problems.append(SeedViolation("symmetrizer", (i,), f"d_{i + 1} = {di} is not a positive integer"))
    for i in range(seed.n):
        for j in range(seed.n):
            if not isinstance(seed.b[i, j], int):
                problems.append(SeedViolation("integrality", (i, j), f"b[{i + 1}][{j + 1}] is not an integer"))
    if not problems:
        for i in range(seed.n):
            for j in range(i, seed.n):
                lhs = Fraction(seed.b[i, j], seed.d[i])
                rhs = -Fraction(seed.b[j, i], seed.d[j])
                if lhs != rhs:
                    problems.append(
                        SeedViolation(
                            "skew-symmetry",
                            (i, j),
                            f"b[{i + 1}][{j + 1}]/d_{i + 1} != -b[{j + 1}][{i + 1}]/d_{j + 1}",
                        )
                    )
                    break
            if problems:
                break
    return SeedReport(not problems, tuple(problems))


@dataclass(frozen=True)
class SymmetrizerResult:
    d: tuple | None
    unique: bool
    components: tuple


def _components(b: Matrix):
    n = b.nrows
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if not seen[j] and (b[i, j] != 0 or b[j, i] != 0):
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def find_skew_symmetrizer(b: Matrix) -> SymmetrizerResult:
    """Primitive positive integer symmetrizers of an integer matrix.

    Within each connected component the symmetrizer is unique up to a
    scalar; disconnected matrices get per-component primitive choices and
    are flagged as non-unique.  Returns d=None when no positive
    symmetrizer exists.
    """
    n = b.nrows
    if not b.is_square() or not b.is_integral():
        raise ValueError("need a square integer matrix")
    comps = _components(b)
    d = [None] * n
    for comp in comps:
        root = comp[0]
        d[root] = Fraction(1)
        queue = [root]
        while queue:
            i = queue.pop()
            for j in comp:
                if d[j] is None and b[i, j] != 0 and b[j, i] != 0:
                    # b_ij / d_i = -b_ji / d_j
                    d[j] = -d[i] * Fraction(b[j, i], b[i, j])
                    if d[j] <= 0:
                        return SymmetrizerResult(None, False, comps)
                    queue.append(j)
                elif d[j] is None and (b[i, j] != 0) != (b[j, i] != 0):
                    return SymmetrizerResult(None, False, comps)  # one-sided zero
        if any(d[j] is None for j in comp):
            return SymmetrizerResult(None, False, comps)
        denom = 1
        for j in comp:
            denom = lcm(denom, d[j].denominator)
        vals = [int(d[j] * denom) for j in comp]
        g = 0
        for v in vals:
            g = gcd(g, v)
        for j, v in zip(comp, vals):
            d[j] = v // g
    dd = tuple(int(x) for x in d)
    for i in range(n):
        for j in range(n):
            if Fraction(b[i, j], dd[i]) != -Fraction(b[j, i], dd[j]):
                return SymmetrizerResult(None, False, comps)
    return SymmetrizerResult(dd, len(comps) == 1, comps)


def mutate_b(seed: Seed, k: int) -> Seed:
    """Mutate the exchange matrix at an unfrozen vertex.

    The result does not depend on the sign convention of the mutation
    rule; the tests compare both conventions on randomized seeds, so the
    rule is computed here at the plus sign only.
    """
    if k not in seed.unfrozen:
        raise ValueError(f"vertex {k} is frozen; cannot mutate")
    b = seed.b.rows
    rows = [
        [
            -b[i][j] if k in (i, j) else b[i][j] + b[i][k] * max(b[k][j], 0) + max(-b[i][k], 0) * b[k][j]
            for j in range(seed.n)
        ]
        for i in range(seed.n)
    ]
    return Seed(seed.partition, Matrix(rows), seed.d, seed.labels)


def mutate_b_along(seed: Seed, seq) -> list:
    """Seeds visited while mutating along a vertex sequence (incl. start)."""
    out = [seed]
    for k in seq:
        out.append(mutate_b(out[-1], k))
    return out


def p_star(seed: Seed, n_vec) -> tuple:
    """Exponent image of an X-degree: the full exchange matrix applied to n."""
    return seed.b.apply(tuple(n_vec))


@dataclass(frozen=True)
class SimilarityWitness:
    """Permutation of unfrozen indices matching two seeds' unfrozen data,
    extended by the identity on frozen indices."""

    source: Seed
    target: Seed
    pairs: tuple  # ((i, sigma_i), ...) over unfrozen i of source

    @property
    def mapping(self) -> dict:
        return dict(self.pairs)

    def image(self, i: int) -> int:
        m = self.mapping
        return m.get(i, i)

    def full_map(self) -> tuple:
        return tuple(self.image(i) for i in range(self.source.n))

    def full_matrix(self) -> Matrix:
        return permutation_matrix(self.full_map(), self.source.n)

    def uf_matrix(self) -> Matrix:
        """Permutation matrix in unfrozen-position coordinates."""
        src = self.source.unfrozen
        tgt = self.target.unfrozen
        pos = {idx: p for p, idx in enumerate(tgt)}
        return permutation_matrix([pos[self.image(i)] for i in src], len(src))

    def inverse(self) -> "SimilarityWitness":
        return SimilarityWitness(
            self.target, self.source, tuple((j, i) for i, j in self.pairs)
        )

    def is_identity(self) -> bool:
        return all(i == j for i, j in self.pairs)


def identity_witness(source: Seed, target: Seed) -> SimilarityWitness:
    return SimilarityWitness(source, target, tuple((i, i) for i in source.unfrozen))


def find_similarities(t: Seed, u: Seed) -> list:
    """All unfrozen permutations sigma with b_ij(t) = b_{sigma i, sigma j}(u)
    and d_i = d_{sigma i}.  The empty list means the seeds are not similar."""
    if t.partition != u.partition:
        return []
    src = list(t.unfrozen)
    witnesses = []

    def row_profile(seed, i):
        vals = sorted((seed.b[i, j], seed.b[j, i]) for j in seed.unfrozen if j != i)
        return (seed.d[i], seed.b[i, i], tuple(vals))

    prof_u = {j: row_profile(u, j) for j in u.unfrozen}
    cand = {i: [j for j in u.unfrozen if prof_u[j] == row_profile(t, i)] for i in src}

    def extend(pos, mapping, used):
        if pos == len(src):
            witnesses.append(SimilarityWitness(t, u, tuple(sorted(mapping.items()))))
            return
        i = src[pos]
        for j in cand[i]:
            if j in used:
                continue
            if all(
                t.b[i, i2] == u.b[j, mapping[i2]] and t.b[i2, i] == u.b[mapping[i2], j]
                for i2 in mapping
            ):
                mapping[i] = j
                used.add(j)
                extend(pos + 1, mapping, used)
                del mapping[i]
                used.discard(j)

    extend(0, {}, set())
    return witnesses


@dataclass(frozen=True)
class FullRankReport:
    is_full_rank: bool
    unimodular_minor: bool
    witness_rows: tuple | None


def full_rank_check(seed: Seed) -> FullRankReport:
    """Rank of the exchange columns and search for a +-1 maximal minor."""
    bt = seed.b_tilde()
    m = seed.partition.n_unfrozen
    if bt.rank() < m:
        return FullRankReport(False, False, None)
    for rows in combinations(range(seed.n), m):
        det = bt.submatrix(rows, range(m)).det()
        if det in (1, -1):
            return FullRankReport(True, True, tuple(rows))
    return FullRankReport(True, False, None)


# -- JSON schema (1-based external indices) ------------------------------


def seed_to_json(seed: Seed) -> dict:
    out = {
        "n": seed.n,
        "frozen": [i + 1 for i in seed.frozen],
        "B": seed.b.to_lists(),
        "d": list(seed.d),
    }
    if seed.labels is not None:
        out["labels"] = list(seed.labels)
    return out


def _json_int(x) -> int:
    # int() would truncate 1.5 and accept true; only a JSON integer will do
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def seed_from_json(data: dict) -> Seed:
    try:
        n = _json_int(data["n"])
        frozen_1b = [_json_int(x) for x in data.get("frozen", [])]
        b_rows = Matrix(data["B"]).rows
        d = [_json_int(x) for x in data["d"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed seed JSON: {exc}") from exc
    for x in frozen_1b:
        if not 1 <= x <= n:
            raise ValueError(f"frozen index {x} out of range 1..{n}")
    labels = data.get("labels")
    if labels is not None and (not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)):
        raise ValueError("labels must be a list of strings")
    seed = make_seed(b_rows, frozen=[x - 1 for x in frozen_1b], d=d, labels=labels)
    if seed.n != n:
        raise ValueError("declared n does not match the matrix size")
    return seed


def principal_seed(b_uf_rows, d_uf) -> Seed:
    """Principal-coefficient extension: frozen copy glued by identity blocks."""
    b_uf = Matrix(b_uf_rows)
    m = b_uf.nrows
    ident = Matrix.identity(m)
    b = Matrix.from_blocks([[b_uf, -ident], [ident, Matrix.zero(m, m)]])
    d = tuple(d_uf) + tuple(d_uf)
    return Seed(IndexPartition(2 * m, tuple(range(m)), tuple(range(m, 2 * m))), b, d)


def is_principal_shape(seed: Seed) -> bool:
    m = seed.partition.n_unfrozen
    if seed.partition.n_frozen != m:
        return False
    if list(seed.unfrozen) != list(range(m)) or list(seed.frozen) != list(range(m, 2 * m)):
        return False
    high = seed.block(seed.b, "uf", "f")
    low = seed.block(seed.b, "f", "uf")
    fro = seed.block(seed.b, "f", "f")
    return high == -Matrix.identity(m) and low == Matrix.identity(m) and fro == Matrix.zero(m, m)
