"""Mutation maps on expressions, transition matrices, trajectory matrices
with canonical signs, cluster-variable expansion, and the bounded search
for a seed whose c-matrix is minus a permutation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .exact import InternalConsistencyError, Matrix, NotFound
from .laurent import (
    LaurentPoly,
    PointedDecomposition,
    RationalExpr,
    binomial_power,
    divide_binomial,
    exp_scale,
    pointed_decompose,
    sum_terms,
)
from .seeds import Seed, SimilarityWitness, find_similarities, mutate_b, p_star


@dataclass(frozen=True)
class TransitionMatrix:
    """Monomial part of a single mutation, as an exponent-lattice map from
    the mutated seed back to the source seed."""

    matrix: Matrix
    side: str  # 'N' (X-degrees) or 'M' (A-degrees)
    k: int
    eps: int
    source: Seed

    @cached_property
    def target(self) -> Seed:
        return mutate_b(self.source, self.k)


def trans_matrix(seed: Seed, k: int, eps: int, side: str) -> TransitionMatrix:
    if k not in seed.unfrozen:
        raise ValueError(f"vertex {k} is frozen")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    n = seed.n
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if side == "N":
        for j in range(n):
            rows[k][j] = -1 if j == k else max(eps * seed.b[k, j], 0)
    elif side == "M":
        for i in range(n):
            rows[i][k] = -1 if i == k else max(-eps * seed.b[i, k], 0)
    else:
        raise ValueError("side must be 'N' or 'M'")
    return TransitionMatrix(Matrix(rows), side, k, eps, seed)


def verify_matrix_identities(seed: Seed, k: int, eps: int, lam: Matrix | None = None) -> dict:
    """Check the transition-matrix identities for one mutation step.

    Returns a name -> bool report; `ok` is the conjunction.
    """
    t2 = mutate_b(seed, k)
    pn = trans_matrix(seed, k, eps, "N").matrix
    pm = trans_matrix(seed, k, eps, "M").matrix
    pn_back = trans_matrix(t2, k, -eps, "N").matrix
    pm_back = trans_matrix(t2, k, -eps, "M").matrix
    ident = Matrix.identity(seed.n)
    dmat = seed.d_inverse_matrix()
    report = {
        "N_involution": pn * pn == ident,
        "N_back_equals_forward": pn_back == pn,
        "M_involution": pm * pm == ident,
        "M_back_equals_forward": pm_back == pm,
        "M_is_N_inverse_transpose_conjugate": dmat * pm * dmat.inverse() == pn.inverse().transpose(),
        "B_conjugation": t2.b == pm * seed.b * pn,
    }
    if lam is not None:
        pm_other = trans_matrix(seed, k, -eps, "M").matrix
        conj = pm.transpose() * lam * pm
        report["Lambda_conjugation_sign_free"] = conj == pm_other.transpose() * lam * pm_other
        report["Lambda_conjugation_skew"] = conj.is_skew_symmetric()
    report["ok"] = all(report.values())
    return report


# -- mutation maps on expressions -------------------------------------------


def _image_exponent_map(seed: Seed, k: int, side: str):
    """Exponent action of the monomial mutation part at the plus sign,
    specialized to the single modified row/column."""
    n = seed.n
    if side == "X":
        row = [max(seed.b[k, j], 0) for j in range(n)]

        def act(exp):
            new_k = -exp[k] + sum(r * x for r, x in zip(row, exp) if r)
            out = list(exp)
            out[k] = new_k
            return tuple(out)

    else:
        col = [max(-seed.b[i, k], 0) for i in range(n)]

        def act(exp):
            ek = exp[k]
            if ek == 0:
                return exp
            out = [x + ek * c if c else x for x, c in zip(exp, col)]
            out[k] = -ek
            return tuple(out)

    return act


def _expand_binomials(expr: RationalExpr, seed: Seed, act, power_row, base_exp):
    """The binomial-expansion kernel of mutations and their flows.

    Sends each monomial X^e of the numerator and the denominator to
    X^act(e) * (1 + X^base_exp)^p(e), where p(e) = power_row . e must be
    integral, and returns (numerator, denominator) over ``seed`` with the
    negative powers of the binomial moved to the other side.  ``act=None``
    keeps exponents as they are.
    """
    weights = [(i, r) for i, r in enumerate(power_row) if r]
    parts = []
    for poly in (expr.num, expr.den):
        by_power = {}
        low = 0
        for e, c in poly.terms.items():
            p = sum(r * e[i] for i, r in weights)
            if not isinstance(p, int):
                raise ValueError("binomial power of a mutation must be integral")
            by_power.setdefault(p, []).append((e if act is None else act(e), c))
            if p < low:
                low = p
        rows = {p: [comb(p - low, j) for j in range(p - low + 1)] for p in by_power}
        pairs = (
            (e if j == 0 else tuple(x + j * y for x, y in zip(e, base_exp)), c * b)
            for p, terms in by_power.items()
            for e, c in terms
            for j, b in enumerate(rows[p])
        )
        parts.append((LaurentPoly(seed, sum_terms(pairs), validate=False), -low))
    (num, pnum), (den, pden) = parts
    if pden > pnum:
        num = num * binomial_power(seed, base_exp, pden - pnum)
    elif pnum > pden:
        den = den * binomial_power(seed, base_exp, pnum - pden)
    return num, den


def mutate_expr(expr, seed: Seed, k: int, side: str) -> RationalExpr:
    """Pull an expression over mu_k(seed) back to the fraction field of seed.

    Accepts a Laurent polynomial or a rational expression whose ambient
    seed equals mu_k(seed).
    """
    if side not in ("A", "X"):
        raise ValueError("side must be 'A' or 'X'")
    target = mutate_b(seed, k)
    if isinstance(expr, LaurentPoly):
        expr = RationalExpr(expr)
    if expr.seed != target:
        raise ValueError("expression does not live over the mutated seed")
    unit = tuple(1 if i == k else 0 for i in range(seed.n))
    if side == "X":
        power_row, base_exp = tuple(-b for b in seed.b.row(k)), unit
    else:
        power_row, base_exp = unit, p_star(seed, unit)
    num, den = _expand_binomials(expr, seed, _image_exponent_map(seed, k, side), power_row, base_exp)
    # clear shared binomial factors introduced by the step
    while not den.is_monomial():
        qn = divide_binomial(num, base_exp)
        if qn is None:
            break
        qd = divide_binomial(den, base_exp)
        if qd is None:
            break
        num, den = qn, qd
    return RationalExpr(num, den)


def pullback_sequence(expr, seeds: list, seq, side: str) -> RationalExpr:
    """Pull an expression over the final seed of a trajectory back to its
    initial seed, one mutation at a time."""
    out = expr if isinstance(expr, RationalExpr) else RationalExpr(expr)
    for s in range(len(seq) - 1, -1, -1):
        out = mutate_expr(out, seeds[s], seq[s], side)
    return out


def relabel_expr(expr, seed: Seed) -> RationalExpr:
    """Move an expression to a content-equal seed object."""
    if isinstance(expr, LaurentPoly):
        expr = RationalExpr(expr)
    if expr.seed != seed:
        raise ValueError("relabel target must be content-equal")
    return RationalExpr(
        LaurentPoly(seed, expr.num.terms, validate=False),
        LaurentPoly(seed, expr.den.terms, validate=False),
        normalize=False,
    )


def pushforward_sequence(expr, seeds: list, seq, side: str):
    """Inverse of pullback_sequence, using that single mutations are
    involutive once seeds are identified by content."""
    out = expr if isinstance(expr, RationalExpr) else RationalExpr(expr)
    for s in range(len(seq)):
        # out lives over seeds[s], which is content-equal to
        # mu_{seq[s]}(seeds[s+1]); pull it back to seeds[s+1]
        out = mutate_expr(out, seeds[s + 1], seq[s], side)
    return out


# -- Hamiltonian / monomial decomposition ------------------------------------


def psi_expr(expr, tm: TransitionMatrix):
    """Monomial substitution along a transition matrix (target -> source)."""
    if isinstance(expr, LaurentPoly):
        expr = RationalExpr(expr)
    if expr.seed != tm.target:
        raise ValueError("expression does not live over the transition's target seed")
    return expr.substitute_monomial(tm.matrix, tm.source)


def rho_expr(expr, seed: Seed, k: int, eps: int, side: str, inverse: bool = False):
    """Hamiltonian flow factor of the mutation, via its monomial action.

    ``inverse=True`` applies the inverse automorphism, which acts by the
    same binomial with the opposite exponent sign.
    """
    if isinstance(expr, LaurentPoly):
        expr = RationalExpr(expr)
    if expr.seed != seed:
        raise ValueError("expression does not live over the given seed")
    flip = -1 if inverse else 1
    unit = tuple(1 if i == k else 0 for i in range(seed.n))
    if side == "X":
        power_row, base_exp = tuple(-flip * b for b in seed.b.row(k)), exp_scale(unit, eps)
    else:
        power_row, base_exp = exp_scale(unit, -flip), exp_scale(p_star(seed, unit), eps)
    return RationalExpr(*_expand_binomials(expr, seed, None, power_row, base_exp))


def hamiltonian_decompose_check(seed: Seed, k: int, eps: int, side: str) -> dict:
    """Check the flow/monomial factorization of a single mutation map on
    all generators of the mutated seed.

    Verifies mu* = rho(t) . psi and equally mu* = psi . (inverse flow of
    the mutated seed at the opposite sign); the flow crosses the monomial
    map as its pullback, whence the inverse.
    """
    tm = trans_matrix(seed, k, eps, "N" if side == "X" else "M")
    target = tm.target
    report = {}
    ok = True
    for i in range(seed.n):
        gen = LaurentPoly.generator(target, i)
        direct = mutate_expr(gen, seed, k, side)
        composed = rho_expr(psi_expr(gen, tm), seed, k, eps, side)
        swapped = psi_expr(rho_expr(gen, target, k, -eps, side, inverse=True), tm)
        good = direct == composed == swapped
        report[i] = good
        ok = ok and good
    report["ok"] = ok
    return report


# -- trajectories -------------------------------------------------------------


def _sign_coherent(vec):
    has_pos = any(x > 0 for x in vec)
    has_neg = any(x < 0 for x in vec)
    if has_pos and has_neg:
        return None
    return -1 if has_neg else 1


@dataclass(frozen=True)
class SeedTrajectory:
    """Seeds along a mutation sequence together with the running degree
    transition matrices computed at canonical signs.

    A trajectory is not changed once built: ``extend`` returns a new one
    that shares this one's seeds.
    """

    initial: Seed
    seq: tuple
    seeds: list
    signs: tuple
    e_matrix: Matrix
    f_matrix: Matrix

    @property
    def final(self) -> Seed:
        return self.seeds[-1]

    @property
    def c_matrix(self) -> Matrix:
        uf = self.initial.unfrozen
        return self.e_matrix.submatrix(uf, uf)

    @property
    def g_matrix(self) -> Matrix:
        uf = self.initial.unfrozen
        return self.f_matrix.submatrix(uf, uf)

    @property
    def f_low(self) -> Matrix:
        return self.f_matrix.submatrix(self.initial.frozen, self.initial.unfrozen)

    def extend(self, k: int) -> "SeedTrajectory":
        """The trajectory one mutation longer, at vertex ``k``, with the
        step's sign taken from the sign-coherent c-vector of ``k``.

        A step is the one-step c-/g-vector recurrence and builds no
        transition matrix: E gains multiples of its column k, which changes
        sign, and F is rewritten in column k alone.

        Each step checks that the c-vector is sign-coherent, that the
        degree matrices keep their duality E^T = D^-1 F^-1 D (D = diag(d)),
        and that every column of E and every row of F stays sign-coherent.
        """
        t0 = self.initial
        if k not in t0.unfrozen:
            raise ValueError(f"vertex {k} is frozen")
        e, f = self.e_matrix, self.f_matrix
        cvec = [e[i, k] for i in t0.unfrozen]
        eps = _sign_coherent(cvec)
        if eps is None or all(x == 0 for x in cvec):
            raise InternalConsistencyError(f"c-vector at vertex {k} is not sign-coherent: {cvec}")
        cur = self.final
        nxt = mutate_b(cur, k)
        # E' = E T_N and F' = F T_M, where T_N differs from the identity in
        # row k and T_M in column k (see ``trans_matrix``)
        gain = [max(eps * x, 0) for x in cur.b.row(k)]
        pull = [0 if i == k else max(-eps * x, 0) for i, x in enumerate(cur.b.col(k))]

        def step_e(row):
            ek = row[k]
            if not ek:
                return row
            out = [x + g * ek for x, g in zip(row, gain)]
            out[k] = -ek
            return out

        def step_f(row):
            out = list(row)
            out[k] = sum(p * x for p, x in zip(pull, row)) - row[k]
            return out

        e = Matrix([step_e(row) for row in e.rows], t0.n)
        f = Matrix([step_f(row) for row in f.rows], t0.n)
        # E^T = D^-1 F^-1 D  <=>  F D E^T = D, which needs no inverse.
        # Summed in place: building the three products as Matrix objects
        # costs the search workload a sixth of its throughput.
        d = t0.d
        for i, f_row in enumerate(f.rows):
            for j, e_row in enumerate(e.rows):
                if sum(a * dl * b for a, dl, b in zip(f_row, d, e_row)) != (d[i] if i == j else 0):
                    raise InternalConsistencyError("degree matrices lost their duality relation")
        for j in range(t0.n):
            if _sign_coherent(e.col(j)) is None:
                raise InternalConsistencyError(f"column {j} of the X-degree matrix lost sign coherence")
            if _sign_coherent(f.row(j)) is None:
                raise InternalConsistencyError(f"row {j} of the A-degree matrix lost sign coherence")
        return SeedTrajectory(t0, self.seq + (k,), self.seeds + [nxt], self.signs + (eps,), e, f)


def run_trajectory(t0: Seed, seq) -> SeedTrajectory:
    """Mutate along ``seq`` keeping the degree matrices, with each step's
    sign taken from the sign-coherent c-vector of the current vertex."""
    traj = SeedTrajectory(t0, (), [t0], (), Matrix.identity(t0.n), Matrix.identity(t0.n))
    for k in seq:
        traj = traj.extend(k)
    return traj


# -- cluster-variable expansion ----------------------------------------------


@dataclass(frozen=True)
class XRatioForm:
    """Normalized X-side expansion: degree monomial times P/Q with both
    parts having constant term one."""

    degree: tuple
    p_terms: tuple
    q_terms: tuple


@dataclass(frozen=True)
class Expansion:
    expr: RationalExpr
    pointed: PointedDecomposition | None
    ratio: XRatioForm | None
    trajectory: SeedTrajectory


def expand_cluster_variable(t0: Seed, seq, i: int, side: str) -> Expansion:
    """Laurent expansion of the i-th generator of the endpoint of ``seq``
    in the initial seed's variables."""
    traj = run_trajectory(t0, seq)
    gen = LaurentPoly.generator(traj.final, i)
    expr = pullback_sequence(gen, traj.seeds, traj.seq, side)
    if side == "A":
        if not expr.is_laurent():
            raise InternalConsistencyError("A-side expansion is not Laurent")
        dec = pointed_decompose(expr.as_poly(), t0, "A")
        if dec is None:
            raise InternalConsistencyError("A-side expansion is not pointed")
        if list(dec.degree) != list(traj.f_matrix.col(i)):
            raise InternalConsistencyError("pointed degree disagrees with the A-degree matrix")
        return Expansion(expr, dec, None, traj)
    num_dec = pointed_decompose(expr.num, t0, "X")
    den_dec = pointed_decompose(expr.den, t0, "X")
    if num_dec is None or den_dec is None:
        raise InternalConsistencyError("X-side expansion parts are not pointed")
    degree = tuple(a - b for a, b in zip(num_dec.degree, den_dec.degree))
    if list(degree) != list(traj.e_matrix.col(i)):
        raise InternalConsistencyError("X-side degree disagrees with the X-degree matrix")
    ratio = XRatioForm(degree, num_dec.f_terms, den_dec.f_terms)
    return Expansion(expr, None, ratio, traj)


# -- search for a seed with c-matrix equal to minus a permutation -------------


@dataclass(frozen=True)
class T1Witness:
    seq: tuple
    sigma: SimilarityWitness
    c_matrix: Matrix
    trajectory: SeedTrajectory


def _negated_permutation(c: Matrix):
    """If c == -P for a permutation matrix P, return the permutation list
    p with P = permutation_matrix(p); else None."""
    n = c.nrows
    perm = [None] * n
    for j in range(n):
        col = c.col(j)
        nz = [i for i, x in enumerate(col) if x != 0]
        if len(nz) != 1 or col[nz[0]] != -1:
            return None
        perm[j] = nz[0]
    if sorted(perm) != list(range(n)):
        return None
    return perm


def find_t1(t0: Seed, max_depth: int = 12):
    """Breadth-first search for a mutation sequence whose endpoint carries
    c-matrix equal to minus a permutation.  Returns a witness or raises
    ``NotFound`` at the depth limit, stating the nodes expanded, the
    dedup hits and the peak frontier size.

    Every node extends its parent's trajectory by one mutation.
    """
    if isinstance(max_depth, bool) or not isinstance(max_depth, int) or max_depth < 0:
        raise ValueError(f"max_depth must be a non-negative integer, got {max_depth!r}")
    uf = t0.unfrozen
    start = run_trajectory(t0, ())
    queue = deque([start])
    seen = {(start.final.b, start.c_matrix)}
    expanded = dedup_hits = 0
    peak = 1
    while queue:
        traj = queue.popleft()
        perm = _negated_permutation(traj.c_matrix)
        if perm is not None and traj.seq:
            # c = -P_{sigma^{-1}} in unfrozen positions: col_{sigma k} c = -e_k
            sigma_pairs = []
            for pos, idx in enumerate(uf):
                # position `pos` maps to the position j with perm[j] == pos
                j = perm.index(pos)
                sigma_pairs.append((idx, uf[j]))
            witness = SimilarityWitness(t0, traj.final, tuple(sorted(sigma_pairs)))
            for i, j in witness.pairs:
                if t0.d[i] != t0.d[j]:
                    raise InternalConsistencyError("symmetrizers broken by the candidate permutation")
            if not any(
                w.pairs == witness.pairs for w in find_similarities(t0, traj.final)
            ):
                raise InternalConsistencyError(
                    "endpoint is not similar to the start through the detected permutation"
                )
            return T1Witness(traj.seq, witness, traj.c_matrix, traj)
        if len(traj.seq) >= max_depth:
            continue
        expanded += 1
        for k in uf:
            nxt = traj.extend(k)
            key = (nxt.final.b, nxt.c_matrix)
            if key in seen:
                dedup_hits += 1
                continue
            seen.add(key)
            queue.append(nxt)
        peak = max(peak, len(queue))
    raise NotFound(
        f"no green-to-red endpoint within depth {max_depth} "
        f"({expanded} nodes expanded, {dedup_hits} dedup hits, peak frontier {peak})"
    )
