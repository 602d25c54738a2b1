"""Twist endomorphisms: a mutation path composed with a variation map.

A twist acts on expressions over its base seed: the variation carries them
to the path's endpoint, the mutation maps pull them back.  The module
builds the two distinguished Poisson twists (through the seed whose
c-matrix is minus a permutation, and through a principal-coefficient
pattern) and runs the verification battery: bracket preservation,
commutation with the degree-linking monomial map, homomorphism spot
checks, and permutation of finite pointed families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

from .exact import Infeasible, InternalConsistencyError, Matrix
from .laurent import LaurentPoly, RationalExpr, pointed_decompose
from .mutation import (
    SeedTrajectory,
    find_t1,
    pullback_sequence,
    pushforward_sequence,
    relabel_expr,
    run_trajectory,
)
from .poisson import LambdaForm, omega_from_seed, poisson_bracket, solve_compatible_lambda, transport_lambda
from .seeds import Seed, SimilarityWitness, find_similarities, full_rank_check, is_principal_shape, mutate_b_along
from .variation import MVariation, NVariation, apply_variation, is_poisson, pullback


@dataclass
class TwistSpec:
    """A twist endomorphism of the fraction field over ``base``."""

    base: Seed
    other: Seed
    seq: tuple
    sigma: SimilarityWitness
    side: str  # 'A' or 'X'
    variation: MVariation | NVariation
    kind: str = "custom"
    seeds: list = field(default_factory=list, repr=False)

    @property
    def invertible(self) -> bool:
        return self.variation.is_invertible()


def make_twist(base: Seed, seq, variation, kind: str = "custom") -> TwistSpec:
    """Assemble and sanity-check a twist from its path and variation."""
    seq = tuple(seq)
    return _twist_along(mutate_b_along(base, seq), seq, variation, kind)


def _twist_along(seeds: list, seq: tuple, variation, kind: str) -> TwistSpec:
    """``make_twist`` on the seeds of the path, already computed."""
    base = seeds[0]
    if variation.source != base:
        raise ValueError("variation must start at the base seed")
    if variation.target != seeds[-1]:
        raise ValueError("variation must end at the endpoint of the path")
    side = "A" if isinstance(variation, MVariation) else "X"
    if side == "X" and not variation.matrix.is_integral():
        raise ValueError("X-side twists need an integer variation matrix")
    if not variation.is_variation():
        raise ValueError("the supplied map is not a variation map")
    return TwistSpec(base, seeds[-1], seq, variation.sigma, side, variation, kind, list(seeds))


def apply_twist(spec: TwistSpec, expr):
    """Variation to the endpoint, then mutation pullback to the base."""
    if isinstance(expr, LaurentPoly):
        expr = RationalExpr(expr)
    if expr.seed != spec.base:
        raise ValueError("expression does not live over the twist's base seed")
    moved = apply_variation(spec.variation, expr)
    return pullback_sequence(moved, spec.seeds, spec.seq, spec.side)


def invert_twist(spec: TwistSpec) -> TwistSpec:
    """Twist built from the inverse variation along the reversed path.

    Composing with the original through the mutation identification of the
    two fraction fields gives the identity.
    """
    if not spec.invertible:
        raise ValueError("variation is not invertible")
    inv = spec.variation.inverse()
    rev = tuple(reversed(spec.seq))
    seeds = mutate_b_along(spec.other, rev)
    if seeds[-1] != spec.base:
        raise InternalConsistencyError("reversed path missed the base seed")
    # rebind the inverse variation onto the freshly built chain endpoints
    cls = type(inv)
    inv = cls(seeds[0], seeds[-1], SimilarityWitness(seeds[0], seeds[-1], inv.sigma.pairs), inv.matrix)
    return TwistSpec(seeds[0], seeds[-1], rev, inv.sigma, spec.side, inv, f"{spec.kind}-inverse", seeds)


def twist_roundtrip(spec: TwistSpec, inverse: TwistSpec, expr):
    """Conjugate the inverse twist by the mutation identification and apply
    it after the twist; equals ``expr`` for true inverses."""
    once = apply_twist(spec, expr)
    lifted = relabel_expr(pushforward_sequence(once, spec.seeds, spec.seq, spec.side), inverse.base)
    back = apply_twist(inverse, lifted)
    return pullback_sequence(relabel_expr(back, spec.seeds[-1]), spec.seeds, spec.seq, spec.side)


def partner_twist(spec: TwistSpec) -> TwistSpec:
    """The matched twist on the other side, through pullback duality."""
    dual = pullback(spec.variation).inverse()
    return make_twist(spec.base, spec.seq, dual, kind=spec.kind)


# -- distinguished constructions ----------------------------------------------


@dataclass
class TwistPair:
    tw_a: TwistSpec
    tw_x: TwistSpec
    lam_base: LambdaForm | None
    lam_end: LambdaForm | None
    trajectory: SeedTrajectory


def build_dt_twist(t: Seed, max_depth: int = 12, lam: LambdaForm | None = None, alpha: int | None = None) -> TwistPair:
    """Twist pair through a seed whose c-matrix is minus a permutation.

    The variation maps are the negated inverses of the endpoint's degree
    matrices; all structural identities (negated-identity composition,
    pullback duality, form preservation where a compatible form exists,
    and matrix-level commutation with the exchange map) are asserted.
    """
    witness = find_t1(t, max_depth)
    traj = witness.trajectory
    end = traj.final
    e, f = traj.e_matrix, traj.f_matrix
    var_m = MVariation(t, end, witness.sigma, -f.inverse())
    var_n = NVariation(t, end, witness.sigma, -e.inverse())
    if f * var_m.matrix != -Matrix.identity(t.n) or e * var_n.matrix != -Matrix.identity(t.n):
        raise InternalConsistencyError("variation is not the negated degree identification")
    if var_m.u_f != -Matrix.identity(t.partition.n_frozen) or var_m.u_low != -traj.f_low:
        raise InternalConsistencyError("A-degree variation lost its canonical block form")
    if not var_m.is_variation() or not var_n.is_variation():
        raise InternalConsistencyError("constructed maps are not variation maps")
    if pullback(var_m).inverse().matrix != var_n.matrix:
        raise InternalConsistencyError("the two variations are not pullback-dual")
    if not is_poisson(var_n):
        raise InternalConsistencyError("X-degree variation does not preserve the skew form")
    if end.b * var_n.matrix != var_m.matrix * t.b:
        raise InternalConsistencyError("variations do not intertwine the exchange maps")
    lam_base = lam
    lam_end = None
    if lam_base is None and full_rank_check(t).is_full_rank:
        lam_base, _ = solve_compatible_lambda(t, alpha=alpha)
    if lam_base is not None:
        lam_end = transport_lambda(lam_base, traj.seq)[-1]
        if not is_poisson(var_m, lam_base, lam_end):
            raise InternalConsistencyError("A-degree variation does not preserve the compatible form")
    tw_a = _twist_along(traj.seeds, traj.seq, var_m, "dt")
    tw_x = _twist_along(traj.seeds, traj.seq, var_n, "dt")
    return TwistPair(tw_a, tw_x, lam_base, lam_end, traj)


def build_principal_twist(t0: Seed, seq, alpha: int | None = None) -> TwistPair:
    """Twist pair for a principal-pattern seed whose path endpoint is
    similar to it."""
    if not is_principal_shape(t0):
        raise ValueError("seed does not have the principal block pattern")
    traj = run_trajectory(t0, seq)
    end = traj.final
    sims = find_similarities(t0, end)
    if not sims:
        raise Infeasible("path endpoint is not similar to the start")
    sigma = sims[0]
    m = t0.partition.n_unfrozen
    c, g = traj.c_matrix, traj.g_matrix
    p_uf = sigma.uf_matrix()
    var_m = MVariation(
        t0, end, sigma,
        Matrix.from_blocks([[p_uf, Matrix.zero(m, m)], [Matrix.zero(m, m), c * p_uf]]),
    )
    if not var_m.is_variation():
        raise InternalConsistencyError("principal variation is not a variation map")
    var_n = pullback(var_m).inverse()
    expected_n = Matrix.from_blocks([[p_uf, Matrix.zero(m, m)], [Matrix.zero(m, m), g * p_uf]])
    if var_n.matrix != expected_n:
        raise InternalConsistencyError("X-degree variation lost its block form")
    # structural identity of the endpoint exchange matrix
    b_end = Matrix.from_blocks(
        [[end.uf_block(end.b), -g.inverse()], [c, Matrix.zero(m, m)]]
    )
    if b_end != end.b:
        raise InternalConsistencyError("endpoint exchange matrix lost its principal pattern")
    # compatible form with uniform scaling alpha
    if alpha is None:
        alpha = (t0.b.inverse().transpose() * t0.d_inverse_matrix()).denominator_lcm()
        for k in t0.unfrozen:
            alpha = lcm(alpha, t0.d[k])
    lam_base = LambdaForm(t0, (t0.b.inverse().transpose() * t0.d_inverse_matrix()).scale(alpha), alpha)
    if not lam_base.lam.is_integral():
        raise ValueError("alpha does not clear the denominators of the compatible form")
    chain = transport_lambda(lam_base, traj.seq)
    lam_end = chain[-1]
    formula_end = (end.b.inverse().transpose() * end.d_inverse_matrix()).scale(alpha)
    if lam_end.lam != formula_end:
        raise InternalConsistencyError("transported form disagrees with the closed formula")
    if not is_poisson(var_m, lam_base, lam_end):
        raise InternalConsistencyError("principal variation does not preserve the compatible form")
    if not is_poisson(var_n):
        raise InternalConsistencyError("principal X-degree variation does not preserve the skew form")
    if var_m.matrix * t0.b != end.b * var_n.matrix:
        raise InternalConsistencyError("variations do not intertwine the exchange maps")
    tw_a = _twist_along(traj.seeds, traj.seq, var_m, "principal")
    tw_x = _twist_along(traj.seeds, traj.seq, var_n, "principal")
    return TwistPair(tw_a, tw_x, lam_base, lam_end, traj)


@dataclass
class PrincipalComposite:
    via_a: Matrix
    via_x: Matrix
    undressed: Matrix
    expected: Matrix


def principal_composite_matrices(pair: TwistPair) -> PrincipalComposite:
    """Both composites of the exchange map with the principal twists'
    variations.  They agree; stripped of the relabeling dressing they show
    the principal pattern built from the endpoint's unfrozen block and the
    c-matrix (the start's own block when the relabeling is trivial)."""
    t0 = pair.tw_a.base
    end = pair.tw_a.other
    m = t0.partition.n_unfrozen
    via_a = pair.tw_a.variation.matrix * t0.b
    via_x = end.b * pair.tw_x.variation.matrix
    p_uf = pair.tw_a.sigma.uf_matrix()
    dressing = Matrix.from_blocks([[p_uf, Matrix.zero(m, m)], [Matrix.zero(m, m), p_uf]])
    undressed = via_a * dressing.inverse()
    expected = Matrix.from_blocks(
        [
            [end.uf_block(end.b), -Matrix.identity(m)],
            [pair.trajectory.c_matrix, Matrix.zero(m, m)],
        ]
    )
    return PrincipalComposite(via_a, via_x, undressed, expected)


# -- verification ---------------------------------------------------------------


def _random_poly(seed: Seed, rng: random.Random, terms: int = 2, spread: int = 2) -> LaurentPoly:
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(-spread, spread) for _ in range(seed.n))
        out[exp] = rng.randint(1, 3)
    return LaurentPoly(seed, out)


def verify_twist(
    spec: TwistSpec,
    check_poisson: bool = False,
    lam: LambdaForm | None = None,
    check_p_commutation: bool = False,
    check_homomorphism: int = 0,
    basis_family: list | None = None,
    rng_seed: int = 0,
) -> dict:
    """Run the requested symbolic checks and collect a report.

    ``basis_family`` is a list of (name, LaurentPoly) pointed elements over
    the base seed; the twist must send each to a family member times a
    frozen Laurent monomial, injectively.
    """
    report = {}
    base = spec.base

    if check_poisson:
        if spec.side == "X":
            form = omega_from_seed(base)
        else:
            if lam is None:
                raise ValueError("A-side bracket checks need a compatible form")
            form = lam
        ok = True
        gens = [LaurentPoly.generator(base, i) for i in range(base.n)]
        images = [apply_twist(spec, g) for g in gens]
        for i in range(base.n):
            for j in range(i + 1, base.n):
                lhs = apply_twist(spec, poisson_bracket(gens[i], gens[j], form))
                rhs = poisson_bracket(images[i], images[j], form)
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        report["poisson"] = ok

    if check_p_commutation:
        report["p_commutation"] = p_commutation_check(spec)

    if check_homomorphism:
        rng = random.Random(rng_seed)
        ok = True
        for _ in range(check_homomorphism):
            f = _random_poly(base, rng)
            g = _random_poly(base, rng)
            if apply_twist(spec, f * g) != apply_twist(spec, f) * apply_twist(spec, g):
                ok = False
                break
        report["homomorphism"] = ok

    if basis_family is not None:
        report["basis_permutation"] = _basis_permutation_check(spec, basis_family)

    report["ok"] = all(v if isinstance(v, bool) else v["ok"] for v in report.values())
    return report


def p_commutation_check(spec: TwistSpec) -> bool:
    """Symbolic equality of the two composites of the twist pair with the
    degree-linking monomial map, on every X-generator."""
    if spec.side == "X":
        tw_x = spec
        tw_a = partner_twist(spec)
    else:
        tw_a = spec
        tw_x = partner_twist(spec)
    base = spec.base
    for j in range(base.n):
        xg = LaurentPoly.generator(base, j)
        lhs = apply_twist(tw_x, xg).substitute_monomial(base.b, base)
        rhs = apply_twist(tw_a, LaurentPoly.monomial(base, base.b.col(j)))
        if lhs != rhs:
            return False
    return True


def _frozen_monomial_quotient(image: RationalExpr, member: LaurentPoly):
    """Exponent of the frozen Laurent monomial with image == member * A^u,
    or None when the two differ by more than a frozen unit."""
    ratio = image / RationalExpr(member)
    if not ratio.is_laurent() or not ratio.num.is_monomial():
        return None
    exp = ratio.num.monomial_exp()
    coeff = ratio.num.terms[exp]
    if coeff != 1:
        return None
    seed = member.seed
    if any(exp[i] != 0 for i in seed.unfrozen):
        return None
    return exp


def _basis_permutation_check(spec: TwistSpec, family: list) -> dict:
    side = spec.side
    assignment = {}
    ok = True
    details = {}
    for name, elem in family:
        image = apply_twist(spec, elem)
        if not image.is_laurent():
            ok = False
            details[name] = "image is not Laurent"
            continue
        if pointed_decompose(image.as_poly(), spec.base, side) is None:
            ok = False
            details[name] = "image is not pointed"
            continue
        match = None
        for name2, elem2 in family:
            u = _frozen_monomial_quotient(image, elem2)
            if u is not None:
                match = (name2, u)
                break
        if match is None:
            ok = False
            details[name] = "image matches no family member up to a frozen monomial"
            continue
        assignment[name] = match
    injective = len({m[0] for m in assignment.values()}) == len(assignment)
    bijective = injective and len(assignment) == len(family)
    return {
        "ok": ok and injective and (bijective or not spec.invertible),
        "assignment": assignment,
        "injective": injective,
        "bijective": bijective,
        "details": details,
    }
