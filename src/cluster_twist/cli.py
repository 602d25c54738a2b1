"""Command-line interface.

Vertex indices and sequences are 1-based here and converted at this
boundary; sequences are written left to right in the order the mutations
are applied.  Exit codes: 0 success, 2 validation/parse error, 3
infeasible or not found, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from .exact import ExactError, Infeasible, InternalConsistencyError, Matrix, NotFound
from .laurent import LaurentPoly, RationalExpr
from .mutation import expand_cluster_variable, find_t1, run_trajectory
from .poisson import omega_from_seed, solve_compatible_lambda
from .seeds import (
    Seed,
    find_similarities,
    find_skew_symmetrizer,
    full_rank_check,
    mutate_b_along,
    seed_from_json,
    seed_to_json,
    validate,
)
from .twist import (
    apply_twist,
    build_dt_twist,
    build_principal_twist,
    make_twist,
    principal_composite_matrices,
    verify_twist,
)
from .variation import solve_M_variation, solve_N_variation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


# -- rendering helpers ---------------------------------------------------------


def rat_str(x) -> str:
    """``n`` or ``n/d``; a Fraction prints an integral value without its
    denominator."""
    return str(x)


def rat_parse(s):
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        try:
            if "/" in s:
                num, den = s.split("/", 1)
                return Fraction(int(num), int(den))
            return int(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"cli: not a rational value: {s!r}") from exc
    raise CliError(f"cli: not a rational value: {s!r}")


def matrix_json(m: Matrix):
    return [[rat_str(x) for x in row] for row in m.rows]


def poly_json(p: LaurentPoly):
    return [
        {"exp": [rat_str(x) for x in e], "coeff": rat_str(c)}
        for e, c in sorted(p.terms.items())
    ]


def expr_json(e: RationalExpr):
    return {"num": poly_json(e.num), "den": poly_json(e.den)}


def emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in _default_pretty(payload):
            print(line)


def _default_pretty(payload, prefix=""):
    lines = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_default_pretty(val, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


def read_seed(path: str) -> Seed:
    """The seed a file describes, whether or not it passes ``validate``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cli: cannot read seed file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"cli: seed file is not valid JSON: {exc}") from exc
    try:
        return seed_from_json(data)
    except ValueError as exc:
        raise CliError(f"seeds: {exc}") from exc


def load_seed(path: str) -> Seed:
    """A seed file that passes ``validate``; only seed-check reads an
    invalid one, to report its violations."""
    seed = read_seed(path)
    report = validate(seed)
    if not report.ok:
        raise CliError(f"seeds: invalid seed: {report.first.detail}")
    return seed


def parse_seq(text: str, seed: Seed):
    if not text:
        return ()
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"cli: malformed sequence {text!r}") from exc
    for v in vals:
        if not 1 <= v <= seed.n:
            raise CliError(f"cli: vertex {v} out of range 1..{seed.n}")
    return tuple(v - 1 for v in vals)


def parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise CliError(f"cli: malformed parameter assignment {item!r}")
        name, val = item.split("=", 1)
        out[name.strip()] = rat_parse(val.strip())
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_seed_check(args) -> int:
    seed = read_seed(args.seed)
    report = validate(seed)
    sym = find_skew_symmetrizer(seed.b)
    fr = full_rank_check(seed)
    payload = {
        "valid": report.ok,
        "violations": [
            {"kind": v.kind, "where": [i + 1 for i in v.where], "detail": v.detail}
            for v in report.violations
        ],
        "symmetrizer": {
            "d": list(sym.d) if sym.d else None,
            "unique_up_to_scale": sym.unique,
            "components": [[i + 1 for i in comp] for comp in sym.components],
        },
        "full_rank": fr.is_full_rank,
        "unimodular_minor": fr.unimodular_minor,
        "witness_rows": [i + 1 for i in fr.witness_rows] if fr.witness_rows else None,
    }
    if report.ok:
        payload["omega"] = matrix_json(omega_from_seed(seed).w)
        if fr.is_full_rank:
            lam, dim = solve_compatible_lambda(seed, alpha=args.alpha)
            payload["lambda"] = matrix_json(lam.lam)
            payload["alpha"] = lam.alpha
            payload["delta"] = [rat_str(x) for x in lam.delta]
            payload["lambda_family_dim"] = dim
    emit(payload, args.format)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_mutate(args) -> int:
    seed = load_seed(args.seed)
    seq = parse_seq(args.seq, seed)
    out = mutate_b_along(seed, seq)[-1]
    emit(seed_to_json(out), args.format)
    return EXIT_OK


def cmd_cgmat(args) -> int:
    seed = load_seed(args.seed)
    seq = parse_seq(args.seq, seed)
    traj = run_trajectory(seed, seq)
    payload = {
        "sequence": [k + 1 for k in traj.seq],
        "signs": list(traj.signs),
        "E": matrix_json(traj.e_matrix),
        "F": matrix_json(traj.f_matrix),
        "C": matrix_json(traj.c_matrix),
        "G": matrix_json(traj.g_matrix),
    }
    emit(payload, args.format)
    return EXIT_OK


def cmd_expand(args) -> int:
    seed = load_seed(args.seed)
    seq = parse_seq(args.seq, seed)
    i = args.index - 1
    if not 0 <= i < seed.n:
        raise CliError(f"cli: index {args.index} out of range")
    exp = expand_cluster_variable(seed, seq, i, args.side)
    symbol = "A" if args.side == "A" else "X"
    payload = {
        "expression": exp.expr.render(symbol),
        "terms": expr_json(exp.expr),
    }
    if exp.pointed is not None:
        payload["degree"] = [rat_str(x) for x in exp.pointed.degree]
        payload["f_polynomial"] = exp.pointed.f_poly_render()
    if exp.ratio is not None:
        payload["degree"] = [rat_str(x) for x in exp.ratio.degree]
    emit(payload, args.format)
    return EXIT_OK


def _family_payload(fam) -> dict:
    member, r = fam.integral_refinement()
    return {
        "sigma": [[i + 1, j + 1] for i, j in fam.sigma.pairs],
        "dim": fam.dim,
        "params": list(fam.param_names),
        "particular": matrix_json(fam.particular),
        "basis": [matrix_json(b) for b in fam.basis],
        "integral_member": matrix_json(member.matrix),
        "integral_denominator": r,
    }


def cmd_var_solve(args) -> int:
    seed = load_seed(args.seed)
    if args.target:
        target = load_seed(args.target)
    else:
        seq = parse_seq(args.seq, seed)
        target = mutate_b_along(seed, seq)[-1]
    sims = find_similarities(seed, target)
    if not sims:
        raise Infeasible("seeds are not similar")
    sigma = sims[0]
    if args.sigma:
        wanted = parse_seq(args.sigma, seed)
        match = [
            w for w in sims if tuple(w.image(i) for i in seed.unfrozen) == wanted
        ]
        if not match:
            raise Infeasible("requested relabeling is not a similarity")
        sigma = match[0]
    if args.side == "A":
        fam = solve_M_variation(seed, target, sigma)
    else:
        fam = solve_N_variation(seed, target, sigma, poisson=args.poisson)
    payload = _family_payload(fam)
    if args.params:
        member = fam.member(parse_params(args.params))
        payload["member"] = matrix_json(member.matrix)
        payload["member_is_variation"] = member.is_variation()
    emit(payload, args.format)
    return EXIT_OK


def cmd_twist(args) -> int:
    seed = load_seed(args.seed)
    if args.kind == "dt":
        pair = build_dt_twist(seed, max_depth=args.depth, alpha=args.alpha)
        spec = pair.tw_a if args.side == "A" else pair.tw_x
        lam = pair.lam_base
    elif args.kind == "principal":
        seq = parse_seq(args.seq, seed)
        pair = build_principal_twist(seed, seq, alpha=args.alpha)
        spec = pair.tw_a if args.side == "A" else pair.tw_x
        lam = pair.lam_base
    else:
        seq = parse_seq(args.seq, seed)
        target = mutate_b_along(seed, seq)[-1]
        if args.side == "A":
            fam = solve_M_variation(seed, target)
        else:
            fam = solve_N_variation(seed, target)
        member = fam.member(parse_params(args.params)) if args.params else fam.member()
        spec = make_twist(seed, seq, member, kind="custom")
        lam = None
    checks = set(args.checks.split(",")) if args.checks else set()
    report = {}
    if checks:
        if "poisson" in checks and spec.side == "A" and lam is None:
            lam, _ = solve_compatible_lambda(seed, alpha=args.alpha)
        report = verify_twist(
            spec,
            check_poisson="poisson" in checks,
            lam=lam,
            check_p_commutation="p-comm" in checks,
            check_homomorphism=8 if "hom" in checks else 0,
        )
        report.pop("basis_permutation", None)
    gens = {}
    symbol = "A" if spec.side == "A" else "X"
    for i in range(seed.n):
        img = apply_twist(spec, LaurentPoly.generator(seed, i))
        gens[f"{symbol}{seed.label(i)}"] = img.render(symbol)
    payload = {
        "kind": spec.kind,
        "side": spec.side,
        "sequence": [k + 1 for k in spec.seq],
        "sigma": [[i + 1, j + 1] for i, j in spec.sigma.pairs],
        "variation": matrix_json(spec.variation.matrix),
        "images": gens,
        "verification": report,
    }
    if args.kind == "principal":
        comp = principal_composite_matrices(pair)
        payload["composite"] = matrix_json(comp.via_a)
        payload["composites_equal"] = comp.via_a == comp.via_x
    emit(payload, args.format)
    return EXIT_OK


def _example_data(name: str) -> dict:
    ref = resources.files("cluster_twist").joinpath(f"examples_data/{name}.json")
    return json.loads(ref.read_text())


def _check(results: list, name: str, got, want):
    ok = got == want
    results.append((name, ok, want, got))
    return ok


def run_example(name: str) -> list:
    """Run one gallery example and diff against its embedded expectations."""
    data = _example_data(name)
    seed = seed_from_json(data["seed"])
    expect = data["expect"]
    results = []

    if name == "a1":
        seq = tuple(k - 1 for k in data["sequence"])
        traj = run_trajectory(seed, seq)
        _check(results, "E", traj.e_matrix.to_lists(), expect["E"])
        _check(results, "F", traj.f_matrix.to_lists(), expect["F"])
        _check(results, "signs", list(traj.signs), expect["signs"])
        exp_a = expand_cluster_variable(seed, seq, 0, "A")
        _check(results, "expansion_A_1", exp_a.expr.render("A"), expect["expansion_A_1"])
        _check(results, "expansion_A_1_degree", list(exp_a.pointed.degree), expect["expansion_A_1_degree"])
        _check(results, "expansion_X_1", expand_cluster_variable(seed, seq, 0, "X").expr.render("X"), expect["expansion_X_1"])
        _check(results, "expansion_X_2", expand_cluster_variable(seed, seq, 1, "X").expr.render("X"), expect["expansion_X_2"])
        pair = build_dt_twist(seed)
        _check(results, "dt_var_m", pair.tw_a.variation.matrix.to_lists(), expect["dt_var_m"])
        _check(results, "dt_var_n", pair.tw_x.variation.matrix.to_lists(), expect["dt_var_n"])
        _check(results, "dt_twist_A_1", apply_twist(pair.tw_a, LaurentPoly.generator(seed, 0)).render("A"), expect["dt_twist_A_1"])
        _check(results, "dt_twist_X_1", apply_twist(pair.tw_x, LaurentPoly.generator(seed, 0)).render("X"), expect["dt_twist_X_1"])
        _check(results, "dt_twist_X_2", apply_twist(pair.tw_x, LaurentPoly.generator(seed, 1)).render("X"), expect["dt_twist_X_2"])
        _check(results, "lambda", pair.lam_base.lam.to_lists(), expect["lambda"])
        _check(results, "omega", omega_from_seed(seed).w.to_lists(), expect["omega"])

    elif name == "sl3":
        wit = find_t1(seed)
        _check(results, "t1_sequence", [k + 1 for k in wit.seq], expect["t1_sequence"])
        _check(results, "sigma", [[i + 1, j + 1] for i, j in wit.sigma.pairs], expect["sigma"])
        exch = expand_cluster_variable(seed, wit.seq, 0, "A")
        _check(results, "exchange_A_1", exch.expr.render("A"), expect["exchange_A_1"])
        _check(results, "exchange_A_1_degree", list(exch.pointed.degree), expect["exchange_A_1_degree"])
        pair = build_dt_twist(seed)
        a1_var = LaurentPoly.generator(seed, 0)
        a1_prime = exch.expr.as_poly()
        _check(results, "twist_A_1", apply_twist(pair.tw_a, a1_var).render("A"), expect["twist_A_1"])
        _check(results, "twist_A_1_prime", apply_twist(pair.tw_a, a1_prime).render("A"), expect["twist_A_1_prime"])
        _check(results, "twist_A_2", apply_twist(pair.tw_a, LaurentPoly.generator(seed, 1)).render("A"), expect["twist_A_2"])
        _check(results, "twist_A_3", apply_twist(pair.tw_a, LaurentPoly.generator(seed, 2)).render("A"), expect["twist_A_3"])
        family = [("A1", a1_var), ("A1_prime", a1_prime)]
        rep = verify_twist(pair.tw_a, basis_family=family)["basis_permutation"]
        got_perm = {k: v[0] for k, v in rep["assignment"].items()}
        got_factors = {k: list(v[1]) for k, v in rep["assignment"].items()}
        _check(results, "basis_permutation", got_perm, expect["basis_permutation"])
        _check(results, "basis_frozen_factors", got_factors, expect["basis_frozen_factors"])

    elif name == "digon":
        seq = tuple(k - 1 for k in data["sequence"])
        traj = run_trajectory(seed, seq)
        _check(results, "b_end_is_negated", traj.final.b == -seed.b, expect["b_end_is_negated"])
        for pos in range(4):
            exp = expand_cluster_variable(seed, seq, pos, "X")
            _check(results, f"mutation_X_{pos + 1}", exp.expr.render("X"), expect[f"mutation_X_{pos + 1}"])
        fam = solve_N_variation(seed, traj.final)
        _check(results, "variation_family_dim", fam.dim, expect["variation_family_dim"])
        pfam = solve_N_variation(seed, traj.final, poisson=True)
        _check(results, "poisson_family_dim", pfam.dim, expect["poisson_family_dim"])
        # frozen block of every member satisfies the two column increments
        incs = []
        for mat in [fam.particular] + [fam.particular + b for b in fam.basis]:
            vf = mat.submatrix(seed.frozen, seed.frozen)
            incs.append([vf[1, 0] - vf[0, 0], vf[0, 1] - vf[1, 1]])
        _check(results, "v_f_row_increments", sorted(set(map(tuple, incs))), [tuple(expect["v_f_row_increments"])])

        def det_at(lam_, mu_):
            vf = [[lam_ - 1, mu_], [lam_, mu_ - 1]]
            return vf[0][0] * vf[1][1] - vf[0][1] * vf[1][0]

        inv_ok = all(
            (det_at(l, m) in (1, -1)) == ((l + m) in expect["invertible_lambda_plus_mu"])
            for l in range(-3, 5)
            for m in range(-3, 5)
        )
        _check(results, "invertible_lambda_plus_mu", inv_ok, True)
        # the swap member:
        rows = [[0] * 4 for _ in range(4)]
        for k in seed.unfrozen:
            rows[k][k] = 1
        vf = expect["swap_member_v_f"]
        for pi, i in enumerate(seed.frozen):
            for pj, j in enumerate(seed.frozen):
                rows[i][j] = vf[pi][pj]
        member_mat = Matrix(rows)
        _check(results, "swap_member_in_family", pfam.contains(member_mat), True)
        member = pfam.member(pfam.coefficients_of(member_mat))
        spec = make_twist(seed, seq, member, kind="custom")
        gens = {}
        for gname, text in expect["generators"].items():
            poly = _parse_generator(seed, text)
            gens[gname] = poly
        for gname, target_name in (("E", "twist_E"), ("F", "twist_F"), ("K", "twist_K"), ("K_prime", "twist_K_prime")):
            img = apply_twist(spec, gens[gname])
            _check(results, f"twist_{gname}", img.render("X"), expect[target_name])
    else:
        raise CliError(f"cli: unknown example {name!r}")
    return results


def _parse_generator(seed: Seed, text: str) -> LaurentPoly:
    """Parse the tiny product-of-powers/sum grammar used by the gallery."""
    out = LaurentPoly.zero(seed)
    for term in text.split("+"):
        term = term.strip()
        exp = [0] * seed.n
        for factor in term.split("*"):
            factor = factor.strip()
            if factor.startswith("X"):
                if "^" in factor:
                    name, power = factor[1:].split("^")
                    exp[int(name) - 1] += int(power)
                else:
                    exp[int(factor[1:]) - 1] += 1
            else:
                raise CliError(f"cli: cannot parse generator token {factor!r}")
        out = out + LaurentPoly.monomial(seed, exp)
    return out


def cmd_examples(args) -> int:
    results = run_example(args.name)
    ok_all = True
    for name, ok, want, got in results:
        status = "PASS" if ok else "FAIL"
        if args.format == "pretty":
            line = f"{name}: {status}"
            if not ok:
                line += f" (expected {want!r}, got {got!r})"
            print(line)
        ok_all = ok_all and ok
    if args.format == "json":
        payload = {
            "example": args.name,
            "checks": {name: ok for name, ok, _, _ in results},
            "ok": ok_all,
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return EXIT_OK if ok_all else EXIT_INTERNAL


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-twist",
        description="Exact cluster-seed mutation, Poisson structures and twist automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", required=True, help="seed JSON file")
        p.add_argument("--format", choices=("pretty", "json"), default="pretty")

    p = sub.add_parser("seed-check", help="validate a seed and report rank and Poisson data")
    common(p)
    p.add_argument("--alpha", type=int, default=None, help="scaling of the compatible form")
    p.set_defaults(func=cmd_seed_check)

    p = sub.add_parser("mutate", help="mutate the exchange matrix along a sequence")
    common(p)
    p.add_argument("--seq", default="", help="1-based vertices, applied left to right")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("cgmat", help="degree matrices along a sequence")
    common(p)
    p.add_argument("--seq", default="")
    p.set_defaults(func=cmd_cgmat)

    p = sub.add_parser("expand", help="expand a cluster variable in the initial seed")
    common(p)
    p.add_argument("--seq", default="")
    p.add_argument("--i", dest="index", type=int, required=True, help="1-based variable index")
    p.add_argument("--side", choices=("A", "X"), default="A")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("var-solve", help="solve for variation maps between similar seeds")
    common(p)
    p.add_argument("--seq", default="")
    p.add_argument("--target", default=None, help="target seed file (instead of --seq)")
    p.add_argument("--side", choices=("A", "X"), default="A")
    p.add_argument("--poisson", action="store_true", help="add form-preservation equations (X side)")
    p.add_argument("--sigma", default="", help="1-based images of the unfrozen vertices")
    p.add_argument("--params", default="", help="member coordinates, e.g. lambda=1,mu=1")
    p.set_defaults(func=cmd_var_solve)

    p = sub.add_parser("twist", help="build and verify a twist endomorphism")
    common(p)
    p.add_argument("--kind", choices=("dt", "principal", "custom"), required=True)
    p.add_argument("--seq", default="")
    p.add_argument("--side", choices=("A", "X"), default="A")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--params", default="")
    p.add_argument("--checks", default="", help="comma list: poisson,p-comm,hom")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("examples", help="run a worked example against embedded expectations")
    p.add_argument("name", choices=("a1", "sl3", "digon"))
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refused before any work, whether or not the seed has a compatible form
        alpha = getattr(args, "alpha", None)
        if alpha is not None and alpha <= 0:
            raise CliError(f"alpha must be a positive integer, got {alpha}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (Infeasible, NotFound) as exc:
        print(f"error: {type(exc).__module__.split('.')[-1]}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalConsistencyError as exc:
        print(f"error: internal consistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, ExactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
