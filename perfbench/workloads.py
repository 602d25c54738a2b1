"""Seeded task streams for the three benchmark workloads.

A workload is a list of task classes; a class is a list of groups of
interchangeable inputs, and takes a fixed number of groups: each group
a whole number of times, or a seeded sample of fewer groups than it
has.  From the workload seed alone the stream picks, once, the groups of
each class and one input of each group (such as an orientation sign).
Every round then runs those same tasks in a new order.  Most classes
take every group, and the groups of the others hold inputs of similar
cost, so the work of a round, and so the figures of a run, hardly
depend on the seed.

The pools are finite, so the expected output of every input is recorded
once (``expected.json``).  Inputs repeat from round to round, so the
benchmark clears the library's ``functools`` caches before every task;
a cache the library kept by other means would carry results from one
round to the next, a gain that a fresh CLI process does not see.

Tasks reach the library only through module attributes (``ct.f``,
``cli.main``) at call time, never through names bound at import, so the
tracer's patches see every call the benchmark makes.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from itertools import product
from pathlib import Path
from typing import Callable

import cluster_twist as ct
from cluster_twist import cli, quantum

# Finite-type exchange data: rank, edges (i, j, |b_ij|, |b_ji|), symmetrizer.
FINITE_TYPES = {
    "A2": (2, ((0, 1, 1, 1),), (1, 1)),
    "B2": (2, ((0, 1, 1, 2),), (1, 2)),
    "G2": (2, ((0, 1, 1, 3),), (1, 3)),
    "A3": (3, ((0, 1, 1, 1), (1, 2, 1, 1)), (1, 1, 1)),
    "B3": (3, ((0, 1, 1, 1), (1, 2, 1, 2)), (1, 1, 2)),
    "C3": (3, ((0, 1, 1, 1), (1, 2, 2, 1)), (2, 2, 1)),
    "A4": (4, ((0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)), (1, 1, 1, 1)),
    "D4": (4, ((0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)), (1, 1, 1, 1)),
}
# Rank-2 data for the expansions: two affine seeds whose variables grow
# without bound, and two finite ones whose alternating sequences cycle.
RANK2_TYPES = {
    "kron": (2, ((0, 1, 2, 2),), (1, 1)),
    "aff14": (2, ((0, 1, 1, 4),), (1, 4)),
    "B2": FINITE_TYPES["B2"],
    "G2": FINITE_TYPES["G2"],
}
# The bipartite orientation of each rank-4 diagram in which vertex 1 is a
# sink.  Rank-4 tasks take 0.5 to 1.6 s depending on the orientation, so a
# seeded choice among the few that fit in a run would leave the run's
# figures to the draw.
RANK4 = (("A4", (1, -1, 1)), ("D4", (1, -1, -1)))
SL3_ENTRIES = (-2, -1, 1, 2)
DIGON_B = ((0, -1, 0, 1), (1, 0, -1, 0), (0, 1, 0, -1), (-1, 0, 1, 0))

MAX_DRAWS = 100


@dataclass(frozen=True)
class Task:
    """One unit of timed work: ``run`` computes, ``canon`` reduces its
    result to the string whose digest is checked."""

    key: str
    run: Callable
    canon: Callable
    # the library seed the task starts from; None for CLI tasks, whose
    # seeds are files
    seed: object = None
    # (full exchange matrix rows, sequence, index) for A-side expansions,
    # which the independent exchange-relation oracle can recompute
    oracle: tuple | None = None


class Stream:
    """Rounds of the same tasks in a seeded order.

    ``classes`` is a sequence of (class name, groups, groups per round,
    builder).  The builder turns a chosen input into a ``Task``, using the
    stream's generator for any random choice it makes.
    """

    def __init__(self, name, seed: int, classes, workdir: Path):
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.classes = classes
        self.rejected_inputs = 0
        self.tasks = None

    def mix(self) -> dict:
        return {cname: quota for cname, _, quota, _ in self.classes}

    def next_round(self) -> list:
        if self.tasks is None:
            self.tasks = []
            for _, groups, quota, build in self.classes:
                picked = groups * (quota // len(groups)) if quota >= len(groups) else self.rng.sample(groups, quota)
                for group in picked:
                    self.tasks.append(build(self, self.rng.choice(group)))
        tasks = list(self.tasks)
        self.rng.shuffle(tasks)
        return tasks


def single(items):
    return [[item] for item in items]


def every_round(name, items, build):
    """A class whose every input comes up once in every round."""
    return (name, single(items), len(items), build)


def signed(items):
    """Groups offering each item with either orientation sign appended."""
    return [[item + (1,), item + (-1,)] for item in items]


# -- input generation -----------------------------------------------------------


def gated_seed(stream: Stream, draw: Callable):
    """First candidate from ``draw(rng)`` that passes ``seeds.validate``.

    ``principal_seed`` and ``make_seed`` accept exchange data that is not
    skew-symmetrizable by the given symmetrizer; such a seed only fails
    deep inside a later computation, so it is refused here and redrawn
    rather than counted as a library failure.
    """
    for _ in range(MAX_DRAWS):
        seed = draw(stream.rng)
        if ct.validate(seed).ok:
            return seed
        stream.rejected_inputs += 1
    raise RuntimeError(f"no valid seed in {MAX_DRAWS} draws")


def principal_draw(shape, signs):
    """Candidate principal-coefficient seed with the given edge orientations.

    The two magnitudes of an edge are placed on a random side; for a
    non-simply-laced edge one of the two placements is not
    skew-symmetrizable by the symmetrizer and fails validation.
    """
    rank, edges, d = shape

    def draw(rng):
        b = [[0] * rank for _ in range(rank)]
        for (i, j, p, q), s in zip(edges, signs):
            if rng.random() < 0.5:
                p, q = q, p
            b[i][j], b[j][i] = s * p, -s * q
        return ct.principal_seed(b, d)

    return draw


def principal_input(stream, shape_name, signs):
    shapes = RANK2_TYPES if shape_name in RANK2_TYPES else FINITE_TYPES
    return gated_seed(stream, principal_draw(shapes[shape_name], signs))


def sl3_seed(stream, x, y):
    return gated_seed(stream, lambda rng: ct.make_seed([[0, x, y], [-x, 0, 0], [-y, 0, 0]], frozen=[1, 2], d=(1, 1, 1)))


def digon_seed(stream, sign, frozen):
    rows = [[sign * v for v in row] for row in DIGON_B]
    return gated_seed(stream, lambda rng: ct.make_seed(rows, frozen=frozen, d=(1, 1, 1, 1)))


def signs_str(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def seq_str(seq) -> str:
    return "".join(str(k) for k in seq) or "-"


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))


# -- search: the bounded search for the minus-permutation endpoint --------------


def canon_pair(pair) -> str:
    return dump(
        {
            "seq": pair.trajectory.seq,
            "sigma": pair.tw_a.sigma.pairs,
            "var_m": pair.tw_a.variation.matrix.to_lists(),
            "var_n": pair.tw_x.variation.matrix.to_lists(),
            "lam": pair.lam_base.lam.to_lists() if pair.lam_base else None,
            "lam_end": pair.lam_end.lam.to_lists() if pair.lam_end else None,
        }
    )


def all_orientations(types):
    return [
        (t, signs)
        for t in types
        for signs in product((1, -1), repeat=len(FINITE_TYPES[t][1]))
    ]


def build_search(stream, item):
    t, signs = item
    seed = principal_input(stream, t, signs)
    return Task(f"{t}:{signs_str(signs)}", lambda: ct.build_dt_twist(seed), canon_pair, seed)


def search_classes():
    rank2 = all_orientations(("A2", "B2", "G2"))
    # Rank-2 tasks take 6 to 10 ms in clusters; five times over, the
    # median of a run falls inside the slowest cluster, not at its edge.
    return [
        ("rank2", single(rank2), 5 * len(rank2), build_search),
        every_round("rank3", all_orientations(("A3", "B3", "C3")), build_search),
        every_round("rank4", RANK4, build_search),
    ]


# -- expand: Laurent expansions along alternating sequences ---------------------


def canon_expansion(exp) -> str:
    symbol = "X" if exp.ratio is not None else "A"
    degree = exp.ratio.degree if exp.ratio is not None else exp.pointed.degree
    return dump({"expr": exp.expr.render(symbol), "degree": degree})


def build_expand(stream, item):
    t, side, depth, start, sign = item
    seed = principal_input(stream, t, (sign,))
    seq = tuple((start + j) % 2 for j in range(depth))
    i = seq[-1]
    oracle = (seed.b.to_lists(), seq, i) if side == "A" else None
    return Task(
        f"{t}{signs_str((sign,))}:{side}:{seq_str(seq)}",
        lambda: ct.expand_cluster_variable(seed, seq, i, side),
        canon_expansion,
        seed,
        oracle,
    )


def expand_classes():
    # (type, side, depth, start vertex, orientation sign).  The start
    # vertex matters on aff14, whose two vertices differ, and the depths
    # spread the task times evenly over two decades.  The seed picks the
    # orientation of the finite seeds only: on the affine ones the two
    # orientations differ by up to 30% in time, and the slowest tasks set
    # task_p90_ms.
    affine = {
        "kron_a": [("kron", "A", depth, 0) for depth in (6, 8, 10, 12)],
        "kron_x": [("kron", "X", depth, 1) for depth in (6, 8, 10, 12)],
        "aff14_a": [("aff14", "A", 7, 0), ("aff14", "A", 8, 1), ("aff14", "A", 9, 0), ("aff14", "A", 10, 1)],
        "aff14_x": [("aff14", "X", 6, 1), ("aff14", "X", 7, 0), ("aff14", "X", 9, 1), ("aff14", "X", 11, 1), ("aff14", "X", 12, 0)],
    }
    finite = [(t, side, depth, 0) for t in ("B2", "G2") for side in "AX" for depth in (6, 9, 12)]
    # The finite tasks take a few ms each, the affine ones up to a second.
    # Three times over, the finite ones make two thirds of a round, so a
    # run's median falls among them and its 90th percentile among the
    # affine ones.
    return [
        every_round(name, [item + (1,) for item in items], build_expand) for name, items in affine.items()
    ] + [("finite", signed(finite), 3 * len(finite), build_expand)]


# -- verify: twist construction with its identity checks, and the CLI ----------


def principal_goals(t, length):
    """Sequences of the given length whose endpoint is similar to the
    principal start: every sequence for A2, even lengths for B2 and G2."""
    if t != "A2" and length % 2:
        return []
    return list(product((0, 1), repeat=length))


def generator_images(spec):
    base = spec.base
    return [ct.apply_twist(spec, ct.LaurentPoly.generator(base, i)) for i in range(base.n)]


def canon_checked_twist(out) -> str:
    pair, reports, images = out
    return dump(
        {
            "pair": canon_pair(pair),
            "reports": reports,
            "images": {side: [e.render(side) for e in imgs] for side, imgs in images.items()},
        }
    )


def build_principal_check(side):
    def build(stream, item):
        t, seq = item
        seed = principal_input(stream, t, (1,))

        def run():
            pair = ct.build_principal_twist(seed, seq)
            spec = pair.tw_a if side == "A" else pair.tw_x
            report = ct.verify_twist(
                spec,
                check_poisson=True,
                lam=pair.lam_base,
                check_p_commutation=True,
                check_homomorphism=4,
            )
            return pair, {side: report}, {side: generator_images(spec)}

        return Task(f"principal:{t}:{seq_str(seq)}:{side}", run, canon_checked_twist, seed)

    return build


def shaped_seed(stream, item):
    if item[0] == "sl3":
        return sl3_seed(stream, item[1], item[2])
    return digon_seed(stream, item[1], item[2])


def shaped_key(item) -> str:
    if item[0] == "sl3":
        return f"sl3({item[1]},{item[2]})"
    return f"digon({item[1]},{item[2][0]}{item[2][1]})"


SL3_SHAPES = [("sl3", x, y) for x in SL3_ENTRIES for y in SL3_ENTRIES]
DIGON_SHAPES = [("digon", sign, frozen) for sign in (1, -1) for frozen in ((0, 2), (1, 3))]


def build_dt_check(stream, item):
    seed = shaped_seed(stream, item)

    def run():
        pair = ct.build_dt_twist(seed)
        reports, images = {}, {}
        sides = ("A", "X") if pair.lam_base is not None else ("X",)
        for side in sides:
            spec = pair.tw_a if side == "A" else pair.tw_x
            reports[side] = ct.verify_twist(
                spec,
                check_poisson=True,
                lam=pair.lam_base,
                check_p_commutation=True,
                check_homomorphism=4,
            )
            images[side] = generator_images(spec)
        return pair, reports, images

    return Task(f"dt:{shaped_key(item)}", run, canon_checked_twist, seed)


def canon_families(out) -> str:
    return dump(
        {
            kind: {
                "dim": fam.dim,
                "particular": fam.particular.to_lists(),
                "basis": [b.to_lists() for b in fam.basis],
                "poisson_member": ok,
            }
            for kind, (fam, ok) in out.items()
        }
    )


def build_variation(stream, item):
    if item[0] == "principal":
        _, t, seq = item
        seed = principal_input(stream, t, (1,))

        def run():
            target = ct.seeds.mutate_b_along(seed, seq)[-1]
            fam_m = ct.solve_M_variation(seed, target)
            fam_n = ct.solve_N_variation(seed, target)
            return {"M": (fam_m, None), "N": (fam_n, ct.is_poisson(fam_n.member()))}

        return Task(f"variation:{t}:{seq_str(seq)}", run, canon_families, seed)

    seed = shaped_seed(stream, item)

    def run_digon():
        target = ct.find_t1(seed).trajectory.final
        fam = ct.solve_N_variation(seed, target, poisson=True)
        return {"N": (fam, ct.is_poisson(fam.member()))}

    return Task(f"variation:{shaped_key(item)}", run_digon, canon_families, seed)


QUANTUM_PAIRS = 6


def build_quantum(stream, item):
    shape, draw = item
    seed = shaped_seed(stream, shape)
    vectors = random.Random(f"quantum:{shaped_key(shape)}:{draw}")
    pairs = [
        tuple(tuple(vectors.randint(-3, 3) for _ in range(seed.n)) for _ in range(2))
        for _ in range(QUANTUM_PAIRS)
    ]

    def run():
        form = ct.omega_from_seed(seed)
        limits = [quantum.poisson_limit_check(n1, n2, form) for n1, n2 in pairs]
        pair = ct.build_dt_twist(seed)
        var = pair.tw_x.variation
        hom = quantum.homomorphism_check(var, form, ct.omega_from_seed(var.target))
        return limits, hom

    def canon(out):
        limits, hom = out
        return dump(
            {
                "limits": [(r["limit"].render("X"), r["ok"]) for r in limits],
                "homomorphism": hom["ok"],
            }
        )

    return Task(f"quantum:{shaped_key(shape)}:{draw}", run, canon, seed)


def cli_seed_files():
    """Seeds the CLI tasks read, by file stem."""
    files = {f"{t}+": ("principal", t) for t in ("A2", "B2", "G2", "kron", "aff14")}
    files.update({shaped_key(s): s for s in SL3_SHAPES})
    return files


def cli_seq(seq) -> str:
    return ",".join(str(k + 1) for k in seq)


def alternating(depth):
    return tuple(j % 2 for j in range(depth))


def cli_groups():
    """Groups of CLI invocations; each comes up once per round."""
    twist_dt = [
        ("twist", "--seed", shaped_key(s), "--kind", "dt", "--side", side, "--checks", "poisson,p-comm,hom")
        for s in SL3_SHAPES
        for side in "AX"
    ]
    var_solve = [
        ("var-solve", "--seed", f"{t}+", "--seq", cli_seq(seq), "--side", side)
        for t in ("A2", "B2", "G2")
        for seq in principal_goals(t, 2)
        for side in "AX"
    ]
    return [
        [("examples", "a1")],
        [("examples", "sl3")],
        [("examples", "digon")],
        twist_dt,
        twist_dt,
        [
            ("twist", "--seed", "A2+", "--kind", "principal", "--seq", cli_seq(seq), "--side", side, "--checks", "poisson,p-comm")
            for seq in principal_goals("A2", 2)
            for side in "AX"
        ],
        var_solve,
        var_solve,
        [("expand", "--seed", "kron+", "--seq", cli_seq(alternating(6)), "--i", "2", "--side", "A")],
        [("expand", "--seed", "kron+", "--seq", cli_seq(alternating(6)), "--i", "2", "--side", "X")],
        [
            ("cgmat", "--seed", f"{t}+", "--seq", cli_seq(alternating(depth)))
            for t in ("kron", "aff14", "B2", "G2")
            for depth in range(4, 13, 2)
        ],
    ]


def write_cli_seeds(stream) -> None:
    """Write every seed file a CLI task may read into the stream's workdir."""
    stream.workdir.mkdir(parents=True, exist_ok=True)
    for stem, spec in cli_seed_files().items():
        seed = principal_input(stream, spec[1], (1,)) if spec[0] == "principal" else shaped_seed(stream, spec)
        (stream.workdir / f"{stem}.json").write_text(json.dumps(ct.seed_to_json(seed)))


def build_cli(stream, item):
    argv = [str(stream.workdir / f"{a}.json") if prev == "--seed" else a for prev, a in zip(("",) + item, item)]
    argv += ["--format", "json"]

    def run():
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def canon(out):
        code, text = out
        if code != 0:
            raise ValueError(f"exit code {code}")
        if item[0] == "examples" and not json.loads(text)["ok"]:
            raise ValueError("gallery example reports a mismatch")
        return text

    return Task("cli:" + " ".join(item), run, canon)


def verify_classes():
    principal_a = [(t, seq) for t, length in (("A2", 3), ("B2", 2), ("G2", 2)) for seq in principal_goals(t, length)]
    principal_x = [(t, seq) for t in ("A2", "B2", "G2") for seq in principal_goals(t, 2)]
    variation = [("principal", t, seq) for t in ("A2", "B2", "G2") for length in range(5) for seq in principal_goals(t, length)]
    quantum_inputs = [(s, draw) for s in SL3_SHAPES + DIGON_SHAPES for draw in (0, 1)]
    groups = cli_groups()
    return [
        every_round("principal_a", principal_a, build_principal_check("A")),
        every_round("principal_x", principal_x, build_principal_check("X")),
        every_round("principal_a_long", [("B2", (0, 1, 0, 1)), ("G2", (0, 1, 0, 1))], build_principal_check("A")),
        ("dt_sl3", [SL3_SHAPES], 4, build_dt_check),
        every_round("dt_digon", DIGON_SHAPES, build_dt_check),
        ("variation", [variation], 4, build_variation),
        ("variation_digon", [DIGON_SHAPES], 1, build_variation),
        ("quantum", [quantum_inputs], 4, build_quantum),
        ("cli", groups, len(groups), build_cli),
    ]


WORKLOADS = {
    "search": search_classes,
    "expand": expand_classes,
    "verify": verify_classes,
}


def make_stream(name: str, seed: int, workdir: Path) -> Stream:
    """Set up a workload: its task stream, and the seed files its CLI
    tasks read."""
    stream = Stream(name, seed, WORKLOADS[name](), workdir)
    if name == "verify":
        write_cli_seeds(stream)
    return stream


def all_tasks(name: str, workdir: Path):
    """Every task the workload can draw, once each, for recording."""
    stream = make_stream(name, 0, workdir)
    seen = set()
    for _, groups, _, build in WORKLOADS[name]():
        for group in groups:
            for item in group:
                task = build(stream, item)
                if task.key not in seen:
                    seen.add(task.key)
                    yield task
