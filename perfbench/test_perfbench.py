"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from fractions import Fraction

import pytest

import checks
import cluster_twist as ct
import workloads
from run import END_TO_END, ROOT, library_caches, percentile, run_task
from tracer import PER_LAYER, Tracer, unit


def stream_inputs(name, seed, workdir, rounds=3):
    stream = workloads.make_stream(name, seed, workdir)
    out = []
    for _ in range(rounds):
        for task in stream.next_round():
            seed_json = json.dumps(ct.seed_to_json(task.seed)) if task.seed is not None else None
            out.append((task.key, seed_json))
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*.json"))}
    return out, files, stream.rejected_inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = stream_inputs(name, 7, tmp_path / "a")
    assert first == stream_inputs(name, 7, tmp_path / "b")
    assert first[0] != stream_inputs(name, 8, tmp_path / "c")[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_repeat_the_same_tasks(name, tmp_path):
    stream = workloads.make_stream(name, 3, tmp_path)
    first = stream.next_round()
    assert len(first) == sum(stream.mix().values())
    for _ in range(3):
        assert sorted(t.key for t in stream.next_round()) == sorted(t.key for t in first)


def test_invalid_seed_is_redrawn_not_used(tmp_path):
    misflipped = ct.principal_seed([[0, 2], [-1, 0]], (1, 2))
    valid = ct.principal_seed([[0, 1], [-2, 0]], (1, 2))
    assert not ct.validate(misflipped).ok
    draws = iter([misflipped, valid])
    stream = workloads.Stream("t", 0, [], tmp_path)
    assert workloads.gated_seed(stream, lambda rng: next(draws)) is valid
    assert stream.rejected_inputs == 1


def test_generator_meets_and_refuses_misplaced_magnitudes(tmp_path):
    stream = workloads.Stream("t", 0, [], tmp_path)
    draw = workloads.principal_draw(workloads.FINITE_TYPES["B2"], (1,))
    seeds = [workloads.gated_seed(stream, draw) for _ in range(20)]
    assert all(ct.validate(s).ok and s.b == seeds[0].b for s in seeds)
    assert stream.rejected_inputs > 0


def first_task(name, tmp_path, prefix):
    for task in workloads.all_tasks(name, tmp_path):
        if task.key.startswith(prefix):
            return task
    raise LookupError(prefix)


def test_perturbed_output_is_counted_as_failed(tmp_path):
    checker = checks.Checker("search")
    task = first_task("search", tmp_path, "A2:")
    assert run_task(task, checker, ())[1]
    perturbed = workloads.Task(task.key, task.run, lambda r: task.canon(r) + " ")
    assert run_task(perturbed, checker, ())[1] is False
    unknown = workloads.Task("A2:unrecorded", task.run, task.canon)
    assert run_task(unknown, checker, ())[1] is False

    def boom():
        raise ct.InternalConsistencyError("broken")

    assert run_task(workloads.Task(task.key, boom, task.canon), checker, ())[1] is False


def test_oracle_flags_a_wrong_expansion(tmp_path):
    checker = checks.Checker("expand")
    task = first_task("expand", tmp_path, "kron+:A:")
    assert run_task(task, checker, ())[1]
    assert checker.oracle_mismatches() == []
    value, oracle = checker.samples[task.key]
    checker.samples[task.key] = (value + Fraction(1, 10**6), oracle)
    assert checker.oracle_mismatches() == [task.key]


def test_oracle_convention_and_gallery_hold():
    assert checks.gallery_mismatches(ct) == []


def package_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cluster_twist" or name.startswith("cluster_twist."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("cluster_twist"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_restores_every_patched_name():
    before = package_bindings()
    original = ct.mutation.find_t1
    tracer = Tracer()
    with tracer.patched():
        assert ct.mutation.find_t1 is not original
        assert ct.twist.find_t1 is ct.mutation.find_t1 is ct.find_t1
        assert ct.Matrix.__init__ is not before[("cluster_twist.exact", "Matrix", "__init__")]
        ct.build_dt_twist(ct.principal_seed([[0, 1], [-1, 0]], (1, 1)))
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.stats["twist.build_dt_twist"][0] == 1
    assert tracer.stats["mutation.find_t1"][0] == 1
    assert tracer.stats["exact.matrix_new"][0] > 0


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap(advance, "exact.matrix_new")

    def mid():
        advance(1)
        leaf(2)
        advance(3)
        leaf(4)

    mid = tracer.wrap(mid, "mutation.find_t1")

    def top():
        advance(5)
        mid()
        advance(6)
        return None

    top = tracer.wrap(top, "twist.build_dt_twist")
    with tracer.task("t"):
        advance(0.5)
        top()

    assert tracer.stats["exact.matrix_new"][:2] == [2, 6.0]
    assert tracer.stats["mutation.find_t1"][:2] == [1, 4.0]
    assert tracer.stats["twist.build_dt_twist"][:3] == [1, 11.0, 1]
    assert tracer.spans == [
        ["task", "t", 0.0, 21.5, None],
        ["twist.build_dt_twist", "t", 0.5, 21.5, 0],
        ["mutation.find_t1", "t", 5.5, 15.5, 1],
    ]
    metrics = tracer.layer_metrics(passes=2, overhead_ratio=1.5)
    assert metrics["exact.matrix_new.calls"] == 1
    assert metrics["mutation.find_t1.self_s"] == 2.0
    assert metrics["trace.overhead_ratio"] == 1.5


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(101)), 90) == 90
    assert percentile(list(range(21)), 50) == 10


def test_benchmark_json_matches_the_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, unit(n)) for n in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_each_task_starts_with_cold_library_caches(tmp_path):
    caches = library_caches()
    assert ct.laurent._dominance_solver in caches
    task = first_task("expand", tmp_path, "kron+:A:")
    checker = checks.Checker("expand")
    assert run_task(task, checker, caches)[1]
    assert ct.laurent._dominance_solver.cache_info().currsize > 0
    run_task(workloads.Task(task.key, lambda: None, str), checker, caches)
    assert ct.laurent._dominance_solver.cache_info().currsize == 0
