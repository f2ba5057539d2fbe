"""Tests of the benchmark itself: span arithmetic, clean uninstall, seeding.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import besselbvp  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, busy, self_times  # noqa: E402


def _self_time(spans, name):
    return sum(t for s, t in zip(spans, self_times(spans)) if s.name == name)


def test_self_time_is_busy_minus_children_on_a_synthetic_nest():
    spans = [Span("a", 0.0, 10.0, None, 0, False),
             Span("b", 1.0, 4.0, 0, 0, False),
             Span("d", 2.0, 3.5, 1, 0, False),
             Span("c", 5.0, 7.0, 0, 0, False),
             Span("b", 8.0, 9.0, 0, 0, False)]
    selfs = self_times(spans)
    assert selfs == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 3.0 - 1.5, 1.5,
                                   2.0, 1.0])
    assert busy(spans, "b") == pytest.approx(4.0)
    assert _self_time(spans, "b") == pytest.approx(busy(spans, "b") - 1.5)
    # the total of self times is the root's duration
    assert sum(selfs) == pytest.approx(10.0)


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    tracer.task = 7
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == tracer.spans.index(by_name["outer"])
    assert by_name["outer"].task == 7
    assert _self_time(tracer.spans, "outer") == pytest.approx(
        busy(tracer.spans, "outer") - busy(tracer.spans, "inner"))


def test_a_defect_label_excuses_only_its_own_check_or_raise():
    def task(call=lambda: None, check=lambda out: [], raises=None):
        return workloads.Task("kind", 0, {}, call, check, raises=raises)

    def gate():
        raise workloads.SingularSystem("residual")

    _, outcomes = run.run_pass([
        task(check=lambda out: [("miss", "defect")]),
        task(check=lambda out: [("miss", "defect"), ("other miss", None)]),
        task(call=gate, raises=(workloads.SingularSystem, "defect")),
        task(call=gate, raises=(KeyError, "defect")),
        task(call=gate),
        task(),
    ])
    assert [bool(o["fails"]) for o in outcomes] == [True] * 5 + [False]
    assert [o["expected"] for o in outcomes[:5]] == [True, False, True,
                                                    False, False]


def _library_objects():
    """Every attribute of every besselbvp module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("besselbvp"):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = cvalue
    return seen


def test_uninstall_restores_every_library_object_by_identity():
    before = _library_objects()
    tracer = layers.watch(Tracer())
    with tracer:
        wrapped = _library_objects()
        assert besselbvp.solve.galerkin_solve is not before[
            ("besselbvp.solve", "galerkin_solve")]
        assert besselbvp.cli.kg_reduce is besselbvp.kg.reduce
        besselbvp.special.bessel_zeros(0.5, 3)
    after = _library_objects()
    assert [s.name for s in tracer.spans] == ["special.bessel_zeros"]
    assert sum(1 for k in before if wrapped[k] is not before[k]) > 30
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _task_list(name, seed, workdir):
    tasks = workloads.WORKLOADS[name](np.random.default_rng([seed, 0]),
                                      workdir)
    return [(t.kind, t.size, json.dumps(t.params, default=str)) for t in tasks]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_task_list_and_only_draws_change(name, tmp_path):
    first = _task_list(name, 1, tmp_path)
    assert _task_list(name, 1, tmp_path) == first
    other = _task_list(name, 2, tmp_path)
    assert [(k, s) for k, s, _ in other] == [(k, s) for k, s, _ in first]
    assert [p for _, _, p in other] != [p for _, _, p in first]


COUNT_METRICS = [name for name, unit, _ in layers.PER_LAYER
                 if unit == "count" or name.endswith("_frac")
                 and name != "trace.overhead_frac"]


def _exact_counts(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    tasks = [t for t in workloads.calculus(rng, workdir)
             if t.kind != "calculus.poisson_lift"]
    tasks += [t for t in workloads.sweeps(rng, workdir)
              if t.kind == "sweeps.cli_sweep"]
    tracer = layers.watch(Tracer())
    before = run.cache_counts()
    with tracer:
        run.run_pass(tasks, tracer)
    after = run.cache_counts()
    values = layers.metrics(tracer, tasks, (after[0] - before[0],
                                            after[1] - before[1]), 0, 0.0)
    return {k: values[k] for k in COUNT_METRICS}


def test_one_seed_gives_the_same_exact_counts_twice():
    with tempfile.TemporaryDirectory() as workdir:
        _exact_counts(3, workdir)          # fill the quadrature caches
        first = _exact_counts(3, workdir)
        assert _exact_counts(3, workdir) == first
    assert first["fem.Space.matrices.calls"] > 0
    assert first["core.BranchFunction.calls"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [
        unit for _, unit, _ in layers.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
