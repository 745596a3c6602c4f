"""Self-tests of the benchmark: span arithmetic, the tail rule, and a tiny
smoke config per workload that runs the workload's output checks.

    python3 -m pytest bench/tests -q
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from coopdiff import optimize  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 30] > leaf [15, 20]; root > b [40, 90]
    tracer = tracing.Tracer(clock=_fake_clock([0, 10, 15, 20, 30, 40, 90, 100]))
    tracer.request = 7
    root = tracer.open("root")
    a = tracer.open("a")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [30, 15, 5, 50]
    rows = tracing.summarize(tracer.spans, [7])
    assert rows["root"]["total_s"] == pytest.approx(100e-9)
    assert rows["root"]["self_s"] == pytest.approx(30e-9)
    assert tracing.summarize(tracer.spans, [8]) == {}


def test_span_records_the_exception_and_reraises():
    tracer = tracing.Tracer(clock=_fake_clock([0, 5]))

    def boom():
        raise optimize.DivergedRolloutError(step=3, agent=1)

    with pytest.raises(optimize.DivergedRolloutError):
        tracer.call("optimize.rollout", boom)
    assert tracer.spans[0].error == "DivergedRolloutError"
    assert tracer._stack == []


def test_installed_wrappers_are_removed_on_exit():
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _ in tracing.PATCHES + tracing.SETUP_PATCHES}
    with tracing.Tracer().installed():
        assert optimize.coupled_rollout is not before[(optimize, "coupled_rollout")]
    after = {(owner, attr): owner.__dict__[attr] for owner, attr in before}
    assert after == before


@pytest.mark.parametrize("n, index, percentile", [
    (200, 189, 95.0),
    (30, 19, 200 / 3),
    (11, 0, 100 / 11),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, percentile):
    values = [float(v) for v in range(n)][::-1]
    value, pct = workloads.tail(values)
    assert value == float(index)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(percentile)


def test_tail_falls_back_to_maximum_below_eleven_samples():
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# tiny versions of the workload configs: every output check still runs
SHAPES16_SMOKE = {
    "shapes.per_class": 60,
    "score.hidden": "32",
    "score.train_steps": 30,
    "grid.steps": 6,
    "plan.batch": 4,
    "plan.updates": 3,
    "plan.outer_iters": 1,
    "plan.inner_steps": 1,
    "policy.hidden": "16",
    "policy.gain_hidden": "8",
    "eval_chunk": 32,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_output_checks(name, tmp_path):
    run = workloads.WORKLOADS[name](3, 0.5, tmp_path, overrides=SHAPES16_SMOKE)
    assert run.failed == 0, run.problems
    assert run.attempted >= 1 and run.op_s and run.setup_s


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for i in range(2):
        tracer = tracing.Tracer()
        work = tmp_path / str(i)
        work.mkdir()
        with tracer.installed():
            run = workloads.shapes16_train(3, 0.5, work, tracer,
                                           overrides=SHAPES16_SMOKE)
        assert run.failed == 0, run.problems
        metrics = tracing.layer_metrics(tracer, run.traced_ops)
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("_s") and k != "tape.us_per_node"})
    assert counts[0] == counts[1]
    assert counts[0]["tape.nodes"] > 0 and counts[0]["nn.mlp_calls"] > 0
