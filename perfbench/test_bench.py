"""Self-tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import pytest

from run import tail
from tracing import SELF_TIME_METRICS, Span, Tracer, layer_metrics, self_times


def test_tail_leaves_ten_instances_beyond():
    times = [float(t) for t in range(1, 41)]  # 40 instances
    value, percentile = tail(times[::-1])
    assert value == 30.0
    assert sum(t > value for t in times) == 10
    assert percentile == 75.0
    value, percentile = tail([float(t) for t in range(600)])
    assert value == 589.0
    assert percentile == pytest.approx(100.0 * 590 / 600)


def test_tail_needs_more_than_ten_instances():
    with pytest.raises(ValueError):
        tail([1.0] * 10)
    assert tail([1.0] * 11) == (1.0, 100.0 / 11)


def _spans():
    # root [0, 10] holding a [1, 4] (itself holding b [2, 3]) and c [5, 9]; then a second root
    return [
        Span("cli.run_learn", "instances", -1, 0.0, 10.0),
        Span("learner.direction", "instances", 0, 1.0, 4.0),
        Span("kspike.learn", "instances", 1, 2.0, 3.0),
        Span("spectral.estimate_A", "instances", 0, 5.0, 9.0),
        Span("cli.run_learn", "instances", -1, 20.0, 22.0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_spans()) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_self_times_add_up_to_the_instance_time():
    tracer = Tracer()
    tracer.spans = _spans() + [
        Span("cli.generate_source", "setup", -1, -5.0, -2.0),
        Span("linalg.eig", "setup", 5, -4.0, -3.5),
    ]
    metrics, instance_self_s = layer_metrics(tracer, n_instances=2)
    assert instance_self_s == pytest.approx((10.0 + 2.0) / 2)
    assert sum(metrics[m][0] for m in SELF_TIME_METRICS) == pytest.approx(instance_self_s + 0.5)
    assert metrics["cli.run_learn_self_s"][0] == pytest.approx(2.5)
    assert metrics["cli.generate_source_s"][0] == pytest.approx(2.5)
    assert metrics["linalg.eig_s"][0] == pytest.approx(0.5)
    assert metrics["linalg.eig_calls"][0] == 1
    assert metrics["learner.directions"][0] == 0.5
