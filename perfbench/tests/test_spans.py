import importlib
import random
import sys

import pytest

from perfbench import layers, spans, workloads
from perfbench.run import Runner


@pytest.fixture
def clock(monkeypatch):
    """perf_counter replaced by a clock that reads 0, 1, 2, ... in turn."""
    ticks = iter(range(1000))
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(ticks)))


def test_self_time_subtracts_child_spans(clock):
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda k: [None for _ in range(k)])
    outer = tracer.wrap("outer", lambda: (inner(1), inner(2)))
    tracer.op = 0
    outer()  # clock: outer 0..5, inner 1..2 and 3..4
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "errors": 0, "self_s": 3.0}
    assert totals["inner"] == {"calls": 2, "errors": 0, "self_s": 2.0}
    assert tracer.children("outer", "inner") == 2
    assert tracer.descendants("outer", "inner") == 2


def test_nested_grandchildren_count_once(clock):
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    tracer.op = 0
    top()  # top 0..7, mid 1..4 (leaf 2..3), leaf 5..6
    totals = tracer.totals()
    assert totals["top"]["self_s"] == 7.0 - 3.0 - 1.0
    assert totals["mid"]["self_s"] == 3.0 - 1.0
    assert totals["leaf"]["self_s"] == 2.0
    assert tracer.children("top", "leaf") == 1
    assert tracer.descendants("top", "leaf") == 2
    assert list(tracer.parents) == [-1, 0, 1, 0]


def test_errors_are_counted_and_reraised(clock):
    tracer = spans.Tracer()

    def boom():
        raise ValueError("bad input")

    traced = tracer.wrap("boom", boom)
    tracer.op = 3
    with pytest.raises(ValueError):
        traced()
    assert tracer.totals()["boom"] == {"calls": 1, "errors": 1, "self_s": 1.0}
    assert list(tracer.ops) == [3]


def test_calls_outside_an_op_are_not_recorded():
    tracer = spans.Tracer()
    traced = tracer.wrap("f", lambda x: x + 1)
    assert traced(1) == 2
    assert len(tracer) == 0


def _bindings():
    """Every attribute of every rotnorm module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "rotnorm" or name.startswith("rotnorm."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_install_patches_every_binding_and_restore_puts_all_back():
    for module, _, _ in layers.WRAPPED:
        importlib.import_module(f"rotnorm.{module}")
    import rotnorm.cli  # noqa: F401  (cli re-binds nothing, but is loaded)
    from rotnorm import _kernels, coset, lattice

    before = _bindings()
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        # One wrapper per function, under each name it is imported by.
        assert coset.quotient_info is lattice.quotient_info
        assert coset.quotient_info is not before[("rotnorm.lattice", "quotient_info")]
        assert _kernels._pure.cvp_enumerate is _kernels.cvp_enumerate
        assert isinstance(vars(coset.AffineCoset)["build"], staticmethod)
        changed = {k for k, v in _bindings().items() if before.get(k) is not v}
        assert len(changed) >= len(layers.WRAPPED)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pass_keeps_outputs_and_counts_work():
    ops, once = workloads.build_coset(random.Random("coset-certify/0"))
    runner = Runner(ops[:6], once[:1])
    runner.run_once()
    runner.one_pass()
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        runner.one_pass(tracer)
    finally:
        tracer.restore()
    assert runner.problems == []
    values = layers.layer_values(tracer)
    assert values["coset.theta_sup.calls"] == 6
    assert values["lattice.normalize.calls"] == 6
    assert values["coset.theta.calls"] >= 6 * workloads.COSET_OFFSETS
    assert values["coset.theta_sup.theta_calls"] == (
        values["coset.theta.calls"] - 6 * workloads.COSET_OFFSETS)
    # theta skips the kernel when the offset is already in the lattice
    assert 0 < values["kernels.cvp_enumerate.calls"] <= values["coset.theta.calls"]
    assert values["catalog.check_fixture.calls"] == 0  # once-ops are untraced
    assert {s["name"] for s in layers.metric_specs()} >= values.keys()
