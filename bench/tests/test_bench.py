"""Tests of the benchmark harness itself (not of pftcs).

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402


@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_percentile_matches_numpy_linear_rule(q, n):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)), rel=1e-12)


def test_percentile_interpolates_and_rejects_bad_input():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([10.0, 20.0], 90) == pytest.approx(19.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_op_ms_p50_weights_every_cell_alike():
    cells = {"fast": {"op_ms_p50": 2.0}, "mid": {"op_ms_p50": 20.0},
             "slow": {"op_ms_p50": 150.0}, "slowest": {"op_ms_p50": 400.0}}
    assert run.cell_median_ms(cells) == 85.0
    del cells["slowest"]
    assert run.cell_median_ms(cells) == 20.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_follow_the_seed(name):
    workload = WORKLOADS[name]
    count = 6 * len(workload.cells)
    assert workload.ops(3, count) == workload.ops(3, count)
    assert workload.ops(3, count) != workload.ops(4, count)
    # the rotation keeps every cell equally represented whatever the seed
    for seed in (3, 4):
        cells = [op.cell for op in workload.ops(seed, count)]
        assert len({cells.count(c) for c in set(cells)}) == 1
        assert len(set(cells)) == len(workload.cells)


def test_warmup_covers_every_cell_once():
    for workload in WORKLOADS.values():
        cells = [op.cell for op in workload.warmup_ops()]
        assert sorted(cells) == sorted(set(cells)) and len(cells) == len(workload.cells)


def _fake_package(monkeypatch):
    """Package ``fakepkg`` with module ``mod``: ``outer`` calls ``inner``."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    def outer(x):
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    pkg.mod = mod
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return mod


SPANS = (Span("mod.outer", (("mod", "outer"),)), Span("mod.inner", (("mod", "inner"),)))


def test_wrappers_restored_when_an_op_raises(monkeypatch):
    mod = _fake_package(monkeypatch)
    originals = (mod.inner, mod.outer)
    tracer = Tracer("fakepkg", SPANS)
    with pytest.raises(ValueError):
        with tracer.installed():
            assert mod.outer is not originals[1]
            with tracer.op(0):
                mod.outer(-1)
    assert (mod.inner, mod.outer) == originals
    assert tracer.stats["mod.outer"].calls == 1
    assert tracer.stats["mod.inner"].calls == 1
    # the failed op's frames were unwound; a later op starts from an empty stack
    with tracer.installed():
        with tracer.op(1):
            assert mod.outer(2) == 5
    assert (mod.inner, mod.outer) == originals
    assert tracer.stats["mod.outer"].calls == 2


def test_self_time_excludes_wrapped_callees_and_checks_are_not_counted(monkeypatch):
    mod = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg", SPANS)
    with tracer.installed():
        mod.outer(1)  # outside tracer.op: forwarded, not recorded
        for i in range(3):
            with tracer.op(i):
                mod.outer(i)
    outer, inner = tracer.stats["mod.outer"], tracer.stats["mod.inner"]
    assert (outer.calls, inner.calls) == (3, 3)
    assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)
    assert tracer.metric("mod.inner.calls", 3) == 1.0
    parents = {rec[1]: rec[2] for rec in tracer.records}
    names = {rec[1]: rec[3] for rec in tracer.records}
    assert all(names[parents[i]] == "mod.outer" for i in names if names[i] == "mod.inner")


def test_missing_name_is_reported_absent(monkeypatch):
    mod = _fake_package(monkeypatch)
    spans = SPANS + (Span("mod.renamed", (("mod", "renamed_helper"),)),)
    tracer = Tracer("fakepkg", spans)
    with tracer.installed():
        with tracer.op(0):
            mod.outer(1)
    assert tracer.absent == {"mod.renamed"}
    assert tracer.metric("mod.renamed.calls", 1) is None
    assert tracer.metric("mod.outer.calls", 1) == 1.0
    assert not hasattr(mod, "renamed_helper")


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
