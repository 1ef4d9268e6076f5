"""Tests of the benchmark's own logic: failure charging, the tail
percentile, self-time subtraction, generator determinism and the traced
run's repeatable counts."""

import json
import random
from pathlib import Path

import pytest

import artifact
from bench import hostspeed
from bench import tracer as tracer_mod
from bench.exact import ExactRing
from bench.measure import OpRecord, charged_ms, summarize, tail_percentile
from bench.run import END_TO_END, check_op, run_op, traced_run
from bench.tracer import GEN, PER_LAYER, SPAN, Tracer
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# cheap op slices per workload for the traced determinism check
CHEAP = {"classify-ears": slice(0, 4), "frieze-scan": slice(0, 9),
         "matching-sums": slice(0, 8)}


def test_failed_op_is_charged_at_the_limit():
    recs = [OpRecord(0, "a", 0.010, True), OpRecord(1, "a", 0.001, False, "x")]
    assert charged_ms(recs, 500) == [10.0, 500.0]


def test_failure_in_any_execution_charges_the_op():
    recs = [OpRecord(0, "a", 0.004, True), OpRecord(0, "a", 0.001, False),
            OpRecord(0, "a", 0.002, True)]
    assert charged_ms(recs, 500) == [500.0]


def test_median_execution_in_the_run_is_the_op_latency():
    recs = [OpRecord(0, "a", 0.004, True), OpRecord(0, "a", 0.002, True),
            OpRecord(1, "b", 0.003, True), OpRecord(0, "a", 0.001, True)]
    assert charged_ms(recs, 500) == [2.0, 3.0]


def test_host_scale_applies_to_measured_times_not_to_the_limit():
    recs = [OpRecord(0, "a", 0.010, True), OpRecord(1, "a", 0.001, False)]
    assert charged_ms(recs, 500, 0.5) == [5.0, 500.0]


def test_host_scale_is_the_reference_median():
    assert hostspeed.scale([0.012, 0.010, 0.030]) \
        == pytest.approx(hostspeed.REFERENCE_MS / 12.0)
    assert hostspeed.reference() == hostspeed.reference()


def test_failed_op_counts_as_no_work():
    recs = [OpRecord(k, "a", 0.010, True) for k in range(109)]
    recs.append(OpRecord(109, "a", 0.0001, False, "exit 3"))
    m = summarize(recs, 1000)
    # 109 correct ops over 1.09 s of real time plus 1 s charged
    assert m["ops_per_s"] == pytest.approx(109 / 2.09)
    assert m["fail_ratio"] == pytest.approx(1 / 110)
    assert m["p90_ms"] == pytest.approx(10.0)


def test_fast_failures_do_not_read_as_faster():
    good = [OpRecord(k, "a", 0.010, True) for k in range(110)]
    bad = good[:100] + [OpRecord(k, "a", 0.0001, False)
                        for k in range(100, 110)]
    assert summarize(bad, 1000)["ops_per_s"] \
        < summarize(good, 1000)["ops_per_s"]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(100)), 0.9) == 89
    assert tail_percentile(list(range(200, 0, -1)), 0.9) == 180
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 0.9)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    tr = Tracer()

    def child():
        clock.now += 3.0

    wrapped_child = tr._wrap("b.child", SPAN, child, None)

    def parent():
        clock.now += 2.0
        wrapped_child()
        wrapped_child()

    tr._wrap("a.parent", SPAN, parent, None)()
    assert tr.self_s("a.parent") == pytest.approx(2.0)
    assert tr.self_s("b.child") == pytest.approx(6.0)
    assert tr.calls("b.child") == 2
    assert tr.layer_self_s("a") == pytest.approx(2.0)
    key, _op, parent_idx, start, end = tr.spans[1]
    assert (key, parent_idx, end - start) == ("b.child", 0, 3.0)


def test_generator_self_time_excludes_the_consumer(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    tr = Tracer()

    def produce():
        for _ in range(3):
            clock.now += 1.0
            yield None

    gen = tr._wrap("g.produce", GEN, produce, None)

    def consume():
        for _ in gen():
            clock.now += 5.0

    tr._wrap("c.consume", SPAN, consume, None)()
    assert tr.items("g.produce") == 3
    assert tr.calls("g.produce") == 1
    assert tr.self_s("g.produce") == pytest.approx(3.0)
    assert tr.self_s("c.consume") == pytest.approx(15.0)


def test_exact_ring_parses_printed_elements():
    ctx = artifact.make_context([3, 4])
    R = ExactRing(ctx.L, ctx.minpoly)
    for elem in (ctx.lam(4) * ctx.lam(3) - 7, -ctx.mu() * ctx.mu(),
                 ctx.zero(), ctx.from_int(-12)):
        assert R.parse(artifact.format_elem(elem)) == elem.coeffs
    assert R.mul(R.lam(4), R.lam(4)) == R.const(2)


def build(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].build(artifact, random.Random(seed), workdir)


def inputs(ops):
    return [(Path(op.input_path).read_text(), op.args) for op in ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_by_seed(name, tmp_path):
    a = build(name, 7, tmp_path / "a")
    b = build(name, 7, tmp_path / "b")
    c = build(name, 8, tmp_path / "c")
    assert len(a) >= 100
    assert [op.kind for op in a] == [op.kind for op in c]
    assert inputs(a) == inputs(b)
    assert inputs(a) != inputs(c)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_second_seed_passes(name, tmp_path):
    counts = []
    for run in ("a", "b"):
        ops = build(name, 3, tmp_path / run)[CHEAP[name]]
        records, metrics, tr = traced_run(artifact, ops,
                                          tmp_path / (run + ".json"))
        assert all(r.ok for r in records), [r.error for r in records]
        counts.append(tr.counts())
        assert metrics["trace.overhead_ratio"][0] > 0
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    ops = build(name, 4, tmp_path / "c")[CHEAP[name]]
    assert inputs(ops) != inputs(build(name, 3, tmp_path / "d")[CHEAP[name]])
    for idx, op in enumerate(ops):
        _dt, result, error = run_op(artifact, op)
        assert check_op(artifact, op, result, error, {}, idx) is None


def test_wrong_answer_fails_the_op(tmp_path):
    op = build("frieze-scan", 3, tmp_path)[0]
    code, out, err = op.run(artifact)
    tampered = (code, out.replace("1 : 1", "2 : 2", 1), err)
    assert check_op(artifact, op, (code, out, err), None, {}, 0) is None
    assert "wrong answer" in check_op(artifact, op, tampered, None, {}, 0)
    assert "exit 3" in check_op(artifact, op, (3, "", "boom"), None, {}, 0)


def test_tracer_wraps_every_namespace_and_restores_it():
    holders = (artifact, artifact.ring, artifact.matchings, artifact.tpaths)
    before = [h.chebyshev_u for h in holders]
    mul = artifact.RingElem.__dict__["__mul__"]
    tr = Tracer()
    tr.install()
    try:
        wrapped = {id(h.chebyshev_u) for h in holders}
        assert len(wrapped) == 1 and id(before[0]) not in wrapped
        assert artifact.RingElem.__dict__["__mul__"] is not mul
    finally:
        tr.uninstall()
    assert [h.chebyshev_u for h in holders] == before
    assert artifact.RingElem.__dict__["__mul__"] is mul


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _u in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _b, _f in PER_LAYER] + [("trace.overhead_ratio",
                                                   "ratio")]
